"""The four workloads: their inputs, their operations and the checks on
each operation's output.

An operation is one instance for the library workloads and one `qwmix`
invocation for cli-audits. `run(op, pass_index)` returns the CPU seconds
the program took (`spans.cpu_seconds`, child processes included) and the
output to check; the caller compares every timed
pass with the untimed one and calls `check(op, outputs)` on the untimed
pass only after the timed passes, so references cost nothing inside the
timings.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import qwmix as q

import reference as ref
from spans import cpu_seconds

GEN_TOL = 1e-9  # generated chains, gaps and distances against references
UNIFORM_TOL = 1e-8  # grover_lattice(n,1) under uniform_dt_rule(n)
CLUSTER_TOL = 1e-8  # qwmix merges eigenvalues this close; the references never do
CHILD_TIMEOUT_S = 120
CT_RULES = (("delta", q.delta_rule), ("uniform_ct", q.uniform_ct_rule), ("exponential", q.exponential_rule))


def chain_faults(what: str, M: np.ndarray, diff: np.ndarray | None = None) -> list[str]:
    """Symmetric, doubly stochastic and, given a Cayley difference table,
    translation-invariant to GEN_TOL."""
    faults = []
    if M.min() < -GEN_TOL:
        faults.append(f"{what}: negative entry {M.min():.3g}")
    if np.abs(M - M.T).max() > GEN_TOL:
        faults.append(f"{what}: asymmetry {np.abs(M - M.T).max():.3g}")
    sums = max(np.abs(M.sum(axis=0) - 1.0).max(), np.abs(M.sum(axis=1) - 1.0).max())
    if sums > GEN_TOL:
        faults.append(f"{what}: row or column sums off by {sums:.3g}")
    if diff is not None and np.abs(M - M[:, 0][diff]).max() > GEN_TOL:
        faults.append(f"{what}: not translation-invariant ({np.abs(M - M[:, 0][diff]).max():.3g})")
    return faults


def compare(what: str, got, want) -> list[str]:
    dev = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    return [] if dev <= GEN_TOL else [f"{what}: off the reference by {dev:.3g}"]


def crossing(what: str, got, dist) -> list[str]:
    return [] if ref.crossing_agrees(got, dist) else [f"{what}: {got} is not the first 1/(2e) crossing"]


def same_output(a, b) -> bool:
    """Outputs of two passes agree: arrays and floats to GEN_TOL, the rest exactly."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_output(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return a.shape == b.shape and bool(np.abs(a - b).max(initial=0.0) <= GEN_TOL)
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= GEN_TOL
    return type(a) is type(b) and a == b


class Workload:
    """Operations run in the benchmark's own process; peak RSS is its own."""

    rss_of_children = False
    known_fault_ops: frozenset[str] = frozenset()

    def __init__(self, seed: int, spans, scratch: str):
        self.seed = seed
        self.spans = spans
        self.scratch = scratch
        self.ops: list[str] = []

    def run(self, op: str, pass_index: int):
        start = cpu_seconds()
        out = self.run_op(op)
        return cpu_seconds() - start, out

    def trace_extras(self, pass_index: int) -> None:
        """Traced-run work outside the operations; none by default."""

    def counts(self, outputs: dict) -> dict[str, float]:
        """Per-pass counts for the traced run; none by default."""
        return {}


class LatticeSweep(Workload):
    """Claim (c): standard walk on Z_n^d, CT rules at T = n*d/2 (seeded
    +-10%), repeated mixing, then the lazy chain's audit and tau. Sizes
    stop at N = 256: the projector stack of a larger lattice (78 MiB at
    lattice(20,2)) is streamed once per cluster, and its pass time then
    follows the memory traffic of the host's other guests (README)."""

    SIZES = ((8, 2), (12, 2), (16, 2), (4, 3), (6, 3))

    def __init__(self, seed, spans, scratch):
        super().__init__(seed, spans, scratch)
        rng = np.random.default_rng(seed)
        self.params = {}
        for n, d in self.SIZES:
            self.params[f"lattice({n},{d})"] = (n, d, n * d / 2.0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0)))
        self.ops = list(self.params)

    def run_op(self, op):
        n, d, T = self.params[op]
        call = self.spans.call
        G = call("graphs.build", q.lattice, n, d)
        P = call("chains.standard_chain", q.standard_chain, G)
        W = call("walks.quantize_ct", q.quantize_ct, P)
        chains, tprime = {}, {}
        for family, rule in CT_RULES:
            g = call(f"decoherence.generated_ct.{family}", q.generated_chain, W, rule(T))
            chains[family] = g.chain.entries
            tprime[family] = call("decoherence.repeated_mixing_time", q.repeated_mixing_time, g)
        L = call("chains.lazy_chain", q.lazy_chain, P)
        report = call("chains.verify_inequalities", q.verify_inequalities, L)
        return {
            "clusters": len(W.clusters),
            "chains": chains,
            "tprime": tprime,
            "tau": report.tau_mix,
            "gap": report.delta,
            "d_of_P": report.d_of_P,
            "all_hold": report.all_hold(),
        }

    def check(self, op, outputs):
        n, d, T = self.params[op]
        out = outputs[op]
        shape = (n,) * d
        diff = ref.difference_index(n, d)
        faults = []
        for family, M in out["chains"].items():
            col = ref.lattice_ct_column(n, d, family, T)
            faults += chain_faults(f"{op} {family}", M, diff)
            faults += compare(f"{op} {family} chain", M, col[diff])
            faults += crossing(f"{op} {family} T'", out["tprime"][family], ref.convolution_distance(col, shape))
        lazy = ref.lazy_lattice_column(n, d)
        faults += crossing(f"{op} lazy tau", out["tau"], ref.convolution_distance(lazy, shape))
        mags = np.sort(np.abs(0.5 + 0.5 * ref.lattice_eigenvalues(n, d)).reshape(-1))
        faults += compare(f"{op} lazy gap", out["gap"], 1.0 - mags[-2])
        faults += compare(f"{op} lazy d(P)", out["d_of_P"], ref.lattice_pairwise_distance(lazy, n, d))
        if not out["all_hold"]:
            faults.append(f"{op}: verify_inequalities reports a failed bound")
        return faults

    def describe(self, op, out):
        n, d, T = self.params[op]
        tp = ", ".join(f"{k} {v}" for k, v in out["tprime"].items())
        return f"{op}: N={n**d} C={out['clusters']} T={T:.4f} T'=({tp}) lazy tau={out['tau']}"


class RandomSpectrum(Workload):
    """Every eigenvalue its own cluster, no Cayley structure: the three CT
    rules at T = 3, the long-time limit and the chain's own audit. N is
    kept to 128 (a traced peak of 32 MiB per generated chain) for the
    reason LatticeSweep gives."""

    N = 128
    T = 3.0

    def __init__(self, seed, spans, scratch):
        super().__init__(seed, spans, scratch)
        self.ops = [f"random_symmetric({self.N})"]

    def run_op(self, op):
        call = self.spans.call
        rng = np.random.default_rng(self.seed)
        P = call("chains.random_symmetric_chain", q.random_symmetric_chain, self.N, rng)
        W = call("walks.quantize_ct", q.quantize_ct, P)
        chains, tprime = {}, {}
        for family, rule in CT_RULES:
            g = call(f"decoherence.generated_ct.{family}", q.generated_chain, W, rule(self.T))
            chains[family] = g.chain.entries
            tprime[family] = call("decoherence.repeated_mixing_time", q.repeated_mixing_time, g)
        limit = call("decoherence.limit_chain", q.limit_chain, W)
        report = call("chains.verify_inequalities", q.verify_inequalities, P)
        return {
            "P": P.entries,
            "clusters": len(W.clusters),
            "chains": chains,
            "tprime": tprime,
            "limit": limit.entries,
            "tau": report.tau_mix,
            "gap": report.delta,
            "d_of_P": report.d_of_P,
            "all_hold": report.all_hold(),
        }

    def check(self, op, outputs):
        out = outputs[op]
        P = out["P"]
        faults = chain_faults(f"{op} input", P)
        lam, V = np.linalg.eigh(P)
        for family, M in out["chains"].items():
            want = ref.pair_sum_generated(lam, V, family, self.T)
            faults += chain_faults(f"{op} {family}", M)
            faults += compare(f"{op} {family} chain", M, want)
            faults += crossing(f"{op} {family} T'", out["tprime"][family], ref.symmetric_distance(want))
        if np.diff(lam).min() <= CLUSTER_TOL:
            faults.append(f"{op}: input spectrum has a repeated eigenvalue")
        else:
            faults += compare(f"{op} limit chain", out["limit"], ref.nondegenerate_limit(V))
        faults += crossing(f"{op} tau", out["tau"], ref.symmetric_distance(P))
        faults += compare(f"{op} gap", out["gap"], ref.absolute_gap(P))
        faults += compare(f"{op} d(P)", out["d_of_P"], ref.pairwise_distance(P))
        if not out["all_hold"]:
            faults.append(f"{op}: verify_inequalities reports a failed bound")
        return faults

    def describe(self, op, out):
        tp = ", ".join(f"{k} {v}" for k, v in out["tprime"].items())
        return f"{op}: N={self.N} C={out['clusters']} T={self.T} T'=({tp}) tau={out['tau']}"


class CoinedWalks(Workload):
    """Discrete walks only: dense unitaries, their Gram checks and dense
    stepping; most of a pass is the Hadamard walk's geometric rule."""

    SZEGEDY_N = 32

    def __init__(self, seed, spans, scratch):
        super().__init__(seed, spans, scratch)
        m = int(np.random.default_rng(seed).integers(16, 65))
        h = 128
        # op -> (coined_walk arguments, or None for Szegedy; (rule family, T) pairs)
        self.walks = {
            f"hadamard_cycle({h})": (
                ("hadamard_cycle", h),
                (("uniform_dt", round(h / math.sqrt(2.0))), ("geometric", h / math.sqrt(2.0))),
            ),
            f"szegedy(complete({self.SZEGEDY_N}))": (None, (("uniform_dt", 6),)),
            "grover_lattice(8,2)": (("grover_lattice", 8, 2), (("geometric", 8.0),)),
            f"grover_lattice({m},1)": (("grover_lattice", m, 1), (("uniform_dt", m),)),
        }
        self.ops = list(self.walks)

    def run_op(self, op):
        call = self.spans.call
        spec, rules = self.walks[op]
        out = {}
        if spec is None:
            G = call("graphs.build", q.complete, self.SZEGEDY_N)
            P = call("chains.standard_chain", q.standard_chain, G)
            W = call("walks.quantize_szegedy", q.quantize_szegedy, P)
            out["phase_gap"] = call("walks.phase_gap", q.phase_gap, W)
        else:
            W = call("walks.coined_walk", q.coined_walk, *spec)
        out["dim"] = W.dim
        out["chains"], out["tprime"] = {}, {}
        for family, T in rules:
            rule = q.uniform_dt_rule(T) if family == "uniform_dt" else q.geometric_rule(T)
            g = call(f"decoherence.generated_dt.{family}", q.generated_chain, W, rule)
            out["chains"][family] = g.chain.entries
            out["tprime"][family] = call("decoherence.repeated_mixing_time", q.repeated_mixing_time, g)
        return out

    def check(self, op, outputs):
        out = outputs[op]
        spec, rules = self.walks[op]
        if spec is None:
            return self.check_szegedy(op, out, rules)
        faults = []
        n, d = (spec[1], 1) if spec[0] == "hadamard_cycle" else spec[1:]
        diff = ref.difference_index(n, d)
        for family, T in rules:
            M = out["chains"][family]
            what = f"{op} {family}"
            if spec[0] == "hadamard_cycle":
                col = ref.hadamard_column(n, family, T)
            else:
                col = ref.grover_lattice_column(n, d, family, T)
            faults += chain_faults(what, M, diff)
            faults += compare(what + " chain", M, col[diff])
            faults += crossing(what + " T'", out["tprime"][family], ref.convolution_distance(col, (n,) * d))
            if spec[0] == "grover_lattice" and d == 1:
                tv = 0.5 * np.abs(M - 1.0 / n).sum(axis=0).max()
                if tv > UNIFORM_TOL:
                    faults.append(f"{what}: {tv:.3g} from uniform")
        return faults

    def check_szegedy(self, op, out, rules):
        N = self.SZEGEDY_N
        faults = compare(op + " phase gap", out["phase_gap"], ref.complete_szegedy_phase_gap(N))
        for family, T in rules:
            M = out["chains"][family]
            what = f"{op} {family}"
            col = ref.complete_szegedy_column(N, family, T)
            a, b = col[0], col[1]
            want = np.full((N, N), b)
            np.fill_diagonal(want, a)
            faults += chain_faults(what, M)
            if np.ptp(np.diag(M)) > GEN_TOL or np.ptp(M[~np.eye(N, dtype=bool)]) > GEN_TOL:
                faults.append(f"{what}: breaks the S_N symmetry of the complete graph")
            faults += compare(what + " chain", M, want)
            # eigenvalues 1 and a - b: every column is |a - b|^t (N-1)/N from uniform
            faults += crossing(what + " T'", out["tprime"][family], lambda t: abs(a - b) ** t * (N - 1) / N)
        return faults

    def describe(self, op, out):
        rules = ", ".join(f"{fam}({T:.4g}) T'={out['tprime'][fam]}" for fam, T in self.walks[op][1])
        return f"{op}: dim={out['dim']} {rules}"


# Acceptance-test scale, one per registered audit; cycle sizes come from the seed.
AUDIT_GRIDS = {
    "gap_inequality_audit": {
        "chain": ["cycle:5", "cycle:7", "hypercube:3", "complete:6"],
        "T": [1.0, 5.0, 25.0],
        "k_values": [[1, 2, 3, 5]],
    },
    "measurement_equivalence_audit": {
        "chain": ["cycle:8", "hypercube:3", "complete:6", "lattice:4,2"],
        "T": [2.0, 4.0],
    },
    "cycle_threshold_audit": {"n": None, "walk": ["ct", "hadamard"]},
    "tensor_power_identity_audit": {
        "graph": ["cycle:3", "cycle:4", "cycle:5"],
        "d": [2],
        "t_values": [[0.9, 3.7, 11.0]],
    },
    "lattice_scaling_sweep": {"n_values": [[4, 6, 8, 10, 12]], "d_values": [[2]]},
    "grover_complete_graph_sweep": {"N_values": [[4, 8, 16, 32]]},
    "hypercube_limit_audit": {"d_values": [[1, 2, 3], [2, 4]]},
}
# One bad job in a grid: the run should record its error, keep the good
# job's result and exit 2. Fixed, so the operation fails the same way on
# every seed while the fault stands.
GRID_ERROR_CONFIG = {
    "experiment": "gap_inequality_audit",
    "grid": {"chain": ["cycle:5", "path:1"], "T": [2.0], "k_values": [[1, 2]]},
    "seed": 0,
}


def grid_jobs(grid: dict) -> list[dict]:
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def read_text(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def result_files(directory: str, experiment: str) -> dict[str, str]:
    """Result files of one experiment: `<experiment>-<12 hex>.json`."""
    if not os.path.isdir(directory):
        return {}
    out = {}
    for name in sorted(os.listdir(directory)):
        stem = name[len(experiment) + 1 : -len(".json")]
        if name.startswith(experiment + "-") and name.endswith(".json") and len(stem) == 12:
            out[name] = read_text(os.path.join(directory, name))
    return out


class CliAudits(Workload):
    """`qwmix run` on seven configs cold into a fresh directory, `qwmix
    report`, the seven again from the cache, then the bad-job grid."""

    rss_of_children = True
    known_fault_ops = frozenset({"grid_error"})

    def __init__(self, seed, spans, scratch):
        super().__init__(seed, spans, scratch)
        rng = np.random.default_rng(seed)
        self.grids = dict(AUDIT_GRIDS)
        self.grids["cycle_threshold_audit"] = {
            "n": [int(rng.integers(6, 17)), int(rng.integers(17, 33))],
            "walk": ["ct", "hadamard"],
        }
        config_seed = int(rng.integers(0, 2**32))
        self.configs = {}
        for name, grid in list(self.grids.items()) + [("grid_error", None)]:
            path = os.path.join(scratch, f"{name}.json")
            config = GRID_ERROR_CONFIG if grid is None else {"experiment": name, "grid": grid, "seed": config_seed}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            self.configs[name] = path
        self.ops = (
            [f"cold:{a}" for a in self.grids] + ["report"] + [f"cached:{a}" for a in self.grids] + ["grid_error"]
        )

    def run(self, op, pass_index):
        pass_dir = os.path.join(self.scratch, f"pass-{pass_index}")
        results = os.path.join(pass_dir, "results")
        kind, _, audit = op.partition(":")
        if kind == "cold":
            args, span = ["run", self.configs[audit], "--out", results], "cli.run_cold"
        elif kind == "cached":
            args, span = ["run", self.configs[audit], "--out", results, "--cache", "use"], "cli.run_cached"
        elif kind == "report":
            args, span = ["report", results], "cli.report"
        else:
            error_dir = os.path.join(pass_dir, "grid_error")
            args, span = ["run", self.configs["grid_error"], "--out", error_dir], "cli.run_grid_error"
        start = cpu_seconds()
        proc = self.spans.call(span, run_child, [sys.executable, "-m", "qwmix", *args])
        seconds = cpu_seconds() - start
        out = {"rc": proc.returncode}
        if kind in ("cold", "cached"):
            out["stdout"] = proc.stdout
            out["summary"] = read_text(os.path.join(results, "summary.json"))
            out["results"] = result_files(results, audit)
        elif kind == "report":
            out["csv"] = read_text(os.path.join(results, "combined.csv"))
        else:
            out["summary"] = read_text(os.path.join(error_dir, "summary.json"))
            out["results"] = result_files(error_dir, "gap_inequality_audit")
        return seconds, out

    def trace_extras(self, pass_index):
        self.spans.instance = "in-process"
        for audit, grid in self.grids.items():
            for params in grid_jobs(grid):
                self.spans.call(f"experiments.{audit}", q.run_experiment, audit, params)

    def counts(self, outputs):
        return {"cli.jobs": float(sum(len(outputs[f"cold:{a}"]["results"]) for a in self.grids))}

    def check(self, op, outputs):
        out = outputs[op]
        kind, _, audit = op.partition(":")
        if kind == "grid_error":
            faults = [] if out["rc"] == 2 else [f"{op}: exit {out['rc']}, wanted 2"]
            if out["summary"] is None or "path:1" not in out["summary"]:
                faults.append(f"{op}: summary.json does not record the path:1 error")
            chains = [json.loads(text)["params"]["chain"] for text in out["results"].values()]
            if "cycle:5" not in chains:
                faults.append(f"{op}: the cycle:5 result was not written")
            return faults
        if out["rc"] != 0:
            return [f"{op}: exit {out['rc']}"]
        if kind == "report":
            rows = 0
            for a in self.grids:
                for text in outputs[f"cold:{a}"]["results"].values():
                    result = json.loads(text)["result"]
                    rows += len(result["measurements"]) + len(result["assertions"])
            got = -1 if out["csv"] is None else len(out["csv"].splitlines()) - 1
            return [] if got == rows else [f"{op}: combined.csv has {got} rows, wanted {rows}"]
        faults = []
        jobs = len(grid_jobs(self.grids[audit]))
        summary = json.loads(out["summary"]) if out["summary"] else {}
        if summary.get("all_hold") is not True or summary.get("experiment") != audit:
            faults.append(f"{op}: summary.json lacks all_hold true for {audit}")
        if len(out["results"]) != jobs:
            faults.append(f"{op}: {len(out['results'])} result files, wanted {jobs}")
        if kind == "cached":
            origins = [line.split()[2] for line in out["stdout"].splitlines() if line.startswith(audit + " ")]
            if origins != ["cached"] * jobs:
                faults.append(f"{op}: job origins {origins}, wanted every job cached")
            if out["results"] != outputs[f"cold:{audit}"]["results"]:
                faults.append(f"{op}: the cached run changed a result file")
        elif audit == "cycle_threshold_audit":
            faults += self.check_cycle_ct(op, out["results"])
        return faults

    def check_cycle_ct(self, op, results):
        """T' of the CT cycle walk against the Fourier reference with d = 1."""
        faults = []
        for text in results.values():
            payload = json.loads(text)
            if payload["params"]["walk"] != "ct":
                continue
            n = int(payload["params"]["n"])
            values = dict(payload["result"]["measurements"])
            for label, frac in (("2/3", 2.0 / 3.0), ("5/6", 5.0 / 6.0), ("1", 1.0)):
                for family, _ in CT_RULES:
                    col = ref.lattice_ct_column(n, 1, family, frac * n / 2.0)
                    value = values.get(f"tprime_{family}_frac_{label}")
                    got = int(value) if isinstance(value, float) and value.is_integer() else value
                    faults += crossing(f"{op} n={n} {family} {label}", got, ref.convolution_distance(col, (n,)))
        return faults

    def describe(self, op, out):
        jobs = len(out.get("results", {}))
        return f"{op}: exit {out['rc']}" + (f", {jobs} result files" if "results" in out else "")


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)


WORKLOADS = {
    "lattice-sweep": LatticeSweep,
    "random-spectrum": RandomSpectrum,
    "coined-walks": CoinedWalks,
    "cli-audits": CliAudits,
}

