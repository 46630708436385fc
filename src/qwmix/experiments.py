"""Runnable, assertable experiments over the walk/chain machinery.

Every experiment returns an ExperimentResult whose assertions satisfy
holds == (lhs <= rhs + 1e-12) exactly as computed, and is deterministic
given its inputs. Asymptotic claims are operationalized as finite
proxies: frozen ceilings measured on a first run and committed, plus
log-log regression slopes with at least 4 points per fit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .chains import (
    MarkovChain,
    NoMix,
    lazy_chain,
    mixing_time,
    one_norm,
    spectral_gap,
    standard_chain,
    uniform_projector_chain,
)
from .config import default_horizon
from .decoherence import (
    delta_rule,
    exponential_rule,
    generated_chain,
    geometric_rule,
    limit_chain,
    repeated_mixing_time,
    uniform_ct_rule,
    uniform_dt_rule,
)
from .graphs import Graph, build_graph, cartesian_power, hypercube, lattice
from .walks import coined_walk, quantize_ct, quantize_szegedy

ASSERT_TOL = 1e-12

# Frozen ceilings, measured on the first derived run and committed.
# Cycle audits: observed max T' is 4 across n in 4..128, both families.
CYCLE_AUDIT_CT_CEILING = 5.0
CYCLE_AUDIT_HADAMARD_CEILING = 5.0
EQUIVALENCE_CEILING = 8.0
LATTICE_TPRIME_CEILING = 3.0
HYPERCUBE_LIMIT_FLOOR = 0.01

GAP_SANDWICH_SLACK = 1e-10
TENSOR_IDENTITY_TOL = 1e-9
LATTICE_CLASSICAL_MIN_SLOPE = 1.8
LATTICE_QUANTUM_MAX_SLOPE = 1.2
GROVER_SLOPE_RANGE = (0.8, 1.2)


@dataclass(frozen=True)
class Assertion:
    label: str
    lhs: float
    rhs: float
    holds: bool


def make_assertion(label: str, lhs: float, rhs: float, slack: float = 0.0) -> Assertion:
    rhs_total = float(rhs) + slack
    return Assertion(label, float(lhs), rhs_total, bool(float(lhs) <= rhs_total + ASSERT_TOL))


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    parameters: dict
    measurements: tuple[tuple[str, float | None], ...]
    assertions: tuple[Assertion, ...]
    artifacts: tuple[str, ...] = field(default=())

    def all_hold(self) -> bool:
        return all(a.holds for a in self.assertions)

    def failing(self) -> list[Assertion]:
        return [a for a in self.assertions if not a.holds]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "measurements": [[k, v] for (k, v) in self.measurements],
            "assertions": [[a.label, a.lhs, a.rhs, a.holds] for a in self.assertions],
            "artifacts": list(self.artifacts),
        }


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(lx, ly, 1)[0])


def _tprime_value(tp: int | NoMix) -> tuple[float | None, float]:
    """(measurement value, assertion lhs) for a repeated or classical
    mixing time.

    NoMix records a null measurement; its horizon + 1 is a true lower
    bound on the unreached mixing time, so ceiling assertions fail
    honestly.
    """
    if isinstance(tp, NoMix):
        return None, float(tp.horizon + 1)
    return float(tp), float(tp)


def _tprime(walk, rule) -> tuple[float | None, float]:
    """_tprime_value of the repeated mixing time of walk measured under rule."""
    return _tprime_value(repeated_mixing_time(generated_chain(walk, rule)))


def _require_symmetric_irreducible(P: MarkovChain) -> None:
    if not P.is_symmetric:
        raise ValueError(f"chain {P.label!r} must be symmetric")
    if not P.is_irreducible:
        raise ValueError(f"chain {P.label!r} must be irreducible")


def gap_inequality_audit(P: MarkovChain, T: float, k_values: list[int]) -> ExperimentResult:
    """Sandwich between the spectral gaps of the averaged-rule and the
    memoryless-rule generated chains at matched horizons.

    With gap_avg(T) from the uniform-average rule and gap_mem(T) from
    the exponential rule: exp(-1) * gap_avg(T) <= gap_mem(T), and
    gap_mem(T) <= k*(1 - exp(-k)) * gap_avg(k*T) + 2*exp(-k).
    """
    _require_symmetric_irreducible(P)
    if any(k < 1 for k in k_values):
        raise ValueError(f"k values must be >= 1, got {k_values}")
    walk = quantize_ct(P)
    gap_avg = spectral_gap(generated_chain(walk, uniform_ct_rule(T)).chain)
    gap_mem = spectral_gap(generated_chain(walk, exponential_rule(T)).chain)
    measurements = [("gap_uniform_ct", gap_avg), ("gap_exponential", gap_mem)]
    assertions = [
        make_assertion("left_gap_bound", math.exp(-1.0) * gap_avg, gap_mem, GAP_SANDWICH_SLACK)
    ]
    for k in k_values:
        gap_avg_k = spectral_gap(generated_chain(walk, uniform_ct_rule(k * T)).chain)
        measurements.append((f"gap_uniform_ct_k{k}", gap_avg_k))
        rhs = k * (1.0 - math.exp(-k)) * gap_avg_k + 2.0 * math.exp(-k)
        assertions.append(make_assertion(f"right_gap_bound_k{k}", gap_mem, rhs, GAP_SANDWICH_SLACK))
    return ExperimentResult(
        "gap_inequality_audit",
        {"chain": P.label, "T": T, "k_values": list(k_values)},
        tuple(measurements),
        tuple(assertions),
    )


def measurement_equivalence_audit(P: MarkovChain, T: float) -> ExperimentResult:
    """Repeated mixing under the uniform-average rule versus the
    memoryless rule at the same horizon.

    Records C = T'_mem / (T'_avg * (1 + ln N)) and, with k of order
    ln(T'_mem), C' = T'_avg(kT) / (T'_mem * (1 + ln T'_mem) * (1 + ln N));
    asserts both stay below a frozen ceiling.
    """
    _require_symmetric_irreducible(P)
    n = P.size
    walk = quantize_ct(P)
    tp_avg, _ = _tprime(walk, uniform_ct_rule(T))
    tp_mem, _ = _tprime(walk, exponential_rule(T))
    parameters = {"chain": P.label, "T": T}
    measurements = [("tprime_uniform_ct", tp_avg), ("tprime_exponential", tp_mem)]
    if tp_avg is None or tp_mem is None:
        which = [name for name, tp in zip(("uniform_ct", "exponential"), (tp_avg, tp_mem)) if tp is None]
        parameters["diagnosis"] = (
            f"inconclusive: {'+'.join(which)} did not mix within horizon {default_horizon(n)}; "
            "raise T or the horizon"
        )
        return ExperimentResult(
            "measurement_equivalence_audit", parameters, tuple(measurements), ()
        )
    log_n = 1.0 + math.log(n)
    C = tp_mem / (tp_avg * log_n)
    k = max(1, math.ceil(math.log(max(tp_mem, math.e))))
    meas_k, lhs_k = _tprime(walk, uniform_ct_rule(k * T))
    c_prime = lhs_k / (tp_mem * (1.0 + math.log(tp_mem)) * log_n)
    measurements += [
        ("k", float(k)),
        ("tprime_uniform_ct_kT", meas_k),
        ("C", C),
        ("C_prime", c_prime),
    ]
    assertions = [
        make_assertion("equivalence_forward_ceiling", C, EQUIVALENCE_CEILING),
        make_assertion("equivalence_backward_ceiling", c_prime, EQUIVALENCE_CEILING),
    ]
    return ExperimentResult(
        "measurement_equivalence_audit", parameters, tuple(measurements), tuple(assertions)
    )


def cycle_threshold_audit(n: int, walk_family: str) -> ExperimentResult:
    """Constant-round mixing of measured cycle walks at horizons inside
    the linear window.

    Continuous time samples T at {2/3, 5/6, 1} * (n/2) under all three
    continuous rules; the coined walk samples {2/3, 1} * (n/sqrt(2))
    under the two time-averaged discrete rules, and for even n also
    checks that the single-time chain is parity-confined.
    """
    measurements: list[tuple[str, float | None]] = []
    assertions: list[Assertion] = []
    parameters = {"n": n, "walk": walk_family}
    if walk_family == "ct":
        if n < 3:
            raise ValueError(f"continuous cycle audit needs n >= 3, got {n}")
        P = standard_chain(build_graph("cycle", [n]))
        walk = quantize_ct(P)
        for frac_label, frac in (("2/3", 2.0 / 3.0), ("5/6", 5.0 / 6.0), ("1", 1.0)):
            T = frac * (n / 2.0)
            for rule_fn, rule_name in (
                (delta_rule, "delta"),
                (uniform_ct_rule, "uniform_ct"),
                (exponential_rule, "exponential"),
            ):
                value, lhs = _tprime(walk, rule_fn(T))
                label = f"tprime_{rule_name}_frac_{frac_label}"
                measurements.append((label, value))
                assertions.append(make_assertion(f"ceiling_{rule_name}_frac_{frac_label}", lhs, CYCLE_AUDIT_CT_CEILING))
    elif walk_family == "hadamard":
        if n < 2:
            raise ValueError(f"coined cycle audit needs n >= 2, got {n}")
        walk = coined_walk("hadamard_cycle", n)
        for frac_label, frac in (("2/3", 2.0 / 3.0), ("1", 1.0)):
            T = frac * (n / math.sqrt(2.0))
            for rule_name in ("uniform_dt", "geometric"):
                if rule_name == "uniform_dt":
                    rule = uniform_dt_rule(max(1, round(T)))
                else:
                    rule = geometric_rule(max(1.0, T))
                value, lhs = _tprime(walk, rule)
                measurements.append((f"tprime_{rule_name}_frac_{frac_label}", value))
                assertions.append(
                    make_assertion(f"ceiling_{rule_name}_frac_{frac_label}", lhs, CYCLE_AUDIT_HADAMARD_CEILING)
                )
        if n % 2 == 0:
            # single integer-time chain only reaches positions of one parity
            t = max(1, round(n / math.sqrt(2.0)))
            single = generated_chain(walk, delta_rule(t)).chain.entries
            y, x = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
            wrong = (y - x - t) % 2 == 1
            leak = float(single[wrong].max()) if wrong.any() else 0.0
            measurements.append(("parity_leak", leak))
            assertions.append(make_assertion("parity_caveat", leak, 0.0, slack=1e-12))
    else:
        raise ValueError(f"walk must be 'ct' or 'hadamard', got {walk_family!r}")
    return ExperimentResult(
        "cycle_threshold_audit", parameters, tuple(measurements), tuple(assertions)
    )


def tensor_power_identity_audit(G: Graph, d: int, t_values: list[float]) -> ExperimentResult:
    """Single-time generated chain of a Cartesian power versus the
    Kronecker power of the base chain measured at t/d."""
    degrees = G.degrees()
    if degrees.min() != degrees.max():
        raise ValueError(f"graph {G.kind_tag} must be regular")
    power = cartesian_power(G, d)  # refused past the state cap before any eigensolve
    base_walk = quantize_ct(standard_chain(G))
    power_walk = quantize_ct(standard_chain(power))
    measurements = []
    assertions = []
    for t in t_values:
        big = generated_chain(power_walk, delta_rule(t)).chain.entries
        single = generated_chain(base_walk, delta_rule(t / d)).chain.entries
        K = np.array([[1.0]])
        for _ in range(d):
            K = np.kron(K, single)
        dev = float(np.abs(big - K).max())
        measurements.append((f"max_deviation_t{t:g}", dev))
        assertions.append(make_assertion(f"tensor_identity_t{t:g}", dev, TENSOR_IDENTITY_TOL))
    return ExperimentResult(
        "tensor_power_identity_audit",
        {"graph": G.kind_tag, "d": d, "t_values": list(t_values)},
        tuple(measurements),
        tuple(assertions),
    )


def lattice_scaling_sweep(n_values: list[int], d_values: list[int]) -> ExperimentResult:
    """Classical versus measured-quantum mixing cost on periodic
    lattices.

    Quantum side: repeated mixing rounds of the continuous walk measured
    at T = n*d/2 (single-time and uniform-average rules), with total
    cost T * T'. Classical side: threshold mixing time of the lattice
    chain, made lazy for even n (bipartite otherwise). Asserts a frozen
    T' ceiling that grows only like 1 + ln d, classical n-slope >= 1.8
    at fixed d, quantum cost n-slope <= 1.2, and T' growth of at most +2
    per step in d at n = 4.
    """
    measurements = []
    assertions = []
    tprime: dict[tuple[int, int, str], float] = {}
    cost: dict[tuple[int, int, str], float] = {}
    tau_classical: dict[tuple[int, int], float] = {}
    for d in d_values:
        for n in n_values:
            P = standard_chain(lattice(n, d))
            walk = quantize_ct(P)
            T = n * d / 2.0
            for rule_fn, rule_name in ((delta_rule, "delta"), (uniform_ct_rule, "uniform_ct")):
                value, lhs = _tprime(walk, rule_fn(T))
                tprime[(n, d, rule_name)] = lhs
                cost[(n, d, rule_name)] = T * lhs
                measurements.append((f"quantum_tprime_{rule_name}_n{n}_d{d}", value))
                measurements.append((f"quantum_cost_{rule_name}_n{n}_d{d}", T * lhs))
                assertions.append(
                    make_assertion(
                        f"quantum_tprime_ceiling_{rule_name}_n{n}_d{d}",
                        lhs,
                        LATTICE_TPRIME_CEILING * (1.0 + math.log(d)),
                    )
                )
            classical = lazy_chain(P) if n % 2 == 0 else P
            _, tau_v = _tprime_value(mixing_time(classical))
            tau_classical[(n, d)] = tau_v
            measurements.append((f"classical_tau_n{n}_d{d}", tau_v))
    for d in d_values:
        pts = sorted(n for n in n_values if (n, d) in tau_classical)
        if len(pts) >= 4:
            slope_c = loglog_slope(pts, [tau_classical[(n, d)] for n in pts])
            measurements.append((f"classical_slope_d{d}", slope_c))
            assertions.append(
                make_assertion(f"classical_slope_floor_d{d}", LATTICE_CLASSICAL_MIN_SLOPE, slope_c)
            )
            for rule_name in ("delta", "uniform_ct"):
                slope_q = loglog_slope(pts, [cost[(n, d, rule_name)] for n in pts])
                measurements.append((f"quantum_cost_slope_{rule_name}_d{d}", slope_q))
                assertions.append(
                    make_assertion(
                        f"quantum_cost_slope_ceiling_{rule_name}_d{d}",
                        slope_q,
                        LATTICE_QUANTUM_MAX_SLOPE,
                    )
                )
    if 4 in n_values and len(d_values) >= 2:
        ds = sorted(d_values)
        for rule_name in ("delta", "uniform_ct"):
            for lo, hi in zip(ds, ds[1:]):
                assertions.append(
                    make_assertion(
                        f"tprime_log_growth_{rule_name}_d{lo}to{hi}",
                        tprime[(4, hi, rule_name)],
                        tprime[(4, lo, rule_name)] + 2.0,
                    )
                )
    return ExperimentResult(
        "lattice_scaling_sweep",
        {"n_values": list(n_values), "d_values": list(d_values)},
        tuple(measurements),
        tuple(assertions),
    )


def grover_complete_graph_sweep(N_values: list[int]) -> ExperimentResult:
    """Slowdown of the measured discrete walk on complete graphs.

    At T = ceil(sqrt(N)) under the uniform discrete rule, repeated
    mixing rounds grow roughly linearly in N while the classical chain
    mixes in at most 2 steps. N = 2 is degenerate on both sides (the
    embedding subspace is invariant and the classical chain is
    bipartite), so it runs as a smoke case with no assertions and is
    excluded from the regression.
    """
    measurements = []
    assertions = []
    fit_ns = []
    fit_tp = []
    for N in N_values:
        P = standard_chain(build_graph("complete", [N]))
        walk = quantize_szegedy(P)
        T = int(math.ceil(math.sqrt(N)))
        value, _ = _tprime(walk, uniform_dt_rule(T))
        measurements.append((f"tprime_N{N}", value))
        tau_v, lhs_tau = _tprime_value(mixing_time(P))
        measurements.append((f"classical_tau_N{N}", tau_v))
        if N >= 3:
            assertions.append(make_assertion(f"classical_fast_N{N}", lhs_tau, 2.0))
        if N >= 3 and value is not None:
            fit_ns.append(N)
            fit_tp.append(value)
    if len(fit_ns) >= 4:
        slope = loglog_slope(fit_ns, fit_tp)
        measurements.append(("tprime_slope", slope))
        assertions.append(make_assertion("slowdown_slope_floor", GROVER_SLOPE_RANGE[0], slope))
        assertions.append(make_assertion("slowdown_slope_ceiling", slope, GROVER_SLOPE_RANGE[1]))
    return ExperimentResult(
        "grover_complete_graph_sweep",
        {"N_values": list(N_values)},
        tuple(measurements),
        tuple(assertions),
    )


def hypercube_limit_audit(d_values: list[int]) -> ExperimentResult:
    """Long-time limit of the measured hypercube walk stays bounded away
    from uniform, yet the repeated walk still mixes.

    d = 1 is the two-state chain: its limit matrix is exactly uniform
    (two singleton eigenvalue clusters), so the nonuniformity floor is
    asserted for d >= 2 only; the repeated smooth-rule walk must mix for
    every d, which is the d = 1 content (the unmeasured chain is
    bipartite and periodic, the measured one still mixes).
    """
    measurements = []
    assertions = []
    for d in d_values:
        P = standard_chain(hypercube(d))
        size = P.size
        walk = quantize_ct(P)
        Pi = limit_chain(walk)
        dev = 0.5 * one_norm(Pi.entries - 1.0 / size)
        measurements.append((f"limit_deviation_d{d}", dev))
        if d >= 2:
            assertions.append(make_assertion(f"limit_nonuniform_d{d}", HYPERCUBE_LIMIT_FLOOR, dev))
        if d == 1:
            measurements.append(("base_period_d1", float(P.period)))
        value, lhs = _tprime(walk, uniform_ct_rule(10.0 * size))
        measurements.append((f"tprime_uniform_ct_d{d}", value))
        assertions.append(make_assertion(f"repeated_mixes_d{d}", lhs, float(default_horizon(size))))
    return ExperimentResult(
        "hypercube_limit_audit",
        {"d_values": list(d_values)},
        tuple(measurements),
        tuple(assertions),
    )


def chain_from_spec(spec: str) -> MarkovChain:
    """Parse "kind:p1,p2" chain specs; "lazy:" prefixes add a 1/2
    holding probability and "uniform:N" is the rank-one uniform chain.
    A spec that is not a string is read as its str()."""
    spec = str(spec)
    if spec.startswith("lazy:"):
        return lazy_chain(chain_from_spec(spec[len("lazy:"):]))
    kind, _, rest = spec.partition(":")
    if kind == "uniform":
        return uniform_projector_chain(int(rest))
    return standard_chain(graph_from_spec(spec))


def graph_from_spec(spec: str) -> Graph:
    kind, _, rest = str(spec).partition(":")
    if not rest:
        raise ValueError(f"graph spec {spec!r} needs parameters, e.g. 'cycle:5'")
    params = [int(p) for p in rest.split(",")]
    return build_graph(kind, params)


def _int_list(value) -> list[int]:
    return [int(v) for v in value]


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: its runner, its JSON parameters in
    argument order with the parser of each, and its report description."""

    run: Callable[..., ExperimentResult]
    params: dict[str, Callable]
    description: str


EXPERIMENTS = {
    "gap_inequality_audit": Experiment(
        gap_inequality_audit,
        {"chain": chain_from_spec, "T": float, "k_values": _int_list},
        "sandwich between averaged-rule and memoryless-rule spectral gaps",
    ),
    "measurement_equivalence_audit": Experiment(
        measurement_equivalence_audit,
        {"chain": chain_from_spec, "T": float},
        "equivalence of averaged and memoryless measurement mixing times",
    ),
    "cycle_threshold_audit": Experiment(
        cycle_threshold_audit,
        {"n": int, "walk": str},
        "constant-round mixing of measured cycle walks inside the linear window",
    ),
    "tensor_power_identity_audit": Experiment(
        tensor_power_identity_audit,
        {"graph": graph_from_spec, "d": int, "t_values": lambda v: [float(t) for t in v]},
        "generated chain of a graph power factorizes as a Kronecker power",
    ),
    "lattice_scaling_sweep": Experiment(
        lattice_scaling_sweep,
        {"n_values": _int_list, "d_values": _int_list},
        "classical quadratic versus measured-quantum near-linear lattice mixing cost",
    ),
    "grover_complete_graph_sweep": Experiment(
        grover_complete_graph_sweep,
        {"N_values": _int_list},
        "linear slowdown of the measured discrete walk on complete graphs",
    ),
    "hypercube_limit_audit": Experiment(
        hypercube_limit_audit,
        {"d_values": _int_list},
        "nonuniform long-time hypercube limit with finite repeated mixing",
    ),
}


def check_experiment(name, keys) -> Experiment:
    """The registry entry of `name` once `keys` match its parameter names;
    KeyError for an unknown experiment, ValueError for a key mismatch."""
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {experiment_names()}")
    entry = EXPERIMENTS[name]
    expected = sorted(entry.params)
    if sorted(keys) != expected:
        raise ValueError(f"keys {sorted(keys)} do not match parameters {expected} of {name!r}")
    return entry


def run_experiment(name: str, params: dict) -> ExperimentResult:
    """Run a registered experiment from JSON-style parameters."""
    entry = check_experiment(name, params)
    return entry.run(*(parse(params[key]) for key, parse in entry.params.items()))


def experiment_names() -> list[str]:
    return sorted(EXPERIMENTS)
