"""Command-line front end: run experiment grids, build reports, export
chains, and inspect walk spectra.

Exit codes: 0 all assertions hold, 1 at least one assertion failed,
2 configuration or usage error, an output path that cannot be written,
or a job that raised.

Start-up loads only the standard library and the numpy-free config and
registry modules. The numerical modules load inside the commands that
compute: `run` on a cache miss, `chain export` and `walk spectrum`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
from collections import namedtuple

from .config import atomic_write_text
from .registry import EXPERIMENTS, check_experiment

MAX_GRID_JOBS = 10_000
CACHE_MODES = ("use", "refresh")


class ConfigError(ValueError):
    pass


class RunConfig(namedtuple("RunConfig", "experiment grid seed out_dir cache")):
    __slots__ = ()

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        missing = {"experiment", "grid"} - set(raw)
        if missing:
            raise ConfigError(f"config missing keys: {sorted(missing)}")
        experiment, grid = raw["experiment"], raw["grid"]
        if not isinstance(grid, dict) or not all(isinstance(v, list) and v for v in grid.values()):
            raise ConfigError("grid must map each parameter to a nonempty list of values")
        try:
            check_experiment(experiment, grid)
        except (KeyError, ValueError) as exc:
            raise ConfigError(exc.args[0]) from None
        jobs = math.prod(len(v) for v in grid.values())
        if jobs > MAX_GRID_JOBS:
            raise ConfigError(f"grid expands to {jobs} jobs, cap is {MAX_GRID_JOBS}")
        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ConfigError(f"seed must be an integer that fits in 64 bits, got {seed!r}")
        cache = raw.get("cache", "use")
        if cache not in CACHE_MODES:
            raise ConfigError(f"cache must be one of {CACHE_MODES}, got {cache!r}")
        out_dir = raw.get("out", "results")
        return RunConfig(experiment, grid, seed, str(out_dir), cache)

    def jobs(self) -> list[dict]:
        keys = sorted(self.grid)
        combos = itertools.product(*(self.grid[k] for k in keys))
        return [dict(zip(keys, combo)) for combo in combos]


@functools.cache
def _source_digest() -> str:
    """sha256 of the package's module sources, read on first use: a cache
    never returns results from older code."""
    h = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        with open(os.path.join(package, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def cache_key(experiment: str, params: dict, seed: int) -> str:
    payload = json.dumps(
        {"experiment": experiment, "params": params, "seed": seed, "source": _source_digest()},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _result_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _check_payload(payload) -> None:
    """Raise ValueError, KeyError or TypeError unless payload has the
    shape _run_one writes: the keys, and result rows as
    ExperimentResult.to_dict writes them."""
    result = payload["result"]
    _ = payload["params"]
    if not all(isinstance(payload[k], str) for k in ("experiment", "cache_key")):
        raise ValueError("experiment and cache_key must be strings")
    if not all(
        isinstance(a, list) and len(a) == 4 and isinstance(a[3], bool)
        for a in result["assertions"]
    ):
        raise ValueError("assertion row is not [label, lhs, rhs, holds]")
    if not all(
        isinstance(m, list) and len(m) == 2 and isinstance(m[1], (int, float, type(None)))
        for m in result["measurements"]
    ):
        raise ValueError("measurement row is not [label, number or null]")


def _run_one(config: RunConfig, params: dict, key: str, path: str) -> dict:
    """The payload of one job, read from its result file at path when the
    cache allows, else computed and written there."""
    if config.cache == "use" and os.path.exists(path):
        try:
            with open(path) as fh:
                stored = json.load(fh)
            _check_payload(stored)
            if stored["cache_key"] == key:
                stored["cached"] = True
                return stored
        except (ValueError, KeyError, TypeError, OSError):
            pass  # unreadable or malformed: a cache miss, recomputed below
    from .experiments import run_experiment  # numpy loads only on a cache miss

    result = run_experiment(config.experiment, params)
    payload = {
        "experiment": config.experiment,
        "params": params,
        "seed": config.seed,
        "cache_key": key,
        "result": result.to_dict(),
    }
    atomic_write_text(path, _result_json(payload))
    payload["cached"] = False
    return payload


def command_run(config_path: str, seed, out_dir, cache) -> int:
    try:
        with open(config_path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    overrides = {"seed": seed, "out": out_dir, "cache": cache}
    if isinstance(raw, dict):
        raw.update({k: v for k, v in overrides.items() if v is not None})
    try:
        config = RunConfig.from_dict(raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        return _cannot_write(config.out_dir, exc)
    job_params = config.jobs()
    failures, errors = [], []
    for params in job_params:
        key = cache_key(config.experiment, params, config.seed)
        path = os.path.join(config.out_dir, f"{config.experiment}-{key[:12]}.json")
        try:
            payload = _run_one(config, params, key, path)
        except (ValueError, TypeError, KeyError) as exc:
            message = f"{type(exc).__name__}: {exc}"
            print(f"error: job {json.dumps(params, sort_keys=True)}: {message}", file=sys.stderr)
            errors.append([params, message])
            continue
        except OSError as exc:  # the result file could not be written
            reason = f"cannot write {path}: {exc.strerror or exc}"
            print(f"error: {reason}", file=sys.stderr)
            errors.append([params, f"{type(exc).__name__}: {reason}"])
            continue
        result = payload["result"]
        failing = [a for a in result["assertions"] if not a[3]]
        status = "ok" if not failing else "FAIL"
        origin = "cached" if payload.get("cached") else "computed"
        print(f"{payload['experiment']} {payload['cache_key'][:12]} {origin} {status}")
        for label, lhs, rhs, _ in failing:
            failures.append([payload["cache_key"][:12], label, lhs, rhs])
    summary = {
        "experiment": config.experiment,
        "jobs": len(job_params),
        "failures": failures,
        "errors": errors,
        "all_hold": not failures and not errors,
    }
    summary_path = os.path.join(config.out_dir, "summary.json")
    try:
        atomic_write_text(summary_path, _result_json(summary))
    except OSError as exc:
        return _cannot_write(summary_path, exc)
    if failures:
        print(f"{len(failures)} assertion(s) failed:", file=sys.stderr)
        for key12, label, lhs, rhs in failures:
            print(f"  {key12} {label}: {lhs:.6g} <= {rhs:.6g} is false", file=sys.stderr)
    if errors:
        return 2
    return 1 if failures else 0


def command_report(result_dir: str) -> int:
    if not os.path.isdir(result_dir):
        print(f"error: {result_dir!r} is not a directory", file=sys.stderr)
        return 2
    names = sorted(
        f for f in os.listdir(result_dir) if f.endswith(".json") and f != "summary.json"
    )
    grouped: dict[str, list[dict]] = {}
    skipped = 0
    for name in names:
        path = os.path.join(result_dir, name)
        try:
            with open(path) as fh:
                payload = json.load(fh)
            _check_payload(payload)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"warning: skipping corrupt result file {name}: {exc}", file=sys.stderr)
            skipped += 1
        else:
            grouped.setdefault(payload["experiment"], []).append(payload)
    if not grouped:
        print(f"error: no readable result files in {result_dir!r}", file=sys.stderr)
        return 2
    lines = ["# Experiment report", ""]
    csv_rows = ["experiment,param_hash,label,value"]
    for experiment in sorted(grouped):
        lines.append(f"## {experiment}")
        lines.append("")
        lines.append(EXPERIMENTS[experiment].description if experiment in EXPERIMENTS else "")
        lines.append("")
        lines.append("| params | assertions | failing |")
        lines.append("|---|---|---|")
        for payload in sorted(grouped[experiment], key=lambda p: p["cache_key"]):
            result = payload["result"]
            key12 = payload["cache_key"][:12]
            n_assert = len(result["assertions"])
            n_fail = sum(1 for a in result["assertions"] if not a[3])
            param_text = json.dumps(payload["params"], sort_keys=True)
            lines.append(f"| `{param_text}` | {n_assert} | {n_fail} |")
            for label, value in result["measurements"]:
                text = "" if value is None else f"{value:.17g}"
                csv_rows.append(f"{experiment},{key12},{label},{text}")
            for label, _, _, holds in result["assertions"]:
                csv_rows.append(f"{experiment},{key12},assert:{label},{int(holds)}")
        lines.append("")
    if skipped:
        lines.append(f"Skipped {skipped} corrupt result file(s).")
        lines.append("")
    report_path = os.path.join(result_dir, "report.md")
    csv_path = os.path.join(result_dir, "combined.csv")
    for path, text in ((report_path, "\n".join(lines)), (csv_path, "\n".join(csv_rows) + "\n")):
        try:
            atomic_write_text(path, text)
        except OSError as exc:
            return _cannot_write(path, exc)
    print(f"wrote {report_path} and {csv_path}")
    return 0


def command_chain_export(kind: str, params: str, out_path: str) -> int:
    from .chains import save_csv
    from .experiments import chain_from_spec

    spec = f"{kind}:{params}" if params else kind
    try:
        P = chain_from_spec(spec)
        save_csv(P, out_path)  # reads the N x N entries, refused past the state cap
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        return _cannot_write(out_path, exc)
    print(f"wrote {out_path} ({P.size} states)")
    return 0


def command_walk_spectrum(kind: str, params: str) -> int:
    import numpy as np

    from .experiments import chain_from_spec
    from .walks import (
        DegenerateSpectrumError,
        coined_walk,
        eigenphase_gap,
        eigenphases,
        phase_gap,
        quantize_ct,
        quantize_szegedy,
    )

    try:
        if kind == "ct":
            walk = quantize_ct(chain_from_spec(params))
        elif kind == "szegedy":
            walk = quantize_szegedy(chain_from_spec(params))
        elif kind in ("hadamard_cycle", "grover_lattice"):
            walk = coined_walk(kind, *[int(p) for p in params.split(",")])
        else:
            print(
                "error: walk kind must be ct, szegedy, hadamard_cycle, or grover_lattice",
                file=sys.stderr,
            )
            return 2
        # eigenvalues of the CT Hamiltonian, eigenphases of a DT walk from
        # its structure (one solve serves the listing and the gap)
        spectrum = walk.eigenvalues if kind == "ct" else eigenphases(walk)
        try:
            value = phase_gap(walk) if kind == "ct" else eigenphase_gap(spectrum)
            gap = f"{value:.17g}"
        except DegenerateSpectrumError:
            gap = "degenerate spectrum"
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for value in np.sort(spectrum):
        print(f"{value:.17g}")
    print(f"phase_gap {gap}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qwmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment grid from a JSON config")
    run_p.add_argument("config")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--cache", choices=CACHE_MODES, default=None)

    report_p = sub.add_parser("report", help="summarize a directory of result files")
    report_p.add_argument("dir")

    chain_p = sub.add_parser("chain", help="chain utilities")
    chain_sub = chain_p.add_subparsers(dest="chain_command", required=True)
    export_p = chain_sub.add_parser("export", help="write a chain as CSV")
    export_p.add_argument("kind")
    export_p.add_argument("params")
    export_p.add_argument("out")

    walk_p = sub.add_parser("walk", help="walk utilities")
    walk_sub = walk_p.add_subparsers(dest="walk_command", required=True)
    spectrum_p = walk_sub.add_parser("spectrum", help="print a walk spectrum")
    spectrum_p.add_argument("kind")
    spectrum_p.add_argument("params")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return command_run(args.config, args.seed, args.out, args.cache)
    if args.command == "report":
        return command_report(args.dir)
    if args.command == "chain":
        return command_chain_export(args.kind, args.params, args.out)
    if args.command == "walk":
        return command_walk_spectrum(args.kind, args.params)
    return 2


if __name__ == "__main__":
    sys.exit(main())
