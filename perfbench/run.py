"""Benchmark of qwmix, measured from outside the program.

    python3 perfbench/run.py --workload W --seed S --seconds R --trace 0|1

Run from the root of a checkout. Times are CPU seconds (user and system,
child processes included), which leave out the time the host hands this
machine's virtual CPUs to other guests. Set-up is timed in separate
processes (interpreter start, `import qwmix`, input generation), median
of several. Then one untimed pass, then timed passes for R seconds (at
least three); `pass_s` is the median. Every timed pass must agree with
the untimed pass; after the timed passes the untimed pass is checked
against references computed apart from qwmix (reference.py). With
--trace 1 a separate run records a span around each call into qwmix and
prints per-layer metrics instead. The last line of stdout is one JSON
object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

# One BLAS thread: with two, every BLAS call waits at its barrier for the
# slower core, so contention on either core stalls a pass (README). The
# command in BENCHMARK.json pins these too; setting them here, before numpy
# loads, keeps a direct run comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
MIN_TIMED_PASSES = 3
IMPORT_PROBE = "import time; t = time.process_time(); import qwmix; print(time.process_time() - t)"
AUDITS = (
    "gap_inequality_audit",
    "measurement_equivalence_audit",
    "cycle_threshold_audit",
    "tensor_power_identity_audit",
    "lattice_scaling_sweep",
    "grover_complete_graph_sweep",
    "hypercube_limit_audit",
)
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MiB"))
PER_LAYER = (
    ("pass.wall_s", "s"),
    ("setup.wall_s", "s"),
    *((f"decoherence.generated_ct.{f}.{m}", u) for m, u in (("s", "s"), ("peak_mb", "MiB"))
      for f in ("delta", "uniform_ct", "exponential")),
    ("decoherence.limit_chain.s", "s"),
    ("decoherence.limit_chain.peak_mb", "MiB"),
    ("chains.verify_inequalities.s", "s"),
    ("chains.verify_inequalities.peak_mb", "MiB"),
    ("decoherence.repeated_mixing_time.s", "s"),
    ("walks.quantize_ct.s", "s"),
    ("walks.quantize_ct.peak_mb", "MiB"),
    ("walks.coined_walk.s", "s"),
    ("walks.coined_walk.peak_mb", "MiB"),
    ("walks.quantize_szegedy.s", "s"),
    ("walks.quantize_szegedy.peak_mb", "MiB"),
    ("walks.phase_gap.s", "s"),
    *((f"decoherence.generated_dt.{f}.{m}", u) for m, u in (("s", "s"), ("peak_mb", "MiB"))
      for f in ("uniform_dt", "geometric")),
    ("graphs.build.s", "s"),
    ("chains.standard_chain.s", "s"),
    ("chains.lazy_chain.s", "s"),
    ("chains.random_symmetric_chain.s", "s"),
    *((f"experiments.{a}.s", "s") for a in AUDITS),
    ("cli.import.s", "s"),
    ("cli.run_cold.s", "s"),
    ("cli.run_cached.s", "s"),
    ("cli.report.s", "s"),
    ("cli.jobs", "count"),
)
WORKLOAD_NAMES = ("lattice-sweep", "random-spectrum", "coined-walks", "cli-audits")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(args) -> tuple[float, float, float]:
    """(CPU seconds, wall seconds from spawn to exit, CPU seconds spent in
    `import qwmix`) of one set-up process: for cli-audits the import alone,
    else the import plus the workload's inputs."""
    if args.workload == "cli-audits":
        argv = [sys.executable, "-c", IMPORT_PROBE]
    else:
        argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    from spans import cpu_seconds
    from workloads import run_child

    start, cpu = time.perf_counter(), cpu_seconds()
    proc = run_child(argv)
    wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed with exit {proc.returncode}:\n{proc.stderr}")
    return cpu, wall, float(proc.stdout.split()[-1])


def import_qwmix():
    import qwmix

    if os.path.realpath(os.path.dirname(qwmix.__file__)) != os.path.realpath(os.path.join(SRC, "qwmix")):
        raise RuntimeError(f"imported qwmix from {qwmix.__file__}, not from {SRC}")
    return qwmix


def setup_only(args) -> int:
    start = time.process_time()
    import_qwmix()
    import_s = time.process_time() - start
    import workloads
    from spans import Spans

    workloads.WORKLOADS[args.workload](args.seed, Spans(False), None)
    print(import_s)
    return 0


def measure(wl, spans, seconds: float, setup) -> dict:
    from spans import cpu_seconds
    from workloads import same_output

    def run_pass(index):
        spans.pass_index = index
        outputs, raised, total = {}, set(), 0.0
        wall = time.perf_counter()
        for op in wl.ops:
            spans.instance = op
            start = cpu_seconds()
            try:
                secs, outputs[op] = wl.run(op, index)
            except Exception:  # the program raised: this operation failed
                secs, outputs[op] = cpu_seconds() - start, None
                raised.add(op)
                traceback.print_exc()
            total += secs
        wall = time.perf_counter() - wall
        if spans.enabled:
            wl.trace_extras(index)
        return outputs, raised, total, wall

    gc.collect()
    base, raised, untimed_s, _ = run_pass(0)
    failed = [raised]
    pass_times, pass_walls = [], []
    # Set-up processes run between the timed passes, so that they sample
    # the same stretch of machine time as the passes do.
    gaps = max(MIN_TIMED_PASSES, int(seconds // max(untimed_s, 1e-3)))
    per_gap = -(-SETUP_REPEATS // gaps)
    setups = []
    start = time.perf_counter()
    while len(pass_times) < MIN_TIMED_PASSES or time.perf_counter() - start < seconds:
        setups += [setup() for _ in range(min(per_gap, SETUP_REPEATS - len(setups)))]
        gc.collect()
        outputs, raised, total, wall = run_pass(len(pass_times) + 1)
        pass_times.append(total)
        pass_walls.append(wall)
        failed.append(raised | {op for op in wl.ops if base[op] is None or not same_output(base[op], outputs[op])})
        del outputs
    setups += [setup() for _ in range(SETUP_REPEATS - len(setups))]
    who = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    faults = {}
    for op in wl.ops:
        if base[op] is None:
            faults[op] = ["raised in the untimed pass"]
            continue
        try:
            faults[op] = wl.check(op, base)
        except Exception as exc:  # malformed output; the operation failed
            traceback.print_exc()
            faults[op] = [f"check raised {exc!r}"]
    for ops in failed:
        ops.update(op for op in wl.ops if faults[op])
    return {
        "base": base,
        "faults": faults,
        "failed": failed,
        "untimed_s": untimed_s,
        "pass_times": pass_times,
        "pass_walls": pass_walls,
        "peak_rss_mb": peak_rss_mb,
        "setups": setups,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qwmix", "__init__.py")):
        print(f"error: no qwmix sources at {os.path.join('src', 'qwmix')}; run from a checkout", file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    if args.setup_only:
        return setup_only(args)

    import_qwmix()
    import workloads
    from spans import Spans

    os.makedirs(OUT, exist_ok=True)
    spans = Spans(bool(args.trace))
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, spans, scratch)
        run = measure(wl, spans, args.seconds, lambda: timed_setup(args))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops_per_pass = len(wl.ops)
    attempted = ops_per_pass * len(run["failed"])
    failed = sum(len(ops) for ops in run["failed"])
    correct = all(op in wl.known_fault_ops for ops in run["failed"] for op in ops)
    timed = list(range(1, len(run["pass_times"]) + 1))
    setups = run["setups"]

    print(f"workload {args.workload} seed {args.seed}: {ops_per_pass} operations a pass, "
          f"untimed pass {run['untimed_s']:.4f} s, timed passes {[round(t, 4) for t in run['pass_times']]} CPU s, "
          f"{[round(t, 4) for t in run['pass_walls']]} wall s")
    for op in wl.ops:
        if run["base"][op] is not None:
            print("  " + wl.describe(op, run["base"][op]))
        for fault in run["faults"][op]:
            print(f"  FAIL {fault}")
    if args.trace:
        values = {name: spans.layer_value(name, timed) for name, _ in PER_LAYER if name.endswith((".s", ".peak_mb"))}
        values["pass.wall_s"] = statistics.median(run["pass_walls"])
        values["setup.wall_s"] = statistics.median(wall for _, wall, _ in setups)
        values["cli.import.s"] = statistics.median(imp for _, _, imp in setups)
        values["cli.jobs"] = 0.0
        if all(out is not None for out in run["base"].values()):
            values.update(wl.counts(run["base"]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "setup": setups,
                       "untimed_pass_s": run["untimed_s"], "pass_s": run["pass_times"],
                       "pass_wall_s": run["pass_walls"],
                       "spans": spans.records}, fh)
        print(f"traced pass_s {statistics.median(run['pass_times']):.4f} s; spans in {os.path.relpath(trace_path, ROOT)}")
    else:
        values = {
            "setup_s": statistics.median(cpu for cpu, _, _ in setups),
            "pass_s": statistics.median(run["pass_times"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted} failed {failed} correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
