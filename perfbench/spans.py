"""Spans recorded around the benchmark's calls into qwmix.

A span holds the call's name, start and end, the CPU seconds it took
(`cpu_seconds`), the instance and pass it belongs to, a call count and
the tracemalloc peak above the memory in use when the call began (the
peak is reset for each call). Spans stay in
memory until the run writes them out. With tracing off, a call runs with
no recording at all.
"""

from __future__ import annotations

import resource
import statistics
import time
import tracemalloc

MIB = float(1 << 20)


def cpu_seconds() -> float:
    """User and system CPU seconds of this process and of the child
    processes it has waited for. Unlike wall time, this leaves out the
    time a virtual CPU is handed to other guests of the host (steal)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Spans:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self.instance: str | None = None
        self.pass_index: int | None = None
        if enabled:
            tracemalloc.start()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        in_use = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        start, cpu = time.perf_counter(), cpu_seconds()
        try:
            return fn(*args)
        finally:
            end, cpu = time.perf_counter(), cpu_seconds() - cpu
            peak = tracemalloc.get_traced_memory()[1] - in_use
            self.records.append(
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "cpu_s": cpu,
                    "instance": self.instance,
                    "pass": self.pass_index,
                    "calls": 1,
                    "peak_bytes": peak,
                }
            )

    def layer_value(self, metric: str, passes: list[int]) -> float:
        """`<span>.s`: median over the given passes of the CPU seconds
        spent in the span per pass. `<span>.peak_mb`: largest peak of one call, MiB.
        Zero for a span the workload never enters."""
        if metric.endswith(".peak_mb"):
            name = metric[: -len(".peak_mb")]
            peaks = [r["peak_bytes"] for r in self.records if r["name"] == name and r["pass"] in passes]
            return max(peaks, default=0) / MIB
        name = metric[: -len(".s")]
        per_pass = {p: 0.0 for p in passes}
        for r in self.records:
            if r["name"] == name and r["pass"] in per_pass:
                per_pass[r["pass"]] += r["cpu_s"]
        return statistics.median(per_pass.values())
