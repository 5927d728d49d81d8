"""One benchmark run inside a fresh interpreter with BLAS threads pinned.

Started by ``run.py``, which sets the thread variables before numpy is
imported here.  Prints one JSON object on its last line: the run's metric
values, the correctness tally and the record of samples, seed and machine.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from quasirep import cli

import checker
import workloads
from run import PINNED_THREADS
from tracing import SPANS, Tracer, span_name

SETUP_SECONDS = 1.5      # in-process set-ups repeat for this long, at least 15 times
SETUP_MIN_REPS = 15
PROBE_REPS = 5           # import probes each start an interpreter
MIN_INVOCATIONS = 3
SWEEP_REPS = 3


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "min": min(values), "q1": q[0], "median": q[1],
            "q3": q[2], "max": max(values)}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in PINNED_THREADS},
    }


class Invoker:
    """Calls the CLI as a user would and checks every report it writes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[dict] = []
        self._reference: dict[tuple, bytes | None] = {}

    def run(self, p: workloads.Prepared) -> float:
        p.out.unlink(missing_ok=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            code = cli.main(p.argv)
        except Exception:  # an uncaught error is the CLI's exit code 1
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - t0
        report = p.out.read_bytes() if p.out.exists() else None
        key = tuple(p.argv)
        reasons = checker.failures(p.argv[0], code, report, self._reference.get(key),
                                   p.seed, p.trials)
        self._reference.setdefault(key, report)
        self.attempted += 1
        if reasons:
            self.failed.append({"argv": p.argv, "reasons": reasons})
        return elapsed

    def loop(self, p: workloads.Prepared, seconds: float, minimum: int) -> list[float]:
        """Invoke back to back (one closed-loop client) for ``seconds``."""
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(times) < minimum or time.perf_counter() < deadline:
            times.append(self.run(p))
        return times


def timed_run(p: workloads.Prepared, seconds: float, inv: Invoker) -> tuple[dict, dict]:
    if p.build is None:
        setup = [workloads.import_probe() for _ in range(PROBE_REPS)]
    else:
        setup = workloads.time_setup(p, SETUP_SECONDS, SETUP_MIN_REPS)
    times = inv.loop(p, seconds, MIN_INVOCATIONS)
    metrics = {
        "trials_per_s": p.trials / statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"invocation_s": quartiles(times), "setup_s": quartiles(setup)}


def _round_values(tracer: Tracer, systems: int) -> dict:
    values = {}
    for mod_name, attrs in SPANS.items():
        for attr in attrs:
            name = span_name(mod_name, attr)
            values[f"{name}.calls"] = tracer.calls[name]
            values[f"{name}.self_s"] = tracer.self_s[name]
    values["linalg.as_cmat.calls"] = tracer.calls["linalg.as_cmat"]
    values.update(tracer.counters)
    for key in ("frames.Channel.kraus_in", "frames.Channel.superop_madds_computed"):
        values.setdefault(key, 0)
    for mod_name, totals in tracer.module_totals().items():
        values[f"{mod_name}.self_s"] = totals["self_s"]
        values[f"{mod_name}.raised"] = totals["raised"]
    chi = tracer.calls["structure.extract_chi"]
    values["structure.chi_per_system"] = chi / systems if systems else 0.0
    return values


def traced_run(p: workloads.Prepared, seconds: float, inv: Invoker,
               workdir: Path) -> tuple[dict, dict]:
    """Per-layer numbers: the d-sweep, then untraced and traced invocations.

    A traced round is one set-up plus one invocation, so the layer numbers
    cover the same work as ``setup_s`` and ``trials_per_s``.  The untraced
    invocations give the tracing overhead and the reference bytes that the
    traced reports must reproduce.
    """
    start = time.perf_counter()
    metrics, sweep = {}, {}
    for dim in workloads.SWEEP_DIMS:
        sp = workloads.sweep_instance(dim, p.seed, workdir)
        sweep[dim] = [inv.run(sp) for _ in range(SWEEP_REPS)]
        metrics[f"sweep.quantum-{dim}.trial_s"] = statistics.median(sweep[dim]) / sp.trials
    remaining = max(0.0, seconds - (time.perf_counter() - start))
    untraced = inv.loop(p, remaining / 3, 2)

    tracer = Tracer()
    rounds, traced = [], []
    deadline = time.perf_counter() + remaining * 2 / 3
    with tracer:
        while len(rounds) < 2 or time.perf_counter() < deadline:
            tracer.reset()
            if p.build is not None:
                p.build()
            traced.append(inv.run(p))
            rounds.append(_round_values(tracer, p.systems))
    for key in rounds[0]:
        metrics[key] = statistics.median_low(r[key] for r in rounds)
    metrics["trace.overhead_frac"] = 1 - statistics.median(untraced) / statistics.median(traced)
    unsteady = sorted(k for k in rounds[0] if not k.endswith("self_s")
                      and len({r[k] for r in rounds}) > 1)
    samples = {
        "rounds": len(rounds),
        "untraced_invocation_s": quartiles(untraced),
        "traced_invocation_s": quartiles(traced),
        "sweep_invocation_s": {d: quartiles(t) for d, t in sweep.items()},
        "counts_differing_between_rounds": unsteady,
    }
    return metrics, samples


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    p = workloads.prepare(args.workload, args.seed, args.workdir)
    inv = Invoker()
    if args.trace:
        metrics, samples = traced_run(p, args.seconds, inv, args.workdir)
    else:
        metrics, samples = timed_run(p, args.seconds, inv)
    print(json.dumps({
        "metrics": metrics,
        "attempted": inv.attempted,
        "failed": inv.failed,
        "details": {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "argv": p.argv, "trials": p.trials, "samples": samples,
            "machine": machine(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
