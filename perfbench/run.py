"""Benchmark of the quasirep CLI: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload audit-multi --seed 1 --seconds 40 --trace 0

The run happens in a fresh worker interpreter with BLAS/OpenMP threads
pinned to 1 and ``src/`` of this checkout on its path.  The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  The line
before it records the seed, the samples behind each median and the machine.
See ``perfbench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit-multi", "audit-qubit-frame", "coherence")
# One closed-loop client in one process: more BLAS threads than that only
# add scheduling noise on a small shared machine.
PINNED_THREADS = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
TIME_LIMIT_S = 170


def _fail(message: str, code: int = 1) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _summary(details: dict, metrics: dict, attempted: int, failed: int) -> list[str]:
    lines = [f"{details['workload']} seed={details['seed']} trace={details['trace']}: "
             f"{attempted} invocations checked, {failed} failed"]
    for name, m in metrics.items():
        lines.append(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'failed_frac':<48} {failed / attempted:.6g} fraction")
    samples = details["samples"]
    if "invocation_s" in samples:
        inv = samples["invocation_s"]
        lines.append(f"  invocation wall time: median {inv['median']:.4f} s, "
                     f"q1 {inv['q1']:.4f} s, q3 {inv['q3']:.4f} s, n={inv['n']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    # on SIGTERM, unwind through the clean-up below, which ends the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "quasirep" / "__init__.py").is_file():
        return _fail(f"no quasirep sources under {ROOT / 'src'}", 2)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=workroot))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    # its own process group, so that a timeout also ends the import probes
    worker = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = worker.communicate(timeout=TIME_LIMIT_S - (time.monotonic() - start))
    except subprocess.TimeoutExpired:
        return _fail(f"worker did not finish within {TIME_LIMIT_S} s")
    finally:
        if worker.poll() is None:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still uses it
    if worker.returncode != 0:
        return _fail(f"worker exited with {worker.returncode}", worker.returncode or 1)

    out = json.loads(stdout.strip().splitlines()[-1])
    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        return _fail(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted, failed = out["attempted"], len(out["failed"])
    for entry in out["failed"]:
        print(f"perfbench: check failed for {entry['argv']}: {entry['reasons']}",
              file=sys.stderr)
    details = out["details"]
    print("\n".join(_summary(details, metrics, attempted, failed)))
    print(json.dumps({"details": details, "failures": out["failed"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
