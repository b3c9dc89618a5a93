"""Benchmark launcher: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload train-exact --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The environment is pinned before numpy is
imported: BLAS and OpenMP use one thread each, the process runs on one CPU
(so the speed probe of ``perfbench/speed.py`` samples the CPU the program
runs on) that a lowest-priority spinner keeps from halting, the serving
tier runs one replica with no worker pools, no telemetry endpoint and no
background control loop.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run and writes its
spans to ``perfbench/out/``.  The last line of standard output is the result:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

The exit code is 0 only when every correctness gate passed and the run was
valid (the generator kept to its schedule; a traced run reconciled).
"""

from __future__ import annotations

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def _environment() -> dict:
    import numpy as np

    import repro

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repro": repro.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
    }


#: Runs on the benchmark's CPU at SCHED_IDLE, so only when no thread of the
#: benchmark can, and exits when its parent does.
_SPINNER = """
import os, sys
parent = os.getppid()
os.sched_setaffinity(0, {int(sys.argv[1])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
while os.getppid() == parent:
    pass
"""


@contextmanager
def _cpu_kept_awake():
    """Keep the pinned CPU from halting while the workload runs.

    A serving workload sleeps and wakes every few milliseconds.  On a
    shared host each wake-up of a halted vCPU waits for the hypervisor to
    schedule it again (steal time), by up to tens of milliseconds under
    load, and that wait, not the program, then set the latency tail.  A
    spinner that only runs when nothing else can keeps the vCPU from
    halting; the benchmark's own threads preempt it on wake-up.
    """
    if not hasattr(os, "SCHED_IDLE"):
        yield
        return
    cpu = min(os.sched_getaffinity(0))
    spinner = subprocess.Popen([sys.executable, "-c", _SPINNER, str(cpu)])
    try:
        yield
    finally:
        spinner.kill()
        spinner.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control here: run unpinned
        pass
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.ledger import PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if args.trace:
        missing = {name for name, _ in PER_LAYER} ^ set(wanted)
        if missing:
            print(f"perfbench: per-layer list out of sync: {sorted(missing)}", file=sys.stderr)
            return 2

    with _cpu_kept_awake():
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    print(json.dumps({"environment": _environment()}))
    print(json.dumps({"details": outcome.details}))
    for error in outcome.errors:
        print(f"perfbench: GATE FAILED: {error}", file=sys.stderr)
    for reason in outcome.invalid:
        print(f"perfbench: INVALID RUN: {reason}", file=sys.stderr)
    if outcome.trace is not None:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(outcome.trace))
        spans_file = str(path.relative_to(ROOT))
        print(json.dumps({"ledger": outcome.trace["ledger"], "spans_file": spans_file}))
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": units[name]}
        for name in wanted
        if name in outcome.metrics
    }
    correct = not outcome.errors and not outcome.invalid and set(metrics) == set(wanted)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
