"""upspec benchmark: one workload as a closed loop from one caller.

    python3 bench/run.py --workload paper-compare --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; upspec is imported from its ``src``.
Set-up (a fresh interpreter importing upspec, input generation and one
warm-up job) is repeated SETUP_REPS times. Then jobs run back to back
for ``--seconds``; each job's outputs are checked after its clock stops.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os
import sys

#: BLAS threads for this process and its import probe. Idle OpenBLAS
#: threads spin, so more than one costs CPU time without saving wall time
#: on these sizes; one is at or below any machine's core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import MB, PER_LAYER, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_probe() -> None:
    """Start a fresh interpreter that imports upspec's CLI, and wait for it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import upspec.cli"], env=env, cwd=ROOT,
                   check=True)


def cli_output(workload) -> tuple[int, int]:
    """Files and bytes in the workload's CLI output directories."""
    files = [p for d in workload.cli_dirs for p in d.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    task_dir = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "process_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "nproc": os.cpu_count(),
    }


def measure(workload, args, tracer) -> dict:
    problems = []
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        import_probe()
        workload.setup()
        workload.prepare()
        outputs = workload.run(0)
        setups.append(time.perf_counter() - start)
        problems += [f"warm-up: {p}" for p in workload.check(0, outputs)]

    job_s, cpu_s, figures = [], [], []
    attempted = failed = 0
    with tracer or nullcontext():
        began = time.perf_counter()
        while attempted == 0 or time.perf_counter() - began < args.seconds:
            attempted += 1
            workload.prepare()
            gc.collect()  # every job starts with empty collector generations
            if tracer:
                tracer.reset()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                outputs = workload.run(attempted)
            except Exception:  # a failed job is counted, and the loop goes on
                failed += 1
                traceback.print_exc()
                continue
            wall = time.perf_counter() - wall0
            cpu_s.append(time.process_time() - cpu0)
            job_s.append(wall)
            if tracer:
                figures.append(tracer.job_figures(wall, *cli_output(workload)))
            problems += [f"job {attempted}: {p}" for p in workload.check(attempted, outputs)]
    if not job_s:
        raise RuntimeError(f"all {attempted} jobs failed")

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if tracer:
        metrics = {name: {"value": statistics.fmean(f[name] for f in figures), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux
        metrics = {
            "jobs_per_s": {"value": len(job_s) / sum(job_s), "unit": "1/s"},
            "job_s.p50": {"value": statistics.median(job_s), "unit": "s"},
            "job_cpu_s.p50": {"value": statistics.median(cpu_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss / MB, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    if not (SRC / "upspec" / "__init__.py").is_file():
        print(f"error: no upspec source at {SRC / 'upspec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    workload = WORKLOADS[args.workload](out_dir, args.seed)
    try:
        result = measure(workload, args, Tracer() if args.trace else None)
    finally:
        workload.close()
        shutil.rmtree(out_dir, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "jobs": result["attempted"], **machine_info()}
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
