"""Benchmark entry point: run workloads, each in a fresh process with a fixed environment.

    python3 perfbench/run.py --workload vla-4096 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # all four workloads, one after another

Each workload runs ``measure.py`` in its own child process, with
``TEAMC_SEED`` removed from the environment and every BLAS/OpenMP pool
pinned to ``BLAS_THREADS`` threads, so an inherited setting cannot change
results or timings. The child's last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--workload all`` each workload's object is printed on its own line,
prefixed by the workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("vla-4096", "wide-sparse", "cli-toy", "step-256")
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 175


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TEAMC_SEED"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_one(workload: str, seed: int, seconds: float, trace: int, capture: bool) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    return subprocess.run(cmd, env=child_env(), timeout=CHILD_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)  # fmt: skip


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, args.trace, capture=False).returncode

    status = 0
    for name in WORKLOADS:
        proc = run_one(name, args.seed, args.seconds, args.trace, capture=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] and not result["failed"] else 1
        print(f"{name} {json.dumps(result)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
