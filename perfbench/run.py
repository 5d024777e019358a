"""cliffrep benchmark: one workload, whole passes, every output checked.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a cliffrep source tree (the package is imported from
its ``src`` directory).  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer ones; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``--workload all`` runs the four workloads one after another and
prefixes each metric with its workload's name.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# The same names as workloads.WORKLOADS; this file does not import cliffrep,
# so that it can refuse to run where the sources are missing.
WORKLOADS = ("certify", "sample", "structure", "search")

SETUP_REPEATS = 5          # timed fresh-interpreter set-ups, after one discarded
CHILD_TIMEOUT_S = 170

def child_env():
    """Single-threaded numeric libraries and fixed hashing in every child."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args):
    cmd = [sys.executable, WORKER] + args
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=False, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:1])} exited {proc.returncode}")
    return proc.stdout


def setup_seconds(workload, seed, out_dir):
    """Median wall time from a fresh interpreter to the inputs written."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        run_worker(["setup", "--workload", workload, "--seed", str(seed),
                    "--out", out_dir])
        if k:  # the first start warms bytecode and file caches
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_workload(workload, seed, seconds, trace):
    """One workload in fresh processes: its result with every metric."""
    out_dir = os.path.join(HERE, "out", workload)
    common = ["--workload", workload, "--seed", str(seed), "--out", out_dir,
              "--seconds", str(seconds)]
    if trace:
        return json.loads(run_worker(["trace"] + common).splitlines()[-1])
    setup_s = setup_seconds(workload, seed, out_dir)
    result = json.loads(run_worker(["run"] + common).splitlines()[-1])
    result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description="cliffrep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all four one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cliffrep", "__init__.py")):
        print("perfbench: no cliffrep sources under src/; run from the root "
              "of a cliffrep checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                IndexError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        share = result.get("oracle_share")
        print(f"perfbench: {name} seed {args.seed}: {result['passes']} passes"
              + ("" if share is None else f", {share:.0%} of their time verifying"),
              file=sys.stderr)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if len(names) == 1:
            summary["metrics"] = result["metrics"]
        else:
            summary["metrics"].update(
                (f"{name}.{key}", value) for key, value in result["metrics"].items())
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
