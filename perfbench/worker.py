"""One workload in one fresh process: set up, then run whole passes.

    python3 perfbench/worker.py setup --workload W --seed N --out DIR
    python3 perfbench/worker.py run   --workload W --seed N --out DIR --seconds S
    python3 perfbench/worker.py trace --workload W --seed N --out DIR --seconds S

``setup`` only builds, verifies and writes the inputs (its wall time, from
interpreter start, is ``setup_s``).  ``run`` times every check of whole
passes, untraced.  ``trace`` alternates traced and untraced passes and
reports the per-layer metrics and the tracing overhead.  ``run`` and
``trace`` print one JSON object as their last line.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402  (needs the paths above)

MIN_CHECKS = 40    # timed checks per run, so the tail has ten samples beyond it


class PassRunner:
    """Runs one pass of checks, timing each call and verifying its output."""

    def __init__(self, checks):
        self.checks = checks
        self.latencies_ms = []
        self.by_check = {check.name: [] for check in checks}
        self.pass_seconds = []
        self.call_seconds = 0.0  # inside cliffrep's calls, failed ones too
        self.attempted = self.failed = self.completed = 0
        self.wrong = []
        self.reported = set()

    def run_pass(self, timed=True):
        outputs = {}
        clock = time.perf_counter
        began = clock()
        for check in self.checks:
            self.attempted += 1
            start = clock()
            try:
                out = check.call()
            except Exception as exc:  # a failed check is counted, not fatal
                self.call_seconds += clock() - start
                if check.known_fault is None or not isinstance(exc, check.known_fault):
                    self._note(check.name, f"unexpected {type(exc).__name__}: {exc}")
                self.failed += 1
                continue
            elapsed_ms = (clock() - start) * 1000.0
            self.call_seconds += elapsed_ms / 1000.0
            outputs[check.name] = out
            try:
                check.verify(out)
                if check.replays is not None:
                    assert out == outputs[check.replays], "replay differs"
            except AssertionError as exc:
                self.wrong.append(check.name)
                self._note(check.name, f"wrong answer: {exc}")
                continue
            self.completed += 1
            if timed:
                self.latencies_ms.append(elapsed_ms)
                self.by_check[check.name].append(elapsed_ms)
        self.pass_seconds.append(clock() - began)

    def _note(self, name, message):
        if name not in self.reported:
            self.reported.add(name)
            print(f"perfbench: {name}: {message}", file=sys.stderr)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(checks, seconds, out_dir):
    """Whole passes until `seconds` have passed and MIN_CHECKS were timed."""
    runner = PassRunner(checks)
    passes = 0
    start = time.perf_counter()
    while True:
        runner.run_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(runner.latencies_ms) >= MIN_CHECKS:
            break
    lat = runner.latencies_ms
    with open(os.path.join(out_dir, "latencies.json"), "w", encoding="utf-8") as fh:
        json.dump({"pass_seconds": runner.pass_seconds,
                   "check_ms": runner.by_check}, fh, indent=1)
    return {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            # the benchmark's own verification is left out of the time
            "checks_per_s": {"value": runner.completed / runner.call_seconds,
                             "unit": "1/s"},
            "check_ms_p50": {"value": statistics.median(lat), "unit": "ms"},
            # p75, linearly interpolated between order statistics
            "check_ms_tail": {"value": statistics.quantiles(
                lat, n=4, method="inclusive")[2], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        },
        "passes": passes,
        "checks_timed": len(lat),
        "oracle_share": 1.0 - runner.call_seconds / elapsed,
    }


def trace(workload, seed, out_dir, seconds):
    """Traced and untraced passes in alternating order, in equal numbers."""
    import tracer as tr
    t = tr.Tracer()
    t.install()
    checks = workloads.setup(workload, seed, out_dir)
    setup_values = t.snapshot()
    t.uninstall()
    t.reset()
    runner = PassRunner(checks)
    spent = {True: 0.0, False: 0.0}
    pairs = 0
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < seconds:
        order = (True, False) if pairs % 2 == 0 else (False, True)
        for traced in order:
            if traced:
                t.install()
            began = time.perf_counter()
            runner.run_pass(timed=False)
            spent[traced] += time.perf_counter() - began
            if traced:
                t.uninstall()
        pairs += 1
    overhead = (spent[True] - spent[False]) / spent[False] * 100.0
    return {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in tr.layer_metrics(
                        setup_values, t.snapshot(), pairs, overhead).items()},
        "passes": 2 * pairs,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        workloads.setup(args.workload, args.seed, args.out)
        return
    if args.mode == "run":
        checks = workloads.setup(args.workload, args.seed, args.out)
        result = measure(checks, args.seconds, args.out)
    else:
        result = trace(args.workload, args.seed, args.out, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
