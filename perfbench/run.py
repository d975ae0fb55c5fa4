"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload directional --seed 1 --seconds 50 --trace 0

Run from the repository root.  Every pass runs in a fresh process
(worker.py), one after the other, until another pass would overrun
--seconds (at least one pass; four for cli_chain, see MIN_PASSES).

--trace 0 reports the end-to-end metrics: the median over passes, and
for setup_s the median over the passes plus SETUP_REPEATS set-up-only
processes.  --trace 1 alternates untraced and traced passes of the same
seed and reports the per-layer metrics of the traced passes (median),
the tracing overhead, the quality gaps and the error rate; it also
checks that tracing leaves outputs and quality unchanged.

Output: one line per metric with its unit, the environment, and as the
last line the JSON result {"correct", "attempted", "failed", "metrics"}.
Full results stay in .bench_work/results, traced spans in
.bench_work/spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import LAYER_METRICS, REPORTED_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("directional", "edge_poison", "cli_chain")
E2E_METRICS = {"setup_s": "s", "train_s": "s", "request_s": "s", "retrain_s": "s",
               "workload_s": "s", "peak_rss_mb": "MB"}
QUALITY_METRICS = {"f1_gap_to_retrain": "F1", "mia_gap_to_retrain": "AUC",
                   "error_rate": "ratio"}
SETUP_REPEATS = 3
# cli_chain's retrain stage lasts about 1.3 s; with three passes per run
# its median spread over a third of its bound across seeds.  The digest
# check needs two passes in any case.
MIN_PASSES = {"cli_chain": 4}
DEADLINE_S = 170.0  # one run never outlives this, whatever --seconds says
# One BLAS thread per process.  With the default of one per core, the
# CLI's two fan-out threads run four BLAS threads on two cores: the train
# stage took about twice as long and its pass times spread far wider.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    """Spawns the passes of one run and tallies their outcome."""

    def __init__(self, workload: str, seed: int, scratch: Path):
        self.workload, self.seed, self.scratch = workload, seed, scratch
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.count = 0

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {what}")

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one worker process to completion and return its result."""
        self.count += 1
        work = self.scratch / f"pass-{self.count}"
        work.mkdir()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--work", str(work)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], cwd=ROOT,
                                  env={**os.environ, **PINNED_ENV},
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            result = {"attempted": 1, "failures": [f"pass timed out after {timeout:.0f}s"]}
        else:
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"attempted": 1,
                          "failures": [f"worker exited {proc.returncode} without a result"]}
            if result.get("failures"):
                sys.stderr.write(proc.stderr)
        spans = work / "spans.jsonl"
        if spans.exists():
            kept = WORK / "spans" / f"{self.workload}-seed{self.seed}-pass{self.count}.jsonl"
            kept.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(spans, kept)
        shutil.rmtree(work, ignore_errors=True)
        self.attempted += result.get("attempted", 0)
        self.failures += result.get("failures", [])
        return result

    def loop(self, seconds: float, step, minimum: int = 1) -> list:
        """Call step() until one more call would overrun `seconds`."""
        start, done = time.monotonic(), []
        while True:
            done.append(step())
            elapsed = time.monotonic() - start
            per_step = elapsed / len(done)
            if time.monotonic() >= self.deadline:
                return done
            if len(done) >= minimum and (elapsed + per_step > seconds
                                         or time.monotonic() + per_step > self.deadline):
                return done


def _median(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else 0.0


def _same(run: Run, results, what: str) -> None:
    """Outputs (digest) and quality repeat exactly across passes of one seed."""
    first = results[0]
    for other in results[1:]:
        run.check(other.get("digest") == first.get("digest"),
                  f"{what}: output digests match across passes")
        for key in ("f1_gap_to_retrain", "mia_gap_to_retrain"):
            run.check(other.get(key) == first.get(key),
                      f"{what}: {key} matches across passes")


def measure(run: Run, seconds: float) -> tuple[dict, list]:
    setups = [run.spawn(setup_only=True) for _ in range(SETUP_REPEATS)]
    passes = run.loop(seconds, run.spawn, MIN_PASSES.get(run.workload, 1))
    _same(run, passes, "untraced passes")
    metrics = {key: _median(passes, key) for key in (*E2E_METRICS, *QUALITY_METRICS)}
    metrics["setup_s"] = _median(setups + passes, "setup_s")
    return metrics, passes


def measure_traced(run: Run, seconds: float) -> tuple[dict, list]:
    def pair():
        # (untraced, traced); which one runs first alternates, so an
        # order effect cancels out of the overhead
        if run.count % 4:
            plain = run.spawn()
            return plain, run.spawn(trace=True)
        traced = run.spawn(trace=True)
        return run.spawn(), traced

    pairs = run.loop(seconds, pair)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    _same(run, plain + traced, "traced vs untraced passes")
    layered = [t["layers"] for t in traced if "layers" in t]
    names = layered[0] if layered else {}
    metrics = {name: statistics.median(t[name] for t in layered) for name in names}
    metrics["trace.overhead_s"] = _median(traced, "workload_s") - _median(plain, "workload_s")
    metrics.update({key: _median(traced, key) for key in QUALITY_METRICS})
    return metrics, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphunlearn" / "__init__.py").is_file():
        print(f"error: no graphunlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, scratch)
        if args.trace:
            metrics, passes = measure_traced(run, args.seconds)
        else:
            metrics, passes = measure(run, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics["error_rate"] = len(run.failures) / max(run.attempted, 1)
    env = next((p["env"] for p in passes if "env" in p), {})
    extra = {"trace.overhead_s": "s", **QUALITY_METRICS}
    printed = {**LAYER_METRICS, **extra} if args.trace else {**E2E_METRICS, **QUALITY_METRICS}
    for name, unit in printed.items():
        print(f"{name:34s} {metrics.get(name, 0.0):>16.6f} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    for key in ("absent", "counter_errors"):
        noted = sorted({item for p in passes for item in p.get(key, ())})
        if noted:
            print(f"{key} " + ", ".join(noted))
    for failure in run.failures:
        print(f"FAILED {failure}")

    reported = {**REPORTED_METRICS, **extra} if args.trace else E2E_METRICS
    result = {"correct": not run.failures, "attempted": max(run.attempted, 1),
              "failed": len(run.failures),
              "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                          for name, unit in reported.items()}}
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({**result, "env": env, "passes": passes}, indent=1,
                              sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
