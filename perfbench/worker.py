"""One benchmark pass in a process of its own.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR \
        --spawned MONOTONIC [--trace] [--setup-only]

--spawned is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start, imports and input
generation.  Peak RSS is this process's own.  With --trace every
library layer is wrapped in spans and the spans are written to
DIR/spans.jsonl when the pass ends.  The last stdout line is one JSON
object with the pass's timings, quality gaps, digest, tally and
environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# end-to-end timing metric -> Tally phase
PHASE_METRICS = {"train_s": "train", "request_s": "request", "retrain_s": "retrain"}


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS numpy is linked against, if readable."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int, fanout: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(numpy),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "fanout_threads": fanout, "workload": workload, "seed": seed}


def run(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import graphunlearn
    import layers
    import spans
    import workloads

    recorder, absent = None, []
    if args.trace:
        recorder = spans.Recorder()
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.split(".")[0] == "graphunlearn"] + [workloads]
        absent = spans.install(recorder, layers.targets(graphunlearn), modules)

    work = Path(args.work)
    tally = workloads.Tally()
    setup, run_pass = workloads.WORKLOADS[args.workload]
    result: dict = {}
    try:
        inputs = setup(args.seed, work, tally)
        result["setup_s"] = time.monotonic() - args.spawned
        if not args.setup_only:
            start = time.perf_counter()
            result.update(run_pass(inputs, args.seed, tally))
            result["workload_s"] = time.perf_counter() - start
    except Exception as exc:  # the pass boundary: report, never crash
        traceback.print_exc()
        if exc is not tally.raised:
            tally.attempted += 1
            tally.failures.append(f"pass: {type(exc).__name__} {exc}")

    result.update({metric: tally.seconds.get(phase, 0.0)
                   for metric, phase in PHASE_METRICS.items()})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"], result["failures"] = tally.attempted, tally.failures
    result["env"] = environment(args.workload, args.seed,
                                workloads.FANOUT_THREADS[args.workload])
    if recorder is not None:
        walls = ({stage: tally.seconds.get(phase, 0.0)
                  for phase, stage in workloads.CLI_PHASES.items()}
                 if args.workload == "cli_chain" else {})
        result["layers"] = layers.layer_metrics(recorder.spans, walls)
        result["absent"] = absent
        result["counter_errors"] = recorder.counter_errors
        recorder.write_jsonl(work / "spans.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
