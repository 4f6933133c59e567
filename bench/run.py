"""End-to-end benchmark of the ioncodesign workflows.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sweep-noisy --seed 0 --seconds 15 --trace 0

The package is imported from `src/` of the checkout; nothing is
installed. One run repeats whole rounds of the workload for `--seconds`
seconds, checks the first round's outputs against the independent
computations in `checks.py` and every later round against the first, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`setup_s`,
`wall_s`, `peak_rss_mib`). With `--trace 1` the run spends half its time
untraced and half with `tracing.Tracer` installed, reports the per-layer
metrics of the traced rounds, and writes the spans of the last traced
run of each workload to `.bench_out/trace-<workload>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-noisy", "sweep-feedforward", "sweep-large",
                  "infer-feedforward", "calibrate")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import ioncodesign from this checkout's src/, never from elsewhere."""
    if not (SRC / "ioncodesign" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'ioncodesign'}")
    sys.path.insert(0, str(SRC))
    import ioncodesign

    if Path(ioncodesign.__file__).resolve().parent != SRC / "ioncodesign":
        raise SystemExit(f"error: ioncodesign imported from {ioncodesign.__file__}")
    import workloads

    return workloads


def _setup_seconds(args) -> list[float]:
    """Set-up time of fresh processes: start to the first workload call."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def _rounds(workload, inputs, seconds: float, reference):
    """Repeat whole rounds until `seconds` have passed; at least one."""
    walls, failed, mismatched = [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        try:
            result = workload.run(inputs)
        except Exception:
            traceback.print_exc()
            result = None
            failed += workload.ops_per_round
        walls.append(time.perf_counter() - start)
        if result is not None:
            if reference is None:
                reference = result
            elif not workload.same(reference, result):
                mismatched += 1
        if time.perf_counter() >= deadline:
            return walls, failed, mismatched, reference


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    workloads = _import_package()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.inputs(args.seed)
        print(time.monotonic())
        return 0

    if args.trace:
        inputs = workload.inputs(args.seed)
        import tracing

        walls, failed, mismatched, reference = _rounds(workload, inputs, args.seconds / 2, None)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = _rounds(workload, inputs, args.seconds / 2, reference)
        finally:
            tracer.uninstall()
        traced_walls, traced_failed, traced_mismatched, reference = traced
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = tracing.layer_metrics(tracer, len(traced_walls), sum(traced_walls), overhead)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"trace-{args.workload}.jsonl")
        rounds = len(walls) + len(traced_walls)
        failed += traced_failed
        mismatched += traced_mismatched
    else:
        setup = _setup_seconds(args)
        inputs = workload.inputs(args.seed)
        walls, failed, mismatched, reference = _rounds(workload, inputs, args.seconds, None)
        rounds = len(walls)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"}}

    import checks

    failures = [] if reference is None else \
        checks.CHECKS[workload.kind](inputs, reference, args.seed)
    if mismatched:
        failures.append(f"{mismatched} rounds differ from the first round's outputs")
    for message in failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    print(f"# {args.workload} seed={args.seed} rounds={rounds} {threads}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": rounds * workload.ops_per_round,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
