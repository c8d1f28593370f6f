"""ccrf benchmark: the CLI pipeline synth -> train -> eval, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload seg-n100-softmax --seed 1 --seconds 30 --trace 0

Workloads are defined in ``bench_pipeline.WORKLOADS``.  ``--trace 0``
repeats the pipeline with tracing off for ``--seconds`` and reports the
end-to-end metrics as medians over the repetitions.  ``--trace 1`` runs the
kernel scaling sweep and the allocation pass, then alternates untraced and
traced pipelines, and reports the per-layer metrics.  Either way the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
the environment record, and both, plus the traced spans, are also written
under ``.bench_out/`` in the repository root.

The package is imported from ``src/`` next to this directory, never from
an installed copy; without it the benchmark exits 2 and prints no result.
BLAS thread settings are recorded, never changed.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_steps_per_s": "steps/s",
    "eval_images_per_s": "images/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "test_error": "1",
}


def layer_unit(name: str) -> str:
    if name.endswith("calls"):
        return "count"
    if name.endswith(".alloc_kib"):
        return "KiB"
    if name.endswith(("_ms", ".ms")):
        return "ms"
    return "1"  # fractions and ratios


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads(package) -> int | None:
    """Thread count of the OpenBLAS a wheel bundles, via its own getter."""
    libs = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas,
        "blas_threads_numpy": _openblas_threads(numpy),
        "blas_threads_scipy": _openblas_threads(scipy),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(workload, seed: int, seconds: float, trace: bool):
    """Measure one workload in a scratch directory; returns (result, runner)."""
    import bench_pipeline

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        runner = bench_pipeline.Runner(workload, seed, workdir)
        if trace:
            values = bench_pipeline.measure_traced(runner, seconds)
            units = {name: layer_unit(name) for name in values}
        else:
            values = bench_pipeline.measure(runner, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # a run that produced no numbers failed, even if no check said so
    failed = max(len(runner.checks.failures), 0 if values else 1)
    result = {
        "correct": failed == 0,
        "attempted": max(runner.checks.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    return result, runner


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "ccrf", "__init__.py")):
        print(f"error: no ccrf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench_pipeline
    import bench_trace

    workload = bench_pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, runner = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        record = {"workload": args.workload, "why": workload.why, "seed": args.seed, "env": env}
        record.update(failures=runner.checks.failures, result=result)
        json.dump(record, fh, indent=2)
    if runner.recorders:
        bench_trace.write_spans_csv(stem + "-spans.csv", runner.recorders)
    for failure in runner.checks.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
