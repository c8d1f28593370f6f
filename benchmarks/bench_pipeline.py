"""Workloads, the CLI pipeline they run, and the checks on its outputs.

One pipeline is what a user runs: ``ccrf synth``, then ``ccrf train`` on
the new dataset, then ``ccrf eval`` on the new checkpoint, each through
``ccrf.cli.main`` in this process.  A run repeats the pipeline with the
same seed until its time is up; every repetition after the first must
reproduce the first one's ``history.csv`` bytes and test error.
"""

from __future__ import annotations

import contextlib
import csv
import glob
import io
import math
import os
import resource
import shutil
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ccrf import cli
from ccrf.crf import assemble, map_infer
from ccrf.datasets import load_dataset
from ccrf.networks import load_checkpoint, pairwise_forward, unary_forward
from ccrf.training import prepare_examples

import bench_kernels
import bench_trace

MIN_REPEATS = 2
MIN_TRACED_REPEATS = 1
# calls per timed pipeline; a traced pipeline makes one of each
SYNTH_CALLS = 3
EVAL_CALLS = 2
# no repetition beyond the minimum may end past this, whatever --seconds
# asked for, so a run always ends well inside three minutes
HARD_STOP_S = 120.0
# A0 Y = Z must hold to this relative residual (Frobenius norms)
RESIDUAL_TOL = 1e-10

_NETS = {"hidden_dims": "32", "embed_hidden_dims": "32", "embed_dim": "16"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict

    @property
    def nodes(self) -> int:
        return int(self.config["target_nodes"])

    @property
    def likelihood(self) -> bool:
        return self.config["loss"] == "loglik"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seg-n100-softmax",
            "acceptance configuration (64 px, 100 nodes, 4 classes): per-call overhead "
            "dominates (graph build, MLPs, SGD, validation, I/O), not the O(n^3) solve",
            {
                **_NETS,
                "task": "segmentation",
                "size": "64",
                "target_nodes": "100",
                "classes": "4",
                "noise_level": "0.8",
                "count": "300",
                "train_frac": "0.6",
                "val_frac": "0.1",
                "loss": "softmax",
                "epochs": "8",
                "warmup_epochs": "3",
                "lr": "0.01",
            },
        ),
        Workload(
            "seg-n700-softmax",
            "MAP path at scale (96 px, 700 nodes, 8 classes): pairwise kernel, assemble, "
            "solve and map_backward dominate; never calls nll_backward",
            {
                **_NETS,
                "task": "segmentation",
                "size": "96",
                "target_nodes": "700",
                "classes": "8",
                # many small shapes keep each image's class mix, and so the
                # test error, close to the same from seed to seed
                "shape_count": "24",
                "noise_level": "0.2",
                "count": "36",
                "train_frac": "0.334",
                "val_frac": "0.111",
                "loss": "softmax",
                "epochs": "8",
                "warmup_epochs": "2",
                "lr": "0.01",
                # a local kernel: at 700 nodes the default 0.1 couples every
                # node to every other and smooths the labelling flat
                "gamma": "100",
            },
        ),
        Workload(
            "depth-n700-loglik",
            "likelihood path at scale (96 px, 700 nodes, depth): nll_backward's explicit "
            "inverse dominates; never calls map_backward or task_loss",
            {
                **_NETS,
                "task": "depth",
                "size": "96",
                "target_nodes": "700",
                "noise_level": "0.3",
                "count": "30",
                "train_frac": "0.267",
                "val_frac": "0.067",
                "loss": "loglik",
                "epochs": "6",
                "warmup_epochs": "2",
                "lr": "0.01",
            },
        ),
    )
}


@dataclass
class Checks:
    """Operations attempted and the ones that failed, each with a reason."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


@dataclass
class Pipeline:
    """Wall times and outputs of one synth -> train -> eval.

    ``synth_s`` and ``eval_s`` hold one entry per call: a timed pipeline
    runs ``synth`` and ``eval`` more than once, so set-up and evaluation
    times get as many samples as training does.
    """

    synth_s: list
    train_s: float
    eval_s: list
    train_steps: int
    test_images: int
    history: bytes
    test_error: float
    synth_dir: str
    ckpt: str

    @property
    def total_s(self) -> float:
        """What one user-run synth -> train -> eval takes."""
        return self.synth_s[0] + self.train_s + self.eval_s[0]


def _only_dir(pattern: str) -> str:
    found = glob.glob(pattern)
    if len(found) != 1:
        raise ValueError(f"expected one run directory matching {pattern}, found {len(found)}")
    return found[0]


def _manifest_examples(path: str) -> int:
    with open(path) as fh:
        lines = [line.split("#", 1)[0].strip() for line in fh]
    return sum(1 for line in lines if line and not line.startswith("task="))


def read_test_error(metrics_csv: str) -> float | None:
    """Full-model error from ``metrics.csv`` text: 1 - pix_acc, or rms for depth.

    None unless both variants are there and every value is finite.
    """
    try:
        rows = {row["variant"]: row for row in csv.DictReader(io.StringIO(metrics_csv))}
        values = [float(v) for row in rows.values() for k, v in row.items() if k != "variant"]
    except (KeyError, TypeError, ValueError):
        return None
    if set(rows) != {"unary", "full"} or not all(math.isfinite(v) for v in values):
        return None
    full = rows["full"]
    return 1.0 - float(full["pix_acc"]) if "pix_acc" in full else float(full["rms"])


def _cli(argv, checks: Checks, recorder=None) -> float | None:
    """Run one CLI command quietly; its wall time, or None if it failed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            if recorder is None:
                code = cli.main(argv)
            else:
                with recorder.command_span(argv[0]):
                    code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc()
            code = None
        elapsed = perf_counter() - start
    outcome = "crashed" if code is None else f"exited {code}"
    ok = checks.check(code == 0, f"ccrf {argv[0]} {outcome}: {sink.getvalue().strip()[-300:]}")
    return elapsed if ok else None


def write_config(workload: Workload, path: str) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in workload.config.items())


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _dir_bytes(directory: str) -> dict:
    # manifest.json records the output path, which differs by design
    return {
        name: _read_bytes(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if name != "manifest.json"
    }


def run_pipeline(
    config: str,
    seed: int,
    workdir: str,
    checks: Checks,
    recorder=None,
    synth_calls: int = 1,
    eval_calls: int = 1,
):
    """synth -> train -> eval under ``workdir``; None if a command failed.

    Extra ``synth`` calls write to their own directories and must write
    the same files; extra ``eval`` calls must write the same metrics.
    """
    runs = os.path.join(workdir, "runs")
    seed_args = ["--seed", str(seed)]
    synth_s, synth_dir = [], None
    for k in range(synth_calls):
        data_root = os.path.join(workdir, f"data{k}")
        elapsed = _cli(["synth", "--config", config, "--out", data_root, *seed_args], checks, recorder)
        if elapsed is None:
            return None
        synth_s.append(elapsed)
        made = _only_dir(os.path.join(data_root, "synth-*"))
        if synth_dir is None:
            synth_dir = made
        else:
            checks.check(_dir_bytes(made) == _dir_bytes(synth_dir), "repeated synth wrote other files")
    train_s = _cli(
        ["train", "--config", config, "--data", synth_dir, "--out", runs, *seed_args],
        checks,
        recorder,
    )
    if train_s is None:
        return None
    train_dir = _only_dir(os.path.join(runs, "train-*"))
    ckpt = os.path.join(train_dir, "checkpoint.ccrf")
    eval_s, metrics = [], None
    for _ in range(eval_calls):
        elapsed = _cli(["eval", "--ckpt", ckpt, "--data", synth_dir, "--out", runs], checks, recorder)
        if elapsed is None:
            return None
        eval_s.append(elapsed)
        written = _read_bytes(os.path.join(_only_dir(os.path.join(runs, "eval-*")), "metrics.csv"))
        if metrics is None:
            metrics = written
        else:
            checks.check(written == metrics, "repeated eval wrote other metrics")

    test_error = read_test_error(metrics.decode())
    if not checks.check(test_error is not None, "metrics.csv lacks a row or holds a nonfinite value"):
        return None
    history = _read_bytes(os.path.join(train_dir, "history.csv"))
    epochs = len(history.splitlines()) - 1
    return Pipeline(
        synth_s,
        train_s,
        eval_s,
        _manifest_examples(os.path.join(synth_dir, "train.manifest")) * epochs,
        _manifest_examples(os.path.join(synth_dir, "test.manifest")),
        history,
        test_error,
        synth_dir,
        ckpt,
    )


def solve_residual(synth_dir: str, ckpt: str) -> float:
    """Relative residual ||A0 Y - Z|| / ||Z|| on the first test graph."""
    model = load_checkpoint(ckpt)
    example = prepare_examples(load_dataset(synth_dir).test[:1])[0]
    scores, _ = unary_forward(model.unary, example.graph)
    affinity, _ = pairwise_forward(model.pairwise, example.graph)
    system = assemble(affinity)
    labelling = map_infer(system, scores)
    return float(np.linalg.norm(system.a0 @ labelling - scores) / np.linalg.norm(scores))


def check_repeat(reference: Pipeline, again: Pipeline, checks: Checks) -> None:
    checks.check(again.history == reference.history, "history.csv differs between same-seed runs")
    checks.check(
        again.test_error == reference.test_error,
        f"test error {again.test_error!r} differs from {reference.test_error!r} on the same seed",
    )


def check_call_paths(workload: Workload, layer: dict, test_images: int, checks: Checks) -> None:
    """The traced call counts must match the workload's loss path exactly."""
    if workload.likelihood:
        checks.check(layer["crf.map_backward.calls"] == 0, "loglik training called map_backward")
        checks.check(layer["losses.task_loss.calls"] == 0, "loglik training called task_loss")
    else:
        checks.check(layer["crf.nll_backward.calls"] == 0, "task-loss training called nll_backward")
    checks.check(
        layer["networks.unary_forward.eval_calls"] == 2 * test_images,
        f"eval ran unary_forward {layer['networks.unary_forward.eval_calls']} times "
        f"for {test_images} test images, expected {2 * test_images}",
    )


class Runner:
    """Repeats one workload's pipeline under a scratch directory."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.config = os.path.join(workdir, "workload.cfg")
        write_config(workload, self.config)
        self.checks = Checks()
        self.reference: Pipeline | None = None
        self.repeats = 0
        self.recorders: list = []

    def once(self, traced: bool = False, synth_calls: int = 1, eval_calls: int = 1):
        rep_dir = os.path.join(self.workdir, f"rep{self.repeats:03d}")
        self.repeats += 1
        recorder = bench_trace.SpanRecorder() if traced else None
        tracing = bench_trace.instrumented(recorder) if traced else contextlib.nullcontext()
        try:
            with tracing:
                result = run_pipeline(
                    self.config, self.seed, rep_dir, self.checks, recorder, synth_calls, eval_calls
                )
            if traced:
                self.recorders.append(recorder)
            if result is None:
                return None
            if self.reference is None:
                self.reference = result
                residual = solve_residual(result.synth_dir, result.ckpt)
                self.checks.check(
                    residual <= RESIDUAL_TOL,
                    f"A0 Y = Z residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}",
                )
            else:
                check_repeat(self.reference, result, self.checks)
            return result
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)


def _median(values) -> float:
    return float(statistics.median(values))


def _steps_per_s(runs) -> float:
    return _median(p.train_steps / p.train_s for p in runs)


def _another_fits(start: float, seconds: float, step_s: float) -> bool:
    """Whether one more step as long as the last one ends inside the budget."""
    elapsed = perf_counter() - start
    return elapsed + step_s <= seconds and elapsed + step_s <= HARD_STOP_S


def measure(runner: Runner, seconds: float) -> dict:
    """End-to-end metrics, tracing off: medians over repeated pipelines."""
    start = perf_counter()
    done, step_s = [], 0.0
    while len(done) < MIN_REPEATS or _another_fits(start, seconds, step_s):
        begun = perf_counter()
        result = runner.once(synth_calls=SYNTH_CALLS, eval_calls=EVAL_CALLS)
        if result is None:
            break
        done.append(result)
        step_s = perf_counter() - begun
    if not done:
        return {}
    return {
        "setup_s": _median(t for p in done for t in p.synth_s),
        "train_steps_per_s": _steps_per_s(done),
        "eval_images_per_s": _median(p.test_images / t for p in done for t in p.eval_s),
        "pipeline_s": _median(p.total_s for p in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_error": runner.reference.test_error,
    }


def measure_traced(runner: Runner, seconds: float, sweep_repeats: int = 5) -> dict:
    """Per-layer metrics: kernel sweep, allocation counts, traced pipelines.

    Traced and untraced pipelines alternate, so ``trace.overhead_frac``
    compares neighbours run under the same machine load.
    """
    start = perf_counter()
    metrics = bench_kernels.kernel_sweep(runner.seed, sweep_repeats)
    metrics.update(bench_kernels.alloc_kib(runner.workload.nodes, runner.seed))
    plain, traced, layers = [], [], []
    step_s = 0.0
    while len(layers) < MIN_TRACED_REPEATS or _another_fits(start, seconds, step_s):
        begun = perf_counter()
        result = runner.once()
        if result is None:
            break
        plain.append(result)
        result = runner.once(traced=True)
        if result is None:
            break
        traced.append(result)
        layer = bench_trace.layer_metrics(runner.recorders[-1].spans)
        check_call_paths(runner.workload, layer, result.test_images, runner.checks)
        layers.append(layer)
        step_s = perf_counter() - begun
    if not layers:
        return {}
    for name in layers[0]:
        value = _median(layer[name] for layer in layers)
        metrics[name] = int(value) if name.endswith("calls") else value
    metrics["trace.overhead_frac"] = 1.0 - _steps_per_s(traced) / _steps_per_s(plain)
    return metrics
