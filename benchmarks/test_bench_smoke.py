"""Smoke test of the benchmark itself, at tiny sizes and without timing asserts.

It checks that a run reports every metric ``BENCHMARK.json`` names, with
its unit, and that corrupted program output is counted as a failure.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_pipeline  # noqa: E402
import run as bench_run  # noqa: E402

TINY = bench_pipeline.Workload(
    "tiny",
    "smoke test",
    {
        "task": "segmentation",
        "size": "32",
        "target_nodes": "12",
        "classes": "3",
        "shape_count": "3",
        "noise_level": "0.3",
        "count": "6",
        "train_frac": "0.5",
        "val_frac": "0.17",
        "loss": "softmax",
        "epochs": "2",
        "warmup_epochs": "1",
        "lr": "0.01",
        "hidden_dims": "8",
        "embed_hidden_dims": "8",
        "embed_dim": "4",
    },
)


def _declared(kind):
    with open(os.path.join(bench_run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.fixture
def runner(tmp_path):
    return bench_pipeline.Runner(TINY, 3, str(tmp_path))


def test_end_to_end_run_reports_every_declared_metric(runner):
    values = bench_pipeline.measure(runner, seconds=0.0)
    assert runner.checks.failures == []
    assert runner.checks.attempted >= 2 * 3
    assert {name: bench_run.END_TO_END_UNITS[name] for name in values} == _declared("end_to_end")


def test_traced_run_reports_every_declared_metric(runner):
    values = bench_pipeline.measure_traced(runner, seconds=0.0, sweep_repeats=1)
    assert runner.checks.failures == []
    assert {name: bench_run.layer_unit(name) for name in values} == _declared("per_layer")
    assert values["crf.nll_backward.calls"] == 0
    assert values["networks.unary_forward.eval_calls"] == 2 * runner.reference.test_images


def test_workloads_match_benchmark_json():
    with open(os.path.join(bench_run.ROOT, "BENCHMARK.json")) as fh:
        declared = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    assert declared == {name: w.why for name, w in bench_pipeline.WORKLOADS.items()}


def test_nonfinite_metrics_count_as_failed(runner, monkeypatch):
    from ccrf import cli

    def broken_evaluate(*args, **kwargs):
        return {key: float("nan") for key in ("pixel_acc", "class_acc", "avg_jaccard", "freq_jaccard")}

    monkeypatch.setattr(cli, "evaluate", broken_evaluate)
    assert runner.once() is None
    assert len(runner.checks.failures) == 1
    assert "finite" in runner.checks.failures[0]


def test_crashing_command_counts_as_failed(runner, monkeypatch):
    from ccrf import cli

    def broken_train(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "train", broken_train)
    assert runner.once() is None
    assert len(runner.checks.failures) == 1
    assert "ccrf train crashed" in runner.checks.failures[0]


def test_changed_history_counts_as_failed(runner, monkeypatch):
    from ccrf import training

    assert runner.once() is not None
    original = training.TrainHistory.to_csv
    monkeypatch.setattr(training.TrainHistory, "to_csv", lambda self: original(self) + "0\n")
    assert runner.once() is not None
    assert runner.checks.failures == ["history.csv differs between same-seed runs"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench_run.ROOT, "BENCHMARK.json"), tmp_path)
    argv = ["--workload", "seg-n100-softmax", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
