"""Command-line driver: synth | train | eval | ablate.

Every run hashes its effective configuration and seed into a run id and
writes results into ``<out>/<command>-<id>/`` together with a manifest,
so identical invocations land in identical places with identical bytes.

Exit codes: 0 success, 1 usage, 2 data or shape mismatch, 3 divergence,
4 sweep finished with failed cells.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Callable, NamedTuple

from .datasets import Dataset, load_dataset, save_dataset
from .gridio import atomic_open
from .losses import LOSS_KINDS, LossSpec
from .networks import load_checkpoint, save_checkpoint
from .scenes import CorruptionSpec, SyntheticSceneSpec, corrupt_dataset, synth_dataset
from .svgplot import line_plot
from .training import DivergenceError, TrainConfig, evaluate, prepare_examples, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3
EXIT_PARTIAL = 4


def _int_list(text: str) -> tuple:
    values = tuple(int(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def _clip_norm(text: str) -> float | None:
    return None if text.lower() == "none" else float(text)


# every config key, in one table per library object or call it fills, with
# its parser; a key the file leaves out takes the library's default
_SCENE_KEYS = {"task": str, "size": int, "classes": int, "shape_count": int,
               "noise_level": float, "target_nodes": int, "seed": int}
_SPLIT_KEYS = {"count": int, "train_frac": float, "val_frac": float}
_LOSS_KEYS = {"loss": str, "tukey_c": float}
_TRAIN_KEYS = {"lr": float, "momentum": float, "weight_decay": float, "epochs": int,
               "warmup_epochs": int, "seed": int, "clip_norm": _clip_norm,
               "hidden_dims": _int_list, "embed_hidden_dims": _int_list,
               "embed_dim": int, "gamma": float, "keep": str}
_CORRUPTION_KEYS = {"noise_sigma": float, "outlier_magnitude": float}
_ABLATE_KEYS = {"ablate_classes": _int_list}
_CONFIG_KEYS = frozenset().union(_SCENE_KEYS, _SPLIT_KEYS, _LOSS_KEYS, _TRAIN_KEYS,
                                 _CORRUPTION_KEYS, _ABLATE_KEYS)
# keys named otherwise than the parameter they set
_RENAMED = {"loss": "kind", "tukey_c": "c", "warmup_epochs": "unary_warmup_epochs",
            "noise_sigma": "sigma", "outlier_magnitude": "magnitude"}


def parse_config(path) -> dict[str, str]:
    """Read a plain key=value config file; '#' starts a comment."""
    mapping: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            mapping[key] = value
    return mapping


def _given(config: dict[str, str], table: dict) -> dict:
    """Keyword arguments for the keys of ``table`` that ``config`` sets."""
    kwargs = {}
    for key, parse in table.items():
        if key in config:
            try:
                kwargs[_RENAMED.get(key, key)] = parse(config[key])
            except ValueError as err:
                raise ValueError(f"config key {key!r}: {err}") from err
    return kwargs


def train_config(config: dict[str, str]) -> TrainConfig:
    """The training constants a parsed config sets, over the library defaults."""
    return TrainConfig(loss=LossSpec(**_given(config, _LOSS_KEYS)), **_given(config, _TRAIN_KEYS))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ccrf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--config", required=True, help="key=value config file")
    synth.add_argument("--out", required=True, help="output root directory")
    synth.add_argument("--seed", type=int, default=None)

    tr = sub.add_parser("train", help="train a model on a dataset directory")
    tr.add_argument("--config", required=True)
    tr.add_argument("--data", required=True, help="dataset directory from synth")
    tr.add_argument("--out", required=True)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--loss", choices=LOSS_KINDS, default=None)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--out", required=True)

    ab = sub.add_parser("ablate", help="loss-versus-sweep study with plots")
    ab.add_argument("--config", required=True)
    ab.add_argument("--out", required=True)
    ab.add_argument("--seed", type=int, default=None)
    return parser


def _effective_config(mapping: dict[str, str], overrides: dict) -> dict[str, str]:
    merged = dict(mapping)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = str(value)
    return merged


def _run_dir(out_root: str, command: str, config: dict[str, str]) -> tuple[str, str]:
    digest = hashlib.sha256()
    digest.update(command.encode())
    for key in sorted(config):
        digest.update(f"\n{key}={config[key]}".encode())
    run_id = digest.hexdigest()[:12]
    path = os.path.join(out_root, f"{command}-{run_id}")
    os.makedirs(path, exist_ok=True)
    return path, run_id


def _write_run_manifest(run_dir, run_id, command, args, config, **outcome) -> None:
    manifest = {
        "command": command,
        "config": getattr(args, "config", None),
        "seed": int(config.get("seed", 0)),
        "out_dir": run_dir,
        "run_id": run_id,
        "effective_config": config,
        **outcome,
    }
    with atomic_open(os.path.join(run_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _synth_dataset(config: dict[str, str]) -> Dataset:
    spec = SyntheticSceneSpec(**_given(config, _SCENE_KEYS))
    return synth_dataset(spec, **_given(config, _SPLIT_KEYS))


def _write_table(run_dir, stem, header, rows) -> None:
    csv_lines = [",".join(header)]
    csv_lines += [",".join(str(cell) for cell in row) for row in rows]
    with atomic_open(os.path.join(run_dir, f"{stem}.csv")) as fh:
        fh.write("\n".join(csv_lines) + "\n")
    md_lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    md_lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    with atomic_open(os.path.join(run_dir, f"{stem}.md")) as fh:
        fh.write("\n".join(md_lines) + "\n")


def _fmt_metric(value: float) -> str:
    return f"{value:.6f}"


def _cmd_synth(args) -> int:
    config = _effective_config(parse_config(args.config), {"seed": args.seed})
    dataset = _synth_dataset(config)
    run_dir, run_id = _run_dir(args.out, "synth", config)
    save_dataset(dataset, run_dir)
    _write_run_manifest(run_dir, run_id, "synth", args, config)
    print(
        f"wrote {len(dataset.train)}/{len(dataset.val)}/{len(dataset.test)} "
        f"train/val/test examples to {run_dir}"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    mapping = _effective_config(
        parse_config(args.config), {"seed": args.seed, "loss": args.loss}
    )
    config = train_config(mapping)
    dataset = load_dataset(args.data, ("train", "val"))
    if dataset.task == "depth" and config.loss.kind == "softmax":
        raise ValueError("softmax loss needs class targets, not depth values")
    model, history = train(dataset, config)
    run_dir, run_id = _run_dir(args.out, "train", mapping)
    save_checkpoint(os.path.join(run_dir, "checkpoint.ccrf"), model)
    history.write_csv(os.path.join(run_dir, "history.csv"))
    kept = history.kept_epoch
    _write_run_manifest(run_dir, run_id, "train", args, mapping, kept_epoch=kept)
    last = history.records[-1] if history.records else None
    if last is not None:
        warmup = " (unary warm-up)" if kept < config.unary_warmup_epochs else ""
        print(
            f"trained {config.epochs} epochs; final {history.metric_name} "
            f"{_fmt_metric(last.metric)}; kept epoch {kept}{warmup}; run dir {run_dir}"
        )
    else:
        print(f"saved initialization checkpoint (0 epochs); run dir {run_dir}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data, ("test",))
    examples = prepare_examples(dataset.test)
    if not examples:
        raise ValueError(f"{args.data}: test split is empty")
    keys = _TASKS[dataset.task].metrics
    rows = []
    for variant, unary_only in (("unary", True), ("full", False)):
        scores = evaluate(model, examples, dataset.task, unary_only=unary_only)
        rows.append([variant] + [_fmt_metric(scores[key]) for key in keys])
    config = {"ckpt": args.ckpt, "data": args.data}
    run_dir, run_id = _run_dir(args.out, "eval", config)
    _write_table(run_dir, "metrics", ["variant", *_columns(keys)], rows)
    _write_run_manifest(run_dir, run_id, "eval", args, config)
    for row in rows:
        print("  ".join(str(cell) for cell in row))
    print(f"run dir {run_dir}")
    return EXIT_OK


class _Task(NamedTuple):
    """What eval reports on a task, and the sweep ablate runs on it."""

    metrics: tuple  # eval's metric keys, in column order
    column: str  # the ablate table's cell column
    losses: tuple
    sweep_metrics: tuple
    plot_metric: str
    plots: dict  # svg stem -> (title, xlabel, ylabel)
    base: dict  # config defaults the sweep puts under the user's config
    cells: Callable  # config -> iterable of (label, dataset, {svg stem: x})


def _class_count_cells(config):
    counts = _given(config, _ABLATE_KEYS).get("ablate_classes", (2, 4, 8))
    # every class count is checked before the first cell trains
    specs = [SyntheticSceneSpec(**_given({**config, "classes": str(m)}, _SCENE_KEYS))
             for m in counts]
    split = _given(config, _SPLIT_KEYS)
    for m, spec in zip(counts, specs):
        yield m, synth_dataset(spec, **split), {"pixel_acc_vs_classes": m}


_CORRUPTION_SWEEP = (  # label, corruption kind, fraction, svg stem
    ("10% noise", "gaussian_noise", 0.10, "delta_vs_noise"),
    ("25% noise", "gaussian_noise", 0.25, "delta_vs_noise"),
    ("10% outlier", "outlier", 0.10, "delta_vs_outliers"),
    ("25% outlier", "outlier", 0.25, "delta_vs_outliers"),
)


def _corruption_cells(config):
    constants = _given(config, _CORRUPTION_KEYS)
    seed = _given(config, _SCENE_KEYS).get("seed", SyntheticSceneSpec.seed)
    # every spec is checked before the clean cell trains
    specs = [CorruptionSpec(kind, fraction, **constants)
             for _, kind, fraction, _ in _CORRUPTION_SWEEP]
    clean = _synth_dataset(config)
    yield "0%", clean, {"delta_vs_noise": 0.0, "delta_vs_outliers": 0.0}
    for (label, _, fraction, stem), corruption in zip(_CORRUPTION_SWEEP, specs):
        yield label, corrupt_dataset(clean, corruption, seed), {stem: 100 * fraction}


_DEPTH_METRICS = ("rel", "log10", "rms", "delta1", "delta2", "delta3")
_PERCENT = "corrupted nodes (%)"
_TASKS = {
    "segmentation": _Task(
        metrics=("pixel_acc", "class_acc", "avg_jaccard", "freq_jaccard"),
        column="classes",
        losses=("softmax", "loglik"),
        sweep_metrics=("pixel_acc", "class_acc"),
        plot_metric="pixel_acc",
        plots={
            "pixel_acc_vs_classes": ("pixel accuracy vs class count", "classes", "pixel accuracy")
        },
        base={},
        cells=_class_count_cells,
    ),
    "depth": _Task(
        metrics=_DEPTH_METRICS,
        column="corruption",
        losses=("loglik", "tukey"),
        sweep_metrics=_DEPTH_METRICS,
        plot_metric="delta1",
        plots={
            "delta_vs_noise": ("threshold accuracy vs label noise", _PERCENT, "delta < 1.25"),
            "delta_vs_outliers": ("threshold accuracy vs outliers", _PERCENT, "delta < 1.25"),
        },
        # corruption hits train and val alike, so the val metric cannot
        # rank checkpoints; default to final-epoch params for the sweep
        base={"keep": "last"},
        cells=_corruption_cells,
    ),
}


def _columns(keys) -> list[str]:
    return ["pix_acc" if key == "pixel_acc" else key for key in keys]


def _cmd_ablate(args) -> int:
    mapping = _effective_config(parse_config(args.config), {"seed": args.seed})
    task = mapping.get("task", SyntheticSceneSpec.task)
    if task not in _TASKS:
        raise ValueError(f"unknown task {task!r}")
    sweep = _TASKS[task]
    configs = {
        kind: train_config({**sweep.base, **mapping, "loss": kind}) for kind in sweep.losses
    }
    curves = {stem: {kind: ([], []) for kind in sweep.losses} for stem in sweep.plots}
    failures = 0
    rows = []
    for label, dataset, plot_xs in sweep.cells(mapping):
        test = prepare_examples(dataset.test)
        for kind in sweep.losses:
            try:
                model, _ = train(dataset, configs[kind])
            except DivergenceError as err:
                failures += 1
                rows.append([label, kind, *["nan"] * len(sweep.sweep_metrics), f"diverged ({err})"])
                continue
            scores = evaluate(model, test, task)
            rows.append([label, kind, *[_fmt_metric(scores[k]) for k in sweep.sweep_metrics], "ok"])
            for stem, x in plot_xs.items():
                curves[stem][kind][0].append(x)
                curves[stem][kind][1].append(scores[sweep.plot_metric])
    run_dir, run_id = _run_dir(args.out, "ablate", mapping)
    for stem, (title, xlabel, ylabel) in sweep.plots.items():
        series = [(kind, xs, ys) for kind, (xs, ys) in curves[stem].items() if xs]
        if series:
            path = os.path.join(run_dir, f"{stem}.svg")
            line_plot(path, series, title=title, xlabel=xlabel, ylabel=ylabel)

    header = [sweep.column, "loss", *_columns(sweep.sweep_metrics), "status"]
    _write_table(run_dir, "ablate", header, rows)
    _write_run_manifest(run_dir, run_id, "ablate", args, mapping)
    for row in rows:
        print("  ".join(str(cell) for cell in row))
    print(f"run dir {run_dir}")
    return EXIT_PARTIAL if failures else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "synth": _cmd_synth,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "ablate": _cmd_ablate,
    }
    try:
        return handlers[args.command](args)
    except DivergenceError as err:
        print(f"diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
