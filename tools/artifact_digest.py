"""Digest every artifact of a tiny synth -> train -> eval -> ablate run.

    PYTHONPATH=src python tools/artifact_digest.py OUT

Runs small segmentation and depth configs through ``ccrf.cli.main`` inside
the directory OUT, every path relative to it, so that run ids and
manifests do not depend on where the checkout lives:

- ``synth`` one dataset per task;
- ``train`` with softmax, loglik and ls on segmentation, and loglik, ls and
  tukey on depth;
- ``eval`` of each checkpoint;
- ``ablate`` per task.

It then prints ``sha256  path`` for every file under OUT, manifests
included.  The same command on two checkouts, each into a fresh OUT,
prints identical lines exactly when the two write the same bytes; a
refactor that must not change results is checked by diffing the outputs.
Exits 1 if any command fails, naming it.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import sys

from ccrf import cli

_CONFIGS = {
    "seg": """\
task=segmentation
size=32
classes=3
target_nodes=36
count=8
seed=5
epochs=4
keep=last
warmup_epochs=1
hidden_dims=8
embed_hidden_dims=8
embed_dim=4
gamma=1.0
lr=0.01
ablate_classes=2,3
""",
    "depth": """\
task=depth
size=32
target_nodes=36
count=8
seed=6
epochs=4
keep=last
warmup_epochs=1
hidden_dims=8
embed_hidden_dims=8
embed_dim=4
lr=0.01
""",
}
_LOSSES = {"seg": ("softmax", "loglik", "ls"), "depth": ("loglik", "ls", "tukey")}


def _run(argv: list[str]) -> None:
    # the commands' own messages go to stderr, so stdout is only digests
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"ccrf {' '.join(argv)} exited {code}")


def _only(pattern: str) -> str:
    (path,) = glob.glob(pattern)
    return path


def run_all() -> None:
    """Every command, in the current directory."""
    for name, text in _CONFIGS.items():
        config = f"{name}.cfg"
        with open(config, "w") as fh:
            fh.write(text)
        _run(["synth", "--config", config, "--out", name])
        data = _only(os.path.join(name, "synth-*"))
        for loss in _LOSSES[name]:
            _run(["train", "--config", config, "--data", data, "--out", name, "--loss", loss])
        for ckpt in sorted(glob.glob(os.path.join(name, "train-*", "checkpoint.ccrf"))):
            _run(["eval", "--ckpt", ckpt, "--data", data, "--out", name])
        _run(["ablate", "--config", config, "--out", name])


def digests() -> list[str]:
    """``sha256  path`` for every file under the current directory, sorted."""
    lines = []
    for root, _, files in os.walk("."):
        for file in files:
            path = os.path.relpath(os.path.join(root, file))
            with open(path, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/artifact_digest.py OUT", file=sys.stderr)
        return 1
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])
    if os.listdir("."):
        print(f"{argv[0]} is not empty", file=sys.stderr)
        return 1
    run_all()
    print("\n".join(digests()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
