"""Byte-identity of every artifact, for every command and loss."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest_lines(out_dir):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "artifact_digest.py"), str(out_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.splitlines()


def test_two_fresh_runs_write_identical_bytes(tmp_path):
    # synth, train with three losses per task, eval of each checkpoint and
    # ablate, each run twice into its own empty directory; the digests pin
    # no hash, only that the two runs agree
    first = digest_lines(tmp_path / "a")
    second = digest_lines(tmp_path / "b")
    assert len(first) > 50
    assert first == second
