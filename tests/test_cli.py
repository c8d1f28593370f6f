import json
import os
import re
import struct
import subprocess
import sys
import tomllib

import numpy as np
import pytest

from ccrf import (
    Dataset,
    ImageGrid,
    LabeledExample,
    LossSpec,
    SyntheticSceneSpec,
    TrainConfig,
    build_model,
    cli,
    load_checkpoint,
    load_dataset,
    pool_features,
    save_checkpoint,
    save_dataset,
    synth_dataset,
)
from ccrf import datasets
from ccrf.cli import parse_config
from ccrf.cli import train_config as config_from_mapping
from ccrf.datasets import write_manifest

from helpers import set_example_value, voronoi_segment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(path, **kv):
    lines = [f"{key}={value}" for key, value in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def seg_config(tmp_path, name="run.cfg", **extra):
    base = dict(
        task="segmentation", size=32, classes=3, shape_count=3,
        noise_level=0.1, target_nodes=12, count=4,
        train_frac=0.5, val_frac=0.25,
        epochs=2, warmup_epochs=1, lr="0.01",
        hidden_dims=8, embed_hidden_dims=8, embed_dim=4,
    )
    base.update(extra)
    return write_config(tmp_path / name, **base)


def depth_config(tmp_path, name="run.cfg", **extra):
    base = dict(
        task="depth", size=32, shape_count=3,
        noise_level=0.1, target_nodes=12, count=4,
        train_frac=0.5, val_frac=0.25,
        epochs=2, warmup_epochs=1, lr="0.01", loss="tukey",
        hidden_dims=8, embed_hidden_dims=8, embed_dim=4,
    )
    base.update(extra)
    return write_config(tmp_path / name, **base)


def only_run_dir(root, command):
    entries = [e for e in os.listdir(root) if e.startswith(f"{command}-")]
    assert len(entries) == 1, entries
    return os.path.join(root, entries[0])


class TestConfigParsing:
    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment line\n"
            "loss = tukey  # trailing comment\n"
            "lr=0.005\n"
            "\n"
            "hidden_dims = 32,16\n"
        )
        mapping = parse_config(path)
        assert mapping == {"loss": "tukey", "lr": "0.005", "hidden_dims": "32,16"}

    def test_parse_rejects_bare_words(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("not a key value line\n")
        with pytest.raises(ValueError):
            parse_config(path)

    def test_mapping_to_config(self):
        cfg = config_from_mapping(
            {
                "loss": "tukey",
                "tukey_c": "0.5",
                "lr": "0.02",
                "epochs": "7",
                "warmup_epochs": "2",
                "hidden_dims": "32,16",
                "embed_dim": "8",
                "clip_norm": "none",
            }
        )
        assert cfg.loss == LossSpec("tukey", 0.5)
        assert cfg.lr == 0.02
        assert cfg.epochs == 7
        assert cfg.unary_warmup_epochs == 2
        assert cfg.hidden_dims == (32, 16)
        assert cfg.embed_dim == 8
        assert cfg.clip_norm is None

    def test_mapping_defaults(self):
        cfg = config_from_mapping({})
        assert cfg == TrainConfig()

    def test_mapping_keep(self):
        assert config_from_mapping({"keep": "last"}).keep == "last"
        with pytest.raises(ValueError):
            config_from_mapping({"keep": "first"})


class TestConfigKeys:
    @pytest.mark.parametrize("command", ["synth", "train", "ablate"])
    def test_unknown_key_is_a_data_error(self, tmp_path, capsys, command):
        data = synth_into(tmp_path, seg_config(tmp_path))
        cfg = seg_config(tmp_path, name="typo.cfg", warmup_epoch=0)
        out = tmp_path / "runs"
        data_flag = ["--data", data] if command == "train" else []
        assert cli.main([command, "--config", cfg, "--out", str(out), *data_flag]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:" in err and "unknown config key 'warmup_epoch'" in err
        assert not out.exists()

    def test_readme_table_lists_every_key(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
        section = readme.split("### Config file", 1)[1].split("\n### ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        keys = {key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])}
        assert keys == cli._CONFIG_KEYS


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["sing"]) == 1

    def test_missing_required_flag(self, capsys):
        assert cli.main(["synth", "--out", "x"]) == 1


def run_python(*argv):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )


class TestProcess:
    """The CLI run as its own process, exit status included."""

    def test_module_without_arguments_exits_1(self):
        result = run_python("-m", "ccrf")
        assert result.returncode == 1
        assert result.stderr.startswith("usage error:")

    def test_module_with_missing_config_file_exits_2(self, tmp_path):
        out = tmp_path / "runs"
        result = run_python(
            "-m", "ccrf", "synth", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)
        )
        assert result.returncode == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith("error:") and "absent.cfg" in line
        assert not out.exists()

    def test_cli_module_with_missing_config_file_exits_2(self, tmp_path):
        out = tmp_path / "runs"
        result = run_python(
            "-m", "ccrf.cli", "synth", "--config", str(tmp_path / "absent.cfg"), "--out", str(out)
        )
        assert result.returncode == 2
        assert "error:" in result.stderr and "absent.cfg" in result.stderr
        assert not out.exists()

    def test_script_target_is_a_callable_main(self):
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["ccrf"]
        module, name = target.split(":")
        # the wrapper an install generates: import the target, exit with its result
        result = run_python("-c", f"import sys; from {module} import {name}; sys.exit({name}())")
        assert result.returncode == 1
        assert result.stderr.startswith("usage error:")


class TestSynth:
    def test_creates_dataset_and_manifest(self, tmp_path, capsys):
        cfg = seg_config(tmp_path)
        out = str(tmp_path / "runs")
        assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
        run_dir = only_run_dir(out, "synth")

        ds = load_dataset(run_dir)
        assert ds.task == "segmentation"
        assert len(ds.train) == 2 and len(ds.val) == 1 and len(ds.test) == 1

        with open(os.path.join(run_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "synth"
        assert manifest["run_id"] in run_dir
        assert "effective_config" in manifest
        assert run_dir in capsys.readouterr().out

    def test_run_dir_is_config_addressed(self, tmp_path):
        cfg = seg_config(tmp_path)
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert cli.main(["synth", "--config", cfg, "--out", out_a]) == 0
        assert cli.main(["synth", "--config", cfg, "--out", out_b]) == 0
        assert os.path.basename(only_run_dir(out_a, "synth")) == os.path.basename(
            only_run_dir(out_b, "synth")
        )

    def test_seed_override_changes_run_dir(self, tmp_path):
        cfg = seg_config(tmp_path)
        out = str(tmp_path / "runs")
        assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
        assert cli.main(["synth", "--config", cfg, "--out", out, "--seed", "9"]) == 0
        entries = [e for e in os.listdir(out) if e.startswith("synth-")]
        assert len(entries) == 2

    def test_unset_keys_take_library_defaults(self, tmp_path):
        cfg = write_config(tmp_path / "depth.cfg", task="depth")
        out = str(tmp_path / "runs")
        assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
        run_dir = only_run_dir(out, "synth")
        expected = tmp_path / "expected"
        save_dataset(synth_dataset(SyntheticSceneSpec("depth"), 10), expected)
        names = sorted(os.listdir(expected))
        assert sorted(os.listdir(run_dir)) == sorted(names + ["manifest.json"])
        for name in names:
            with open(os.path.join(run_dir, name), "rb") as got:
                assert got.read() == (expected / name).read_bytes(), name

    def test_memory_error_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB for an array")

        monkeypatch.setattr(cli, "synth_dataset", no_memory)
        code = cli.main(["synth", "--config", seg_config(tmp_path), "--out", str(tmp_path / "data")])
        assert code == 2
        assert "error: Unable to allocate 29.1 TiB" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("noise_level", "nan"), ("noise_level", "inf"), ("train_frac", "nan"), ("val_frac", "nan")],
    )
    def test_nonfinite_scene_constant_is_a_data_error(self, tmp_path, capsys, key, value):
        out = tmp_path / "runs"
        cfg = seg_config(tmp_path, **{key: value})
        assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 2
        message = "split fractions" if key.endswith("_frac") else "noise_level must be finite"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(
            ["synth", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_interrupted_write_leaves_no_training_set(self, tmp_path, capsys, monkeypatch):
        write = datasets.write_f32grids

        def interrupted(path, arrays):
            if os.path.basename(path).startswith("val_"):
                raise OSError(f"{path}: No space left on device")
            write(path, arrays)

        cfg = seg_config(tmp_path)
        monkeypatch.setattr(datasets, "write_f32grids", interrupted)
        assert cli.main(["synth", "--config", cfg, "--out", str(tmp_path / "data")]) == 2
        monkeypatch.undo()
        data = only_run_dir(tmp_path / "data", "synth")
        assert any(name.startswith("train_") for name in os.listdir(data))
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", cfg, "--data", data, "--out", str(out)]) == 2
        assert "no train/val manifest found" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = cli.main(["synth", "--config", seg_config(tmp_path), "--out", str(out), "--seed", "-3"])
        assert code == 2
        assert "seed must be nonnegative, got -3" in capsys.readouterr().err
        assert not out.exists()


def synth_into(tmp_path, cfg):
    out = str(tmp_path / "data")
    assert cli.main(["synth", "--config", cfg, "--out", out]) == 0
    return only_run_dir(out, "synth")


class TestTrain:
    def test_writes_checkpoint_and_history(self, tmp_path, capsys):
        cfg = seg_config(tmp_path)
        data = synth_into(tmp_path, cfg)
        out = str(tmp_path / "runs")
        code = cli.main(["train", "--config", cfg, "--data", data, "--out", out])
        assert code == 0
        run_dir = only_run_dir(out, "train")

        model = load_checkpoint(os.path.join(run_dir, "checkpoint.ccrf"))
        assert model.unary.output_dim == 3
        history = open(os.path.join(run_dir, "history.csv")).read().splitlines()
        assert history[0] == "epoch,loss,metric,beta,grad_norm"
        assert len(history) == 3  # header + 2 epochs
        assert "final" in capsys.readouterr().out

    def test_same_seed_gives_identical_history(self, tmp_path):
        cfg = seg_config(tmp_path)
        data = synth_into(tmp_path, cfg)
        out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["train", "--config", cfg, "--data", data, "--out", out_a]) == 0
        assert cli.main(["train", "--config", cfg, "--data", data, "--out", out_b]) == 0
        hist_a = open(os.path.join(only_run_dir(out_a, "train"), "history.csv"), "rb").read()
        hist_b = open(os.path.join(only_run_dir(out_b, "train"), "history.csv"), "rb").read()
        assert hist_a == hist_b

    def test_manifest_names_the_kept_epoch(self, tmp_path, capsys):
        # keep=best can return a unary warm-up epoch: during warm-up ls and
        # loglik share one gradient, and here its validation rms was best
        cfg = depth_config(tmp_path, target_nodes=16, count=8, epochs=3)
        data = synth_into(tmp_path, cfg)
        out = str(tmp_path / "runs")
        capsys.readouterr()
        argv = ["train", "--config", cfg, "--data", data, "--out", out, "--seed", "1"]
        assert cli.main(argv + ["--loss", "ls"]) == 0
        assert "kept epoch 0 (unary warm-up)" in capsys.readouterr().out
        run_dir = only_run_dir(out, "train")
        with open(os.path.join(run_dir, "manifest.json")) as fh:
            assert json.load(fh)["kept_epoch"] == 0
        history = open(os.path.join(run_dir, "history.csv")).read().splitlines()[1:]
        rms = [float(line.split(",")[2]) for line in history]
        assert rms[0] == min(rms)

        keep_last = depth_config(tmp_path, name="last.cfg", target_nodes=16, count=8, epochs=3,
                                 keep="last")
        last_out = str(tmp_path / "last")
        assert cli.main(["train", "--config", keep_last, "--data", data, "--out", last_out]) == 0
        stdout = capsys.readouterr().out
        assert "kept epoch 2;" in stdout and "warm-up" not in stdout
        with open(os.path.join(only_run_dir(last_out, "train"), "manifest.json")) as fh:
            assert json.load(fh)["kept_epoch"] == 2

    def test_loss_flag_overrides_config(self, tmp_path):
        cfg = seg_config(tmp_path)
        data = synth_into(tmp_path, cfg)
        out = str(tmp_path / "runs")
        code = cli.main(
            ["train", "--config", cfg, "--data", data, "--out", out, "--loss", "loglik"]
        )
        assert code == 0
        run_dir = only_run_dir(out, "train")
        with open(os.path.join(run_dir, "manifest.json")) as fh:
            assert json.load(fh)["effective_config"]["loss"] == "loglik"

    def test_depth_with_softmax_is_a_data_error(self, tmp_path, capsys):
        cfg = depth_config(tmp_path)
        data = synth_into(tmp_path, cfg)
        out = str(tmp_path / "runs")
        code = cli.main(
            ["train", "--config", cfg, "--data", data, "--out", out, "--loss", "softmax"]
        )
        assert code == 2

    def test_missing_data_dir(self, tmp_path):
        cfg = seg_config(tmp_path)
        code = cli.main(
            ["train", "--config", cfg, "--data", str(tmp_path / "nope"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_negative_seed_fails_before_reading_the_data(self, tmp_path, capsys, monkeypatch):
        reads = []
        monkeypatch.setattr(cli, "load_dataset", lambda *args: reads.append(args))
        out = tmp_path / "runs"
        argv = ["--data", str(tmp_path / "data"), "--out", str(out), "--seed", "-3"]
        code = cli.main(["train", "--config", seg_config(tmp_path), *argv])
        assert code == 2
        assert "seed must be nonnegative, got -3" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    def test_negative_gamma_is_a_data_error(self, tmp_path, capsys):
        cfg = seg_config(tmp_path, gamma=-1)
        data = synth_into(tmp_path, cfg)
        code = cli.main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lr", "weight_decay", "clip_norm", "tukey_c"])
    def test_nan_constant_is_a_data_error(self, tmp_path, capsys, key):
        data = synth_into(tmp_path, seg_config(tmp_path))
        cfg = seg_config(tmp_path, name="nan.cfg", **{key: "nan"})
        code = cli.main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_empty_value_is_a_data_error(self, tmp_path, capsys):
        data = synth_into(tmp_path, seg_config(tmp_path))
        cfg = seg_config(tmp_path, name="empty.cfg", clip_norm="")
        code = cli.main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "clip_norm" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "val"])
    def test_nonfinite_target_is_a_data_error(self, tmp_path, capsys, split):
        cfg = depth_config(tmp_path, loss="loglik")
        data = synth_into(tmp_path, cfg)
        set_example_value(os.path.join(data, f"{split}_0000.f32grids"), "targets", 0, np.nan)
        code = cli.main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "targets must be finite" in capsys.readouterr().err

    def test_reads_only_the_train_and_val_splits(self, tmp_path):
        cfg = seg_config(tmp_path)
        data = synth_into(tmp_path, cfg)
        with open(os.path.join(data, "test.manifest"), "w") as fh:
            fh.write("not a manifest\n")
        assert cli.main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "runs")]) == 0

    def test_three_file_layout_is_a_data_error(self, tmp_path, capsys):
        cfg = seg_config(tmp_path)
        data = synth_into(tmp_path, cfg)
        manifest = os.path.join(data, "train.manifest")
        with open(manifest) as fh:
            lines = fh.read().splitlines()
        lines[-1] = "train_0000_img.f32grid train_0000_seg.f32grid train_0000_tgt.f32grid"
        with open(manifest, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = cli.main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "regenerate the dataset with `ccrf synth`" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path):
        cfg = depth_config(
            tmp_path, loss="ls", lr="1e6", clip_norm="none",
            epochs=5, warmup_epochs=0,
        )
        data = synth_into(tmp_path, cfg)
        out = str(tmp_path / "runs")
        with np.errstate(all="ignore"):
            code = cli.main(["train", "--config", cfg, "--data", data, "--out", out])
        assert code == 3
        assert not os.path.exists(out)

    @pytest.mark.parametrize("make_config", [seg_config, depth_config])
    def test_parameter_overflow_is_a_divergence(self, tmp_path, capsys, make_config):
        # a finite gradient times lr = 1e308 overflows the weights to inf
        cfg = make_config(
            tmp_path, count=3, train_frac="0.34", val_frac="0.33",
            lr="1e308", momentum=0, clip_norm="none",
        )
        data = synth_into(tmp_path, cfg)
        with np.errstate(all="ignore"):
            code = cli.main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "runs")])
        assert code == 3
        assert "epoch 0, example 0" in capsys.readouterr().err

    def test_memory_error_is_a_data_error(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        cfg = seg_config(tmp_path)
        data = synth_into(tmp_path, cfg)
        monkeypatch.setattr(cli, "train", no_memory)
        code = cli.main(["train", "--config", cfg, "--data", data, "--out", str(tmp_path / "runs")])
        assert code == 2
        assert "error: Unable to allocate 7.28 TiB" in capsys.readouterr().err


class TestEval:
    def trained_run(self, tmp_path, cfg):
        data = synth_into(tmp_path, cfg)
        out = str(tmp_path / "train_runs")
        assert cli.main(["train", "--config", cfg, "--data", data, "--out", out]) == 0
        ckpt = os.path.join(only_run_dir(out, "train"), "checkpoint.ccrf")
        return data, ckpt

    def test_reports_unary_and_full_rows(self, tmp_path, capsys):
        cfg = seg_config(tmp_path)
        data, ckpt = self.trained_run(tmp_path, cfg)
        out = str(tmp_path / "eval_runs")
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data, "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "unary" in printed and "full" in printed

        run_dir = only_run_dir(out, "eval")
        table = open(os.path.join(run_dir, "metrics.csv")).read().splitlines()
        assert table[0] == "variant,pix_acc,class_acc,avg_jaccard,freq_jaccard"
        assert table[1].startswith("unary,") and table[2].startswith("full,")
        assert os.path.exists(os.path.join(run_dir, "metrics.md"))

    def test_manifest_names_checkpoint_and_data(self, tmp_path):
        data, ckpt = self.trained_run(tmp_path, seg_config(tmp_path))
        out = str(tmp_path / "eval_runs")
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data, "--out", out]) == 0
        with open(os.path.join(only_run_dir(out, "eval"), "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest["effective_config"] == {"ckpt": ckpt, "data": data}

    def test_depth_metric_columns(self, tmp_path):
        cfg = depth_config(tmp_path)
        data, ckpt = self.trained_run(tmp_path, cfg)
        out = str(tmp_path / "eval_runs")
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data, "--out", out]) == 0
        run_dir = only_run_dir(out, "eval")
        table = open(os.path.join(run_dir, "metrics.csv")).read().splitlines()
        assert table[0] == "variant,rel,log10,rms,delta1,delta2,delta3"

    def test_missing_checkpoint(self, tmp_path):
        cfg = seg_config(tmp_path)
        data = synth_into(tmp_path, cfg)
        code = cli.main(
            ["eval", "--ckpt", str(tmp_path / "nope.ccrf"), "--data", data,
             "--out", str(tmp_path)]
        )
        assert code == 2

    def test_checkpoint_shape_beyond_file_is_a_data_error(self, tmp_path, capsys):
        data = synth_into(tmp_path, seg_config(tmp_path))
        ckpt = tmp_path / "huge.ccrf"
        # two (2^32 - 1)-wide unary layers; the size check precedes any allocation
        nets = struct.pack("<4I", 3, *[2**32 - 1] * 3) + struct.pack("<3I", 2, 1, 1)
        ckpt.write_bytes(b"CCRF2" + nets + struct.pack("<d", 0.1) + b"\x00" * 64)
        code = cli.main(["eval", "--ckpt", str(ckpt), "--data", data, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "parameter bytes" in capsys.readouterr().err

    def test_older_format_checkpoint_is_a_data_error(self, tmp_path, capsys):
        data = synth_into(tmp_path, seg_config(tmp_path))
        capsys.readouterr()
        ckpt = tmp_path / "old.ccrf"
        # the CCRF1 layout: one (name, rank, shape, values) record per tensor
        model = build_model(np.random.default_rng(0), 10, 3)
        with open(ckpt, "wb") as fh:
            fh.write(b"CCRF1")
            for name, value in [*model.parameters().items(), ("pair.gamma", np.array(0.1))]:
                head = (len(name), name.encode(), value.ndim, *value.shape)
                fh.write(struct.pack(f"<I{len(name)}sI{value.ndim}I", *head))
                fh.write(value.astype("<f8").tobytes())
        code = cli.main(["eval", "--ckpt", str(ckpt), "--data", data, "--out", str(tmp_path / "out")])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and "CCRF2" in line

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["unary.w0", "pair.b0", "pair.beta_raw"])
    def test_nonfinite_checkpoint_tensor_is_a_data_error(self, tmp_path, capsys, name, value):
        data = synth_into(tmp_path, seg_config(tmp_path))
        ckpt = tmp_path / "nonfinite.ccrf"
        model = build_model(np.random.default_rng(0), 10, 3)
        model.parameters()[name].flat[0] = value
        save_checkpoint(ckpt, model)
        code = cli.main(["eval", "--ckpt", str(ckpt), "--data", data, "--out", str(tmp_path / "out")])
        assert code == 2
        assert name in capsys.readouterr().err

    def test_node_index_beyond_pixel_count_is_a_data_error(self, tmp_path, capsys):
        data, ckpt = self.trained_run(tmp_path, seg_config(tmp_path))
        set_example_value(os.path.join(data, "test_0000.f32grids"), "seg", (0, 0), 1e12)
        code = cli.main(["eval", "--ckpt", ckpt, "--data", data, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "pixels" in capsys.readouterr().err

    def test_reads_only_the_test_split(self, tmp_path):
        data, ckpt = self.trained_run(tmp_path, seg_config(tmp_path))
        for split in ("train", "val"):
            with open(os.path.join(data, f"{split}.manifest"), "w") as fh:
                fh.write("not a manifest\n")
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data, "--out", str(tmp_path / "out")]) == 0

    def test_missing_test_manifest_is_a_data_error(self, tmp_path, capsys):
        data, ckpt = self.trained_run(tmp_path, seg_config(tmp_path))
        os.remove(os.path.join(data, "test.manifest"))
        capsys.readouterr()
        code = cli.main(["eval", "--ckpt", ckpt, "--data", data, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "test manifest" in err[0]
        assert not os.path.exists(tmp_path / "out")

    def test_empty_test_split(self, tmp_path):
        no_test = seg_config(
            tmp_path, name="no_test.cfg", count=2, train_frac="1.0", val_frac="0.0"
        )
        data, ckpt = self.trained_run(tmp_path, seg_config(tmp_path))
        (tmp_path / "empty").mkdir()
        empty = synth_into(tmp_path / "empty", no_test)
        code = cli.main(
            ["eval", "--ckpt", ckpt, "--data", empty, "--out", str(tmp_path / "out")]
        )
        assert code == 2


def write_retargeted(directory, dataset, retarget):
    """Write ``dataset`` with ``retarget`` applied to every example's
    targets, past the checks a ``Dataset`` makes."""
    for split in ("train", "val", "test"):
        examples = [
            LabeledExample(ex.image, ex.seg, retarget(ex.targets)) for ex in getattr(dataset, split)
        ]
        write_manifest(directory, split, dataset.task, examples)
    return str(directory)


class TestTargetColumns:
    """train and eval both refuse targets that do not fit the task."""

    def test_two_column_depth_targets(self, tmp_path, capsys):
        ds = synth_dataset(SyntheticSceneSpec("depth", size=32, target_nodes=12), 4)
        data = write_retargeted(tmp_path / "data", ds, lambda t: np.hstack([t, t]))
        ckpt = str(tmp_path / "checkpoint.ccrf")
        save_checkpoint(ckpt, build_model(np.random.default_rng(0), 4, 2, (3,), (3,), 2))
        out = tmp_path / "runs"
        cfg = depth_config(tmp_path, loss="loglik")
        assert cli.main(["train", "--config", cfg, "--data", data, "--out", str(out)]) == 2
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data, "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("depth targets need one column, got [2]") == 2
        assert not out.exists()

    def test_one_column_segmentation_targets(self, tmp_path, capsys):
        ds = synth_dataset(SyntheticSceneSpec(size=32, classes=3, target_nodes=12), 4)
        data = write_retargeted(tmp_path / "data", ds, lambda t: t[:, :1])
        out = tmp_path / "runs"
        cfg = seg_config(tmp_path, loss="loglik")
        assert cli.main(["train", "--config", cfg, "--data", data, "--out", str(out)]) == 2
        assert "one class count of at least two, got [1]" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_class_counts(self, tmp_path, capsys):
        def seg(classes):
            return synth_dataset(SyntheticSceneSpec(size=32, classes=classes, target_nodes=12), 4)

        data = tmp_path / "data"
        write_manifest(data, "train", "segmentation", seg(3).train)
        write_manifest(data, "val", "segmentation", seg(2).val)
        out = tmp_path / "runs"
        cfg = seg_config(tmp_path)
        assert cli.main(["train", "--config", cfg, "--data", str(data), "--out", str(out)]) == 2
        assert "one class count of at least two, got [2, 3]" in capsys.readouterr().err
        assert not out.exists()


class TestIrregularNodes:
    """A dataset directory may carry any segmentation, not only grid tiles."""

    @staticmethod
    def voronoi_depth_examples(counts, seed):
        rng = np.random.default_rng(seed)
        examples = []
        for i, count in enumerate(counts):
            image = ImageGrid(rng.uniform(0.0, 1.0, (24, 24)))
            seg = voronoi_segment(image, count, seed=seed + i)
            depth = 1.0 + 4.0 * pool_features(image.values, seg)
            examples.append(LabeledExample(image, seg, depth))
        return examples

    def test_variable_node_counts_train_and_eval(self, tmp_path):
        train = self.voronoi_depth_examples((8, 11, 9, 13), seed=10)
        val = self.voronoi_depth_examples((10, 12), seed=20)
        test = self.voronoi_depth_examples((15, 7), seed=30)
        assert len({ex.seg.n for ex in train + val + test}) > 1
        data = str(tmp_path / "data")
        save_dataset(Dataset("depth", train, val, test), data)

        cfg = depth_config(tmp_path)  # tukey loss, 2 epochs
        out = str(tmp_path / "runs")
        assert cli.main(["train", "--config", cfg, "--data", data, "--out", out]) == 0
        ckpt = os.path.join(only_run_dir(out, "train"), "checkpoint.ccrf")
        assert cli.main(["eval", "--ckpt", ckpt, "--data", data, "--out", out]) == 0
        table = open(os.path.join(only_run_dir(out, "eval"), "metrics.csv")).read().splitlines()
        assert [row.split(",")[0] for row in table[1:]] == ["unary", "full"]
        values = [float(v) for row in table[1:] for v in row.split(",")[1:]]
        assert np.isfinite(values).all()


class TestAblate:
    def test_segmentation_sweep(self, tmp_path, capsys):
        cfg = seg_config(tmp_path, ablate_classes="2,3", epochs=1, warmup_epochs=0)
        out = str(tmp_path / "runs")
        assert cli.main(["ablate", "--config", cfg, "--out", out]) == 0
        run_dir = only_run_dir(out, "ablate")

        table = open(os.path.join(run_dir, "ablate.csv")).read().splitlines()
        assert table[0] == "classes,loss,pix_acc,class_acc,status"
        # 2 class counts x 2 losses
        assert len(table) == 5
        assert all(line.endswith(",ok") for line in table[1:])
        assert os.path.exists(os.path.join(run_dir, "pixel_acc_vs_classes.svg"))
        svg = open(os.path.join(run_dir, "pixel_acc_vs_classes.svg")).read()
        assert svg.startswith("<svg") and "softmax" in svg and "loglik" in svg

    def test_builds_each_cells_test_graphs_once(self, tmp_path, monkeypatch):
        calls = []
        real_prepare = cli.prepare_examples

        def counting_prepare(examples):
            calls.append(len(examples))
            return real_prepare(examples)

        monkeypatch.setattr(cli, "prepare_examples", counting_prepare)
        cfg = seg_config(tmp_path, ablate_classes="2,3", epochs=0)
        assert cli.main(["ablate", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        assert calls == [1, 1]  # one test split per class count, shared by both losses

    def test_depth_corruption_sweep(self, tmp_path):
        cfg = depth_config(tmp_path, epochs=1, warmup_epochs=0)
        out = str(tmp_path / "runs")
        assert cli.main(["ablate", "--config", cfg, "--out", out]) == 0
        run_dir = only_run_dir(out, "ablate")

        table = open(os.path.join(run_dir, "ablate.csv")).read().splitlines()
        assert table[0] == "corruption,loss,rel,log10,rms,delta1,delta2,delta3,status"
        # 5 corruption cells x 2 losses
        assert len(table) == 11
        for stem in ("delta_vs_noise", "delta_vs_outliers"):
            svg = open(os.path.join(run_dir, f"{stem}.svg")).read()
            assert svg.startswith("<svg") and "loglik" in svg and "tukey" in svg

    def test_bad_class_count_fails_before_any_training(self, tmp_path, capsys, monkeypatch):
        calls = []
        real_train = cli.train

        def counting_train(*args):
            calls.append(args)
            return real_train(*args)

        monkeypatch.setattr(cli, "train", counting_train)
        cfg = seg_config(tmp_path, ablate_classes="3,1", epochs=1, warmup_epochs=0)
        assert cli.main(["ablate", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert calls == []
        assert not (tmp_path / "runs").exists()
        assert "need at least two classes, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad", [{"noise_sigma": "-1"}, {"noise_sigma": "nan"}, {"outlier_magnitude": "nan"}]
    )
    def test_bad_corruption_fails_before_any_training(self, tmp_path, capsys, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(cli, "train", lambda *args: calls.append(args))
        cfg = depth_config(tmp_path, epochs=1, warmup_epochs=0, **bad)
        assert cli.main(["ablate", "--config", cfg, "--out", str(tmp_path / "runs")]) == 2
        assert calls == []
        assert not (tmp_path / "runs").exists()
        err = capsys.readouterr().err
        assert "sigma" in err or "magnitude" in err
