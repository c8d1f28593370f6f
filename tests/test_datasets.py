import warnings

import numpy as np
import pytest

from ccrf import (
    Dataset,
    LabeledExample,
    SyntheticSceneSpec,
    load_dataset,
    save_dataset,
    synth_dataset,
)
from ccrf.datasets import read_manifest, write_manifest
from ccrf.gridio import read_f32grids, write_f32grids

from helpers import set_example_value


def small_dataset(task="segmentation", count=5):
    spec = SyntheticSceneSpec(
        task=task, size=32, classes=3, shape_count=3,
        noise_level=0.05, target_nodes=16, seed=0,
    )
    return synth_dataset(spec, count=count, train_frac=0.6, val_frac=0.2)


class TestLabeledExample:
    def test_rejects_target_node_mismatch(self):
        ds = small_dataset(count=1)
        ex = (ds.train + ds.val + ds.test)[0]
        with pytest.raises(ValueError):
            LabeledExample(ex.image, ex.seg, ex.targets[:-1])

    def test_rejects_unknown_task(self):
        # an example carries no task; its dataset does, and checks it
        with pytest.raises(ValueError, match="unknown task 'pose'"):
            Dataset("pose")


class TestDatasetSplit:
    def test_split_lookup(self):
        ds = small_dataset()
        assert ds.split("train") is ds.train
        assert ds.split("val") is ds.val
        assert ds.split("test") is ds.test
        with pytest.raises(ValueError):
            ds.split("holdout")


class TestRoundtrip:
    def test_segmentation_roundtrip(self, tmp_path):
        ds = small_dataset("segmentation")
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.task == "segmentation"
        for split in ("train", "val", "test"):
            orig, loaded = ds.split(split), back.split(split)
            assert len(orig) == len(loaded)
            for a, b in zip(orig, loaded):
                assert np.allclose(a.image.values, b.image.values, atol=1e-6)
                assert np.array_equal(a.seg.label_map, b.seg.label_map)
                assert np.array_equal(a.targets, b.targets)  # one-hot survives f32

    def test_depth_roundtrip(self, tmp_path):
        ds = small_dataset("depth")
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.task == "depth"
        ex0, back0 = ds.train[0], back.train[0]
        assert back0.targets.shape == ex0.targets.shape
        assert np.allclose(ex0.targets, back0.targets, atol=1e-6)

    def test_manifest_names_and_layout(self, tmp_path):
        ds = small_dataset()
        save_dataset(ds, tmp_path)
        for name in ("train.manifest", "val.manifest", "test.manifest"):
            assert (tmp_path / name).exists()
        lines = (tmp_path / "train.manifest").read_text().splitlines()
        content = [ln for ln in lines if ln and not ln.startswith("#")]
        assert content[0] == "task=segmentation"
        for line, example in zip(content[1:], ds.train, strict=True):
            paths = line.split()
            assert len(paths) == 1
            for rel in paths:
                assert (tmp_path / rel).exists()
            image, seg, targets = read_f32grids(tmp_path / paths[0], 3)
            assert image.shape == example.image.values.shape
            assert np.array_equal(seg, example.seg.label_map)
            assert np.array_equal(targets, example.targets)

    def test_empty_split_loads_empty(self, tmp_path):
        ds = small_dataset(count=2)  # 0.6*2 -> 1 train, 0.2*2 -> 0 val
        ds = Dataset(ds.task, ds.train, [], ds.test)
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.val == []

    def test_missing_manifest_means_empty_split(self, tmp_path):
        ds = small_dataset(count=3)
        save_dataset(ds, tmp_path)
        (tmp_path / "val.manifest").unlink()
        back = load_dataset(tmp_path)
        assert back.val == []
        assert len(back.train) == len(ds.train)

    def test_load_reads_only_the_named_splits(self, tmp_path):
        ds = small_dataset()
        save_dataset(ds, tmp_path)
        (tmp_path / "test.manifest").write_text("not a manifest\n")
        back = load_dataset(tmp_path, ("train", "val"))
        assert (len(back.train), len(back.val), back.test) == (len(ds.train), len(ds.val), [])
        back = load_dataset(tmp_path, ("train",))
        back.val.append(None)
        assert back.test == []  # each empty split is its own list

    def test_all_manifests_missing_is_an_error(self, tmp_path):
        with pytest.raises((ValueError, OSError)):
            load_dataset(tmp_path)


class TestManifestFormat:
    def test_read_rejects_missing_task_line(self, tmp_path):
        path = tmp_path / "train.manifest"
        path.write_text("a.f32grid b.f32grid c.f32grid\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    def test_read_rejects_malformed_triplet(self, tmp_path):
        path = tmp_path / "train.manifest"
        path.write_text("task=depth\nonly_two.f32grid entries.f32grid\n")
        with pytest.raises(ValueError):
            read_manifest(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e30, 0.4, -0.4])
    def test_read_rejects_a_seg_value_that_is_no_node_index(self, tmp_path, value):
        ds = small_dataset(count=2)
        write_manifest(tmp_path, "train", ds.task, ds.train)
        set_example_value(tmp_path / "train_0000.f32grids", "seg", (0, 0), value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="whole numbers"):
                read_manifest(tmp_path / "train.manifest")

    def test_read_rejects_the_three_file_layout(self, tmp_path):
        ds = small_dataset(count=2)
        write_manifest(tmp_path, "train", ds.task, ds.train)
        example = ds.train[0]
        names = ("img.f32grid", "seg.f32grid", "tgt.f32grid")
        records = (example.image.values, example.seg.label_map.astype(float), example.targets)
        for name, values in zip(names, records):
            write_f32grids(tmp_path / name, [values])
        (tmp_path / "train.manifest").write_text(f"task={ds.task}\n{' '.join(names)}\n")
        with pytest.raises(ValueError, match="regenerate the dataset with `ccrf synth`"):
            read_manifest(tmp_path / "train.manifest")

    @pytest.mark.parametrize("records", [2, 4])
    def test_read_rejects_an_example_file_with_the_wrong_record_count(self, tmp_path, records):
        ds = small_dataset(count=2)
        write_manifest(tmp_path, "train", ds.task, ds.train)
        path = tmp_path / "train_0000.f32grids"
        arrays = read_f32grids(path, 3)
        write_f32grids(path, (arrays * 2)[:records])
        with pytest.raises(ValueError, match="grid records"):
            read_manifest(tmp_path / "train.manifest")

    def test_read_rejects_trailing_bytes_in_an_example_file(self, tmp_path):
        ds = small_dataset(count=2)
        write_manifest(tmp_path, "train", ds.task, ds.train)
        path = tmp_path / "train_0000.f32grids"
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="1 bytes after 3 grid records"):
            read_manifest(tmp_path / "train.manifest")

    def test_write_then_read_relative_paths(self, tmp_path):
        ds = small_dataset(count=2)
        write_manifest(tmp_path, "train", ds.task, ds.train)
        task, triplets = read_manifest(tmp_path / "train.manifest")
        assert task == "segmentation"
        assert len(triplets) == len(ds.train)
