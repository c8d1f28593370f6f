import numpy as np
import pytest

from ccrf import (
    CorruptionSpec,
    SyntheticSceneSpec,
    corrupt_dataset,
    gen_depth_scene,
    gen_segmentation_scene,
    synth_dataset,
)
from ccrf import scenes
from ccrf.scenes import (
    apply_corruption,
    class_palette,
    corrupted_node_count,
    gen_scene,
    normalize_depth_map,
)

from helpers import reference_class_votes, reference_pool_features, reference_shape_mask


def seg_spec(**kw):
    base = dict(task="segmentation", size=48, classes=4, shape_count=5,
                noise_level=0.1, target_nodes=40, seed=0)
    base.update(kw)
    return SyntheticSceneSpec(**base)


def depth_spec(**kw):
    base = dict(task="depth", size=48, shape_count=4, noise_level=0.1,
                target_nodes=40, seed=0)
    base.update(kw)
    return SyntheticSceneSpec(**base)


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SyntheticSceneSpec(task="pose")
        with pytest.raises(ValueError):
            seg_spec(size=16)
        with pytest.raises(ValueError):
            seg_spec(classes=1)
        with pytest.raises(ValueError):
            seg_spec(noise_level=-0.1)
        with pytest.raises(ValueError):
            seg_spec(target_nodes=0)

    def test_corruption_spec_validation(self):
        with pytest.raises(ValueError):
            CorruptionSpec("salt", 0.1)
        with pytest.raises(ValueError):
            CorruptionSpec("gaussian_noise", 1.5)
        with pytest.raises(ValueError):
            CorruptionSpec("gaussian_noise", 0.1, sigma=0.0)
        with pytest.raises(ValueError):
            CorruptionSpec("outlier", 0.1, magnitude=0.0)

    @pytest.mark.parametrize("bad", [{"sigma": np.nan}, {"magnitude": np.nan}, {"sigma": np.inf}])
    @pytest.mark.parametrize("kind", ["gaussian_noise", "outlier"])
    def test_corruption_constants_must_be_finite(self, kind, bad):
        with pytest.raises(ValueError, match="finite"):
            CorruptionSpec(kind, 0.1, **bad)


class TestPalette:
    def test_shape_and_range(self):
        pal = class_palette(5)
        assert pal.shape == (5, 3)
        assert pal.min() >= 0.0 and pal.max() <= 1.0

    def test_colors_are_distinct(self):
        pal = class_palette(8)
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.abs(pal[i] - pal[j]).max() > 0.05


class TestSegmentationScene:
    def test_basic_shape_contract(self):
        ex = gen_segmentation_scene(seg_spec())
        assert ex.image.values.shape == (48, 48, 3)
        assert ex.targets.shape == (ex.seg.n, 4)
        # one-hot rows
        assert (((ex.targets == 0) | (ex.targets == 1)).all()
                and (ex.targets.sum(axis=1) == 1.0).all())

    def test_deterministic_in_seed(self):
        a = gen_segmentation_scene(seg_spec(seed=5))
        b = gen_segmentation_scene(seg_spec(seed=5))
        assert np.array_equal(a.image.values, b.image.values)
        assert np.array_equal(a.targets, b.targets)

    def test_different_seeds_differ(self):
        a = gen_segmentation_scene(seg_spec(seed=1))
        b = gen_segmentation_scene(seg_spec(seed=2))
        assert not np.array_equal(a.image.values, b.image.values)

    def test_at_least_two_classes_present(self):
        for seed in range(12):
            ex = gen_segmentation_scene(seg_spec(seed=seed, shape_count=2))
            labels = ex.targets.argmax(axis=1)
            assert len(np.unique(labels)) >= 2

    def test_shapeless_scene_is_all_background(self):
        ex = gen_segmentation_scene(seg_spec(shape_count=0))
        assert (ex.targets.argmax(axis=1) == 0).all()

    def test_node_count_near_target(self):
        ex = gen_segmentation_scene(seg_spec(target_nodes=60))
        assert 0.5 * 60 <= ex.seg.n <= 1.5 * 60


class TestDepthScene:
    def test_basic_shape_contract(self):
        ex = gen_depth_scene(depth_spec())
        assert ex.targets.shape == (ex.seg.n, 1)
        assert ex.targets.min() >= 0.0 and ex.targets.max() <= 1.0

    def test_deterministic_in_seed(self):
        a = gen_depth_scene(depth_spec(seed=9))
        b = gen_depth_scene(depth_spec(seed=9))
        assert np.array_equal(a.image.values, b.image.values)
        assert np.array_equal(a.targets, b.targets)

    def test_depth_varies_across_nodes(self):
        ex = gen_depth_scene(depth_spec())
        assert ex.targets.std() > 1e-3

    def test_gen_scene_dispatch(self):
        seg, depth = gen_scene(seg_spec()), gen_scene(depth_spec())
        assert np.array_equal(seg.targets, gen_segmentation_scene(seg_spec()).targets)
        assert np.array_equal(depth.targets, gen_depth_scene(depth_spec()).targets)


class TestNormalizeDepthMap:
    def test_min_max_scaling(self):
        depth = np.array([[1.0, 3.0], [2.0, 5.0]])
        out = normalize_depth_map(depth)
        assert out.min() == 0.0 and out.max() == 1.0
        assert out[0, 1] == pytest.approx(0.5)

    def test_flat_map_becomes_half(self):
        out = normalize_depth_map(np.full((4, 4), 7.0))
        assert np.all(out == 0.5)


class TestSynthDataset:
    def test_split_sizes(self):
        ds = synth_dataset(seg_spec(), count=10, train_frac=0.6, val_frac=0.2)
        assert len(ds.train) == 6
        assert len(ds.val) == 2
        assert len(ds.test) == 2
        assert ds.task == "segmentation"

    def test_examples_differ_across_indices(self):
        ds = synth_dataset(seg_spec(), count=4, train_frac=1.0, val_frac=0.0)
        assert not np.array_equal(ds.train[0].image.values, ds.train[1].image.values)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            synth_dataset(seg_spec(), count=4, train_frac=0.8, val_frac=0.4)
        with pytest.raises(ValueError):
            synth_dataset(seg_spec(), count=0)


class TestCorruptedNodeCount:
    def test_round_half_up(self):
        assert corrupted_node_count(400, 0.25) == 100
        assert corrupted_node_count(200, 0.10) == 20
        assert corrupted_node_count(10, 0.25) == 3  # 2.5 rounds up
        assert corrupted_node_count(10, 0.0) == 0
        assert corrupted_node_count(10, 1.0) == 10


class TestInjection:
    def test_noise_touches_expected_count(self):
        rng = np.random.default_rng(0)
        targets = np.zeros((100, 1))
        out = apply_corruption(targets, CorruptionSpec("gaussian_noise", 0.25, sigma=0.1), rng)
        assert (out != 0).sum() == 25
        assert np.abs(out).max() < 1.0  # sigma 0.1 draws stay small

    def test_outliers_add_magnitude(self):
        rng = np.random.default_rng(1)
        targets = np.zeros((50, 1))
        out = apply_corruption(targets, CorruptionSpec("outlier", 0.1, magnitude=5.0), rng)
        moved = out[out != 0]
        assert moved.size == 5
        assert np.allclose(moved, 5.0)

    def test_no_replacement(self):
        # corrupting everything shifts every node exactly once
        rng = np.random.default_rng(2)
        targets = np.zeros((30, 1))
        out = apply_corruption(targets, CorruptionSpec("outlier", 1.0, magnitude=5.0), rng)
        assert np.allclose(out, 5.0)

    def test_zero_fraction_is_identity(self):
        rng = np.random.default_rng(3)
        targets = np.arange(12, dtype=np.float64).reshape(-1, 1)
        out = apply_corruption(targets, CorruptionSpec("gaussian_noise", 0.0, sigma=0.1), rng)
        assert np.array_equal(out, targets)

    def test_original_not_mutated(self):
        rng = np.random.default_rng(4)
        targets = np.zeros((20, 1))
        apply_corruption(targets, CorruptionSpec("outlier", 0.5, magnitude=5.0), rng)
        assert np.all(targets == 0)

    def test_apply_corruption_dispatch(self):
        rng = np.random.default_rng(5)
        targets = np.zeros((20, 1))
        out = apply_corruption(targets, CorruptionSpec("outlier", 0.5), rng)
        assert (out == 5.0).sum() == 10


class TestCorruptDataset:
    def test_test_split_stays_clean(self):
        ds = synth_dataset(depth_spec(), count=6, train_frac=0.5, val_frac=0.25)
        spec = CorruptionSpec("outlier", 0.5, magnitude=5.0)
        corrupted = corrupt_dataset(ds, spec, seed=0)
        for before, after in zip(ds.test, corrupted.test):
            assert np.array_equal(before.targets, after.targets)
        changed = any(
            not np.array_equal(b.targets, a.targets)
            for b, a in zip(ds.train, corrupted.train)
        )
        assert changed

    def test_deterministic_in_seed(self):
        ds = synth_dataset(depth_spec(), count=4, train_frac=1.0, val_frac=0.0)
        spec = CorruptionSpec("gaussian_noise", 0.25, sigma=0.2)
        a = corrupt_dataset(ds, spec, seed=7)
        b = corrupt_dataset(ds, spec, seed=7)
        for x, y in zip(a.train, b.train):
            assert np.array_equal(x.targets, y.targets)

    def test_different_kinds_draw_differently(self):
        ds = synth_dataset(depth_spec(), count=2, train_frac=1.0, val_frac=0.0)
        noise = corrupt_dataset(ds, CorruptionSpec("gaussian_noise", 0.5, sigma=0.2), 0)
        outlier = corrupt_dataset(ds, CorruptionSpec("outlier", 0.5), 0)
        assert not np.array_equal(noise.train[0].targets, outlier.train[0].targets)


def spy(monkeypatch, name):
    """Record every value ``scenes.<name>`` returns; behavior is unchanged."""
    seen = []
    real = getattr(scenes, name)

    def wrapper(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(scenes, name, wrapper)
    return seen


class TestNodeTargetOracles:
    """Node targets equal the scatter oracles over the dense ground truth."""

    @pytest.mark.parametrize("size", [33, 48])
    def test_class_votes_match_oracle(self, monkeypatch, size):
        drawn = spy(monkeypatch, "_draw_shapes")
        for seed in range(4):
            ex = gen_segmentation_scene(seg_spec(size=size, seed=seed, target_nodes=30))
            votes = reference_class_votes(ex.seg, drawn[-1], 4)
            assert np.array_equal(ex.targets, np.eye(4)[np.argmax(votes, axis=1)])

    @pytest.mark.parametrize("size", [33, 48])
    def test_depth_targets_match_oracle(self, monkeypatch, size):
        dense = spy(monkeypatch, "normalize_depth_map")
        for seed in range(4):
            ex = gen_depth_scene(depth_spec(size=size, seed=seed, target_nodes=30))
            expected = reference_pool_features(dense[-1][:, :, None], ex.seg)
            assert np.array_equal(ex.targets, expected)


def record_shapes(monkeypatch):
    """Record the arguments of every ``scenes._shape_mask`` call."""
    shapes = []
    real = scenes._shape_mask

    def wrapper(size, *shape):
        shapes.append((size, *shape))
        return real(size, *shape)

    monkeypatch.setattr(scenes, "_shape_mask", wrapper)
    return shapes


def assert_shapes_cover_edge_cases(shapes):
    """Both kinds occur, and some shape crosses each of the four borders."""
    assert {int(kind) for _, kind, *_ in shapes} == {0, 1}
    crossed = set()
    for size, _, cy, cx, ry, rx in shapes:
        sides = {"top": cy - ry < 0, "bottom": cy + ry > size - 1, "left": cx - rx < 0, "right": cx + rx > size - 1}
        crossed |= {side for side, hit in sides.items() if hit}
    assert crossed == {"top", "bottom", "left", "right"}


# (size, shape_count) per seed, cycled: a 33 px case with 40 shapes and the
# benchmark's 64 px segmentation and 96 px depth sizes
BOX_CASES = [(33, 40), (64, 6), (96, 24)]
BOX_SEEDS = range(201)


class TestBoxMasks:
    """Shapes drawn through their bounding box equal the draws from the full-grid formula."""

    def test_segmentation_draws_match_full_grid_oracle(self, monkeypatch):
        def draws():
            return [
                scenes._draw_shapes(np.random.default_rng(seed), *BOX_CASES[seed % 3], 5)
                for seed in BOX_SEEDS
            ]

        with monkeypatch.context() as patch:
            shapes = record_shapes(patch)
            boxed = draws()
        assert len(shapes) == sum(BOX_CASES[seed % 3][1] for seed in BOX_SEEDS)
        assert_shapes_cover_edge_cases(shapes)
        monkeypatch.setattr(scenes, "_shape_mask", reference_shape_mask)
        for got, expected in zip(boxed, draws(), strict=True):
            assert got.dtype == expected.dtype and np.array_equal(got, expected)

    def test_depth_scenes_match_full_grid_oracle(self, monkeypatch):
        dense = spy(monkeypatch, "normalize_depth_map")
        specs = [
            depth_spec(size=size, shape_count=count, seed=seed, target_nodes=30)
            for seed in BOX_SEEDS
            for size, count in [BOX_CASES[seed % 3]]
        ]

        def draws():
            return [(gen_depth_scene(spec), dense[-1]) for spec in specs]

        with monkeypatch.context() as patch:
            shapes = record_shapes(patch)
            boxed = draws()
        assert_shapes_cover_edge_cases(shapes)
        monkeypatch.setattr(scenes, "_shape_mask", reference_shape_mask)
        for (got, got_depth), (expected, expected_depth) in zip(boxed, draws(), strict=True):
            assert got_depth.tobytes() == expected_depth.tobytes()
            assert got.image.values.tobytes() == expected.image.values.tobytes()
            assert got.targets.tobytes() == expected.targets.tobytes()
