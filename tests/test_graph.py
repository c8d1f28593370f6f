import numpy as np
import pytest

from ccrf import (
    ImageGrid,
    SuperpixelSegmentation,
    build_graph,
    grid_segment,
    pool_features,
)

from helpers import (
    connectivity_violations,
    graph_centroids,
    pixel_features,
    reference_centroids,
    reference_pixel_features,
    reference_pool_features,
    voronoi_segment,
)


def constant_image(height=16, width=16, value=0.5, channels=1):
    return ImageGrid(np.full((height, width, channels), value))


class TestImageGrid:
    def test_adds_channel_axis(self):
        img = ImageGrid(np.zeros((8, 8)))
        assert img.values.shape == (8, 8, 1)

    def test_rejects_small_images(self):
        with pytest.raises(ValueError):
            ImageGrid(np.zeros((7, 8)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ImageGrid(np.full((8, 8), 1.5))
        with pytest.raises(ValueError):
            ImageGrid(np.full((8, 8), -0.1))

    def test_rejects_too_many_channels(self):
        with pytest.raises(ValueError):
            ImageGrid(np.zeros((8, 8, 4)))


class TestSegmentationType:
    def test_rejects_missing_index(self):
        label_map = np.zeros((8, 8), dtype=int)
        with pytest.raises(ValueError):
            SuperpixelSegmentation(label_map, 2)  # index 1 never occurs

    def test_rejects_out_of_range_index(self):
        label_map = np.full((8, 8), 3)
        with pytest.raises(ValueError):
            SuperpixelSegmentation(label_map, 3)


class TestGridSegment:
    def test_exact_square_tiling(self):
        # 100x100 at target 100: 10x10 blocks of 10x10 pixels
        seg = grid_segment(constant_image(100, 100), 100)
        assert seg.n == 100
        rows, cols = np.meshgrid(np.arange(100), np.arange(100), indexing="ij")
        assert np.array_equal(seg.label_map, (rows // 10) * 10 + cols // 10)

    def test_single_node(self):
        seg = grid_segment(constant_image(8, 8), 1)
        assert seg.n == 1
        assert np.all(seg.label_map == 0)

    def test_target_ninety(self):
        seg = grid_segment(constant_image(100, 100), 90)
        assert 72 <= seg.n <= 108
        assert seg.n == 90  # a 9x10 or 10x9 tiling fits exactly

    def test_count_stays_near_target(self):
        img = constant_image(48, 64)
        for target in (1, 2, 3, 5, 17, 50, 100, 333):
            seg = grid_segment(img, target)
            assert 0.8 * target <= seg.n <= 1.2 * target

    def test_every_pixel_assigned_once(self):
        seg = grid_segment(constant_image(33, 47), 12)
        assert seg.counts.sum() == 33 * 47

    def test_blocks_are_connected(self):
        seg = grid_segment(constant_image(30, 40), 11)
        assert connectivity_violations(seg) == []

    def test_rejects_bad_target(self):
        img = constant_image(8, 8)
        with pytest.raises(ValueError):
            grid_segment(img, 0)
        with pytest.raises(ValueError):
            grid_segment(img, 65)


class TestPixelFeatures:
    def test_feature_count(self):
        assert pixel_features(constant_image(channels=1)).shape[2] == 6
        img3 = ImageGrid(np.zeros((8, 8, 3)))
        assert pixel_features(img3).shape[2] == 10

    def test_constant_image(self):
        feats = pixel_features(constant_image(value=0.3))
        assert np.allclose(feats[:, :, 0], 0.3)  # raw intensity
        assert np.allclose(feats[:, :, 1], 0.3)  # smoothing preserves constants
        assert np.allclose(feats[:, :, 2], 0.0)  # zero gradients
        assert np.allclose(feats[:, :, 3], 0.0)

    def test_vertical_edge_peaks_horizontal_gradient(self):
        values = np.zeros((10, 10))
        values[:, 5:] = 1.0
        feats = pixel_features(ImageGrid(values))
        horizontal = feats[:, :, 2]
        vertical = feats[:, :, 3]
        for row in range(10):
            assert int(np.argmax(horizontal[row])) in (4, 5)
        assert np.allclose(vertical, 0.0)

    def test_coordinates_normalized(self):
        feats = pixel_features(constant_image(9, 17))
        assert feats[0, 0, 4] == 0.0 and feats[8, 0, 4] == 1.0
        assert feats[0, 0, 5] == 0.0 and feats[0, 16, 5] == 1.0
        assert np.isfinite(feats).all()


class TestPooling:
    def test_constant_features_pool_to_constant(self):
        img = constant_image(16, 16, 0.25)
        seg = grid_segment(img, 4)
        pooled = pool_features(pixel_features(img), seg)
        # intensity-derived channels agree everywhere; coordinates differ per node
        assert np.allclose(pooled[:, :4], pooled[0, :4])

    def test_half_and_half_mean(self):
        feats = np.zeros((8, 8, 1))
        feats[:, 4:] = 1.0
        seg = SuperpixelSegmentation(np.zeros((8, 8), dtype=int), 1)
        assert pool_features(feats, seg)[0, 0] == 0.5

    def test_mean_is_pixel_order_free(self):
        # dyadic values make the means exact, so reordering changes nothing
        rng = np.random.default_rng(3)
        feats = rng.integers(0, 64, size=(8, 8, 2)).astype(np.float64) / 64.0
        label_map = rng.integers(0, 4, size=(8, 8))
        label_map.flat[:4] = np.arange(4)  # every node occurs
        seg = SuperpixelSegmentation(label_map, 4)

        perm = rng.permutation(64)
        flat_feats = feats.reshape(64, 2)[perm].reshape(8, 8, 2)
        flat_labels = label_map.reshape(64)[perm].reshape(8, 8)
        seg_perm = SuperpixelSegmentation(flat_labels, 4)
        assert np.array_equal(
            pool_features(feats, seg), pool_features(flat_feats, seg_perm)
        )

    def test_pooled_values_within_pixel_range(self):
        rng = np.random.default_rng(5)
        img = ImageGrid(rng.uniform(0, 1, (24, 24, 3)))
        seg = grid_segment(img, 9)
        feats = pixel_features(img)
        pooled = pool_features(feats, seg)
        assert (pooled >= feats.reshape(-1, feats.shape[2]).min(axis=0) - 1e-12).all()
        assert (pooled <= feats.reshape(-1, feats.shape[2]).max(axis=0) + 1e-12).all()

    def test_rejects_shape_mismatch(self):
        seg = grid_segment(constant_image(16, 16), 4)
        with pytest.raises(ValueError):
            pool_features(np.zeros((8, 8, 3)), seg)

    def test_build_graph_rejects_mismatched_segmentation(self):
        # same pixel count, transposed shape: pooling alone would not notice
        seg = grid_segment(constant_image(20, 16), 4)
        with pytest.raises(ValueError, match="segmentation does not match image size"):
            build_graph(constant_image(16, 20), seg)


class TestCentroids:
    def test_whole_image_node(self):
        seg = SuperpixelSegmentation(np.zeros((9, 9), dtype=int), 1)
        assert np.allclose(graph_centroids(seg), [[0.5, 0.5]])

    def test_grid_block_centroid(self):
        # 10x10 blocks on 100x100: first block center at (4.5/99, 4.5/99)
        seg = grid_segment(constant_image(100, 100), 100)
        centroids = graph_centroids(seg)
        assert np.allclose(centroids[0], [4.5 / 99, 4.5 / 99])
        assert centroids.min() >= 0.0 and centroids.max() <= 1.0

    def test_build_graph_shapes(self):
        img = constant_image(16, 16, 0.5, channels=3)
        graph = build_graph(img, grid_segment(img, 9))
        assert graph.n == 9
        assert graph.features.shape == (9, 10)
        assert graph.centroids.shape == (9, 2)


class TestReductionOracles:
    """Pixel features, pooling and centroids equal the oracles bit for bit."""

    # the benchmark workloads' image sizes and node counts; 20 nodes elsewhere
    BENCHMARK_NODES = {64: 100, 96: 700}

    @pytest.mark.parametrize("segment", [grid_segment, voronoi_segment])
    @pytest.mark.parametrize(
        "shape",
        [
            (33, 47, 1),
            (33, 47, 3),
            (40, 40, 3),
            (33, 47, 2),
            (8, 8, 1),
            (8, 8, 3),
            (64, 64, 3),
            (96, 96, 3),
            (96, 96, 1),
        ],
    )
    def test_pooling_and_centroids_match_oracles(self, segment, shape):
        rng = np.random.default_rng(shape[1] + shape[2])
        img = ImageGrid(rng.uniform(0, 1, shape))
        seg = segment(img, self.BENCHMARK_NODES.get(shape[0], 20))
        feats = pixel_features(img)
        reference = reference_pixel_features(img)
        assert np.array_equal(feats, reference)
        assert np.array_equal(pool_features(feats, seg), reference_pool_features(feats, seg))
        # an F-ordered copy pools to the same bits as a C-ordered one
        assert np.array_equal(
            pool_features(feats, seg), pool_features(np.asfortranarray(feats), seg)
        )
        assert np.array_equal(graph_centroids(seg), reference_centroids(seg))
        graph = build_graph(img, seg)
        assert np.array_equal(graph.features, reference_pool_features(reference, seg))
        assert np.array_equal(graph.centroids, reference_centroids(seg))
        # the unary MLP's matmul sees the layout it always saw
        for array in (graph.features, graph.centroids):
            assert array.dtype == np.float64 and array.flags.c_contiguous

    def test_counts_match_a_recount(self):
        seg = voronoi_segment(ImageGrid(np.random.default_rng(1).uniform(0, 1, (33, 47))), 15)
        assert np.array_equal(seg.counts, np.bincount(seg.label_map.ravel()))
