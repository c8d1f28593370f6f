import struct

import numpy as np
import pytest

from ccrf import (
    Mlp,
    Model,
    PairwiseNet,
    assemble,
    build_model,
    load_checkpoint,
    map_backward,
    map_infer,
    mlp_backward,
    mlp_forward,
    pairwise_backward,
    pairwise_forward,
    save_checkpoint,
    softplus,
    softplus_inverse,
    unary_backward,
    unary_forward,
)
from ccrf.crf import Workspace
from ccrf.graph import NodeGraph
from ccrf.networks import (
    _EXP_FLOOR,
    _flush_exp,
    _negated_squared_distances,
    _write_tensor,
    sigmoid,
)

from helpers import (
    central_diff,
    grad_rel_err,
    reference_map_backward,
    reference_pairwise_backward,
)


def graph_of(features, centroids=None):
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if centroids is None:
        centroids = np.full((n, 2), 0.5)
    return NodeGraph(n, features, centroids)


class TestScalarHelpers:
    def test_softplus_values(self):
        assert softplus(0.0) == pytest.approx(np.log(2.0), rel=1e-15)
        # large inputs pass through without overflow
        assert softplus(800.0) == pytest.approx(800.0)
        assert softplus(-800.0) >= 0.0

    def test_softplus_inverse_roundtrip(self):
        for y in (1e-6, 0.1, 1.0, 5.0, 40.0):
            assert softplus(softplus_inverse(y)) == pytest.approx(y, rel=1e-9)

    def test_softplus_inverse_of_one(self):
        assert softplus_inverse(1.0) == pytest.approx(np.log(np.e - 1))

    def test_softplus_inverse_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            softplus_inverse(0.0)

    def test_sigmoid_matches_definition(self):
        xs = np.linspace(-30, 30, 13)
        assert np.allclose(sigmoid(xs), 1.0 / (1.0 + np.exp(-xs)), rtol=1e-12)


class TestMlpInit:
    def test_glorot_bounds_and_zero_bias(self):
        rng = np.random.default_rng(0)
        mlp = Mlp.create(rng, [20, 40, 8])
        limit0 = np.sqrt(6.0 / (20 + 40))
        limit1 = np.sqrt(6.0 / (40 + 8))
        assert np.abs(mlp.weights[0]).max() <= limit0
        assert np.abs(mlp.weights[1]).max() <= limit1
        assert all(np.all(b == 0.0) for b in mlp.biases)

    def test_layer_dims(self):
        rng = np.random.default_rng(0)
        mlp = Mlp.create(rng, [5, 7, 3, 2])
        assert mlp.layer_dims == [5, 7, 3, 2]
        assert mlp.input_dim == 5
        assert mlp.output_dim == 2

    def test_rejects_degenerate_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            Mlp.create(rng, [5])
        with pytest.raises(ValueError):
            Mlp.create(rng, [5, 0, 2])

    def test_linear_model_when_no_hidden(self):
        rng = np.random.default_rng(1)
        mlp = Mlp.create(rng, [3, 2])
        x = rng.standard_normal((6, 3))
        out, _ = mlp_forward(mlp, x)
        assert np.allclose(out, x @ mlp.weights[0] + mlp.biases[0])


class TestMlpForward:
    def test_relu_kills_negative_preactivations(self):
        mlp = Mlp(
            weights=[np.array([[1.0], [1.0]]), np.array([[1.0]])],
            biases=[np.array([-10.0]), np.array([0.0])],
        )
        out, _ = mlp_forward(mlp, np.array([[1.0, 2.0]]))
        assert out[0, 0] == 0.0  # hidden preactivation -7 clamps to 0

    def test_hand_computed_two_layer(self):
        mlp = Mlp(
            weights=[np.array([[1.0, -1.0]]), np.array([[2.0], [3.0]])],
            biases=[np.array([0.5, 0.5]), np.array([-1.0])],
        )
        out, _ = mlp_forward(mlp, np.array([[2.0]]))
        # hidden = relu([2.5, -1.5]) = [2.5, 0]; out = 2*2.5 - 1 = 4
        assert out[0, 0] == pytest.approx(4.0)

    def test_rejects_wrong_input_width(self):
        rng = np.random.default_rng(0)
        mlp = Mlp.create(rng, [3, 2])
        with pytest.raises(ValueError):
            mlp_forward(mlp, np.zeros((4, 5)))


class TestMlpBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            dims = [int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 4))]
            mlp = Mlp.create(rng, dims)
            x = rng.standard_normal((4, dims[0]))
            proj = rng.standard_normal((4, dims[2]))

            _, cache = mlp_forward(mlp, x)
            dx, param_grads = mlp_backward(mlp, cache, proj)

            def loss():
                o, _ = mlp_forward(mlp, x)
                return float((o * proj).sum())

            fd_params = [
                (central_diff(loss, w), central_diff(loss, b))
                for w, b in zip(mlp.weights, mlp.biases)
            ]
            fd_x = central_diff(loss, x)
            analytic = [g for pair in param_grads for g in pair] + [dx]
            numeric = [g for pair in fd_params for g in pair] + [fd_x]
            assert grad_rel_err(analytic, numeric) < 1e-6

    def test_input_gradient_zero_in_dead_region(self):
        mlp = Mlp(
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.array([-5.0]), np.array([0.0])],
        )
        _, cache = mlp_forward(mlp, np.array([[1.0]]))
        dx, _ = mlp_backward(mlp, cache, np.array([[1.0]]))
        assert dx[0, 0] == 0.0


class TestUnaryNet:
    def test_forward_backward_consistency(self):
        rng = np.random.default_rng(7)
        model = build_model(rng, feature_dim=6, output_dim=3, hidden_dims=(8,))
        graph = graph_of(rng.uniform(0, 1, (5, 6)))
        proj = rng.standard_normal((5, 3))

        scores, cache = unary_forward(model.unary, graph)
        assert scores.shape == (5, 3)
        grads = unary_backward(model.unary, cache, proj)

        def loss():
            s, _ = unary_forward(model.unary, graph)
            return float((s * proj).sum())

        fd = [
            (central_diff(loss, w), central_diff(loss, b))
            for w, b in zip(model.unary.mlp.weights, model.unary.mlp.biases)
        ]
        analytic = [g for pair in grads for g in pair]
        numeric = [g for pair in fd for g in pair]
        assert grad_rel_err(analytic, numeric) < 1e-6


def fixed_identity_pairwise(beta=1.0, gamma=0.1):
    """1-D embedding that copies the first feature, for hand oracles."""
    mlp = Mlp(
        weights=[np.array([[1.0], [0.0]]), np.array([[1.0]])],
        biases=[np.zeros(1), np.zeros(1)],
    )
    return PairwiseNet(mlp, np.array(softplus_inverse(beta)), gamma)


class TestPairwiseForward:
    def test_kernel_unit_distance_oracle(self):
        # embeddings one unit apart, identical centroids, beta = 1:
        # affinity = exp(-1)
        net = fixed_identity_pairwise()
        graph = graph_of(np.array([[0.0, 0.0], [1.0, 0.0]]))
        aff, _ = pairwise_forward(net, graph)
        assert aff[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert aff[1, 0] == aff[0, 1]
        assert aff[0, 0] == 0.0 and aff[1, 1] == 0.0

    def test_beta_scales_kernel(self):
        net = fixed_identity_pairwise(beta=3.0)
        graph = graph_of(np.array([[0.0, 0.0], [1.0, 0.0]]))
        aff, _ = pairwise_forward(net, graph)
        assert aff[0, 1] == pytest.approx(3.0 * np.exp(-1.0), rel=1e-9)

    def test_gamma_weights_centroid_distance(self):
        net = fixed_identity_pairwise(gamma=0.1)
        graph = graph_of(
            np.zeros((2, 2)), centroids=np.array([[0.0, 0.0], [1.0, 0.0]])
        )
        aff, _ = pairwise_forward(net, graph)
        assert aff[0, 1] == pytest.approx(np.exp(-0.1), rel=1e-12)

    def test_symmetric_nonnegative_zero_diagonal(self):
        rng = np.random.default_rng(2)
        net = PairwiseNet(
            Mlp.create(rng, [5, 6, 4]), np.array(0.7), 0.1
        )
        graph = graph_of(rng.uniform(0, 1, (12, 5)), rng.uniform(0, 1, (12, 2)))
        aff, _ = pairwise_forward(net, graph)
        assert np.array_equal(aff, aff.T)
        assert (aff >= 0.0).all()
        assert np.all(np.diag(aff) == 0.0)

    def test_distant_pairs_flush_to_zero(self):
        net = fixed_identity_pairwise()
        net.embed.weights[0][0, 0] = 100.0  # embeddings 100 apart
        graph = graph_of(np.array([[0.0, 0.0], [1.0, 0.0]]))
        aff, _ = pairwise_forward(net, graph)
        assert aff[0, 1] == 0.0

    def test_nan_embedding_weight_is_not_flushed(self):
        # a broken embedding must not pass as a zero affinity
        rng = np.random.default_rng(3)
        net = PairwiseNet(Mlp.create(rng, [5, 6, 4]), np.array(0.7), 0.1)
        net.embed.weights[0][0, 0] = np.nan
        graph = graph_of(rng.uniform(0, 1, (6, 5)), rng.uniform(0, 1, (6, 2)))
        aff, _ = pairwise_forward(net, graph)
        assert np.isnan(aff).any()

    @pytest.mark.parametrize("gamma", [-1.0, np.nan, np.inf])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError):
            fixed_identity_pairwise(gamma=gamma)


class TestDistanceProduct:
    def test_written_in_place_symmetric_and_exact(self):
        # n = 300 is above OpenBLAS's threading threshold
        n = 300
        points = np.random.default_rng(31).standard_normal((n, 17))
        work = Workspace()
        dist = _negated_squared_distances(points, work)
        # the product lands in the workspace's buffer: had f2py copied it,
        # the buffer would still hold the zeros it was allocated with
        assert np.shares_memory(dist, work.get("kernel", n))
        assert not np.diagonal(dist).any()
        diff = points[:, None, :] - points[None, :, :]
        ref = -(diff * diff).sum(axis=2)
        lower = np.tri(n, dtype=bool)
        assert np.abs(work.get("kernel", n) - ref)[lower].max() <= 1e-12 * np.abs(ref).max()
        # without a workspace: that triangle and its mirror, exactly symmetric
        full = _negated_squared_distances(points, None)
        assert np.array_equal(full, full.T)
        assert np.array_equal(full[lower], dist[lower])


class TestKernelFlush:
    def test_equals_where_bit_for_bit(self):
        rng = np.random.default_rng(32)
        x = -rng.exponential(40.0, (50, 50))
        x[::7, ::3] = np.nan
        x[1, :5] = [_EXP_FLOOR, np.nextafter(_EXP_FLOOR, 0.0), np.nextafter(_EXP_FLOOR, -1.0), 0.0, -0.0]
        assert (x < _EXP_FLOOR).any() and (x > _EXP_FLOOR).any()
        expected = np.where(x < _EXP_FLOOR, 0.0, np.exp(x))
        got = _flush_exp(x.copy(), np.empty_like(x))
        assert got.tobytes() == expected.tobytes()


class TestPairwiseBackward:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        for trial in range(8):
            n = int(rng.integers(3, 8))
            feature_dim = int(rng.integers(2, 5))
            net = PairwiseNet(
                Mlp.create(rng, [feature_dim, 5, 3]),
                np.asarray(rng.standard_normal()),
                0.1,
            )
            graph = graph_of(
                rng.uniform(0, 1, (n, feature_dim)), rng.uniform(0, 1, (n, 2))
            )
            # the affinity gradient names unordered pairs, mirrored into both
            # entries, so the matching scalar is sum over p < q only
            proj = rng.standard_normal((n, n))
            proj = proj + proj.T

            _, cache = pairwise_forward(net, graph)
            embed_grads, dbeta_raw = pairwise_backward(net, cache, proj)

            def loss():
                aff, _ = pairwise_forward(net, graph)
                return 0.5 * float((aff * proj).sum())

            fd = [
                (central_diff(loss, w), central_diff(loss, b))
                for w, b in zip(net.embed.weights, net.embed.biases)
            ]
            fd_beta = central_diff(loss, net.beta_raw.reshape(1))
            analytic = [g for pair in embed_grads for g in pair]
            analytic.append(np.asarray(dbeta_raw).reshape(1))
            numeric = [g for pair in fd for g in pair] + [fd_beta]
            assert grad_rel_err(analytic, numeric) < 1e-5

    def test_output_bias_gradient_is_zero(self):
        # shifting every embedding by a constant leaves distances unchanged
        rng = np.random.default_rng(14)
        net = PairwiseNet(Mlp.create(rng, [3, 4, 2]), np.asarray(0.3), 0.1)
        graph = graph_of(rng.uniform(0, 1, (6, 3)), rng.uniform(0, 1, (6, 2)))
        _, cache = pairwise_forward(net, graph)
        grads, _ = pairwise_backward(net, cache, rng.standard_normal((6, 6)))
        assert np.allclose(grads[-1][1], 0.0, atol=1e-14)


class TestPairwiseBackwardLowerTriangle:
    """The library's own dL/dR is read from its lower triangle only."""

    @pytest.mark.parametrize("n", [60, 300])
    def test_matches_full_matrix_reference(self, n):
        rng = np.random.default_rng(500 + n)
        net = PairwiseNet(Mlp.create(rng, [4, 8, 5]), np.asarray(0.3), 10.0)
        graph = graph_of(rng.standard_normal((n, 4)), rng.uniform(0, 1, (n, 2)))
        work = Workspace()
        affinity, cache = pairwise_forward(net, graph, work=work)
        full_affinity, full_cache = pairwise_forward(net, graph)
        lower = np.tri(n, dtype=bool)
        assert np.array_equal(affinity[lower], full_affinity[lower])
        system = assemble(affinity, work=work)
        y = map_infer(system, rng.standard_normal((n, 3)))
        dy = rng.standard_normal((n, 3))
        _, daff = map_backward(system, y, dy, work=work)
        ref_daff = reference_map_backward(system, y, dy)[1]
        # the full-matrix checks would reject this triangle-only gradient
        work.get("affinity", n)[~lower] = np.nan

        grads, dbeta_raw = pairwise_backward(net, cache, daff, work=work)
        ref_grads, ref_dbeta_raw = reference_pairwise_backward(net, full_cache, ref_daff)
        analytic = [g for pair in grads for g in pair] + [np.array([dbeta_raw])]
        reference = [g for pair in ref_grads for g in pair] + [np.array([ref_dbeta_raw])]
        assert grad_rel_err(analytic, reference) < 1e-10
        # a caller's full matrix gets the same result
        plain, plain_dbeta_raw = pairwise_backward(net, full_cache, ref_daff)
        plain = [g for pair in plain for g in pair] + [np.array([plain_dbeta_raw])]
        assert grad_rel_err(plain, reference) < 1e-10


class TestModel:
    def test_parameters_are_views(self):
        rng = np.random.default_rng(0)
        model = build_model(rng, feature_dim=4, output_dim=2)
        params = model.parameters()
        params["unary.w0"][0, 0] += 1.0
        assert model.unary.mlp.weights[0][0, 0] == params["unary.w0"][0, 0]

    def test_parameter_names(self):
        rng = np.random.default_rng(0)
        model = build_model(
            rng, feature_dim=4, output_dim=2, hidden_dims=(8,), embed_hidden_dims=(8,)
        )
        assert set(model.parameters()) == {
            "unary.w0", "unary.b0", "unary.w1", "unary.b1",
            "pair.w0", "pair.b0", "pair.w1", "pair.b1",
            "pair.beta_raw",
        }

    def test_beta_initialized_to_one(self):
        rng = np.random.default_rng(0)
        model = build_model(rng, feature_dim=4, output_dim=2)
        assert model.pairwise.beta == pytest.approx(1.0, rel=1e-9)

    def test_output_dim(self):
        rng = np.random.default_rng(0)
        model = build_model(rng, feature_dim=4, output_dim=3)
        assert model.output_dim() == 3


class TestCheckpoint:
    def test_roundtrip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(21)
        model = build_model(
            rng, feature_dim=5, output_dim=3,
            hidden_dims=(7, 4), embed_hidden_dims=(6,), embed_dim=2,
            gamma=0.25,
        )
        path = tmp_path / "model.ccrf"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)

        assert isinstance(loaded, Model)
        assert loaded.pairwise.gamma == model.pairwise.gamma
        orig = model.parameters()
        back = loaded.parameters()
        assert set(orig) == set(back)
        for key in orig:
            assert np.array_equal(orig[key], back[key]), key

    def test_older_checkpoint_with_tukey_record_loads(self, tmp_path):
        # older versions appended a meta.tukey_c scalar; it is ignored
        model = build_model(np.random.default_rng(22), feature_dim=4, output_dim=2)
        path = tmp_path / "old.ccrf"
        save_checkpoint(path, model)
        with open(path, "ab") as fh:
            _write_tensor(fh, "meta.tukey_c", np.array(2.5))
        loaded = load_checkpoint(path)
        assert loaded.pairwise.gamma == model.pairwise.gamma
        orig, back = model.parameters(), loaded.parameters()
        assert set(orig) == set(back)
        for key in orig:
            assert np.array_equal(orig[key], back[key]), key

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.ccrf"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_truncated_file(self, tmp_path):
        rng = np.random.default_rng(2)
        model = build_model(rng, feature_dim=3, output_dim=2)
        path = tmp_path / "model.ccrf"
        save_checkpoint(path, model)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_rejects_shape_larger_than_file(self, tmp_path):
        # a (2^32 - 1)^3 tensor header must not turn into an allocation
        path = tmp_path / "huge.ccrf"
        header = struct.pack("<I", 6) + b"unary0" + struct.pack("<4I", 3, *[2**32 - 1] * 3)
        path.write_bytes(b"CCRF1" + header + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "name, shape",
        [("unary.w0", (3,)), ("unary.b0", (5,)), ("unary.w1", (4, 2)), ("unary.b1", (2, 2))],
    )
    def test_rejects_misshapen_layer(self, tmp_path, name, shape):
        # hidden width 64: a layer must be 2-D, its bias must match its
        # outputs, and each layer must take the previous layer's outputs
        model = build_model(np.random.default_rng(5), feature_dim=3, output_dim=2)
        params = model.parameters()
        path = tmp_path / "model.ccrf"
        save_checkpoint(path, model)
        with open(path, "ab") as fh:
            # a later tensor of the same name replaces the saved one
            _write_tensor(fh, name, np.zeros(shape))
        assert params[name].shape != shape
        with pytest.raises(ValueError, match="checkpoint layer"):
            load_checkpoint(path)

    @pytest.mark.parametrize("gamma", [np.nan, -0.5, np.inf])
    def test_rejects_bad_gamma(self, tmp_path, gamma):
        rng = np.random.default_rng(4)
        model = build_model(rng, feature_dim=3, output_dim=2)
        model.pairwise.gamma = gamma
        path = tmp_path / "model.ccrf"
        save_checkpoint(path, model)
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_magic_constant(self, tmp_path):
        rng = np.random.default_rng(2)
        model = build_model(rng, feature_dim=3, output_dim=2)
        path = tmp_path / "model.ccrf"
        save_checkpoint(path, model)
        assert path.read_bytes()[:5] == b"CCRF1"
