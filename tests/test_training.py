import tracemalloc

import numpy as np
import pytest

from ccrf import (
    DivergenceError,
    LossSpec,
    SyntheticSceneSpec,
    TrainConfig,
    TrainHistory,
    build_model,
    evaluate,
    forward_loss,
    mlp_forward,
    prepare_examples,
    sgd_step,
    synth_dataset,
    train,
    training,
)
from ccrf.crf import Workspace
from ccrf.training import EpochRecord, PreparedExample, global_grad_norm

from helpers import grad_rel_err, model_param_fd, random_graph


def one_hot_targets(rng, n, m):
    out = np.zeros((n, m))
    out[np.arange(n), rng.integers(0, m, n)] = 1.0
    return out


def small_seg_dataset(count=6, seed=0, classes=3):
    spec = SyntheticSceneSpec(
        task="segmentation", size=32, classes=classes, shape_count=3,
        noise_level=0.1, target_nodes=16, seed=seed,
    )
    return synth_dataset(spec, count=count, train_frac=0.5, val_frac=0.25)


def small_depth_dataset(count=6, seed=0):
    spec = SyntheticSceneSpec(
        task="depth", size=32, shape_count=3,
        noise_level=0.1, target_nodes=16, seed=seed,
    )
    return synth_dataset(spec, count=count, train_frac=0.5, val_frac=0.25)


def tiny_config(**kw):
    base = dict(
        loss=LossSpec("softmax"),
        lr=1e-2,
        epochs=3,
        unary_warmup_epochs=1,
        hidden_dims=(8,),
        embed_hidden_dims=(8,),
        embed_dim=4,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.loss.kind == "softmax"
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.unary_warmup_epochs == 5
        assert cfg.clip_norm == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1e-4)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(clip_norm=0.0)
        with pytest.raises(ValueError):
            TrainConfig(keep="median")
        for gamma in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                TrainConfig(gamma=gamma)


class TestForwardLoss:
    def gradcheck(self, loss_spec, output_dim, targets_of, unary_only=False, seed=0):
        rng = np.random.default_rng(seed)
        model = build_model(
            rng, feature_dim=4, output_dim=output_dim,
            hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3,
        )
        graph = random_graph(rng, 6)
        targets = targets_of(rng)

        _, grads = forward_loss(model, graph, targets, loss_spec, unary_only=unary_only)
        fd = model_param_fd(
            model,
            lambda: forward_loss(model, graph, targets, loss_spec, unary_only=unary_only)[0],
            step=1e-5,
        )
        names = sorted(grads)
        assert grad_rel_err([grads[n] for n in names], [fd[n] for n in names]) < 2e-4

    def test_softmax_gradients(self):
        self.gradcheck(LossSpec("softmax"), 3, lambda rng: one_hot_targets(rng, 6, 3))

    def test_tukey_gradients(self):
        self.gradcheck(
            LossSpec("tukey", 1.0), 1, lambda rng: rng.uniform(0.2, 0.8, (6, 1))
        )

    def test_ls_gradients(self):
        self.gradcheck(LossSpec("ls"), 1, lambda rng: rng.uniform(0, 1, (6, 1)))

    def test_loglik_gradients(self):
        self.gradcheck(LossSpec("loglik"), 1, lambda rng: rng.uniform(0, 1, (6, 1)))

    def test_unary_only_gradients(self):
        self.gradcheck(
            LossSpec("softmax"), 3, lambda rng: one_hot_targets(rng, 6, 3),
            unary_only=True,
        )

    def test_unary_only_freezes_pairwise(self):
        rng = np.random.default_rng(1)
        model = build_model(rng, 4, 2, hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3)
        graph = random_graph(rng, 5)
        targets = one_hot_targets(rng, 5, 2)
        _, grads = forward_loss(
            model, graph, targets, LossSpec("softmax"),
            weight_decay=1e-3, unary_only=True,
        )
        for name, g in grads.items():
            if name.startswith("pair."):
                assert np.all(g == 0.0), name
            else:
                assert np.any(g != 0.0), name

    def test_unary_only_matches_zero_beta(self):
        # freezing the pairwise stage must be bit-identical to beta = 0
        cases = [("softmax", 5, 2, 2), ("loglik", 5, 1, 2), ("tukey", 5, 1, 2), ("ls", 5, 1, 2)]
        cases += [
            ("loglik", n, m, seed)
            for n, m in ((5, 3), (9, 2), (30, 4), (12, 1))
            for seed in range(40)
        ]
        for kind, n, m, seed in cases:
            spec = LossSpec("tukey", 0.5) if kind == "tukey" else LossSpec(kind)
            rng = np.random.default_rng(seed)
            if kind == "softmax":
                targets = one_hot_targets(rng, n, m)
            else:
                targets = rng.uniform(0, 1, (n, m))
            model = build_model(
                rng, 4, targets.shape[1], hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3
            )
            graph = random_graph(rng, n)

            loss_frozen, grads_frozen = forward_loss(
                model, graph, targets, spec, unary_only=True
            )
            model.pairwise.beta_raw[...] = -np.inf  # softplus(-inf) = 0
            loss_zero, grads_zero = forward_loss(
                model, graph, targets, spec, unary_only=False
            )
            assert loss_frozen == loss_zero, (kind, n, m, seed)
            for name in grads_frozen:
                if name.startswith("unary."):
                    assert np.array_equal(grads_frozen[name], grads_zero[name]), (kind, name)

    @pytest.mark.parametrize("kind", ["loglik", "softmax"])
    def test_unary_only_builds_no_field(self, monkeypatch, kind):
        def forbidden(*args, **kwargs):
            raise AssertionError("warm-up step reached the field")

        allowed = {"softmax": ("task_loss",), "loglik": ()}[kind]
        for name in ("pairwise_forward", "assemble", "map_infer", "map_backward",
                     "nll", "nll_backward", "task_loss"):
            if name not in allowed:
                monkeypatch.setattr(training, name, forbidden)
        rng = np.random.default_rng(5)
        model = build_model(rng, 4, 2, hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3)
        targets = one_hot_targets(rng, 6, 2) if kind == "softmax" else rng.uniform(0, 1, (6, 2))
        loss, _ = forward_loss(model, random_graph(rng, 6), targets, LossSpec(kind), unary_only=True)
        assert np.isfinite(loss)

    def test_weight_decay_adds_linear_term(self):
        rng = np.random.default_rng(3)
        model = build_model(rng, 4, 2, hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3)
        graph = random_graph(rng, 5)
        targets = one_hot_targets(rng, 5, 2)
        _, plain = forward_loss(model, graph, targets, LossSpec("softmax"))
        _, decayed = forward_loss(
            model, graph, targets, LossSpec("softmax"), weight_decay=0.01
        )
        params = model.parameters()
        for name in plain:
            assert np.allclose(
                decayed[name], plain[name] + 0.01 * params[name], atol=1e-12
            ), name

    def test_rejects_target_shape_mismatch(self):
        rng = np.random.default_rng(4)
        model = build_model(rng, 4, 2, hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3)
        graph = random_graph(rng, 5)
        with pytest.raises(ValueError):
            forward_loss(model, graph, np.zeros((5, 3)), LossSpec("softmax"))


class TestDirectionalDerivative:
    """Whole-step gradients at the node counts the benchmark runs.

    One random direction d over every parameter: the central difference
    (L(theta + eps d) - L(theta - eps d)) / 2 eps must match <grad L, d>.
    Over 12 seeds per case, with every rectifier kept on its side of the
    kink, the relative error was at most 9.0e-8 at eps = 1e-6 (3.2e-7 at
    1e-7, 8.1e-8 at 1e-5); the tolerance sits about 10x above that.
    """

    EPS = 1e-6
    TOL = 1e-6
    SPECS = {
        "softmax": LossSpec("softmax"),
        "tukey": LossSpec("tukey", 0.5),
        "ls": LossSpec("ls"),
        "loglik": LossSpec("loglik"),
    }

    @staticmethod
    def shift(model, direction, step):
        for name, value in model.parameters().items():
            value += step * direction[name]

    @staticmethod
    def rectifier_signs(model, graph):
        return [
            pre > 0.0
            for mlp in (model.unary.mlp, model.pairwise.embed)
            for pre in mlp_forward(mlp, graph.features)[1].preacts[:-1]
        ]

    def crosses_a_kink(self, model, graph, direction):
        base = self.rectifier_signs(model, graph)
        for step in (self.EPS, -self.EPS):
            self.shift(model, direction, step)
            moved = self.rectifier_signs(model, graph)
            self.shift(model, direction, -step)
            if any((a != b).any() for a, b in zip(base, moved)):
                return True
        return False

    @pytest.mark.parametrize("n", [400, 700])
    @pytest.mark.parametrize("kind", sorted(SPECS))
    def test_matches_central_difference(self, kind, n):
        spec = self.SPECS[kind]
        rng = np.random.default_rng([n, len(kind)])
        m = 3 if kind == "softmax" else 1
        # a central difference across a rectifier kink measures nothing, so
        # redraw until no pre-activation changes sign within the step
        while True:
            model = build_model(
                rng, 4, m, hidden_dims=(16,), embed_hidden_dims=(16,), embed_dim=8, gamma=10.0
            )
            graph = random_graph(rng, n)
            direction = {
                name: rng.standard_normal(value.shape)
                for name, value in model.parameters().items()
            }
            if not self.crosses_a_kink(model, graph, direction):
                break
        targets = one_hot_targets(rng, n, m) if m > 1 else rng.uniform(0, 1, (n, 1))
        work = Workspace()

        _, grads = forward_loss(model, graph, targets, spec, work=work)
        analytic = sum(float((grads[name] * d).sum()) for name, d in direction.items())
        losses = []
        for step in (self.EPS, -self.EPS):
            self.shift(model, direction, step)
            losses.append(forward_loss(model, graph, targets, spec, work=work)[0])
            self.shift(model, direction, -step)
        numeric = (losses[0] - losses[1]) / (2.0 * self.EPS)
        assert abs(numeric - analytic) <= self.TOL * abs(analytic), (numeric, analytic)


class TestSgdStep:
    def test_momentum_update_oracle(self):
        cfg = TrainConfig(lr=0.1, momentum=0.5, clip_norm=None)
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([2.0])}
        velocity = {"w": np.array([0.4])}
        sgd_step(params, grads, velocity, cfg)
        # v = 0.5*0.4 - 0.1*2 = 0; w = 1 + 0 = 1
        assert velocity["w"][0] == pytest.approx(0.0)
        assert params["w"][0] == pytest.approx(1.0)
        sgd_step(params, grads, velocity, cfg)
        # v = -0.2; w = 0.8
        assert params["w"][0] == pytest.approx(0.8)

    def test_clip_rescales_large_gradients(self):
        cfg = TrainConfig(lr=1.0, momentum=0.0, clip_norm=1.0)
        params = {"w": np.array([0.0, 0.0])}
        grads = {"w": np.array([3.0, 4.0])}  # norm 5 -> scaled to 1
        velocity = {"w": np.zeros(2)}
        sgd_step(params, grads, velocity, cfg)
        assert np.allclose(params["w"], [-0.6, -0.8])

    def test_small_gradients_not_rescaled(self):
        cfg = TrainConfig(lr=1.0, momentum=0.0, clip_norm=10.0)
        params = {"w": np.array([0.0])}
        velocity = {"w": np.zeros(1)}
        sgd_step(params, {"w": np.array([0.5])}, velocity, cfg)
        assert params["w"][0] == pytest.approx(-0.5)

    def test_given_norm_matches_computed_norm(self):
        cfg = TrainConfig(lr=1.0, momentum=0.0, clip_norm=1.0)
        grads = {"w": np.array([3.0, 4.0])}
        given = {"w": np.zeros(2)}
        computed = {"w": np.zeros(2)}
        sgd_step(given, grads, {"w": np.zeros(2)}, cfg, global_grad_norm(grads))
        sgd_step(computed, grads, {"w": np.zeros(2)}, cfg)
        assert np.array_equal(given["w"], computed["w"])

    def test_global_grad_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert global_grad_norm(grads) == pytest.approx(5.0)


class TestTrainHistory:
    def test_csv_layout(self):
        hist = TrainHistory("pixel_acc")
        hist.records.append(EpochRecord(0, 1.2345678901234, 0.5, 1.0, 2.0))
        text = hist.to_csv()
        lines = text.splitlines()
        assert lines[0] == "epoch,loss,metric,beta,grad_norm"
        assert lines[1].split(",")[0] == "0"
        assert lines[1].split(",")[1] == "1.23456789"  # ten significant digits

    def test_write_csv(self, tmp_path):
        hist = TrainHistory("rms")
        hist.records.append(EpochRecord(0, 1.0, 2.0, 3.0, 4.0))
        path = tmp_path / "history.csv"
        hist.write_csv(path)
        assert path.read_text() == hist.to_csv()


class TestEvaluate:
    def test_segmentation_metrics_present(self):
        ds = small_seg_dataset()
        model, _ = train(ds, tiny_config(epochs=2, unary_warmup_epochs=1))
        out = evaluate(model, prepare_examples(ds.test), "segmentation")
        for key in ("pixel_acc", "class_acc", "avg_jaccard", "freq_jaccard"):
            assert 0.0 <= out[key] <= 1.0

    def test_unary_only_skips_the_field(self):
        ds = small_seg_dataset()
        model, _ = train(ds, tiny_config(epochs=2, unary_warmup_epochs=1))
        examples = prepare_examples(ds.test)
        full = evaluate(model, examples, "segmentation")
        unary = evaluate(model, examples, "segmentation", unary_only=True)
        assert set(full) == set(unary)

    def test_depth_metrics_present(self):
        ds = small_depth_dataset()
        cfg = tiny_config(loss=LossSpec("tukey", 1.0))
        model, _ = train(ds, cfg)
        out = evaluate(model, prepare_examples(ds.test), "depth")
        for key in ("rel", "log10", "rms", "delta1", "delta2", "delta3"):
            assert np.isfinite(out[key])

    def test_rejects_empty_examples(self):
        ds = small_seg_dataset()
        model, _ = train(ds, tiny_config(epochs=1, unary_warmup_epochs=0))
        with pytest.raises(ValueError):
            evaluate(model, [], "segmentation")


class TestWorkspace:
    """Reused n x n arrays change no result; they only save allocations."""

    SPECS = (LossSpec("softmax"), LossSpec("loglik"), LossSpec("tukey", 0.5), LossSpec("ls"))

    def problem(self, spec, n):
        rng = np.random.default_rng([n, len(spec.kind)])
        m = 3 if spec.kind == "softmax" else 1
        model = build_model(rng, 4, m, hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3)
        targets = one_hot_targets(rng, n, m) if m > 1 else rng.uniform(0, 1, (n, 1))
        return model, random_graph(rng, n), targets

    def test_forward_loss_is_bit_identical(self):
        work = Workspace()
        for spec in self.SPECS:
            for n in (5, 9, 5):
                model, graph, targets = self.problem(spec, n)
                loss, grads = forward_loss(model, graph, targets, spec, weight_decay=0.01)
                loss_w, grads_w = forward_loss(
                    model, graph, targets, spec, weight_decay=0.01, work=work
                )
                assert loss_w == loss, (spec.kind, n)
                for name in grads:
                    assert grads_w[name].tobytes() == grads[name].tobytes(), (spec.kind, n, name)

    @pytest.mark.parametrize("task", ["segmentation", "depth"])
    def test_evaluate_matches_fresh_arrays(self, task):
        rng = np.random.default_rng(7)
        m = 3 if task == "segmentation" else 1
        model = build_model(rng, 4, m, hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3)
        examples = [
            PreparedExample(
                random_graph(rng, n),
                one_hot_targets(rng, n, m) if m > 1 else rng.uniform(0.5, 1.5, (n, 1)),
                rng.integers(1, 5, n).astype(np.float64),
            )
            for n in (5, 9, 5)
        ]
        fresh = training._predictions(model, examples, task, False, None)
        reused = training._predictions(model, examples, task, False, Workspace())
        for a, b in zip(fresh, reused):
            assert a.tobytes() == b.tobytes()
        primed = Workspace()
        primed.get("a0", 7)
        with_work = evaluate(model, examples, task, work=primed)
        without = evaluate(model, examples, task)
        assert set(with_work) == set(without)
        for key in without:
            assert np.array_equal(with_work[key], without[key]), key

    @staticmethod
    def filled(n, value):
        work = Workspace()
        for name in ("kernel", "a0", "affinity"):
            work.get(name, n)[...] = value
        return work

    @pytest.mark.parametrize("value", [np.nan, 1e308])
    def test_leftovers_in_the_arrays_change_nothing(self, value):
        # every pass reads only the triangle the step wrote, so neither NaN
        # nor a huge value in the other one reaches a result or a warning
        n = 60
        for spec in self.SPECS:
            model, graph, targets = self.problem(spec, n)
            loss, grads = forward_loss(model, graph, targets, spec, work=Workspace())
            loss_f, grads_f = forward_loss(model, graph, targets, spec, work=self.filled(n, value))
            assert loss_f == loss, spec.kind
            for name in grads:
                assert grads_f[name].tobytes() == grads[name].tobytes(), (spec.kind, name)
        for task, m in (("segmentation", 3), ("depth", 1)):
            rng = np.random.default_rng([n, m])
            model = build_model(rng, 4, m, hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3)
            examples = [
                PreparedExample(
                    random_graph(rng, n),
                    one_hot_targets(rng, n, m) if m > 1 else rng.uniform(0.5, 1.5, (n, 1)),
                    rng.integers(1, 5, n).astype(np.float64),
                )
                for _ in range(2)
            ]
            fresh = evaluate(model, examples, task)
            reused = evaluate(model, examples, task, work=self.filled(n, value))
            for key in fresh:
                assert np.asarray(reused[key]).tobytes() == np.asarray(fresh[key]).tobytes(), key

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_second_same_n_step_allocates_no_square_array(self, spec):
        n = 200
        model, graph, targets = self.problem(spec, n)
        work = Workspace()
        forward_loss(model, graph, targets, spec, work=work)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            forward_loss(model, graph, targets, spec, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 8 * n * n


class TestTrain:
    def test_deterministic_in_seed(self):
        ds = small_seg_dataset()
        cfg = tiny_config(epochs=3, unary_warmup_epochs=1, seed=11)
        model_a, hist_a = train(ds, cfg)
        model_b, hist_b = train(ds, cfg)
        assert hist_a.to_csv() == hist_b.to_csv()
        pa, pb = model_a.parameters(), model_b.parameters()
        for name in pa:
            assert np.array_equal(pa[name], pb[name]), name

    def test_history_length_and_fields(self):
        ds = small_seg_dataset()
        model, hist = train(ds, tiny_config(epochs=3, unary_warmup_epochs=1))
        assert len(hist.records) == 3
        assert hist.metric_name == "pixel_acc"
        assert [rec.epoch for rec in hist.records] == [0, 1, 2]
        assert all(np.isfinite(rec.loss) for rec in hist.records)

    def test_beta_frozen_during_warmup(self):
        ds = small_seg_dataset()
        model, hist = train(ds, tiny_config(epochs=4, unary_warmup_epochs=2))
        init_beta = 1.0
        assert hist.records[0].beta == pytest.approx(init_beta, rel=1e-9)
        assert hist.records[1].beta == pytest.approx(init_beta, rel=1e-9)
        moved = any(
            abs(rec.beta - init_beta) > 1e-9 for rec in hist.records[2:]
        )
        assert moved

    def test_loss_decreases_on_easy_data(self):
        ds = small_seg_dataset(count=4)
        cfg = tiny_config(epochs=8, unary_warmup_epochs=2, lr=5e-3)
        _, hist = train(ds, cfg)
        first, last = hist.records[0].loss, hist.records[-1].loss
        assert last < first

    def test_divergence_raises_with_location(self):
        ds = small_depth_dataset(count=4)
        cfg = tiny_config(
            loss=LossSpec("ls"), lr=1e6, clip_norm=None,
            epochs=5, unary_warmup_epochs=0,
        )
        with pytest.raises(DivergenceError) as info:
            with np.errstate(all="ignore"):
                train(ds, cfg)
        assert info.value.epoch >= 0
        assert info.value.example_index >= 0

    @staticmethod
    def spy_forward_loss(monkeypatch, corrupt_grads=None):
        """Record the graph of every training step, optionally corrupting grads."""
        graphs = []
        real = training.forward_loss

        def spy(model, graph, *args, **kwargs):
            graphs.append(graph)
            loss, grads = real(model, graph, *args, **kwargs)
            if corrupt_grads is not None:
                corrupt_grads(grads)
            return loss, grads

        monkeypatch.setattr(training, "forward_loss", spy)
        return graphs

    @staticmethod
    def index_of(ds, graph):
        prepared = prepare_examples(ds.train)
        return next(
            k for k, ex in enumerate(prepared) if np.array_equal(ex.graph.features, graph.features)
        )

    def test_nan_embedding_weight_diverges_at_its_example(self, monkeypatch):
        def poisoned(*args, **kwargs):
            model = build_model(*args, **kwargs)
            model.pairwise.embed.weights[0][0, 0] = np.nan
            return model

        monkeypatch.setattr(training, "build_model", poisoned)
        graphs = self.spy_forward_loss(monkeypatch)
        ds = small_seg_dataset()
        with pytest.raises(DivergenceError) as info:
            train(ds, tiny_config(unary_warmup_epochs=0))
        assert len(graphs) == 1
        assert info.value.epoch == 0
        assert info.value.example_index == self.index_of(ds, graphs[0])
        assert "affinity" in str(info.value)

    def test_nan_gradient_stops_before_the_update(self, monkeypatch):
        snapshots = []

        def recorded(*args, **kwargs):
            model = build_model(*args, **kwargs)
            snapshots.append((model, {k: v.copy() for k, v in model.parameters().items()}))
            return model

        def nan_bias(grads):
            grads["unary.b0"][0] = np.nan

        monkeypatch.setattr(training, "build_model", recorded)
        graphs = self.spy_forward_loss(monkeypatch, nan_bias)
        ds = small_seg_dataset()
        with pytest.raises(DivergenceError) as info:
            train(ds, tiny_config())
        assert len(graphs) == 1
        assert info.value.epoch == 0
        assert info.value.example_index == self.index_of(ds, graphs[0])
        assert "gradient" in str(info.value)
        model, initial = snapshots[0]
        for name, value in model.parameters().items():
            assert np.array_equal(value, initial[name]), name

    def test_best_epoch_restored(self):
        # returned parameters reproduce the best recorded validation metric
        ds = small_seg_dataset()
        model, hist = train(ds, tiny_config(epochs=4, unary_warmup_epochs=1))
        best = max(rec.metric for rec in hist.records)
        val = evaluate(model, prepare_examples(ds.val), "segmentation")
        assert val["pixel_acc"] == pytest.approx(best, abs=1e-12)

    def test_depth_uses_rms_and_minimizes(self):
        ds = small_depth_dataset()
        cfg = tiny_config(loss=LossSpec("tukey", 1.0), epochs=4, unary_warmup_epochs=1)
        model, hist = train(ds, cfg)
        assert hist.metric_name == "rms"
        best = min(rec.metric for rec in hist.records)
        val = evaluate(model, prepare_examples(ds.val), "depth")
        assert val["rms"] == pytest.approx(best, abs=1e-12)

    def test_keep_last_returns_final_epoch(self):
        ds = small_depth_dataset()
        cfg = tiny_config(loss=LossSpec("tukey", 1.0), epochs=4, unary_warmup_epochs=1,
                          keep="last")
        model, hist = train(ds, cfg)
        val = evaluate(model, prepare_examples(ds.val), "depth")
        assert val["rms"] == pytest.approx(hist.records[-1].metric, abs=1e-12)

    def test_depth_metric_survives_nonpositive_val_targets(self):
        # noise corruption can push a val target negative; the epoch rms
        # must still rank checkpoints even though rel/log10 cannot
        ds = small_depth_dataset()
        ds.val[0].targets[0, 0] = -0.2
        _, hist = train(ds, tiny_config(loss=LossSpec("ls"), epochs=2))
        assert all(np.isfinite(rec.metric) for rec in hist.records)

    def test_empty_train_split_rejected(self):
        ds = small_seg_dataset()
        ds.train.clear()
        with pytest.raises(ValueError):
            train(ds, tiny_config())
