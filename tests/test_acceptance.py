"""Acceptance gate: one check per release criterion.

Each test prints a single [PASS] line with its measured numbers once its
assertions hold, so a verbose run (``pytest tests/test_acceptance.py -v -s``)
reads as a ten-line report.  Criteria 6-8 train real models on the synthetic
corpora and take medians over three seeds; they dominate the runtime.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from ccrf import (
    CorruptionSpec,
    LossSpec,
    SyntheticSceneSpec,
    TrainConfig,
    assemble,
    build_model,
    corrupt_dataset,
    evaluate,
    forward_loss,
    map_backward,
    map_infer,
    nll,
    nll_backward,
    prepare_examples,
    synth_dataset,
    train,
    tukey_psi,
    tukey_rho,
)
from ccrf.cli import main as cli_main
from ccrf.networks import (
    mlp_backward,
    mlp_forward,
    pairwise_backward,
    pairwise_forward,
    unary_forward,
)

from helpers import (
    central_diff,
    energy,
    grad_rel_err,
    model_param_fd,
    random_affinity,
    random_graph,
)


def report(line):
    print(f"\n[PASS] {line}")


# ---------------------------------------------------------------- exactness


def test_criterion_01_closed_form_inference_exact():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_resid = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, 9))
        system = assemble(random_affinity(rng, n, scale=float(rng.uniform(0.1, 3.0))))
        z = rng.standard_normal((n, m))
        y = map_infer(system, z)
        resid = float(np.abs(system.a0 @ y - z).max())
        bound = 1e-9 * (1.0 + float(np.abs(z).max()))
        assert resid < bound
        worst_resid = max(worst_resid, resid / bound)
        base = energy(system, z, y)
        for _ in range(100):
            d = rng.standard_normal(y.shape)
            d *= 1e-3 / np.linalg.norm(d)
            assert energy(system, z, y + d) > base
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(
        "criterion 1: 200 instances solved exactly, every MAP a local minimum "
        f"(worst residual at {worst_resid:.1e} of bound, {elapsed:.2f}s)"
    )


def test_criterion_02_blockwise_equals_kronecker_solve():
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in range(1, 5):
        for m in range(1, 4):
            for _ in range(3):
                system = assemble(random_affinity(rng, n, scale=2.0))
                z = rng.standard_normal((n, m))
                blockwise = map_infer(system, z)
                big = np.kron(system.a0, np.eye(m))
                explicit = np.linalg.solve(big, z.reshape(-1)).reshape(n, m)
                worst = max(worst, float(np.abs(blockwise - explicit).max()))
    assert worst < 1e-10
    report(f"criterion 2: blockwise solve matches (nm x nm) Kronecker solve (max diff {worst:.1e})")


def test_criterion_03_partition_function_quadrature():
    rng = np.random.default_rng(303)
    start = time.monotonic()
    grid = np.linspace(-8.0, 8.0, 641)
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    worst = 0.0
    for _ in range(20):
        system = assemble(random_affinity(rng, 2, scale=float(rng.uniform(0.1, 2.0))))
        z = rng.standard_normal((2, 1))
        a0 = system.a0
        zsq = float((z * z).sum())
        y1, y2 = np.meshgrid(grid, grid, indexing="ij")
        quad_form = (
            a0[0, 0] * y1**2 + 2.0 * a0[0, 1] * y1 * y2 + a0[1, 1] * y2**2
            - 2.0 * (z[0, 0] * y1 + z[1, 0] * y2) + zsq
        )
        numeric = trapezoid(trapezoid(np.exp(-quad_form), grid, axis=1), grid)
        w = system.solve(z)
        analytic = np.pi / np.sqrt(np.exp(system.logdet_a0)) * np.exp(float((z * w).sum()) - zsq)
        rel = abs(numeric - analytic) / abs(analytic)
        assert rel < 1e-4
        worst = max(worst, rel)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(
        "criterion 3: 2-D quadrature of exp(-E) matches the analytic normalizer "
        f"(worst rel {worst:.1e}, {elapsed:.2f}s)"
    )


# ---------------------------------------------------------------- gradients


def _check_nll_grads(rng, step):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 5))
    affinity = random_affinity(rng, n, scale=1.0)
    z = rng.standard_normal((n, m))
    y = rng.standard_normal((n, m))
    dz, daff = nll_backward(assemble(affinity), z, y)
    num_dz = central_diff(lambda: nll(assemble(affinity), z, y), z, step)
    pair_analytic, pair_numeric = [], []
    for p in range(n):
        for q in range(p + 1, n):
            orig = affinity[p, q]
            affinity[p, q] = affinity[q, p] = orig + step
            hi = nll(assemble(affinity), z, y)
            affinity[p, q] = affinity[q, p] = orig - step
            lo = nll(assemble(affinity), z, y)
            affinity[p, q] = affinity[q, p] = orig
            pair_analytic.append(daff[p, q])
            pair_numeric.append((hi - lo) / (2.0 * step))
    return grad_rel_err(
        [dz, np.array(pair_analytic)], [num_dz, np.array(pair_numeric)]
    )


def _check_map_grads(rng, step):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 5))
    affinity = random_affinity(rng, n, scale=1.0)
    z = rng.standard_normal((n, m))
    w = rng.standard_normal((n, m))

    def loss():
        return float((w * map_infer(assemble(affinity), z)).sum())

    system = assemble(affinity)
    dz, daff = map_backward(system, map_infer(system, z), w)
    num_dz = central_diff(loss, z, step)
    pair_analytic, pair_numeric = [], []
    for p in range(n):
        for q in range(p + 1, n):
            orig = affinity[p, q]
            affinity[p, q] = affinity[q, p] = orig + step
            hi = loss()
            affinity[p, q] = affinity[q, p] = orig - step
            lo = loss()
            affinity[p, q] = affinity[q, p] = orig
            pair_analytic.append(daff[p, q])
            pair_numeric.append((hi - lo) / (2.0 * step))
    return grad_rel_err(
        [dz, np.array(pair_analytic)], [num_dz, np.array(pair_numeric)]
    )


def _check_network_grads(rng, step):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 5))
    while True:
        model = build_model(
            rng, feature_dim=4, output_dim=m,
            hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3,
        )
        graph = random_graph(rng, n)
        if _rectifier_margin(model, graph) > 20.0 * step:
            break

    w = rng.standard_normal((n, m))
    _, cache = unary_forward(model.unary, graph)
    grads = mlp_backward(model.unary, cache, w)
    analytic = [g for pair in grads for g in pair]

    def unary_loss():
        out, _ = unary_forward(model.unary, graph)
        return float((w * out).sum())

    numeric = [
        central_diff(unary_loss, value, step)
        for name, value in model.parameters().items()
        if name.startswith("unary.")
    ]
    errs = [grad_rel_err(analytic, numeric)]

    proj = rng.standard_normal((n, n))
    proj = proj + proj.T  # unordered-pair sensitivity: perturb both entries

    def pair_loss():
        aff, _ = pairwise_forward(model.pairwise, graph)
        return 0.5 * float((aff * proj).sum())

    _, cache = pairwise_forward(model.pairwise, graph)
    embed_grads, dbeta = pairwise_backward(model.pairwise, cache, proj)
    analytic = [g for pair in embed_grads for g in pair] + [np.array(dbeta)]
    numeric = [
        central_diff(pair_loss, value if value.ndim else value.reshape(1), step)
        for name, value in model.parameters().items()
        if name.startswith("pair.")
    ]
    errs.append(grad_rel_err(analytic, numeric))
    return max(errs)


def _rectifier_margin(model, graph):
    """Smallest |pre-activation| either network sees on this graph."""
    margin = np.inf
    for mlp in (model.unary, model.pairwise.embed):
        _, cache = mlp_forward(mlp, graph.features)
        for pre in cache.preacts[:-1]:  # final layer is affine, no kink
            if pre.size:
                margin = min(margin, float(np.abs(pre).min()))
    return margin


def _check_end_to_end_grads(rng, step, kind):
    n = int(rng.integers(2, 9))
    m = 1 if kind in ("tukey", "ls") else int(rng.integers(2, 5))
    while True:
        model = build_model(
            rng, feature_dim=4, output_dim=m,
            hidden_dims=(5,), embed_hidden_dims=(5,), embed_dim=3,
        )
        graph = random_graph(rng, n)
        # central differences are meaningless across a rectifier kink, so
        # redraw any instance whose pre-activations sit inside the step window
        if _rectifier_margin(model, graph) > 20.0 * step:
            break
    if kind in ("tukey", "ls", "loglik") and m == 1:
        targets = rng.uniform(0.0, 1.0, (n, 1))
    elif kind == "loglik":
        targets = rng.standard_normal((n, m))
    else:
        targets = np.zeros((n, m))
        targets[np.arange(n), rng.integers(0, m, n)] = 1.0
    spec = LossSpec(kind) if kind != "tukey" else LossSpec("tukey", 1.0)

    _, grads = forward_loss(model, graph, targets, spec)
    numeric = model_param_fd(
        model, lambda: forward_loss(model, graph, targets, spec)[0], step
    )
    names = sorted(grads)
    return grad_rel_err([grads[k] for k in names], [numeric[k] for k in names])


def test_criterion_04_gradient_suite_matches_finite_differences():
    rng = np.random.default_rng(404)
    step = 1e-4
    start = time.monotonic()
    kinds = ("softmax", "tukey", "ls", "loglik")
    worst = 0.0
    for i in range(50):
        worst = max(worst, _check_nll_grads(rng, step))
        worst = max(worst, _check_map_grads(rng, step))
        worst = max(worst, _check_network_grads(rng, step))
        worst = max(worst, _check_end_to_end_grads(rng, step, kinds[i % 4]))
        assert worst < 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(
        "criterion 4: all backward passes match central differences on 50 instances "
        f"(worst rel {worst:.1e}, {elapsed:.1f}s)"
    )


def test_criterion_05_tukey_table():
    c = 1.0
    table = {
        0.0: (0.0, 0.0),
        0.5: ((1.0 - 0.75**3) / 6.0, 0.5 * 0.75**2),
        -0.5: ((1.0 - 0.75**3) / 6.0, -0.5 * 0.75**2),
        1.0: (1.0 / 6.0, 0.0),
        -1.0: (1.0 / 6.0, 0.0),
        2.0: (1.0 / 6.0, 0.0),
        -2.0: (1.0 / 6.0, 0.0),
    }
    for r, (rho_want, psi_want) in table.items():
        rho = float(tukey_rho(np.array([r]), c)[0])
        psi = float(tukey_psi(np.array([r]), c)[0])
        assert abs(rho - rho_want) < 1e-12, (r, rho, rho_want)
        assert abs(psi - psi_want) < 1e-12, (r, psi, psi_want)
    clipped = np.array([1.0, -1.0, 1.5, -3.0, 10.0])
    assert np.all(tukey_rho(clipped, c) == pytest.approx(1.0 / 6.0, abs=1e-15))
    assert np.all(tukey_psi(clipped, c) == 0.0)
    report("criterion 5: biweight values and derivatives exact at r in {0, +-0.5, +-1, +-2}, flat past c")


# ---------------------------------------------------------------- trends


SEG_SEEDS = (0, 1, 2)


def _seg_spec(seed, classes):
    return SyntheticSceneSpec(
        task="segmentation", size=64, classes=classes, shape_count=6,
        noise_level=0.8, target_nodes=100, seed=1000 * seed,
    )


def _seg_config(seed, kind, warmup):
    return TrainConfig(
        loss=LossSpec(kind), lr=1e-2, epochs=20, unary_warmup_epochs=warmup,
        hidden_dims=(32,), embed_hidden_dims=(32,), embed_dim=16, seed=seed,
    )


@lru_cache(maxsize=None)
def _seg_accuracy(seed, classes, kind, unary_baseline):
    ds = synth_dataset(_seg_spec(seed, classes), count=250, train_frac=0.8, val_frac=0.0)
    warmup = 20 if unary_baseline else 5
    model, _ = train(ds, _seg_config(seed, kind, warmup))
    test_ex = prepare_examples(ds.test)
    metrics = evaluate(model, test_ex, "segmentation", unary_only=unary_baseline)
    return metrics["pixel_acc"]


def test_criterion_06_joint_field_beats_unary_baseline():
    start = time.monotonic()
    gaps = []
    for seed in SEG_SEEDS:
        full = _seg_accuracy(seed, 4, "softmax", False)
        unary = _seg_accuracy(seed, 4, "softmax", True)
        gaps.append(100.0 * (full - unary))
    median_gap = sorted(gaps)[1]
    elapsed = time.monotonic() - start
    assert median_gap >= 1.0, gaps
    assert elapsed < 900.0
    report(
        "criterion 6: full model beats unary-only by "
        f"{median_gap:.2f} pixel-accuracy points (median of {['%.2f' % g for g in gaps]}, {elapsed:.0f}s)"
    )


def test_criterion_07_softmax_beats_likelihood_and_gap_grows():
    start = time.monotonic()
    gap_by_m = {}
    for m in (2, 4, 8):
        gaps = [
            100.0 * (_seg_accuracy(seed, m, "softmax", False) - _seg_accuracy(seed, m, "loglik", False))
            for seed in SEG_SEEDS
        ]
        gap_by_m[m] = sorted(gaps)[1]
    elapsed = time.monotonic() - start
    for m, gap in gap_by_m.items():
        assert gap >= 0.0, (m, gap_by_m)
    assert gap_by_m[8] > gap_by_m[2], gap_by_m
    assert elapsed < 2700.0
    report(
        "criterion 7: softmax >= likelihood at every class count and the gap grows "
        f"(points: m=2 {gap_by_m[2]:+.2f}, m=4 {gap_by_m[4]:+.2f}, m=8 {gap_by_m[8]:+.2f}, {elapsed:.0f}s)"
    )


@lru_cache(maxsize=None)
def _depth_rms(seed, kind, outlier_fraction):
    spec = SyntheticSceneSpec(
        task="depth", size=64, shape_count=6,
        noise_level=0.1, target_nodes=100, seed=1000 * seed,
    )
    ds = synth_dataset(spec, count=250, train_frac=0.8, val_frac=0.0)
    if outlier_fraction > 0:
        ds = corrupt_dataset(
            ds, CorruptionSpec("outlier", outlier_fraction, magnitude=5.0), seed=seed
        )
    config = TrainConfig(
        loss=LossSpec(kind), lr=1e-3, epochs=60, unary_warmup_epochs=15,
        hidden_dims=(32,), embed_hidden_dims=(32,), embed_dim=16,
        seed=seed, keep="last",
    )
    model, _ = train(ds, config)
    return evaluate(model, prepare_examples(ds.test), "depth")["rms"]


def test_criterion_08_robust_loss_shrugs_off_outliers():
    start = time.monotonic()
    tukey_ratio, log_ratio, clean_ratio = [], [], []
    for seed in SEG_SEEDS:
        tk_clean = _depth_rms(seed, "tukey", 0.0)
        tk_dirty = _depth_rms(seed, "tukey", 0.25)
        ll_clean = _depth_rms(seed, "loglik", 0.0)
        ll_dirty = _depth_rms(seed, "loglik", 0.25)
        tukey_ratio.append(tk_dirty / tk_clean)
        log_ratio.append(ll_dirty / ll_clean)
        clean_ratio.append(max(tk_clean, ll_clean) / min(tk_clean, ll_clean))
    tk, ll, cl = (sorted(v)[1] for v in (tukey_ratio, log_ratio, clean_ratio))
    elapsed = time.monotonic() - start
    assert tk <= 1.3, tukey_ratio
    assert ll >= 2.0, log_ratio
    assert cl <= 1.2, clean_ratio
    assert elapsed < 1800.0
    report(
        "criterion 8: 25% outliers cost the robust loss x"
        f"{tk:.2f} but the likelihood loss x{ll:.2f}; clean-data rms within x{cl:.2f} ({elapsed:.0f}s)"
    )


# ---------------------------------------------------------------- determinism and speed


def test_criterion_09_training_cli_is_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "task = segmentation\nsize = 32\nclasses = 3\nshape_count = 3\n"
        "noise_level = 0.3\ntarget_nodes = 12\ncount = 4\n"
        "train_frac = 0.5\nval_frac = 0.25\n"
        "loss = softmax\nlr = 0.01\nepochs = 2\nwarmup_epochs = 1\n"
        "hidden_dims = 8\nembed_hidden_dims = 8\nembed_dim = 4\nseed = 7\n"
    )
    data = tmp_path / "data"
    assert cli_main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    data_dir = next(p for p in data.iterdir() if p.is_dir())
    histories = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main([
            "train", "--config", str(cfg), "--data", str(data_dir), "--out", str(out),
        ]) == 0
        run_dir = next(p for p in out.iterdir() if p.is_dir())
        histories.append((run_dir / "history.csv").read_bytes())
    assert histories[0] == histories[1]
    report(f"criterion 9: two same-seed training runs wrote byte-identical history CSVs ({len(histories[0])} bytes)")


def test_criterion_10_inference_speed_at_scene_scale():
    rng = np.random.default_rng(1010)
    times = []
    for _ in range(3):
        affinity = random_affinity(rng, 700, scale=1.0)
        z = rng.standard_normal((700, 8))
        start = time.monotonic()
        system = assemble(affinity)
        y = map_infer(system, z)
        times.append(time.monotonic() - start)
        assert y.shape == (700, 8)
    worst = max(times)
    assert worst < 2.0
    report(f"criterion 10: assemble + solve at n=700, m=8 takes {worst*1000:.0f}ms per image")
