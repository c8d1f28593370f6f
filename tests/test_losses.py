import numpy as np
import pytest

from ccrf import (
    LossSpec,
    ls_loss,
    predict_labels,
    softmax_loss,
    tukey_loss,
    tukey_psi,
    tukey_rho,
)
from ccrf.losses import task_loss

from helpers import central_diff, grad_rel_err


def one_hot(labels, m):
    out = np.zeros((len(labels), m))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestLossSpec:
    def test_accepts_known_kinds(self):
        for kind in ("softmax", "tukey", "ls", "loglik"):
            LossSpec(kind)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            LossSpec("huber")

    def test_rejects_nonpositive_c(self):
        with pytest.raises(ValueError):
            LossSpec("tukey", c=0.0)


class TestSoftmaxLoss:
    def test_uniform_scores_give_log_m(self):
        for m in (2, 3, 5):
            y = one_hot([0, 1], m)
            loss, _ = softmax_loss(np.zeros((2, m)), y)
            assert loss == pytest.approx(2 * np.log(m), rel=1e-12)

    def test_huge_correct_margin_drives_loss_to_zero(self):
        scores = np.array([[50.0, 0.0], [0.0, 50.0]])
        loss, _ = softmax_loss(scores, one_hot([0, 1], 2))
        assert loss < 1e-20

    def test_two_class_hand_value(self):
        # scores (1, 0), true class 0: loss = log(1 + e^-1)
        loss, _ = softmax_loss(np.array([[1.0, 0.0]]), one_hot([0], 2))
        assert loss == pytest.approx(np.log(1 + np.exp(-1.0)), rel=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        scores = np.array([[1.0, 0.0, -1.0]])
        y = one_hot([1], 3)
        _, grad = softmax_loss(scores, y)
        exp = np.exp(scores - scores.max())
        assert np.allclose(grad, exp / exp.sum() - y, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            n, m = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            scores = rng.standard_normal((n, m))
            y = one_hot(rng.integers(0, m, n), m)
            _, grad = softmax_loss(scores, y)
            fd = central_diff(lambda: softmax_loss(scores, y)[0], scores)
            assert grad_rel_err([grad], [fd]) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal((4, 3))
        y = one_hot([0, 1, 2, 0], 3)
        base, _ = softmax_loss(scores, y)
        shifted, _ = softmax_loss(scores + 100.0, y)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_extreme_scores_stay_finite(self):
        scores = np.array([[1e4, -1e4], [-1e4, 1e4]])
        loss, grad = softmax_loss(scores, one_hot([0, 0], 2))
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_rejects_bad_targets(self):
        scores = np.zeros((2, 3))
        with pytest.raises(ValueError):
            softmax_loss(scores, np.full((2, 3), 0.5))  # not one-hot
        with pytest.raises(ValueError):
            softmax_loss(scores, np.zeros((2, 3)))  # all-zero rows
        with pytest.raises(ValueError):
            softmax_loss(np.zeros((2, 1)), np.ones((2, 1)))  # one class


class TestPredictLabels:
    def test_argmax(self):
        scores = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert np.array_equal(predict_labels(scores), [1, 0])

    def test_ties_resolve_to_lowest_index(self):
        scores = np.array([[0.5, 0.5, 0.1], [0.3, 0.7, 0.7]])
        assert np.array_equal(predict_labels(scores), [0, 1])


class TestTukey:
    def test_rho_table_c1(self):
        # [ -2, -1, -0.5, 0, 0.5, 1, 2 ] at c = 1
        r = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        rho = tukey_rho(r, 1.0)
        sat = 1.0 / 6.0
        inner = (1.0 / 6.0) * (1.0 - 0.75**3)  # = 0.578125 / 6
        expected = [sat, sat, inner, 0.0, inner, sat, sat]
        assert np.allclose(rho, expected, rtol=0, atol=1e-12)

    def test_psi_table_c1(self):
        r = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        psi = tukey_psi(r, 1.0)
        inner = 0.5 * 0.75**2  # = 0.158203125 at r = 0.5
        expected = [0.0, 0.0, -inner, 0.0, inner, 0.0, 0.0]
        assert np.allclose(psi, expected, rtol=0, atol=1e-12)

    def test_rho_saturates_exactly_at_c(self):
        for c in (0.5, 1.0, 3.0):
            r = np.array([c, c + 1e-9, 10 * c, -10 * c])
            assert np.allclose(tukey_rho(r, c), c * c / 6.0, atol=1e-15)

    def test_rho_is_even_psi_is_odd(self):
        r = np.linspace(-3, 3, 41)
        assert np.allclose(tukey_rho(r, 1.3), tukey_rho(-r, 1.3))
        assert np.allclose(tukey_psi(r, 1.3), -tukey_psi(-r, 1.3))

    def test_psi_is_derivative_of_rho(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(-2, 2, 50)
        r = r[np.abs(np.abs(r) - 1.0) > 1e-3]  # avoid the kink
        eps = 1e-7
        fd = (tukey_rho(r + eps, 1.0) - tukey_rho(r - eps, 1.0)) / (2 * eps)
        assert np.allclose(tukey_psi(r, 1.0), fd, atol=1e-8)

    def test_psi_peak_inside_interval(self):
        # |psi| peaks at r = c / sqrt(5), strictly inside (0, c)
        c = 2.0
        peak = c / np.sqrt(5.0)
        r = np.linspace(-c, c, 2001)
        assert abs(r[np.argmax(tukey_psi(r, c))] - peak) < 2e-3

    def test_loss_ignores_clipped_residuals(self):
        yhat = np.array([[0.0], [0.0]])
        y = np.array([[100.0], [0.2]])
        loss, grad = tukey_loss(yhat, y, c=1.0)
        assert grad[0, 0] == 0.0  # outlier contributes nothing
        assert grad[1, 0] != 0.0
        assert loss == pytest.approx(1.0 / 6.0 + tukey_rho(np.array(0.2), 1.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        yhat = rng.uniform(-0.9, 0.9, (6, 2))  # keep residuals off the kink
        y = np.zeros((6, 2))
        _, grad = tukey_loss(yhat, y, c=1.0)
        fd = central_diff(lambda: tukey_loss(yhat, y, 1.0)[0], yhat)
        assert grad_rel_err([grad], [fd]) < 1e-6

    @pytest.mark.parametrize("c", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_a_cutoff_that_is_not_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="must be finite and positive"):
            tukey_loss(np.zeros((3, 1)), np.ones((3, 1)), c)


class TestLsLoss:
    def test_value_and_gradient(self):
        yhat = np.array([[1.0], [3.0]])
        y = np.array([[0.0], [5.0]])
        loss, grad = ls_loss(yhat, y)
        assert loss == pytest.approx(1.0 + 4.0)
        assert np.allclose(grad, [[2.0], [-4.0]])  # -2r

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        yhat = rng.standard_normal((5, 3))
        y = rng.standard_normal((5, 3))
        _, grad = ls_loss(yhat, y)
        fd = central_diff(lambda: ls_loss(yhat, y)[0], yhat)
        assert grad_rel_err([grad], [fd]) < 1e-6


class TestTaskLoss:
    def test_dispatch(self):
        yhat = np.array([[1.0, 0.0]])
        y = np.array([[1.0, 0.0]])
        loss, _ = task_loss(LossSpec("softmax"), yhat, y)
        direct, _ = softmax_loss(yhat, y)
        assert loss == direct

    def test_tukey_uses_spec_constant(self):
        yhat = np.array([[0.0]])
        y = np.array([[2.0]])
        loss, _ = task_loss(LossSpec("tukey", c=4.0), yhat, y)
        direct, _ = tukey_loss(yhat, y, c=4.0)
        assert loss == direct

    def test_loglik_is_not_a_pointwise_loss(self):
        with pytest.raises(ValueError):
            task_loss(LossSpec("loglik"), np.zeros((2, 1)), np.zeros((2, 1)))
