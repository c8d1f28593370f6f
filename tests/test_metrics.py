import numpy as np
import pytest

from ccrf import depth_metrics, seg_metrics


class TestSegMetrics:
    def test_perfect_prediction(self):
        labels = np.array([0, 1, 2, 1])
        counts = np.array([10, 20, 5, 15])
        out = seg_metrics(labels, labels, counts, num_classes=3)
        assert out["pixel_acc"] == 1.0
        assert out["class_acc"] == 1.0
        assert out["avg_jaccard"] == 1.0
        assert out["freq_jaccard"] == pytest.approx(1.0, rel=1e-12)

    def test_hand_oracle(self):
        # truth (0,0,1,1), pred (0,0,1,0), unit weights:
        # pixel acc 3/4; class 0: inter 2 union 3, class 1: inter 1 union 2
        true = np.array([0, 0, 1, 1])
        pred = np.array([0, 0, 1, 0])
        out = seg_metrics(pred, true, np.ones(4), num_classes=2)
        assert out["pixel_acc"] == pytest.approx(0.75)
        assert out["class_acc"] == pytest.approx((1.0 + 0.5) / 2)
        assert np.allclose(out["per_class_jaccard"], [2.0 / 3.0, 0.5])
        assert out["avg_jaccard"] == pytest.approx(7.0 / 12.0)
        assert out["freq_jaccard"] == pytest.approx(0.5 * (2.0 / 3.0) + 0.5 * 0.5)

    def test_pixel_counts_weight_the_votes(self):
        true = np.array([0, 1])
        pred = np.array([0, 0])
        out = seg_metrics(pred, true, np.array([90, 10]), num_classes=2)
        assert out["pixel_acc"] == pytest.approx(0.9)
        out = seg_metrics(pred, true, np.array([10, 90]), num_classes=2)
        assert out["pixel_acc"] == pytest.approx(0.1)

    def test_absent_class_excluded_from_averages(self):
        # class 2 never appears in the truth
        true = np.array([0, 0, 1])
        pred = np.array([0, 0, 1])
        out = seg_metrics(pred, true, np.ones(3), num_classes=3)
        assert np.isnan(out["per_class_jaccard"][2])
        assert out["avg_jaccard"] == 1.0
        assert out["class_acc"] == 1.0

    def test_absent_class_predicted_counts_against_jaccard(self):
        # predicting an absent class still hurts the classes it displaces
        true = np.array([0, 0])
        pred = np.array([0, 1])
        out = seg_metrics(pred, true, np.ones(2), num_classes=2)
        assert out["per_class_jaccard"][0] == pytest.approx(0.5)
        # class 1 absent from truth: union is pure false positives
        assert out["per_class_jaccard"][1] == 0.0
        assert out["avg_jaccard"] == pytest.approx(0.5)  # only class 0 counts

    def test_validation(self):
        with pytest.raises(ValueError):
            seg_metrics([0, 1], [0], [1, 1], 2)
        with pytest.raises(ValueError):
            seg_metrics([0, 2], [0, 1], [1, 1], 2)  # pred out of range
        with pytest.raises(ValueError):
            seg_metrics([0, 1], [0, 1], [1, 0], 2)  # nonpositive weight
        with pytest.raises(ValueError):
            seg_metrics([0, 0], [0, 0], [1, 1], 1)  # single class


class TestDepthMetrics:
    def test_perfect_prediction(self):
        truth = np.array([0.5, 1.0, 2.0])
        out = depth_metrics(truth, truth, np.ones(3))
        assert out["rel"] == 0.0
        assert out["log10"] == 0.0
        assert out["rms"] == 0.0
        assert out["delta1"] == out["delta2"] == out["delta3"] == 1.0

    def test_double_prediction_oracle(self):
        # pred = 2 * truth: rel = 1, ratio = 2 > 1.25^3, so every delta = 0
        truth = np.array([0.5, 1.0, 2.0])
        out = depth_metrics(2.0 * truth, truth, np.ones(3))
        assert out["rel"] == pytest.approx(1.0)
        assert out["log10"] == pytest.approx(np.log10(2.0))
        assert out["delta1"] == 0.0
        assert out["delta2"] == 0.0
        assert out["delta3"] == 0.0

    def test_delta_thresholds(self):
        # ratios 1.2, 1.3, 1.6, 2.2 against 1.25^k = 1.25, 1.5625, 1.953125
        truth = np.ones(4)
        pred = np.array([1.2, 1.3, 1.6, 2.2])
        out = depth_metrics(pred, truth, np.ones(4))
        assert out["delta1"] == pytest.approx(0.25)
        assert out["delta2"] == pytest.approx(0.5)
        assert out["delta3"] == pytest.approx(0.75)

    def test_weighted_rms(self):
        truth = np.array([1.0, 1.0])
        pred = np.array([1.0, 2.0])
        out = depth_metrics(pred, truth, np.array([3.0, 1.0]))
        assert out["rms"] == pytest.approx(np.sqrt(1.0 / 4.0))

    def test_nonpositive_truth_shifts_both_sides(self):
        truth = np.array([0.0, 1.0])
        pred = np.array([0.0, 1.0])
        out = depth_metrics(pred, truth, np.ones(2))
        assert out["rel"] == 0.0
        assert out["rms"] == 0.0

    def test_rms_unchanged_by_shift(self):
        truth = np.array([0.0, 1.0])
        pred = np.array([0.5, 0.5])
        out = depth_metrics(pred, truth, np.ones(2))
        assert out["rms"] == pytest.approx(np.sqrt(0.25))

    def test_negative_prediction_floored_not_rejected(self):
        truth = np.array([1.0])
        out = depth_metrics(np.array([-1.0]), truth, np.ones(1))
        assert np.isfinite(out["log10"])
        assert out["delta3"] == 0.0
        assert out["rms"] == pytest.approx(2.0)  # rms uses the raw residual

    def test_validation(self):
        with pytest.raises(ValueError):
            depth_metrics([1.0], [1.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            depth_metrics([], [], [])
        with pytest.raises(ValueError):
            depth_metrics([1.0], [np.nan], [1.0])
        with pytest.raises(ValueError):
            depth_metrics([1.0], [-5.0], [1.0])  # still nonpositive after shift
