import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from ifecf.measures import (
    MeasureError,
    c_correlation,
    conditional_entropy,
    correlation,
    dispersion,
    entropy,
    feature_stats,
    information_gain,
)
from oracles import (
    cond_entropy_oracle,
    corr_oracle,
    dispersion_oracle,
    entropy_oracle,
    info_gain_oracle,
)


class TestCorrelation:
    def test_perfect_correlation(self):
        x = [1.0, 2.0, 3.0]
        assert correlation(x, x) == pytest.approx(1.0)
        assert correlation(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_derived_value(self):
        # oracle: num=3, sqrt(2)*sqrt(14/3)
        expected = corr_oracle([1, 2, 3], [1, 2, 4])
        assert expected == pytest.approx(0.9819805060619657)
        assert correlation([1, 2, 3], [1, 2, 4]) == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_error(self):
        with pytest.raises(MeasureError, match="zero-variance"):
            correlation([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=10), rng.normal(size=10)
        assert correlation(x, y) == pytest.approx(correlation(y, x), abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        a=st.floats(-5, 5).filter(lambda v: abs(v) > 1e-3),
        b=st.floats(-10, 10),
    )
    def test_scale_shift_invariance(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=8)
        y = rng.normal(size=8)
        r = correlation(x, y)
        assert correlation(a * x + b, y) == pytest.approx(math.copysign(1, a) * r, abs=1e-9)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_deterministic(self):
        assert entropy([1.0]) == 0.0

    def test_derived_value(self):
        expected = entropy_oracle([0.25, 0.75])
        assert expected == pytest.approx(0.8112781244591328)
        assert entropy([0.25, 0.75]) == pytest.approx(expected, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(MeasureError, match="negative"):
            entropy([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(MeasureError, match="sum"):
            entropy([0.5, 0.4])

    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(1, 16))
    def test_uniform_is_maximal(self, k):
        assert entropy([1 / k] * k) == pytest.approx(math.log2(k), abs=1e-9)


class TestConditionalEntropy:
    def test_fully_determined(self):
        a = [0, 1, 0, 1]
        assert conditional_entropy(a, a) == 0.0

    def test_independent(self):
        assert conditional_entropy([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(1.0)

    def test_derived_value(self):
        # 0.75 * H(1/3, 2/3) + 0.25 * 0
        expected = cond_entropy_oracle([0, 0, 1, 1], [0, 0, 0, 1])
        assert expected == pytest.approx(0.6887218755408672)
        assert conditional_entropy([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(
            expected, abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(MeasureError):
            conditional_entropy([0, 1], [0, 1, 2])

    def test_empty(self):
        with pytest.raises(MeasureError, match="empty"):
            conditional_entropy([], [])


class TestInformationGain:
    def test_identical_vars(self):
        a = [0, 0, 1, 1, 1]
        _, counts = np.unique(a, return_counts=True)
        assert information_gain(a, a) == pytest.approx(entropy(counts / counts.sum()))

    def test_independent(self):
        assert information_gain([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(4, 30))
    def test_symmetric_and_bounded(self, seed, m):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=m)
        b = rng.integers(0, 4, size=m)
        ig_ab = information_gain(a, b)
        ig_ba = information_gain(b, a)
        assert abs(ig_ab - ig_ba) <= 1e-9
        ha = info_gain_oracle(list(a), list(a))
        hb = info_gain_oracle(list(b), list(b))
        assert -1e-12 <= ig_ab <= min(ha, hb) + 1e-9


class TestDispersion:
    def test_constant(self):
        assert dispersion([3.0, 3.0, 3.0]) == 0.0

    def test_derived_value(self):
        expected = dispersion_oracle([1, 2, 3, 4])
        assert expected == pytest.approx(math.sqrt(1.25) / 2.5)
        assert dispersion([1, 2, 3, 4]) == pytest.approx(expected, abs=1e-12)
        assert dispersion([1, 2, 3, 4]) == pytest.approx(0.4472135954999579)

    def test_zero_mean_error(self):
        with pytest.raises(MeasureError, match="zero mean"):
            dispersion([-1.0, 1.0])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.floats(0.01, 100))
    def test_positive_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        x = rng.uniform(1, 10, size=12)
        assert dispersion(c * x) == pytest.approx(dispersion(x), rel=1e-9)


class TestDiscretizer:
    """c_correlation's equal-frequency binning on more than two classes,
    pinned against the information-gain oracle on bins built by hand."""

    def test_ten_bins_for_many_distinct_values(self):
        rng = np.random.default_rng(21)
        x = rng.permutation(40).astype(float)  # 40 distinct values: 10 bins of 4
        labels = rng.integers(0, 3, size=40)
        bins = [int(v) // 4 for v in x]
        assert c_correlation(x, labels, 3) == pytest.approx(
            info_gain_oracle(list(labels), bins), abs=1e-12
        )

    def test_tie_goes_to_lower_bin(self):
        # 0..20: the cuts fall exactly on the values 2, 4, ..., 18
        x = np.arange(21.0)
        labels = np.array([0, 0, 1, 2, 2, 1, 1, 0, 2, 0, 1, 2, 0, 1, 2, 2, 0, 1, 0, 2, 1])
        lower = [0 if v <= 2 else (v - 1) // 2 for v in range(21)]
        upper = [v // 2 if v < 20 else 9 for v in range(21)]
        ig_lower = info_gain_oracle(list(labels), lower)
        assert abs(ig_lower - info_gain_oracle(list(labels), upper)) > 1e-3
        assert c_correlation(x, labels, 3) == pytest.approx(ig_lower, abs=1e-12)

    def test_few_distinct_values(self):
        rng = np.random.default_rng(22)
        x = rng.choice([1.5, 2.0, 7.0, 9.0, 9.5, 11.0, 12.0, 13.0, 20.0, 21.0], size=60)
        labels = rng.integers(0, 4, size=60)
        assert c_correlation(x, labels, 4) == pytest.approx(
            info_gain_oracle(list(labels), list(x)), abs=1e-12
        )


class TestCCorrelation:
    def test_two_class_uses_abs_pearson(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        labels = np.array([0, 0, 1, 1])
        assert c_correlation(x, labels, 2) == pytest.approx(
            abs(corr_oracle(list(x), [0, 0, 1, 1]))
        )

    def test_constant_feature_scores_zero(self):
        assert c_correlation(np.ones(4), np.array([0, 1, 0, 1]), 2) == 0.0

    def test_multiclass_uses_ig(self):
        x = np.array([1.0, 1.1, 5.0, 5.1, 9.0, 9.1])
        labels = np.array([0, 0, 1, 1, 2, 2])
        score = c_correlation(x, labels, 3)
        assert score > 0.5  # perfectly separable: high gain

    def test_multiclass_order_free(self):
        x = np.array([1.0, 1.1, 5.0, 5.1, 9.0, 9.1])
        labels = np.array([0, 0, 1, 1, 2, 2])
        relabeled = np.array([2, 2, 0, 0, 1, 1])
        assert c_correlation(x, labels, 3) == pytest.approx(
            c_correlation(x, relabeled, 3), abs=1e-12
        )


class TestFeatureStats:
    def test_zero_mean_dispersion_is_none(self):
        d = make_dataset([[-1.0, 1.0], [1.0, 2.0]], [0, 1])
        stats = feature_stats(d)
        assert stats[0].dispersion is None
        assert stats[1].dispersion is not None

    def test_std_zero_iff_constant(self):
        d = make_dataset([[2.0, 1.0], [2.0, 3.0]], [0, 1])
        stats = feature_stats(d)
        assert stats[0].std_dev == 0.0
        assert stats[1].std_dev > 0.0
