import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lung_like, make_dataset
from ifecf import measures
from ifecf.measures import (
    MeasureError,
    c_correlation,
    correlation,
    dispersion_scores,
    f_correlation_matrix,
    feature_stats,
)
from oracles import (
    cond_entropy_oracle,
    corr_oracle,
    cut_points_oracle,
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

    @pytest.mark.parametrize("value", [5.0, 0.1, 1 / 3, -2.7])
    @pytest.mark.parametrize("m", [3, 5])
    def test_every_constant_input_raises(self, value, m):
        # whether or not the mean of m copies of value is exact: the mean of
        # three copies of 0.1 is not, and leaves a nonzero spread
        ramp = np.arange(m, dtype=np.float64)
        for x, y in (([value] * m, ramp), (ramp, [value] * m), ([value] * m, [value] * m)):
            with pytest.raises(MeasureError, match="zero-variance"):
                correlation(x, y)

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


def gain(a, b) -> float:
    """Multi-class ``c_correlation`` of the column b against the class ids a,
    with at least 3 classes and room for every id in a; b has at most 10
    distinct values, so each value is its own bin."""
    return float(c_correlation(np.asarray(b, dtype=np.float64)[:, None], a, max([2, *a]) + 1)[0])


class TestEntropy:
    """The class entropy inside c_correlation: a column that repeats the class
    id gains all of it, IG(A|A) = E(A)."""

    def test_uniform_binary(self):
        assert gain([0, 1], [0, 1]) == pytest.approx(1.0)

    def test_deterministic(self):
        assert gain([2, 2, 2], [2, 2, 2]) == 0.0

    def test_derived_value(self):
        expected = entropy_oracle([0.25, 0.75])
        assert expected == pytest.approx(0.8112781244591328)
        assert gain([0, 1, 1, 1], [0, 1, 1, 1]) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(k=st.integers(1, 10))
    def test_uniform_is_maximal(self, k):
        a = np.arange(k).repeat(3)
        assert gain(a, a) == pytest.approx(math.log2(k), abs=1e-9)


class TestConditionalEntropy:
    """E(A|B) inside c_correlation, seen through IG(A|B) = E(A) - E(A|B)."""

    def test_fully_determined(self):
        a = [0, 1, 0, 1]
        assert gain(a, a) == info_gain_oracle(a, a)

    def test_independent(self):
        assert cond_entropy_oracle([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(1.0)
        assert gain([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_derived_value(self):
        # 1 - (0.75 * H(1/3, 2/3) + 0.25 * 0)
        expected = cond_entropy_oracle([0, 0, 1, 1], [0, 0, 0, 1])
        assert expected == pytest.approx(0.6887218755408672)
        assert gain([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(1.0 - expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(MeasureError, match="labels"):
            gain([0, 1], [0, 1, 2])

    def test_empty(self):
        with pytest.raises(MeasureError, match="empty"):
            gain([], [])


class TestInformationGain:
    def test_identical_vars(self):
        a = [0, 0, 1, 1, 1]
        _, counts = np.unique(a, return_counts=True)
        assert gain(a, a) == pytest.approx(entropy_oracle(counts / counts.sum()), abs=1e-12)

    def test_independent(self):
        assert gain([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(4, 30))
    def test_symmetric_and_bounded(self, seed, m):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=m)
        b = rng.integers(0, 4, size=m)
        ig_ab = gain(a, b)
        ig_ba = gain(b, a)
        assert abs(ig_ab - ig_ba) <= 1e-9
        ha = info_gain_oracle(list(a), list(a))
        hb = info_gain_oracle(list(b), list(b))
        assert 0.0 <= ig_ab <= min(ha, hb) + 1e-9


def dispersion(x) -> float:
    """``dispersion_scores`` of one vector."""
    return float(dispersion_scores(np.asarray(x, dtype=np.float64)[:, None])[0])


class TestDispersion:
    def test_constant(self):
        assert dispersion([3.0, 3.0, 3.0]) == 0.0

    def test_derived_value(self):
        expected = dispersion_oracle([1, 2, 3, 4])
        assert expected == pytest.approx(math.sqrt(1.25) / 2.5)
        assert dispersion([1, 2, 3, 4]) == pytest.approx(expected, abs=1e-12)
        assert dispersion([1, 2, 3, 4]) == pytest.approx(0.4472135954999579)

    def test_zero_mean_is_nan(self):
        assert math.isnan(dispersion([-1.0, 1.0]))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.floats(0.01, 100))
    def test_positive_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        x = rng.uniform(1, 10, size=12)
        assert dispersion(c * x) == pytest.approx(dispersion(x), rel=1e-9)


class TestExtremeMagnitudes:
    """Columns are scaled by a power of two before squaring, so a finite
    column of any magnitude scores as the same column at unit scale does."""

    def test_correlation_of_huge_values(self):
        x = np.array([1e200, -1e200, 1e200, 0.0])
        y = [1.0, 0.0, 1.0, 0.5]
        assert correlation(x, y) == pytest.approx(correlation(x / 1e200, y), abs=1e-15)
        assert correlation(x, y) == pytest.approx(1.0)

    def test_correlation_of_tiny_values(self):
        x = [1e-170, 2e-170, 3e-170]
        assert correlation(x, [1, 2, 3]) == pytest.approx(1.0)

    def test_two_class_c_correlation_of_huge_values(self):
        x = np.array([[1e200], [-1e200], [1e200], [0.0]])
        labels = np.array([1, 0, 1, 0])
        assert c_correlation(x, labels, 2) == pytest.approx(c_correlation(x / 1e200, labels, 2))
        assert c_correlation(x, labels, 2)[0] > 0.9

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_f_correlation_matrix(self, scale):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(30, 3))
        x[:, 1] = 2 * x[:, 0] + 0.1 * x[:, 1]
        assert np.allclose(f_correlation_matrix(x * scale), f_correlation_matrix(x),
                           rtol=1e-12, atol=0)

    def test_dispersion_of_tiny_values(self):
        assert dispersion([1e-170, 2e-170, 3e-170]) == pytest.approx(dispersion([1, 2, 3]))

    def test_dispersion_of_a_near_zero_mean(self):
        # deviations near 1 over a mean near 1e-300: a ratio near 1e300, not inf
        assert dispersion([1.0, -1.0, 3e-300]) == pytest.approx(math.sqrt(2 / 3) * 1e300)

    def test_dispersion_of_huge_values(self):
        x = [1e200, 1.0000001e200, 0.9999999e200]
        unit = dispersion([1.0, 1.0000001, 0.9999999])
        assert unit == pytest.approx(8.16e-08, rel=1e-3)
        assert dispersion(x) == pytest.approx(unit, rel=1e-6)


class TestNearFloatMax:
    """Columns are scaled by a power of two before their mean, so a column
    whose sum would overflow scores as the same column at unit scale does,
    and a power-of-two multiple of a column scores bit for bit the same."""

    def test_correlation(self):
        x = [1.5e308, 1.6e308, 0.0]
        assert correlation(x, [1, 2, 3]) == pytest.approx(corr_oracle([1.5, 1.6, 0.0], [1, 2, 3]))
        assert correlation(x, [1, 2, 3]) == pytest.approx(-0.8368, abs=1e-4)

    def test_dispersion(self):
        got = dispersion_scores(np.array([[1.5e308], [1.6e308], [1.0e308]]))
        assert got[0] == pytest.approx(dispersion_oracle([1.5, 1.6, 1.0]))
        assert got[0] == pytest.approx(0.192, abs=1e-3)

    def test_f_correlation_matrix(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0.5, 1.0, size=(30, 3))
        x[:, 1] = 0.5 * x[:, 0] + 0.1 * x[:, 1]
        huge = x * 2.0**1023
        assert (x.sum(axis=0) >= 2.0).all()  # so each column of huge sums past 2**1024
        assert f_correlation_matrix(huge).tobytes() == f_correlation_matrix(x).tobytes()
        assert f_correlation_matrix(x)[0, 1] > 0.9

    def test_two_class_c_correlation(self):
        x = np.array([[1.5], [1.6], [0.0], [1.0]])
        labels = np.array([1, 1, 0, 0])
        unit = c_correlation(x, labels, 2)
        assert unit[0] == pytest.approx(abs(corr_oracle([1.5, 1.6, 0.0, 1.0], [1, 1, 0, 0])))
        assert c_correlation(x * 1e308, labels, 2) == pytest.approx(unit)
        assert c_correlation(x * 2.0**1023, labels, 2).tobytes() == unit.tobytes()

    @pytest.mark.parametrize("exponent", [-1000, 1000, 1022])
    def test_power_of_two_multiples_keep_their_bits(self, exponent):
        x = np.random.default_rng(22).uniform(1.0, 3.0, size=(40, 4))
        scaled = x * 2.0**exponent
        assert dispersion_scores(scaled).tobytes() == dispersion_scores(x).tobytes()
        assert f_correlation_matrix(scaled).tobytes() == f_correlation_matrix(x).tobytes()


class TestDiscretizer:
    """c_correlation's equal-frequency binning on more than two classes,
    pinned against the information-gain oracle on bins built by hand."""

    def test_ten_bins_for_many_distinct_values(self):
        rng = np.random.default_rng(21)
        x = rng.permutation(40).astype(float)  # 40 distinct values: 10 bins of 4
        labels = rng.integers(0, 3, size=40)
        bins = [int(v) // 4 for v in x]
        assert c_correlation(x[:, None], labels, 3)[0] == pytest.approx(
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
        assert c_correlation(x[:, None], labels, 3)[0] == pytest.approx(ig_lower, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 9, 10, 11, 12, 37, 100, 1001])
    def test_cuts_match_numpy_quantile(self, m):
        rng = np.random.default_rng(23 + m)
        x = np.column_stack([rng.normal(size=m), rng.integers(-3, 4, m).astype(float),
                             rng.integers(0, 12, m) * 0.5, rng.normal(size=m) * 1e300,
                             rng.choice([-0.0, 0.0, 1.0], m), np.zeros(m)])
        s = np.sort(x, axis=0)
        cuts = measures._cut_points(s)
        assert np.array_equal(s, np.sort(x, axis=0))  # the block is left as it is
        np.testing.assert_array_equal(cuts, cut_points_oracle(s))  # by value: -0.0 == 0.0

    @pytest.mark.parametrize("shape", ["lung_like", "tall"])
    def test_scores_bit_for_bit_on_numpy_quantile_cuts(self, monkeypatch, shape):
        if shape == "lung_like":
            d = lung_like()
            x, labels, k = d.features, d.labels, d.class_count
        else:  # the tall benchmark's shape: k Gaussian classes, unit noise
            rng = np.random.default_rng(24)
            labels = rng.integers(0, 5, size=100_000)
            x = rng.normal(size=(5, 20))[labels] + rng.normal(size=(100_000, 20))
            k = 5
        scores = c_correlation(x, labels, k)
        monkeypatch.setattr(measures, "_cut_points", cut_points_oracle)
        assert scores.tobytes() == c_correlation(x, labels, k).tobytes()

    def test_few_distinct_values(self):
        rng = np.random.default_rng(22)
        x = rng.choice([1.5, 2.0, 7.0, 9.0, 9.5, 11.0, 12.0, 13.0, 20.0, 21.0], size=60)
        labels = rng.integers(0, 4, size=60)
        assert c_correlation(x[:, None], labels, 4)[0] == pytest.approx(
            info_gain_oracle(list(labels), list(x)), abs=1e-12
        )


class TestCCorrelation:
    def test_two_class_uses_abs_pearson(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        labels = np.array([0, 0, 1, 1])
        assert c_correlation(x, labels, 2)[0] == pytest.approx(
            abs(corr_oracle(list(x[:, 0]), [0, 0, 1, 1]))
        )

    def test_constant_feature_scores_zero(self):
        assert c_correlation(np.ones((4, 1)), np.array([0, 1, 0, 1]), 2)[0] == 0.0

    def test_multiclass_uses_ig(self):
        x = np.array([[1.0], [1.1], [5.0], [5.1], [9.0], [9.1]])
        labels = np.array([0, 0, 1, 1, 2, 2])
        score = c_correlation(x, labels, 3)[0]
        assert score > 0.5  # perfectly separable: high gain

    def test_multiclass_order_free(self):
        x = np.array([[1.0], [1.1], [5.0], [5.1], [9.0], [9.1]])
        labels = np.array([0, 0, 1, 1, 2, 2])
        relabeled = np.array([2, 2, 0, 0, 1, 1])
        assert c_correlation(x, labels, 3)[0] == pytest.approx(
            c_correlation(x, relabeled, 3)[0], abs=1e-12
        )

    @pytest.mark.parametrize("classes", [2, 3, 4])
    def test_columns_match_oracles(self, classes):
        # columns of 40 distinct values (10 bins of 4 on more than two
        # classes), of 10 or fewer values (one bin each), and one constant
        rng = np.random.default_rng(40 + classes)
        labels = rng.integers(0, classes, size=40)
        labels[:classes] = np.arange(classes)
        x = np.column_stack(
            [rng.permutation(40).astype(float) for _ in range(3)]
            + [rng.choice([1.5, 2.0, 7.0, 9.0, 11.0, 20.0], size=40) for _ in range(2)]
            + [np.full(40, 3.0)]
        )
        x[:, 0] = np.argsort(np.argsort(labels + rng.uniform(size=40)))  # ranks follow the class
        scores = c_correlation(x, labels, classes)
        assert scores.shape == (6,)
        for j in range(6):
            col = x[:, j].tolist()
            if j == 5:
                expected = 0.0
            elif classes == 2:
                expected = abs(corr_oracle(col, labels.tolist()))
            elif j < 3:
                ranks = {v: i for i, v in enumerate(sorted(col))}
                expected = info_gain_oracle(labels.tolist(), [ranks[v] // 4 for v in col])
            else:
                expected = info_gain_oracle(labels.tolist(), col)
            assert scores[j] == pytest.approx(expected, abs=1e-12)

        perm = rng.permutation(6)
        np.testing.assert_allclose(c_correlation(x[:, perm], labels, classes), scores[perm],
                                   rtol=0, atol=1e-15)

        same = np.zeros(40, dtype=np.int64)
        if classes == 2:
            with pytest.raises(MeasureError, match="zero-variance"):
                c_correlation(x, same, classes)
        else:  # one class carries no information
            assert c_correlation(x, same, classes).tolist() == [0.0] * 6


    @pytest.mark.parametrize("classes", [2, 3])
    def test_label_outside_classes_raises(self, classes):
        x = np.arange(12.0).reshape(6, 2)
        for bad in (classes, -1):
            labels = np.array([0, 1, 1, 0, bad, 1])
            with pytest.raises(MeasureError, match="class ids"):
                c_correlation(x, labels, classes)
        with pytest.raises(MeasureError, match="class ids"):
            c_correlation(x, np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0]), classes)

    def test_multiclass_labels_are_used_as_ids(self):
        # no copy or inverse of the labels: one 100000x20, 5-class call peaks
        # at the temporaries of one column block
        rng = np.random.default_rng(42)
        x = rng.normal(size=(100_000, 20))
        labels = rng.integers(0, 5, size=100_000)
        c_correlation(x[:100], labels[:100], 5)  # numpy's lazy imports are not the call's
        tracemalloc.start()
        try:
            c_correlation(x, labels, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20

    def test_multiclass_peak_memory_bounded_by_block(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(20_000, 20))
        labels = rng.integers(0, 5, size=20_000)
        tracemalloc.start()
        try:
            c_correlation(x, labels, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # columns go through in blocks of about BLOCK_CELLS values, so the
        # temporaries stay below the size of the input
        assert peak < x.nbytes


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

    @pytest.mark.parametrize("exponent", [-1000, -612, 0, 1022])
    def test_moments_scale_with_the_column(self, exponent):
        # numpy's moments at unit scale, scaled: at 2**1022 the raw column sum
        # overflows, at 2**-612 (about 1e-184) the squared deviations underflow
        x = np.random.default_rng(23).uniform(1.0, 3.0, size=(40, 4))
        stats = feature_stats(make_dataset(x * 2.0**exponent, np.arange(40) % 2))
        assert [s.mean for s in stats] == (x.mean(axis=0) * 2.0**exponent).tolist()
        assert [s.std_dev for s in stats] == (x.std(axis=0) * 2.0**exponent).tolist()
