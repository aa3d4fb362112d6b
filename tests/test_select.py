import math
import tracemalloc

import numpy as np
import pytest

from conftest import make_dataset, random_dataset
from ifecf.select import (
    SelectionConfig,
    SelectionError,
    apply_selection,
    cfs_merit,
    cfs_search,
    f_correlation_matrix,
    ife_cf,
    merit_value,
    relief,
)
from oracles import dispersion_oracle, exhaustive_search, merit_oracle, relief_oracle


def open_config(**kw):
    base = dict(delta=0.0, tau_c=0.0, tau_f=1.0)
    base.update(kw)
    return SelectionConfig(**base)


class TestIfeCf:
    def test_disabled_thresholds_keep_all(self):
        rng = np.random.default_rng(1)
        d = random_dataset(rng, m=30, n=4)
        r = ife_cf(d, open_config())
        assert r.kept == [0, 1, 2, 3]
        assert r.eliminated == []

    def test_duplicate_column_redundancy(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 40)
        base = rng.normal(size=40) + labels
        x = np.column_stack([base, base, rng.normal(size=40) + 2 * labels])
        d = make_dataset(x + 5, labels)
        r = ife_cf(d, open_config(tau_f=0.99))
        # exactly one copy of the duplicated pair survives
        assert (0 in r.kept) != (1 in r.kept)
        reasons = {j: reason for j, reason, _ in r.eliminated}
        dropped = 1 if 0 in r.kept else 0
        kept_twin = 0 if dropped == 1 else 1
        assert reasons[dropped] == f"redundant-with({kept_twin})"

    def test_four_feature_synthetic(self):
        # one constant, one pure noise, two informative duplicates
        rng = np.random.default_rng(3)
        m = 200
        labels = rng.integers(0, 2, m)
        info = labels + 0.05 * rng.normal(size=m) + 1.0
        x = np.column_stack(
            [
                np.full(m, 4.0),  # constant: dispersion 0
                rng.normal(size=m) * 0.001 + 100.0,  # near-constant noise: CD tiny
                info,
                info.copy(),
            ]
        )
        d = make_dataset(x, labels)
        r = ife_cf(d, SelectionConfig(delta=0.01, tau_c=0.1, tau_f=0.9))
        assert len(r.kept) == 1
        assert r.kept[0] in (2, 3)
        reasons = {j: reason for j, reason, _ in r.eliminated}
        assert reasons[0] == "low-dispersion"
        assert reasons[1] == "low-dispersion"

    def test_zero_mean_exempt_and_flagged(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, 20)
        col = rng.normal(size=20)
        col -= col.mean()  # exactly zero mean
        x = np.column_stack([col, rng.normal(size=20) + labels + 3])
        d = make_dataset(x, labels)
        r = ife_cf(d, open_config(delta=0.5))
        assert any(j == 0 for j, _ in r.flags)
        assert 0 in r.kept or any(j == 0 for j, _, _ in r.eliminated)

    def test_all_eliminated_error(self):
        d = make_dataset([[1.0], [1.0001], [1.0], [1.0001]], [0, 1, 0, 1])
        with pytest.raises(SelectionError, match="all features eliminated"):
            ife_cf(d, SelectionConfig(delta=0.5, tau_c=0.0, tau_f=1.0))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, m=50, n=6)
        cfg = SelectionConfig()
        a, b = ife_cf(d, cfg), ife_cf(d, cfg)
        assert a.kept == b.kept
        assert a.eliminated == b.eliminated

    def test_dispersion_pass_scale_invariant(self):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, m=40, n=5)
        scaled = make_dataset(d.features * 7.5, d.labels)
        r1 = ife_cf(d, SelectionConfig(delta=0.3, tau_c=0.0, tau_f=1.0))
        r2 = ife_cf(scaled, SelectionConfig(delta=0.3, tau_c=0.0, tau_f=1.0))
        pass1 = lambda r: sorted(j for j, reason, _ in r.eliminated if reason == "low-dispersion")
        assert pass1(r1) == pass1(r2)


class TestMerit:
    def test_k1_equals_ccorr(self):
        rng = np.random.default_rng(7)
        d = random_dataset(rng, m=30, n=3)
        from ifecf.measures import c_correlation

        for j in range(3):
            m = cfs_merit(d, [j])
            expected = abs(c_correlation(d.features[:, j], d.labels, d.class_count))
            assert m == pytest.approx(expected, abs=1e-12)

    def test_formula_against_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            k = int(rng.integers(1, 12))
            r_cf = float(rng.uniform(0, 1))
            r_ff = float(rng.uniform(0, 1))
            assert merit_value(k, r_cf, r_ff) == pytest.approx(
                merit_oracle(k, r_cf, r_ff), abs=1e-12
            )

    def test_k2_derived_value(self):
        assert merit_value(2, 0.5, 0.3) == pytest.approx(1.0 / math.sqrt(2.6), abs=1e-12)
        assert merit_value(2, 0.5, 0.3) == pytest.approx(0.6201736729460423, abs=1e-9)

    def test_k2_zero_rff_reduction(self):
        r_cf = 0.4
        assert merit_value(2, r_cf, 0.0) == pytest.approx(math.sqrt(2) * r_cf, abs=1e-12)

    def test_empty_subset_error(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng)
        with pytest.raises(SelectionError, match="empty"):
            cfs_merit(d, [])


class TestSearch:
    def test_single_feature(self):
        rng = np.random.default_rng(10)
        d = random_dataset(rng, m=30, n=1)
        r = cfs_search(d, SelectionConfig())
        assert r.kept == [0]

    def test_matches_exhaustive_small(self):
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            d = random_dataset(rng, m=40, n=int(rng.integers(2, 8)))
            best_bffs = max(m for _, m in cfs_search(d, SelectionConfig()).merit_trace)
            best_exh, _ = exhaustive_search(d)
            if abs(best_bffs - best_exh) <= 1e-9:
                hits += 1
        assert hits >= 29

    def test_exhaustive_dominates_bffs(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            d = random_dataset(rng, m=40, n=8)
            exh, _ = exhaustive_search(d)
            bffs = max(m for _, m in cfs_search(d, SelectionConfig()).merit_trace)
            assert exh >= bffs - 1e-12

    @pytest.mark.parametrize("classes", [2, 3])
    def test_trace_merits_match_cfs_merit(self, classes):
        # the search's running sums against the one-subset merit
        rng = np.random.default_rng(23)
        d = random_dataset(rng, m=60, n=9, classes=classes)
        trace = cfs_search(d, SelectionConfig()).merit_trace
        assert len(trace) > 9
        for subset, m in trace:
            assert type(m) is float
            assert m == pytest.approx(cfs_merit(d, subset), abs=1e-12)

    def test_strong_single_feature_wins(self):
        rng = np.random.default_rng(13)
        m = 300
        labels = rng.integers(0, 2, m)
        strong = labels + 0.01 * rng.normal(size=m)
        weak = rng.normal(size=m) * 0.5 + 0.2 * labels
        x = np.column_stack([strong, weak, weak + 0.01 * rng.normal(size=m)])
        d = make_dataset(x, labels)
        r = cfs_search(d, SelectionConfig())
        _, exh_subset = exhaustive_search(d)
        assert exh_subset == (0,)
        assert r.kept == [0]


class TestRelief:
    def test_constant_feature_zero_weight(self):
        rng = np.random.default_rng(14)
        labels = rng.integers(0, 2, 30)
        x = np.column_stack([np.full(30, 2.0), rng.normal(size=30) + labels])
        d = make_dataset(x, labels)
        w = relief(d, SelectionConfig(relief_samples=30))
        assert w[0] == 0.0

    def test_informative_beats_noise(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = 60
            labels = rng.integers(0, 2, m)
            x = np.column_stack(
                [labels.astype(float) + 0.05 * rng.normal(size=m), rng.uniform(size=m)]
            )
            d = make_dataset(x, labels)
            w = relief(d, SelectionConfig(relief_samples=m, seed=seed))
            if w[0] > w[1]:
                wins += 1
        assert wins >= 95

    def test_deterministic_full_sample(self):
        rng = np.random.default_rng(15)
        d = random_dataset(rng, m=25, n=4)
        cfg = SelectionConfig(relief_samples=25, seed=3)
        w1 = relief(d, cfg)
        w2 = relief(d, cfg)
        assert np.array_equal(w1, w2)

    def test_single_instance_class_error(self):
        d = make_dataset([[1.0], [2.0], [3.0]], [0, 0, 1])
        with pytest.raises(SelectionError, match="single instance"):
            relief(d, SelectionConfig(relief_samples=2))

    def test_duplicated_feature_weights_match(self):
        rng = np.random.default_rng(16)
        m = 40
        labels = rng.integers(0, 2, m)
        info = labels + 0.1 * rng.normal(size=m)
        x = np.column_stack([info, info.copy(), rng.normal(size=m)])
        d = make_dataset(x, labels)
        w = relief(d, SelectionConfig(relief_samples=m, seed=2))
        assert abs(w[0] - w[1]) <= 1e-9

    def test_weights_bounded(self):
        rng = np.random.default_rng(17)
        d = random_dataset(rng, m=50, n=6)
        w = relief(d, SelectionConfig(relief_samples=50))
        assert np.all(w >= -1.0) and np.all(w <= 1.0)

    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("samples", [12, 40])
    def test_weights_match_oracle(self, classes, samples):
        rng = np.random.default_rng(30 + classes)
        d = random_dataset(rng, m=40, n=5, classes=classes)
        cfg = SelectionConfig(relief_samples=samples, seed=4)
        # relief draws its picks from the seeded generator this way
        picks = np.random.default_rng(4).choice(40, size=samples, replace=False)
        want = relief_oracle(d.features.tolist(), d.labels.tolist(), picks.tolist())
        assert np.allclose(relief(d, cfg), want, rtol=0, atol=1e-12)


class TestApplySelection:
    def test_keep_all_identity(self):
        rng = np.random.default_rng(18)
        d = random_dataset(rng, m=10, n=3)
        r = ife_cf(d, open_config())
        out = apply_selection(d, r)
        assert np.array_equal(out.features, d.features)

    def test_projection_order(self):
        from ifecf.select import SelectionResult

        d = make_dataset([[1, 2, 3], [4, 5, 6]], [0, 1])
        r = SelectionResult(kept=[2, 0], eliminated=[(1, "low-dispersion", 0.0)])
        out = apply_selection(d, r)
        assert out.features.tolist() == [[3, 1], [6, 4]]

    def test_arity_mismatch(self):
        from ifecf.select import SelectionResult

        d = make_dataset([[1, 2, 3], [4, 5, 6]], [0, 1])
        r = SelectionResult(kept=[0], eliminated=[])
        with pytest.raises(SelectionError, match="covers 1"):
            apply_selection(d, r)


class TestVectorizedPasses:
    def test_dispersion_scores_match_scalar(self):
        from ifecf.measures import dispersion_scores

        rng = np.random.default_rng(19)
        x = rng.uniform(1, 5, size=(30, 6))
        x[:, 2] = np.tile([-1.5, 0.5, 1.0], 10)  # mean exactly 0
        scores = dispersion_scores(x)
        assert math.isnan(scores[2])
        for j in (0, 1, 3, 4, 5):
            assert scores[j] == pytest.approx(dispersion_oracle(list(x[:, j])), abs=1e-12)

    def test_f_correlation_matrix_matches_scalar(self):
        from ifecf.measures import correlation

        rng = np.random.default_rng(20)
        x = rng.normal(size=(25, 5))
        r = f_correlation_matrix(x)
        for i in range(5):
            for j in range(i + 1, 5):
                assert r[i, j] == pytest.approx(
                    abs(correlation(x[:, i], x[:, j])), abs=1e-12
                )

    def test_f_correlation_matrix_peak_memory(self):
        x = np.random.default_rng(21).normal(size=(200, 1000))
        tracemalloc.start()
        try:
            r = f_correlation_matrix(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the N x N result is the only matrix of its size: |r| and the clip work in place
        assert peak <= 1.6 * r.nbytes

    def test_zero_variance_column_is_zero(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        r = f_correlation_matrix(x)
        assert r[0, 1] == 0.0
