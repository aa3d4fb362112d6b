import numpy as np
import pytest

from conftest import make_dataset, random_dataset
from ifecf import bench
from ifecf.bench import (
    BenchError,
    SweepConfig,
    cell_seed,
    paper_efficiency,
    run_sweep,
    timing_stability,
)
from ifecf.select import SelectionConfig


def small_sweep(**kw):
    base = dict(fractions=(0.5, 0.7), alphas=(0.1, 0.3), repeats=1, epochs=5)
    base.update(kw)
    return SweepConfig(**base)


class TestSweepConfig:
    def test_defaults_match_grid(self):
        cfg = SweepConfig()
        assert len(cfg.fractions) == 9
        assert len(cfg.alphas) == 5

    def test_validation(self):
        with pytest.raises(BenchError):
            SweepConfig(fractions=(0.0,))
        with pytest.raises(BenchError):
            SweepConfig(alphas=(1.5,))
        with pytest.raises(BenchError):
            SweepConfig(repeats=0)
        with pytest.raises(BenchError):
            SweepConfig(epochs=0)
        with pytest.raises(BenchError):
            SweepConfig(eval_target="validation")


class TestRunSweep:
    def test_record_count_default_grid(self, pima_dataset):
        cfg = SweepConfig(repeats=1, epochs=3, selection=SelectionConfig())
        report = run_sweep(pima_dataset, cfg)
        assert len(report.records) == 9 * 5 * 2

    def test_single_cell(self):
        rng = np.random.default_rng(0)
        d = random_dataset(rng, m=60, n=4)
        report = run_sweep(d, SweepConfig(fractions=(0.5,), alphas=(0.1,), repeats=1))
        assert len(report.records) == 1
        assert 0.0 <= report.records[0].accuracy <= 100.0

    def test_deterministic_accuracy(self):
        rng = np.random.default_rng(1)
        d = random_dataset(rng, m=80, n=5)
        cfg = small_sweep(seed=7)
        a = run_sweep(d, cfg)
        b = run_sweep(d, cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.accuracy == rb.accuracy
            assert ra.correct == rb.correct

    def test_paper_efficiency_on_test_counts_is_accuracy(self):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, m=60, n=4)
        report = run_sweep(d, small_sweep(eval_target="test"))
        for r in report.records:
            assert paper_efficiency(r.correct, r.total) == pytest.approx(r.accuracy)

    def test_paper_efficiency_can_exceed_100(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, m=100, n=4)
        report = run_sweep(d, small_sweep(fractions=(0.9,), alphas=(0.1,)))
        assert report.records[0].paper_efficiency > 100.0

    def test_selection_variant_projects_features(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, 80)
        info = labels + 0.1 * rng.normal(size=80) + 2
        x = np.column_stack([info, info + 0.01 * rng.normal(size=80),
                             rng.normal(size=80) * 0.001 + 50])
        d = make_dataset(x, labels)
        cfg = small_sweep(selection=SelectionConfig(delta=0.01, tau_c=0.1, tau_f=0.9))
        report = run_sweep(d, cfg)
        reduced = [r for r in report.records if r.variant == "reduced"]
        assert reduced and all(r.selection["kept_count"] < 3 for r in reduced)

    def test_whole_count_reuses_target_evaluation(self, monkeypatch):
        rng = np.random.default_rng(5)
        d = random_dataset(rng, m=70, n=4)
        calls = []
        original = bench.evaluate

        def counting(model, data):
            calls.append(data.n_instances)
            return original(model, data)

        monkeypatch.setattr(bench, "evaluate", counting)
        efficiency = {}
        for target, per_cell in (("test", 3), ("train", 3), ("whole", 4)):
            calls.clear()
            cfg = small_sweep(fractions=(0.6,), alphas=(0.2,), repeats=2, eval_target=target)
            (rec,) = run_sweep(d, cfg).records
            assert len(calls) == per_cell
            efficiency[target] = rec.paper_efficiency
            if target == "whole":
                assert rec.paper_efficiency == paper_efficiency(rec.correct, 70 - 42)
        assert efficiency["test"] == efficiency["train"] == efficiency["whole"]

    def test_one_split_per_cell(self, monkeypatch):
        rng = np.random.default_rng(6)
        d = random_dataset(rng, m=60, n=4)
        calls = []
        original = bench.split

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(bench, "split", counting)
        report = run_sweep(d, small_sweep(selection=SelectionConfig(tau_c=0.0)))
        assert len(report.records) == 8
        assert len(calls) == 4

    def test_one_train_per_cell(self, monkeypatch):
        rng = np.random.default_rng(13)
        d = random_dataset(rng, m=60, n=4)
        calls = []
        original = bench.lvq_train

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(bench, "lvq_train", counting)
        selection = SelectionConfig(tau_c=0.0)
        report = run_sweep(d, small_sweep(repeats=3, selection=selection))
        assert len(report.records) == 8
        assert len(calls) == len(report.records)
        assert all("train_ms_repeats" not in r.to_dict() for r in report.records)
        assert all(len(r.classify_ms_repeats) == 3 for r in report.records)
        once = run_sweep(d, small_sweep(repeats=1, selection=selection))
        keys = ("fraction", "alpha", "variant", "accuracy", "paper_efficiency",
                "correct", "total", "selection")
        assert [[getattr(r, k) for k in keys] for r in report.records] == \
            [[getattr(r, k) for k in keys] for r in once.records]

    @pytest.mark.parametrize("normalize", [True, False])
    def test_reduced_equals_original_on_projected_data(self, normalize):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 3, 90)
        x = np.column_stack([labels + 0.5 * rng.normal(size=90) + 3,
                             rng.normal(size=90) + 5,
                             50 + 0.001 * rng.normal(size=90),  # fails the dispersion pass
                             2 * labels + rng.normal(size=90) + 10])
        d = make_dataset(x, labels)
        selection = SelectionConfig(delta=0.01, tau_c=0.0, tau_f=1.0)
        full = run_sweep(d, small_sweep(selection=selection, normalize=normalize))
        reduced = [r for r in full.records if r.variant == "reduced"]
        assert all(r.selection["kept"] == [0, 1, 3] for r in reduced)
        projected = run_sweep(d.project([0, 1, 3]), small_sweep(normalize=normalize))
        keys = ("fraction", "alpha", "accuracy", "paper_efficiency", "correct", "total")
        assert [[getattr(r, k) for k in keys] for r in reduced] == \
            [[getattr(r, k) for k in keys] for r in projected.records]


class TestAccuracyTable:
    def test_missing_cell_raises(self):
        rng = np.random.default_rng(11)
        report = run_sweep(random_dataset(rng, m=60, n=4), small_sweep())
        assert [row[0] for row in report.accuracy_table("original")] == ["50-50", "70-30"]
        with pytest.raises(BenchError, match="no record"):
            report.accuracy_table("reduced")

    def test_repeated_fraction_reads_first_record(self):
        rng = np.random.default_rng(12)
        report = run_sweep(random_dataset(rng, m=60, n=4),
                           small_sweep(fractions=(0.5, 0.5), alphas=(0.1,)))
        first = f"{report.records[0].accuracy:.2f}"
        assert [row[1] for row in report.accuracy_table("original")] == [first, first]


class TestPaperEfficiency:
    def test_table1_50_50_reading(self):
        assert paper_efficiency(472, 384) == pytest.approx(122.9, abs=0.05)

    def test_zero_correct(self):
        assert paper_efficiency(0, 10) == 0.0

    def test_reduces_to_accuracy_on_test_only(self):
        assert paper_efficiency(77, 77) == 100.0

    def test_zero_total(self):
        with pytest.raises(BenchError):
            paper_efficiency(5, 0)


class TestCellSeed:
    def test_stable_under_grid_growth(self):
        assert cell_seed(42, 0, 0) == cell_seed(42, 0, 0)
        seeds = {cell_seed(42, i, j) for i in range(9) for j in range(5)}
        assert len(seeds) == 45

    def test_master_seed_changes_cells(self):
        assert cell_seed(1, 0, 0) != cell_seed(2, 0, 0)


class TestTimingStability:
    def test_requires_three_repeats(self):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, m=40, n=3)
        report = run_sweep(d, small_sweep(repeats=1))
        with pytest.raises(BenchError, match="repeats"):
            timing_stability(report)

    def test_flags_present(self):
        rng = np.random.default_rng(9)
        d = random_dataset(rng, m=40, n=3)
        report = run_sweep(d, small_sweep(repeats=3))
        out = timing_stability(report)
        assert "flagged" in out
        assert len(out["cells"]) == len(report.records)
