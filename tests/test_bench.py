import platform
import subprocess
from dataclasses import replace

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
    variant_grids,
)
from ifecf.lvq import LVQError, lockstep_nbytes
from ifecf.select import SelectionConfig, SelectionError


def accuracy_fields(report):
    keys = ("fraction", "alpha", "variant", "accuracy", "paper_efficiency",
            "correct", "total", "selection")
    return [[r[k] for k in keys] for r in report.records]


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

    @pytest.mark.parametrize("field, value", [
        ("repeats", 2.5), ("repeats", True), ("epochs", 2.5), ("epochs", "5"),
        ("seed", 1.5), ("seed", "x"), ("seed", None),
    ])
    def test_integer_fields(self, field, value):
        with pytest.raises(BenchError, match=f"{field} must be an integer"):
            SweepConfig(**{field: value})

    def test_repeated_fraction_or_alpha_raises(self):
        # two cells of one name: the CSVs and charts could not tell them apart
        with pytest.raises(BenchError, match="^fractions must not repeat a value$"):
            SweepConfig(fractions=(0.3, 0.3, 0.7))
        with pytest.raises(BenchError, match="^alphas must not repeat a value$"):
            SweepConfig(alphas=(0.1, 0.1))
        assert SweepConfig(fractions=(0.7, 0.3), alphas=(0.2, 0.1)).fractions == (0.7, 0.3)

    def test_negative_seed_is_valid(self):
        assert SweepConfig(seed=-3).seed == -3  # cell_seed hashes it


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
        assert 0.0 <= report.records[0]["accuracy"] <= 100.0

    def test_negative_master_seed(self):
        # cell_seed hashes the master seed, so every cell still gets a seed >= 0
        d = random_dataset(np.random.default_rng(0), m=60, n=4)
        assert len(run_sweep(d, small_sweep(seed=-1)).records) == 4

    def test_deterministic_accuracy(self):
        rng = np.random.default_rng(1)
        d = random_dataset(rng, m=80, n=5)
        cfg = small_sweep(seed=7)
        a = run_sweep(d, cfg)
        b = run_sweep(d, cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra["accuracy"] == rb["accuracy"]
            assert ra["correct"] == rb["correct"]

    def test_paper_efficiency_on_test_counts_is_accuracy(self):
        rng = np.random.default_rng(2)
        d = random_dataset(rng, m=60, n=4)
        report = run_sweep(d, small_sweep(eval_target="test"))
        for r in report.records:
            assert paper_efficiency(r["correct"], r["total"]) == pytest.approx(r["accuracy"])

    def test_paper_efficiency_can_exceed_100(self):
        rng = np.random.default_rng(3)
        d = random_dataset(rng, m=100, n=4)
        report = run_sweep(d, small_sweep(fractions=(0.9,), alphas=(0.1,)))
        assert report.records[0]["paper_efficiency"] > 100.0

    def test_selection_variant_projects_features(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, 80)
        info = labels + 0.1 * rng.normal(size=80) + 2
        x = np.column_stack([info, info + 0.01 * rng.normal(size=80),
                             rng.normal(size=80) * 0.001 + 50])
        d = make_dataset(x, labels)
        cfg = small_sweep(selection=SelectionConfig(delta=0.01, tau_c=0.1, tau_f=0.9))
        report = run_sweep(d, cfg)
        reduced = [r for r in report.records if r["variant"] == "reduced"]
        assert reduced and all(r["selection"]["kept_count"] < 3 for r in reduced)

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
            efficiency[target] = rec["paper_efficiency"]
            if target == "whole":
                assert rec["paper_efficiency"] == paper_efficiency(rec["correct"], 70 - 42)
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
        trained = {"single": 0, "lockstep": 0}
        train, cells = bench.lvq_train, bench.train_cells

        def counting_train(*args):
            trained["single"] += 1
            return train(*args)

        def counting_cells(models, *args):
            trained["lockstep"] += len(models)
            return cells(models, *args)

        monkeypatch.setattr(bench, "lvq_train", counting_train)
        monkeypatch.setattr(bench, "train_cells", counting_cells)
        # a batch closes once its partitions and the arrays of its
        # train_cells call reach BATCH_BYTES. The third reduced cell keeps
        # all 4 columns, so it is the twin of its original and not a cell of
        # its own. With room for the first three cells (30-row train
        # partitions), the 7 cells go in batches of 3, 3 (42-row train
        # partitions) and 1: two lockstep groups and one single cell
        selection = SelectionConfig(tau_c=0.2)
        cfg = small_sweep(repeats=3, selection=selection)
        first = [c for ai in range(2) for c in bench._prepare(d, cfg, 0, ai)][:3]
        held = sum(part.features.nbytes for c in first for part in c.parts)
        monkeypatch.setattr(bench, "BATCH_BYTES", held + lockstep_nbytes(
            [c.model for c in first], [c.parts[0] for c in first]))
        report = run_sweep(d, cfg)
        assert len(report.records) == 8
        assert [r["selection"]["kept_count"] for r in report.records[1::2]] == [2, 3, 4, 3]
        assert trained == {"single": 1, "lockstep": 6}
        assert all("train_ms_repeats" not in r for r in report.records)
        assert all(len(r["classify_ms_repeats"]) == 3 for r in report.records)
        once = run_sweep(d, small_sweep(repeats=1, selection=selection))
        assert accuracy_fields(report) == accuracy_fields(once)

    def test_small_batch_counts_its_largest_lone_call(self, monkeypatch):
        # below LOCKSTEP_MIN_CELLS cells a batch trains one cell at a time, so
        # its arrays are its largest lone call's. For these small cells that
        # is more than a 2-cell train_cells call (a lone call's buffers hold
        # 64 visits, a 2-cell call's 32): the batch of the first two cells
        # closes at 2 exactly when their partitions and largest lone call
        # reach BATCH_BYTES
        d = random_dataset(np.random.default_rng(13), m=60, n=4)
        cfg = small_sweep(selection=SelectionConfig(tau_c=0.2))
        first = [c for ai in range(2) for c in bench._prepare(d, cfg, 0, ai)][:2]
        models, datas = [c.model for c in first], [c.parts[0] for c in first]
        lone = max(lockstep_nbytes([m], [x]) for m, x in zip(models, datas))
        assert lockstep_nbytes(models, datas) < lone
        held = sum(part.features.nbytes for c in first for part in c.parts)
        sizes, run_batch = [], bench._run_batch

        def recording(batch, cfg):
            sizes.append(len(batch))
            return run_batch(batch, cfg)

        monkeypatch.setattr(bench, "_run_batch", recording)
        reports = []
        for room, closes in ((0, 2), (1, bench.LOCKSTEP_MIN_CELLS)):
            sizes.clear()
            monkeypatch.setattr(bench, "BATCH_BYTES", held + lone + room)
            reports.append(run_sweep(d, cfg))
            assert sizes[0] >= closes if room else sizes[0] == closes
            assert sum(sizes) == 7  # the third reduced cell is its original's twin
        assert accuracy_fields(reports[0]) == accuracy_fields(reports[1])

    def test_default_select_grid_trains_in_one_call(self, monkeypatch, pima_dataset):
        # the 90 cells of the default grid on 768x8 fit one batch: each is
        # charged its own train partition, and the visit order the largest
        calls = []
        cells = bench.train_cells

        def counting_cells(models, datas):
            calls.append(len(models))
            return cells(models, datas)

        monkeypatch.setattr(bench, "train_cells", counting_cells)
        report = run_sweep(pima_dataset, SweepConfig(repeats=1, selection=SelectionConfig()))
        assert len(report.records) == 90
        assert len(calls) == 1
        assert len({r["train_ms"] for r in report.records}) == 1

    def test_one_cell_batches_give_identical_records(self, monkeypatch):
        rng = np.random.default_rng(14)
        d = random_dataset(rng, m=90, n=9)
        cfg = small_sweep(alphas=(0.1, 0.3, 0.5), selection=SelectionConfig(tau_c=0.05))
        lockstep = run_sweep(d, cfg)
        monkeypatch.setattr(bench, "BATCH_BYTES", 1)
        single = run_sweep(d, cfg)
        assert accuracy_fields(lockstep) == accuracy_fields(single)

    def test_first_failing_cell_in_grid_order_raises(self, monkeypatch):
        # cells 3 and 4 of the 8 in grid order fail: the reduced cell of grid
        # cell (0, 1) and the original of (1, 0). Trained in one lockstep
        # call or one by one, cell 3's error is raised
        d = random_dataset(np.random.default_rng(16), m=60, n=9)
        cfg = small_sweep(selection=SelectionConfig(tau_c=0.3))
        grid = {cell_seed(cfg.seed, fi, ai): (fi, ai) for fi in range(2) for ai in range(2)}
        real_train, real_cells = bench.lvq_train, bench.train_cells

        def check(model):
            cell = f"{grid[model.config.seed]} {'original' if model.n_features == 9 else 'reduced'}"
            if cell in ("(0, 1) reduced", "(1, 0) original"):
                raise LVQError(cell)

        def failing_train(model, data):
            check(model)
            return real_train(model, data)

        def failing_cells(models, datas):
            for model in models:  # the first failing cell in argument order
                check(model)
            return real_cells(models, datas)

        monkeypatch.setattr(bench, "lvq_train", failing_train)
        monkeypatch.setattr(bench, "train_cells", failing_cells)
        for batch_bytes in (bench.BATCH_BYTES, 1):  # one batch of 8 cells, or 8 of one
            monkeypatch.setattr(bench, "BATCH_BYTES", batch_bytes)
            with pytest.raises(LVQError, match=r"^\(0, 1\) reduced$"):
                run_sweep(d, cfg)

    def test_environment_starts_no_process(self, monkeypatch):
        # platform.platform() starts a `uname -p` process on its first call
        def no_process(*args, **kwargs):
            raise AssertionError("run_sweep started a process")

        monkeypatch.setattr(platform, "platform", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        report = run_sweep(random_dataset(np.random.default_rng(19), m=40, n=3), small_sweep())
        assert report.environment == (
            f"{platform.system()}-{platform.release()}-{platform.machine()}"
            f" python {platform.python_version()} numpy {np.__version__}")

    def test_split_failure_names_the_cell(self):
        # round(0.05 * 6) = 0 train rows
        d = random_dataset(np.random.default_rng(18), m=6, n=2)
        with pytest.raises(BenchError, match=r"^cell \(0\.05, 0\.3\): fraction 0\.05 on M=6 "
                                             "leaves an empty partition$"):
            run_sweep(d, small_sweep(fractions=(0.5, 0.05), alphas=(0.3,)))

    def test_normalizer_failure_names_the_cell(self):
        # column f0 holds 0, 1e-300 and 2e-300, and one 1e10 that the 0.1
        # split puts in the test part
        x = np.column_stack([np.tile([0.0, 1e-300, 2e-300], 14)[:40], np.arange(40.0)])
        x[8, 0] = 1e10
        d = make_dataset(x, np.arange(40) % 2)
        with pytest.raises(BenchError, match=r"^cell \(0\.1, 0\.3\): column 'f0': a value "
                                             "normalizes past the float64 maximum"):
            run_sweep(d, small_sweep(fractions=(0.1,), alphas=(0.3,)))

    def test_earlier_training_error_beats_later_preparation_error(self, monkeypatch):
        d = random_dataset(np.random.default_rng(17), m=60, n=4)
        selected = []
        real = bench.ife_cf

        def second_fails(part, sel_cfg):
            selected.append(1)
            if len(selected) == 2:
                raise SelectionError("no feature left")
            return real(part, sel_cfg)

        monkeypatch.setattr(bench, "ife_cf", second_fails)
        cfg = small_sweep(selection=SelectionConfig(tau_c=0.0))
        with pytest.raises(BenchError, match="selection failed: no feature left"):
            run_sweep(d, cfg)

        def train_fails(model, data):
            raise LVQError("first cell fails")

        selected.clear()
        monkeypatch.setattr(bench, "lvq_train", train_fails)
        with pytest.raises(LVQError, match="first cell fails"):
            run_sweep(d, cfg)

    def test_train_ms_shared_within_a_group(self):
        rng = np.random.default_rng(15)
        report = run_sweep(random_dataset(rng, m=60, n=4), small_sweep())
        assert len({r["train_ms"] for r in report.records}) == 1
        assert report.records[0]["train_ms"] > 0

    def test_reduced_twin_of_an_original_that_keeps_every_column(self, monkeypatch):
        d = random_dataset(np.random.default_rng(18), m=60, n=4)
        selection = SelectionConfig(tau_c=0.1)
        calls = {"apply_selection": 0, "init_codebook": 0}
        for name in calls:
            def counting(*args, _real=getattr(bench, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(bench, name, counting)
        report = run_sweep(d, small_sweep(repeats=3, selection=selection))
        originals, reduced = report.records[0::2], report.records[1::2]
        assert [r["variant"] for r in reduced] == ["reduced"] * 4
        twins = [i for i, r in enumerate(reduced) if r["selection"]["kept"] == [0, 1, 2, 3]]
        assert twins == [1, 2, 3]
        # only the cell that drops a column selects and initializes again
        assert calls == {"apply_selection": 2, "init_codebook": 4 + 1}
        for i in twins:
            assert reduced[i]["selection"] == {"kept_count": 4, "kept": [0, 1, 2, 3],
                                               "eliminated_count": 0}
            assert originals[i]["selection"] is None
            copy = dict(reduced[i], variant="original", selection=None)
            assert copy == originals[i]  # accuracy and timing fields alike
            assert list(copy) == list(originals[i])  # and report.json's key order
            assert reduced[i]["classify_ms_repeats"] is not originals[i]["classify_ms_repeats"]
        # the twins' fields are what preparing and training the reduced cell
        # again gives
        monkeypatch.undo()
        prepare = bench._prepare

        def prepare_without_twins(*args):
            cells = prepare(*args)
            if cells[0].twin is not None:
                parts = tuple(part.project(cells[0].twin["kept"]) for part in cells[0].parts)
                model = bench.init_codebook(parts[0], cells[0].model.config)
                cells.append(replace(cells[0], variant="reduced", parts=parts, model=model,
                                     selection=cells[0].twin, twin=None))
                cells[0].twin = None
            return cells

        monkeypatch.setattr(bench, "_prepare", prepare_without_twins)
        retrained = run_sweep(d, small_sweep(selection=selection))
        assert accuracy_fields(retrained) == accuracy_fields(report)

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
        reduced = [r for r in full.records if r["variant"] == "reduced"]
        assert all(r["selection"]["kept"] == [0, 1, 3] for r in reduced)
        projected = run_sweep(d.project([0, 1, 3]), small_sweep(normalize=normalize))
        keys = ("fraction", "alpha", "accuracy", "paper_efficiency", "correct", "total")
        assert [[r[k] for k in keys] for r in reduced] == \
            [[r[k] for k in keys] for r in projected.records]


class TestOverflowingColumn:
    def test_accuracy_fields_keep_their_bits_under_power_of_two_scaling(self):
        # column 0 spans 2.87-3.25 * 2**k in each train partition: at the last
        # k that keeps its values finite, that range passes the float64 maximum
        rng = np.random.default_rng(5)
        labels = np.repeat([0, 1], 30)
        x = np.column_stack([2 * labels - 1 + 0.3 * rng.normal(size=60), rng.normal(size=(60, 2))])
        kmax = 1024 - int(np.frexp(np.abs(x[:, 0]).max())[1])
        cfg = small_sweep(selection=SelectionConfig())

        def fields(k):
            scaled = np.column_stack([np.ldexp(x[:, 0], k), x[:, 1:]])
            return accuracy_fields(run_sweep(make_dataset(scaled, labels), cfg))

        want = fields(0)
        assert {r[2] for r in want} == {"original", "reduced"}
        for k in (1, 600, kmax - 1, kmax):
            assert fields(k) == want, k


class TestReportDocument:
    @pytest.mark.parametrize("repeats", [1, 3])
    def test_to_dict_is_the_whole_report_json(self, repeats):
        # the document bench wrote before to_dict held timing_stability
        report = run_sweep(random_dataset(np.random.default_rng(21), m=60, n=4),
                           small_sweep(repeats=repeats, seed=3, eval_target="whole"))
        want = {"fractions": [0.5, 0.7], "alphas": [0.1, 0.3], "repeats": repeats, "seed": 3,
                "eval_target": "whole", "environment": report.environment,
                "records": report.records,
                "timing_stability": timing_stability(report) if repeats >= 3 else None}
        doc = report.to_dict()
        assert list(doc) == list(want)
        assert doc == want


class TestAccuracyTable:
    def test_missing_cell_raises(self):
        rng = np.random.default_rng(11)
        report = run_sweep(random_dataset(rng, m=60, n=4), small_sweep())
        tables = report.accuracy_tables()  # a table for each variant with records
        assert list(tables) == ["original"]
        assert [row[0] for row in tables["original"]] == ["split", "50-50", "70-30"]
        del report.records[1]
        with pytest.raises(BenchError, match=r"^no record for cell \(0\.5, 0\.3, original\)$"):
            report.accuracy_tables()

    def test_rows_follow_sweep_order(self):
        rng = np.random.default_rng(12)
        report = run_sweep(random_dataset(rng, m=60, n=4), small_sweep(alphas=(0.3, 0.1, 0.2)))
        grid = variant_grids(report.to_dict())["original"]
        assert [[(r["fraction"], r["alpha"]) for r in row] for row in grid] == \
            [[(f, a) for a in (0.3, 0.1, 0.2)] for f in (0.5, 0.7)]
        assert [r for row in grid for r in row] == report.records
        header, *rows = report.accuracy_tables()["original"]
        assert header == ["split", "alpha_0.3", "alpha_0.1", "alpha_0.2"]
        assert [row[1:] for row in rows] == [[f"{r['accuracy']:.2f}" for r in row] for row in grid]

    def test_reduced_table_with_a_selection(self):
        rng = np.random.default_rng(13)
        report = run_sweep(random_dataset(rng, m=60, n=4),
                           small_sweep(selection=SelectionConfig(tau_c=0.0)))
        tables, grids = report.accuracy_tables(), variant_grids(report.to_dict())
        assert list(tables) == list(grids) == ["original", "reduced"]
        for variant, (header, *rows) in tables.items():
            assert header == ["split", "alpha_0.1", "alpha_0.3"]
            assert rows == [[label] + [f"{r['accuracy']:.2f}" for r in row]
                            for label, row in zip(("50-50", "70-30"), grids[variant])]

    @pytest.mark.parametrize("edit", ["drop", "swap", "extra"])
    def test_records_that_do_not_fill_the_grid_raise(self, edit):
        rng = np.random.default_rng(20)
        doc = run_sweep(random_dataset(rng, m=60, n=4), small_sweep()).to_dict()
        records = doc["records"]
        if edit == "drop":
            del records[1]
            match = r"^no record for cell \(0\.5, 0\.3, original\)$"
        elif edit == "swap":  # (0.5, 0.3) and (0.7, 0.1) trade places
            records[1], records[2] = records[2], records[1]
            match = r"^no record for cell \(0\.5, 0\.3, original\)$"
        else:
            records.append(dict(records[0]))
            match = r"^5 original records for 4 grid cells$"
        with pytest.raises(BenchError, match=match):
            variant_grids(doc)


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
