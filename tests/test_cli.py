import hashlib
import json

import numpy as np
import pytest

from conftest import make_dataset
from ifecf import __version__
from ifecf.cli import main
from ifecf.data import load_csv, write_csv
from oracles import exhaustive_search


@pytest.fixture
def small_csv(tmp_path):
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 2, 50)
    x = np.column_stack(
        [
            labels + 0.1 * rng.normal(size=50) + 2,
            rng.normal(size=50) + 5,
            np.full(50, 3.0),
        ]
    )
    d = make_dataset(x, labels)
    p = tmp_path / "small.csv"
    write_csv(d, p)
    return p


class TestStats:
    def test_pima_prints_8_rows(self, pima_csv, capsys):
        assert main(["stats", str(pima_csv)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2 + 8  # header + rule + one row per feature

    def test_sort_ccorr_descending(self, small_csv, capsys):
        assert main(["stats", str(small_csv), "--sort", "ccorr"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        vals = [abs(float(r.split()[-1])) for r in rows]
        assert vals == sorted(vals, reverse=True)

    def test_zero_mean_renders_undef(self, tmp_path, capsys):
        d = make_dataset([[-1.0, 1.0], [1.0, 2.0]], [0, 1])
        p = tmp_path / "zm.csv"
        write_csv(d, p)
        assert main(["stats", str(p)]) == 0
        assert "undef" in capsys.readouterr().out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.csv")]) == 2


class TestSelect:
    def test_ifecf_disabled_keeps_all(self, small_csv, capsys):
        code = main(
            [
                "select", str(small_csv), "--method", "ifecf",
                "--delta", "0", "--tau-c", "0", "--tau-f", "1",
            ]
        )
        assert code == 0
        assert "kept 3/3" in capsys.readouterr().out

    def test_ifecf_json_report(self, small_csv, tmp_path):
        out = tmp_path / "sel.json"
        assert main(["select", str(small_csv), "--method", "ifecf", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"kept", "eliminated", "merit_trace", "flags"}
        assert len(doc["kept"]) + len(doc["eliminated"]) == 3

    def test_cfs_matches_exhaustive(self, small_csv, capsys):
        assert main(["select", str(small_csv), "--method", "cfs"]) == 0
        out = capsys.readouterr().out
        printed = float(out.split("best merit:")[1].split()[0])
        d = load_csv(small_csv)
        best, _ = exhaustive_search(d)
        assert printed == pytest.approx(best, abs=1e-6)

    def test_relief_zero_samples_usage_error(self, small_csv):
        assert main(["select", str(small_csv), "--method", "relief", "--samples", "0"]) == 1

    def test_all_eliminated_exit_3(self, tmp_path):
        d = make_dataset([[1.0], [1.0001], [1.0], [1.0001]], [0, 1, 0, 1])
        p = tmp_path / "const.csv"
        write_csv(d, p)
        assert main(["select", str(p), "--method", "ifecf", "--delta", "0.5"]) == 3


class TestTrainClassify:
    def test_round_trip(self, small_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", str(small_csv), "--out", str(model_path)]) == 0
        assert model_path.exists()
        assert main(["classify", str(model_path), str(small_csv)]) == 0
        out = capsys.readouterr().out
        assert len([l for l in out.splitlines() if "\t" in l]) == 50


class TestBench:
    def _run(self, csv_path, out_dir, *extra):
        args = [
            "bench", str(csv_path), "--out", str(out_dir),
            "--fractions", "0.5", "0.7", "--alphas", "0.1", "0.2",
            "--repeats", "1", "--epochs", "3", "--no-plot",
        ]
        return main(args + list(extra))

    def test_outputs(self, small_csv, tmp_path):
        out = tmp_path / "run"
        assert self._run(small_csv, out) == 0
        assert (out / "original.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "manifest.json").exists()
        assert not (out / "reduced.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report["records"]) == 4

    def test_select_emits_reduced(self, small_csv, tmp_path):
        out = tmp_path / "run"
        assert self._run(small_csv, out, "--select", "--tau-c", "0.0") == 0
        assert (out / "reduced.csv").exists()

    def test_plots_emitted_by_default(self, small_csv, tmp_path):
        out = tmp_path / "run"
        args = [
            "bench", str(small_csv), "--out", str(out),
            "--fractions", "0.5", "--alphas", "0.1", "--repeats", "1",
            "--epochs", "2",
        ]
        assert main(args) == 0
        svgs = list(out.glob("*.svg"))
        assert len(svgs) == 2
        assert svgs[0].read_text().startswith("<svg")

    def test_rerun_identical_accuracy_columns(self, small_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert self._run(small_csv, out1, "--seed", "7") == 0
        assert self._run(small_csv, out2, "--seed", "7") == 0
        assert (out1 / "original.csv").read_bytes() == (out2 / "original.csv").read_bytes()

    def test_csv_round_trips_through_loader(self, small_csv, tmp_path):
        out = tmp_path / "run"
        assert self._run(small_csv, out) == 0
        # accuracy table: split label column + numeric alpha columns
        rows = (out / "original.csv").read_text().splitlines()
        assert rows[0].split(",")[0] == "split"
        assert len(rows) == 3

    def test_config_file_echoed_to_manifest(self, small_csv, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:  # no overrides file: the manifest is the run
            self._run(small_csv, out, "--config", "run.cfg")
        assert exc.value.code == 1
        assert self._run(small_csv, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 3
        assert "threads" not in manifest
        assert manifest["dataset_sha256"] == hashlib.sha256(small_csv.read_bytes()).hexdigest()
        assert manifest["version"] == __version__


class TestPlot:
    def test_regenerate_from_report(self, small_csv, tmp_path):
        run_dir = tmp_path / "run"
        args = [
            "bench", str(small_csv), "--out", str(run_dir),
            "--fractions", "0.5", "0.7", "--alphas", "0.1", "--repeats", "1",
            "--epochs", "2", "--no-plot",
        ]
        assert main(args) == 0
        plot_dir = tmp_path / "plots"
        assert main(["plot", str(run_dir / "report.json"), "--out", str(plot_dir)]) == 0
        assert list(plot_dir.glob("*.svg"))


class TestUsage:
    def test_unknown_method_exit_1(self, small_csv):
        with pytest.raises(SystemExit) as exc:
            main(["select", str(small_csv), "--method", "bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
