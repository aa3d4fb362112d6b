import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import make_dataset, write_csv
import ifecf
from ifecf import __version__, cli, lvq
from ifecf.cli import main
from ifecf.data import load_csv
from ifecf.measures import FeatureStats
from ifecf.select import SelectionConfig, cfs_search, relief
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

    def test_extreme_column_prints_true_mean_and_std(self, tmp_path, capsys):
        # the raw column sum overflows to inf; the printed moments are the exact ones, rounded
        xs = [1.5e308, 1.6e308, 1.0e308, 1e-300]
        p = tmp_path / "extreme.csv"
        p.write_text("x,class\n" + "".join(f"{v!r},{c}\n" for v, c in zip(xs, "abab")))
        assert main(["stats", str(p)]) == 0
        row = capsys.readouterr().out.splitlines()[2].split()
        exact = [Fraction(v) for v in xs]
        mean = sum(exact) / 4
        var = sum((v - mean) ** 2 for v in exact) / 4
        assert float(row[2]) == pytest.approx(float(mean), rel=1e-15)
        assert float(row[3]) == pytest.approx(math.ldexp(math.sqrt(var / 2**2048), 1024), rel=1e-15)
        assert row[4] == "0.6185"

    def test_tiny_column_prints_its_mean_and_std(self, tmp_path, capsys):
        # four decimals would print 0.0000 for both; the shortest round-trip form shows them
        p = tmp_path / "tiny.csv"
        p.write_text("x,class\n1e-184,a\n2e-184,b\n3e-184,a\n4e-184,b\n")
        assert main(["stats", str(p)]) == 0
        row = capsys.readouterr().out.splitlines()[2].split()
        assert float(row[2]) == pytest.approx(2.5e-184, rel=1e-15, abs=0)
        assert float(row[3]) == pytest.approx(math.sqrt(1.25) * 1e-184, rel=1e-15, abs=0)
        assert row[4:] == ["0.4472", "0.4472"]

    def test_zero_mean_renders_undef(self, tmp_path, capsys):
        d = make_dataset([[-1.0, 1.0], [1.0, 2.0]], [0, 1])
        p = tmp_path / "zm.csv"
        write_csv(d, p)
        assert main(["stats", str(p)]) == 0
        assert "undef" in capsys.readouterr().out

    def test_multiclass_stats_leave_numpy_ma_unloaded(self, tmp_path):
        # np.quantile's first call imports numpy.ma (about 13 ms); the class
        # relevance kernel's cut points go without it
        rng = np.random.default_rng(5)
        p = tmp_path / "three.csv"
        write_csv(make_dataset(rng.normal(size=(60, 4)), rng.integers(0, 3, 60)), p)
        code = ("import sys, numpy; before = 'numpy.ma' in sys.modules\n"
                "from ifecf.cli import main\n"
                "assert main(['stats', sys.argv[1]]) == 0\n"
                "print(before, 'numpy.ma' in sys.modules)")
        src = str(Path(ifecf.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", code, str(p)], capture_output=True, text=True,
                             check=True, env=env).stdout
        before, after = out.split()[-2:]
        if before == "True":
            pytest.skip("this numpy imports numpy.ma with numpy itself")
        assert after == "False"

    @pytest.mark.parametrize("class_column, code", [("0", 0), ("cls", 0), ("3", 2), ("nope", 2)])
    def test_class_column(self, tmp_path, capsys, class_column, code):
        p = tmp_path / "cls.csv"
        p.write_text("cls,a,b\nx,1,2\ny,3,5\nx,2,2\n")
        assert main(["stats", str(p), "--class-column", class_column]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert [r.split()[1] for r in out.splitlines()[2:]] == ["a", "b"]
        else:
            assert "class column" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("text", [b"a,b,class\n1,2,x\n3,\xe94,y\n",
                                      b'a,class\n1,"' + b"x" * 200000 + b'"\n2,y\n'],
                             ids=["bad-utf8", "oversized-field"])
    @pytest.mark.parametrize("command", [["stats"], ["select", "--method", "cfs"]])
    def test_unreadable_text_exit_2(self, tmp_path, capsys, text, command):
        p = tmp_path / "bad.csv"
        p.write_bytes(text)
        assert main([command[0], str(p), *command[1:]]) == 2
        assert "bad.csv:" in capsys.readouterr().err

    def test_sort_dispersion_puts_undef_last(self, tmp_path, capsys):
        p = tmp_path / "zm.csv"
        p.write_text("a,b,c,class\n-1,1,1,x\n1,2,-1,y\n0,3,3,x\n")
        assert main(["stats", str(p), "--sort", "dispersion"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [(r.split()[1], r.split()[4]) for r in rows] == \
            [("c", "1.6330"), ("b", "0.4082"), ("a", "undef")]

    @pytest.mark.parametrize("sort", ["dispersion", "ccorr"])
    def test_sort_uses_unrounded_values(self, small_csv, capsys, monkeypatch, sort):
        # features 0 and 1 print the same 4-decimal value; 1 is the larger
        values = [(0.123441, -0.123441), (0.123449, 0.123449), (None, 0.5)]
        stats = [FeatureStats(1.0, 1.0, disp, cc) for disp, cc in values]
        monkeypatch.setattr(cli, "feature_stats", lambda d: stats)
        assert main(["stats", str(small_csv), "--sort", sort]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        expected = {"dispersion": ["1", "0", "2"], "ccorr": ["2", "1", "0"]}[sort]
        assert [r.split()[0] for r in rows] == expected


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

    def test_cfs_report_is_the_result(self, pima_csv, tmp_path):
        out = tmp_path / "cfs.json"
        assert main(["select", str(pima_csv), "--method", "cfs", "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        result = cfs_search(load_csv(pima_csv), SelectionConfig())
        assert result.merit_trace
        assert doc == result.to_dict()  # merits too, bit for bit
        assert out.read_text(encoding="utf-8").count("\n") == 0

    def test_relief(self, small_csv, tmp_path, capsys):
        out = tmp_path / "relief.json"
        assert main(["select", str(small_csv), "--method", "relief", "--out", str(out)]) == 0
        weights = relief(load_csv(small_csv), SelectionConfig())
        assert capsys.readouterr().out.splitlines()[:2] == [
            "relief weights: " + " ".join(f"{w:.4f}" for w in weights), "kept 3/3: f0, f1, f2"]
        assert json.loads(out.read_text()) == {"kept": [0, 1, 2], "eliminated": [],
                                               "merit_trace": [], "flags": []}
        # the informative f0 weighs most; the constant f2 weighs 0
        threshold = (weights[0] + weights[1]) / 2
        assert main(["select", str(small_csv), "--method", "relief", "--relief-threshold",
                     str(threshold), "--out", str(out)]) == 0
        assert "kept 1/3: f0" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["kept"] == [0]
        assert [(e["feature"], e["reason"]) for e in doc["eliminated"]] == \
            [(1, "below-relief-threshold"), (2, "below-relief-threshold")]

    def test_relief_threshold_above_every_weight_exit_3(self, small_csv, capsys):
        assert main(["select", str(small_csv), "--method", "relief",
                     "--relief-threshold", "2"]) == 3
        assert "relief threshold eliminates every feature" in capsys.readouterr().err

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

    def test_classify_scores_one_pass(self, small_csv, tmp_path, capsys, monkeypatch):
        model_path = tmp_path / "model.json"
        assert main(["train", str(small_csv), "--out", str(model_path)]) == 0
        calls = []
        original = lvq.classify_batch

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(lvq, "classify_batch", counting)
        capsys.readouterr()
        assert main(["classify", str(model_path), str(small_csv)]) == 0
        assert len(calls) == 1
        correct = lvq.evaluate(lvq.LVQModel.load(model_path), load_csv(small_csv))
        err = capsys.readouterr().err
        assert f"accuracy: {correct}/50 = {100 * (correct / 50):.2f}%" in err

    def _classify(self, tmp_path, capsys, train_text, test_text):
        train_csv, test_csv = tmp_path / "train.csv", tmp_path / "test.csv"
        train_csv.write_text(train_text)
        test_csv.write_text(test_text)
        model_path = tmp_path / "model.json"
        assert main(["train", str(train_csv), "--out", str(model_path)]) == 0
        capsys.readouterr()
        code = main(["classify", str(model_path), str(test_csv)])
        out, err = capsys.readouterr()
        return code, [l.split("\t")[1] for l in out.splitlines()], err

    def test_predictions_use_model_class_names(self, tmp_path, capsys):
        # the file to classify meets its classes in the other order
        code, preds, err = self._classify(
            tmp_path, capsys, "x,class\n0,neg\n0.1,neg\n1,pos\n1.1,pos\n",
            "x,class\n1.05,pos\n0.05,neg\n")
        assert code == 0
        assert preds == ["pos", "neg"]
        assert "accuracy: 2/2 = 100.00%" in err

    def test_label_unknown_to_model_counts_wrong(self, tmp_path, capsys):
        # a 3-class model on a 2-class file, one of whose labels it never saw
        code, preds, err = self._classify(
            tmp_path, capsys, "x,class\n0,a\n0.1,a\n1,b\n1.1,b\n2,c\n2.1,c\n",
            "x,class\n2.05,c\n0.05,d\n2.1,c\n")
        assert code == 0
        assert preds == ["c", "a", "c"]
        assert "accuracy: 2/3 = 66.67%" in err

    @pytest.mark.parametrize("text", ["{not json", '{"codebook": [[0.0]]}'])
    def test_malformed_model_exit_2(self, small_csv, tmp_path, capsys, text):
        model_path = tmp_path / "model.json"
        model_path.write_text(text)
        assert main(["classify", str(model_path), str(small_csv)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_model_without_class_names_exit_2(self, small_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", str(small_csv), "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        del doc["class_names"]
        model_path.write_text(json.dumps(doc))
        assert main(["classify", str(model_path), str(small_csv)]) == 2
        assert "class_names" in capsys.readouterr().err


    def test_columns_matched_by_name(self, small_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", str(small_csv), "--out", str(model_path)]) == 0
        d = load_csv(small_csv)
        reordered = tmp_path / "reordered.csv"
        write_csv(d.project([2, 0, 1]), reordered)
        capsys.readouterr()
        assert main(["classify", str(model_path), str(small_csv)]) == 0
        want = capsys.readouterr()
        assert main(["classify", str(model_path), str(reordered)]) == 0
        got = capsys.readouterr()
        assert got.out == want.out and got.err == want.err

    def test_missing_column_exit_2(self, small_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", str(small_csv), "--out", str(model_path)]) == 0
        dropped = tmp_path / "dropped.csv"
        write_csv(load_csv(small_csv).project([0, 2]), dropped)
        assert main(["classify", str(model_path), str(dropped)]) == 2
        assert "no feature column 'f1'" in capsys.readouterr().err

    def test_model_without_feature_names_exit_2(self, small_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["train", str(small_csv), "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        del doc["feature_names"]
        model_path.write_text(json.dumps(doc))
        assert main(["classify", str(model_path), str(small_csv)]) == 2
        assert "feature_names" in capsys.readouterr().err


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

    @pytest.mark.parametrize("repeats", ["1", "3"])
    def test_report_timing_stability(self, small_csv, tmp_path, repeats):
        out = tmp_path / "run"
        assert self._run(small_csv, out, "--repeats", repeats) == 0
        report = json.loads((out / "report.json").read_text())
        stability = report["timing_stability"]
        if repeats == "1":
            assert stability is None
        else:
            assert len(stability["cells"]) == len(report["records"]) == 4
            assert set(stability) == {"cells", "flagged"}

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
        assert not {"samples", "patience", "relief_threshold"} & set(manifest["config"])

    def test_cache_hit_gives_the_miss_outputs_and_digest(self, small_csv, tmp_path, cache_dir):
        want = hashlib.sha256(small_csv.read_bytes()).hexdigest()
        runs = [tmp_path / "miss", tmp_path / "hit"]
        for out in runs:
            assert self._run(small_csv, out, "--select", "--tau-c", "0") == 0
            assert json.loads((out / "manifest.json").read_text())["dataset_sha256"] == want
        assert len(list(cache_dir.iterdir())) == 1
        for name in ("original.csv", "reduced.csv"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        keys = ("fraction", "alpha", "variant", "accuracy", "paper_efficiency", "correct",
                "total", "selection")
        miss, hit = ([{k: r[k] for k in keys} for r in json.loads((out / "report.json")
                      .read_text())["records"]] for out in runs)
        assert miss == hit

    def test_manifest_names_the_in_process_call(self, small_csv, tmp_path):
        out = tmp_path / "run"
        args = ["bench", str(small_csv), "--out", str(out), "--fractions", "0.5",
                "--alphas", "0.1", "--repeats", "1", "--epochs", "2", "--no-plot"]
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == ["ifecf", *args]
        assert "argv" not in manifest["config"]

    @pytest.mark.parametrize("flag", ["--samples", "--patience", "--relief-threshold"])
    def test_selection_search_flags_are_usage_errors(self, small_csv, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:  # bench runs only the three-pass filter
            self._run(small_csv, tmp_path / "run", "--select", flag, "5")
        assert exc.value.code == 1


class TestPlot:
    def test_regenerate_from_report(self, small_csv, tmp_path):
        # the charts that bench drew, byte for byte: both read the records
        # through bench.variant_grid
        run_dir, plot_dir = tmp_path / "run", tmp_path / "plots"
        args = [
            "bench", str(small_csv), "--out", str(run_dir), "--select", "--tau-c", "0",
            "--fractions", "0.5", "0.7", "--alphas", "0.2", "0.1", "--repeats", "1",
            "--epochs", "2",
        ]
        assert main(args) == 0
        assert main(["plot", str(run_dir / "report.json"), "--out", str(plot_dir)]) == 0
        names = sorted(p.name for p in plot_dir.iterdir())
        assert names == sorted(p.name for p in run_dir.glob("*.svg"))
        assert len(names) == 4
        for name in names:
            assert (plot_dir / name).read_bytes() == (run_dir / name).read_bytes()

    @pytest.mark.parametrize("text, message", [
        (b"{not json", "not a JSON report"),
        (b"\xe9t\xe9", "not a JSON report"),
        (b"[]", "a report needs non-empty lists 'fractions', 'alphas', 'records'"),
        (b'{"fractions": [0.5], "alphas": [0.1]}',
         "a report needs non-empty lists 'fractions', 'alphas', 'records'"),
        (b'{"fractions": [], "alphas": [], "records": []}',
         "a report needs non-empty lists 'fractions', 'alphas', 'records'"),
        (b'{"fractions": ["a"], "alphas": [0.1], "records": [{"variant": "original"}]}',
         "'fractions' and 'alphas' must hold numbers"),
        (b'{"fractions": [0.5], "alphas": [0.1], "records": [{"variant": "original"}]}',
         "every record needs a string 'variant' and the numbers 'fraction', 'alpha', "
         "'accuracy', 'classify_ms'"),
        (b'{"fractions": [0.5], "alphas": [0.1], "records": [{"fraction": 0.5, "alpha": 0.1, '
         b'"variant": "original", "accuracy": "x", "classify_ms": 0.1}]}',
         "every record needs a string 'variant' and the numbers"),
        (b'{"fractions": [0.5, 0.7], "alphas": [0.1], "records": [{"fraction": 0.5, '
         b'"alpha": 0.1, "variant": "original", "accuracy": 50.0, "classify_ms": 0.1}]}',
         "no record for cell (0.7, 0.1, original)"),
        (b'{"fractions": [0.5], "alphas": [0.1], "records": [{"fraction": 0.5, "alpha": 0.1, '
         b'"variant": "x<b onload=alert(1)>&", "accuracy": 50.0, "classify_ms": 0.1}]}',
         "unknown variant 'x<b onload=alert(1)>&'; a record's variant is 'original' or "
         "'reduced'"),
        (b'{"fractions": [0.5], "alphas": [0.1], "records": [{"fraction": 0.5, "alpha": 0.1, '
         b'"variant": "../../x", "accuracy": 50.0, "classify_ms": 0.1}]}',
         "unknown variant '../../x'"),
    ], ids=["not-json", "not-utf8", "not-an-object", "no-records", "empty-grid", "text-grid",
            "record-keys", "text-accuracy", "grid-gap", "markup-variant", "path-variant"])
    def test_malformed_report_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "report.json"
        path.write_bytes(text)
        assert main(["plot", str(path), "--out", str(tmp_path / "plots")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert not (tmp_path / "plots").exists()


class TestUsage:
    def test_unknown_method_exit_1(self, small_csv):
        with pytest.raises(SystemExit) as exc:
            main(["select", str(small_csv), "--method", "bogus"])
        assert exc.value.code == 1

    def test_missing_subcommand_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["select", "--method", "ifecf", "--tau-f", "2"],
        ["select", "--method", "cfs", "--patience", "0"],
        ["bench", "--repeats", "0"],
        ["bench", "--fractions", "1.5"],
        ["bench", "--epochs", "0"],
        ["bench", "--fractions", "0.5", "0.5"],
        ["bench", "--alphas", "0.1", "0.2", "0.1"],
        ["train", "--alpha", "2"],
        ["train", "--seed", "-1"],
        ["select", "--method", "relief", "--seed", "-1"],
    ], ids=["select-tau-f", "select-patience", "bench-repeats", "bench-fractions",
            "bench-epochs", "bench-repeated-fraction", "bench-repeated-alpha", "train-alpha",
            "train-seed", "select-seed"])
    def test_bad_option_value_exit_1(self, small_csv, tmp_path, capsys, argv):
        out = ["--out", str(tmp_path / "out")]
        assert main(argv[:1] + [str(small_csv)] + argv[1:] + out) == 1
        assert capsys.readouterr().err.startswith("error: ")
        # the value is checked before the dataset is read
        assert main(argv[:1] + [str(tmp_path / "nope.csv")] + argv[1:] + out) == 1
