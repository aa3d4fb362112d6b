"""Golden sweep gate: the default ``bench --select`` grid on the ``pima_like``
and ``lung_like`` fixtures must reproduce the stored accuracy output byte for
byte.

``tests/data/golden_sweep/`` holds, for each eval target and with and without
normalization, the ``original.csv`` and ``reduced.csv`` that ``bench`` wrote
and a digest of the accuracy fields of its ``report.json``: the ``pima_like``
cases at its top level, the ``lung_like`` ones (more than two classes,
information-gain relevance) under ``lung/``. The ``pima_like`` files were
written by the per-cell training loop, before cells trained in lockstep, and
the ``lung_like`` ones by the lockstep loop and the bounded-Gram classify
kernel, with

    PYTHONPATH=src python tests/test_golden_sweep.py tests/data/golden_sweep
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "golden_sweep"
LUNG = GOLDEN / "lung"
TARGETS = ("test", "train", "whole")
NORMALIZE = (True, False)
ACCURACY_KEYS = ("fraction", "alpha", "variant", "correct", "total", "accuracy",
                 "paper_efficiency", "selection")


def case_name(target: str, normalize: bool) -> str:
    return f"{target}-{'norm' if normalize else 'raw'}"


def accuracy_digest(report: dict) -> str:
    cells = [{k: r[k] for k in ACCURACY_KEYS} for r in report["records"]]
    return hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()


def run_case(csv_path: Path, out: Path, target: str, normalize: bool) -> dict:
    """Run the default grid with ``--select``; return the CSV bytes and digest."""
    from ifecf.cli import main

    argv = ["bench", str(csv_path), "--select", "--eval-target", target,
            "--repeats", "1", "--no-plot", "--out", str(out)]
    assert main(argv + ([] if normalize else ["--no-normalize"])) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return {
        "original.csv": (out / "original.csv").read_bytes(),
        "reduced.csv": (out / "reduced.csv").read_bytes(),
        "digest": accuracy_digest(report),
    }


@pytest.mark.parametrize("normalize", NORMALIZE, ids=["norm", "raw"])
@pytest.mark.parametrize("target", TARGETS)
def test_sweep_matches_golden(pima_csv, tmp_path, target, normalize):
    name = case_name(target, normalize)
    got = run_case(pima_csv, tmp_path, target, normalize)
    for csv_name in ("original.csv", "reduced.csv"):
        assert got[csv_name] == (GOLDEN / name / csv_name).read_bytes(), csv_name
    digests = json.loads((GOLDEN / "digests.json").read_text(encoding="utf-8"))
    assert got["digest"] == digests[name]


@pytest.mark.parametrize("normalize", NORMALIZE, ids=["norm", "raw"])
@pytest.mark.parametrize("target", TARGETS)
def test_lung_sweep_matches_golden(lung_csv, tmp_path, target, normalize):
    name = case_name(target, normalize)
    got = run_case(lung_csv, tmp_path, target, normalize)
    for csv_name in ("original.csv", "reduced.csv"):
        assert got[csv_name] == (LUNG / name / csv_name).read_bytes(), csv_name
    digests = json.loads((LUNG / "digests.json").read_text(encoding="utf-8"))
    assert got["digest"] == digests[name]


def test_regenerated_through_the_cache_matches_golden(tmp_path, cache_dir, monkeypatch):
    """The first case's load of each fixture parses the file and hashes it;
    every later load is a cache hit whose sha256 comes from the stat record."""
    from ifecf import data

    calls = []
    for name in ("_line_bound", "_file_sha256"):
        real = getattr(data, name)
        monkeypatch.setattr(data, name, lambda path, name=name, real=real:
                            calls.append(name) or real(path))
    monkeypatch.setattr(data, "STAT_WINDOW_NS", 0)  # trust a record of a file written just now
    out = tmp_path / "golden"
    write_golden(out)
    assert calls == ["_file_sha256", "_line_bound"] * 2
    assert len(list(cache_dir.glob("*.npz"))) == len(list(cache_dir.glob("*.stat"))) == 2
    golden = sorted(p.relative_to(GOLDEN) for p in GOLDEN.rglob("*") if p.is_file())
    assert golden == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    for name in golden:
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def write_golden(directory: Path) -> None:
    import tempfile

    from conftest import lung_like, pima_like, write_csv

    with tempfile.TemporaryDirectory() as tmp:
        for fixture, out in ((pima_like, directory), (lung_like, directory / LUNG.name)):
            csv_path = Path(tmp) / f"{fixture.__name__}.csv"
            write_csv(fixture(), csv_path)
            digests = {}
            for target in TARGETS:
                for normalize in NORMALIZE:
                    name = case_name(target, normalize)
                    got = run_case(csv_path, Path(tmp) / fixture.__name__ / name, target,
                                   normalize)
                    (out / name).mkdir(parents=True, exist_ok=True)
                    for csv_name in ("original.csv", "reduced.csv"):
                        (out / name / csv_name).write_bytes(got[csv_name])
                    digests[name] = got["digest"]
            (out / "digests.json").write_text(json.dumps(digests, indent=2) + "\n",
                                              encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    write_golden(Path(sys.argv[1]))
