"""Golden sweep gate: the default ``bench --select`` grid on the ``pima_like``
fixture must reproduce the stored accuracy output byte for byte.

``tests/data/golden_sweep/`` holds, for each eval target and with and without
normalization, the ``original.csv`` and ``reduced.csv`` that ``bench`` wrote
and a digest of the accuracy fields of its ``report.json``. The files were
written by the per-cell training loop, before cells trained in lockstep, with

    PYTHONPATH=src python tests/test_golden_sweep.py tests/data/golden_sweep
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "golden_sweep"
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


def write_golden(directory: Path) -> None:
    import tempfile

    from conftest import pima_like, write_csv

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "pima_like.csv"
        write_csv(pima_like(), csv_path)
        digests = {}
        for target in TARGETS:
            for normalize in NORMALIZE:
                name = case_name(target, normalize)
                got = run_case(csv_path, Path(tmp) / name, target, normalize)
                (directory / name).mkdir(parents=True, exist_ok=True)
                for csv_name in ("original.csv", "reduced.csv"):
                    (directory / name / csv_name).write_bytes(got[csv_name])
                digests[name] = got["digest"]
    (directory / "digests.json").write_text(json.dumps(digests, indent=2) + "\n",
                                            encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    write_golden(Path(sys.argv[1]))
