"""The names that ``perfbench/tracer.py`` wraps stay bound and callable.

The tracer replaces ``ifecf`` module attributes by name (``bench.lvq_train``,
``select.cfs_merit``, ``select.correlation``, ``measures.correlation``, ...)
and reads ``len(run_sweep(...).records)``; the benchmark's untraced runs look
every one of them up too. Here the tracer runs around small CLI calls, so a
rename or a removal fails the test suite and not only the benchmark.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from conftest import make_dataset, write_csv
from ifecf.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_it(tmp_path, capsys):
    tr = load_tracer()
    assert tr.wrapped_targets() == []
    originals = {(m, a): getattr(tr._module(m), a) for m, a in tr.targets()}
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(21)
    labels = rng.integers(0, 2, 60)
    # the dispersion pass drops the constant column, so the reduced cell is a cell of its own
    x = np.column_stack([labels + rng.normal(size=60) + 3, rng.normal(size=(60, 3)) + 5,
                         np.full(60, 3.0)])
    write_csv(make_dataset(x, labels), data)
    out = tmp_path / "bench"
    argvs = [
        ["bench", str(data), "--select", "--tau-c", "0", "--fractions", "0.5", "--alphas", "0.1",
         "--epochs", "2", "--repeats", "1", "--out", str(out)],
        ["select", str(data), "--method", "cfs"],
        ["select", str(data), "--method", "relief", "--samples", "10"],
    ]
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert len(tr.wrapped_targets()) == len(tr.targets())
        rcs = [main(argv) for argv in argvs]
    finally:
        tracer.remove()
    capsys.readouterr()
    assert rcs == [0, 0, 0]
    assert tr.wrapped_targets() == []
    assert all(getattr(tr._module(m), a) is fn for (m, a), fn in originals.items())
    records = json.loads((out / "report.json").read_text(encoding="utf-8"))["records"]
    assert tracer.counts["bench.cells"] == len(records) == 2
    # two cells train one by one, through the wrapped bench.lvq_train
    assert tracer.counts["lvq.train.row_visits"] == 2 * 30 * 2
    spans = {span[0] for span in tracer.spans}
    assert {"bench.run_sweep", "lvq.train", "plots.sweep_charts", "select.cfs_search",
            "select.relief"} <= spans
