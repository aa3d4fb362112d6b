"""Benchmark harness: sweep train fraction x learning rate, with and without
feature reduction, recording accuracy and wall-clock timing per cell."""

from __future__ import annotations

import hashlib
import platform
import time
from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py wraps split, fit_normalizer, apply_normalizer, ife_cf,
# apply_selection, init_codebook, lvq_train and evaluate here by name, and
# run_sweep looks each up at call time: keep every one of them bound.
from .data import Dataset, apply_normalizer, check_integers, fit_normalizer, split
from .lvq import (LVQConfig, LVQError, LVQModel, evaluate, init_codebook, lockstep_nbytes,
                  train_cells)
from .lvq import train as lvq_train
from .select import SelectionConfig, SelectionError, apply_selection, ife_cf

DEFAULT_FRACTIONS = tuple(round(0.1 * i, 1) for i in range(1, 10))
DEFAULT_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5)

# eval_target -> (partitions scored for accuracy, partitions evaluated once
# more only for paper_efficiency); 0 is the train partition, 1 the test one.
_EVAL_PARTITIONS = {"test": ((1,), (0,)), "train": ((0,), (1,)), "whole": ((0, 1), ())}

# run_sweep trains the cells it has prepared once their partitions and the
# arrays of their ``train_cells`` call (``lvq.lockstep_nbytes``) hold this
# many bytes, so its memory stays bounded as M grows. The 90 cells of the
# default --select grid on the 768x8 test fixture hold 9.29 MiB (3.09 MiB of
# partitions, 6.21 MiB of lockstep arrays at the summed width of 15), so
# they train in one call.
BATCH_BYTES = 12 << 20
# A batch of fewer cells trains cell by cell through ``lvq_train``, the same
# kernel on one cell. Lockstep would not be slower at 2: a 2-cell
# ``train_cells`` call took 0.51-0.54x the time of two 1-cell calls
# (medians of 15, two runs; N 7-20, P 2-5, M 77-2000, one vCPU of a Xeon,
# numpy 2.4.6). The value stays 3 because perfbench/tracer.py wraps
# ``lvq_train`` and not ``train_cells``: at 2, the tiny tall input of
# perfbench/smoke.py (one 2-cell batch) would train out of sight of its
# "trace sees lvq.train" check. Lower it once ``train_cells`` has a span.
LOCKSTEP_MIN_CELLS = 3
# timing_stability flags a cell whose slowest classify pass takes more than
# this many times its fastest.
FLAG_RATIO = 3.0


class BenchError(ValueError):
    """Raised on invalid sweep configuration or a failing cell."""


@dataclass(frozen=True)
class SweepConfig:
    fractions: tuple = DEFAULT_FRACTIONS
    alphas: tuple = DEFAULT_ALPHAS
    repeats: int = 5
    seed: int = 42
    selection: SelectionConfig | None = None
    eval_target: str = "test"  # test | train | whole
    epochs: int = 20
    normalize: bool = True

    def __post_init__(self):
        check_integers(self, ("repeats", "epochs", "seed"), BenchError)
        if not all(0.0 < f < 1.0 for f in self.fractions):
            raise BenchError("fractions must lie in (0,1)")
        if not all(0.0 < a < 1.0 for a in self.alphas):
            raise BenchError("alphas must lie in (0,1)")
        for name, values in (("fractions", self.fractions), ("alphas", self.alphas)):
            if len(set(values)) < len(values):  # two cells would share one name
                raise BenchError(f"{name} must not repeat a value")
        if self.repeats < 1:
            raise BenchError("repeats must be >= 1")
        if self.epochs < 1:
            raise BenchError("epochs must be >= 1")
        if self.eval_target not in _EVAL_PARTITIONS:
            raise BenchError(f"unknown eval_target {self.eval_target!r}")


@dataclass
class SweepReport:
    """A sweep's config, its records and the environment that ran it. Each
    record is the dict that ``report.json`` stores (``_evaluate`` builds
    it); ``variant_grid`` reads them as a grid."""

    config: SweepConfig
    records: list[dict]
    environment: str = ""

    def to_dict(self) -> dict:
        return {
            "fractions": list(self.config.fractions),
            "alphas": list(self.config.alphas),
            "repeats": self.config.repeats,
            "seed": self.config.seed,
            "eval_target": self.config.eval_target,
            "environment": self.environment,
            "records": self.records,
        }

    def accuracy_table(self, variant: str) -> list[list]:
        """Rows: one per fraction; columns: split label then accuracy per alpha."""
        return [[f"{round(f * 100)}-{round((1 - f) * 100)}"]
                + [f"{r['accuracy']:.2f}" for r in row]
                for f, row in zip(self.config.fractions, variant_grid(self.to_dict(), variant))]


def variant_grid(report: dict, variant: str) -> list[list[dict]]:
    """The records of ``variant`` in a ``report.json`` dict as one row per
    fraction and one record per alpha, read in the order ``run_sweep``
    writes them (fraction-major). Raises ``BenchError`` unless they fill
    the grid exactly."""
    records = [r for r in report["records"] if r["variant"] == variant]
    cells = [(f, a) for f in report["fractions"] for a in report["alphas"]]
    for i, (f, a) in enumerate(cells):
        if i == len(records) or (records[i]["fraction"], records[i]["alpha"]) != (f, a):
            raise BenchError(f"no record for cell ({f}, {a}, {variant})")
    if len(records) > len(cells):
        raise BenchError(f"{len(records)} {variant} records for {len(cells)} grid cells")
    n = len(report["alphas"])
    return [records[i * n:(i + 1) * n] for i in range(len(report["fractions"]))]


def cell_seed(master: int, fraction_index: int, alpha_index: int) -> int:
    """Stable per-cell seed; adding grid rows never perturbs existing cells."""
    digest = hashlib.blake2b(
        f"{master}:{fraction_index}:{alpha_index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def paper_efficiency(correct_whole: int, test_total: int) -> float:
    """Whole-dataset correct count over test-partition size, as a percent.

    Can exceed 100; reported alongside standard accuracy, never instead.
    """
    if test_total < 1:
        raise BenchError("test_total must be >= 1")
    return 100.0 * correct_whole / test_total


@dataclass
class _Cell:
    """A sweep cell prepared for training: its partitions and initial model."""

    fraction: float
    alpha: float
    variant: str
    parts: tuple[Dataset, Dataset]
    model: LVQModel
    selection: dict | None
    # the selection summary of the reduced variant when the filter kept
    # every column: that variant is this cell, and its record a copy
    twin: dict | None = None


def _run_batch(batch: list[_Cell], cfg: SweepConfig) -> list[dict]:
    """Train the cells, with one ``train_cells`` call, whose arrays
    ``run_sweep`` sized with ``lockstep_nbytes``, or, below
    ``LOCKSTEP_MIN_CELLS`` cells, one ``lvq_train`` call per cell, and
    evaluate them in order. Each record's ``train_ms`` is the wall time of
    the call that trained it. A cell with a twin gives its reduced record
    too. The cells of a sweep share their prototype count (every class has
    rows in each train partition) and epochs, as ``train_cells`` needs. If
    cells fail, the error of the first in batch order propagates."""
    trained, train_ms = [], []
    if len(batch) >= LOCKSTEP_MIN_CELLS:
        t0 = time.perf_counter()
        trained = train_cells([c.model for c in batch], [c.parts[0] for c in batch])
        train_ms = [(time.perf_counter() - t0) * 1e3] * len(batch)
    else:
        for cell in batch:  # seen by the tracer as lvq.train
            t0 = time.perf_counter()
            trained.append(lvq_train(cell.model, cell.parts[0]))
            train_ms.append((time.perf_counter() - t0) * 1e3)
    records = []
    for cell, model, ms in zip(batch, trained, train_ms):
        records.append(_evaluate(cell, model, ms, cfg))
        if cell.twin is not None:
            records.append(dict(records[-1], variant="reduced", selection=cell.twin,
                                classify_ms_repeats=list(records[-1]["classify_ms_repeats"])))
    return records


def _median(values: list[float]) -> float:
    """The middle value, or the mean of the two middle ones, as
    ``statistics.median`` gives it; importing ``statistics`` (it pulls in
    ``fractions`` and ``decimal``) and ``np.median``'s first call (it
    imports ``numpy.ma``) each cost a CLI start milliseconds."""
    ordered, half = sorted(values), len(values) // 2
    return ordered[half] if len(values) % 2 else (ordered[half - 1] + ordered[half]) / 2


def _evaluate(cell: _Cell, model: LVQModel, train_ms: float, cfg: SweepConfig) -> dict:
    scored, extra = _EVAL_PARTITIONS[cfg.eval_target]
    classify_times = []
    for _ in range(cfg.repeats):
        t0 = time.perf_counter()
        correct = sum(evaluate(model, cell.parts[k]) for k in scored)
        classify_times.append((time.perf_counter() - t0) * 1e3)
    total = sum(cell.parts[k].n_instances for k in scored)
    whole_correct = correct + sum(evaluate(model, cell.parts[k]) for k in extra)
    # report.json's record, keys in this order
    return dict(fraction=cell.fraction, alpha=cell.alpha, variant=cell.variant,
                accuracy=100.0 * correct / total,  # percent, on cfg.eval_target
                paper_efficiency=paper_efficiency(whole_correct, cell.parts[1].n_instances),
                correct=correct, total=total, train_ms=train_ms,
                classify_ms=_median(classify_times), classify_ms_repeats=classify_times,
                selection=cell.selection)


def _prepare(d: Dataset, cfg: SweepConfig, fi: int, ai: int) -> list[_Cell]:
    """The original and, with a selection config, the reduced variant of
    grid cell (fraction ``fi``, alpha ``ai``), ready to train. When the
    filter keeps every column, the reduced variant is the original cell's
    twin and is not prepared again."""
    fraction, alpha = cfg.fractions[fi], cfg.alphas[ai]
    seed = cell_seed(cfg.seed, fi, ai)
    try:
        parts = split(d, fraction, seed)
    except ValueError as exc:
        raise BenchError(f"cell ({fraction}, {alpha}): {exc}") from exc
    sel = None
    if cfg.selection is not None:
        try:
            sel = ife_cf(parts[0], cfg.selection)
        except SelectionError as exc:
            raise BenchError(
                f"cell ({fraction}, {alpha}, reduced): selection failed: {exc}"
            ) from exc
    if cfg.normalize:
        norm = fit_normalizer(parts[0])
        parts = tuple(apply_normalizer(p, norm) for p in parts)
    lvq_cfg = LVQConfig(alpha=alpha, epochs=cfg.epochs, seed=seed)
    original = _Cell(fraction, alpha, "original", parts, init_codebook(parts[0], lvq_cfg), None)
    if sel is None:
        return [original]
    summary = {
        "kept_count": len(sel.kept),
        "kept": sel.kept,
        "eliminated_count": len(sel.eliminated),
    }
    if sel.kept == list(range(d.n_features)):
        original.twin = summary
        return [original]
    parts = tuple(apply_selection(p, sel) for p in parts)
    return [original, _Cell(fraction, alpha, "reduced", parts, init_codebook(parts[0], lvq_cfg),
                            summary)]


def run_sweep(d: Dataset, cfg: SweepConfig) -> SweepReport:
    """Evaluate every (fraction, alpha) cell for the original dataset and,
    when a selection config is present, the reduced variant.

    Both variants of a cell share one stratified split and one normalizer
    fitted on its train partition. Selection runs on the raw train partition;
    min-max scaling is per column, so projecting the normalized partitions
    equals normalizing the projected ones.

    Cells are prepared in grid order. A batch closes once its partitions
    and the arrays of its ``lvq.train_cells`` call (``lvq.lockstep_nbytes``)
    reach ``BATCH_BYTES``, and ``_run_batch`` trains and evaluates it. The
    report's records are the dicts that ``report.json`` stores, in grid
    order (fraction-major, each cell's original before its reduced
    variant), as ``variant_grid`` reads them. A reduced variant that keeps
    every column reuses the original's model: its record copies the
    original's accuracy and timing fields.

    Accuracy fields are a pure function of (dataset, config); timing fields
    come from a monotonic clock and vary run to run.
    """
    records: list[dict] = []
    batch: list[_Cell] = []
    for fi in range(len(cfg.fractions)):
        for ai in range(len(cfg.alphas)):
            try:
                cells = _prepare(d, cfg, fi, ai)
            except (BenchError, LVQError):
                # the cells before this one train first, so an error of
                # theirs wins, as in grid order
                _run_batch(batch, cfg)
                raise
            for cell in cells:
                batch.append(cell)
                held = sum(part.features.nbytes for c in batch for part in c.parts)
                if held + lockstep_nbytes([c.model for c in batch],
                                          [c.parts[0] for c in batch]) >= BATCH_BYTES:
                    records.extend(_run_batch(batch, cfg))
                    batch = []
    records.extend(_run_batch(batch, cfg))
    # platform.platform() would start a ``uname -p`` process; these read os.uname()
    env = (f"{platform.system()}-{platform.release()}-{platform.machine()}"
           f" python {platform.python_version()} numpy {np.__version__}")
    return SweepReport(cfg, records, environment=env)


def timing_stability(report: SweepReport) -> dict:
    """Inter-repeat spread per cell; cells beyond ``FLAG_RATIO`` are flagged
    as load artifacts."""
    if report.config.repeats < 3:
        raise BenchError("timing_stability needs repeats >= 3")
    cells = []
    for r in report.records:
        lo, hi = min(r["classify_ms_repeats"]), max(r["classify_ms_repeats"])
        cells.append({"fraction": r["fraction"], "alpha": r["alpha"], "variant": r["variant"],
                      "spread_ratio": hi / lo if lo > 0 else float("inf")})
    return {"cells": cells, "flagged": [c for c in cells if c["spread_ratio"] > FLAG_RATIO]}
