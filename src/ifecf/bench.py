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
from .data import DataError, Dataset, apply_normalizer, check_integers, fit_normalizer, split
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
# arrays of their training calls (``lvq.lockstep_nbytes``) hold this many
# bytes, so its memory stays bounded as M grows. The 90 cells of the
# default --select grid on the 768x8 test fixture hold 9.29 MiB (3.09 MiB of
# partitions, 6.21 MiB of lockstep arrays at the summed width of 15), so
# they train in one call.
BATCH_BYTES = 12 << 20
# A batch of fewer cells trains cell by cell through ``lvq_train``, the same
# kernel on one cell, which trains a lone cell in speculated windows. So a
# 2-cell ``train_cells`` call is not always faster than two 1-cell calls:
# on a cell's original and reduced variants it took 1.33-1.75x their time
# on tall's (N 20 and 16-18, P 5, M 2000, alpha 0.1, seeds 3 and 7) and
# 0.51-1.09x on pima-like ones (N 8 and 3-7, P 2, M 77-691, alpha 0.1 and
# 0.5, seeds 1 and 3), medians of 15 in each of two passes on one pinned
# vCPU of a Xeon, numpy 2.4.6; before windows it took 0.51-0.54x. perfbench/tracer.py also wraps ``lvq_train`` and not
# ``train_cells``: at 2, the tiny tall input of perfbench/smoke.py (one
# 2-cell batch) would train out of sight of its "trace sees lvq.train"
# check.
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
    """A sweep's config, its records and the environment that ran it.
    ``to_dict`` is the whole ``report.json`` document, whose records
    ``_evaluate`` builds and ``variant_grids`` reads as grids."""

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
            "timing_stability": timing_stability(self) if self.config.repeats >= 3 else None,
        }

    def accuracy_tables(self) -> dict[str, list[list[str]]]:
        """Each variant's accuracy CSV rows, by name: ``split`` and ``alpha_<a>``
        per alpha, then per fraction its split label and accuracies."""
        cfg = self.config
        grids = variant_grids({"fractions": list(cfg.fractions), "alphas": list(cfg.alphas),
                               "records": self.records})
        header = ["split"] + [f"alpha_{a:g}" for a in cfg.alphas]
        return {v: [header] + [[f"{round(f * 100)}-{round((1 - f) * 100)}"]
                               + [f"{r['accuracy']:.2f}" for r in row]
                               for f, row in zip(cfg.fractions, grid)] for v, grid in grids.items()}


def variant_grids(report) -> dict[str, list[list[dict]]]:
    """The records of each variant in a ``report.json`` dict, by name, as one
    row per fraction and one record per alpha, in ``run_sweep``'s order. One
    pass first checks all that the tables and the charts read, and raises
    ``BenchError`` unless the whole dict is well formed."""
    lists, number = ("fractions", "alphas", "records"), (int, float)
    if not (isinstance(report, dict) and all(isinstance(report.get(k), list) and report[k]
                                             for k in lists)):
        raise BenchError(f"a report needs non-empty lists {', '.join(map(repr, lists))}")
    fractions, alphas = report["fractions"], report["alphas"]
    if not all(isinstance(v, number) for v in fractions + alphas):
        raise BenchError("'fractions' and 'alphas' must hold numbers")
    keys, by_variant = ("fraction", "alpha", "accuracy", "classify_ms"), {}
    for r in report["records"]:
        if not (isinstance(r, dict) and isinstance(r.get("variant"), str)
                and all(isinstance(r.get(k), number) for k in keys)):
            raise BenchError(f"every record needs a string 'variant' and the numbers "
                             f"{', '.join(map(repr, keys))}")
        by_variant.setdefault(r["variant"], []).append(r)
    if unknown := by_variant.keys() - {"original", "reduced"}:
        raise BenchError(f"unknown variant {min(unknown)!r}; "
                         "a record's variant is 'original' or 'reduced'")
    cells, n = [(f, a) for f in fractions for a in alphas], len(alphas)
    for variant, records in sorted(by_variant.items()):
        for i, (f, a) in enumerate(cells):
            if i == len(records) or (records[i]["fraction"], records[i]["alpha"]) != (f, a):
                raise BenchError(f"no record for cell ({f}, {a}, {variant})")
        if len(records) > len(cells):
            raise BenchError(f"{len(records)} {variant} records for {len(cells)} grid cells")
    return {v: [by_variant[v][i * n:(i + 1) * n] for i in range(len(fractions))]
            for v in sorted(by_variant)}


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
        rows = split(d, fraction, seed)
        parts = (d.take(rows[0]),)  # raw train rows, for the filter and the normalizer
        sel = None if cfg.selection is None else ife_cf(parts[0], cfg.selection)
        if cfg.normalize:
            norm = fit_normalizer(parts[0])
            parts = tuple(apply_normalizer(d, norm, r) for r in rows)
        else:
            parts += (d.take(rows[1]),)
    except SelectionError as exc:
        raise BenchError(f"cell ({fraction}, {alpha}, reduced): selection failed: {exc}") from exc
    except DataError as exc:
        raise BenchError(f"cell ({fraction}, {alpha}): {exc}") from exc
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

    Both variants of a cell share one stratified split, as row indices, and
    one normalizer fitted on its train partition, which gathers each
    partition into the array it maps. Selection runs on the raw train rows;
    min-max scaling is per column, so projecting the normalized partitions
    equals normalizing the projected ones.

    Cells are prepared in grid order. A batch closes once its partitions
    and the arrays of its training (``lvq.lockstep_nbytes``) reach
    ``BATCH_BYTES``, and ``_run_batch`` trains and evaluates it. Below
    ``LOCKSTEP_MIN_CELLS`` cells those arrays are the largest of the cells'
    lone calls, which run one after another; from there on, they are the
    one ``lvq.train_cells`` call's. The
    report's records are the dicts that ``report.json`` stores, in grid
    order (fraction-major, each cell's original before its reduced
    variant), as ``variant_grids`` reads them. A reduced variant that keeps
    every column reuses the original's model: its record copies the
    original's accuracy and timing fields.

    Accuracy fields are a pure function of (dataset, config); timing fields
    come from a monotonic clock and vary run to run.
    """
    records: list[dict] = []
    batch: list[_Cell] = []
    held = lone = 0  # the batch's partition bytes, and its largest lone call's arrays
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
                held += sum(part.features.nbytes for part in cell.parts)
                lone = max(lone, lockstep_nbytes([cell.model], [cell.parts[0]]))
                arrays = lone if len(batch) < LOCKSTEP_MIN_CELLS else lockstep_nbytes(
                    [c.model for c in batch], [c.parts[0] for c in batch])
                if held + arrays >= BATCH_BYTES:
                    records.extend(_run_batch(batch, cfg))
                    batch, held, lone = [], 0, 0
    records.extend(_run_batch(batch, cfg))
    # platform.platform() would start a ``uname -p`` process; these read os.uname()
    env = (f"{platform.system()}-{platform.release()}-{platform.machine()}"
           f" python {platform.python_version()} numpy {np.__version__}")
    return SweepReport(cfg, records, environment=env)


def timing_stability(report: SweepReport) -> dict:
    """Inter-repeat spread per cell; cells beyond ``FLAG_RATIO`` are flagged
    as load artifacts. A cell whose fastest pass timed 0 s has no ratio
    (None, JSON null) and is flagged too."""
    if report.config.repeats < 3:
        raise BenchError("timing_stability needs repeats >= 3")
    cells = []
    for r in report.records:
        lo, hi = min(r["classify_ms_repeats"]), max(r["classify_ms_repeats"])
        cells.append({"fraction": r["fraction"], "alpha": r["alpha"], "variant": r["variant"],
                      "spread_ratio": hi / lo if lo > 0 else None})
    return {"cells": cells, "flagged": [c for c in cells if c["spread_ratio"] is None
                                        or c["spread_ratio"] > FLAG_RATIO]}
