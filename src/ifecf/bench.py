"""Benchmark harness: sweep train fraction x learning rate, with and without
feature reduction, recording accuracy and wall-clock timing per cell."""

from __future__ import annotations

import hashlib
import platform
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, SplitSpec, apply_normalizer, fit_normalizer, split
from .lvq import LVQConfig, evaluate, init_codebook
from .lvq import train as lvq_train
from .select import SelectionConfig, SelectionError, apply_selection, ife_cf

DEFAULT_FRACTIONS = tuple(round(0.1 * i, 1) for i in range(1, 10))
DEFAULT_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5)

# eval_target -> (partitions scored for accuracy, partitions evaluated once
# more only for paper_efficiency); 0 is the train partition, 1 the test one.
_EVAL_PARTITIONS = {"test": ((1,), (0,)), "train": ((0,), (1,)), "whole": ((0, 1), ())}


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
        if not all(0.0 < f < 1.0 for f in self.fractions):
            raise BenchError("fractions must lie in (0,1)")
        if not all(0.0 < a < 1.0 for a in self.alphas):
            raise BenchError("alphas must lie in (0,1)")
        if self.repeats < 1:
            raise BenchError("repeats must be >= 1")
        if self.epochs < 1:
            raise BenchError("epochs must be >= 1")
        if self.eval_target not in _EVAL_PARTITIONS:
            raise BenchError(f"unknown eval_target {self.eval_target!r}")


@dataclass
class CellRecord:
    fraction: float
    alpha: float
    variant: str  # original | reduced
    accuracy: float  # percent, on eval_target
    paper_efficiency: float  # percent, whole-dataset correct over test count
    correct: int
    total: int
    train_ms: float
    classify_ms: float
    classify_ms_repeats: list[float] = field(default_factory=list)
    selection: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SweepReport:
    config: SweepConfig
    records: list[CellRecord]
    environment: str = ""

    def to_dict(self) -> dict:
        return {
            "fractions": list(self.config.fractions),
            "alphas": list(self.config.alphas),
            "repeats": self.config.repeats,
            "seed": self.config.seed,
            "eval_target": self.config.eval_target,
            "environment": self.environment,
            "records": [r.to_dict() for r in self.records],
        }

    def accuracy_table(self, variant: str) -> list[list]:
        """Rows: one per fraction; columns: split label then accuracy per alpha."""
        # reversed: a grid that repeats a value reads its first record, as before
        cells = {(r.fraction, r.alpha): r for r in reversed(self.records)
                 if r.variant == variant}
        rows = []
        for f in self.config.fractions:
            row = [f"{round(f * 100)}-{round((1 - f) * 100)}"]
            for a in self.config.alphas:
                cell = cells.get((f, a))
                if cell is None:
                    raise BenchError(f"no record for cell ({f}, {a}, {variant})")
                row.append(f"{cell.accuracy:.2f}")
            rows.append(row)
        return rows


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


def _run_cell(parts: tuple[Dataset, Dataset], cfg: SweepConfig, fraction: float,
              alpha: float, seed: int, variant: str,
              selection: dict | None) -> CellRecord:
    train_d, test_d = parts
    lvq_cfg = LVQConfig(alpha=alpha, epochs=cfg.epochs, seed=seed)
    model0 = init_codebook(train_d, lvq_cfg)

    # training is deterministic, so one timed fit is the cell's model
    t0 = time.perf_counter()
    model = lvq_train(model0, train_d, lvq_cfg)
    train_ms = (time.perf_counter() - t0) * 1e3

    scored, extra = _EVAL_PARTITIONS[cfg.eval_target]
    classify_times = []
    for _ in range(cfg.repeats):
        t0 = time.perf_counter()
        results = [evaluate(model, parts[k]) for k in scored]
        classify_times.append((time.perf_counter() - t0) * 1e3)
    correct = sum(r.correct for r in results)
    total = sum(r.total for r in results)
    whole_correct = correct + sum(evaluate(model, parts[k]).correct for k in extra)
    return CellRecord(
        fraction=fraction,
        alpha=alpha,
        variant=variant,
        accuracy=100.0 * correct / total,
        paper_efficiency=paper_efficiency(whole_correct, test_d.n_instances),
        correct=correct,
        total=total,
        train_ms=train_ms,
        classify_ms=statistics.median(classify_times),
        classify_ms_repeats=classify_times,
        selection=selection,
    )


def run_sweep(d: Dataset, cfg: SweepConfig) -> SweepReport:
    """Evaluate every (fraction, alpha) cell for the original dataset and,
    when a selection config is present, the reduced variant.

    Both variants of a cell share one stratified split and one normalizer
    fitted on its train partition. Selection runs on the raw train partition;
    min-max scaling is per column, so projecting the normalized partitions
    equals normalizing the projected ones.

    Accuracy fields are a pure function of (dataset, config); timing fields
    come from a monotonic clock and vary run to run.
    """
    records = []
    for fi, fraction in enumerate(cfg.fractions):
        for ai, alpha in enumerate(cfg.alphas):
            seed = cell_seed(cfg.seed, fi, ai)
            try:
                parts = split(d, SplitSpec(fraction, seed=seed, stratified=True))
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
            records.append(_run_cell(parts, cfg, fraction, alpha, seed, "original", None))
            if sel is not None:
                summary = {
                    "kept_count": len(sel.kept),
                    "kept": sel.kept,
                    "eliminated_count": len(sel.eliminated),
                }
                parts = tuple(apply_selection(p, sel) for p in parts)
                records.append(_run_cell(parts, cfg, fraction, alpha, seed, "reduced", summary))
    env = f"{platform.platform()} python {platform.python_version()} numpy {np.__version__}"
    return SweepReport(cfg, records, environment=env)


def timing_stability(report: SweepReport, flag_ratio: float = 3.0) -> dict:
    """Inter-repeat spread per cell; cells beyond the ratio are flagged as
    load artifacts."""
    if report.config.repeats < 3:
        raise BenchError("timing_stability needs repeats >= 3")
    cells = []
    flagged = []
    for r in report.records:
        lo = min(r.classify_ms_repeats)
        ratio = max(r.classify_ms_repeats) / lo if lo > 0 else float("inf")
        entry = {
            "fraction": r.fraction,
            "alpha": r.alpha,
            "variant": r.variant,
            "spread_ratio": ratio,
        }
        cells.append(entry)
        if ratio > flag_ratio:
            flagged.append(entry)
    return {"cells": cells, "flagged": flagged}
