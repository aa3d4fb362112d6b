"""Tabular dataset loading, validation, train/test splitting and min-max
normalization. Every other module consumes the immutable Dataset defined here."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Raised for malformed input files or invalid dataset operations."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """M instances by N numeric features plus an integer class label per row.

    Labels are contiguous ids; ``class_names`` maps each id back to the
    original token from the source file. Arrays are read-only so instances
    can be shared freely across threads.
    """

    features: np.ndarray  # (M, N) float64
    labels: np.ndarray  # (M,) int64
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", _freeze(np.asarray(self.features, dtype=np.float64)))
        object.__setattr__(self, "labels", _freeze(np.asarray(self.labels, dtype=np.int64)))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        m, n = self.features.shape
        if m < 1 or n < 1:
            raise DataError(f"dataset must have at least 1 row and 1 feature, got {m}x{n}")
        if self.labels.shape != (m,):
            raise DataError("label vector length does not match instance count")
        if len(self.feature_names) != n:
            raise DataError("feature_names length does not match feature count")
        if not np.all(np.isfinite(self.features)):
            raise DataError("non-finite feature value")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= len(self.class_names):
            raise DataError("label id outside class table")

    @property
    def n_instances(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    def take(self, rows: np.ndarray) -> "Dataset":
        """Row subset; keeps the parent's class table (a partition may miss a class)."""
        return Dataset(self.features[rows], self.labels[rows], self.feature_names, self.class_names)

    def project(self, cols: list[int]) -> "Dataset":
        """Column subset in the given order; labels untouched."""
        if any(c < 0 or c >= self.n_features for c in cols):
            raise DataError(f"feature index out of range for N={self.n_features}")
        if not cols:
            raise DataError("cannot project onto an empty feature set")
        names = tuple(self.feature_names[c] for c in cols)
        # np.take returns a C-ordered copy, which _freeze keeps as it is
        return Dataset(np.take(self.features, cols, axis=1), self.labels, names,
                       self.class_names)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int = 42
    stratified: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DataError(f"train_fraction must be in (0,1), got {self.train_fraction}")


@dataclass(frozen=True)
class NormalizationParams:
    """Per-feature train-set min and max for affine [0,1] scaling."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mins", _freeze(np.asarray(self.mins, dtype=np.float64)))
        object.__setattr__(self, "maxs", _freeze(np.asarray(self.maxs, dtype=np.float64)))


# Cells per parse block. The cell strings of one block (about 90 bytes each)
# are the parser's only memory beyond the float64 result.
BLOCK_CELLS = 1 << 14


def load_csv(path, class_column=None, delimiter: str = ",") -> Dataset:
    """Load a delimited text file with a header row into a Dataset.

    ``class_column`` selects the label column by name or 0-based index;
    default is the last column. Labels map to contiguous integer ids in
    first-appearance order. Blank lines are skipped, and errors name the
    file's physical line. Rows are parsed in blocks of about ``BLOCK_CELLS``
    cells, so memory stays near one float64 copy of the features.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = _numbered_rows(fh, delimiter)
        first = next(rows, None)
        if first is None:
            raise DataError(f"{path}: need a header row and at least one data row")
        header = [c.strip() for c in first[1]]
        arity = len(header)
        block_rows = max(1, BLOCK_CELLS // arity)
        block = list(islice(rows, block_rows))
        if not block:
            raise DataError(f"{path}: need a header row and at least one data row")
        if class_column is None:
            class_idx = arity - 1
        elif isinstance(class_column, int):
            if not 0 <= class_column < arity:
                raise DataError(f"class column index {class_column} out of range")
            class_idx = class_column
        else:
            try:
                class_idx = header.index(class_column)
            except ValueError:
                raise DataError(f"class column {class_column!r} not in header {header}") from None

        ids: dict[str, int] = {}  # label token -> id, in first-appearance order
        feat_blocks, label_blocks = [], []
        while block:
            parsed = _parse_block(block, arity, class_idx, ids)
            if parsed is None:
                raise _first_bad_cell(path, block, header, class_idx)
            feat_blocks.append(parsed[0])
            label_blocks.append(parsed[1])
            del block  # free this block's cells before reading the next
            block = list(islice(rows, block_rows))

    feature_names = tuple(h for i, h in enumerate(header) if i != class_idx)
    if len(ids) < 2:
        raise DataError(f"{path}: single-class dataset, classification undefined")
    labels = np.concatenate(label_blocks)
    if labels.size < 2:
        raise DataError(f"{path}: need at least 2 instances")
    features = np.concatenate(feat_blocks)
    del feat_blocks
    return Dataset(features, labels, feature_names, tuple(ids))


def _numbered_rows(fh, delimiter: str):
    """Yield (physical line number, cells) for each non-blank row."""
    if delimiter == " ":
        for lineno, line in enumerate(fh, start=1):
            cells = line.split()
            if cells:
                yield lineno, cells
        return
    reader = csv.reader(fh, delimiter=delimiter)
    start = 1
    for row in reader:
        if row:
            yield start, row
        start = reader.line_num + 1  # a quoted field may span lines


def _parse_block(block, arity: int, class_idx: int, ids: dict[str, int]):
    """(features, label ids) of a block of numbered rows, or None when a row
    has the wrong arity or a feature cell is non-numeric or non-finite."""
    rows = [row for _, row in block]
    if any(len(row) != arity for row in rows):
        return None
    cells = list(chain.from_iterable(rows))
    tokens = cells[class_idx::arity]
    del cells[class_idx::arity]
    try:
        feats = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
    except ValueError:
        return None
    if not np.isfinite(feats).all():
        return None
    labels = np.fromiter(
        (ids.setdefault(t, len(ids)) for t in map(str.strip, tokens)),
        dtype=np.int64, count=len(tokens),
    )
    return feats.reshape(len(rows), arity - 1), labels


def _first_bad_cell(path: Path, block, header: list[str], class_idx: int) -> DataError:
    """The error for the first bad row or cell of a block, in file order."""
    arity = len(header)
    for lineno, row in block:
        if len(row) != arity:
            return DataError(f"{path}:{lineno}: expected {arity} cells, got {len(row)}")
        for j, cell in enumerate(row):
            if j == class_idx:
                continue
            try:
                v = float(cell)
            except ValueError:
                return DataError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in column {header[j]!r}"
                )
            if not math.isfinite(v):
                return DataError(f"{path}:{lineno}: non-finite value in column {header[j]!r}")
    raise AssertionError("block parsed cleanly")


def write_csv(d: Dataset, path, delimiter: str = ",") -> None:
    """Write a Dataset back out; values use repr so reloads are bit-exact."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, delimiter=delimiter)
        w.writerow(list(d.feature_names) + ["class"])
        for i in range(d.n_instances):
            w.writerow([repr(float(v)) for v in d.features[i]] + [d.class_names[d.labels[i]]])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(d: Dataset, s: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic seeded train/test partition.

    Plain mode shuffles all indices; stratified mode shuffles within each
    class and allocates train counts by largest remainder so per-class
    proportions hold within rounding.
    """
    m = d.n_instances
    n_train = _round_half_up(s.train_fraction * m)
    if n_train < 1 or n_train >= m:
        raise DataError(
            f"fraction {s.train_fraction} on M={m} leaves an empty partition"
        )
    rng = np.random.default_rng(s.seed)
    if not s.stratified:
        order = rng.permutation(m)
        train_idx, test_idx = order[:n_train], order[n_train:]
    else:
        class_rows = [np.flatnonzero(d.labels == c) for c in range(d.class_count)]
        class_rows = [r for r in class_rows if r.size > 0]
        if any(r.size < 2 for r in class_rows):
            raise DataError("stratified split impossible: a class has a single instance")
        targets = [s.train_fraction * r.size for r in class_rows]
        counts = [int(math.floor(t)) for t in targets]
        # clamp so each partition keeps at least one instance per class
        counts = [min(max(c, 1), r.size - 1) for c, r in zip(counts, class_rows)]
        remainders = sorted(
            range(len(class_rows)),
            key=lambda i: (targets[i] - math.floor(targets[i])),
            reverse=True,
        )
        deficit = n_train - sum(counts)
        for i in remainders if deficit > 0 else reversed(remainders):
            if deficit == 0:
                break
            if deficit > 0 and counts[i] < class_rows[i].size - 1:
                counts[i] += 1
                deficit -= 1
            elif deficit < 0 and counts[i] > 1:
                counts[i] -= 1
                deficit += 1
        if deficit != 0:
            raise DataError("stratified split impossible at this fraction")
        train_parts, test_parts = [], []
        for rows, c in zip(class_rows, counts):
            order = rows[rng.permutation(rows.size)]
            train_parts.append(order[:c])
            test_parts.append(order[c:])
        train_idx = np.concatenate(train_parts)
        test_idx = np.concatenate(test_parts)
    return d.take(np.sort(train_idx)), d.take(np.sort(test_idx))


def fit_normalizer(train: Dataset) -> NormalizationParams:
    return NormalizationParams(train.features.min(axis=0), train.features.max(axis=0))


def apply_normalizer(d: Dataset, p: NormalizationParams) -> Dataset:
    """Affine per-feature map by train min/max; constant features go to 0.5.

    Test values may land outside [0,1]; no clipping.
    """
    if p.mins.shape[0] != d.n_features:
        raise DataError(
            f"normalizer fitted on N={p.mins.shape[0]}, dataset has N={d.n_features}"
        )
    span = p.maxs - p.mins
    const = span == 0
    out = np.subtract(d.features, p.mins)
    np.divide(out, span, out=out, where=~const)
    out[:, const] = 0.5
    return Dataset(out, d.labels, d.feature_names, d.class_names)
