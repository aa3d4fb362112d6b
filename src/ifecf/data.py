"""Tabular dataset loading, validation, train/test splitting and min-max
normalization. Every other module consumes the immutable Dataset defined here."""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import contains
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Raised for malformed input files or invalid dataset operations."""


def check_integers(config, names, error: type[Exception]) -> None:
    """Raise ``error`` unless each named field of ``config`` is an integer;
    a bool is not one."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise error(f"{name} must be an integer, got {value!r}")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """M instances by N numeric features plus an integer class label per row.

    Labels are contiguous ids; ``class_names`` maps each id back to the
    original token from the source file. Arrays are read-only so instances
    can be shared freely across threads. ``source_sha256`` is the hex sha256
    of the file ``load_csv`` read; a derived Dataset has None.
    """

    features: np.ndarray  # (M, N) float64
    labels: np.ndarray  # (M,) int64
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    source_sha256: str | None = None

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
        # min and max propagate nan and reach +-inf, without an (M, N) temporary
        if not (np.isfinite(self.features.min()) and np.isfinite(self.features.max())):
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


# Cells per parse block. The strings of one block (its lines, or its cells on
# the csv path) are the parser's only memory beyond the float64 result.
BLOCK_CELLS = 1 << 14


def load_csv(path, class_column=None, delimiter: str = ",") -> Dataset:
    """Load a delimited text file with a header row into a Dataset.

    ``class_column`` selects the label column by name or 0-based index;
    default is the last column. Labels map to contiguous integer ids in
    first-appearance order. Blank lines are skipped, and errors name the
    file's physical line. Rows are parsed in blocks of about ``BLOCK_CELLS``
    cells, so memory stays near one float64 copy of the features. Blocks of
    lines with no quote character go to numpy's C reader, which reads the
    class cells and checks each row's cell count in the same pass; a block it
    rejects, and from the first quote on every block, is read as rows by the
    ``csv`` module and parsed by ``float()``. A file with no CR byte is read
    with LF as its only line end.

    A parsed dataset is cached under the sha256 of the file's bytes (see
    ``_cache_entry``), so a file that was loaded before with the same
    arguments is read back from the cache and not parsed again.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    stamp = _stamp(path)
    digest = _file_sha256(path)
    entry = _cache_entry(digest, class_column, delimiter)
    d = _cache_read(entry, digest)
    if d is None:
        bound, crs = _line_bound(path)
        try:  # with no CR, a line ends at LF alone, which is found by memchr, not char by char
            with path.open("r", encoding="utf-8", newline="" if crs else "\n") as fh:
                d = _read(path, fh, class_column, delimiter, bound, digest)
        except UnicodeDecodeError:
            raise _utf8_error(path) from None
        if _stamp(path) == stamp:  # else the parse may not be of the hashed bytes
            _cache_write(entry, d)
    return d


# The dataset cache deletes its least recently used files once they hold
# more than this many bytes.
CACHE_BYTES = 1 << 30
_code_sha256 = None  # the sha256 of this file, read once per process


def _stamp(path: Path) -> tuple[int, int]:
    """The size and mtime of ``path``, which a write to it changes."""
    st = path.stat()
    return st.st_size, st.st_mtime_ns


def _file_sha256(path: Path) -> str:
    """The hex sha256 of the bytes of ``path``, read in 64 KiB chunks (see
    ``_line_bound``)."""
    h = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def _cache_entry(digest: str, class_column, delimiter: str) -> Path:
    """The cache file of a file of sha256 ``digest`` loaded with these
    arguments: ``$XDG_CACHE_HOME/ifecf/<key>.npz`` (``~/.cache`` when that is
    unset or empty), where the key hashes the digest, the arguments, this
    loader's source and the numpy version, so a change to any of them
    misses."""
    global _code_sha256
    if _code_sha256 is None:
        _code_sha256 = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
    key = repr((digest, _code_sha256, np.__version__, type(class_column).__name__,
                class_column, delimiter))
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root, "ifecf", hashlib.sha256(key.encode()).hexdigest() + ".npz")


def _cache_read(entry: Path, digest: str) -> Dataset | None:
    """The Dataset stored in cache file ``entry``, or None when it is missing
    or does not read or validate. A hit marks the file as recently used."""
    import json
    import zipfile  # numpy has imported both

    try:
        with np.load(entry, allow_pickle=False) as z:
            feature_names, class_names = json.loads(z["names"].tobytes())
            d = Dataset(z["features"], z["labels"], feature_names, class_names, digest)
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
        return None
    try:
        os.utime(entry)
    except OSError:  # a read-only cache still serves its entries
        pass
    return d


def _cache_write(entry: Path, d: Dataset) -> None:
    """Store ``d`` as cache file ``entry`` through a temporary file and an
    atomic rename, then delete the least recently used files of the cache
    while they hold more than ``CACHE_BYTES``. A cache that cannot be
    written leaves the load uncached."""
    import json

    names = json.dumps([d.feature_names, d.class_names]).encode()
    tmp = entry.with_name(f"{entry.name}.{os.getpid()}")
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
    except OSError:
        return
    try:
        with tmp.open("wb") as fh:
            np.savez(fh, features=d.features, labels=d.labels,
                     names=np.frombuffer(names, np.uint8))
        os.replace(tmp, entry)
        with os.scandir(entry.parent) as it:
            files = sorted((f.stat().st_mtime_ns, f.stat().st_size, f.path) for f in it)
    except OSError:
        tmp.unlink(missing_ok=True)
        return
    total = sum(size for _, size, _ in files)
    for _, size, name in files:
        if total <= CACHE_BYTES:
            break
        try:
            os.remove(name)
        except OSError:  # gone already, or not ours to remove
            pass
        total -= size


def _utf8_error(path: Path) -> DataError:
    """The error for the first line of ``path`` that is not valid UTF-8."""
    lineno = 1
    with path.open("rb") as fh:
        for raw in fh:  # split at b"\n"; a lone b"\r" also ends a text line
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno += raw.count(b"\r", 0, exc.start)
                return DataError(f"{path}:{lineno}: invalid UTF-8 byte {raw[exc.start]:#04x}")
            lineno += 1 + raw.count(b"\r") - raw.endswith(b"\r\n")
    return DataError(f"{path}: not valid UTF-8")


def _read(path: Path, fh, class_column, delimiter: str, bound: int, digest: str) -> Dataset:
    """The Dataset of the open text file ``fh`` of at most ``bound`` lines
    and sha256 ``digest``; see ``load_csv``."""
    lineno, line = next(((n, ln) for n, ln in enumerate(fh, 1) if ln.strip("\r\n")), (1, ""))
    rows = _numbered_rows(path, chain([line], fh), delimiter, lineno)
    head = next(rows, None)
    if head is None:
        raise DataError(f"{path}: need a header row and at least one data row")
    header = [c.strip() for c in head[1]]
    arity = len(header)
    fast = arity > 1 and delimiter != " " and '"' not in line
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
    # One array sized by the line count: per-block arrays kept for a final
    # concatenate fragment the heap and raise the peak RSS of what follows.
    features = np.empty((bound, arity - 1))
    labels = np.empty(len(features), dtype=np.int64)
    m = 0
    for feats, tokens in _blocks(path, fh, None if fast else rows, header, class_idx,
                                 delimiter, lineno + 1):
        k = len(tokens)
        features[m:m + k] = feats
        labels[m:m + k] = [ids.setdefault(t, len(ids)) for t in map(str.strip, tokens)]
        m += k

    feature_names = tuple(h for i, h in enumerate(header) if i != class_idx)
    if m == 0:
        raise DataError(f"{path}: need a header row and at least one data row")
    if len(ids) < 2:
        raise DataError(f"{path}: single-class dataset, classification undefined")
    features.resize((m, arity - 1), refcheck=False)  # in place: no second copy
    labels.resize(m, refcheck=False)
    return Dataset(features, labels, feature_names, tuple(ids), digest)


def _line_bound(path: Path) -> tuple[int, int]:
    """An upper bound on the number of lines of ``path``, one more than its
    count of LF and CR bytes, and its count of CR bytes. It reads 64 KiB
    chunks, which malloc serves from its heap: freeing a larger, mmap-ed one
    would raise malloc's mmap threshold for the rest of the process."""
    lfs = crs = 0
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 16):
            codes = np.frombuffer(chunk, np.uint8)
            lfs += int(np.count_nonzero(codes == 10))
            crs += int(np.count_nonzero(codes == 13))
    return 1 + lfs + crs, crs


def _blocks(path: Path, fh, rows, header: list[str], class_idx: int, delimiter: str,
            lineno: int):
    """Yield (features, label tokens) of the data in blocks of about
    ``BLOCK_CELLS`` cells, the first line of ``fh`` being line ``lineno``.
    A block of lines with no quote character goes to ``_parse_lines``, and
    to ``_parse_rows`` if numpy rejects it. From the first block with a
    quote on, or from the start when the numbered ``rows`` are given, every
    block goes to ``_parse_rows``, as a quoted field may span lines."""
    arity = len(header)
    block_rows = max(1, BLOCK_CELLS // arity)
    while rows is None:
        lines = list(islice(fh, block_rows))
        if not lines:
            return
        if any(map(contains, lines, repeat('"'))):
            rows = _numbered_rows(path, chain(lines, fh), delimiter, lineno)
        else:
            yield (_parse_lines(lines, arity - 1, class_idx, delimiter)
                   or _parse_rows(path, list(_numbered_rows(path, lines, delimiter, lineno)),
                                  header, class_idx))
        lineno += len(lines)
    while block := list(islice(rows, block_rows)):
        yield _parse_rows(path, block, header, class_idx)


def _numbered_rows(path: Path, lines, delimiter: str, lineno: int):
    """Yield (physical line number, cells) for each non-blank row of
    ``lines``, the first of which is line ``lineno``."""
    if delimiter == " ":
        for n, line in enumerate(lines, start=lineno):
            cells = line.split()
            if cells:
                yield n, cells
        return
    reader = csv.reader(lines, delimiter=delimiter)
    start = lineno
    try:
        for row in reader:
            if row:
                yield start, row
            start = lineno + reader.line_num  # a quoted field may span lines
    except csv.Error as exc:
        raise DataError(f"{path}:{start}: {exc}") from None


def _parse_lines(lines: list[str], n: int, class_idx: int, delimiter: str):
    """(features, label tokens) of a block of quote-free lines of ``n`` features
    through one ``np.loadtxt`` pass, which checks each row's cell count; None
    when a line is blank or numpy rejects it, or a feature cell is non-finite."""
    if lines[0].isspace():  # numpy skips blank lines, and warns of a block of them
        return None
    fields = [("a", np.float64, (class_idx,)), ("c", object), ("b", np.float64, (n - class_idx,))]
    try:  # the fields in the file's column order, with no zero-width one
        r = np.loadtxt(lines, fields[class_idx == 0:2 + (class_idx < n)], delimiter=delimiter,
                       comments=None, ndmin=1)
    except ValueError:
        return None
    feats = np.hstack((r["a"], r["b"])) if 0 < class_idx < n else r["b" if class_idx == 0 else "a"]
    if len(r) < len(lines) or not np.isfinite(feats).all():
        return None
    return feats, r["c"]


def _parse_rows(path: Path, block, header: list[str], class_idx: int):
    """(features, label tokens) of a block of numbered rows through
    ``float()``. A block that does not parse in one pass is walked in file
    order, and its first row of the wrong arity, or feature cell that
    ``float()`` rejects or that is non-finite, raises DataError."""
    arity = len(header)
    if all(len(row) == arity for _, row in block):
        cells = list(chain.from_iterable(row for _, row in block))
        tokens = cells[class_idx::arity]
        del cells[class_idx::arity]
        try:
            feats = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
        except ValueError:
            pass
        else:
            if np.isfinite(feats).all():
                return feats.reshape(len(block), arity - 1), tokens
    for lineno, row in block:
        if len(row) != arity:
            raise DataError(f"{path}:{lineno}: expected {arity} cells, got {len(row)}")
        for j, cell in enumerate(row):
            if j == class_idx:
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: non-numeric value {cell!r} in column {header[j]!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(f"{path}:{lineno}: non-finite value in column {header[j]!r}")
    raise AssertionError("block parsed cleanly")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(d: Dataset, fraction: float, seed: int = 42) -> tuple[Dataset, Dataset]:
    """Deterministic seeded, stratified train/test partition with a share
    ``fraction`` in (0, 1) of the rows in train.

    Shuffles within each class and allocates train counts by largest
    remainder so per-class proportions hold within rounding.
    """
    if not 0.0 < fraction < 1.0:  # also false for NaN
        raise DataError(f"fraction must be in (0,1), got {fraction}")
    m = d.n_instances
    n_train = _round_half_up(fraction * m)
    if n_train < 1 or n_train >= m:
        raise DataError(f"fraction {fraction} on M={m} leaves an empty partition")
    rng = np.random.default_rng(seed)
    class_rows = [np.flatnonzero(d.labels == c) for c in range(d.class_count)]
    class_rows = [r for r in class_rows if r.size > 0]
    if any(r.size < 2 for r in class_rows):
        raise DataError("stratified split impossible: a class has a single instance")
    targets = [fraction * r.size for r in class_rows]
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


def fit_normalizer(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The per-feature (mins, maxs) of ``train`` for ``apply_normalizer``."""
    return train.features.min(axis=0), train.features.max(axis=0)


def apply_normalizer(d: Dataset, norm: tuple[np.ndarray, np.ndarray]) -> Dataset:
    """Affine per-feature map by the train (mins, maxs) of ``fit_normalizer``;
    constant features go to 0.5.

    Test values may land outside [0,1]; no clipping.
    """
    mins, maxs = norm
    if mins.shape[0] != d.n_features:
        raise DataError(f"normalizer fitted on N={mins.shape[0]}, dataset has N={d.n_features}")
    span = maxs - mins
    const = span == 0
    out = np.subtract(d.features, mins)
    np.divide(out, span, out=out, where=~const)
    out[:, const] = 0.5
    return Dataset(out, d.labels, d.feature_names, d.class_names)
