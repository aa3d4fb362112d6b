"""LVQ1 nearest-prototype classifier with winner-take-all updates at a
fixed learning rate."""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .data import Dataset, check_integers


class LVQError(ValueError):
    """Raised on invalid configuration or degenerate training data."""


@dataclass(frozen=True)
class LVQConfig:
    alpha: float = 0.1
    epochs: int = 20
    prototypes_per_class: int = 1
    seed: int = 42

    def __post_init__(self):
        check_integers(self, ("epochs", "prototypes_per_class", "seed"), LVQError)
        if not 0.0 < self.alpha < 1.0:
            raise LVQError(f"alpha must be in (0,1), got {self.alpha}")
        if self.epochs < 1:
            raise LVQError("epochs must be >= 1")
        if self.prototypes_per_class < 1:
            raise LVQError("prototypes_per_class must be >= 1")
        if self.seed < 0:
            raise LVQError("seed must be >= 0")


@dataclass
class LVQModel:
    codebook: np.ndarray  # (P, N) prototype vectors
    classes: np.ndarray  # (P,) class id per prototype
    config: LVQConfig
    epochs_run: int = 0
    class_names: tuple[str, ...] = ()  # class id -> label token of the training set
    feature_names: tuple[str, ...] = ()  # codebook column -> header name in the training set

    @property
    def n_features(self) -> int:
        return self.codebook.shape[1]

    def to_dict(self) -> dict:
        return {
            "codebook": self.codebook.tolist(),
            "classes": self.classes.tolist(),
            "class_names": list(self.class_names),
            "feature_names": list(self.feature_names),
            "config": {
                "alpha": self.config.alpha,
                "epochs": self.config.epochs,
                "prototypes_per_class": self.config.prototypes_per_class,
                "seed": self.config.seed,
            },
            "epochs_run": self.epochs_run,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "LVQModel":
        """Read a model written by ``save``; a malformed file raises LVQError."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            codebook = np.asarray(doc["codebook"])
            classes = np.asarray(doc["classes"])
            names = doc["class_names"]
            feature_names = doc["feature_names"]
            config = LVQConfig(**doc["config"])
            epochs_run = doc["epochs_run"]
        except KeyError as exc:
            raise LVQError(f"{path}: model file lacks {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise LVQError(f"{path}: malformed model file: {exc}") from exc
        if codebook.dtype.kind not in "iuf" or codebook.ndim != 2 or codebook.size == 0:
            raise LVQError(f"{path}: codebook is not a non-empty (P, N) number array")
        if classes.dtype.kind != "i" or classes.shape != codebook.shape[:1]:
            raise LVQError(f"{path}: classes must be {codebook.shape[0]} integer ids")
        if not np.all(np.isfinite(codebook)):
            raise LVQError(f"{path}: non-finite codebook value")
        if (not isinstance(names, list) or not all(isinstance(n, str) for n in names)
                or len(set(names)) != len(names)):
            raise LVQError(f"{path}: class_names must be a list of distinct strings")
        if classes.min() < 0 or classes.max() >= len(names):
            raise LVQError(f"{path}: class id outside class_names")
        if (not isinstance(feature_names, list) or len(feature_names) != codebook.shape[1]
                or not all(isinstance(n, str) for n in feature_names)):
            raise LVQError(f"{path}: feature_names must be {codebook.shape[1]} strings")
        if isinstance(epochs_run, bool) or not isinstance(epochs_run, int) or epochs_run < 0:
            raise LVQError(f"{path}: epochs_run must be a non-negative integer")
        return cls(codebook.astype(np.float64), classes.astype(np.int64), config,
                   epochs_run, tuple(names), tuple(feature_names))

    def columns(self, names) -> list[int]:
        """Index in ``names`` (a file's feature header) of each codebook column,
        matched by name; the k-th repeat of a name matches its k-th repeat."""
        free = defaultdict(list)
        for j, name in enumerate(names):
            free[name].append(j)
        cols = []
        for name in self.feature_names:
            if not free[name]:
                raise LVQError(f"no feature column {name!r}, which the model was trained on")
            cols.append(free[name].pop(0))
        return cols


def init_codebook(train: Dataset, cfg: LVQConfig) -> LVQModel:
    """One prototype per class at the class mean, or seeded random distinct
    training instances when more prototypes are requested."""
    rng = np.random.default_rng(cfg.seed)
    protos, classes = [], []
    present = np.flatnonzero(np.bincount(train.labels, minlength=train.class_count)).tolist()
    for c in present:
        rows = np.flatnonzero(train.labels == c)
        if rows.size < cfg.prototypes_per_class:
            raise LVQError(
                f"class {train.class_names[c]!r} has {rows.size} instances, "
                f"needs >= {cfg.prototypes_per_class}"
            )
        if cfg.prototypes_per_class == 1:
            protos.append(train.features[rows].mean(axis=0))
            classes.append(c)
        else:
            chosen = rng.choice(rows, size=cfg.prototypes_per_class, replace=False)
            for r in chosen:
                protos.append(train.features[r].copy())
                classes.append(c)
    return LVQModel(np.array(protos), np.array(classes, dtype=np.int64), cfg,
                    class_names=train.class_names, feature_names=train.feature_names)


def train(model: LVQModel, data: Dataset) -> LVQModel:
    """Winner-take-all training under ``model.config``: ``train_cells`` on
    the one cell."""
    return train_cells([model], [data])[0]


def sum_widths(widths: list[int]) -> list[int]:
    """For each of a group's cells, given their widths, the columns over
    which ``train_cells`` sums its squared distances in the layout of
    ``placement``.

    numpy's pairwise sum adds a row of fewer than 128 columns as 8 lanes
    over its full blocks of 8, then a tree over the lanes, then the columns
    past the last full block one at a time, so zero columns add only +0.0
    to non-negative squares. Every cell under 128 columns sums over
    ``8 * L + T`` columns, L the most full blocks and T the largest leftover
    among those cells: one sum gives each of them the bits of its own. From
    128 columns on, the sum splits the row at a point that moves with the
    width, so such a cell sums over its own ``n``. ``tests/test_lvq.py``
    checks the rule on the installed numpy."""
    small = [n for n in widths if n < 128]
    shared = max((n & ~7 for n in small), default=0) + max((n & 7 for n in small), default=0)
    return [n if n >= 128 else shared for n in widths]


def placement(n: int, summed: int) -> np.ndarray:
    """Layout column of each of a cell's ``n`` features, when its distances
    are summed over ``summed`` columns (``sum_widths``): its full blocks of
    8 first, then its leftover columns from ``summed & ~7`` on, past the
    full blocks of every cell of the sum. A lone cell's placement is the
    identity."""
    cols = np.arange(n)
    cols[n & ~7:] += (summed & ~7) - (n & ~7)
    return cols


# Visits whose rows and coefficients ``train_cells`` gathers at a time.
CHUNK_VISITS = 32


def lockstep_nbytes(models: list[LVQModel], datas: list[Dataset]) -> int:
    """Bytes of the arrays that ``train_cells(models, datas)`` allocates: the
    stacked rows and class keys when there are several cells, the visit
    order (the largest cell's rows for each cell), and for each cell its
    +-alpha table, chunk buffers, codebook, step buffers and winner mask at
    the call's width, the widest of ``sum_widths``, and class count."""
    cells, p, chunk = len(models), models[0].codebook.shape[0], CHUNK_VISITS
    width = max(sum_widths([model.n_features for model in models]))
    classes = max(data.class_count for data in datas)
    sizes = [data.n_instances for data in datas]
    words = max(sizes) * cells + (sum(sizes) * (width + 1) if cells > 1 else 0)
    words += cells * (p * width * (classes + 2 * chunk + 4) + p * (chunk + 2) + chunk + 1)
    return 8 * words + cells * p * width  # the winner mask holds bytes


def train_cells(models: list[LVQModel], datas: list[Dataset]) -> list[LVQModel]:
    """LVQ1 winner-take-all training of independent cells of one prototype
    count and epoch count, each under its ``model.config``, with one numpy
    step per visit index. Each epoch visits a cell's rows in the order of
    the next ``permutation`` of ``np.random.default_rng(seed)``; the nearest
    prototype moves by alpha * (x - w), toward a row of its class and away
    from other rows.

    The cells are sorted by row count M, largest first, so the cells that
    still have a row at visit t are a prefix ``[:k]``. A lone cell's rows
    and labels are used as they are; several cells' rows are stacked once,
    each cell's columns at its ``placement`` in a zero-padded layout as wide
    as the widest of ``sum_widths``. Each epoch writes every cell's order as
    row indices. ``CHUNK_VISITS`` visits at a time, the rows, repeated over
    the prototypes, and their +-alpha for each prototype, repeated over the
    columns, are gathered into buffers, so that each visit updates the
    winning prototype of all k cells with a few numpy operations on arrays
    of one shape. A cell's squared distances are summed over its first
    ``sum_widths`` columns: one sum for all cells under 128 columns, and one
    more for each distinct width from 128 on among the k cells. The trained
    codebooks are taken back from the layout in C order.

    If cells go non-finite, the first in argument order raises ``LVQError``
    naming the epoch after which it did; training stops once all have.
    """
    p, epochs = models[0].codebook.shape[0], models[0].config.epochs
    for model, data in zip(models, datas, strict=True):
        if data.n_features != model.n_features:
            raise LVQError(f"model expects N={model.n_features}, "
                           f"dataset has N={data.n_features}")
        if (model.codebook.shape[0], model.config.epochs) != (p, epochs):
            raise LVQError("train_cells needs one group: equal prototype count and epochs")
    order = sorted(range(len(models)), key=lambda a: -datas[a].n_instances)
    sizes = [datas[a].n_instances for a in order]
    widths = [models[a].n_features for a in order]
    sums = np.array(sum_widths(widths))
    cols = [placement(n, s) for n, s in zip(widths, sums.tolist())]
    cells, width = len(order), int(sums.max())
    class_count = max(data.class_count for data in datas)
    book = np.zeros((cells, p, width))
    table = np.empty((cells * class_count, p, width))  # row c * class_count + y: label y of cell c
    for c, a in enumerate(order):
        book[c][:, cols[c]] = models[a].codebook
        alpha = models[a].config.alpha
        same = models[a].classes == np.arange(class_count)[:, None]
        table[c * class_count:(c + 1) * class_count] = np.where(same, alpha, -alpha)[:, :, None]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    if cells == 1:
        rows, keys = datas[order[0]].features, datas[order[0]].labels
    else:
        rows = np.zeros((sum(sizes), width))
        keys = np.empty(sum(sizes), dtype=np.intp)
        for c, a in enumerate(order):
            rows[starts[c]:starts[c] + sizes[c], cols[c]] = datas[a].features
            np.add(datas[a].labels, c * class_count, out=keys[starts[c]:starts[c] + sizes[c]])
    visit = np.empty((sizes[0], cells), dtype=np.intp)  # visit t's row of each cell
    # chunk buffers, viewed for a run of k active cells as their first
    # CHUNK_VISITS * k rows, and the step's buffers, as their first k entries
    gathered, coefs = np.empty((2, CHUNK_VISITS * cells * p * width))
    row_ids = np.empty(CHUNK_VISITS * cells * p, dtype=np.intp)
    key_ids = np.empty(CHUNK_VISITS * cells, dtype=np.intp)
    diff, sq, step = np.empty((3, cells, p, width))
    d2, part = np.empty((2, cells, p))
    win = np.empty(cells, dtype=np.intp)
    mask = np.empty((cells, p, width), dtype=bool)
    winner = np.repeat(np.eye(p, dtype=bool)[:, :, None], width, axis=2)  # [r]: r's mask
    rngs = [np.random.default_rng(models[a].config.seed) for a in order]
    # runs of visits at which exactly k cells have a row: (k, first visit,
    # end, the widest sum of those cells, and each narrower sum with the
    # mask of the cells whose distances it gives)
    ends = sizes + [0]
    runs = []
    for k in range(cells, 0, -1):
        if ends[k] < ends[k - 1]:
            summed = sorted(set(sums[:k].tolist()), reverse=True)
            runs.append((k, ends[k], ends[k - 1], summed[0],
                         [(s, (sums[:k] == s)[:, None]) for s in summed[1:]]))
    subtract, multiply, add, reduce = np.subtract, np.multiply, np.add, np.add.reduce
    copyto, take, pick = np.copyto, np.take, winner.take
    failed: dict[int, int] = {}  # argument index -> first epoch after which it was non-finite
    for epoch in range(epochs):
        for c in range(cells):
            add(rngs[c].permutation(sizes[c]), starts[c], out=visit[:sizes[c], c])
        for k, start, stop, widest, narrower in runs:
            xs = gathered[:CHUNK_VISITS * k * p * width].reshape(CHUNK_VISITS, k, p, width)
            gs = coefs[:CHUNK_VISITS * k * p * width].reshape(CHUNK_VISITS, k, p, width)
            ids = row_ids[:CHUNK_VISITS * k * p].reshape(CHUNK_VISITS, k, p)
            ks = key_ids[:CHUNK_VISITS * k].reshape(CHUNK_VISITS, k)
            group, dk, sk, uk, d2k, pk, wk, mk = (
                buf[:k] for buf in (book, diff, sq, step, d2, part, win, mask))
            summed, argmin = sk[:, :, :widest], d2k.argmin
            partial = [(sk[:, :, :s], cut) for s, cut in narrower]
            for t in range(start, stop, CHUNK_VISITS):
                n = min(CHUNK_VISITS, stop - t)
                at = visit[t:t + n, :k]
                copyto(ids[:n], at[:, :, None])
                # every index is in range; "clip" lets take write into out unbuffered
                take(rows, ids[:n], axis=0, out=xs[:n], mode="clip")
                take(keys, at, out=ks[:n], mode="clip")
                take(table, ks[:n], axis=0, out=gs[:n], mode="clip")
                for x, sign in zip(xs[:n], gs[:n]):
                    subtract(x, group, out=dk)
                    multiply(dk, dk, out=sk)
                    reduce(summed, axis=2, out=d2k)
                    for columns, cut in partial:
                        reduce(columns, axis=2, out=pk)
                        copyto(d2k, pk, where=cut)
                    argmin(axis=1, out=wk)
                    pick(wk, axis=0, out=mk, mode="clip")
                    multiply(sign, dk, out=uk)
                    add(group, uk, out=uk)
                    # only each cell's winner moves; the other prototypes keep their bits
                    copyto(group, uk, where=mk)
        for c in np.flatnonzero(~np.isfinite(book).all(axis=(1, 2))).tolist():
            failed.setdefault(order[c], epoch + 1)
            book[c] = 0.0  # keeps a failed cell finite and quiet; its result is dropped
        if len(failed) == cells:
            break
    if failed:
        raise LVQError(f"non-finite prototype after epoch {failed[min(failed)]}")
    out: list = [None] * cells
    for c, a in enumerate(order):
        out[a] = replace(models[a], codebook=book[c].take(cols[c], axis=1),
                         classes=models[a].classes.copy(),
                         epochs_run=models[a].epochs_run + epochs)
    return out


# Elements of the (rows, P, N) difference temporary in one classify_batch block.
BLOCK_CELLS = 1 << 16


def classify_batch(model: LVQModel, features: np.ndarray) -> np.ndarray:
    """Vectorized nearest-prototype classification of many rows.

    Rows go in blocks of about ``BLOCK_CELLS`` difference elements; each row's
    squared distances are reduced over N exactly as in one whole-array pass.
    """
    if features.shape[1] != model.n_features:
        raise LVQError("feature arity mismatch")
    book = model.codebook[None, :, :]
    step = max(1, BLOCK_CELLS // model.codebook.size)
    out = np.empty(features.shape[0], dtype=model.classes.dtype)
    for start in range(0, features.shape[0], step):
        x = features[start:start + step]
        d2 = ((x[:, None, :] - book) ** 2).sum(axis=2)
        out[start:start + step] = model.classes[np.argmin(d2, axis=1)]
    return out


def evaluate(model: LVQModel, test: Dataset) -> int:
    """Number of ``test`` rows whose class ``classify_batch`` predicts."""
    return int((classify_batch(model, test.features) == test.labels).sum())
