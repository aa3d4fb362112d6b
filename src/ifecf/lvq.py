"""LVQ1 nearest-prototype classifier with winner-take-all updates at a
fixed learning rate."""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
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
    present = sorted(set(train.labels.tolist()))
    if not present:
        raise LVQError("no training instances")
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


def _check_arity(model: LVQModel, data: Dataset) -> None:
    if data.n_features != model.n_features:
        raise LVQError(
            f"model expects N={model.n_features}, dataset has N={data.n_features}"
        )


def _nonfinite(epoch: int) -> LVQError:
    return LVQError(f"non-finite prototype after epoch {epoch}")


def _trained(model: LVQModel, book: np.ndarray) -> LVQModel:
    return LVQModel(book, model.classes.copy(), model.config,
                    epochs_run=model.epochs_run + model.config.epochs,
                    class_names=model.class_names, feature_names=model.feature_names)


def train(model: LVQModel, data: Dataset) -> LVQModel:
    """Winner-take-all training under ``model.config``.

    Each epoch visits instances in a seeded shuffled order. The nearest
    prototype is pulled toward same-class instances and pushed away from
    others by the fixed learning rate.
    """
    cfg = model.config
    _check_arity(model, data)
    book = model.codebook.copy()
    rng = np.random.default_rng(cfg.seed)
    x, y, classes = data.features, data.labels.tolist(), model.classes.tolist()
    for epoch in range(cfg.epochs):
        for i in rng.permutation(data.n_instances).tolist():
            diff = x[i] - book
            win = int((diff**2).sum(axis=1).argmin())
            book[win] += (cfg.alpha if classes[win] == y[i] else -cfg.alpha) * diff[win]
        if not np.all(np.isfinite(book)):
            raise _nonfinite(epoch + 1)
    return _trained(model, book)


def sum_width(n: int, width: int) -> int:
    """Columns of a row of ``n`` features, zero-padded to ``width``, over
    which ``np.add.reduce`` gives the bits of the unpadded row's sum.

    numpy's pairwise sum adds the columns past the last full block of 8 one
    at a time, so zero columns in the same block add +0.0: below 128
    columns any width up to ``n | 7`` keeps the bits, and the widest is
    taken so that cells whose widths share a block share one sum. From 128
    columns on, the sum splits the row at a point that moves with the
    width, so only ``n`` itself is safe. ``tests/test_lvq.py`` checks the
    rule on the installed numpy."""
    return n if n >= 128 else min(n | 7, width)


def cell_groups(models: list[LVQModel]) -> list[list[int]]:
    """Cell indices of each group that ``train_cells`` can train in one call:
    equal prototype count and epochs. Groups are ordered by their first
    cell."""
    groups: dict[tuple, list[int]] = {}
    for i, model in enumerate(models):
        groups.setdefault((model.codebook.shape[0], model.config.epochs), []).append(i)
    return list(groups.values())


# Visits whose rows and coefficients ``train_cells`` repeats over the
# prototypes and columns at a time.
CHUNK_VISITS = 32


def lockstep_nbytes(model: LVQModel, visits: int, width: int) -> int:
    """Bytes of a cell's share of the arrays of ``train_cells`` when its
    group makes ``visits`` visits an epoch and pads its rows to ``width``
    columns: its rows and its +-alpha coefficients, gathered each epoch
    (visits x (width + P) float64s), the same for ``CHUNK_VISITS`` visits
    repeated over the prototypes and columns, and its share of the codebook
    and the step's buffers."""
    p = model.codebook.shape[0]
    return 8 * (visits * (width + p) + p * ((2 * CHUNK_VISITS + 4) * width + 4))


def train_cells(models: list[LVQModel], datas: list[Dataset]) -> list[LVQModel]:
    """Train one group of ``cell_groups`` with one numpy step per visit
    index; model ``i`` is bit-identical to ``train(models[i], datas[i])``.

    The cells are sorted by row count M, largest first, so the cells that
    still have a row at visit t are a prefix ``[:k]``. Rows and prototypes
    are zero-padded to the widest cell. Each epoch gathers every cell's rows
    in its own seeded order, with the +-alpha coefficient of each (row,
    prototype) pair. ``CHUNK_VISITS`` visits at a time, both are repeated
    over the prototypes and columns, so that each visit updates the winning
    prototype of all k cells with a few numpy operations on arrays of one
    shape, which write into buffers allocated once. A cell's squared
    distances are summed over its first ``sum_width`` columns: one sum for
    each distinct width among the k cells.

    If cells go non-finite, the ``LVQError`` that ``train`` raises for the
    first of them in argument order is raised, with that cell's index as
    its ``cell`` attribute.
    """
    for model, data in zip(models, datas, strict=True):
        _check_arity(model, data)
    if len(cell_groups(models)) != 1:
        raise LVQError("train_cells needs one group of cell_groups")
    order = sorted(range(len(models)), key=lambda a: -datas[a].n_instances)
    sizes = [datas[a].n_instances for a in order]
    widths = [models[a].n_features for a in order]
    cells, p, width = len(order), models[0].codebook.shape[0], max(widths)
    sums = np.array([sum_width(n, width) for n in widths])
    book = np.zeros((cells, p, width))
    for c, a in enumerate(order):
        book[c, :, :widths[c]] = models[a].codebook
    xs = np.zeros((sizes[0], cells, width))  # visit t's row of each cell
    coef = np.empty((sizes[0], cells, p, 1))  # its +-alpha for each prototype
    # the step's buffers; a run of k active cells uses their first k entries
    rows, signs = np.empty((2, CHUNK_VISITS, cells, p, width))  # xs and coef, repeated
    diff, sq, step = np.empty((3, cells, p, width))
    d2, part = np.empty((2, cells, p))
    win = np.empty(cells, dtype=np.intp)
    mask = np.empty((cells, p, 1), dtype=bool)
    winner = np.eye(p, dtype=bool)[:, :, None]  # winner[r]: the mask of prototype r
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
    copyto, take = np.copyto, winner.take
    failed: dict[int, int] = {}  # argument index -> first epoch after which it was non-finite
    for epoch in range(models[0].config.epochs):
        for c, a in enumerate(order):
            perm = rngs[c].permutation(sizes[c])
            xs[:sizes[c], c, :widths[c]] = datas[a].features[perm]
            same = models[a].classes == datas[a].labels[perm, None]
            alpha = models[a].config.alpha
            coef[:sizes[c], c, :, 0] = np.where(same, alpha, -alpha)
        for k, start, stop, widest, narrower in runs:
            group, dk, sk, uk, d2k, pk, wk, mk = (
                buf[:k] for buf in (book, diff, sq, step, d2, part, win, mask))
            summed, argmin = sk[:, :, :widest], d2k.argmin
            partial = [(sk[:, :, :s], cut) for s, cut in narrower]
            for t in range(start, stop, CHUNK_VISITS):
                n = min(CHUNK_VISITS, stop - t)
                copyto(rows[:n, :k], xs[t:t + n, :k, None])
                copyto(signs[:n, :k], coef[t:t + n, :k])
                for x, sign in zip(rows[:n, :k], signs[:n, :k]):
                    subtract(x, group, out=dk)
                    multiply(dk, dk, out=sk)
                    reduce(summed, axis=2, out=d2k)
                    for columns, cut in partial:
                        reduce(columns, axis=2, out=pk)
                        copyto(d2k, pk, where=cut)
                    argmin(axis=1, out=wk)
                    # the indices are in range; "clip" lets take write into mk unbuffered
                    take(wk, axis=0, out=mk, mode="clip")
                    multiply(sign, dk, out=uk)
                    # only each cell's winner moves; the other prototypes keep their bits
                    add(group, uk, out=group, where=mk)
        for c in np.flatnonzero(~np.isfinite(book).all(axis=(1, 2))).tolist():
            failed.setdefault(order[c], epoch + 1)
            book[c] = 0.0  # keeps a failed cell finite and quiet; its result is dropped
    if failed:
        first = min(failed)
        exc = _nonfinite(failed[first])
        exc.cell = first
        raise exc
    out: list = [None] * cells
    for c, a in enumerate(order):
        out[a] = _trained(models[a], book[c, :, :widths[c]].copy())
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
    if test.n_instances == 0:
        raise LVQError("empty test set")
    return int((classify_batch(model, test.features) == test.labels).sum())
