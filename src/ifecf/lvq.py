"""LVQ1 nearest-prototype classifier with winner-take-all updates at a
fixed learning rate."""

from __future__ import annotations

import json
import math
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
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, allow_nan=False),
                              encoding="utf-8")

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
    rng = np.random.default_rng(cfg.seed) if cfg.prototypes_per_class > 1 else None
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


# Visits whose rows and coefficients ``train_cells`` gathers at a time, and
# the most visits of a lone cell's window, its gather.
CHUNK_VISITS, WINDOW_VISITS = 32, 64
# The cost of a lone cell's window, in sequential visits: a fixed part and a
# part per replay step. A window's gain is the visits it decided less its
# cost. ``train_cells`` speculates while the moving average of the gains
# (weight GAIN_DECAY on the past) is not negative; once it is, the cell
# takes PROBE_WAIT sequential visits per visit of average loss before it
# tries a window again, so trying costs about 1 / PROBE_WAIT of the time.
# The costs are fitted: each window's time, its gather included, as
# a + b * steps, in units of the cell's time per sequential visit (3.5-4.6
# µs). On tall-like (P 5, N 20, M 2000) and pima-like (P 2, N 8, M 154-691)
# cells at alpha 0.1-0.5, a was 8-13 visits and b 0.26-0.44 (about 0.4 at
# P 5, 0.27 at P 2); their medians over the cells were 10.8-11.1 and
# 0.31-0.34 in two passes, on one pinned vCPU of a Xeon, numpy 2.4.6.
WINDOW_COST, STEP_COST, GAIN_DECAY, PROBE_WAIT = 11.0, 0.33, 0.9, 100


def lockstep_nbytes(models: list[LVQModel], datas: list[Dataset]) -> int:
    """Bytes of the arrays that ``train_cells(models, datas)`` allocates: the
    stacked rows and class keys when there are several cells, the visit
    order (the largest cell's rows for each cell), for each cell its
    +-alpha table, chunk buffers, codebook, step buffers and winner mask at
    the call's width, the widest of ``sum_widths``, and class count, and a
    lone cell's window arrays: its replay states, a buffer of replay
    coefficients and then of check differences, and its index tables."""
    cells, p = len(models), models[0].codebook.shape[0]
    chunk = WINDOW_VISITS if cells == 1 else CHUNK_VISITS
    width = max(sum_widths([model.n_features for model in models]))
    classes = max(data.class_count for data in datas)
    sizes = [data.n_instances for data in datas]
    words = max(sizes) * cells + (sum(sizes) * (width + 1) if cells > 1 else 0)
    words += cells * (p * width * (classes + 2 * chunk + 4) + p * (chunk + 2) + chunk + 1)
    if cells == 1:
        words += p * width * (2 * chunk + 1) + p * (p + 2 * chunk + 1) + chunk
    return 8 * words + cells * p * width  # the winner mask holds bytes


def train_cells(models: list[LVQModel], datas: list[Dataset]) -> list[LVQModel]:
    """LVQ1 winner-take-all training of independent cells of one prototype
    count and epoch count, each under its ``model.config``, with one numpy
    step per visit index, or for a lone cell per window of visits where
    that pays. Each epoch visits a cell's rows in the order of
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

    A lone cell gathers ``WINDOW_VISITS`` visits at a time (fewer at an
    epoch's end, so no window crosses it) and may decide them in one
    speculated window (``_window``): it guesses each visit's winner, replays
    each prototype's guessed updates as a sequence of its own, one numpy
    step for every prototype's j-th update, and gives each visit the states
    it would see and the winner of the sequential sum over its n columns.
    Up to the first visit f whose winner is not its guess, every visit saw
    the sequential codebook, by induction, so its winner is the sequential
    one, f's too: the cell keeps f + 1 visits, bit for bit, and the next
    gather starts after f. A window costs about ``WINDOW_COST`` sequential
    visits and ``STEP_COST`` more per replay step, so it gains the visits it
    kept less that cost. The cell takes windows while the moving average of
    their gains is not negative, and the sequential step otherwise, for
    ``PROBE_WAIT`` visits per visit of average loss before it tries again.

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
    chunk = WINDOW_VISITS if cells == 1 else CHUNK_VISITS
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
    # chunk * k rows, and the step's buffers, as their first k entries
    gathered, coefs = np.empty((2, chunk * cells * p * width))
    row_ids = np.empty(chunk * cells * p, dtype=np.intp)
    key_ids = np.empty(chunk * cells, dtype=np.intp)
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
    copyto, pick = np.copyto, winner.take
    lone, no_tail, tried, gain, wait = cells == 1, np.empty(0, dtype=np.intp), 0, 0.0, 0.0
    if lone:  # its one run's chunk buffers are (chunk, P, N)
        lone_args = (book[0], gathered.reshape(chunk, p, width), coefs.reshape(chunk, p, width))
        seen = np.empty((chunk + 1, p), dtype=np.intp)
        seen[0] = np.arange(p)
        states, spare = np.empty((chunk + 1, p, width)), np.empty((chunk, p, width))
        plan = np.zeros(chunk * p, dtype=np.intp)
        scratch = (states, list(states), spare, list(spare), states.reshape(-1, width),
                   gathered.reshape(-1, width), coefs.reshape(-1, width),
                   np.eye(p, dtype=np.intp) * p, seen, plan, plan.reshape(chunk, p),
                   np.arange(chunk) * p)
    failed: dict[int, int] = {}  # argument index -> first epoch after which it was non-finite
    for epoch in range(epochs):
        for c in range(cells):
            add(rngs[c].permutation(sizes[c]), starts[c], visit[:sizes[c], c])
        for k, start, stop, widest, narrower in runs:
            xs = gathered[:chunk * k * p * width].reshape(chunk, k, p, width)
            gs = coefs[:chunk * k * p * width].reshape(chunk, k, p, width)
            ids = row_ids[:chunk * k * p].reshape(chunk, k, p)
            ks = key_ids[:chunk * k].reshape(chunk, k)
            group, dk, sk, uk, d2k, pk, wk, mk = (
                buf[:k] for buf in (book, diff, sq, step, d2, part, win, mask))
            summed, argmin = sk[:, :, :widest], d2k.argmin
            partial = [(sk[:, :, :s], cut) for s, cut in narrower]
            t, tail = start, no_tail
            while t < stop:
                n = min(chunk, stop - t)
                at = visit[t:t + n, :k]
                copyto(ids[:n], at[:, :, None])
                # every index is in range; "clip" lets take write into out unbuffered
                rows.take(ids[:n], 0, xs[:n], "clip")
                keys.take(at, 0, ks[:n], "clip")
                table.take(ks[:n], 0, gs[:n], "clip")
                if lone and wait <= 0.0:
                    kept, steps, tail = _window(*lone_args, n, tail, scratch)
                    tried += 1
                    gain += max(1 - GAIN_DECAY, 1 / tried) * (
                        kept - WINDOW_COST - STEP_COST * steps - gain)
                    wait = -PROBE_WAIT * gain
                    t += kept
                    continue
                t, tail = t + n, no_tail
                wait -= n
                for x, sign in zip(xs[:n], gs[:n]):
                    subtract(x, group, dk)
                    multiply(dk, dk, sk)
                    reduce(summed, 2, None, d2k)
                    for columns, cut in partial:
                        reduce(columns, 2, None, pk)
                        copyto(d2k, pk, "same_kind", cut)
                    argmin(1, wk)
                    pick(wk, 0, mk, "clip")
                    multiply(sign, dk, uk)
                    add(group, uk, uk)
                    # only each cell's winner moves; the other prototypes keep their bits
                    copyto(group, uk, "same_kind", mk)
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


def _window(book, xs, signs, n, tail, scratch):
    """Train a lone cell's ``book`` (P, N) on up to n visits in one
    speculated window, and return the visits it decided, the replay steps it
    took and the guessed winners of the visits after them.

    ``xs[:n]`` and ``signs[:n]`` hold each visit's row and +-alpha, repeated
    over the prototypes, (n, P, N). Each visit's winner is guessed: ``tail``
    for the first visits, and for the rest the least |w|² - 2·w·x against
    ``book``. Given the guesses, each prototype's updates form a sequence of
    their own, so step j applies every prototype's j-th update at once, into
    ``states[j + 1]``; a prototype past its last update reads a stand-in
    row, and no visit reads the state that gives. Each visit then gets the
    state of every prototype after the updates guessed before it, and its
    winner from the same subtract, square and row sum as a sequential step.
    Up to the first visit f whose winner differs from its guess, every guess
    is right: by induction each of those visits saw the sequential codebook,
    so its winner, f's included, is the sequential one. The book takes the
    states f saw and f's update, so f + 1 visits are decided. The work past
    f is discarded; it may overflow where sequential training does not, so
    only f's update may warn.

    ``scratch`` holds the call's window buffers and their views, made once
    per ``train_cells`` call, so that each replay step's three numpy calls
    read views from lists and write their outputs in place."""
    (states, state_views, spare, spare_views, flat_states, rows, coefs, eye, seen, plan, order,
     flat) = scratch
    subtract, multiply, add = np.subtract, np.multiply, np.add
    p = book.shape[0]
    x = xs[:n]
    with np.errstate(all="ignore"):
        guess = np.matmul(x[:, 0], book.T)
        guess *= -2.0
        # |w|², squared in states[0], which the replay writes only later
        guess += add.reduce(multiply(book, book, state_views[0]), 1)
        won = guess.argmin(1)
        won[:tail.size] = tail
        at = won + flat[:n]  # the row of visit i's guessed winner in ``rows``
        # seen[i, q] = P * (the updates of q guessed before visit i) + q, the
        # row of ``flat_states`` that visit i reads; seen[n] ends each sequence
        eye.take(won, 0, seen[1:n + 1], "clip")
        add.accumulate(seen[:n + 1], 0, None, seen[:n + 1])
        steps = int(seen[n].max()) // p  # as q < P, the most updates of a prototype
        plan[seen[:n].take(at)] = at  # the row of q's (j+1)-th update, at P * j + q
        coefs.take(order[:steps], 0, spare[:steps], "clip")
        # each step's rows go where its states go, and each update is made there
        rows.take(order[:steps], 0, states[1:steps + 1], "clip")
        np.copyto(state_views[0], book)
        for after, before, c in zip(state_views[1:steps + 1], state_views, spare_views):
            subtract(after, before, after)
            multiply(after, c, after)
            add(before, after, after)
        diff = spare[:n]
        flat_states.take(seen[:n], 0, diff, "clip")
        subtract(x, diff, diff)
        multiply(diff, diff, diff)
        best = add.reduce(diff, 2).argmin(1)
    miss = best != won
    f = int(miss.argmax())
    f = f if miss[f] else n - 1
    flat_states.take(seen[f], 0, book, "clip")
    win = best[f]
    row = book[win]
    update = subtract(x[f, win], row)
    multiply(update, signs[f, win], update)
    add(row, update, row)
    return f + 1, steps, best[f + 1:]


# Elements of the (P, rows) score array in one classify_batch block, and of
# the (rows, P, N) difference array in one block of its exact step.
BLOCK_CELLS = 1 << 16


def classify_batch(model: LVQModel, features: np.ndarray) -> np.ndarray:
    """Class of the nearest prototype of each row: the prototype of least S,
    numpy's sum of (x - w)**2 over the N features, and of equal S the lowest
    prototype index, as one whole-array ``argmin`` gives it, bit for bit;
    ``_exact`` ranks a finite row whose every S overflows at a smaller scale.

    Rows go in blocks of ``BLOCK_CELLS // P`` (at least one). Each block gets
    the scores h = |w|² - 2·w·x of the P prototypes from one matmul, laid out
    (P, rows). Up to rounding h is s - |x|², s the real squared distance, and
    |x|² is common to a row's prototypes, so h ranks them as s does. A
    prototype is a candidate for a row when its h <= min h + 2·T, with one T
    for the call. A row with one candidate takes it; the other rows get
    their exact S in blocks of ``BLOCK_CELLS // (P·N)`` rows (``_exact``),
    so memory is bounded by the block even when no row is decided.

    The bound, with u = 2**-53, gamma_k = k·u / (1 - k·u), eta = 2**-1074
    (the least subnormal) and B = |x|² + max_w |w|² for a row x:

    - The matmul. -2·w is exact. The dot product of -2·w and x, summed in
      any order, with or without FMA, is off by at most
      gamma_N·sum|2·w_j·x_j| <= gamma_N·(|w|² + |x|²), and |w|², numpy's row
      sum of squares in any order, by gamma_N·|w|². The last addition
      h = d + |w|² adds at most u·|d + |w|²| <= 2.01·u·B. So
      |h - (s - |x|²)| <= (2·gamma_N + 2.01·u)·B.
    - The row sum. Each term (x_j - w_j)**2 of S is >= 0 with relative
      error gamma_3, and numpy's sum of N non-negative terms adds
      gamma_(N-1) in any order, so |S - s| <= gamma_(N+2)·s
      <= 2·gamma_(N+2)·B, as s <= 2·(|x|² + |w|²).
    - Underflow. A product or square with a subnormal result is off by at
      most eta/2, and a sum or difference with one is exact, so the dot
      product, |w|² and S each gain at most N·eta more.

    Let p be a prototype of least S for the row and q one of least h. From
    S(p) <= S(q), h(p) - h(q) <= 4·gamma_(N+2)·B + 2·(2·gamma_N + 2.01·u)·B
    + 6·N·eta <= (8·N + 13)·u·B + 6·N·eta. The call's
    T = 4·(N + 8)·(eps·B' + eta), with B' = N·max|x_j|² + max_w |w|² >= B
    for every row, so 2·T >= (16·N + 128)·u·B + 8·(N + 8)·eta. The rounding
    of thr = min h + 2·T costs at most u·|thr| <= 2.1·u·B, as
    |h| <= 2.02·B (none if thr is subnormal), and that of T itself a factor
    1 - (N + 6)·u. So h(p) <= thr: p is a candidate. If S(a) = S(b) is the
    least S, both a and b are such a p, so a tie in S leaves two or more
    candidates and goes to the exact step, whose argmin takes the lower
    index; a row with one candidate has one prototype of least S, and it is
    that candidate.

    When 4·B' is finite, no partial sum of h, thr or S exceeds 2.02·B and
    nothing overflows; every h is finite, so each row keeps its least h as
    a candidate. A call with a NaN, an infinity, or values so large that
    4·B' overflows has a T that is not finite, and every row of it goes to
    the exact step.
    """
    if features.shape[1] != model.n_features:
        raise LVQError("feature arity mismatch")
    book, classes = model.codebook, model.classes
    (p, n), m = book.shape, features.shape[0]
    with np.errstate(over="ignore"):  # an infinite |w|² sends every row to _exact
        sq = (book**2).sum(axis=1)
    # a NaN in features makes both extremes NaN
    peak = float(max(features.max(initial=0.0), -features.min(initial=0.0)))
    scale = 4.0 * (n * peak * peak + float(sq.max()))  # 4·B'
    slack = 2 * (n + 8) * (2.0**-52 * scale + 4 * 2.0**-1074)  # 2·T
    out = np.empty(m, dtype=classes.dtype)
    if not math.isfinite(scale):
        out[:] = classes[_exact(book, features, np.arange(m))]
        return out
    step = max(1, BLOCK_CELLS // p)
    neg2, norms, ids = -2.0 * book, sq[:, None], classes.astype(np.float64)
    scores = np.empty(p * min(step, m))  # each block's h, so one block is alive at a time
    for start in range(0, m, step):
        x = features[start:start + step]
        h = np.matmul(neg2, x.T, out=scores[:p * x.shape[0]].reshape(p, -1))
        h += norms
        thr = h.min(axis=0)
        thr += slack
        cand = np.less_equal(h, thr, out=h)  # 1.0 for a candidate, else 0.0
        # the sum of a row's candidates' class ids (exact): the class of its one candidate
        out[start:start + step] = ids @ cand
        if np.count_nonzero(cand) != x.shape[0]:
            rows = np.flatnonzero(np.count_nonzero(cand, axis=0) != 1)
            out[start + rows] = classes[_exact(book, features, start + rows)]
    return out


def _exact(book: np.ndarray, features: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of the prototype of least S for each of ``features[rows]``, the
    lowest of equal S, in blocks of ``BLOCK_CELLS // book.size`` rows. A
    finite row whose every S overflows and a finite codebook are scaled by
    2**-k (exact bar underflow) to a largest |value| below 2**t, where
    N·(2·2**t)² is finite, and the row is ranked again."""
    step, t = max(1, BLOCK_CELLS // book.size), (1021 - book.shape[1].bit_length()) // 2
    out = np.empty(rows.size, dtype=np.intp)
    for start in range(0, rows.size, step):
        x = features[rows[start:start + step]]
        with np.errstate(over="ignore"):
            s = ((x[:, None, :] - book) ** 2).sum(axis=2)
        out[start:start + step] = s.argmin(axis=1)
        top = np.maximum(np.abs(x).max(axis=1), np.abs(book).max())  # NaN or inf: not redone
        redo = np.flatnonzero(np.isinf(s.min(axis=1)) & np.isfinite(top))  # most often none
        k = np.frexp(top[redo])[1] - t
        x, scaled = np.ldexp(x[redo], -k[:, None]), np.ldexp(book, -k[:, None, None])
        out[start + redo] = ((x[:, None, :] - scaled) ** 2).sum(axis=2).argmin(axis=1)
    return out


def evaluate(model: LVQModel, test: Dataset) -> int:
    """Number of ``test`` rows whose class ``classify_batch`` predicts."""
    return int((classify_batch(model, test.features) == test.labels).sum())
