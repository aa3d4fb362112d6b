"""Feature-elimination strategies: the dispersion / class-correlation /
inter-feature-correlation filter pipeline, CFS merit with best-first forward
search, and Relief weighting."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, check_integers
from .measures import c_correlation, correlations, dispersion_scores, f_correlation_matrix
# perfbench/tracer.py counts calls made through select.correlation by that name.
from .measures import correlation  # noqa: F401


class SelectionError(ValueError):
    """Raised when selection cannot produce a usable feature set."""


@dataclass(frozen=True)
class SelectionConfig:
    delta: float = 0.05  # dispersion threshold
    tau_c: float = 0.1  # class-correlation floor
    tau_f: float = 0.9  # inter-feature redundancy ceiling
    relief_samples: int = 100
    bffs_patience: int = 5
    seed: int = 42

    def __post_init__(self):
        check_integers(self, ("relief_samples", "bffs_patience", "seed"), SelectionError)
        for name in ("delta", "tau_c", "tau_f"):  # NaN fails every comparison: no filter
            if not math.isfinite(getattr(self, name)):
                raise SelectionError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tau_f > 1.0:
            raise SelectionError("tau_f must be <= 1")
        if self.relief_samples < 1:
            raise SelectionError("relief_samples must be >= 1")
        if self.bffs_patience < 1:
            raise SelectionError("bffs_patience must be >= 1")
        if self.seed < 0:
            raise SelectionError("seed must be >= 0")


@dataclass
class SelectionResult:
    """Kept feature indices plus per-feature elimination audit trail."""

    kept: list[int]
    eliminated: list[tuple[int, str, float]] = field(default_factory=list)
    merit_trace: list[tuple[int, int, float]] = field(default_factory=list)
    flags: list[tuple[int, str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        columns = [list(c) for c in zip(*self.merit_trace)] or [[], [], []]
        return {
            "kept": list(self.kept),
            "eliminated": [
                {"feature": i, "reason": r, "score": s} for i, r, s in self.eliminated
            ],
            "merit_trace": dict(zip(("parent", "feature", "merit"), columns)),
            "flags": [{"feature": i, "note": n} for i, n in self.flags],
        }


def merit_value(k: int, r_cf, r_ff):
    """Hall's CFS merit k*r_cf / sqrt(k + k(k-1)*r_ff) of a k-feature subset,
    of scalars or elementwise of arrays, in the same float order."""
    return k * r_cf / np.sqrt(k + k * (k - 1) * r_ff)


def ife_cf(train: Dataset, cfg: SelectionConfig) -> SelectionResult:
    """Three sequential elimination passes.

    1. Drop features with coefficient of dispersion below ``delta``
       (zero-mean features are exempt and flagged).
    2. Drop features whose class correlation falls below ``tau_c``.
    3. Walk survivors in descending class correlation; drop any later
       feature whose inter-feature correlation with a kept one exceeds
       ``tau_f``.
    """
    result = SelectionResult(kept=[])
    disp = dispersion_scores(train.features)
    result.flags = [(j, "zero-mean: dispersion undefined, pass skipped")
                    for j in np.flatnonzero(np.isnan(disp)).tolist()]
    low = disp < cfg.delta  # False for NaN
    result.eliminated = [(j, "low-dispersion", s)
                         for j, s in zip(np.flatnonzero(low).tolist(), disp[low].tolist())]

    alive = np.flatnonzero(~low)
    scores, f_corr = correlations(train.features[:, alive], train.labels, train.class_count)
    weak = scores < cfg.tau_c
    result.eliminated += [(j, "low-c-correlation", s)
                          for j, s in zip(alive[weak].tolist(), scores[weak].tolist())]

    # positions in alive by descending relevance; equal scores keep the lower index first
    strong = np.flatnonzero(~weak)
    at = strong[np.argsort(-scores[strong], kind="stable")]
    order = alive[at].tolist()
    rmat = f_corr(at)
    keep = np.ones(len(order), dtype=bool)
    for pos, j in enumerate(order):
        if not keep[pos]:
            continue
        later = pos + 1 + np.flatnonzero(keep[pos + 1:] & (rmat[pos, pos + 1:] > cfg.tau_f))
        keep[later] = False
        result.eliminated.extend((order[q], f"redundant-with({j})", r)
                                 for q, r in zip(later.tolist(), rmat[pos, later].tolist()))

    result.kept = sorted(j for j, k in zip(order, keep.tolist()) if k)
    if not result.kept:
        raise SelectionError("all features eliminated; relax delta/tau_c/tau_f")
    return result


def cfs_merit(train: Dataset, subset) -> float:
    """Merit of a feature subset from mean class-feature and mean pairwise
    feature-feature correlation magnitudes."""
    subset = sorted(set(int(s) for s in subset))
    if not subset:
        raise SelectionError("empty subset has no merit")
    if any(s < 0 or s >= train.n_features for s in subset):
        raise SelectionError("subset index out of range")
    k = len(subset)
    x = train.features[:, subset]
    r_cf = float(c_correlation(x, train.labels, train.class_count).sum()) / k
    r_ff = 0.0
    if k > 1:
        r_ff = float(np.triu(f_correlation_matrix(x), 1).sum()) / (k * (k - 1) / 2)
    return float(merit_value(k, r_cf, r_ff))


def cfs_search(train: Dataset, cfg: SelectionConfig) -> SelectionResult:
    """Best-first forward search over feature subsets.

    Starts from the empty set, expands the best open subset by one unused
    feature at a time, and stops after ``bffs_patience`` consecutive
    expansions that fail to improve the best merit seen. Each open subset
    carries its sums of class and pairwise feature correlations, so one
    expansion scores all children through ``merit_value`` from one row sum
    of the |r| matrix. The trace holds ``(parent, feature,
    merit)`` per scored subset: its parent's trace index (-1: the empty set).
    A subset is a bitmask of its features; the open subset of highest merit
    goes first, and of equal merits the least sorted tuple (``_pop_best``).
    """
    cc, f_corr = correlations(train.features, train.labels, train.class_count)
    rmat = f_corr()
    trace: list[tuple[int, int, float]] = []
    # (-merit, trace index, sum of |r_cf|, sum of pairwise r_ff, subset mask); the
    # index is unique, so the heap orders on (-merit, index) alone
    open_heap: list[tuple[float, int, float, float, int]] = [(0.0, -1, 0.0, 0.0, 0)]
    seen = {0}
    best_mask = 0
    best_merit = -math.inf
    stall = 0
    while open_heap and stall < cfg.bffs_patience:
        _, at, sum_cf, sum_ff, mask = _pop_best(open_heap)
        subset = _members(mask)
        k = len(subset) + 1
        child_cf = sum_cf + cc
        child_ff = sum_ff + rmat[:, subset].sum(axis=1)
        r_ff = child_ff / (k * (k - 1) / 2) if k > 1 else 0.0
        merits = merit_value(k, child_cf / k, r_ff)
        improved = False
        for f, (m, f_cf, f_ff) in enumerate(zip(merits.tolist(), child_cf.tolist(),
                                                child_ff.tolist())):
            child = mask | 1 << f
            if child in seen:  # the parent itself when f is in it
                continue
            seen.add(child)
            heapq.heappush(open_heap, (-m, len(trace), f_cf, f_ff, child))
            trace.append((at, f, m))
            if m > best_merit + 1e-12:
                best_merit, best_mask = m, child
                improved = True
        if mask:  # root expansion just seeds the singletons
            stall = 0 if improved else stall + 1
    kept = _members(best_mask)
    eliminated = [(j, "not-in-best-subset", s) for j, s in enumerate(cc.tolist())
                  if not best_mask >> j & 1]
    return SelectionResult(kept=kept, eliminated=eliminated, merit_trace=trace)


def _members(mask: int) -> list[int]:
    """The features of a subset bitmask, ascending."""
    return [f for f, b in enumerate(reversed(bin(mask))) if b == "1"]


def _pop_best(heap: list) -> tuple:
    """Pop the open subset of highest merit, and of equal merits the one whose
    sorted feature tuple is least. Exact ties occur (duplicate columns), so
    every entry of the top merit is popped, and all but the chosen one go back."""
    tied = [heapq.heappop(heap)]
    while heap and heap[0][0] == tied[0][0]:
        tied.append(heapq.heappop(heap))
    tied.sort(key=lambda e: _members(e[4]))
    for e in tied[1:]:
        heapq.heappush(heap, e)
    return tied[0]


# Elements of each (picks, M) approximate-distance array, and of each
# (picks, N) difference array, in one relief block.
BLOCK_CELLS = 1 << 16


def relief(train: Dataset, cfg: SelectionConfig) -> np.ndarray:
    """Relief relevance weights.

    For each of n seeded random picks, find the nearest same-class hit and
    nearest other-class miss by Euclidean distance, then move each feature
    weight away from the hit difference and toward the miss difference.
    Differences are range-normalized so weights stay in [-1, 1]. Equal
    distances go to the lowest row index, and the weights are summed in
    pick order.

    The distance of row c from pick i is D = sqrt(S), where S is numpy's
    sum of (x[c] - x[i])**2 over the N features. The scaled rows are held
    in stable class order, so a class's rows are one column range of every
    distance array: a pick's hits are its class's range less itself, its
    misses the ranges before and after. Picks go in blocks of one class's
    picks, ``BLOCK_CELLS // M`` (at least one) at a time, and each block
    gets the approximate squared distances g = |a|² + |b|² - 2·a·b
    (a = x[c], b = x[i]) of all M rows from one matmul. Only the rows that
    g cannot rule out get their exact D, so the weights are those of a full
    per-pick scan, bit for bit, and memory is bounded by the block, not by
    picks x M.

    The bound, with u = 2**-53, gamma_k = k·u / (1 - k·u) and
    n = |a|² + |b|² (the computed norms differ from the real ones by a
    factor 1 ± gamma_N, a second-order term):

    - Gram error. Each norm is off by at most gamma_N times itself and the
      dot product by gamma_N·|a|·|b| <= gamma_N·n/2, in any summation
      order; the two final additions add under 3.1·u·n. So
      |g - s| <= (2·gamma_N + 3.1·u)·n for the real squared distance s.
    - Row-sum rounding. Each term of S is >= 0 with relative error
      gamma_3, and the sum adds gamma_(N-1), so |S - s| <= gamma_(N+2)·s
      <= 2·gamma_(N+2)·n, as s <= 2·n.
    - sqrt ties. D(c) = D(q) lets S(c) exceed S(q) by up to
      4.01·u·S(q) <= 8.1·u·n(q), and the first such c must be kept.

    So with tol = 4·(N + 8)·eps·n = 8·(N + 8)·u·n, lo = g - tol and
    hi = g + tol, let thr be the least hi in the range, reached at row q.
    The exact winner c* has S(c*) <= (1 + 4.01·u)·S(q), so
    lo(c*) <= S(c*) - (3.9·N + 54)·u·n(c*) and
    S(c*) <= thr - (3.9·N + 44)·u·n(q): lo(c*) <= thr. Pick i takes one
    bound, T_i = 4·(N + 8)·eps·(|b|² + max_c |a_c|²), at least the tol of
    each of its cells. Containment: with p the row of least g,
    lo(c) <= thr <= hi(p) gives g(c) <= min g + tol(c) + tol(p)
    <= min g + 2·T_i, so the rows with g <= min g + 2·T_i include c*; the
    slack covers the rounding of g, T_i and the sum (a few u·n). A NaN g
    keeps every row of its range.
    """
    m, nfeat = train.features.shape
    n = min(cfg.relief_samples, m)
    counts = np.bincount(train.labels, minlength=train.class_count)
    single = np.flatnonzero(counts == 1)
    if single.size:
        raise SelectionError(
            f"class {train.class_names[single[0]]!r} has a single instance; no hit exists"
        )
    if np.count_nonzero(counts) < 2:
        raise SelectionError("relief needs rows of two classes or more; no miss exists")
    top, bottom = train.features.max(axis=0), train.features.min(axis=0)
    with np.errstate(over="ignore"):
        span = top - bottom
    # Rows in stable class order: class c holds positions [ends[c] - counts[c], ends[c]).
    order = np.argsort(train.labels, kind="stable")
    ends = np.cumsum(counts)
    x = train.features[order]
    np.divide(x, span, out=x, where=span > 0)
    # A constant column differs by exactly 0 between any two rows, whatever
    # its value; zeroing it keeps that value out of the norms in g.
    x[:, span == 0] = 0.0
    # A range past the float64 maximum is finite once halved, and halving a
    # normal value is exact: such a column gets the x it has at any smaller
    # power-of-two scale.
    wide = np.isinf(span)
    if wide.any():
        x[:, wide] = train.features[:, wide][order] / 2 / (top[wide] / 2 - bottom[wide] / 2)
    # the picks' positions in that order
    picks = np.argsort(order)[np.random.default_rng(cfg.seed).choice(m, size=n, replace=False)]
    sq = (x**2).sum(axis=1)
    rel = 4 * (nfeat + 8) * np.finfo(np.float64).eps
    widest = sq.max()
    hit, miss = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    step = max(1, BLOCK_CELLS // m)
    grouped = np.argsort(picks)  # pick indices, class by class: split at the class ends
    for c, mine in enumerate(np.split(grouped, np.searchsorted(picks[grouped], ends[:-1]))):
        lo, hi = ends[c] - counts[c], ends[c]
        # one range holds every miss: the rows past the class, those before
        # it, or all rows with the class's own at inf
        fro, to = (hi, m) if lo == 0 else (0, lo) if hi == m else (0, m)
        for start in range(0, mine.size, step):
            block = mine[start:start + step]
            rows = picks[block]
            g = x[rows] @ x.T
            g *= -2.0
            g += sq[rows, None] + sq  # now g = |a|² + |b|² - 2·a·b
            slack = 2 * rel * (sq[rows] + widest)  # 2·T_i
            g[np.arange(rows.size), rows] = np.inf  # a pick is not its own hit
            hit[block] = _nearest(x, order, rows, g[:, lo:hi], slack, lo, (0, 0))
            g[:, max(lo, fro):min(hi, to)] = np.inf  # nor is any row of its class a miss
            miss[block] = _nearest(x, order, rows, g[:, fro:to], slack, fro, (lo, hi))
    w = np.zeros(nfeat)
    step = max(1, BLOCK_CELLS // nfeat)
    for start in range(0, n, step):
        b, hits, misses = (x[a[start:start + step]] for a in (picks, hit, miss))
        delta = ((misses - b) ** 2 - (hits - b) ** 2) / n
        # left to right in pick order: a pairwise sum would reorder it
        w = np.add.accumulate(np.vstack((w, delta)))[-1]
    return w


def _nearest(x: np.ndarray, order: np.ndarray, rows: np.ndarray, g: np.ndarray,
             slack: np.ndarray, first: int, skip: tuple[int, int]) -> np.ndarray:
    """For each pick position ``rows[r]`` of the class-sorted rows ``x``, the
    position of the first row by original index (``order``) at the least
    exact distance among the positions ``first + j`` of the columns j of
    ``g``, less the pick and the positions in ``range(*skip)``. ``g`` bounds
    the squared distances to within ``slack / 2`` (see relief), so rows with
    g above min g + slack are out; a pick left with one candidate needs no
    exact distance. A row of ``g`` with a NaN has a NaN minimum and keeps
    every column. The columns of the pick and of ``skip`` hold inf, so they
    pass only an infinite or NaN threshold, and the exact step drops them."""
    thr = g.min(axis=1) + slack
    cand = g <= thr[:, None]
    nearest = first + cand.argmax(axis=1)
    if np.count_nonzero(cand) == rows.size and not np.isnan(thr).any():
        return nearest  # each row has its least g and no other candidate
    for r in np.flatnonzero(np.count_nonzero(cand, axis=1) != 1):
        cols = first + np.flatnonzero(~(g[r] > thr[r]))
        cols = cols[(cols != rows[r]) & ((cols < skip[0]) | (cols >= skip[1]))]
        cols = cols[np.argsort(order[cols])]
        dists = np.sqrt(((x[cols] - x[rows[r]]) ** 2).sum(axis=1))
        nearest[r] = cols[np.argmin(dists)]
    return nearest


def apply_selection(d: Dataset, r: SelectionResult) -> Dataset:
    """Project the dataset onto the kept columns, in kept order."""
    arity = len(r.kept) + len(r.eliminated)
    if arity != d.n_features:
        raise SelectionError(
            f"selection covers {arity} features, dataset has {d.n_features}"
        )
    return d.project(r.kept)
