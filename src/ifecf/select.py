"""Feature-elimination strategies: the dispersion / class-correlation /
inter-feature-correlation filter pipeline, CFS merit with best-first forward
search, and Relief weighting."""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, check_integers
from .measures import c_correlation, dispersion_scores, f_correlation_matrix
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
        return {
            "kept": list(self.kept),
            "eliminated": [
                {"feature": i, "reason": r, "score": s} for i, r, s in self.eliminated
            ],
            "merit_trace": [
                {"parent": p, "feature": f, "merit": m} for p, f, m in self.merit_trace
            ],
            "flags": [{"feature": i, "note": n} for i, n in self.flags],
        }


def merit_value(k: int, r_cf: float, r_ff: float) -> float:
    """Hall's CFS merit k*r_cf / sqrt(k + k(k-1)*r_ff) of a k-feature subset."""
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


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
    alive = []
    for j in range(train.n_features):
        if math.isnan(disp[j]):
            result.flags.append((j, "zero-mean: dispersion undefined, pass skipped"))
            alive.append(j)
        elif disp[j] < cfg.delta:
            result.eliminated.append((j, "low-dispersion", float(disp[j])))
        else:
            alive.append(j)

    scores = c_correlation(train.features[:, alive], train.labels, train.class_count)
    cc = dict(zip(alive, scores.tolist()))
    survivors = []
    for j in alive:
        if cc[j] < cfg.tau_c:
            result.eliminated.append((j, "low-c-correlation", cc[j]))
        else:
            survivors.append(j)

    # descending relevance; equal scores keep the lower index first
    order = sorted(survivors, key=lambda j: (-cc[j], j))
    keep = np.ones(len(order), dtype=bool)
    if order:
        rmat = f_correlation_matrix(train.features[:, order])
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
    return merit_value(k, r_cf, r_ff)


def cfs_search(train: Dataset, cfg: SelectionConfig) -> SelectionResult:
    """Best-first forward search over feature subsets.

    Starts from the empty set, expands the best open subset by one unused
    feature at a time, and stops after ``bffs_patience`` consecutive
    expansions that fail to improve the best merit seen. Each open subset
    carries its sums of class and pairwise feature correlations, so one
    expansion scores all children from one row sum of the |r| matrix, in
    ``merit_value``'s float order. The trace holds ``(parent, feature,
    merit)`` per scored subset: its parent's trace index (-1: the empty set).
    """
    cc = c_correlation(train.features, train.labels, train.class_count)
    rmat = f_correlation_matrix(train.features)
    trace: list[tuple[int, int, float]] = []
    # (-merit, subset, trace index, sum of |r_cf|, sum of pairwise r_ff); subsets
    # are unique, so the heap orders on (-merit, subset) alone
    open_heap: list[tuple[float, tuple[int, ...], int, float, float]] = [(0.0, (), -1, 0.0, 0.0)]
    seen: set[tuple[int, ...]] = {()}
    best_subset: tuple[int, ...] = ()
    best_merit = -math.inf
    stall = 0
    while open_heap and stall < cfg.bffs_patience:
        _, subset, at, sum_cf, sum_ff = heapq.heappop(open_heap)
        k = len(subset) + 1
        child_cf = sum_cf + cc
        child_ff = sum_ff + rmat[:, list(subset)].sum(axis=1)
        r_ff = child_ff / (k * (k - 1) / 2) if k > 1 else 0.0
        merits = k * (child_cf / k) / np.sqrt(k + k * (k - 1) * r_ff)
        improved = False
        for f, (m, f_cf, f_ff) in enumerate(zip(merits.tolist(), child_cf.tolist(),
                                                child_ff.tolist())):
            pos = bisect.bisect(subset, f)
            if subset[pos - 1:pos] == (f,):
                continue
            child = subset[:pos] + (f,) + subset[pos:]
            if child in seen:
                continue
            seen.add(child)
            heapq.heappush(open_heap, (-m, child, len(trace), f_cf, f_ff))
            trace.append((at, f, m))
            if m > best_merit + 1e-12:
                best_merit, best_subset = m, child
                improved = True
        if subset:  # root expansion just seeds the singletons
            stall = 0 if improved else stall + 1
    eliminated = [(j, "not-in-best-subset", s) for j, s in enumerate(cc.tolist())
                  if j not in best_subset]
    return SelectionResult(kept=list(best_subset), eliminated=eliminated, merit_trace=trace)


# Elements of each (picks, M) approximate-distance array in one relief block.
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
    sum of (x[c] - x[i])**2 over the N features. Picks go in blocks of
    ``BLOCK_CELLS // M`` (at least one), and each block gets the approximate
    squared distances g = |a|² + |b|² - 2·a·b (a = x[c], b = x[i]) of all
    M rows from one matmul. Only the rows that g cannot rule out get their
    exact D, so the weights are those of a full per-pick scan, bit for bit,
    and memory is bounded by the block, not by picks x M.

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
    hi = g + tol, let thr be the least hi among the masked rows, reached at
    row q, and keep the rows with lo <= thr. The exact winner c* has
    S(c*) <= (1 + 4.01·u)·S(q), so lo(c*) <= S(c*) - (3.9·N + 54)·u·n(c*)
    and S(c*) <= thr - (3.9·N + 44)·u·n(q); the slack covers the rounding
    of lo, hi and tol (a few u·n). A NaN bound keeps its row.
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
    span = train.features.max(axis=0) - train.features.min(axis=0)
    # A constant column differs by exactly 0 between any two rows, whatever
    # its value; zeroing it keeps that value out of the norms in g.
    x = np.divide(train.features, span, out=np.zeros_like(train.features), where=span > 0)
    rng = np.random.default_rng(cfg.seed)
    picks = rng.choice(m, size=n, replace=False)
    sq = (x**2).sum(axis=1)
    rel = 4 * (nfeat + 8) * np.finfo(np.float64).eps
    w = np.zeros(nfeat)
    step = max(1, BLOCK_CELLS // m)
    for start in range(0, n, step):
        block = picks[start:start + step]
        hi = x[block] @ x.T
        hi *= -2.0
        tol = sq[block, None] + sq
        hi += tol  # now g = |a|² + |b|² - 2·a·b
        tol *= rel
        lo = hi - tol
        hi += tol
        same = train.labels[block, None] == train.labels
        other = ~same
        same[np.arange(block.size), block] = False
        hit = _nearest(x, block, lo, hi, same)
        miss = _nearest(x, block, lo, hi, other)
        delta = ((x[miss] - x[block]) ** 2 - (x[hit] - x[block]) ** 2) / n
        for row in delta:  # in pick order: a vectorized sum would reorder it
            w += row
    return w


def _nearest(x: np.ndarray, block: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             mask: np.ndarray) -> np.ndarray:
    """For each pick in ``block``, the first masked row at the least exact
    distance, given bounds ``lo <= S <= hi`` on every squared distance ``S``
    (see relief). Rows with ``lo`` above the least masked ``hi`` are out; a
    pick left with one candidate needs no exact distance."""
    thr = np.where(mask, hi, np.inf).min(axis=1, keepdims=True)
    cand = mask & ~(lo > thr)  # NaN bounds keep their rows
    nearest = cand.argmax(axis=1)
    for r in np.flatnonzero(np.count_nonzero(cand, axis=1) > 1):
        rows = np.flatnonzero(cand[r])
        dists = np.sqrt(((x[rows] - x[block[r]]) ** 2).sum(axis=1))
        nearest[r] = rows[np.argmin(dists)]
    return nearest


def apply_selection(d: Dataset, r: SelectionResult) -> Dataset:
    """Project the dataset onto the kept columns, in kept order."""
    arity = len(r.kept) + len(r.eliminated)
    if arity != d.n_features:
        raise SelectionError(
            f"selection covers {arity} features, dataset has {d.n_features}"
        )
    return d.project(r.kept)
