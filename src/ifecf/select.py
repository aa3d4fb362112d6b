"""Feature-elimination strategies: the dispersion / class-correlation /
inter-feature-correlation filter pipeline, CFS merit with best-first forward
search, and Relief weighting."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .measures import c_correlation, dispersion_scores
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
        if self.tau_f > 1.0:
            raise SelectionError("tau_f must be <= 1")
        if self.relief_samples < 1:
            raise SelectionError("relief_samples must be >= 1")
        if self.bffs_patience < 1:
            raise SelectionError("bffs_patience must be >= 1")


@dataclass
class SelectionResult:
    """Kept feature indices plus per-feature elimination audit trail."""

    kept: list[int]
    eliminated: list[tuple[int, str, float]] = field(default_factory=list)
    merit_trace: list[tuple[tuple[int, ...], float]] = field(default_factory=list)
    flags: list[tuple[int, str]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "kept": list(self.kept),
            "eliminated": [
                {"feature": i, "reason": r, "score": s} for i, r, s in self.eliminated
            ],
            "merit_trace": [
                {"subset": list(sub), "merit": m} for sub, m in self.merit_trace
            ],
            "flags": [{"feature": i, "note": n} for i, n in self.flags],
        }


def merit_value(k: int, r_cf: float, r_ff: float) -> float:
    """Hall's CFS merit k*r_cf / sqrt(k + k(k-1)*r_ff) of a k-feature subset."""
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def f_correlation_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise |Pearson r| between features; zero-variance rows/cols are 0."""
    dev = features - features.mean(axis=0)
    norms = np.sqrt((dev**2).sum(axis=0))
    ok = norms > 0
    scaled = np.zeros_like(dev)
    scaled[:, ok] = dev[:, ok] / norms[ok]
    r = scaled.T @ scaled
    np.abs(r, out=r)
    np.fill_diagonal(r, 1.0)
    r[~ok, :] = 0.0
    r[:, ~ok] = 0.0
    return np.clip(r, 0.0, 1.0, out=r)


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

    cc = {j: c_correlation(train.features[:, j], train.labels, train.class_count)
          for j in alive}
    survivors = []
    for j in alive:
        if abs(cc[j]) < cfg.tau_c:
            result.eliminated.append((j, "low-c-correlation", cc[j]))
        else:
            survivors.append(j)

    # descending relevance; equal scores keep the lower index first
    order = sorted(survivors, key=lambda j: (-cc[j], j))
    dropped: set[int] = set()
    if order:
        rmat = f_correlation_matrix(train.features[:, order])
        for pos, j in enumerate(order):
            if j in dropped:
                continue
            for qos in range(pos + 1, len(order)):
                k = order[qos]
                if k in dropped:
                    continue
                r = float(rmat[pos, qos])
                if r > cfg.tau_f:
                    dropped.add(k)
                    result.eliminated.append((k, f"redundant-with({j})", r))

    result.kept = sorted(j for j in order if j not in dropped)
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
    r_cf = sum(abs(c_correlation(x[:, i], train.labels, train.class_count))
               for i in range(k)) / k
    r_ff = 0.0
    if k > 1:
        r_ff = float(np.triu(f_correlation_matrix(x), 1).sum()) / (k * (k - 1) / 2)
    return merit_value(k, r_cf, r_ff)


def cfs_search(train: Dataset, cfg: SelectionConfig) -> SelectionResult:
    """Best-first forward search over feature subsets.

    Starts from the empty set, expands the best open subset by one unused
    feature at a time, and stops after ``bffs_patience`` consecutive
    expansions that fail to improve the best merit seen. Each open subset
    carries its sums of class and pairwise feature correlations, so a
    child's merit costs one row of the |r| matrix over the parent's members.
    """
    n = train.n_features
    cc = [c_correlation(train.features[:, j], train.labels, train.class_count)
          for j in range(n)]
    rmat = f_correlation_matrix(train.features)
    trace: list[tuple[tuple[int, ...], float]] = []
    # (-merit, subset, sum of |r_cf|, sum of pairwise r_ff); subsets are unique,
    # so the heap orders on (-merit, subset) alone
    open_heap: list[tuple[float, tuple[int, ...], float, float]] = [(0.0, (), 0.0, 0.0)]
    seen: set[tuple[int, ...]] = {()}
    best_subset: tuple[int, ...] = ()
    best_merit = -math.inf
    stall = 0
    while open_heap and stall < cfg.bffs_patience:
        _, subset, sum_cf, sum_ff = heapq.heappop(open_heap)
        k = len(subset) + 1
        pairs = k * (k - 1) / 2
        row_sums = rmat[:, list(subset)].sum(axis=1)
        improved = False
        for f in range(n):
            if f in subset:
                continue
            child = tuple(sorted(subset + (f,)))
            if child in seen:
                continue
            seen.add(child)
            child_cf = sum_cf + abs(cc[f])
            child_ff = sum_ff + float(row_sums[f])
            m = merit_value(k, child_cf / k, child_ff / pairs if k > 1 else 0.0)
            trace.append((child, m))
            heapq.heappush(open_heap, (-m, child, child_cf, child_ff))
            if m > best_merit + 1e-12:
                best_merit, best_subset = m, child
                improved = True
        if subset:  # root expansion just seeds the singletons
            stall = 0 if improved else stall + 1
    kept = sorted(best_subset)
    eliminated = [
        (j, "not-in-best-subset", cc[j]) for j in range(n) if j not in best_subset
    ]
    return SelectionResult(kept=kept, eliminated=eliminated, merit_trace=trace)


def relief(train: Dataset, cfg: SelectionConfig) -> np.ndarray:
    """Relief relevance weights.

    For each of n seeded random picks, find the nearest same-class hit and
    nearest other-class miss by Euclidean distance, then move each feature
    weight away from the hit difference and toward the miss difference.
    Differences are range-normalized so weights stay in [-1, 1].
    """
    m, nfeat = train.features.shape
    n = min(cfg.relief_samples, m)
    for c in range(train.class_count):
        if 0 < (train.labels == c).sum() < 2:
            raise SelectionError(
                f"class {train.class_names[c]!r} has a single instance; no hit exists"
            )
    span = train.features.max(axis=0) - train.features.min(axis=0)
    scale = np.where(span > 0, span, 1.0)
    x = train.features / scale  # constant features diff to 0 regardless
    rng = np.random.default_rng(cfg.seed)
    picks = rng.choice(m, size=n, replace=False)
    w = np.zeros(nfeat)
    for i in picks:
        diffs = x - x[i]
        dists = np.sqrt((diffs**2).sum(axis=1))
        dists[i] = np.inf
        same = train.labels == train.labels[i]
        hit_d = np.where(same, dists, np.inf)
        miss_d = np.where(~same, dists, np.inf)
        hit = int(np.argmin(hit_d))
        miss = int(np.argmin(miss_d))
        w += (diffs[miss] ** 2 - diffs[hit] ** 2) / n
    return w


def apply_selection(d: Dataset, r: SelectionResult) -> Dataset:
    """Project the dataset onto the kept columns, in kept order."""
    arity = len(r.kept) + len(r.eliminated)
    if arity != d.n_features:
        raise SelectionError(
            f"selection covers {arity} features, dataset has {d.n_features}"
        )
    return d.project(r.kept)
