"""Independent brute-force reference implementations, pure-python loops only.

These deliberately avoid numpy vector paths so they cannot share a bug with
the library code they check. The one exception is
``classify_batch_unblocked``: the blocked ``lvq.classify_batch`` must equal
the whole-array numpy formula bit for bit, so that formula is the reference.
"""

import math
from itertools import combinations

import numpy as np


def corr_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def entropy_oracle(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


def cond_entropy_oracle(a, b):
    n = len(a)
    total = 0.0
    for bv in set(b):
        rows = [av for av, x in zip(a, b) if x == bv]
        counts = {}
        for av in rows:
            counts[av] = counts.get(av, 0) + 1
        h = -sum((c / len(rows)) * math.log2(c / len(rows)) for c in counts.values())
        total += (len(rows) / n) * h
    return total


def info_gain_oracle(a, b):
    counts = {}
    for av in a:
        counts[av] = counts.get(av, 0) + 1
    n = len(a)
    h = -sum((c / n) * math.log2(c / n) for c in counts.values())
    return h - cond_entropy_oracle(a, b)


def dispersion_oracle(x):
    n = len(x)
    mean = sum(x) / n
    var = sum((v - mean) ** 2 for v in x) / n
    return abs(math.sqrt(var) / mean)


def merit_oracle(k, r_cf, r_ff):
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def exhaustive_best_merit(n_features, merit_fn):
    """Max merit over all non-empty subsets and the subset attaining it,
    computed by plain enumeration; ties keep the first subset enumerated
    (fewer features, then lexicographic order)."""
    best, best_subset = -math.inf, None
    for k in range(1, n_features + 1):
        for subset in combinations(range(n_features), k):
            m = merit_fn(subset)
            if m > best:
                best, best_subset = m, subset
    return best, best_subset


def abs_corr_oracle(x, y):
    """|Pearson r|, with 0 when either input has zero variance."""
    try:
        return abs(corr_oracle(x, y))
    except ZeroDivisionError:
        return 0.0


def exhaustive_search(d):
    """Best CFS merit over every non-empty feature subset of a two-class
    dataset, and that subset: |r| against the class id as r_cf, mean
    pairwise |r| as r_ff. Exponential cost; a test oracle for cfs_search."""
    if d.class_count != 2:
        raise ValueError("the CFS oracle covers two-class data only")
    cols = [[float(v) for v in d.features[:, j]] for j in range(d.n_features)]
    labels = [float(c) for c in d.labels]
    r_cf = [abs_corr_oracle(c, labels) for c in cols]
    r_ff = [[abs_corr_oracle(a, b) for b in cols] for a in cols]

    def merit(subset):
        k = len(subset)
        pairs = list(combinations(subset, 2))
        ff = sum(r_ff[i][j] for i, j in pairs) / len(pairs) if pairs else 0.0
        return merit_oracle(k, sum(r_cf[j] for j in subset) / k, ff)

    return exhaustive_best_merit(d.n_features, merit)


def classify_batch_unblocked(codebook, classes, features):
    """Nearest-prototype classes from one (M, P, N) difference array; ties go
    to the lowest prototype index."""
    d2 = ((features[:, None, :] - codebook[None, :, :]) ** 2).sum(axis=2)
    return classes[np.argmin(d2, axis=1)]


def relief_oracle(rows, labels, picks):
    """Relief weights over range-scaled features: for each pick, the nearest
    same-class row (hit) and nearest other-class row (miss) by Euclidean
    distance, then w_j += ((miss_j - pick_j)^2 - (hit_j - pick_j)^2) / len(picks).
    Assumes no distance ties."""
    m, nf = len(rows), len(rows[0])
    spans = []
    for j in range(nf):
        col = [r[j] for r in rows]
        spans.append(max(col) - min(col) or 1.0)
    x = [[r[j] / spans[j] for j in range(nf)] for r in rows]
    w = [0.0] * nf
    for i in picks:
        def dist(k):
            return math.sqrt(sum((x[k][j] - x[i][j]) ** 2 for j in range(nf)))

        others = [k for k in range(m) if k != i]
        hit = min((k for k in others if labels[k] == labels[i]), key=dist)
        miss = min((k for k in others if labels[k] != labels[i]), key=dist)
        for j in range(nf):
            w[j] += ((x[miss][j] - x[i][j]) ** 2 - (x[hit][j] - x[i][j]) ** 2) / len(picks)
    return w


def lvq1_oracle(codebook, classes, rows, labels, alpha, epochs, seed):
    """LVQ1 codebook after ``epochs`` passes over the rows; pass e visits them
    in the order of the e-th ``permutation`` call on one
    ``np.random.default_rng(seed)``. At each visit the nearest
    prototype (squared Euclidean distance, ties to the lowest index) moves by
    alpha * (x - w), toward x on a class match and away from it otherwise.
    Distances accumulate left to right in explicit loops; no ``sum()``, which
    compensates float sums from Python 3.12 on."""
    book = [list(w) for w in codebook]
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        for i in rng.permutation(len(rows)).tolist():
            x = rows[i]
            win, best = 0, math.inf
            for p, w in enumerate(book):
                d2 = 0.0
                for j in range(len(x)):
                    d2 += (x[j] - w[j]) ** 2
                if d2 < best:
                    win, best = p, d2
            w = book[win]
            for j in range(len(x)):
                if classes[win] == labels[i]:
                    w[j] = w[j] + alpha * (x[j] - w[j])
                else:
                    w[j] = w[j] - alpha * (x[j] - w[j])
    return book
