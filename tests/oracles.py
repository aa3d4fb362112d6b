"""Independent brute-force reference implementations, pure-python loops only.

These deliberately avoid numpy vector paths so they cannot share a bug with
the library code they check.
"""

import math
from itertools import combinations


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
