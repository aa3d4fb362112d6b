"""Independent brute-force reference implementations, pure-python loops only.

These deliberately avoid numpy vector paths so they cannot share a bug with
the library code they check. The exceptions are bit-exact references:
the blocked ``lvq.classify_batch`` must equal the whole-array numpy formula
``classify_batch_unblocked``, ``select.relief`` the plain per-pick numpy
scan ``relief_exact``, ``select.cfs_search`` the one-child-at-a-time
search ``cfs_trace_oracle``, multi-class ``c_correlation`` its scores
on the ``np.quantile`` cuts of ``cut_points_oracle``, and ``data.split``
and ``data.apply_normalizer`` the per-class row lists of
``split_rows_oracle`` and the ``Dataset.take`` copy of
``normalize_rows_oracle``, bit for bit.
"""

import csv
import heapq
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


def cfs_trace_oracle(cc, rmat, patience):
    """Best-first CFS search over full subsets, scored one child at a time:
    the scored subsets as (sorted tuple, merit) in scoring order, and the
    best subset. ``cc`` is the list of class correlations and ``rmat`` the
    |r| matrix. Each open subset carries its sums of |r_cf| and of pairwise
    r_ff; a child adds one term to each and goes through ``merit_oracle``,
    so its merit matches ``select.cfs_search`` bit for bit."""
    trace = []
    open_heap = [(0.0, (), 0.0, 0.0)]
    seen = {()}
    best_subset, best_merit = (), -math.inf
    stall = 0
    while open_heap and stall < patience:
        _, subset, sum_cf, sum_ff = heapq.heappop(open_heap)
        k = len(subset) + 1
        pairs = k * (k - 1) / 2
        row_sums = rmat[:, list(subset)].sum(axis=1)
        improved = False
        for f in range(len(cc)):
            if f in subset:
                continue
            child = tuple(sorted(subset + (f,)))
            if child in seen:
                continue
            seen.add(child)
            child_cf = sum_cf + cc[f]
            child_ff = sum_ff + float(row_sums[f])
            m = merit_oracle(k, child_cf / k, child_ff / pairs if k > 1 else 0.0)
            trace.append((child, m))
            heapq.heappush(open_heap, (-m, child, child_cf, child_ff))
            if m > best_merit + 1e-12:
                best_merit, best_subset = m, child
                improved = True
        if subset:
            stall = 0 if improved else stall + 1
    return trace, best_subset


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


def relief_exact(features, labels, picks):
    """Relief weights by one full numpy distance scan per pick, in the float
    order of ``select.relief``: range-scaled features, Euclidean distance
    ``sqrt(((x - x[i])**2).sum(1))``, ties to the lowest row, and the weights
    summed in pick order."""
    span = features.max(axis=0) - features.min(axis=0)
    x = features / np.where(span > 0, span, 1.0)
    w = np.zeros(features.shape[1])
    for i in picks:
        diffs = x - x[i]
        dists = np.sqrt((diffs**2).sum(axis=1))
        dists[i] = np.inf
        same = labels == labels[i]
        hit = int(np.argmin(np.where(same, dists, np.inf)))
        miss = int(np.argmin(np.where(~same, dists, np.inf)))
        w += (diffs[miss] ** 2 - diffs[hit] ** 2) / len(picks)
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


def load_csv_oracle(path, class_idx):
    """The ``csv`` module and ``float()`` reading of a well-formed comma file:
    (header, feature rows, label tokens), blank rows skipped, cells stripped
    as ``load_csv`` strips them."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = [c.strip() for c in rows[0]]
    class_idx %= len(header)
    feats = [[float(c) for j, c in enumerate(row) if j != class_idx] for row in rows[1:]]
    return header, feats, [row[class_idx].strip() for row in rows[1:]]


def cut_points_oracle(sorted_cols, bins=10):
    """The (bins - 1, c) cut points of each sorted column through
    ``np.quantile``: the midpoints of its distinct values when it has ``bins``
    or fewer (the unused cuts inf), else numpy's "linear" quantiles at
    1/bins, ..., (bins - 1)/bins."""
    cuts = np.quantile(sorted_cols, np.linspace(0, 1, bins + 1)[1:-1], axis=0)
    for j in range(sorted_cols.shape[1]):
        values = np.unique(sorted_cols[:, j])
        if values.size <= bins:
            cuts[:, j] = np.inf
            cuts[:values.size - 1, j] = (values[:-1] + values[1:]) / 2.0
    return cuts


# Bit-exact references for measures._moments and measures._unit_columns:
# the scaling, the centring and the scan for constant columns, each on its own.
def pow2_scaled_oracle(features):
    """A float64 copy of ``features`` with each column scaled by the power of
    two that brings its largest |value| into [0.5, 1), and each column's
    exponent of two."""
    a = np.array(features, dtype=np.float64)
    _, exponents = np.frexp(np.maximum(a.max(axis=0, initial=0), -a.min(axis=0, initial=0)))
    return np.ldexp(a, -exponents, out=a), exponents


def moments_oracle(features):
    """Each column's mean, population std and dispersion (NaN for a zero
    mean), from the columns as ``pow2_scaled_oracle`` scales them."""
    dev, exponents = pow2_scaled_oracle(features)
    means = dev.mean(axis=0)
    dev -= means
    sigma = np.sqrt(np.multiply(dev, dev, out=dev).mean(axis=0))
    disp = np.full(means.size, np.nan)
    nz = means != 0
    disp[nz] = np.abs(sigma[nz] / means[nz])
    return np.ldexp(means, exponents), np.ldexp(sigma, exponents), disp


def unit_columns_oracle(features):
    """Each column centred and scaled to unit norm, and the mask of the
    columns that vary, found by a scan of the raw values; a column that holds
    one value is all 0."""
    scaled, _ = pow2_scaled_oracle(features)
    scaled -= scaled.mean(axis=0)
    norms = np.sqrt((scaled**2).sum(axis=0))
    ok = (norms > 0) & (features != features[:1]).any(axis=0)
    np.divide(scaled, norms, out=scaled, where=ok)
    scaled[:, ~ok] = 0.0
    return scaled, ok


# Bit-exact references for data.split and data.apply_normalizer: a split as
# per-class lists of train and test rows, concatenated and sorted, and the
# normalizer as a row subset of its own (``Dataset.take``) mapped into a
# second array.
def split_rows_oracle(d, fraction, seed):
    """The sorted train and test rows of a valid stratified split: each
    class's rows in the order of one ``permutation`` call per class on one
    ``np.random.default_rng(seed)``, the first of them in train as many as
    the largest remainder allocation gives the class."""
    m = d.n_instances
    n_train = int(math.floor(fraction * m + 0.5))
    rng = np.random.default_rng(seed)
    class_rows = [np.flatnonzero(d.labels == c) for c in range(d.class_count)]
    class_rows = [r for r in class_rows if r.size > 0]
    targets = [fraction * r.size for r in class_rows]
    counts = [min(max(int(math.floor(t)), 1), r.size - 1) for t, r in zip(targets, class_rows)]
    remainders = sorted(range(len(class_rows)), key=lambda i: targets[i] - math.floor(targets[i]),
                        reverse=True)
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
    assert deficit == 0, "no stratified split at this fraction"
    train_parts, test_parts = [], []
    for rows, c in zip(class_rows, counts):
        order = rows[rng.permutation(rows.size)]
        train_parts.append(order[:c])
        test_parts.append(order[c:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(test_parts))


def normalize_rows_oracle(d, norm, rows):
    """Rows ``rows`` of ``d`` min-max normalized by ``norm``, computed into
    a new array from a Dataset of those rows: constant columns 0.5, columns
    whose range or offset from the min overflows computed at half scale, and
    a value that normalizes past the float64 maximum a ``DataError``."""
    from ifecf.data import DataError, Dataset

    d = d.take(rows)
    mins, maxs = norm
    if mins.shape[0] != d.n_features:
        raise DataError(f"normalizer fitted on N={mins.shape[0]}, dataset has N={d.n_features}")
    with np.errstate(over="ignore"):
        span = maxs - mins
    const, wide = span == 0, np.isinf(span)
    out = np.empty_like(d.features)
    try:
        with np.errstate(over="raise"):
            np.subtract(d.features, mins, out=out)
    except FloatingPointError:
        wide |= np.isinf(out).any(axis=0)
    scaled = ~(const | wide)
    try:
        with np.errstate(over="raise"):
            np.divide(out, span, out=out, where=scaled)
    except FloatingPointError:
        far = [d.feature_names[j] for j in np.flatnonzero(scaled & np.isinf(out).any(axis=0))]
        raise DataError(f"column {', '.join(map(repr, far))}: a value normalizes past the "
                        "float64 maximum; it lies too far outside the train range") from None
    if wide.any():
        lo, hi = mins[wide] / 2, maxs[wide] / 2
        out[:, wide] = (d.features[:, wide] / 2 - lo) / (hi - lo)
    out[:, const] = 0.5
    return Dataset(out, d.labels, d.feature_names, d.class_names)
