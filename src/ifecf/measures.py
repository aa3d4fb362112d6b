"""Statistical measures: linear correlation, coefficient of dispersion, and
the column-wise class- and feature-correlation kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

BLOCK_CELLS = 1 << 16
BINS = 10


class MeasureError(ValueError):
    """Raised when a measure's preconditions are violated."""


def correlation(x, y) -> float:
    """Pearson linear correlation coefficient, in [-1, 1]: the dot product of
    the two columns as ``_unit_columns`` scales them.

    Raises MeasureError when either vector holds one value (the
    denominator vanishes) or a NaN or infinite value; never returns NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise MeasureError("correlation needs two equal-length vectors")
    if x.size < 2:
        raise MeasureError("correlation needs at least 2 points")
    scaled, ok = _unit_columns(np.column_stack((x, y)))
    if not ok.all():
        raise MeasureError("zero-variance input to correlation")
    return max(-1.0, min(1.0, float(scaled[:, 0] @ scaled[:, 1])))


def dispersion_scores(features: np.ndarray) -> np.ndarray:
    """Per-column coefficient of dispersion |sigma/mean| with population std;
    NaN marks zero-mean columns."""
    return _moments(features)[2]


def _moments(features) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's mean, population std and dispersion, from the columns
    as ``_centred`` scales them. The dispersion is free of scale, so it
    divides the scaled moments; ``np.ldexp`` scales the mean and std back.
    Those take the steps of numpy's ``mean`` and ``std``, so they equal
    numpy's bit for bit on columns whose scaled values stay normal."""
    dev, exponents, means, _ = _centred(features)
    sigma = np.sqrt(np.multiply(dev, dev, out=dev).mean(axis=0))
    disp = np.abs(np.divide(sigma, means, out=np.full(means.size, np.nan), where=means != 0))
    return np.ldexp(means, exponents), np.ldexp(sigma, exponents), disp


def _centred(features) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A float64 copy of ``features``, each column scaled exactly by the power
    of two that brings its largest |value| into [0.5, 1) and centred; the
    exponents, which ``np.ldexp`` undoes; the scaled means; and the mask of
    the columns that vary (max > min). Sums cannot overflow, and a column
    that varies keeps a deviation of at least 2**-54, whose square is in
    range. MeasureError: a NaN or infinite value."""
    a = np.array(features, dtype=np.float64)
    hi, lo = a.max(axis=0, initial=-np.inf), a.min(axis=0, initial=np.inf)
    top = np.maximum(hi, -lo)  # -inf for a column of no rows
    if not (top < np.inf).all():  # NaN fails the test too
        raise MeasureError("NaN or infinite input value")
    _, exponents = np.frexp(top)
    means = np.ldexp(a, -exponents, out=a).mean(axis=0)
    a -= means
    return a, exponents, means, hi > lo  # no rows: -inf > inf is False


@dataclass(frozen=True)
class FeatureStats:
    mean: float
    std_dev: float
    dispersion: float | None  # None when mean == 0
    c_correlation: float


def _unit_columns(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column centred and scaled to unit norm, and the mask of the columns
    that vary; a column that holds one value is all 0."""
    scaled, _, _, ok = _centred(features)
    norms = np.sqrt((scaled**2).sum(axis=0))
    np.divide(scaled, norms, out=scaled, where=ok)
    scaled[:, ~ok] = 0.0
    return scaled, ok


def f_correlation_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise |Pearson r| between features; zero-variance rows/cols are 0."""
    return _abs_r(*_unit_columns(features))


def _abs_r(scaled: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The |r| matrix of ``_unit_columns``' output."""
    r = scaled.T @ scaled
    np.abs(r, out=r)
    np.fill_diagonal(r, ok)
    return np.clip(r, 0.0, 1.0, out=r)


def _cut_points(sorted_cols: np.ndarray) -> np.ndarray:
    """The (BINS - 1, c) cut points of each sorted column: the midpoints of
    its distinct values when it has BINS or fewer (the unused cuts are inf),
    else its equal-frequency quantiles, by the steps of ``np.quantile``'s
    "linear" method on the sorted rows (its first call imports ``numpy.ma``)."""
    change = sorted_cols[1:] != sorted_cols[:-1]
    few = np.flatnonzero(change.sum(axis=0) < BINS)
    col, row = np.nonzero(change[:, few].T)  # column by column, rows ascending
    j = few[col]
    mids = (sorted_cols[row, j] + sorted_cols[row + 1, j]) / 2.0
    last = len(sorted_cols) - 1
    at = last * np.linspace(0, 1, BINS + 1)[1:-1]
    lo = at.astype(np.intp)  # floor, as at >= 0
    t = (at - lo)[:, None]
    a, b = sorted_cols[lo], sorted_cols[np.minimum(lo + 1, last)]
    cuts = a + (b - a) * t
    np.subtract(b, (b - a) * (1 - t), out=cuts, where=t >= 0.5)
    cuts[:, few] = np.inf
    cuts[np.arange(col.size) - np.searchsorted(col, col), j] = mids
    return cuts


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """Sum along the last axis, left to right, as numpy sums fewer than 8 numbers."""
    acc = np.zeros(terms.shape[:-1])
    for t in np.moveaxis(terms, -1, 0):
        acc += t
    return acc


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of class counts along the last axis."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = counts / counts.sum(axis=-1, keepdims=True)
        return -_running_sum(np.where(counts > 0, p * np.log2(p), 0.0))


def _information_gains(x: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Information gain between the class ids y (in [0, k)) and each column
    of x cut into at most BINS bins."""
    m, c = x.shape
    sorted_cols = np.sort(x, axis=0)  # NaN sorts last
    if not np.isfinite(sorted_cols[[0, -1]]).all():
        raise MeasureError("NaN or infinite input value")
    cuts = _cut_points(sorted_cols)
    # key (column * BINS + bin) * k + class, where a value's bin is the number
    # of cuts below it (searchsorted, side="left"); a repeated cut leaves an
    # empty bin, which adds nothing below
    keys = np.tile(np.arange(c) * BINS, (m, 1))
    for cut in cuts:
        keys += cut < x
    keys *= k
    keys += y[:, None]
    counts = np.bincount(keys.ravel(), minlength=c * BINS * k).reshape(c, BINS, k)
    cond = _running_sum(counts.sum(axis=2) / m * _entropies(counts))  # E(class|bin)
    ig = _entropies(np.bincount(y, minlength=k)) - cond
    return np.where(ig > 0, ig, 0.0)  # the estimate can dip a hair below zero


def c_correlation(features: np.ndarray, labels, class_count: int) -> np.ndarray:
    """Feature-to-class relevance score of each column of the (M, N) matrix.

    Two-class data uses |Pearson r| against the integer class id; more
    classes use information gain in bits (order-free) on each feature cut
    into BINS equal-frequency bins (one bin per value when it has BINS or
    fewer distinct values; a value equal to a cut falls in the lower bin),
    in column blocks of about ``BLOCK_CELLS`` values. Constant features
    score 0. MeasureError: a NaN or infinite value, labels that do not
    match the rows or are not class ids in [0, class_count), no rows on
    more classes, zero-variance labels on two unless every feature is
    constant.
    """
    return correlations(features, labels, class_count)[0]


def correlations(features: np.ndarray, labels, class_count: int):
    """``c_correlation`` of each column, and a function that gives
    ``f_correlation_matrix`` of the columns at the given positions (all by
    default). On two classes both come from one ``_unit_columns`` pass. The
    scores and the whole matrix keep the bits of the two separate calls. So
    does a subset of the columns of a column-major ``features``, such as
    ``x[:, cols]`` with a list, where numpy sums each column on its own."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if labels.shape != features.shape[:1]:
        raise MeasureError("labels do not match the feature rows")
    # a label past the last class would spill into the next column's bin counts
    if labels.size and (labels.dtype.kind != "i" or labels.min() < 0
                        or labels.max() >= class_count):
        raise MeasureError(f"labels must be integer class ids in [0, {class_count})")
    if class_count == 2:
        scaled, ok = _unit_columns(features)
        y, y_ok = _unit_columns(labels.astype(np.float64).reshape(-1, 1))
        if ok.any() and not y_ok[0]:
            raise MeasureError("zero-variance input to correlation")
        r = np.abs(scaled.T @ y[:, 0])
        return (np.minimum(r, 1.0, out=r),
                lambda cols=slice(None): _abs_r(scaled[:, cols], ok[cols]))
    m, n = features.shape
    if m == 0:
        raise MeasureError("empty input")
    scores = np.zeros(n)
    step = max(1, BLOCK_CELLS // m)
    for j in range(0, n, step):
        scores[j:j + step] = _information_gains(features[:, j:j + step], labels, class_count)
    return scores, lambda cols=slice(None): f_correlation_matrix(features[:, cols])


def feature_stats(d: Dataset) -> list[FeatureStats]:
    """Per-feature mean, population std, dispersion and class relevance."""
    columns = zip(*(m.tolist() for m in _moments(d.features)),
                  c_correlation(d.features, d.labels, d.class_count).tolist())
    return [FeatureStats(mean, std, None if math.isnan(disp) else disp, cc)
            for mean, std, disp, cc in columns]
