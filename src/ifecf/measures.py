"""Statistical measures: linear correlation, entropy, conditional entropy,
information gain, coefficient of dispersion, and the column-wise class- and
feature-correlation kernels built from them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

PROB_SUM_TOL = 1e-9


class MeasureError(ValueError):
    """Raised when a measure's preconditions are violated (zero variance,
    malformed distribution)."""


def correlation(x, y) -> float:
    """Pearson linear correlation coefficient, in [-1, 1].

    Raises MeasureError when either vector has zero variance (the
    denominator vanishes); never returns NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise MeasureError("correlation needs two equal-length vectors")
    if x.size < 2:
        raise MeasureError("correlation needs at least 2 points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.dot(dx, dx)))
    sy = float(np.sqrt(np.dot(dy, dy)))
    if sx == 0.0 or sy == 0.0:
        raise MeasureError("zero-variance input to correlation")
    r = float(np.dot(dx, dy)) / (sx * sy)
    return max(-1.0, min(1.0, r))


def entropy(p) -> float:
    """Shannon entropy in bits of an explicit discrete distribution."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise MeasureError("negative probability")
    if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
        raise MeasureError(f"probabilities sum to {p.sum()}, not 1")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _counts_entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    return entropy(counts / total)


def conditional_entropy(a, b) -> float:
    """Empirical E(A|B) in bits from paired discrete samples."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0:
        raise MeasureError("empty input")
    if a.shape != b.shape or a.ndim != 1:
        raise MeasureError("conditional_entropy needs two equal-length vectors")
    total = a.size
    acc = 0.0
    for bv in np.unique(b):
        mask = b == bv
        _, counts = np.unique(a[mask], return_counts=True)
        acc += (mask.sum() / total) * _counts_entropy(counts)
    return acc


def information_gain(a, b) -> float:
    """IG(A|B) = E(A) - E(A|B); symmetric in its arguments."""
    a = np.asarray(a)
    _, counts = np.unique(a, return_counts=True)
    ig = float(_counts_entropy(counts) - conditional_entropy(a, b))
    # empirical estimate can dip a hair below zero
    return max(0.0, ig)


def dispersion_scores(features: np.ndarray) -> np.ndarray:
    """Per-column coefficient of dispersion |sigma/mean| with population std;
    NaN marks zero-mean columns.

    Single vectorized pass, linear in the number of features.
    """
    means = features.mean(axis=0)
    sigma = np.sqrt(np.mean((features - means) ** 2, axis=0))
    out = np.full(features.shape[1], np.nan)
    nz = means != 0
    out[nz] = np.abs(sigma[nz] / means[nz])
    return out


@dataclass(frozen=True)
class FeatureStats:
    mean: float
    std_dev: float
    dispersion: float | None  # None when mean == 0
    c_correlation: float


def _unit_columns(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column centred and scaled to unit norm, and the mask of the columns
    that vary; a column that holds one value is all 0."""
    scaled = features - features.mean(axis=0)
    norms = np.sqrt((scaled**2).sum(axis=0))
    ok = (norms > 0) & (features != features[:1]).any(axis=0)
    np.divide(scaled, norms, out=scaled, where=ok)
    scaled[:, ~ok] = 0.0
    return scaled, ok


def f_correlation_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise |Pearson r| between features; zero-variance rows/cols are 0."""
    scaled, ok = _unit_columns(features)
    r = scaled.T @ scaled
    np.abs(r, out=r)
    np.fill_diagonal(r, ok)
    return np.clip(r, 0.0, 1.0, out=r)


def c_correlation(features: np.ndarray, labels, class_count: int) -> np.ndarray:
    """Feature-to-class relevance score of each column of the (M, N) matrix.

    Two-class data uses |Pearson r| against the integer class id, all columns
    in one pass; more classes use information gain (order-free) on each
    feature cut into 10 equal-frequency bins (one bin per value when it has
    10 or fewer distinct values; a value equal to a cut falls in the lower
    bin). Constant features score 0 by convention; zero-variance labels
    raise MeasureError on two classes unless every feature is constant.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if class_count == 2:
        scaled, ok = _unit_columns(features)
        y, y_ok = _unit_columns(labels.astype(np.float64).reshape(-1, 1))
        if ok.any() and not y_ok[0]:
            raise MeasureError("zero-variance input to correlation")
        r = np.abs(scaled.T @ y[:, 0])
        return np.minimum(r, 1.0, out=r)
    scores = np.zeros(features.shape[1])
    for j in range(features.shape[1]):  # a constant column is one bin: gain 0
        x = features[:, j]
        ranks = np.unique(x)
        if ranks.size > 10:
            cutpts = np.unique(np.quantile(np.sort(x), np.linspace(0, 1, 11)[1:-1]))
        else:
            cutpts = (ranks[:-1] + ranks[1:]) / 2.0
        scores[j] = information_gain(labels, np.searchsorted(cutpts, x, side="left"))
    return scores


def feature_stats(d: Dataset) -> list[FeatureStats]:
    """Per-feature mean, population std, dispersion and class relevance."""
    means = d.features.mean(axis=0)
    stds = d.features.std(axis=0)
    disp = dispersion_scores(d.features)
    cc = c_correlation(d.features, d.labels, d.class_count)
    return [
        FeatureStats(
            float(means[j]),
            float(stds[j]),
            None if math.isnan(disp[j]) else float(disp[j]),
            float(cc[j]),
        )
        for j in range(d.n_features)
    ]
