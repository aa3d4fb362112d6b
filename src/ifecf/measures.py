"""Statistical measures: linear correlation, entropy, conditional entropy,
information gain, coefficient of dispersion, and the class-relevance score
built from them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

PROB_SUM_TOL = 1e-9


class MeasureError(ValueError):
    """Raised when a measure's preconditions are violated (zero variance,
    zero mean, malformed distribution)."""


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


def dispersion(x) -> float:
    """Coefficient of dispersion |sigma/mean| of one vector.

    Raises MeasureError on a zero mean (undefined ratio).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 1:
        raise MeasureError("dispersion needs at least 1 point")
    score = float(dispersion_scores(x.reshape(-1, 1))[0])
    if math.isnan(score):
        raise MeasureError("zero mean: coefficient of dispersion undefined")
    return score


@dataclass(frozen=True)
class FeatureStats:
    mean: float
    std_dev: float
    dispersion: float | None  # None when mean == 0
    c_correlation: float


def c_correlation(x, labels, class_count: int) -> float:
    """Feature-to-class relevance score.

    Two-class data uses |Pearson r| against the integer class id; more
    classes use information gain (order-free) on the feature cut into 10
    equal-frequency bins (one bin per value when it has 10 or fewer distinct
    values; a value equal to a cut falls in the lower bin). Constant
    features score 0 by convention.
    """
    x = np.asarray(x, dtype=np.float64)
    if np.all(x == x[0]):
        return 0.0
    if class_count == 2:
        return abs(correlation(x, np.asarray(labels, dtype=np.float64)))
    ranks = np.unique(x)
    if ranks.size > 10:
        cutpts = np.unique(np.quantile(np.sort(x), np.linspace(0, 1, 11)[1:-1]))
    else:
        cutpts = (ranks[:-1] + ranks[1:]) / 2.0
    xd = np.searchsorted(cutpts, x, side="left")
    return information_gain(np.asarray(labels), xd)


def feature_stats(d: Dataset) -> list[FeatureStats]:
    """Per-feature mean, population std, dispersion and class relevance."""
    means = d.features.mean(axis=0)
    stds = d.features.std(axis=0)
    disp = dispersion_scores(d.features)
    return [
        FeatureStats(
            float(means[j]),
            float(stds[j]),
            None if math.isnan(disp[j]) else float(disp[j]),
            c_correlation(d.features[:, j], d.labels, d.class_count),
        )
        for j in range(d.n_features)
    ]
