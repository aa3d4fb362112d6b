import csv
import sys
from pathlib import Path

import numpy as np
import pytest

from ifecf.data import Dataset

sys.path.insert(0, str(Path(__file__).parent))


def make_dataset(features, labels, class_names=None):
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if class_names is None:
        class_names = tuple(str(c) for c in range(labels.max() + 1))
    names = tuple(f"f{j}" for j in range(features.shape[1]))
    return Dataset(features, labels, names, class_names)


def write_csv(d, path, delimiter=","):
    """Write a Dataset back out; values use repr so reloads are bit-exact."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, delimiter=delimiter)
        w.writerow(list(d.feature_names) + ["class"])
        for i in range(d.n_instances):
            w.writerow([repr(float(v)) for v in d.features[i]] + [d.class_names[d.labels[i]]])


def random_dataset(rng, m=40, n=5, classes=2):
    """Random dataset with a few class-informative features."""
    labels = rng.integers(0, classes, size=m)
    x = rng.normal(size=(m, n))
    for j in range(n):
        x[:, j] += rng.uniform(0, 2) * labels
    return make_dataset(x, labels)


def pima_like(seed=7, m=768, n=8, majority=500):
    """Shape-matched stand-in for the 768x8 two-class diabetes benchmark.

    Majority class has exactly ``majority`` rows so the majority-rate
    baseline matches the public set's 65.1%. Three features carry class
    signal; the rest are noise on realistic-looking positive scales.
    """
    rng = np.random.default_rng(seed)
    labels = np.zeros(m, dtype=np.int64)
    labels[majority:] = 1
    labels = labels[rng.permutation(m)]
    scales = np.array([3.0, 30.0, 12.0, 10.0, 80.0, 7.0, 0.3, 11.0])[:n]
    offsets = np.array([3.0, 120.0, 70.0, 20.0, 80.0, 32.0, 0.4, 33.0])[:n]
    x = rng.normal(size=(m, n)) * scales + offsets
    for j, strength in ((1, 1.2), (5, 0.8), (7, 0.5)):
        x[:, j] += strength * scales[j] * labels
    x = np.abs(x)
    return make_dataset(x, labels, class_names=("0", "1"))


def lung_like(seed=3, m=32, n=56, class_sizes=(9, 13, 10), informative=(3, 11, 20, 37, 48)):
    """Shape-matched stand-in for the 32x56 three-class lung cancer benchmark.

    Every attribute is nominal, valued 0-3. The ``informative`` attributes
    follow the class id (shifted by 0 or 1) on about three rows in four; the
    rest are uniform noise.
    """
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.repeat(np.arange(len(class_sizes)), class_sizes))[:m]
    x = rng.integers(0, 4, size=(m, n))
    for j in informative:
        tied = labels + j % 2
        x[:, j] = np.where(rng.random(m) < 0.75, tied, rng.integers(0, 4, size=m))
    return make_dataset(x.astype(np.float64), labels, class_names=("1", "2", "3"))


@pytest.fixture(autouse=True)
def _no_dataset_cache(tmp_path_factory, monkeypatch):
    """Point ``XDG_CACHE_HOME`` at a regular file, under which no cache
    directory can be made: every load parses, in this process and in the
    processes a test starts, and no test is answered from another's entry."""
    blocker = tmp_path_factory.getbasetemp() / "not-a-directory"
    blocker.touch()
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh, empty dataset cache for this test; returns its ``ifecf`` directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "ifecf"


@pytest.fixture(scope="session")
def pima_dataset():
    return pima_like()


@pytest.fixture(scope="session")
def pima_csv(tmp_path_factory, pima_dataset):
    path = tmp_path_factory.mktemp("data") / "pima_like.csv"
    write_csv(pima_dataset, path)
    return path
