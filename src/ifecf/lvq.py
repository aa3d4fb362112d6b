"""LVQ1 nearest-prototype classifier with winner-take-all updates at a
fixed learning rate."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset


class LVQError(ValueError):
    """Raised on invalid configuration or degenerate training data."""


@dataclass(frozen=True)
class LVQConfig:
    alpha: float = 0.1
    epochs: int = 20
    prototypes_per_class: int = 1
    seed: int = 42

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise LVQError(f"alpha must be in (0,1), got {self.alpha}")
        if self.epochs < 1:
            raise LVQError("epochs must be >= 1")
        if self.prototypes_per_class < 1:
            raise LVQError("prototypes_per_class must be >= 1")


@dataclass
class LVQModel:
    codebook: np.ndarray  # (P, N) prototype vectors
    classes: np.ndarray  # (P,) class id per prototype
    config: LVQConfig
    epochs_run: int = 0
    class_names: tuple[str, ...] = ()  # class id -> label token of the training set

    @property
    def n_features(self) -> int:
        return self.codebook.shape[1]

    def to_dict(self) -> dict:
        return {
            "codebook": self.codebook.tolist(),
            "classes": self.classes.tolist(),
            "class_names": list(self.class_names),
            "config": {
                "alpha": self.config.alpha,
                "epochs": self.config.epochs,
                "prototypes_per_class": self.config.prototypes_per_class,
                "seed": self.config.seed,
            },
            "epochs_run": self.epochs_run,
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "LVQModel":
        """Read a model written by ``save``; a malformed file raises LVQError."""
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            codebook = np.asarray(doc["codebook"])
            classes = np.asarray(doc["classes"])
            names = doc["class_names"]
            config = LVQConfig(**doc["config"])
            epochs_run = doc["epochs_run"]
        except KeyError as exc:
            raise LVQError(f"{path}: model file lacks {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise LVQError(f"{path}: malformed model file: {exc}") from exc
        if codebook.dtype.kind not in "iuf" or codebook.ndim != 2 or codebook.size == 0:
            raise LVQError(f"{path}: codebook is not a non-empty (P, N) number array")
        if classes.dtype.kind != "i" or classes.shape != codebook.shape[:1]:
            raise LVQError(f"{path}: classes must be {codebook.shape[0]} integer ids")
        if not np.all(np.isfinite(codebook)):
            raise LVQError(f"{path}: non-finite codebook value")
        if (not isinstance(names, list) or not all(isinstance(n, str) for n in names)
                or len(set(names)) != len(names)):
            raise LVQError(f"{path}: class_names must be a list of distinct strings")
        if classes.min() < 0 or classes.max() >= len(names):
            raise LVQError(f"{path}: class id outside class_names")
        return cls(codebook.astype(np.float64), classes.astype(np.int64), config,
                   epochs_run, tuple(names))


def init_codebook(train: Dataset, cfg: LVQConfig) -> LVQModel:
    """One prototype per class at the class mean, or seeded random distinct
    training instances when more prototypes are requested."""
    rng = np.random.default_rng(cfg.seed)
    protos, classes = [], []
    present = sorted(set(train.labels.tolist()))
    if not present:
        raise LVQError("no training instances")
    for c in present:
        rows = np.flatnonzero(train.labels == c)
        if rows.size < cfg.prototypes_per_class:
            raise LVQError(
                f"class {train.class_names[c]!r} has {rows.size} instances, "
                f"needs >= {cfg.prototypes_per_class}"
            )
        if cfg.prototypes_per_class == 1:
            protos.append(train.features[rows].mean(axis=0))
            classes.append(c)
        else:
            chosen = rng.choice(rows, size=cfg.prototypes_per_class, replace=False)
            for r in chosen:
                protos.append(train.features[r].copy())
                classes.append(c)
    return LVQModel(np.array(protos), np.array(classes, dtype=np.int64), cfg,
                    class_names=train.class_names)


def train(model: LVQModel, data: Dataset, cfg: LVQConfig | None = None) -> LVQModel:
    """Winner-take-all training.

    Each epoch visits instances in a seeded shuffled order. The nearest
    prototype is pulled toward same-class instances and pushed away from
    others by the fixed learning rate.
    """
    cfg = cfg or model.config
    if data.n_features != model.n_features:
        raise LVQError(
            f"model expects N={model.n_features}, dataset has N={data.n_features}"
        )
    book = model.codebook.copy()
    rng = np.random.default_rng(cfg.seed)
    x, y, classes = data.features, data.labels.tolist(), model.classes.tolist()
    for epoch in range(cfg.epochs):
        for i in rng.permutation(data.n_instances).tolist():
            diff = x[i] - book
            win = int((diff**2).sum(axis=1).argmin())
            book[win] += (cfg.alpha if classes[win] == y[i] else -cfg.alpha) * diff[win]
        if not np.all(np.isfinite(book)):
            raise LVQError(f"non-finite prototype after epoch {epoch + 1}")
    return LVQModel(book, model.classes.copy(), cfg,
                    epochs_run=model.epochs_run + cfg.epochs, class_names=model.class_names)


def classify(model: LVQModel, x) -> int:
    """Class of the Euclidean-nearest prototype; ties go to the lowest
    prototype index (argmin convention)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise LVQError(f"expected vector of length {model.n_features}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise LVQError("non-finite input")
    return int(classify_batch(model, x[None])[0])


# Elements of the (rows, P, N) difference temporary in one classify_batch block.
BLOCK_CELLS = 1 << 16


def classify_batch(model: LVQModel, features: np.ndarray) -> np.ndarray:
    """Vectorized nearest-prototype classification of many rows.

    Rows go in blocks of about ``BLOCK_CELLS`` difference elements; each row's
    squared distances are reduced over N exactly as in one whole-array pass.
    """
    if features.shape[1] != model.n_features:
        raise LVQError("feature arity mismatch")
    book = model.codebook[None, :, :]
    step = max(1, BLOCK_CELLS // model.codebook.size)
    out = np.empty(features.shape[0], dtype=model.classes.dtype)
    for start in range(0, features.shape[0], step):
        x = features[start:start + step]
        d2 = ((x[:, None, :] - book) ** 2).sum(axis=2)
        out[start:start + step] = model.classes[np.argmin(d2, axis=1)]
    return out


@dataclass
class EvalResult:
    correct: int
    total: int
    accuracy: float
    confusion: np.ndarray = field(repr=False)  # (true, predicted) counts


def evaluate(model: LVQModel, test: Dataset) -> EvalResult:
    if test.n_instances == 0:
        raise LVQError("empty test set")
    pred = classify_batch(model, test.features)
    correct = int((pred == test.labels).sum())
    k = test.class_count
    conf = np.zeros((k, k), dtype=np.int64)
    np.add.at(conf, (test.labels, pred), 1)
    return EvalResult(correct, test.n_instances, correct / test.n_instances, conf)
