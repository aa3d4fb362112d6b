"""Workload definitions: seeded input generators, the CLI calls each workload
makes, and the checks that decide whether each call's output is correct.

The generators live here, not in ``tests/``, so that editing the test suite
cannot shift the benchmark's inputs. ``pima_like`` and ``wide`` follow the test
fixtures' ``pima_like`` and ``random_dataset`` draw for draw.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Full sizes; the smoke check passes ``tiny=True`` to shrink every input.
WIDE_SHAPE = (1500, 120)
TALL_SHAPE = (100000, 20, 5)
# ``wide`` is one fixed draw whose rows and columns the workload seed permutes.
# CFS cost grows with the cube of the selected-subset size, which varies
# 85-99 of 150 between fresh draws; per-seed draws would make the seed, not
# the code, set the select_wide time.
WIDE_BASE_SEED = 1

NAMES = ("sweep", "select_wide", "tall")
# Which op of an iteration produced each digest ``check`` returns (default 0).
DIGEST_OP = {"ifecf_kept": 1, "cfs_kept": 2, "relief_weights": 3}


class CheckError(Exception):
    """An op's output failed a correctness check."""


# ---------------------------------------------------------------- inputs


def pima_like(seed: int, m: int = 768, n: int = 8, majority: int = 500):
    """768x8 two-class stand-in for the diabetes set, as in the test fixture."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(m, dtype=np.int64)
    labels[majority:] = 1
    labels = labels[rng.permutation(m)]
    scales = np.array([3.0, 30.0, 12.0, 10.0, 80.0, 7.0, 0.3, 11.0])[:n]
    offsets = np.array([3.0, 120.0, 70.0, 20.0, 80.0, 32.0, 0.4, 33.0])[:n]
    x = rng.normal(size=(m, n)) * scales + offsets
    for j, strength in ((1, 1.2), (5, 0.8), (7, 0.5)):
        x[:, j] += strength * scales[j] * labels
    return np.abs(x), labels


def wide(seed: int, m: int, n: int):
    """The test fixture's ``random_dataset`` (two classes, every feature shifted
    by class id times a strength drawn from [0, 2)), rows and columns permuted."""
    rng = np.random.default_rng(WIDE_BASE_SEED)
    labels = rng.integers(0, 2, size=m)
    x = rng.normal(size=(m, n))
    for j in range(n):
        x[:, j] += rng.uniform(0, 2) * labels
    perm = np.random.default_rng(seed)
    rows, cols = perm.permutation(m), perm.permutation(n)
    return x[rows][:, cols], labels[rows]


def tall(seed: int, m: int, n: int, k: int):
    """k Gaussian classes, centres from N(0, 1), unit noise."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=m)
    centres = rng.normal(0.0, 1.0, size=(k, n))
    return centres[labels] + rng.normal(size=(m, n)), labels


def write_csv(path: Path, x: np.ndarray, labels: np.ndarray) -> None:
    """Header ``f0..f{N-1},class``; values in shortest round-trip form."""
    tmp = path.with_suffix(".tmp")
    with tmp.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join([f"f{j}" for j in range(x.shape[1])] + ["class"]) + "\n")
        for row, c in zip(x.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{c}\n")
    tmp.replace(path)


def make_inputs(name: str, seed: int, directory: Path, tiny: bool = False) -> Path:
    """Write the workload's CSV into ``directory`` unless already there."""
    path = directory / "data.csv"
    if path.exists():
        return path
    directory.mkdir(parents=True, exist_ok=True)
    if name == "sweep":
        x, y = pima_like(seed, m=96, majority=60) if tiny else pima_like(seed)
    elif name == "select_wide":
        x, y = wide(seed, *((120, 12) if tiny else WIDE_SHAPE))
    else:
        x, y = tall(seed, *((2000, 6, 5) if tiny else TALL_SHAPE))
    write_csv(path, x, y)
    return path


# ---------------------------------------------------------------- ops


def ops(name: str, data: Path, out: Path, tiny: bool = False) -> list[list[str]]:
    """The ``ifecf`` argument vectors one iteration of the workload runs."""
    d = str(data)
    if name == "sweep":
        fractions = ["0.3", "0.5"] if tiny else ["0.1", "0.2"]
        return [["bench", d, "--select", "--fractions", *fractions, "--out", str(out / "bench")]]
    if name == "select_wide":
        return [
            ["stats", d],
            ["select", d, "--method", "ifecf", "--out", str(out / "ifecf.json")],
            ["select", d, "--method", "cfs", "--out", str(out / "cfs.json")],
            ["select", d, "--method", "relief", "--samples", "60" if tiny else "1000"],
        ]
    return [["bench", d, "--fractions", "0.3" if tiny else "0.02", "--alphas", "0.1",
             "--repeats", "1", "--select", "--no-plot", "--out", str(out / "bench")]]


# ---------------------------------------------------------------- checks


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@functools.lru_cache(maxsize=1)
def _load_xy(path: Path):
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    x = np.array([[float(v) for v in r[:-1]] for r in rows])
    tokens = [r[-1] for r in rows]
    ids = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    return x, np.array([ids[t] for t in tokens], dtype=np.float64)


def _abs_corr(a: np.ndarray) -> np.ndarray:
    """|Pearson r| between the columns of ``a``; zero-variance columns give 0."""
    dev = a - a.mean(axis=0)
    norm = np.sqrt((dev**2).sum(axis=0))
    ok = norm > 0
    dev[:, ok] /= norm[ok]
    dev[:, ~ok] = 0.0
    return np.abs(dev.T @ dev)


def hall_merit(x: np.ndarray, y: np.ndarray, subset: list[int]) -> float:
    """CFS merit k*r_cf / sqrt(k + k(k-1)*r_ff), two-class |r| as r_cf."""
    k = len(subset)
    r = _abs_corr(np.column_stack([x[:, subset], y]))
    r_cf = r[:k, k].mean()
    r_ff = (r[:k, :k].sum() - np.trace(r[:k, :k])) / (k * (k - 1)) if k > 1 else 0.0
    return k * r_cf / math.sqrt(k + k * (k - 1) * r_ff)


def ife_cf_kept(x: np.ndarray, y: np.ndarray, delta=0.05, tau_c=0.1, tau_f=0.9) -> list[int]:
    """The three-pass filter on two-class data, at the CLI's default thresholds."""
    mean = x.mean(axis=0)
    disp = np.abs(np.sqrt(((x - mean) ** 2).mean(axis=0)) / np.where(mean == 0, 1, mean))
    alive = [j for j in range(x.shape[1]) if mean[j] == 0 or disp[j] >= delta]
    cc = _abs_corr(np.column_stack([x, y]))[:-1, -1]
    order = sorted((j for j in alive if cc[j] >= tau_c), key=lambda j: (-cc[j], j))
    r = _abs_corr(x[:, order])
    kept: list[int] = []
    for p, j in enumerate(order):
        if all(r[order.index(q), p] <= tau_f for q in kept):
            kept.append(j)
    return sorted(kept)


def accuracy_digest(report: dict) -> str:
    """Digest of every accuracy field of a bench report (timings excluded)."""
    keys = ("fraction", "alpha", "variant", "accuracy", "paper_efficiency",
            "correct", "total", "selection")
    cells = [{k: r[k] for k in keys} for r in report["records"]]
    return _sha(json.dumps(cells, sort_keys=True).encode())


def _check_bench(out: Path, variants: list[str]) -> dict:
    """Shared bench checks; returns the digests the recorded values pin."""
    report = json.loads((out / "bench" / "report.json").read_text(encoding="utf-8"))
    for r in report["records"]:
        if not 0 <= r["correct"] <= r["total"]:
            raise CheckError(f"cell {r['fraction']}/{r['alpha']}/{r['variant']}: "
                             f"correct {r['correct']} > total {r['total']}")
    digests = {"accuracy": accuracy_digest(report)}
    for v in variants:
        text = (out / "bench" / f"{v}.csv").read_text(encoding="utf-8")
        want = [f"{r['accuracy']:.2f}" for r in report["records"] if r["variant"] == v]
        got = [c for row in list(csv.reader(text.splitlines()))[1:] for c in row[1:]]
        if got != want:
            raise CheckError(f"{v}.csv disagrees with report.json")
        digests[f"{v}.csv"] = _sha(text.encode())
    return digests


def check(name: str, data: Path, out: Path, stdouts: list[str],
          n_features: int) -> tuple[list[str | None], dict]:
    """Check one iteration's outputs.

    Returns one error message (or None) per op, and the digests of the
    iteration's deterministic outputs for comparison with the recorded ones
    and with the run's other iterations.
    """
    errors: list[str | None] = [None] * len(stdouts)
    digests: dict = {}

    def guard(i, fn):
        try:
            fn()
        except (CheckError, OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            errors[i] = f"{type(exc).__name__}: {exc}"

    if name in ("sweep", "tall"):
        guard(0, lambda: digests.update(_check_bench(out, ["original", "reduced"])))
        return errors, digests

    x, y = _load_xy(data)

    def stats():
        rows = [ln for ln in stdouts[0].splitlines()[2:] if ln.strip()]
        if len(rows) != n_features:
            raise CheckError(f"stats printed {len(rows)} rows for {n_features} features")

    def ifecf():
        kept = json.loads((out / "ifecf.json").read_text(encoding="utf-8"))["kept"]
        want = ife_cf_kept(x, y)
        if kept != want:
            raise CheckError(f"ifecf kept {kept}, numpy filter keeps {want}")
        digests["ifecf_kept"] = kept

    def cfs():
        kept = json.loads((out / "cfs.json").read_text(encoding="utf-8"))["kept"]
        line = next(ln for ln in stdouts[2].splitlines() if ln.startswith("best merit:"))
        printed = float(line.split(":")[1])
        ours = hall_merit(x, y, kept)
        if abs(printed - ours) > 1e-6:
            raise CheckError(f"printed best merit {printed}, Hall's formula gives {ours:.9f}")
        digests["cfs_kept"] = kept

    def relief():
        line = next(ln for ln in stdouts[3].splitlines() if ln.startswith("relief weights:"))
        w = [float(v) for v in line.split(":")[1].split()]
        if len(w) != n_features or any(abs(v) > 1 for v in w):
            raise CheckError("relief weights: wrong count or outside [-1, 1]")
        digests["relief_weights"] = _sha(line.encode())

    for i, fn in enumerate((stats, ifecf, cfs, relief)):
        guard(i, fn)
    return errors, digests
