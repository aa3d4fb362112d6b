import json
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from ifecf import lvq
from ifecf.data import split
from ifecf.lvq import (
    LVQConfig,
    LVQError,
    LVQModel,
    classify_batch,
    evaluate,
    init_codebook,
    train,
    train_cells,
)
from oracles import classify_batch_unblocked, lvq1_oracle


def two_gaussians(rng, m=100, sigma=0.1, sep=1.0):
    labels = rng.integers(0, 2, m)
    x = rng.normal(scale=sigma, size=(m, 2)) + sep * labels[:, None]
    return make_dataset(x, labels)


@st.composite
def lvq_models(draw):
    """Models with finite codebooks, valid class ids and distinct class names."""
    p, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    names = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False)
    codebook = np.array(draw(st.lists(values, min_size=p * n, max_size=p * n)))
    classes = draw(st.lists(st.integers(0, len(names) - 1), min_size=p, max_size=p))
    config = LVQConfig(alpha=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)),
                       epochs=draw(st.integers(1, 10**6)),
                       prototypes_per_class=draw(st.integers(1, 50)),
                       seed=draw(st.integers(0, 2**64)))
    return LVQModel(codebook.reshape(p, n), np.array(classes, dtype=np.int64), config,
                    draw(st.integers(0, 10**6)), tuple(names),
                    tuple(draw(st.lists(st.text(max_size=6), min_size=n, max_size=n))))


class TestInitCodebook:
    def test_class_means(self):
        d = make_dataset([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]], [0, 0, 1, 1])
        model = init_codebook(d, LVQConfig())
        assert model.codebook.tolist() == [[0.0, 0.0], [1.0, 1.0]]
        assert model.classes.tolist() == [0, 1]

    def test_too_few_instances(self):
        d = make_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(LVQError, match="needs >= 2"):
            init_codebook(d, LVQConfig(prototypes_per_class=2))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(0)
        d = two_gaussians(rng)
        cfg = LVQConfig(prototypes_per_class=3, seed=11)
        a = init_codebook(d, cfg)
        b = init_codebook(d, cfg)
        assert np.array_equal(a.codebook, b.codebook)


class TestTrain:
    def test_fixed_point(self):
        d = make_dataset([[0.0], [1.0]], [0, 1])
        model = init_codebook(d, LVQConfig(epochs=5))
        trained = train(model, d)
        assert np.allclose(trained.codebook, model.codebook)

    def test_attraction_step(self):
        model = LVQModel(np.array([[0.0]]), np.array([0]), LVQConfig(alpha=0.1, epochs=1))
        d = make_dataset([[1.0]], [0], class_names=("0", "1"))
        trained = train(model, d)
        assert trained.codebook[0, 0] == pytest.approx(0.1)

    def test_repulsion_step(self):
        model = LVQModel(np.array([[0.0]]), np.array([0]), LVQConfig(alpha=0.1, epochs=1))
        d = make_dataset([[1.0]], [1], class_names=("0", "1"))
        trained = train(model, d)
        assert trained.codebook[0, 0] == pytest.approx(-0.1)

    def test_contraction_factors_exact(self):
        # one update moves |x - w| by exactly (1-alpha) or (1+alpha)
        rng = np.random.default_rng(1)
        for alpha in (0.1, 0.3, 0.5):
            w = rng.normal(size=4)
            x = rng.normal(size=4)
            model = LVQModel(w.reshape(1, -1).copy(), np.array([0]),
                             LVQConfig(alpha=alpha, epochs=1))
            d_same = make_dataset(x.reshape(1, -1), [0], class_names=("0", "1"))
            after = train(model, d_same)
            assert np.linalg.norm(x - after.codebook[0]) == pytest.approx(
                (1 - alpha) * np.linalg.norm(x - w)
            )
            d_diff = make_dataset(x.reshape(1, -1), [1], class_names=("0", "1"))
            after = train(model, d_diff)
            assert np.linalg.norm(x - after.codebook[0]) == pytest.approx(
                (1 + alpha) * np.linalg.norm(x - w)
            )

    @pytest.mark.parametrize("ppc", [1, 3])
    @pytest.mark.parametrize("n", [4, 8, 20])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_trajectory_matches_oracle(self, k, n, ppc):
        rng = np.random.default_rng(100 * k + 10 * n + ppc)
        labels = np.repeat(np.arange(k), 8)
        x = rng.normal(size=(labels.size, n)) + labels[:, None] * rng.normal(size=n)
        d = make_dataset(x, labels)
        cfg = LVQConfig(alpha=0.3, epochs=3, prototypes_per_class=ppc, seed=k + n)
        model = init_codebook(d, cfg)
        trained = train(model, d)
        expected = lvq1_oracle(model.codebook.tolist(), model.classes.tolist(),
                               x.tolist(), labels.tolist(), cfg.alpha, cfg.epochs, cfg.seed)
        assert trained.codebook.tolist() == expected

    def test_arity_mismatch(self):
        rng = np.random.default_rng(3)
        d = two_gaussians(rng)
        model = init_codebook(d, LVQConfig())
        other = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(LVQError, match="N=2"):
            train(model, other)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        d = two_gaussians(rng)
        cfg = LVQConfig(seed=9)
        a = train(init_codebook(d, cfg), d)
        b = train(init_codebook(d, cfg), d)
        assert np.array_equal(a.codebook, b.codebook)


def lockstep_cell(seed, n, m, k=3, ppc=1, alpha=0.3, epochs=4, noise=False):
    """One independent training cell: (initial model, data)."""
    rng = np.random.default_rng(seed)
    labels = np.resize(np.arange(k), m)[rng.permutation(m)]
    x = rng.normal(size=(m, n))
    if not noise:
        x += rng.normal(size=(k, n))[labels]
    d = make_dataset(x, labels)
    cfg = LVQConfig(alpha=alpha, epochs=epochs, prototypes_per_class=ppc, seed=seed)
    return init_codebook(d, cfg), d


def tie_cell(n, tiny, m=12):
    """A cell whose first visit ties its two prototypes at squared distance 9
    under ``train``'s sum: prototype 0's distance also has two half-ulp
    squares, at columns ``tiny``, which a sum that adds them to each other
    first rounds up to 9 + ulp, handing the visit to prototype 1."""
    book = np.zeros((2, n))
    book[0, 0], book[0, list(tiny)], book[1, 0] = 3.0, 2.0**-25, -3.0
    data = make_dataset(np.zeros((m, n)), np.arange(m) % 2)
    return LVQModel(book, np.array([0, 1]), LVQConfig(alpha=0.25, epochs=4, seed=n)), data


def cell_groups(models):
    """Cell indices of each group that ``train_cells`` trains in one call:
    equal prototype count and epochs. Groups are ordered by their first
    cell."""
    groups = {}
    for i, model in enumerate(models):
        groups.setdefault((model.codebook.shape[0], model.config.epochs), []).append(i)
    return list(groups.values())


def assert_cells_match_train(cells):
    """Train each group of ``cell_groups`` with one ``train_cells`` call,
    compare every cell with its own ``train``, a call on that cell alone,
    and return the grouped results."""
    models, datas = (list(c) for c in zip(*cells))
    got = [None] * len(cells)
    for group in cell_groups(models):
        trained = train_cells([models[i] for i in group], [datas[i] for i in group])
        for i, out in zip(group, trained):
            got[i] = out
    for model, data, out in zip(models, datas, got):
        want = train(model, data)
        assert out.codebook.shape == want.codebook.shape
        assert out.codebook.tobytes() == want.codebook.tobytes()
        assert out.classes.tobytes() == want.classes.tobytes()
        assert (out.config, out.epochs_run) == (want.config, want.epochs_run)
        assert (out.class_names, out.feature_names) == (want.class_names, want.feature_names)
    return got


class TestTrainCells:
    def test_padded_widths_share_one_group(self):
        # widths 1-7 and row counts 9-200 in one zero-padded group
        cells = [lockstep_cell(10 + n, n, m, alpha=0.05 * n)
                 for n, m in zip(range(1, 8), (9, 200, 37, 120, 64, 150, 12))]
        assert cell_groups([model for model, _ in cells]) == [list(range(7))]
        # at widths 1-7 numpy's sum adds the squares left to right, as the oracle does
        for (model, data), out in zip(cells, assert_cells_match_train(cells)):
            cfg = model.config
            expected = lvq1_oracle(model.codebook.tolist(), model.classes.tolist(),
                                   data.features.tolist(), data.labels.tolist(),
                                   cfg.alpha, cfg.epochs, cfg.seed)
            assert out.codebook.tolist() == expected

    def test_widths_8_and_20_share_one_group(self):
        # the 8-wide cells sum the first 15 of the 20 padded columns
        cells = [lockstep_cell(20 + i, n, 40 + 17 * i) for i, n in enumerate((8, 20, 8, 20, 8, 20))]
        assert cell_groups([model for model, _ in cells]) == [list(range(6))]
        assert_cells_match_train(cells)

    def test_mixed_widths_1_to_135_share_one_group(self):
        # every summed width: below 128 columns one shared 8 * 15 + 7, and n
        # itself from 128 on
        widths = (1, 3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 100, 127, 128, 129, 135)
        cells = [lockstep_cell(70 + i, n, 12 + 7 * (i % 5), alpha=0.02 * (i + 1), epochs=2)
                 for i, n in enumerate(widths)]
        assert cell_groups([model for model, _ in cells]) == [list(range(len(widths)))]
        assert lvq.sum_widths(list(widths)) == [127] * 13 + [128, 129, 135]
        assert_cells_match_train(cells)

    def test_summed_widths_decide_near_ties(self):
        # summed over the group's 20 columns, the 5- and 13-wide cells would
        # give their first visit to the other prototype
        cells = [tie_cell(5, (2, 3)), tie_cell(13, (10, 11)), lockstep_cell(65, 20, 30, k=2)]
        assert_cells_match_train(cells)

    @pytest.mark.parametrize("ppc", [1, 3])
    def test_prototypes_per_class(self, ppc):
        cells = [lockstep_cell(30 + i, n, 60 + 10 * i, k=2, ppc=ppc, alpha=0.1 + 0.1 * i)
                 for i, n in enumerate((2, 5, 3, 6))]
        assert_cells_match_train(cells)

    def test_group_sizes_one_two_three_ten(self):
        # groups by (prototype count, epochs): (3, 2), (6, 4), (3, 3), (3, 4)
        cells = ([lockstep_cell(40, 20, 50, epochs=2)]
                 + [lockstep_cell(41 + i, 8, 30 + 5 * i, ppc=2) for i in range(2)]
                 + [lockstep_cell(43 + i, 9 + 4 * i, 45 - 7 * i, epochs=3) for i in range(3)]
                 + [lockstep_cell(46 + i, 1 + 3 * i, 20 + 9 * i, alpha=0.05 * (i + 1))
                    for i in range(10)])
        cells[5][0].epochs_run = 2  # a model trained before adds its epochs
        groups = cell_groups([model for model, _ in cells])
        assert [len(g) for g in groups] == [1, 2, 3, 10]
        assert_cells_match_train(cells)

    def test_diverging_cell_raises_trains_message(self):
        # pure-noise 5-class cells at N=20 diverge: alpha 0.1 after epoch 20,
        # alpha 0.3 after epoch 8; the first failing cell in order decides
        slow = lockstep_cell(50, 20, 2000, k=5, alpha=0.1, epochs=20, noise=True)
        fast = lockstep_cell(50, 20, 2000, k=5, alpha=0.3, epochs=20, noise=True)
        healthy = [lockstep_cell(51 + i, 20, 100, k=5, alpha=0.1, epochs=20) for i in range(2)]
        with np.errstate(all="ignore"):
            with pytest.raises(LVQError) as alone:
                train(*slow)
            for cells, epoch in (([healthy[0], slow, healthy[1], fast], 20),
                                 ([healthy[0], fast, healthy[1], slow], 8)):
                models, datas = (list(c) for c in zip(*cells))
                with pytest.raises(LVQError) as grouped:
                    train_cells(models, datas)
                assert str(grouped.value) == f"non-finite prototype after epoch {epoch}"
        assert str(alone.value) == "non-finite prototype after epoch 20"

    def test_stops_once_every_cell_failed(self, monkeypatch):
        # the alpha 0.3 noise cell fails after epoch 8 of 20 and draws no further order
        model, data = lockstep_cell(50, 20, 2000, k=5, alpha=0.3, epochs=20, noise=True)
        drawn = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def permutation(self, m):
                drawn.append(m)
                return self.rng.permutation(m)

        monkeypatch.setattr(np.random, "default_rng", Counting)
        with np.errstate(all="ignore"), pytest.raises(LVQError, match="after epoch 8$"):
            train(model, data)
        assert drawn == [2000] * 8

    def test_memory_within_lockstep_nbytes(self):
        # widths 20 to 3 in one group of 5 classes, in two row mixes, a lone
        # cell, and 8- and 3-wide cells that sum over 11 columns, wider than
        # the widest cell: lockstep_nbytes counts every array the call
        # allocates, so the peak exceeds it by less than 64 KiB, which covers
        # the epoch's permutation temporary, the trained codebooks and the
        # Python objects
        for widths, rows in (((20, 8, 20, 3), (2000, 2000, 2000, 2000)),
                             ((20, 8, 20, 3), (2000, 2000, 1500, 100)),
                             ((20,), (2000,)),
                             ((8, 3, 8, 3), (2000, 2000, 1500, 100))):
            cells = [lockstep_cell(90 + i, n, m, k=5, epochs=2)
                     for i, (n, m) in enumerate(zip(widths, rows))]
            models, datas = (list(c) for c in zip(*cells))
            bound = lvq.lockstep_nbytes(models, datas)
            tracemalloc.start()
            try:
                trained = train_cells(models, datas)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0 < peak - bound < 64 << 10, rows
            assert all(out.codebook.flags.c_contiguous for out in trained)
        assert lvq.sum_widths([8, 3, 8, 3]) == [11] * 4

    def test_one_cell_streams_its_own_rows(self):
        # a lone cell is trained from its own rows: no copy of them, and no
        # per-epoch gather of all its visits
        model, data = lockstep_cell(95, 20, 20000, k=5, epochs=2)
        tracemalloc.start()
        try:
            train(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.features.nbytes

    def test_rejects_cells_of_different_groups(self):
        for odd in (dict(epochs=5), dict(ppc=2)):  # epochs or prototype count differ
            cells = [lockstep_cell(62, 8, 20), lockstep_cell(63, 8, 20, **odd),
                     lockstep_cell(64, 8, 20)]
            models, datas = (list(c) for c in zip(*cells))
            with pytest.raises(LVQError, match="one group"):
                train_cells(models, datas)

    def test_arity_mismatch(self):
        model, data = lockstep_cell(60, 3, 20)
        other = lockstep_cell(61, 4, 20)[1]
        with pytest.raises(LVQError, match="N=3"):
            train_cells([model] * 3, [data, other, data])


def window_log(monkeypatch) -> list:
    """(visits decided, visits offered) of each window a lone cell trains."""
    log, window = [], lvq._window

    def recording(book, xs, signs, n, tail, scratch):
        out = window(book, xs, signs, n, tail, scratch)
        log.append((out[0], n))
        return out

    monkeypatch.setattr(lvq, "_window", recording)
    return log


def assert_lone_matches(model, data, oracle=True):
    """``train`` on the cell alone, in windows, gives the bytes of the
    lockstep kernel on it and a copy of it, and of ``lvq1_oracle``."""
    lone = train(model, data).codebook
    for out in train_cells([model, model], [data, data]):
        assert out.codebook.tobytes() == lone.tobytes()
    if oracle:
        cfg = model.config
        expected = lvq1_oracle(model.codebook.tolist(), model.classes.tolist(),
                               data.features.tolist(), data.labels.tolist(),
                               cfg.alpha, cfg.epochs, cfg.seed)
        assert lone.tolist() == expected
    return lone


def pima_like_cell(seed, alpha, m=400, epochs=10):
    """Two overlapping classes of non-negative rows (N 8), 35% in class 1."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(m) < 0.35).astype(np.int64)
    data = make_dataset(np.abs(rng.normal(size=(m, 8)) + 0.6 * labels[:, None]), labels)
    return init_codebook(data, LVQConfig(alpha=alpha, epochs=epochs, seed=3)), data


class TestLoneWindows:
    @pytest.mark.parametrize("n", [1, 7, 8, 20, 127, 128, 135])
    @pytest.mark.parametrize("alpha, ppc, k", [(0.05, 1, 2), (0.3, 2, 3), (0.5, 3, 5),
                                               (0.9, 1, 4)])
    def test_matches_oracle_and_lockstep(self, monkeypatch, n, alpha, ppc, k):
        log = window_log(monkeypatch)
        model, data = lockstep_cell(7 * n + k, n, 60, k=k, ppc=ppc, alpha=alpha, epochs=3)
        assert_lone_matches(model, data)
        assert log

    @pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 65, 100, 2000])
    def test_windows_end_at_epoch_end(self, monkeypatch, m):
        # a window never crosses an epoch end: the last ones offer fewer
        # visits than CHUNK_VISITS when M is not a multiple of it
        log = window_log(monkeypatch)
        labels = np.arange(m) % 3
        x = 5.0 * np.eye(3)[labels] + np.random.default_rng(m).normal(scale=0.3, size=(m, 3))
        data = make_dataset(x, labels, class_names=("a", "b", "c"))
        model = init_codebook(data, LVQConfig(alpha=0.2, epochs=3, seed=m))
        assert_lone_matches(model, data)
        assert all(1 <= kept <= offered <= min(m, lvq.WINDOW_VISITS) for kept, offered in log)
        if m % lvq.WINDOW_VISITS:
            assert any(offered < lvq.WINDOW_VISITS for _, offered in log)

    def test_near_ties(self):
        # the lone sums give the bits of train's, next to a 20-wide cell too
        for cell in (tie_cell(5, (2, 3)), tie_cell(13, (10, 11)), tie_cell(20, (16, 17))):
            lone = assert_lone_matches(*cell, oracle=False)
            wide = lockstep_cell(65, 20, 30, k=2)
            out = train_cells([cell[0], wide[0]], [cell[1], wide[1]])[0]
            assert out.codebook.tobytes() == lone.tobytes()

    def test_negative_zero_survives(self, monkeypatch):
        # prototype 2 never wins: every bit of its -0.0 stays, as in lockstep
        log = window_log(monkeypatch)
        rng = np.random.default_rng(5)
        labels = np.arange(200) % 2
        x = rng.normal(size=(200, 3)) + 10.0 * (2 * labels[:, None] - 1)
        book = np.array([[10.0, 10.0, 10.0], [-10.0, -10.0, -10.0], [-0.0, 0.0, -0.0]])
        model = LVQModel(book, np.array([1, 0, 1]), LVQConfig(alpha=0.3, epochs=3, seed=2))
        lone = assert_lone_matches(model, make_dataset(x, labels))
        assert np.signbit(lone[2]).tolist() == [True, False, True]
        assert log

    def test_keep_all_and_first_miss(self, monkeypatch):
        # a tall-like cell (5 classes, N 20) at alpha 0.1 keeps whole windows;
        # a pima-like cell at alpha 0.5 stops at first misses
        log = window_log(monkeypatch)
        assert_lone_matches(*lockstep_cell(1, 20, 2000, k=5, alpha=0.1, epochs=5), oracle=False)
        assert sum(kept == offered == lvq.WINDOW_VISITS for kept, offered in log) > 50
        log.clear()
        assert_lone_matches(*pima_like_cell(2, alpha=0.5), oracle=False)
        assert any(kept < offered for kept, offered in log)

    def test_losing_windows_fall_back_to_steps(self, monkeypatch):
        # this pima-like cell at alpha 0.1 decides few visits per window, so
        # after a few windows it takes sequential steps
        log = window_log(monkeypatch)
        model, data = pima_like_cell(1, alpha=0.1)
        assert_lone_matches(model, data, oracle=False)
        assert 0 < sum(kept for kept, _ in log) < data.n_instances * model.config.epochs // 10

    def test_speculation_past_a_miss_does_not_warn(self, monkeypatch):
        # rows of class 1 at -2**500, prototype 0 (class 0) at 0 and
        # prototype 1 (class 1) at 10 * 2**500: sequentially prototype 0 is
        # pushed off four times, then prototype 1 wins and is pulled in, and
        # nothing overflows. The first window guesses prototype 0 for every
        # visit, and its replay pushes it off 1.9x per visit until its
        # squared distances overflow, past the first miss at visit 4: that
        # work is discarded and must not warn (pyproject turns
        # RuntimeWarnings into errors)
        log = window_log(monkeypatch)
        scale = 2.0**500
        x = scale * (np.random.default_rng(4).normal(scale=0.01, size=(100, 1)) - 1.0)
        data = make_dataset(x, np.ones(100, dtype=np.int64), class_names=("0", "1"))
        book = np.array([[0.0], [10.0 * scale]])
        model = LVQModel(book, np.array([0, 1]), LVQConfig(alpha=0.9, epochs=2, seed=1))
        lone = assert_lone_matches(model, data, oracle=False)
        assert log[0] == (5, lvq.WINDOW_VISITS)
        assert np.isfinite(lone).all()


def test_lone_cells_train_apart_in_threads():
    # four threads, each training a different lone cell, tall-like and
    # pima-like at alpha 0.1 and 0.5, get the bytes of a single thread: each
    # call's window views and buffers are its own. A short switch interval
    # interleaves the threads between numpy calls
    cells = [lockstep_cell(1, 20, 2000, k=5, alpha=0.1, epochs=3),
             lockstep_cell(2, 20, 2000, k=5, alpha=0.5, epochs=3),
             pima_like_cell(1, alpha=0.1), pima_like_cell(2, alpha=0.5)]
    want = [train(*cell).codebook.tobytes() for cell in cells]
    start, got = threading.Barrier(len(cells), timeout=60), []

    def run(i):
        start.wait()
        got.append((i, train(*cells[i]).codebook.tobytes()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cells))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == 3 * len(cells)
    assert all(out == want[i] for i, out in got)


class TestSumWidth:
    def test_padded_sums_keep_the_bits(self):
        # the rule train_cells sums by, on the installed numpy: a row of n
        # squares placed beside a cell of 8 * blocks + 7 columns, zero-padded
        # to that width and summed over it, gives the bits of train's sum of
        # the n squares, as a view of a wider buffer and as a dense array;
        # a lone cell is placed as it is
        rng = np.random.default_rng(80)
        for n in range(1, 128):
            assert lvq.sum_widths([n]) == [n]
            assert lvq.placement(n, n).tolist() == list(range(n))
            sq = (10.0 ** rng.uniform(-4, 4, (12, n))) ** 2  # squares from 1e-8 to 1e8
            want = np.add.reduce(sq, axis=1).tobytes()
            for blocks in range(n // 8, 16):
                width = 8 * blocks + 7
                assert lvq.sum_widths([n, width]) == [width, width]
                placed = np.zeros((3, 4, width + 1))
                placed[..., lvq.placement(n, width)] = sq.reshape(3, 4, n)
                view = placed[..., :width]
                assert np.add.reduce(view, axis=2).tobytes() == want, (n, blocks)
                dense = np.ascontiguousarray(view)
                assert np.add.reduce(dense, axis=2).tobytes() == want, (n, blocks)

    @pytest.mark.parametrize("n, wider", [(5, 8), (13, 16), (100, 104), (130, 144)])
    def test_summing_across_a_block_changes_bits(self, n, wider):
        # zero columns past the leftover ones in a new block (or past n from
        # 128 on) regroup the sum
        rng = np.random.default_rng(n)
        x = rng.random((400, n)) * 10.0 ** rng.integers(-3, 4, (400, n))
        padded = np.zeros((400, wider))
        padded[:, :n] = x
        assert not np.array_equal(np.add.reduce(padded, axis=1), np.add.reduce(x, axis=1))


class TestClassify:
    def _model(self):
        return LVQModel(
            np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]), LVQConfig()
        )

    def test_on_prototype(self):
        assert classify_batch(self._model(), np.array([[1.0, 1.0]])).tolist() == [1]

    def test_tie_breaks_to_lower_index(self):
        assert classify_batch(self._model(), np.array([[0.5, 0.5]])).tolist() == [0]

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        model = self._model()
        x = rng.normal(size=(1, 2))
        shift = rng.normal(size=2)
        shifted = LVQModel(model.codebook + shift, model.classes, model.config)
        assert classify_batch(model, x).tolist() == classify_batch(shifted, x + shift).tolist()

    def test_rejects_wrong_length(self):
        with pytest.raises(LVQError, match="feature arity mismatch"):
            classify_batch(self._model(), np.array([[1.0, 1.0, 1.0]]))

    def test_separable_gaussians_accuracy(self):
        good = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = two_gaussians(rng, m=120, sigma=0.1, sep=1.0)
            tr, te = map(d.take, split(d, 0.7, seed=seed))
            cfg = LVQConfig(alpha=0.1, epochs=10, seed=seed)
            model = train(init_codebook(tr, cfg), tr)
            if evaluate(model, te) / te.n_instances >= 0.95:
                good += 1
        assert good >= 95


class TestEvaluate:
    def test_memorized_single_instance(self):
        model = LVQModel(np.array([[2.0]]), np.array([0]), LVQConfig())
        d = make_dataset([[2.0]], [0], class_names=("0", "1"))
        assert evaluate(model, d) == 1

    def test_constant_prediction_balanced(self):
        model = LVQModel(np.array([[0.0]]), np.array([0]), LVQConfig())
        d = make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
        assert evaluate(model, d) == 2
        # two prototypes: three rows right, one class-1 row nearer class 0
        model = LVQModel(np.array([[0.0], [10.0]]), np.array([0, 1]), LVQConfig())
        d = make_dataset([[0.0], [0.1], [10.0], [0.2]], [0, 0, 1, 1])
        assert evaluate(model, d) == 3

    def test_feature_subset_consistency(self):
        # training on a projected dataset == removing dims from distances
        rng = np.random.default_rng(6)
        d = two_gaussians(rng, m=40)
        noise = rng.normal(size=(40, 1))
        wide = make_dataset(np.hstack([d.features, noise]), d.labels)
        cfg = LVQConfig(epochs=5, seed=7)
        projected = wide.project([0, 1])
        m1 = train(init_codebook(projected, cfg), projected)
        m2 = train(init_codebook(d, cfg), d)
        assert np.allclose(m1.codebook, m2.codebook)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        d = two_gaussians(rng)
        cfg = LVQConfig(alpha=0.2, epochs=3, seed=1)
        model = train(init_codebook(d, cfg), d)
        p = tmp_path / "model.json"
        model.save(p)
        loaded = LVQModel.load(p)
        assert np.array_equal(loaded.codebook, model.codebook)
        assert loaded.config == model.config
        assert loaded.class_names == d.class_names == model.class_names
        x = rng.normal(size=(1, 2))
        assert classify_batch(loaded, x).tolist() == classify_batch(model, x).tolist()

    @settings(max_examples=100, deadline=None)
    @given(model=lvq_models())
    def test_load_returns_what_save_wrote(self, tmp_path_factory, model):
        p = tmp_path_factory.mktemp("model") / "model.json"
        model.save(p)
        loaded = LVQModel.load(p)
        assert loaded.codebook.dtype == model.codebook.dtype
        assert loaded.codebook.shape == model.codebook.shape
        assert loaded.codebook.tobytes() == model.codebook.tobytes()
        assert loaded.classes.dtype == np.int64
        assert loaded.classes.tolist() == model.classes.tolist()
        assert loaded.config == model.config
        assert loaded.epochs_run == model.epochs_run
        assert loaded.class_names == model.class_names
        assert loaded.feature_names == model.feature_names

    def _saved_doc(self):
        model = LVQModel(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]),
                         LVQConfig(), class_names=("neg", "pos"), feature_names=("a", "b"))
        return model.to_dict()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("class_names", None, "lacks 'class_names'"),  # a model saved before names
            ("codebook", None, "lacks 'codebook'"),
            ("classes", [0], "classes must be 2"),
            ("classes", [0.0, 1.0], "classes must be 2"),
            ("codebook", [[0.0, 1.0], [2.0]], "malformed"),
            ("codebook", [[0.0, 1.0], ["a", "b"]], "codebook"),
            ("codebook", [[0.0, 1.0], [float("nan"), 1.0]], "non-finite"),
            ("codebook", [[0.0, float("inf")], [1.0, 1.0]], "non-finite"),
            ("classes", [0, 2], "outside class_names"),
            ("classes", [-1, 1], "outside class_names"),
            ("class_names", ["a", "a"], "distinct strings"),
            ("config", {"alpha": 2.0}, "malformed"),
            ("config", {"rate": 0.1}, "malformed"),
            ("config", {"epochs": 2.5}, "epochs must be an integer"),
            ("config", {"seed": "x"}, "seed must be an integer"),
            ("config", {"prototypes_per_class": True}, "prototypes_per_class must be an integer"),
            ("epochs_run", "abc", "epochs_run must be a non-negative integer"),
            ("epochs_run", -1, "epochs_run must be a non-negative integer"),
            ("epochs_run", 2.0, "epochs_run must be a non-negative integer"),
            ("feature_names", None, "lacks 'feature_names'"),  # a model saved before names
            ("feature_names", ["a"], "feature_names must be 2 strings"),
            ("feature_names", ["a", 1], "feature_names must be 2 strings"),
            ("config", {"seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_load_rejects_malformed(self, tmp_path, key, value, message):
        doc = self._saved_doc()
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        p = tmp_path / "model.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(LVQError, match=message):
            LVQModel.load(p)

    def test_loads_what_it_saves(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps(self._saved_doc()))
        loaded = LVQModel.load(p)
        assert loaded.feature_names == ("a", "b") and loaded.epochs_run == 0

    def test_columns_by_name(self):
        model = LVQModel(np.zeros((1, 3)), np.array([0]), LVQConfig(),
                         feature_names=("b", "x", "b"))
        assert model.columns(("x", "b", "c", "b")) == [1, 0, 3]
        with pytest.raises(LVQError, match="no feature column 'x'"):
            model.columns(("b", "b"))
        with pytest.raises(LVQError, match="no feature column 'b'"):
            model.columns(("b", "x"))

    @pytest.mark.parametrize("text", ["{not json", "[]", "null"])
    def test_load_rejects_non_model_json(self, tmp_path, text):
        p = tmp_path / "model.json"
        p.write_text(text)
        with pytest.raises(LVQError, match="malformed"):
            LVQModel.load(p)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(9)
        d = two_gaussians(rng, m=30)
        cfg = LVQConfig(epochs=2)
        model = train(init_codebook(d, cfg), d)
        batch = classify_batch(model, d.features)
        rows = [classify_batch(model, row[None]) for row in d.features]
        assert batch.tolist() == np.concatenate(rows).tolist()


class TestClassifyBatchBlocks:
    def test_matches_unblocked_formula(self):
        rng = np.random.default_rng(21)
        codebook = rng.normal(size=(4, 7)) + 10.0
        classes = np.array([2, 0, 1, 0])
        model = LVQModel(codebook, classes, LVQConfig())
        step = lvq.BLOCK_CELLS // codebook.size
        x = rng.normal(size=(3 * step + 11, 7)) + 10.0
        # rows at squared distance exactly 1 from prototypes 1 and 2 (all
        # values dyadic), at and around block edges
        codebook[1] = 0.25 * np.arange(7)
        codebook[2] = codebook[1]
        codebook[2, 0] += 2.0
        tie = codebook[1].copy()
        tie[0] += 1.0
        for i in (0, step - 1, step, 2 * step + 5, x.shape[0] - 1):
            x[i] = tie
        out = classify_batch(model, x)
        assert out.dtype == classes.dtype and out.shape == (x.shape[0],)
        assert np.array_equal(out, classify_batch_unblocked(codebook, classes, x))
        assert out[step] == classes[1]  # the tie goes to the lower index

    def test_empty_input(self):
        model = LVQModel(np.zeros((2, 3)), np.array([0, 1]), LVQConfig())
        assert classify_batch(model, np.zeros((0, 3))).shape == (0,)


def exact_rows(monkeypatch) -> list:
    """The row indices that classify_batch hands to its exact step, one
    array per call, recorded by wrapping the step."""
    seen = []
    original = lvq._exact

    def recording(book, features, rows):
        seen.append(rows.copy())
        return original(book, features, rows)

    monkeypatch.setattr(lvq, "_exact", recording)
    return seen


def assert_matches_oracle(codebook, x, classes=None):
    """classify_batch on prototypes ``codebook`` (prototype p of class
    ``classes[p]``, default p) equals the whole-array formula, bit for bit."""
    codebook = np.asarray(codebook, dtype=np.float64)
    classes = np.arange(codebook.shape[0]) if classes is None else np.asarray(classes)
    out = classify_batch(LVQModel(codebook, classes, LVQConfig()), x)
    want = classify_batch_unblocked(codebook, classes, x)
    assert out.dtype == classes.dtype and out.shape == (x.shape[0],)
    assert np.array_equal(out, want)
    return out


def one_ulp_rows(rng, a, b, count):
    """Rows near the bisector of prototypes a and b whose exact squared
    distances to the two are one ulp apart, both ways round."""
    mid = (a + b) / 2
    x = mid + rng.normal(size=(200000, a.size)) * 1e-15 * np.abs(mid).max()
    s = ((x[:, None, :] - np.stack([a, b])) ** 2).sum(axis=2)
    near = np.nextafter(s.min(axis=1), np.inf) == s.max(axis=1)
    first = np.flatnonzero(near & (s[:, 0] < s[:, 1]))[:count]
    second = np.flatnonzero(near & (s[:, 1] < s[:, 0]))[:count]
    assert first.size == second.size == count
    return x[np.concatenate([first, second])]


class TestClassifyBatchBound:
    def test_duplicate_prototypes(self, monkeypatch):
        rng = np.random.default_rng(31)
        codebook = rng.normal(size=(5, 6))
        codebook[3] = codebook[0]
        codebook[4] = codebook[1]
        x = np.vstack([rng.normal(size=(400, 6)), codebook])
        seen = exact_rows(monkeypatch)
        out = assert_matches_oracle(codebook, x)
        assert not np.isin(out, [3, 4]).any()  # an equal S goes to the lower index
        # a row nearest a duplicated prototype ties in S, so the exact step takes it
        assert np.isin(np.flatnonzero(np.isin(out, [0, 1])), np.concatenate(seen)).all()

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_dyadic_bisector_rows_at_block_edges(self, monkeypatch, p):
        rng = np.random.default_rng(32)
        step = lvq.BLOCK_CELLS // p
        codebook = rng.integers(-8, 9, size=(p, 5)) * 0.25 + 8.0
        codebook[1] = codebook[0]
        codebook[1, 2] += 2.0
        tie = codebook[0].copy()
        tie[2] += 1.0  # squared distance exactly 1 from prototypes 0 and 1
        x = rng.integers(-8, 9, size=(2 * step + 7, 5)) * 0.25 + 8.0
        edges = [0, step - 1, step, step + 1, 2 * step - 1, 2 * step, x.shape[0] - 1]
        x[edges] = tie
        classes = np.roll(np.arange(p), 1)  # prototype 0 is class p - 1
        seen = exact_rows(monkeypatch)
        out = assert_matches_oracle(codebook, x, classes)
        assert (out[edges] == p - 1).all()
        assert np.isin(edges, np.concatenate(seen)).all()

    def test_near_tie_one_ulp_goes_to_exact_step(self, monkeypatch):
        rng = np.random.default_rng(33)
        codebook = rng.normal(size=(3, 4))
        near = one_ulp_rows(rng, codebook[0], codebook[1], 20)
        far = codebook[2] + 0.01 * rng.normal(size=(30, 4))  # well inside prototype 2's cell
        x = np.vstack([far, near])
        seen = exact_rows(monkeypatch)
        out = assert_matches_oracle(codebook, x)
        assert out[30:].tolist() == [0] * 20 + [1] * 20
        sent = np.concatenate(seen)
        assert np.isin(np.arange(30, 70), sent).all()
        assert not np.isin(np.arange(30), sent).any()  # the bound decides these

    @pytest.mark.parametrize("n", range(1, 41))
    def test_small_shapes(self, n):
        rng = np.random.default_rng(100 + n)
        for p in (1, 2, 5):
            codebook = rng.normal(size=(p, n))
            for m in (1, 2, 33):
                assert_matches_oracle(codebook, rng.normal(size=(m, n)))
            # half-integer values: many exact ties
            grid = rng.integers(-2, 3, size=(p, n)) * 0.5
            assert_matches_oracle(grid, rng.integers(-2, 3, size=(40, n)) * 0.5)

    def test_non_contiguous_column_view(self):
        rng = np.random.default_rng(34)
        base = rng.normal(size=(500, 11))
        codebook = rng.normal(size=(4, 5))
        for x in (base[:, 1::2], base[::3, :5], np.asfortranarray(base[:, [3, 0, 2, 1, 9]])):
            assert not x.flags.c_contiguous
            assert_matches_oracle(codebook, x)

    def test_huge_column_every_row_exact(self, monkeypatch):
        # a column at 2**1000 in every row and prototype: the bound overflows, the
        # distances do not, and every row goes to the exact step
        rng = np.random.default_rng(35)
        codebook = rng.normal(size=(3, 4))
        x = rng.normal(size=(300, 4))
        codebook[:, 2] = x[:, 2] = 2.0**1000
        seen = exact_rows(monkeypatch)
        out = assert_matches_oracle(codebook, x)
        assert np.array_equal(np.concatenate(seen), np.arange(300))
        assert np.unique(out).size == 3
        # where the column differs, the squares overflow to inf in both
        x[::3, 2] = 0.0
        with np.errstate(over="ignore"):
            assert_matches_oracle(codebook, x)

    def test_rows_whose_every_distance_overflows(self):
        # values at +-2**1020 and 3*2**1018: a row far from every prototype has
        # every S overflow; scaled by a power of two, its S are exact, so it takes
        # the prototype of least exact distance (the lowest of a tie), and nothing warns
        codebook = np.array([[0.0, 0.0], [2.0**1019, 0.0], [-2.0**1019, 3 * 2.0**1018]])
        v = (2.0**1020, -(2.0**1020), 3 * 2.0**1018, -3 * 2.0**1018, 0.0)
        x = np.array([(a, b) for a in v for b in v])
        with np.errstate(over="ignore"):
            overflows = np.isinf(((x[:, None, :] - codebook) ** 2).sum(axis=2).min(axis=1))
        assert overflows.sum() >= 10

        def nearest(row):
            s = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(row, w)) for w in codebook]
            return s.index(min(s))

        out = classify_batch(LVQModel(codebook, np.arange(3), LVQConfig()), x)
        assert out.tolist() == [nearest(row) for row in x]
        assert out[0] == 1  # (2**1020, 0): every S overflows, and argmin alone gives 0
        assert set(out[overflows].tolist()) == {0, 1, 2}

    @pytest.mark.parametrize("scale", [2.0**-530, 2.0**-1060])
    def test_subnormal_values(self, scale):
        # at 2**-530 the squares are subnormal, and the scores round to a few
        # bits near the bisector; at 2**-1060 they are 0
        rng = np.random.default_rng(36)
        codebook = rng.normal(size=(4, 3)) * scale
        mid = (codebook[0] + codebook[1]) / 2
        x = np.vstack([rng.normal(size=(300, 3)) * scale, codebook,
                       mid + rng.normal(size=(300, 3)) * 1e-5 * scale])
        assert_matches_oracle(codebook, x)

    def test_nan_and_inf_rows(self):
        codebook = np.array([[0.0, 0.0], [1.0, 1.0]])
        x = np.array([[0.9, 0.9], [np.nan, 0.0], [np.inf, 0.0], [0.1, 0.0]])
        assert_matches_oracle(codebook, x)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_dyadic_grid(self, data):
        p, n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6)), data.draw(st.integers(1, 20))
        values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 3.0])

        def grid(rows):
            return np.array(data.draw(st.lists(values, min_size=rows * n, max_size=rows * n)))

        assert_matches_oracle(grid(p).reshape(p, n), grid(m).reshape(m, n))
