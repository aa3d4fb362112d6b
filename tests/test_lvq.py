import json

import numpy as np
import pytest

from conftest import make_dataset
from ifecf import lvq
from ifecf.data import SplitSpec, split
from ifecf.lvq import (
    LVQConfig,
    LVQError,
    LVQModel,
    classify,
    classify_batch,
    evaluate,
    init_codebook,
    train,
)
from oracles import classify_batch_unblocked, lvq1_oracle


def two_gaussians(rng, m=100, sigma=0.1, sep=1.0):
    labels = rng.integers(0, 2, m)
    x = rng.normal(scale=sigma, size=(m, 2)) + sep * labels[:, None]
    return make_dataset(x, labels)


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
        trained = train(model, d, LVQConfig(alpha=0.1, epochs=1))
        assert trained.codebook[0, 0] == pytest.approx(0.1)

    def test_repulsion_step(self):
        model = LVQModel(np.array([[0.0]]), np.array([0]), LVQConfig(alpha=0.1, epochs=1))
        d = make_dataset([[1.0]], [1], class_names=("0", "1"))
        trained = train(model, d, LVQConfig(alpha=0.1, epochs=1))
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
            after = train(model, d_same, LVQConfig(alpha=alpha, epochs=1))
            assert np.linalg.norm(x - after.codebook[0]) == pytest.approx(
                (1 - alpha) * np.linalg.norm(x - w)
            )
            d_diff = make_dataset(x.reshape(1, -1), [1], class_names=("0", "1"))
            after = train(model, d_diff, LVQConfig(alpha=alpha, epochs=1))
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
        trained = train(model, d, cfg)
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
        a = train(init_codebook(d, cfg), d, cfg)
        b = train(init_codebook(d, cfg), d, cfg)
        assert np.array_equal(a.codebook, b.codebook)


class TestClassify:
    def _model(self):
        return LVQModel(
            np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]), LVQConfig()
        )

    def test_on_prototype(self):
        assert classify(self._model(), [1.0, 1.0]) == 1

    def test_tie_breaks_to_lower_index(self):
        assert classify(self._model(), [0.5, 0.5]) == 0

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        model = self._model()
        x = rng.normal(size=2)
        shift = rng.normal(size=2)
        shifted = LVQModel(model.codebook + shift, model.classes, model.config)
        assert classify(model, x) == classify(shifted, x + shift)

    def test_rejects_nonfinite(self):
        with pytest.raises(LVQError, match="non-finite"):
            classify(self._model(), [np.nan, 0.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(LVQError, match="length 2"):
            classify(self._model(), [1.0, 1.0, 1.0])

    def test_separable_gaussians_accuracy(self):
        good = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = two_gaussians(rng, m=120, sigma=0.1, sep=1.0)
            tr, te = split(d, SplitSpec(0.7, seed=seed))
            cfg = LVQConfig(alpha=0.1, epochs=10, seed=seed)
            model = train(init_codebook(tr, cfg), tr, cfg)
            if evaluate(model, te).accuracy >= 0.95:
                good += 1
        assert good >= 95


class TestEvaluate:
    def test_memorized_single_instance(self):
        model = LVQModel(np.array([[2.0]]), np.array([0]), LVQConfig())
        d = make_dataset([[2.0]], [0], class_names=("0", "1"))
        assert evaluate(model, d).accuracy == 1.0

    def test_constant_prediction_balanced(self):
        model = LVQModel(np.array([[0.0]]), np.array([0]), LVQConfig())
        d = make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
        assert evaluate(model, d).accuracy == 0.5

    def test_confusion_counts(self):
        model = LVQModel(np.array([[0.0], [10.0]]), np.array([0, 1]), LVQConfig())
        d = make_dataset([[0.0], [0.1], [10.0], [0.2]], [0, 0, 1, 1])
        res = evaluate(model, d)
        assert res.confusion[0, 0] == 2
        assert res.confusion[1, 1] == 1
        assert res.confusion[1, 0] == 1

    def test_feature_subset_consistency(self):
        # training on a projected dataset == removing dims from distances
        rng = np.random.default_rng(6)
        d = two_gaussians(rng, m=40)
        noise = rng.normal(size=(40, 1))
        wide = make_dataset(np.hstack([d.features, noise]), d.labels)
        cfg = LVQConfig(epochs=5, seed=7)
        projected = wide.project([0, 1])
        m1 = train(init_codebook(projected, cfg), projected, cfg)
        m2 = train(init_codebook(d, cfg), d, cfg)
        assert np.allclose(m1.codebook, m2.codebook)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        d = two_gaussians(rng)
        cfg = LVQConfig(alpha=0.2, epochs=3, seed=1)
        model = train(init_codebook(d, cfg), d, cfg)
        p = tmp_path / "model.json"
        model.save(p)
        loaded = LVQModel.load(p)
        assert np.array_equal(loaded.codebook, model.codebook)
        assert loaded.config == model.config
        assert loaded.class_names == d.class_names == model.class_names
        x = rng.normal(size=2)
        assert classify(loaded, x) == classify(model, x)

    def _saved_doc(self):
        model = LVQModel(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]),
                         LVQConfig(), class_names=("neg", "pos"))
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
        model = train(init_codebook(d, cfg), d, cfg)
        batch = classify_batch(model, d.features)
        scalar = [classify(model, row) for row in d.features]
        assert batch.tolist() == scalar


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
