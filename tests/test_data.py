import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from ifecf import data
from ifecf.data import (
    DataError,
    Dataset,
    NormalizationParams,
    SplitSpec,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    split,
    write_csv,
)


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = _write(tmp_path, "a,b,cls\n1,2,x\n3,4,y\n")
        d = load_csv(p)
        assert d.n_instances == 2 and d.n_features == 2
        assert d.feature_names == ("a", "b")
        assert d.class_names == ("x", "y")
        assert d.labels.tolist() == [0, 1]

    def test_class_column_by_name_and_index(self, tmp_path):
        p = _write(tmp_path, "cls,a\nx,1\ny,2\n")
        for sel in ("cls", 0):
            d = load_csv(p, class_column=sel)
            assert d.feature_names == ("a",)

    def test_first_appearance_label_order(self, tmp_path):
        p = _write(tmp_path, "a,cls\n1,zebra\n2,ant\n3,zebra\n")
        d = load_csv(p)
        assert d.class_names == ("zebra", "ant")
        assert d.labels.tolist() == [0, 1, 0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_ragged_rows(self, tmp_path):
        p = _write(tmp_path, "a,b,cls\n1,2,x\n3,y\n")
        with pytest.raises(DataError, match="expected 3 cells"):
            load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = _write(tmp_path, "a,cls\noops,x\n2,y\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_csv(p)

    def test_single_class(self, tmp_path):
        p = _write(tmp_path, "a,cls\n1,a\n2,a\n")
        with pytest.raises(DataError, match="single-class"):
            load_csv(p)

    def test_space_delimited(self, tmp_path):
        p = _write(tmp_path, "a b cls\n1 2 x\n3 4 y\n")
        d = load_csv(p, delimiter=" ")
        assert d.n_features == 2

    def test_pima_shape(self, pima_csv):
        d = load_csv(pima_csv)
        assert d.n_instances == 768
        assert d.n_features == 8
        assert d.class_count == 2

    def test_lung_cancer_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        d = make_dataset(rng.normal(size=(73, 325)), rng.integers(0, 3, 73))
        p = tmp_path / "lung.csv"
        write_csv(d, p)
        loaded = load_csv(p)
        assert loaded.n_instances == 73
        assert loaded.n_features == 325
        assert loaded.class_count == 3

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        d = make_dataset(rng.normal(size=(20, 4)), rng.integers(0, 2, 20))
        p = tmp_path / "rt.csv"
        write_csv(d, p)
        loaded = load_csv(p)
        assert np.array_equal(loaded.features, d.features)
        assert np.array_equal(loaded.labels, d.labels)


def _block_rows(arity):
    return data.BLOCK_CELLS // arity


class TestLoadCsvLineNumbers:
    def test_blank_line_before_bad_row(self, tmp_path):
        p = _write(tmp_path, "a,b,cls\n1,2,x\n\n3,4,y\n5,oops,x\n")
        with pytest.raises(DataError, match=r"d\.csv:5: non-numeric value 'oops' in column 'b'"):
            load_csv(p)

    def test_blank_line_before_ragged_row(self, tmp_path):
        p = _write(tmp_path, "a,b,cls\n\n1,2,x\n\n\n3,y\n")
        with pytest.raises(DataError, match=r"d\.csv:6: expected 3 cells, got 2"):
            load_csv(p)

    def test_space_format_counts_blank_lines(self, tmp_path):
        p = _write(tmp_path, "a b cls\n  \n1 2 x\n\n3 inf y\n")
        with pytest.raises(DataError, match=r"d\.csv:5: non-finite value in column 'b'"):
            load_csv(p, delimiter=" ")

    def test_multiline_quoted_row_reports_its_first_line(self, tmp_path):
        p = _write(tmp_path, 'a,b,cls\n1,2,"x\ny"\n3,oops,"p\nq"\n')
        with pytest.raises(DataError, match=r"d\.csv:4: non-numeric"):
            load_csv(p)

    @pytest.mark.parametrize("bad", ["1,oops,x", "1,x", "1,nan,x"])
    def test_bad_row_in_later_block(self, tmp_path, bad):
        rows = ["1,2,x", "3,4,y"] * 2 * _block_rows(3)
        bad_at = 2 * _block_rows(3) + 5  # third block
        rows[bad_at] = bad
        rows.insert(10, "")  # one blank line in the first block
        p = _write(tmp_path, "a,b,cls\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=rf"d\.csv:{bad_at + 3}: "):
            load_csv(p)

    def test_first_error_in_file_order(self, tmp_path):
        rows = ["1,2,x", "3,4,y"] * 20
        rows[7] = "1,2"
        rows[3] = "1,oops,x"
        p = _write(tmp_path, "a,b,cls\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"d\.csv:5: non-numeric"):
            load_csv(p)


class TestLoadCsvBlocks:
    @pytest.mark.parametrize("delimiter", [",", " "])
    def test_round_trip_over_blocks_bit_exact(self, tmp_path, delimiter):
        rng = np.random.default_rng(12)
        m = 2 * _block_rows(6) + 17
        x = rng.normal(size=(m, 5)) * 10.0 ** rng.integers(-8, 9, size=(m, 5))
        d = make_dataset(x, rng.integers(0, 3, m))
        p = tmp_path / "rt.csv"
        write_csv(d, p, delimiter=delimiter)
        loaded = load_csv(p, delimiter=delimiter)
        assert np.array_equal(loaded.features, d.features)
        names = np.array(d.class_names)
        assert np.array_equal(np.array(loaded.class_names)[loaded.labels], names[d.labels])

    def test_quoted_fields_and_blank_lines(self, tmp_path):
        rng = np.random.default_rng(13)
        m = 3 * _block_rows(3) + 2
        x = rng.normal(size=(m, 2))
        names = ["north, east", "south"]
        labels = [i % 2 for i in range(m)]
        lines = ['a,"b",class']
        for i in range(m):
            lines.append(f'{float(x[i, 0])!r},"{float(x[i, 1])!r}","{names[labels[i]]}"')
            if i % 1000 == 0:
                lines.append("")
        p = _write(tmp_path, "\n".join(lines) + "\n")
        loaded = load_csv(p)
        assert loaded.feature_names == ("a", "b")
        assert loaded.class_names == tuple(names)
        assert np.array_equal(loaded.features, x)
        assert loaded.labels.tolist() == labels

    def test_class_column_in_the_middle(self, tmp_path):
        rows = [f"{i},{'xy'[i % 2]},{-i}" for i in range(_block_rows(3) + 3)]
        p = _write(tmp_path, "a,cls,b\n" + "\n".join(rows) + "\n")
        d = load_csv(p, class_column="cls")
        assert d.feature_names == ("a", "b")
        assert d.features[-1].tolist() == [len(rows) - 1, 1 - len(rows)]
        assert d.labels[:4].tolist() == [0, 1, 0, 1]

    def test_peak_memory_near_one_copy(self, tmp_path):
        rng = np.random.default_rng(14)
        d = make_dataset(rng.normal(size=(20000, 10)), rng.integers(0, 2, 20000))
        p = tmp_path / "big.csv"
        write_csv(d, p)
        tracemalloc.start()
        try:
            loaded = load_csv(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.n_instances == 20000
        assert peak <= 3 * loaded.features.nbytes


class TestDataset:
    def test_immutable(self):
        d = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            d.features[0, 0] = 9

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            make_dataset([[np.nan], [1.0]], [0, 1])

    def test_project_order(self):
        d = make_dataset([[1, 2, 3], [4, 5, 6]], [0, 1])
        p = d.project([2, 0])
        assert p.features.tolist() == [[3, 1], [6, 4]]

    def test_project_copies_once(self):
        rng = np.random.default_rng(0)
        d = make_dataset(rng.normal(size=(98000, 20)), rng.integers(0, 2, 98000))
        cols = [19, 0, 5, 7, 2, 11, 3, 17, 8, 13, 1, 6]
        tracemalloc.start()
        try:
            p = d.project(cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(p.features, d.features[:, cols])
        assert p.features.flags.c_contiguous
        assert peak <= 1.25 * p.features.nbytes


class TestSplit:
    def test_pima_90_10_counts(self, pima_dataset):
        train, test = split(pima_dataset, SplitSpec(0.9, seed=1))
        assert train.n_instances == 691  # round(0.9 * 768)
        assert test.n_instances == 77

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        d = make_dataset(rng.normal(size=(10, 2)), rng.integers(0, 2, 10))
        a = split(d, SplitSpec(0.5, seed=9))
        b = split(d, SplitSpec(0.5, seed=9))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_empty_partition_error(self):
        d = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(DataError, match="empty partition"):
            split(d, SplitSpec(0.99))

    def test_stratified_keeps_classes(self):
        rng = np.random.default_rng(2)
        labels = np.array([0] * 30 + [1] * 6)
        d = make_dataset(rng.normal(size=(36, 2)), labels)
        train, test = split(d, SplitSpec(0.5, seed=4, stratified=True))
        for part in (train, test):
            assert set(part.labels.tolist()) == {0, 1}
        assert train.n_instances == 18

    def test_stratified_single_instance_class(self):
        d = make_dataset([[1.0], [2.0], [3.0]], [0, 0, 1])
        with pytest.raises(DataError, match="single instance"):
            split(d, SplitSpec(0.5, stratified=True))

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(4, 60),
        frac=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32),
        stratified=st.booleans(),
    )
    def test_partition_is_exact(self, m, frac, seed, stratified):
        rng = np.random.default_rng(seed % 1000)
        labels = np.array([i % 2 for i in range(m)])
        feats = np.arange(m, dtype=float).reshape(-1, 1)
        d = make_dataset(feats, labels)
        try:
            train, test = split(d, SplitSpec(frac, seed=seed, stratified=stratified))
        except DataError:
            return  # degenerate fraction for this m
        seen = sorted(train.features[:, 0].tolist() + test.features[:, 0].tolist())
        assert seen == list(range(m))


class TestNormalizer:
    def test_affine_endpoints(self):
        d = make_dataset([[2.0], [4.0], [6.0]], [0, 1, 0])
        p = fit_normalizer(d)
        nd = apply_normalizer(d, p)
        assert nd.features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_feature_maps_to_half(self):
        d = make_dataset([[3.0], [3.0], [3.0]], [0, 1, 0])
        nd = apply_normalizer(d, fit_normalizer(d))
        assert nd.features[:, 0].tolist() == [0.5, 0.5, 0.5]

    def test_constant_feature_on_other_rows(self):
        train = make_dataset([[1.0, 3.0], [5.0, 3.0]], [0, 1])
        test = make_dataset([[2.0, 7.0], [9.0, -1.0]], [0, 1])
        nt = apply_normalizer(test, fit_normalizer(train))
        assert nt.features.tolist() == [[0.25, 0.5], [2.0, 0.5]]

    def test_test_values_not_clipped(self):
        train = make_dataset([[2.0], [6.0]], [0, 1])
        p = fit_normalizer(train)
        test = make_dataset([[8.0], [0.0]], [0, 1])
        nt = apply_normalizer(test, p)
        assert nt.features[0, 0] == pytest.approx(1.5)  # (8-2)/(6-2)
        assert nt.features[1, 0] == pytest.approx(-0.5)

    def test_dimension_mismatch(self):
        train = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        p = fit_normalizer(train)
        other = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(DataError, match="N=2"):
            apply_normalizer(other, p)

    def test_idempotent_on_train(self):
        rng = np.random.default_rng(11)
        d = make_dataset(rng.normal(size=(15, 3)), rng.integers(0, 2, 15))
        nd = apply_normalizer(d, fit_normalizer(d))
        nd2 = apply_normalizer(nd, fit_normalizer(nd))
        assert np.allclose(nd.features, nd2.features)
