import contextlib
import csv
import hashlib
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lung_like, make_dataset, pima_like, write_csv
from ifecf import data
from ifecf.data import (
    DataError,
    Dataset,
    apply_normalizer,
    fit_normalizer,
    load_csv,
    split,
)
from oracles import load_csv_oracle, normalize_rows_oracle, split_rows_oracle


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

    @pytest.mark.parametrize("text", ["", "\n\r\n\n", "a,b,cls\n", "\na,b,cls\n\n\n"],
                             ids=["empty", "blank-only", "header-only", "header-and-blanks"])
    def test_no_data_rows(self, tmp_path, text):
        p = _write(tmp_path, text)
        with pytest.raises(DataError, match="need a header row and at least one data row"):
            load_csv(p)

    @pytest.mark.parametrize("text, class_column", [
        ("a,b,cls\n1,2,x\n3,4,y\n", None),
        ("cls,a,b\r\nx,1,2\r\ny,3,4\r\n", "cls"),
        ('"cls",a,b\nx,1,2\ny,3,4\n', "cls"),
        ("\ncls a b\nx 1 2\ny 3 4\n", "cls"),
    ], ids=["lf", "crlf", "quoted", "spaces"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text, class_column):
        delimiter = " " if " " in text else ","
        plain = _write(tmp_path, text, "plain.csv")
        marked = _write(tmp_path, "\ufeff" + text, "marked.csv")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        want, got = (load_csv(path, class_column, delimiter) for path in (plain, marked))
        assert got.feature_names == want.feature_names == ("a", "b")
        assert got.class_names == want.class_names == ("x", "y")
        assert got.features.tobytes() == want.features.tobytes()
        assert got.labels.tolist() == want.labels.tolist()

    @pytest.mark.parametrize("text", ["a;b;cls\n1;2;x\n3;4;y\n", "\ncls\nx\ny\n"])
    def test_one_column_header_names_the_file(self, tmp_path, text):
        p = _write(tmp_path, text)
        with pytest.raises(DataError, match=r"d\.csv:\d: need a class column and at least one "
                                            r"feature column"):
            load_csv(p)

    def test_header_only_names_a_bad_class_column_first(self, tmp_path):
        # the class column is resolved before the data rows are read
        p = _write(tmp_path, "a,b,cls\n")
        with pytest.raises(DataError, match="class column 'nope' not in header"):
            load_csv(p, class_column="nope")

    @pytest.mark.parametrize("class_column, error", [
        (3, "class column index 3 out of range"),
        (-1, "class column index -1 out of range"),
        ("nope", r"class column 'nope' not in header \['a', 'b', 'cls'\]"),
    ])
    def test_bad_class_column(self, tmp_path, class_column, error):
        p = _write(tmp_path, "a,b,cls\n1,2,x\n3,4,y\n")
        with pytest.raises(DataError, match=error):
            load_csv(p, class_column=class_column)

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


class TestLineBound:
    @pytest.mark.parametrize("text, bound", [
        (b"a,class\r\n1,x\r\n2,y\r\n", 7),  # CRLF: each line end counts twice
        (b"a,class\r1,x\r2,y\r", 4),  # lone CR line ends
        (b"a,class\n1,x\n2,y", 3),  # no final newline
        (b"a,class\r\n" + b"1,x\r\n2,y\r\n" * 8000, 32003),  # two 64 KiB chunks
    ])
    def test_counts_line_ends(self, tmp_path, text, bound):
        p = tmp_path / "d.csv"
        p.write_bytes(text)
        assert data._line_bound(p) == (bound, text.count(b"\r"))
        assert load_csv(p).features[:2].tolist() == [[1.0], [2.0]]


def _assert_matches_oracle(path, class_idx=-1):
    header, feats, tokens = load_csv_oracle(path, class_idx)
    class_idx %= len(header)
    d = load_csv(path, class_column=class_idx)
    assert d.feature_names == tuple(h for j, h in enumerate(header) if j != class_idx)
    assert d.features.tobytes() == np.array(feats, dtype=np.float64).tobytes()
    assert d.class_names == tuple(dict.fromkeys(tokens))
    assert [d.class_names[i] for i in d.labels.tolist()] == tokens


class TestLoadCsvParsers:
    """Quote-free blocks go to np.loadtxt, the rest to csv.reader and float();
    both must give what the csv.reader + float() oracle gives, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(draws=st.data())
    def test_round_trip_matches_oracle(self, tmp_path_factory, draws):
        n = draws.draw(st.integers(1, 4))
        m = draws.draw(st.integers(2, 12))
        class_idx = draws.draw(st.integers(0, n))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        values = draws.draw(st.lists(st.lists(finite, min_size=n, max_size=n),
                                    min_size=m, max_size=m))
        fmt = draws.draw(st.sampled_from(["{!r}", "{:.17g}", "{:.20e}", " {!r} "]))
        labels = ["a", "b"] + draws.draw(st.lists(st.sampled_from(["a", " b", "c d"]),
                                                 min_size=m - 2, max_size=m - 2))
        eol = draws.draw(st.sampled_from(["\n", "\r\n", "\r"]))
        lines = []
        for row, label in zip([[f"f{j}" for j in range(n)]] + values, ["class"] + labels):
            cells = [c if isinstance(c, str) else fmt.format(c) for c in row]
            cells.insert(class_idx, label)
            lines.append(",".join(cells))
        p = tmp_path_factory.mktemp("rt") / "d.csv"
        p.write_bytes(eol.join(lines).encode() + eol.encode())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "BLOCK_CELLS", draws.draw(st.integers(1, 12)))
            _assert_matches_oracle(p, class_idx)

    @pytest.mark.parametrize("cell", ["1_0", " 1.5 ", "\u0661\u0662", "5e-324", "-0.0"])
    def test_cells_float_accepts(self, tmp_path, monkeypatch, cell):
        monkeypatch.setattr(data, "BLOCK_CELLS", 6)  # two rows a block
        rows = ["1,2,x", "3,4,y"] * 4
        rows[5] = f"{cell},2,x"  # third block
        _assert_matches_oracle(_write(tmp_path, "a,b,cls\n" + "\n".join(rows) + "\n"))

    @pytest.mark.parametrize("bad, error", [
        ("#1,2,x", r"d\.csv:7: non-numeric value '#1' in column 'a'"),
        ("1,nan,x", r"d\.csv:7: non-finite value in column 'b'"),
        ("inf,2,x", r"d\.csv:7: non-finite value in column 'a'"),
        ("   ", r"d\.csv:7: expected 3 cells, got 1"),
        ("1,2,x,y", r"d\.csv:7: expected 3 cells, got 4"),
    ])
    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_errors_keep_message_and_line(self, tmp_path, monkeypatch, bad, error, eol):
        monkeypatch.setattr(data, "BLOCK_CELLS", 6)
        rows = ["1,2,x", "3,4,y"] * 4
        rows[4] = bad  # third block, after one blank line
        rows.insert(1, "")
        p = tmp_path / "d.csv"
        p.write_bytes(eol.join(["a,b,cls"] + rows + [""]).encode())
        with pytest.raises(DataError, match=error):
            load_csv(p)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_blank_lines_and_line_ends(self, tmp_path, monkeypatch, eol):
        monkeypatch.setattr(data, "BLOCK_CELLS", 6)
        rows = ["1.5,2,x", "", "3,-4e-3,y", "", "", "5,6,x", "7,8,y", ""]
        p = tmp_path / "d.csv"
        p.write_bytes(eol.join(["a,b,cls"] + rows).encode())
        _assert_matches_oracle(p)

    @pytest.mark.parametrize("text, rows", [
        ("a,b,cls\n\n\n", 0),
        ("a,b,cls\n1,2,x\n3,4,y\n\n\r\n5,6,x\n", 3),
    ], ids=["header-and-blanks", "blank-middle-block"])
    def test_blank_blocks_warn_nothing(self, tmp_path, monkeypatch, text, rows):
        # loadtxt warns when a block gives it no data; such a block never reaches it
        monkeypatch.setattr(data, "BLOCK_CELLS", 6)  # two lines a block
        p = _write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if rows:
                _assert_matches_oracle(p)
            else:
                with pytest.raises(DataError, match="need a header row"):
                    load_csv(p)

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_one_lone_cr_ends_a_line(self, tmp_path, monkeypatch, quote):
        # a file with no CR is read with LF as its only line end; one lone CR,
        # here in the fourth block, ends a line too
        monkeypatch.setattr(data, "BLOCK_CELLS", 6)  # two lines a block
        rows = [f"{i}.5,{-i},{quote}{'xy'[i % 2]}{quote}" for i in range(9)]
        p = tmp_path / "d.csv"
        p.write_bytes(("a,b,cls\n" + "\n".join(rows[:7]) + "\r" + "\n".join(rows[7:])).encode())
        _assert_matches_oracle(p)
        bad = p.read_bytes().replace(b"7.5", b"oops")
        p.write_bytes(bad)
        with pytest.raises(DataError, match=r"d\.csv:9: non-numeric value 'oops'"):
            load_csv(p)

    def test_block_numpy_returns_short_goes_to_row_parser(self, tmp_path, monkeypatch):
        # numpy skips lines it takes for empty without saying so; a block it
        # returns fewer rows of than it has lines is parsed as rows
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: loadtxt(*args, **kw)[1:])
        _assert_matches_oracle(_write(tmp_path, "a,b,cls\n1,2,x\n3,4,y\n5,6,x\n"))

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("class_idx", [0, 2, 4])
    def test_fast_path_reads_quote_free_blocks(self, tmp_path, monkeypatch, class_idx, eol):
        # without a fallback, so a fast path that rejects every block fails here
        def no_rows(*args):
            raise AssertionError("a quote-free block fell back to the row parser")

        monkeypatch.setattr(data, "_parse_rows", no_rows)
        monkeypatch.setattr(data, "BLOCK_CELLS", 50)  # ten lines a block
        rng = np.random.default_rng(15)
        lines = [",".join(f"f{j}" for j in range(4))]
        for i in range(47):
            cells = [repr(float(v)) for v in rng.normal(size=4) * 10.0 ** rng.integers(-5, 6, 4)]
            cells[i % 4] = f" {cells[i % 4]} "
            lines.append(",".join(cells))
        rows = [ln.split(",") for ln in lines]
        for row, label in zip(rows, ["class"] + [" lo", "mid ", "hi", "lo"] * 12):
            row.insert(class_idx, label)
        p = tmp_path / "d.csv"
        p.write_bytes(eol.join(",".join(row) for row in rows).encode() + eol.encode())
        _assert_matches_oracle(p, class_idx)

    def test_first_quote_in_third_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "BLOCK_CELLS", 6)
        rows = [f"{i}.5,{-i},{'xy'[i % 2]}" for i in range(12)]
        rows[4] = '4.5,"-4","north, east"'
        rows[7] = '7.5,-7,"multi\nline"'  # lines 9 and 10
        rows[9] = "9.5,oops,x"
        p = _write(tmp_path, "a,b,cls\n" + "\n".join(rows[:9]) + "\n")
        _assert_matches_oracle(p)
        p = _write(tmp_path, "a,b,cls\n" + "\n".join(rows) + "\n")
        with pytest.raises(DataError, match=r"d\.csv:12: non-numeric value 'oops'"):
            load_csv(p)

    def test_header_spanning_lines(self, tmp_path):
        p = _write(tmp_path, 'a,"b\nc",cls\n1,2,x\n3,oops,y\n')
        with pytest.raises(DataError, match=r"d\.csv:4: non-numeric value 'oops'"):
            load_csv(p)

    @pytest.mark.parametrize("eol", ["\n", "\r"])
    def test_invalid_utf8_names_line(self, tmp_path, eol):
        p = tmp_path / "d.csv"
        p.write_bytes(eol.join(["a,b,class", "1,2,x", "3,\xe94,y", ""]).encode("latin-1"))
        with pytest.raises(DataError, match=r"d\.csv:3: invalid UTF-8 byte 0xe9"):
            load_csv(p)

    def test_oversized_quoted_field_names_line(self, tmp_path):
        label = "x" * (csv.field_size_limit() + 1)
        p = _write(tmp_path, f'a,cls\n1,x\n2,"{label}"\n3,y\n')
        with pytest.raises(DataError, match=r"d\.csv:3: field larger than field limit"):
            load_csv(p)


class TestDataset:
    def test_immutable(self):
        d = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(ValueError):
            d.features[0, 0] = 9

    def test_rejects_nan(self):
        with pytest.raises(DataError, match="non-finite"):
            make_dataset([[np.nan], [1.0]], [0, 1])

    @pytest.mark.parametrize("shape", [(0, 2), (2, 0)])
    def test_rejects_empty(self, shape):
        with pytest.raises(DataError, match="at least 1 row and 1 feature"):
            Dataset(np.zeros(shape), np.zeros(shape[0], dtype=np.int64),
                    tuple(f"f{j}" for j in range(shape[1])), ("x", "y"))

    @pytest.mark.parametrize("labels, names, error", [
        ([0, 2], ("a",), "label id outside class table"),
        ([-1, 0], ("a",), "label id outside class table"),
        ([0], ("a",), "label vector length does not match instance count"),
        ([0, 1], ("a", "b"), "feature_names length does not match feature count"),
    ], ids=["label-past-table", "negative-label", "short-labels", "extra-name"])
    def test_rejects_inconsistent_parts(self, labels, names, error):
        with pytest.raises(DataError, match=error):
            Dataset(np.zeros((2, 1)), np.array(labels), names, ("x", "y"))

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
        train, test = map(pima_dataset.take, split(pima_dataset, 0.9, seed=1))
        assert train.n_instances == 691  # round(0.9 * 768)
        assert test.n_instances == 77

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        d = make_dataset(rng.normal(size=(10, 2)), rng.integers(0, 2, 10))
        a = list(map(d.take, split(d, 0.5, seed=9)))
        b = list(map(d.take, split(d, 0.5, seed=9)))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_empty_partition_error(self):
        d = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(DataError, match="empty partition"):
            split(d, 0.99)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_fraction_outside_unit_interval(self, pima_dataset, fraction):
        with pytest.raises(DataError, match=r"must be in \(0,1\)"):
            split(pima_dataset, fraction)

    def test_stratified_keeps_classes(self):
        rng = np.random.default_rng(2)
        labels = np.array([0] * 30 + [1] * 6)
        d = make_dataset(rng.normal(size=(36, 2)), labels)
        train, test = map(d.take, split(d, 0.5, seed=4))
        for part in (train, test):
            assert set(part.labels.tolist()) == {0, 1}
        assert train.n_instances == 18

    def test_stratified_single_instance_class(self):
        d = make_dataset([[1.0], [2.0], [3.0]], [0, 0, 1])
        with pytest.raises(DataError, match="single instance"):
            split(d, 0.5)

    def test_floor_overshoot_gives_rows_back(self):
        # floors 0/0/6 clamp up to 1/1/6, one over round(0.2 * 34) = 7: the
        # class with the smallest remainder gives a row back
        labels = np.repeat([0, 1, 2], [2, 2, 30])
        d = make_dataset(np.arange(34.0).reshape(-1, 1), labels)
        train, test = map(d.take, split(d, 0.2, seed=3))
        assert np.bincount(train.labels).tolist() == [1, 1, 5]
        assert np.bincount(test.labels).tolist() == [1, 1, 25]

    def test_floor_overshoot_that_cannot_be_given_back(self):
        # one train row per class is 3, over round(0.1 * 24) = 2
        labels = np.repeat([0, 1, 2], [2, 2, 20])
        d = make_dataset(np.arange(24.0).reshape(-1, 1), labels)
        with pytest.raises(DataError, match="stratified split impossible at this fraction"):
            split(d, 0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(4, 60),
        frac=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**32),
    )
    def test_partition_is_exact(self, m, frac, seed):
        rng = np.random.default_rng(seed % 1000)
        labels = np.array([i % 2 for i in range(m)])
        feats = np.arange(m, dtype=float).reshape(-1, 1)
        d = make_dataset(feats, labels)
        try:
            train, test = map(d.take, split(d, frac, seed=seed))
        except DataError:
            return  # degenerate fraction for this m
        seen = sorted(train.features[:, 0].tolist() + test.features[:, 0].tolist())
        assert seen == list(range(m))


class TestNormalizer:
    def test_affine_endpoints(self):
        d = make_dataset([[2.0], [4.0], [6.0]], [0, 1, 0])
        p = fit_normalizer(d)
        nd = apply_normalizer(d, p, np.arange(3))
        assert nd.features[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_constant_feature_maps_to_half(self):
        d = make_dataset([[3.0], [3.0], [3.0]], [0, 1, 0])
        nd = apply_normalizer(d, fit_normalizer(d), np.arange(3))
        assert nd.features[:, 0].tolist() == [0.5, 0.5, 0.5]

    def test_constant_feature_on_other_rows(self):
        train = make_dataset([[1.0, 3.0], [5.0, 3.0]], [0, 1])
        test = make_dataset([[2.0, 7.0], [9.0, -1.0]], [0, 1])
        nt = apply_normalizer(test, fit_normalizer(train), np.arange(2))
        assert nt.features.tolist() == [[0.25, 0.5], [2.0, 0.5]]

    def test_test_values_not_clipped(self):
        train = make_dataset([[2.0], [6.0]], [0, 1])
        p = fit_normalizer(train)
        test = make_dataset([[8.0], [0.0]], [0, 1])
        nt = apply_normalizer(test, p, np.arange(2))
        assert nt.features[0, 0] == pytest.approx(1.5)  # (8-2)/(6-2)
        assert nt.features[1, 0] == pytest.approx(-0.5)

    def test_dimension_mismatch(self):
        train = make_dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1])
        p = fit_normalizer(train)
        other = make_dataset([[1.0], [2.0]], [0, 1])
        with pytest.raises(DataError, match="N=2"):
            apply_normalizer(other, p, np.arange(2))

    def test_overflowing_columns_keep_their_bits_under_power_of_two_scaling(self):
        # column 0's train range passes the float64 maximum at k = 1023, and
        # column 1's lowest test value lies that far below its train min
        train = np.array([[1.0, 1.0, 3.0], [1.5, 1.5, 4.0], [-1.25, 1.25, 5.0]])
        test = np.array([[-1.75, -1.75, 2.0], [0.0, 0.0, 6.0]])

        def normalized(k):
            parts = [make_dataset(np.column_stack([np.ldexp(x[:, :2], k), x[:, 2:]]),
                                  [0, 1, 0][:len(x)]) for x in (train, test)]
            norm = fit_normalizer(parts[0])
            return b"".join(apply_normalizer(p, norm, np.arange(p.n_instances)).features.tobytes()
                            for p in parts)

        want = normalized(0)
        assert [k for k in range(1024) if normalized(k) != want] == []
        assert np.frombuffer(want)[[0, 1, 9, 10]].tolist() == [
            pytest.approx(2.25 / 2.75), 0.0, pytest.approx(-0.5 / 2.75), -5.5]

    def test_value_far_outside_a_tiny_range_names_its_column(self):
        # (1e10 - 0) / 2e-300 passes the float64 maximum; column f1 is finite
        train = make_dataset([[0.0, 1.0], [1e-300, 2.0], [2e-300, 3.0]], [0, 1, 0])
        test = make_dataset([[1e-300, 9.0], [1e10, 1.5]], [0, 1])
        norm = fit_normalizer(train)
        with pytest.raises(DataError, match="^column 'f0': a value normalizes past the float64"):
            apply_normalizer(test, norm, np.arange(2))
        assert (apply_normalizer(train, norm, np.arange(3)).features[:, 0].tolist()
                == [0.0, 0.5, 1.0])

    def test_idempotent_on_train(self):
        rng = np.random.default_rng(11)
        d = make_dataset(rng.normal(size=(15, 3)), rng.integers(0, 2, 15))
        nd = apply_normalizer(d, fit_normalizer(d), np.arange(15))
        nd2 = apply_normalizer(nd, fit_normalizer(nd), np.arange(15))
        assert np.allclose(nd.features, nd2.features)



class TestRowPath:
    """``split``'s row indices and ``apply_normalizer``'s gather of them give
    the bits of ``split_rows_oracle`` and ``normalize_rows_oracle``: per-class
    lists of rows, and the normalizer on a ``Dataset.take`` copy."""

    @pytest.mark.parametrize("make", [pima_like, lung_like])
    @pytest.mark.parametrize("fraction", [0.1, 0.25, 0.5, 0.7, 0.9])
    def test_split_rows_are_the_per_class_lists(self, make, fraction):
        d = make()
        for seed in (0, 1, 42, 2**63 + 5):
            got, want = split(d, fraction, seed), split_rows_oracle(d, fraction, seed)
            assert [r.tolist() for r in got] == [r.tolist() for r in want]

    @staticmethod
    def _dataset():
        # f0 is constant on the even rows, f1's range passes the float64
        # maximum, f2 holds one value whose distance from the even rows' min
        # does, and f3 is plain
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 4))
        x[::2, 0] = 3.0
        x[:, 1] = rng.uniform(-1.5, 1.5, size=40) * 2.0**1023
        x[[0, 2], 1] = 1.5 * 2.0**1023, -1.5 * 2.0**1023
        x[:, 2] *= 1e307
        x[7, 2] = 1.7e308
        return make_dataset(x, rng.integers(0, 3, size=40))

    @pytest.mark.parametrize("rows", ["even", "odd", "shuffled", "repeated"])
    def test_rows_map_to_the_take_copy_bits(self, rows):
        d = self._dataset()
        norm = fit_normalizer(d.take(np.arange(0, 40, 2)))
        rng = np.random.default_rng(2)
        rows = {"even": np.arange(0, 40, 2), "odd": np.arange(1, 40, 2),
                "shuffled": rng.permutation(40)[:25], "repeated": rng.integers(0, 40, 60)}[rows]
        got, want = apply_normalizer(d, norm, rows), normalize_rows_oracle(d, norm, rows)
        assert _same(got, want)

    def test_value_far_outside_a_tiny_range_raises_the_take_copy_error(self):
        x = np.array([[0.0, 1.0], [1e-300, 2.0], [2e-300, 3.0], [1e10, 1.5], [5e-301, 9.0]])
        d = make_dataset(x, [0, 1, 0, 1, 1])
        norm = fit_normalizer(d.take([0, 1, 2]))
        with pytest.raises(DataError) as want:
            normalize_rows_oracle(d, norm, [4, 3])
        with pytest.raises(DataError) as got:
            apply_normalizer(d, norm, [4, 3])
        assert str(got.value) == str(want.value)


def _same(a: Dataset, b: Dataset) -> bool:
    """Bit-equal features, labels, names and class tables."""
    return (a.features.tobytes() == b.features.tobytes() and a.features.shape == b.features.shape
            and np.array_equal(a.labels, b.labels) and a.feature_names == b.feature_names
            and a.class_names == b.class_names)


class TestDatasetCache:
    """``load_csv`` keeps parsed datasets in ``$XDG_CACHE_HOME/ifecf``, keyed
    by the file's sha256 and the load's arguments."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The number of files parsed so far: each parse starts with ``_line_bound``."""
        calls = []
        line_bound = data._line_bound
        monkeypatch.setattr(data, "_line_bound", lambda path: calls.append(path) or line_bound(path))
        return calls

    def test_hit_equals_miss_bit_for_bit(self, tmp_path, cache_dir, parses):
        rng = np.random.default_rng(8)
        p = tmp_path / "d.csv"
        # names and tokens json and npz could garble: quotes, a NUL, non-ASCII, blanks
        text = 'a b,"q""x",é\x00,class\n' + "".join(
            f"{x!r},{y!r},{z!r},{c}\n" for (x, y, z), c
            in zip(rng.normal(size=(30, 3)).tolist(), ["löw", " hi ", "0"] * 10))
        p.write_text(text, encoding="utf-8")
        miss = load_csv(p)
        hit = load_csv(p)
        assert len(parses) == 1 and len(list(cache_dir.iterdir())) == 1
        assert _same(hit, miss) and hit.labels.dtype == miss.labels.dtype == np.int64
        assert miss.feature_names == ("a b", 'q"x', "é\x00")
        assert miss.class_names == ("löw", "hi", "0")
        assert hit.source_sha256 == miss.source_sha256 == hashlib.sha256(p.read_bytes()).hexdigest()
        assert not hit.features.flags.writeable and not hit.labels.flags.writeable
        assert hit.take(np.arange(3)).source_sha256 is None
        assert hit.project([0]).source_sha256 is None

    def test_same_size_rewrite_with_restored_mtime_misses(self, tmp_path, cache_dir, parses):
        p = _write(tmp_path, "a,class\n1.5,x\n2.5,y\n")
        stat = p.stat()
        assert load_csv(p).features[0, 0] == 1.5
        p.write_text("a,class\n1.6,x\n2.5,y\n", encoding="utf-8")
        os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert p.stat().st_size == stat.st_size and p.stat().st_mtime_ns == stat.st_mtime_ns
        assert load_csv(p).features[0, 0] == 1.6
        assert len(parses) == 2 and len(list(cache_dir.iterdir())) == 2

    def test_argument_variants_get_their_own_entries(self, tmp_path, cache_dir, parses,
                                                     monkeypatch):
        # the lines read under both delimiters, to different datasets
        p = _write(tmp_path, "a;b,c\n1;x,2\n3;y,4\n5;x,6\n")
        variants = [(",", 0), (";", None), (";", 1), (";", "b,c"), (",", "a;b")]
        first = [load_csv(p, class_column=c, delimiter=dl) for dl, c in variants]
        again = [load_csv(p, class_column=c, delimiter=dl) for dl, c in variants]
        assert len(parses) == len(variants) == len(list(cache_dir.iterdir()))
        monkeypatch.setenv("XDG_CACHE_HOME", str(p))  # a regular file: no cache
        for d, e, (dl, c) in zip(first, again, variants):
            want = load_csv(p, class_column=c, delimiter=dl)
            assert _same(d, want) and _same(e, want)
        assert first[0].features[:, 0].tolist() == [2.0, 4.0, 6.0]
        assert first[1].features[:, 0].tolist() == [1.0, 3.0, 5.0]

    def test_truncated_entry_is_parsed_again_and_rewritten(self, tmp_path, cache_dir, parses):
        rng = np.random.default_rng(9)
        p = tmp_path / "d.csv"
        write_csv(make_dataset(rng.normal(size=(50, 4)), rng.integers(0, 3, 50)), p)
        miss = load_csv(p)
        (entry,) = cache_dir.iterdir()
        whole = entry.read_bytes()
        for cut in (len(whole) // 2, 10, 0):
            entry.write_bytes(whole[:cut])
            assert _same(load_csv(p), miss)
            assert entry.read_bytes() == whole
        assert len(parses) == 4

    def test_entry_that_does_not_validate_is_parsed_again(self, tmp_path, cache_dir, parses):
        p = _write(tmp_path, "a,class\n1,x\n2,y\n")
        miss = load_csv(p)
        (entry,) = cache_dir.iterdir()
        np.savez(entry, features=np.array([[1.0], [np.inf]]), labels=miss.labels,
                 names=np.frombuffer(b'[["a"], ["x", "y"]]', np.uint8))
        assert _same(load_csv(p), miss)
        assert len(parses) == 2

    def test_entry_whose_labels_pass_its_class_table_is_rewritten(self, tmp_path, cache_dir,
                                                                  parses):
        p = _write(tmp_path, "a,class\n1,x\n2,y\n")
        miss = load_csv(p)
        (entry,) = cache_dir.iterdir()
        whole = entry.read_bytes()
        np.savez(entry, features=miss.features, labels=miss.labels + 1,
                 names=np.frombuffer(b'[["a"], ["x", "y"]]', np.uint8))
        assert _same(load_csv(p), miss)
        assert entry.read_bytes() == whole
        assert _same(load_csv(p), miss)  # a hit of the rewritten entry
        assert len(parses) == 2

    def test_hit_that_cannot_mark_its_entry_still_loads(self, tmp_path, cache_dir, parses,
                                                        monkeypatch):
        p = _write(tmp_path, "a,class\n1,x\n2,y\n")
        miss = load_csv(p)

        def no_utime(*args, **kwargs):
            raise PermissionError("read-only cache")

        monkeypatch.setattr(data.os, "utime", no_utime)
        assert _same(load_csv(p), miss)
        assert len(parses) == 1

    @pytest.mark.parametrize("call", ["scandir", "remove"])
    def test_eviction_that_fails_still_loads(self, tmp_path, cache_dir, parses, monkeypatch,
                                             call):
        paths = [_write(tmp_path, f"a,class\n{i},x\n{i + 1},y\n", f"{i}.csv") for i in range(2)]
        load_csv(paths[0])
        monkeypatch.setattr(data, "CACHE_BYTES", 0)  # every entry is past the limit
        failed = []

        def fail(*args, **kwargs):
            failed.append(args)
            raise PermissionError(call)

        monkeypatch.setattr(data.os, call, fail)
        d = load_csv(paths[1])
        assert d.features[:, 0].tolist() == [1.0, 2.0] and d.class_names == ("x", "y")
        assert failed and len(list(cache_dir.iterdir())) == 2
        assert _same(load_csv(paths[1]), d) and len(parses) == 2

    def test_file_written_during_the_load_writes_no_entry(self, tmp_path, cache_dir,
                                                          monkeypatch):
        # a write between the hash and the parse: an entry would give the new rows
        # to a later load of the old bytes
        p = _write(tmp_path, "a,class\n1,x\n2,y\n")
        line_bound = data._line_bound

        def append_then_bound(path):
            with path.open("a", encoding="utf-8") as fh:
                fh.write("3,x\n")
            return line_bound(path)

        monkeypatch.setattr(data, "_line_bound", append_then_bound)
        assert load_csv(p).n_instances == 3
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    @pytest.mark.parametrize("text", ["a,class\n1,x\noops,y\n", "a,class\n1,x\n2,x\n",
                                      "a,class\n"])
    def test_bad_csv_writes_no_entry(self, tmp_path, cache_dir, text):
        p = _write(tmp_path, text)
        for _ in range(2):
            with pytest.raises(DataError):
                load_csv(p)
        assert not cache_dir.exists() or not any(cache_dir.iterdir())

    def test_least_recently_used_entries_go_past_cache_bytes(self, tmp_path, cache_dir, parses,
                                                            monkeypatch):
        paths = [_write(tmp_path, f"a,class\n{i},x\n{i + 1},y\n", f"{i}.csv") for i in range(3)]
        load_csv(paths[0])
        (a,) = cache_dir.iterdir()
        load_csv(paths[1])
        (b,) = set(cache_dir.iterdir()) - {a}
        os.utime(a, ns=(0, 10**9))  # the first entry is the older one ...
        os.utime(b, ns=(0, 2 * 10**9))
        monkeypatch.setattr(data, "CACHE_BYTES", a.stat().st_size + b.stat().st_size + 100)
        load_csv(paths[0])  # ... until a hit marks it as used
        assert a.stat().st_mtime_ns > b.stat().st_mtime_ns
        load_csv(paths[2])  # three entries pass CACHE_BYTES: the least recently used goes
        assert a.exists() and not b.exists() and len(list(cache_dir.iterdir())) == 2
        assert len(parses) == 3

    def test_cache_that_cannot_be_made_still_loads(self, tmp_path, monkeypatch, parses):
        # the autouse fixture's XDG_CACHE_HOME is a regular file, and here the
        # ifecf directory itself is one: neither leaves room for an entry
        p = _write(tmp_path, "a,class\n1,x\n2,y\n")
        assert _same(load_csv(p), load_csv(p))
        root = tmp_path / "xdg"
        root.mkdir()
        (root / "ifecf").write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(root))
        assert _same(load_csv(p), load_csv(p))
        assert len(parses) == 4 and (root / "ifecf").read_bytes() == b""

    def test_miss_peaks_no_higher_than_the_parse_and_the_labels(self, tmp_path, cache_dir,
                                                                 monkeypatch):
        rng = np.random.default_rng(15)
        p = tmp_path / "big.csv"
        # short cells in small blocks: the features are most of the parse's peak
        np.savetxt(p, rng.integers(0, 10, size=(20000, 11)), fmt="%d", delimiter=",",
                   header=",".join(f"f{j}" for j in range(11)), comments="")
        monkeypatch.setattr(data, "BLOCK_CELLS", 1 << 10)
        peaks = []
        for root in (p, cache_dir.parent):  # a regular file: no entry; then a miss
            monkeypatch.setenv("XDG_CACHE_HOME", str(root))
            tracemalloc.start()
            try:
                loaded = load_csv(p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(list(cache_dir.glob("*.npz"))) == 1
        assert peaks[1] <= peaks[0] + loaded.labels.nbytes

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_fifo_is_read_once_and_parsed_from_memory(self, tmp_path, cache_dir, parses, warm):
        text = "a,b,class\n1.5,2,x\n\n3,4.25,y\n5,6,x\n"
        p = _write(tmp_path, text)
        if warm:
            load_csv(p)
        with _fifo(tmp_path / "fifo", text.encode()) as fifo:
            d = load_csv(fifo)
        assert _same(d, load_csv(p)) and d.source_sha256 == hashlib.sha256(text.encode()).hexdigest()
        assert len(parses) == 1 and isinstance(parses[0], data._InMemory) != warm
        assert len(list(cache_dir.glob("*.npz"))) == 1 and not list(cache_dir.glob("*.stat"))

    def test_fifo_errors_name_its_path_and_line(self, tmp_path):
        with _fifo(tmp_path / "fifo", b"a,class\n1,x\n\xff,y\n") as fifo:
            with pytest.raises(DataError, match=f"^{fifo}:3: invalid UTF-8 byte 0xff"):
                load_csv(fifo)


def _feed(fifo, raw: bytes, done: threading.Event) -> None:
    """Write ``raw`` to ``fifo`` once, then, until ``done``, give any reader
    that opens it again EOF."""
    fifo.write_bytes(raw)
    while not done.wait(0.05):
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:  # no reader has it open
            pass


@contextlib.contextmanager
def _fifo(path, raw: bytes):
    """A FIFO at ``path`` that gives ``raw`` to its first reader: a load that
    opens it twice reads nothing the second time, and fails instead of
    waiting for a writer."""
    os.mkfifo(path)
    done = threading.Event()
    feeder = threading.Thread(target=_feed, args=(path, raw, done), daemon=True)
    feeder.start()
    try:
        yield path
    finally:
        done.set()
        feeder.join(timeout=10)
    assert not feeder.is_alive()


class TestStatRecord:
    """``load_csv`` takes the sha256 of an unchanged regular file from its stat
    record, ``<st_dev>-<st_ino>.stat`` in the cache directory."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        """The files hashed so far."""
        calls = []
        file_sha256 = data._file_sha256
        monkeypatch.setattr(data, "_file_sha256", lambda path: calls.append(path) or file_sha256(path))
        return calls

    @pytest.fixture
    def trusted(self, monkeypatch):
        """Trust a record of a file written just now, as one of a file older than the window."""
        monkeypatch.setattr(data, "STAT_WINDOW_NS", 0)

    @staticmethod
    def _record(cache_dir, p):
        st = p.stat()
        return cache_dir / f"{st.st_dev}-{st.st_ino}.stat"

    def test_trusted_record_skips_the_hash(self, tmp_path, cache_dir, hashes, trusted):
        p = _write(tmp_path, "a,b\n1,5\n2,6\n")
        first = load_csv(p)
        st = p.stat()
        want = hashlib.sha256(p.read_bytes()).hexdigest()
        assert self._record(cache_dir, p).read_text() == (
            f"{st.st_size} {st.st_mtime_ns} {st.st_ctime_ns} {want}\n")
        again = [load_csv(p), load_csv(p, class_column=0)]
        assert len(hashes) == 1
        assert all(d.source_sha256 == first.source_sha256 == want for d in again)
        assert _same(again[0], first) and again[1].class_names == ("1", "2")

    @pytest.mark.parametrize("damage", ["garbage", "empty", "truncated", "short-digest",
                                        "not-hex", "record-ctime", "file-ctime"])
    def test_record_that_does_not_match_is_hashed_again(self, tmp_path, cache_dir, hashes,
                                                        trusted, damage):
        p = _write(tmp_path, "a,class\n1,x\n2,y\n")
        want = load_csv(p).source_sha256
        record = self._record(cache_dir, p)
        text = record.read_text()
        size, mtime, ctime, digest = text.split()
        if damage == "file-ctime":  # metadata only: the stat moves, the bytes do not
            st = p.stat()
            os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
        else:
            record.write_bytes({
                "garbage": b"\xff\x00 not a record",
                "empty": b"",
                "truncated": text[:len(text) // 2].encode(),
                "short-digest": f"{size} {mtime} {ctime} {digest[:-1]}\n".encode(),
                "not-hex": f"{size} {mtime} {ctime} {digest[:-1]}g\n".encode(),
                "record-ctime": f"{size} {mtime} {int(ctime) + 1} {digest}\n".encode(),
            }[damage])
        assert load_csv(p).source_sha256 == want
        assert len(hashes) == 2
        st = p.stat()  # hashed again, the record is written again
        assert record.read_text() == f"{st.st_size} {st.st_mtime_ns} {st.st_ctime_ns} {want}\n"

    def test_same_size_rewrite_within_the_window_misses(self, tmp_path, cache_dir, hashes):
        p = _write(tmp_path, "a,class\n1.5,x\n2.5,y\n")
        stat = p.stat()
        assert load_csv(p).features[0, 0] == 1.5
        assert not self._record(cache_dir, p).exists()  # written within the window
        p.write_text("a,class\n1.6,x\n2.5,y\n", encoding="utf-8")
        os.utime(p, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert load_csv(p).features[0, 0] == 1.6
        assert len(hashes) == 2 and not list(cache_dir.glob("*.stat"))

    def test_file_written_during_the_hash_writes_no_record(self, tmp_path, cache_dir, trusted,
                                                           monkeypatch):
        p = _write(tmp_path, "a,class\n1,x\n2,y\n")
        file_sha256 = data._file_sha256

        def hash_then_append(path):
            digest = file_sha256(path)
            with path.open("a", encoding="utf-8") as fh:
                fh.write("3,x\n")
            return digest

        monkeypatch.setattr(data, "_file_sha256", hash_then_append)
        load_csv(p)
        assert not list(cache_dir.glob("*.stat"))

    def test_cache_that_cannot_be_made_still_loads(self, tmp_path, monkeypatch, hashes, trusted):
        # the autouse fixture's XDG_CACHE_HOME is a regular file, and here the
        # ifecf directory itself is one: neither leaves room for a record
        p = _write(tmp_path, "a,class\n1,x\n2,y\n")
        assert _same(load_csv(p), load_csv(p))
        root = tmp_path / "xdg"
        root.mkdir()
        (root / "ifecf").write_bytes(b"")
        monkeypatch.setenv("XDG_CACHE_HOME", str(root))
        assert _same(load_csv(p), load_csv(p))
        assert len(hashes) == 4 and (root / "ifecf").read_bytes() == b""
