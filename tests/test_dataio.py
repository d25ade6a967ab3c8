import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchls import DatasetFile, ProblemInstance, dataio, load, save_dense_csv
from sketchls.dataio import (
    CSV_HEADER,
    _load_dense,
    _load_sparse,
    _one_hot,
    _parse_dense,
    write_results_csv,
)
from sketchls.datagen import SyntheticSpec, gen_gaussian_data
from sketchls.errors import (
    DataFormatError,
    DimensionMismatchError,
    InvalidInputError,
    LabelOutOfRangeError,
    SketchLSError,
)
from sketchls.harness import CellResult


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSparseFormat:
    def test_basic_line(self, tmp_path):
        # three more rows than features: the loader rejects d >= n before densifying
        path = _write(tmp_path, "f.txt", "2.5 1:1 3:4\n" + "0 2:1\n" * 3)
        A, y = _load_sparse(path)
        np.testing.assert_allclose(A[:1], [[1.0, 0.0, 4.0]])
        np.testing.assert_allclose(y[:1], [2.5])

    def test_end_to_end(self, tmp_path):
        lines = "\n".join(f"{i % 3}.5 1:{i} 2:{i * i}" for i in range(1, 7))
        path = _write(tmp_path, "f.txt", lines + "\n")
        p = load(DatasetFile(path=str(path), format="sparse"))
        assert p.n == 6 and p.d == 2

    def test_bad_token_location(self, tmp_path):
        path = _write(tmp_path, "f.txt", "1.0 1:2\n2.0 1:x\n")
        with pytest.raises(DataFormatError) as err:
            _load_sparse(path)
        assert err.value.line == 2 and err.value.column == 2

    def test_repeated_index_names_its_line_and_field(self, tmp_path):
        path = _write(tmp_path, "f.txt", "0 1:1 2:1\n\n1 1:1.0 2:3.0 2:5.0\n0 2:1\n0 1:2\n")
        with pytest.raises(DataFormatError, match="feature index 2 repeats") as err:
            _load_sparse(path)
        assert err.value.line == 3 and err.value.column == 4

    def test_zero_index_rejected(self, tmp_path):
        path = _write(tmp_path, "f.txt", "1.0 0:2\n")
        with pytest.raises(DataFormatError):
            _load_sparse(path)

    def test_missing_separator(self, tmp_path):
        path = _write(tmp_path, "f.txt", "1.0 12\n")
        with pytest.raises(DataFormatError):
            _load_sparse(path)

    def test_index_beyond_the_row_count_rejected_before_allocating(self, tmp_path):
        path = _write(tmp_path, "f.txt", "1 1000000000000:1.0\n2 1:3\n")
        with pytest.raises(DimensionMismatchError, match="need n > d >= 1"):
            _load_sparse(path)


@pytest.mark.parametrize("loader, row", [(_load_dense, b"1,2\n"), (_load_sparse, b"1 1:2\n")])
def test_invalid_utf8_names_its_line(tmp_path, loader, row):
    # far past the first buffered read, so the line is counted over the whole file
    path = tmp_path / "f.txt"
    path.write_bytes(row * 3000 + b"\xff" + row)
    with pytest.raises(DataFormatError) as err:
        loader(path)
    assert err.value.line == 3001 and "0xff" in str(err.value)


class TestDenseFormat:
    def test_single_cell(self, tmp_path):
        path = _write(tmp_path, "f.csv", "y,f1\n3,1\n")
        A, y = _load_dense(path)
        np.testing.assert_allclose(A, [[1.0]])
        np.testing.assert_allclose(y, [3.0])

    def test_headerless(self, tmp_path):
        path = _write(tmp_path, "f.csv", "3,1,2\n4,5,6\n")
        A, y = _load_dense(path)
        np.testing.assert_allclose(A, [[1, 2], [5, 6]])
        np.testing.assert_allclose(y, [3, 4])

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path, "f.csv", "3,1\n4,5,6\n")
        with pytest.raises(DataFormatError):
            _load_dense(path)

    def test_missing_file(self):
        with pytest.raises(DataFormatError):
            load(DatasetFile(path="/nonexistent/file.csv"))

    def test_bad_cell_names_its_file_line(self, tmp_path):
        path = _write(tmp_path, "f.csv", "y,x1\n\n1,2\n  \n3,x\n")
        with pytest.raises(DataFormatError) as err:
            _load_dense(path)
        assert (err.value.line, err.value.column) == (5, 2)

    def test_plain_file_is_parsed_by_numpy(self, tmp_path, monkeypatch):
        def fail(path):
            raise AssertionError("the per-cell parser ran")

        monkeypatch.setattr(dataio, "_parse_dense", fail)
        path = _write(tmp_path, "f.csv", "y,x1,x2\r\n1,2,3\r\n\r\n-4.5,nan,1e400\r\n")
        A, y = _load_dense(path)
        assert np.array_equal(A, [[2, 3], [np.nan, np.inf]], equal_nan=True)
        assert np.array_equal(y, [1, -4.5])

    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        p, _ = gen_gaussian_data(SyntheticSpec(n=24, d=3, rho=0.7, seed=41))
        path = tmp_path / "inst.csv"
        save_dense_csv(p, path)
        back = load(DatasetFile(path=str(path)))
        assert np.array_equal(back.A, p.A)
        assert np.array_equal(back.y, p.y)


class TestOneHot:
    def test_expansion(self):
        Y = _one_hot(np.array([0.0, 2.0]), 3, lambda row: row + 1)
        np.testing.assert_allclose(Y, [[1, 0, 0], [0, 0, 1]])

    def test_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            _one_hot(np.array([0.0, 3.0]), 3, lambda row: row + 1)

    def test_non_integer(self):
        with pytest.raises(LabelOutOfRangeError):
            _one_hot(np.array([0.5]), 3, lambda row: row + 1)

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
    def test_non_finite_label_names_its_line(self, tmp_path, label):
        path = _write(tmp_path, "f.csv", f"0,1,2\n{label},2,3\n1,3,1\n2,1,1\n")
        with pytest.raises(LabelOutOfRangeError) as err:
            load(DatasetFile(path=str(path), onehot=3))
        assert err.value.line == 2 and label in str(err.value)

    @pytest.mark.parametrize("fmt, text, line", [
        ("csv", "y,x1,x2\n0,1,2\n\nnan,2,3\n1,3,1\n2,1,1\n", 4),
        ("csv", "\n0,1,2\n  \n1,2,3\n7,3,1\n", 5),
        ("sparse", "0 1:1 2:2\n\n1 1:2 2:3\n\n\n0.5 1:3\n2 2:1\n", 6),
    ])
    def test_bad_label_names_its_file_line(self, tmp_path, fmt, text, line):
        path = _write(tmp_path, "f.txt", text)
        with pytest.raises(LabelOutOfRangeError) as err:
            load(DatasetFile(path=str(path), format=fmt, onehot=3))
        assert err.value.line == line

    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(42)
        rows = []
        for i in range(12):
            feats = ",".join(str(v) for v in rng.standard_normal(3))
            rows.append(f"{i % 3},{feats}")
        path = _write(tmp_path, "f.csv", "\n".join(rows) + "\n")
        p = load(DatasetFile(path=str(path), onehot=3))
        assert p.y.shape == (12, 3)
        assert np.all(p.y.sum(axis=1) == 1.0)

    @pytest.mark.parametrize("kwargs", [dict(onehot=1), dict(format="xml")])
    def test_descriptor_errors_are_typed(self, kwargs):
        with pytest.raises(InvalidInputError):
            DatasetFile(path="f.csv", **kwargs)


def _cell(family, m, estimator, value=1.0):
    return CellResult(
        family=family, m=m, estimator=estimator, reps=2,
        mean_pred_err=value, std_pred_err=value / 10,
        mean_sa_err=value / 2, std_sa_err=value / 20,
        mean_shrink_factor=0.9,
        bound_exact_classical=value * 2, bound_lower_general=value / 3,
        bound_upper_sa=None)


class TestResultsCsv:
    def test_single_row(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results_csv([_cell("gaussian", 60, "classical")], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("gaussian,60,classical,2,1.0,0.1,0.5,0.05,0.9,2.0,")
        assert lines[1].endswith(",NA")

    def test_rerun_byte_identical(self, tmp_path):
        cells = [_cell("gaussian", m, e) for m in (40, 60) for e in ("classical", "shrinkage")]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_results_csv(cells, p1)
        write_results_csv(list(reversed(cells)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_row_ordering(self, tmp_path):
        cells = [
            _cell(f, m, e)
            for f in ("uniform", "gaussian", "srht")
            for m in (200, 100, 400, 300)
            for e in ("shrinkage", "classical")
        ]
        path = tmp_path / "out.csv"
        write_results_csv(cells, path)
        rows = [line.split(",")[:3] for line in path.read_text().splitlines()[1:]]
        assert len(rows) == 24
        keys = [(f, int(m), e) for f, m, e in rows]
        assert keys == sorted(keys)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results_csv([], tmp_path / "out.csv")


_NUMBERS = ["0", "1", "2", "-1.5", "0.25", "3e2", "-7"]
_CELLS = _NUMBERS + ["1e308", "-1e308", "nan", "inf", "x", ""]
_JUNK = [b",", b":", b" ", b"\n", b"\r", b"\xff", b"\xc3", b"0:1", b"1000000000000:1", b"y,x1"]


@st.composite
def _dataset_files(draw):
    """A small csv or sparse file: a grid of cells, then a few junk byte strings spliced in."""
    fmt = draw(st.sampled_from(["csv", "sparse"]))
    width = draw(st.integers(1, 4))
    cell = st.sampled_from(_NUMBERS if draw(st.booleans()) else _CELLS)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=8))
    if fmt == "csv":
        text = "".join(",".join(row) + "\n" for row in rows)
    else:
        text = "".join(" ".join([row[0]] + [f"{j}:{v}" for j, v in enumerate(row[1:], 1)]) + "\n"
                       for row in rows)
    data = text.encode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_JUNK)) + data[at:]
    return fmt, data, draw(st.one_of(st.none(), st.integers(2, 3)))


@settings(max_examples=200, deadline=None)
@given(_dataset_files())
def test_load_returns_an_instance_or_raises_a_typed_error(tmp_path_factory, case):
    fmt, data, onehot = case
    path = tmp_path_factory.mktemp("fuzz") / "data"
    path.write_bytes(data)
    try:
        p = load(DatasetFile(path=str(path), format=fmt, onehot=onehot))
    except SketchLSError:
        return
    assert isinstance(p, ProblemInstance)


# cells Python's float accepts and numpy's loadtxt does not ("1_0", "1\x85"), or both
# reject ("#", "x", ""), or both read alike ("-nan", "1e400", " 1 ")
_CSV_CELLS = _NUMBERS + [" 1 ", "\t4", "1_0", "1__0", "nan", "-nan", "NaN", "inf", "-Infinity",
                         "1e400", "-1e-400", "#", "#1", "", "x", "0x1", "1\x85", "\uff11"]
_EXTRA_LINES = ["", "  ", "\t", "\x0c", "#", "# 1,2", "#1,2,3"]  # blank, or a comment to numpy


@st.composite
def _csv_texts(draw):
    """Small csv text: optional header, blank and '#' lines, ragged rows, three line ends."""
    width = draw(st.integers(1, 4))
    cell = st.sampled_from(_NUMBERS if draw(st.booleans()) else _CSV_CELLS)
    widths = st.integers(1, 4) if draw(st.booleans()) else st.just(width)
    rows = draw(st.lists(widths.flatmap(lambda w: st.lists(cell, min_size=w, max_size=w)),
                         min_size=1, max_size=6))
    lines = [",".join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["y", "y,x1", "y,x1,x2", "y,1", "1_0,y"])))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_EXTRA_LINES)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


def _bits(a):
    return a.shape, a.view(np.uint64).tolist()


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except SketchLSError as exc:
        return None, (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
def test_dense_load_matches_the_per_cell_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    data, error = _outcome(_parse_dense, path)
    loaded, load_error = _outcome(_load_dense, path)
    p, p_error = _outcome(load, DatasetFile(path=str(path)))
    if error is not None:
        assert load_error == p_error == error
        return
    A, y = loaded
    assert (_bits(A), _bits(y)) == (_bits(data[:, 1:]), _bits(data[:, 0]))
    expected, expected_error = _outcome(ProblemInstance, data[:, 1:], data[:, 0])
    assert p_error == expected_error
    if p is not None:
        assert (_bits(p.A), _bits(p.y)) == (_bits(expected.A), _bits(expected.y))
