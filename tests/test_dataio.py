import numpy as np
import pytest

from sketchls import DatasetFile, load, save_dense_csv
from sketchls.dataio import CSV_HEADER, _load_dense, _load_sparse, _one_hot, write_results_csv
from sketchls.datagen import SyntheticSpec, gen_gaussian_data
from sketchls.errors import DataFormatError, InvalidInputError, LabelOutOfRangeError
from sketchls.harness import CellResult


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSparseFormat:
    def test_basic_line(self, tmp_path):
        path = _write(tmp_path, "f.txt", "2.5 1:1 3:4\n")
        A, y = _load_sparse(path)
        np.testing.assert_allclose(A, [[1.0, 0.0, 4.0]])
        np.testing.assert_allclose(y, [2.5])

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

    def test_zero_index_rejected(self, tmp_path):
        path = _write(tmp_path, "f.txt", "1.0 0:2\n")
        with pytest.raises(DataFormatError):
            _load_sparse(path)

    def test_missing_separator(self, tmp_path):
        path = _write(tmp_path, "f.txt", "1.0 12\n")
        with pytest.raises(DataFormatError):
            _load_sparse(path)


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

    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        p, _ = gen_gaussian_data(SyntheticSpec(n=24, d=3, rho=0.7, seed=41))
        path = tmp_path / "inst.csv"
        save_dense_csv(p, path)
        back = load(DatasetFile(path=str(path)))
        assert np.array_equal(back.A, p.A)
        assert np.array_equal(back.y, p.y)


class TestOneHot:
    def test_expansion(self):
        Y = _one_hot(np.array([0.0, 2.0]), 3)
        np.testing.assert_allclose(Y, [[1, 0, 0], [0, 0, 1]])

    def test_out_of_range(self):
        with pytest.raises(LabelOutOfRangeError):
            _one_hot(np.array([0.0, 3.0]), 3)

    def test_non_integer(self):
        with pytest.raises(LabelOutOfRangeError):
            _one_hot(np.array([0.5]), 3)

    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(42)
        rows = []
        for i in range(12):
            feats = ",".join(str(v) for v in rng.standard_normal(3))
            rows.append(f"{i % 3},{feats}")
        path = _write(tmp_path, "f.csv", "\n".join(rows) + "\n")
        p = load(DatasetFile(path=str(path), onehot=3))
        assert p.Y.shape == (12, 3)
        assert np.all(p.Y.sum(axis=1) == 1.0)
        assert p.target is p.Y

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
