"""Dataset ingestion and result persistence.

Two input formats: sparse text ("label idx:val idx:val ..." with 1-based
feature indices, missing entries zero) and dense CSV (first column the
target, remaining columns features, optional header auto-detected).
Integer labels can be expanded to a one-hot target matrix.  Everything
is densified in memory; floats are serialized with their shortest
round-trip decimal representation so that rewrites diff cleanly.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ProblemInstance
from .errors import DataFormatError, DimensionMismatchError, InvalidInputError, LabelOutOfRangeError

FORMAT_SPARSE = "sparse"
FORMAT_DENSE = "csv"
FORMATS = (FORMAT_SPARSE, FORMAT_DENSE)


@dataclass(frozen=True)
class DatasetFile:
    """Descriptor of an on-disk dataset.

    `onehot` turns integer labels in [0, k) into an n-by-k indicator
    target matrix; None keeps the scalar target.
    """

    path: str
    format: str = FORMAT_DENSE
    onehot: int | None = None

    def __post_init__(self):
        if self.format not in FORMATS:
            raise InvalidInputError(f"unknown format {self.format!r}; choose from {FORMATS}")
        if self.onehot is not None and self.onehot < 2:
            raise InvalidInputError(f"onehot class count must be >= 2, got {self.onehot}")


def _parse_float(token: str, line: int, column: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataFormatError(f"not a number: {token!r}", line=line, column=column) from None


def _lines(path: Path):
    """(line number, line) pairs of a UTF-8 text file, read as a stream.

    A byte that is not UTF-8 raises DataFormatError with its line, found by
    decoding the whole file again on that error path only.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        raw = path.read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"byte {raw[exc.start]:#04x} is not UTF-8",
                                  line=raw.count(b"\n", 0, exc.start) + 1) from None
        raise  # the file changed between the two reads


def _load_sparse(path: Path) -> tuple[np.ndarray, np.ndarray]:
    labels = []
    rows = []  # one {index: value} dict per row
    max_index = 0
    for lineno, raw in _lines(path):
        tokens = raw.split()
        if not tokens:
            continue
        labels.append(_parse_float(tokens[0], lineno, 1))
        row = {}
        for col, token in enumerate(tokens[1:], start=2):
            idx, sep, val = token.partition(":")
            if not sep:
                raise DataFormatError(f"expected idx:val, got {token!r}", line=lineno, column=col)
            try:
                i = int(idx)
            except ValueError:
                raise DataFormatError(f"bad feature index {idx!r}", line=lineno, column=col) from None
            if i < 1:
                raise DataFormatError(f"feature indices are 1-based, got {i}", line=lineno, column=col)
            if i in row:
                raise DataFormatError(f"feature index {i} repeats", line=lineno, column=col)
            row[i] = _parse_float(val, lineno, col)
            max_index = max(max_index, i)
        rows.append(row)
    if not rows:
        raise DataFormatError("no data rows", line=1)
    # checked before allocating: the n x d matrix is dense, and d comes from the file
    if not len(rows) > max_index >= 1:
        raise DimensionMismatchError(
            f"need n > d >= 1, got A with shape {(len(rows), max_index)}")
    A = np.zeros((len(rows), max_index))
    for r, row in enumerate(rows):
        for i, v in row.items():
            A[r, i - 1] = v
    return A, np.array(labels)


def _numeric(line: str) -> bool:
    """Whether every comma-separated cell of `line` parses as a float (else it is a header)."""
    try:
        [float(cell) for cell in line.split(",")]
    except ValueError:
        return False
    return True


def _parse_dense(path: Path) -> np.ndarray:
    """The dense CSV as one array, parsed cell by cell.

    The reference for `_load_dense`: it names the file line and column of
    the first bad cell, and it accepts what Python's `float` accepts.
    """
    lines = [(lineno, line.rstrip("\n")) for lineno, line in _lines(path) if line.strip()]
    if not lines:
        raise DataFormatError("no data rows", line=1)
    start = 0 if _numeric(lines[0][1]) else 1  # 1: a header row
    if start == len(lines):
        raise DataFormatError("header but no data rows", line=lines[0][0])
    width = len(lines[start][1].split(","))
    data = np.empty((len(lines) - start, width))
    for r, (lineno, line) in enumerate(lines[start:]):
        cells = line.split(",")
        if len(cells) != width:
            raise DataFormatError(f"expected {width} fields, got {len(cells)}", line=lineno)
        for c, cell in enumerate(cells, start=1):
            data[r, c - 1] = _parse_float(cell, lineno, c)
    if width < 2:
        raise DataFormatError("need a target column plus at least one feature",
                              line=lines[start][0])
    return data


def _header_lines(path: Path) -> int:
    """How many lines of a dense CSV end with its header: 0 when it has none."""
    for lineno, line in _lines(path):
        if line.strip():
            return 0 if _numeric(line.rstrip("\n")) else lineno
    raise DataFormatError("no data rows", line=1)


def _load_dense(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse with numpy; fall back to `_parse_dense` for its error or for what numpy rejects."""
    skip = _header_lines(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns when no data row follows
            data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2, comments=None,
                              encoding="utf-8")
    except (ValueError, UserWarning):  # UnicodeDecodeError is a ValueError
        data = None
    if data is None or data.shape[1] < 2:
        data = _parse_dense(path)
    return data[:, 1:], data[:, 0]


def _data_line(path: Path, row: int, fmt: str) -> int:
    """The file line of data row `row`: blank lines and a csv header are not rows."""
    skip = 0 if fmt == FORMAT_SPARSE or _header_lines(path) == 0 else 1
    lines = (lineno for lineno, line in _lines(path) if line.strip())
    return next(itertools.islice(lines, skip + row, None))


def _one_hot(labels: np.ndarray, k: int, line: Callable[[int], int]) -> np.ndarray:
    """The n-by-k indicator matrix of `labels`; `line(row)` names a bad label's file line."""
    Y = np.zeros((labels.shape[0], k))
    for r, label in enumerate(labels):
        # the range test comes first: it is False for NaN and infinity, which int() rejects
        if not (0 <= label < k and label == int(label)):
            raise LabelOutOfRangeError(f"label {float(label)!r} not an integer in [0, {k})",
                                       line=line(r))
        Y[r, int(label)] = 1.0
    return Y


def load(file: DatasetFile) -> ProblemInstance:
    """Load a dataset file into a validated problem instance.

    With `file.onehot` the target is the indicator matrix; the labels are not kept.
    """
    path = Path(file.path)
    if not path.is_file():
        raise DataFormatError(f"no such file: {path}")
    A, y = (_load_sparse if file.format == FORMAT_SPARSE else _load_dense)(path)
    if file.onehot is not None:
        y = _one_hot(y, file.onehot, lambda row: _data_line(path, row, file.format))
    return ProblemInstance(A, y)


def save_dense_csv(p: ProblemInstance, path) -> None:
    """Write a vector-target instance in the dense CSV format."""
    if p.y.ndim != 1:
        raise ValueError("dense CSV stores a single target column; instance has a matrix target")
    lines = ["y," + ",".join(f"x{j}" for j in range(1, p.d + 1))]
    for i in range(p.n):
        lines.append(",".join([repr(float(p.y[i]))] + [repr(float(v)) for v in p.A[i]]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# CellResult fields written after family, m, estimator and reps, in column order
_STAT_COLUMNS = ("mean_pred_err", "std_pred_err", "mean_sa_err", "std_sa_err",
                 "mean_shrink_factor", "bound_exact_classical", "bound_lower_general",
                 "bound_upper_sa")
CSV_HEADER = ",".join(("family", "m", "estimator", "reps") + _STAT_COLUMNS)


def _fmt(value) -> str:
    return "NA" if value is None else repr(float(value))


def write_results_csv(cells, path) -> None:
    """Write per-cell experiment statistics as CSV.

    Rows are sorted by (family, m, estimator) so reruns produce
    byte-identical files; undefined statistics and bounds are "NA".
    """
    cells = sorted(cells, key=lambda c: (c.family, c.m, c.estimator))
    if not cells:
        raise ValueError("no results to write")
    lines = [CSV_HEADER]
    for c in cells:
        stats = [_fmt(getattr(c, name)) for name in _STAT_COLUMNS]
        lines.append(",".join([c.family, str(c.m), c.estimator, str(c.reps)] + stats))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
