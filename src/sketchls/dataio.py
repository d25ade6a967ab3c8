"""Dataset ingestion and result persistence.

Two input formats: sparse text ("label idx:val idx:val ..." with 1-based
feature indices, missing entries zero) and dense CSV (first column the
target, remaining columns features, optional header auto-detected).
Integer labels can be expanded to a one-hot target matrix.  Everything
is densified in memory; floats are serialized with their shortest
round-trip decimal representation so that rewrites diff cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ProblemInstance
from .errors import DataFormatError, InvalidInputError, LabelOutOfRangeError

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


def _load_sparse(path: Path) -> tuple[np.ndarray, np.ndarray]:
    labels = []
    rows = []  # list of (indices, values)
    max_index = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            labels.append(_parse_float(tokens[0], lineno, 1))
            indices = []
            values = []
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
                indices.append(i)
                values.append(_parse_float(val, lineno, col))
                max_index = max(max_index, i)
            rows.append((indices, values))
    if not rows:
        raise DataFormatError("no data rows", line=1)
    A = np.zeros((len(rows), max_index))
    for r, (indices, values) in enumerate(rows):
        for i, v in zip(indices, values):
            A[r, i - 1] = v
    return A, np.array(labels)


def _load_dense(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise DataFormatError("no data rows", line=1)
    first = lines[0].split(",")
    try:
        [float(cell) for cell in first]
        start = 0
    except ValueError:
        start = 1  # header row
    if start == len(lines):
        raise DataFormatError("header but no data rows", line=1)
    width = len(lines[start].split(","))
    data = np.empty((len(lines) - start, width))
    for r, line in enumerate(lines[start:], start=start + 1):
        cells = line.split(",")
        if len(cells) != width:
            raise DataFormatError(f"expected {width} fields, got {len(cells)}", line=r)
        for c, cell in enumerate(cells, start=1):
            data[r - start - 1, c - 1] = _parse_float(cell, r, c)
    if width < 2:
        raise DataFormatError("need a target column plus at least one feature", line=start + 1)
    return data[:, 1:], data[:, 0]


def _one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    Y = np.zeros((labels.shape[0], k))
    for r, label in enumerate(labels):
        cls = int(label)
        if cls != label or not 0 <= cls < k:
            raise LabelOutOfRangeError(f"label {label!r} not an integer in [0, {k})", line=r + 1)
        Y[r, cls] = 1.0
    return Y


def load(file: DatasetFile) -> ProblemInstance:
    """Load a dataset file into a validated problem instance."""
    path = Path(file.path)
    if not path.is_file():
        raise DataFormatError(f"no such file: {path}")
    if file.format == FORMAT_SPARSE:
        A, y = _load_sparse(path)
    else:
        A, y = _load_dense(path)
    if file.onehot is not None:
        return ProblemInstance(A, y=y, Y=_one_hot(y, file.onehot))
    return ProblemInstance(A, y=y)


def save_dense_csv(p: ProblemInstance, path) -> None:
    """Write a vector-target instance in the dense CSV format."""
    if p.y is None:
        raise ValueError("dense CSV stores a single target column; instance has only Y")
    lines = ["y," + ",".join(f"x{j}" for j in range(1, p.d + 1))]
    for i in range(p.n):
        lines.append(",".join([repr(float(p.y[i]))] + [repr(float(v)) for v in p.A[i]]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


CSV_HEADER = ("family,m,estimator,reps,mean_pred_err,std_pred_err,mean_sa_err,std_sa_err,"
              "mean_shrink_factor,bound_exact_classical,bound_lower_general,bound_upper_sa")


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
        lines.append(",".join([
            c.family,
            str(c.m),
            c.estimator,
            str(c.reps),
            _fmt(c.mean_pred_err),
            _fmt(c.std_pred_err),
            _fmt(c.mean_sa_err),
            _fmt(c.std_sa_err),
            _fmt(c.mean_shrink_factor),
            _fmt(c.bound_exact_classical),
            _fmt(c.bound_lower_general),
            _fmt(c.bound_upper_sa),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
