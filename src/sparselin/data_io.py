"""LIBSVM-format dataset ingestion and the versioned model file format.

Data files: one example per line, ``<label> <idx>:<val> ...`` with 1-based,
strictly increasing indices (converted to 0-based internally).  Lines that
are empty or start with ``#`` are skipped.  Explicit ``:0`` values are
dropped so the nonzero count stays meaningful.  A ``nan`` or ``inf`` label or
value is a parse error.

A parsed ``Dataset`` is one CSR (compressed sparse row) block of four
contiguous arrays, as in LIBLINEAR: row i holds the 0-based feature indices
``indices[indptr[i]:indptr[i+1]]`` (int64), their ``values`` (float64) and
the label ``labels[i]`` (float64).  The parser appends straight into flat
buffers and hands them to numpy without copying; ``Dataset.row(i)`` is a
read-only ``SparseVec`` view of one row.

Model files (text, version ``v1``)::

    sparselin-model v1
    loss squared
    dim 3
    bias 2
    0:2
    2:-0.5

Floats are serialized with the shortest decimal representation that parses
back to the identical bits, so write/read round-trips are exact.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    DimensionError,
    EmptyDatasetError,
    FormatError,
    IndexOrderError,
    ParseError,
)
from .losses import LossKind
from .solvers import LinearModel
from .sparse_core import SparseVec, check_csr

MODEL_MAGIC = "sparselin-model v1"


@dataclass(eq=False)
class Dataset:
    """Labeled sparse examples in CSR layout, sharing one feature-space dimension.

    Validated once, here: one label per row, ``indptr`` runs monotonically
    from 0 to the number of nonzeros, and each row's indices are strictly
    increasing and lie in [0, dim).  The arrays are held as read-only views.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    dim: int

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int64),
                            ("values", np.float64), ("labels", np.float64)):
            a = np.asarray(getattr(self, name), dtype=dtype).view()
            a.setflags(write=False)  # on a view, so a caller's own array stays writable
            setattr(self, name, a)
        if self.labels.shape != (self.indptr.size - 1,):
            raise ValueError("need exactly one label per row")
        check_csr(self.indptr, self.indices, self.values, self.dim)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[SparseVec, float]], dim: int) -> "Dataset":
        """Pack (SparseVec, label) pairs into one dataset of dimension ``dim``."""
        rows = list(rows)
        for i, (x, _) in enumerate(rows):
            if x.dim != dim:
                raise DimensionError(f"example {i + 1} has dim {x.dim}, dataset dim is {dim}")
        xs = [x for x, _ in rows]
        return cls(np.cumsum([0] + [x.nnz for x in xs]),
                   np.concatenate([np.empty(0, np.int64)] + [x.indices for x in xs]),
                   np.concatenate([np.empty(0)] + [x.values for x in xs]),
                   [y for _, y in rows], dim)

    @property
    def m(self) -> int:
        return self.labels.size

    def row(self, i: int) -> SparseVec:
        """Example i's features as a read-only view; nothing is copied or re-checked."""
        # Python int bounds: slicing with them is cheaper than with numpy scalars
        lo, hi = self.indptr.item(i), self.indptr.item(i + 1)
        return SparseVec.view(self.indices[lo:hi], self.values[lo:hi], self.dim)


def fmt_float(x: float) -> str:
    """Shortest decimal that round-trips; integral values drop the '.0'."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _parse_feature(tok: str, line_no: int) -> tuple[int, float]:
    idx_s, sep, val_s = tok.partition(":")
    if not sep:
        raise ParseError(line_no, f"expected <index>:<value>, got {tok!r}")
    try:
        idx = int(idx_s)
    except ValueError:
        raise ParseError(line_no, f"bad feature index {idx_s!r}") from None
    if idx < 1:
        raise ParseError(line_no, f"feature indices are 1-based, got {idx}")
    try:
        val = float(val_s)
    except ValueError:
        raise ParseError(line_no, f"bad feature value {val_s!r}") from None
    if not math.isfinite(val):
        raise ParseError(line_no, f"non-finite feature value {val_s!r}")
    return idx - 1, val


def parse_libsvm(
    lines: Iterable[str],
    dim_override: int | None = None,
    require_labels: bool = True,
) -> Dataset:
    """Parse a LIBSVM text stream into a Dataset.

    ``dim_override`` fixes the dimension (indices at or beyond it are an
    error); otherwise the dimension is max observed index + 1.  With
    ``require_labels=False`` a line whose first token contains ':' is
    treated as all features with a placeholder label of 0 (prediction
    inputs).
    """
    indptr, indices, values, labels = array("q", [0]), array("q"), array("d"), array("d")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if require_labels or ":" not in tokens[0]:
            try:
                y = float(tokens[0])
            except ValueError:
                raise ParseError(line_no, f"bad label {tokens[0]!r}") from None
            if not math.isfinite(y):
                raise ParseError(line_no, f"non-finite label {tokens[0]!r}")
            feats = tokens[1:]
        else:
            y = 0.0
            feats = tokens
        prev = -1
        for tok in feats:
            idx, val = _parse_feature(tok, line_no)
            if idx <= prev:
                raise IndexOrderError(
                    line_no, f"index {idx + 1} after {prev + 1}: must be strictly increasing"
                )
            prev = idx
            if dim_override is not None and idx >= dim_override:
                raise DimensionError(
                    f"line {line_no}: index {idx + 1} exceeds dimension {dim_override}"
                )
            if val == 0.0:
                continue
            indices.append(idx)
            values.append(val)
        indptr.append(len(indices))
        labels.append(y)
    if not labels:
        raise EmptyDatasetError("no data lines found")
    # frombuffer shares the buffers' memory: the arrays are converted without a copy
    indptr, indices, values, labels = (np.frombuffer(a, dtype=a.typecode)
                                       for a in (indptr, indices, values, labels))
    dim = dim_override if dim_override is not None else int(indices.max(initial=-1)) + 1
    return Dataset(indptr, indices, values, labels, dim)


def write_libsvm(data: Dataset, stream: IO[str]) -> None:
    """Inverse of parse_libsvm (indices back to 1-based)."""
    for i, y in enumerate(data.labels.tolist()):
        x = data.row(i)
        feats = (f" {j + 1}:{fmt_float(v)}" for j, v in zip(x.indices.tolist(), x.values.tolist()))
        stream.write(fmt_float(y) + "".join(feats) + "\n")


def load_dataset(
    path: str, dim_override: int | None = None, require_labels: bool = True
) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, dim_override, require_labels)


def write_model(model: LinearModel, stream: IO[str]) -> None:
    if not math.isfinite(model.b) or not np.all(np.isfinite(model.w)):
        raise FormatError("model contains non-finite values")
    stream.write(MODEL_MAGIC + "\n")
    stream.write(f"loss {model.loss.value}\n")
    stream.write(f"dim {model.dim}\n")
    stream.write(f"bias {fmt_float(model.b)}\n")
    for i in np.nonzero(model.w)[0]:
        stream.write(f"{i}:{fmt_float(model.w[i])}\n")


def _model_lines(stream: Iterable[str]) -> Iterator[tuple[int, str]]:
    for line_no, raw in enumerate(stream, start=1):
        yield line_no, raw.rstrip("\r\n")


def read_model(stream: Iterable[str]) -> LinearModel:
    lines = _model_lines(stream)

    def next_line(what: str) -> tuple[int, str]:
        try:
            return next(lines)
        except StopIteration:
            raise FormatError(f"unexpected end of model file, expected {what}") from None

    line_no, magic = next_line("header")
    if magic != MODEL_MAGIC:
        raise FormatError(f"unknown model version {magic!r}", line_no)

    line_no, loss_line = next_line("loss")
    if not loss_line.startswith("loss "):
        raise FormatError(f"expected 'loss <name>', got {loss_line!r}", line_no)
    loss_name = loss_line[5:]
    try:
        loss = LossKind(loss_name)
    except ValueError:
        raise FormatError(f"unknown loss {loss_name!r}", line_no) from None

    line_no, dim_line = next_line("dim")
    try:
        assert dim_line.startswith("dim ")
        dim = int(dim_line[4:])
        assert dim >= 0
    except (AssertionError, ValueError):
        raise FormatError(f"expected 'dim <n>', got {dim_line!r}", line_no) from None

    line_no, bias_line = next_line("bias")
    try:
        assert bias_line.startswith("bias ")
        bias = float(bias_line[5:])
    except (AssertionError, ValueError):
        raise FormatError(f"expected 'bias <float>', got {bias_line!r}", line_no) from None
    if not math.isfinite(bias):
        raise FormatError("bias is not finite", line_no)

    w = np.zeros(dim)
    prev = -1
    for line_no, line in lines:
        idx_s, sep, val_s = line.partition(":")
        try:
            assert sep
            idx = int(idx_s)
            val = float(val_s)
        except (AssertionError, ValueError):
            raise FormatError(f"expected '<idx>:<float>', got {line!r}", line_no) from None
        if idx <= prev:
            raise FormatError(f"weight index {idx} out of order", line_no)
        if not 0 <= idx < dim:
            raise FormatError(f"weight index {idx} outside [0, {dim})", line_no)
        if not math.isfinite(val):
            raise FormatError(f"weight {idx} is not finite", line_no)
        prev = idx
        w[idx] = val
    return LinearModel(w=w, b=bias, loss=loss, dim=dim)


def load_model(path: str) -> LinearModel:
    with open(path, "r", encoding="utf-8") as fh:
        return read_model(fh)


def save_model(model: LinearModel, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_model(model, fh)
