"""Sparse/dense vector types and the O(k) kernels the solvers are built from.

A feature vector with k nonzeros out of n dimensions is held as a sorted
index/value pair list (``SparseVec``), which is also the read-only view a
``Dataset`` hands out for one of its rows; model-side accumulators are plain
float64 numpy arrays (``DenseVec``).  Every kernel optionally charges a
``TouchCounter`` so tests can assert that training loops never perform an
O(n) operation: ``dot`` and ``axpy`` charge only ``sparse_touches``, while
the one-time dense passes (``squared_norm``, ``finalize_combine``) charge
``outside_dense_touches``.  Zero-filled allocations are memory management,
not vector arithmetic, and charge nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionError, EmptyDatasetError

if TYPE_CHECKING:
    from .data_io import Dataset

# Dense vectors are bare float64 arrays; the alias documents intent.
DenseVec = np.ndarray


@dataclass
class TouchCounter:
    """Tallies of vector components read or written, split by locality.

    ``loop_dense_touches`` must stay 0 for the sparse solvers; only the
    naive dense reference implementations charge it.
    """

    loop_dense_touches: int = 0
    outside_dense_touches: int = 0
    sparse_touches: int = 0


class SparseVec:
    """Immutable sparse vector: strictly increasing indices, values, and dim.

    Explicit zero values are tolerated (the file parser drops them, the
    algebra does not care).
    """

    __slots__ = ("indices", "values", "dim")

    def __init__(self, indices, values, dim: int):
        idx = np.array(indices, dtype=np.int64, copy=True)
        val = np.array(values, dtype=np.float64, copy=True)
        check_csr(np.array([0, idx.size]), idx, val, dim)
        idx.setflags(write=False)
        val.setflags(write=False)
        self.indices = idx
        self.values = val
        self.dim = dim

    @classmethod
    def view(cls, indices: np.ndarray, values: np.ndarray, dim: int) -> "SparseVec":
        """Wrap read-only arrays that are already valid, without copying or checking."""
        x = cls.__new__(cls)
        x.indices, x.values, x.dim = indices, values, dim
        return x

    @classmethod
    def from_dense(cls, v: DenseVec) -> "SparseVec":
        """Sparsify: keep exactly the nonzero components of ``v``."""
        v = np.asarray(v, dtype=np.float64)
        idx = np.nonzero(v)[0]
        return cls(idx, v[idx], v.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def densify(self) -> DenseVec:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out

    def __repr__(self) -> str:
        pairs = ", ".join(f"{i}:{v}" for i, v in zip(self.indices, self.values))
        return f"SparseVec({{{pairs}}}, dim={self.dim})"


def check_csr(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, dim: int) -> None:
    """Raise unless ``indptr`` runs monotonically from 0 to the number of nonzeros
    and the indices of every row it delimits are strictly increasing in [0, dim)."""
    if dim < 0:
        raise ValueError(f"dim must be >= 0, got {dim}")
    if indptr.ndim != 1 or indices.ndim != 1 or values.shape != indices.shape:
        raise ValueError("indices and values must be 1-d and equal length")
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        raise ValueError("indptr must run monotonically from 0 to the number of nonzeros")
    if indices.size and (indices.min() < 0 or indices.max() >= dim):
        raise DimensionError(
            f"index out of range: [{indices.min()}, {indices.max()}] not within [0, {dim})"
        )
    rising = np.diff(indices) > 0
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True  # a row begins
    if not rising.all():
        raise ValueError("indices must be strictly increasing")


def _check_dim(v: DenseVec, x: SparseVec) -> None:
    if x.dim != v.shape[0]:
        raise DimensionError(f"sparse dim {x.dim} != dense length {v.shape[0]}")


def dot(v: DenseVec, x: SparseVec, counter: TouchCounter | None = None) -> float:
    """Sparse-dense dot product, O(k)."""
    _check_dim(v, x)
    if counter is not None:
        counter.sparse_touches += x.nnz
    return float(v[x.indices].dot(x.values))


def axpy(v: DenseVec, alpha: float, x: SparseVec, counter: TouchCounter | None = None) -> None:
    """In-place v += alpha * x, touching only x's k nonzero slots."""
    _check_dim(v, x)
    if counter is not None:
        counter.sparse_touches += x.nnz
    v[x.indices] += alpha * x.values


def mean_vector(data: "Dataset", counter: TouchCounter | None = None) -> DenseVec:
    """Mean feature vector of a dataset.

    Sums the (1/m)-scaled nonzeros per feature in row order: O(m k) sparse
    touches plus one O(n) allocation, no dense arithmetic pass.
    """
    m = data.m
    if m == 0:
        raise EmptyDatasetError("mean_vector needs at least one example")
    if counter is not None:
        counter.sparse_touches += data.indices.size
    # astype: bincount gives int64 zeros when there are no nonzeros at all
    weights = data.values * (1.0 / m)
    return np.bincount(data.indices, weights, data.dim).astype(np.float64, copy=False)


def squared_norm(v: DenseVec, counter: TouchCounter | None = None) -> float:
    """Sum of squares of a dense vector; one O(n) pass."""
    if counter is not None:
        counter.outside_dense_touches += v.shape[0]
    return float(v @ v)


def finalize_combine(
    coeffs: Sequence[tuple[float, DenseVec]], counter: TouchCounter | None = None
) -> DenseVec:
    """Linear combination sum(alpha_j * v_j) as one O(n) dense pass.

    This is the shape of every one-time model recovery the solvers perform
    after their loops finish.
    """
    if not coeffs:
        raise ValueError("finalize_combine needs at least one (coeff, vector) pair")
    n = coeffs[0][1].shape[0]
    for _, vec in coeffs:
        if vec.shape[0] != n:
            raise DimensionError(f"vector length {vec.shape[0]} != {n}")
    if counter is not None:
        counter.outside_dense_touches += n
    out = coeffs[0][0] * coeffs[0][1]
    for alpha, vec in coeffs[1:]:
        out += alpha * vec
    return out
