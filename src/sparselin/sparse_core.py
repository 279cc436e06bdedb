"""Sparse/dense vector types, the CSR dataset and the O(k) kernels of the solvers.

A ``Dataset`` is one CSR (compressed sparse row) block of four contiguous
arrays, as in LIBLINEAR: row i holds the 0-based feature indices
``indices[indptr[i]:indptr[i+1]]`` (int64), their ``values`` (float64) and
the label ``labels[i]`` (float64).  The readers of ``data_io`` write
straight into these arrays.  ``Dataset.row(i)`` is a read-only ``SparseVec``
view of one row: a sorted index/value pair list of k nonzeros out of n
dimensions.  Model-side accumulators are plain float64 numpy arrays
(``DenseVec``) over a model's support, the n' features it uses, numbered by
their position in a sorted index array.  ``support`` finds a dataset's
features and ``lookup`` each index's position among them, which numbers a
training set's features and finds a scored index's weight, by the rule
stated once at ``directory``.  Nothing here counts its work: the solvers
charge a ``TouchCounter`` for it.

Every sparse dot product, one row's (``losses.predict``) or a dataset's
(``losses.scores``, compiled as ``sl_scores``), is summed left to right from
+0.0 as ``row_dots`` sums it, in the compiled loop's order (see
``solvers``).  The loop and the passes here span only the n' features the
data uses, so nothing on the train, predict or eval path is O(n): memory is
O(m k + n') for ``train``, and O(m + n') for ``predict`` and ``eval``, which
build no ``Dataset`` (``data_io.load_scores``).  ``check_csr`` and ``squared_norm`` walk their
input ``BLOCK`` items at a time and ``column_mean`` ``BLOCK_MEAN`` at a
time, so they add no temporary of its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, EmptyDatasetError, SparselinError

# Dense vectors are bare float64 arrays; the alias documents intent.
DenseVec = np.ndarray

# The largest dimension: a model's ``dim`` bounds only its indices, but its
# float64 vector (``LinearModel.dense``, ``mean_vector`` of a whole dataset)
# must be one numpy can describe, whose size in bytes fits in a signed
# pointer-sized integer.
MAX_DIM = np.iinfo(np.intp).max // 8
# The largest support: a position into one, 0..n' (n' for a miss), is an
# int32, as LIBLINEAR's feature numbers are C ints, in ``lookup``'s result,
# a ``directory`` and the training loop's numbered indices.
MAX_SUPPORT = 2**31 - 1

BLOCK_ROWS = 1024  # rows per ``row_dots`` step: its temporaries hold one block's nonzeros
BLOCK = 1 << 16  # items per step of the blocked passes, which bounds their temporaries
# items per ``np.add.at`` step of ``column_mean``: its temporaries, the scaled
# values and numpy's own, take about 0.07 MB, where BLOCK's 0.6 MB would set
# the peak of casgd's model recovery
BLOCK_MEAN = 1 << 12


@dataclass
class TouchCounter:
    """Tallies of vector components read or written, split by locality.

    ``solvers._train`` alone charges them, once per counted run, from the
    run's shape and the rows it drew: the mean and the loop as
    ``sparse_touches``, each one-time dense pass (theta = 1 + |xbar|^2 for
    casgd, the model's recovery) as ``outside_dense_touches`` at the model's
    dimension n, though the pass spans only the n' <= n features the data
    uses: the counts state the cost model O(n + T*k) for any n.  They charge
    the paper's terms: one mean and, at each step, k for q = xbar . x, where
    the implementation computes q once per row before the loop and the
    mean twice (for theta and q, and for the recovery).  Zero fills charge
    nothing.  ``loop_dense_touches`` stays 0 but for the dense oracle; the
    check on the compiled loop is the resident-page count of ``tests/test_pages.py``.
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
    def view(cls, indices: np.ndarray, values: np.ndarray, dim: int) -> SparseVec:
        """Wrap read-only arrays that are already valid, without copying or checking."""
        x = cls.__new__(cls)
        x.indices, x.values, x.dim = indices, values, dim
        return x

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


@dataclass(eq=False)
class Dataset:
    """Labeled sparse examples in CSR layout, sharing one feature-space dimension.

    Validated once, here: one label per row, ``indptr`` runs monotonically
    from 0 to the number of nonzeros, and each row's indices are strictly
    increasing and lie in [0, dim).  The arrays are held as read-only,
    C-contiguous views, as the kernel takes them (a strided one is copied).
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    dim: int

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int64),
                            ("values", np.float64), ("labels", np.float64)):
            a = np.ascontiguousarray(getattr(self, name), dtype=dtype).view()
            a.setflags(write=False)  # on a view, so a caller's own array stays writable
            setattr(self, name, a)
        if self.labels.shape != (self.indptr.size - 1,):
            raise ValueError("need exactly one label per row")
        check_csr(self.indptr, self.indices, self.values, self.dim)

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[SparseVec, float]], dim: int) -> Dataset:
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


def check_csr(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, dim: int) -> None:
    """Raise unless ``indptr`` runs monotonically from 0 to the number of nonzeros
    and the indices of every row it delimits are strictly increasing in [0, dim).
    Walks the arrays ``BLOCK`` items at a time: no temporary is larger."""
    if dim < 0:
        raise ValueError(f"dim must be >= 0, got {dim}")
    if dim > MAX_DIM:
        raise DimensionError(f"dimension {dim} exceeds the largest dimension {MAX_DIM}")
    if indptr.ndim != 1 or indices.ndim != 1 or values.shape != indices.shape:
        raise ValueError("indices and values must be 1-d and equal length")
    if indptr[0] != 0 or indptr[-1] != indices.size or any(
            np.any(w[1:] < w[:-1]) for _, w in _windows(indptr)):
        raise ValueError("indptr must run monotonically from 0 to the number of nonzeros")
    if indices.size and (indices.min() < 0 or indices.max() >= dim):
        raise DimensionError(
            f"index out of range: [{indices.min()}, {indices.max()}] not within [0, {dim})"
        )
    for lo, w in _windows(indices):
        # a position whose index does not rise above the one before it must begin a row
        falls = np.flatnonzero(w[1:] <= w[:-1]) + (lo + 1)
        if not np.array_equal(indptr[np.searchsorted(indptr, falls)], falls):
            raise ValueError("indices must be strictly increasing")


def _windows(a: np.ndarray):
    """(lo, a[lo:lo + BLOCK + 1]) for lo = 0, BLOCK, ... while a pair remains:
    each adjacent pair of ``a`` lies in one window."""
    return ((lo, a[lo:lo + BLOCK + 1]) for lo in range(0, a.size - 1, BLOCK))


def row_dots(v: DenseVec, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> DenseVec:
    """v . x for every CSR row x, summed left to right from +0.0 as the compiled
    loop sums it (``bincount`` adds each weight to its bin in input order)."""
    out = np.empty(indptr.size - 1)
    with np.errstate(over="ignore", invalid="ignore"):  # callers check finiteness
        for r0 in range(0, out.size, BLOCK_ROWS):
            bounds = indptr[r0:r0 + BLOCK_ROWS + 1]
            rows = np.arange(bounds.size - 1).repeat(bounds[1:] - bounds[:-1])
            span = slice(bounds.item(0), bounds.item(-1))
            out[r0:r0 + BLOCK_ROWS] = np.bincount(rows, v[indices[span]] * values[span],
                                                  bounds.size - 1)
    return out


def support(indices: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the int64 array ``indices``: a sort and
    an adjacent-difference mask, without ``np.unique``'s slower path."""
    ordered = np.sort(indices)
    first = np.empty(ordered.size, bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def directory(feats: np.ndarray) -> tuple | None:
    """The one check and choice of path behind every lookup in ``feats`` (sorted,
    distinct and nonnegative).  A support of more than ``MAX_SUPPORT`` features
    is refused, on either path: int32 positions cannot number it.  Then, where
    the kernel loads, (library, directory, shift) as ``sl_directory`` builds
    them, n' + 1 int32 positions that ``sl_lookup`` and ``sl_scores`` take for
    any number of calls over ``feats``; else None (``search`` gives the same)."""
    from . import _kernel  # here, so that importing sparselin does not import it

    if feats.size > MAX_SUPPORT:
        raise SparselinError(f"{feats.size} features exceed the {MAX_SUPPORT} "
                             "that int32 positions can number")
    lib = _kernel.load()
    if lib is None:
        return None
    room = np.empty(feats.size + 1, np.int32)
    return lib, room, lib.sl_directory(feats, feats.size, room)


def lookup(feats: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The int32 position of each int64 key in ``feats`` (see ``directory``), or
    ``feats.size`` for a key not there; O(n' + m log n') for m keys, on the path
    ``directory`` picks: ``sl_lookup`` (n' buckets, a binary search in one) or ``search``."""
    # before the directory, freed on return: the other order leaves a heap hole
    # that v and u do not fit, and training peaks 0.5 MB higher on perfbench's `tall`
    out = np.empty(keys.size, np.int32)
    found = directory(feats)
    if found is None:
        out[:] = search(feats, keys)
        return out
    lib, room, shift = found
    lib.sl_lookup(feats, feats.size, keys, keys.size, room, shift, out)
    return out


def search(feats: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``lookup`` by ``np.searchsorted``: O(m log n') with no directory to build."""
    pos = np.searchsorted(feats, keys)
    if feats.size:
        pos[feats[np.minimum(pos, feats.size - 1)] != keys] = feats.size
    return pos


def mean_vector(data: Dataset) -> DenseVec:
    """Mean feature vector of a dataset (``column_mean``), ``data.dim`` floats long:
    O(n) memory as ``LinearModel.dense`` is, so it is for data of a moderate ``dim``."""
    if data.m == 0:
        raise EmptyDatasetError("mean_vector needs at least one example")
    return column_mean(data.indices, data.values, data.m, data.dim)


def column_mean(indices: np.ndarray, values: np.ndarray, m: int, dim: int) -> DenseVec:
    """The mean of m > 0 CSR rows of nonzeros ``values`` at ``indices`` in [0, dim):
    each scaled by 1/m and added to its feature in row order, from +0.0, ``BLOCK_MEAN``
    at a time, so O(m k) sparse touches, one O(dim) allocation and no dense arithmetic
    pass.  The order is fixed, so every call on the same arrays gives the same bits."""
    out, scale = np.zeros(dim), 1.0 / m
    for lo in range(0, indices.size, BLOCK_MEAN):
        np.add.at(out, indices[lo:lo + BLOCK_MEAN], values[lo:lo + BLOCK_MEAN] * scale)
    return out


def squared_norm(v: DenseVec) -> float:
    """Sum of squares of a dense vector, added left to right from +0.0 (``cumsum``
    adds in order, where BLAS ``v @ v`` blocks by CPU and length), inf where it
    overflows (callers check finiteness).  One pass, ``BLOCK`` items at a time
    into one buffer, carrying the sum from block to block.  A zero adds +0.0,
    which changes no bit, so the sum over a model's support is its sum over
    all n."""
    total, buf = 0.0, np.empty(min(v.size, BLOCK))
    with np.errstate(over="ignore"):
        for lo in range(0, v.size, BLOCK):
            sq = buf[:min(BLOCK, v.size - lo)]
            np.multiply(v[lo:lo + BLOCK], v[lo:lo + BLOCK], out=sq)
            sq[0] += total  # as total + sq[0]: one addition commutes exactly
            total = float(np.cumsum(sq, out=sq)[-1])
    return total


def finalize_combine(coeffs: Sequence[tuple[float, DenseVec]]) -> DenseVec:
    """Linear combination sum(alpha_j * v_j) of one or more vectors, O(n') dense
    work written into the last vector's buffer, which is returned.

    This is the shape of every one-time model recovery the solvers perform
    after their loops finish.  It rounds as ((alpha_1 v_1 + alpha_2 v_2) +
    alpha_3 v_3), and works in place, with no temporary vector: the other
    vectors are overwritten too, so no two of them may share memory.
    """
    (alpha_first, first), *tail = coeffs
    for _, vec in tail:
        if vec.shape != first.shape:
            raise DimensionError(f"vector length {vec.shape[0]} != {first.shape[0]}")
    total = first
    total *= alpha_first
    for alpha, vec in tail:
        vec *= alpha
        vec += total  # a single addition commutes exactly
        total = vec
    return total
