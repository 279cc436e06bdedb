import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import densify, random_dataset
from sparselin import (
    Dataset,
    DimensionError,
    EmptyDatasetError,
    LossKind,
    SparseVec,
    mean_vector,
)
from sparselin import sparse_core
from sparselin.sparse_core import BLOCK, check_csr, finalize_combine, row_dots, squared_norm

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def dense_with_sparse(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    dense = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    k = draw(st.integers(min_value=0, max_value=min(n, 8)))
    idx = sorted(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)))
    vals = draw(st.lists(finite, min_size=k, max_size=k))
    return dense, SparseVec(idx, vals, n)


def brute_dot(v, x):
    # independent oracle: densify by hand and sum over every component
    xd = [0.0] * x.dim
    for i, c in zip(x.indices, x.values):
        xd[i] = c
    return sum(v[i] * xd[i] for i in range(x.dim))


class TestSparseVec:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            SparseVec([2, 1], [1.0, 2.0], 5)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            SparseVec([1, 1], [1.0, 2.0], 5)

    def test_rejects_index_beyond_dim(self):
        with pytest.raises(DimensionError):
            SparseVec([3], [1.0], 3)

    def test_explicit_zero_values_allowed(self):
        x = SparseVec([0, 2], [0.0, 1.0], 3)
        assert x.nnz == 2

    def test_entries_are_read_only(self):
        x = SparseVec([0], [1.0], 2)
        with pytest.raises(ValueError):
            x.values[0] = 3.0


def row_dot(v, x):
    # one row's dot product, as the library sums it
    return float(row_dots(v, np.array([0, x.nnz]), x.indices, x.values)[0])


class TestDot:
    def test_example(self):
        v = np.array([1.0, 2.0, 3.0])
        x = SparseVec([0, 2], [2.0, -1.0], 3)
        assert row_dot(v, x) == brute_dot(v, x) == -1.0

    def test_empty_sparse(self):
        assert row_dot(np.array([5.0, 5.0, 5.0]), SparseVec([], [], 3)) == 0.0

    def test_zero_dense(self):
        assert row_dot(np.zeros(2), SparseVec([1], [7.0], 2)) == 0.0

    @settings(max_examples=200)
    @given(dense_with_sparse())
    def test_matches_brute_force(self, pair):
        v, x = pair
        expected = brute_dot(v, x)
        magnitude = sum(abs(v[i] * c) for i, c in zip(x.indices, x.values))
        assert abs(row_dot(v, x) - expected) <= 1e-12 * max(1.0, magnitude)


class TestMeanVector:
    def test_two_examples(self):
        data = Dataset.from_rows([(SparseVec([0], [2.0], 2), 0.0), (SparseVec([1], [4.0], 2), 0.0)], 2)
        # densify-and-average oracle
        expected = (densify(data.row(0)) + densify(data.row(1))) / 2
        assert np.allclose(mean_vector(data), expected)
        assert list(mean_vector(data)) == [1.0, 2.0]

    def test_single_example(self):
        data = Dataset.from_rows([(SparseVec([0], [3.0], 1), 1.0)], 1)
        assert list(mean_vector(data)) == [3.0]

    def test_negation_cancels(self):
        x = SparseVec([0, 2], [1.5, -2.0], 3)
        neg = SparseVec([0, 2], [-1.5, 2.0], 3)
        data = Dataset.from_rows([(x, 0.0), (neg, 0.0)], 3)
        assert list(mean_vector(data)) == [0.0, 0.0, 0.0]

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            mean_vector(Dataset.from_rows([], 3))

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_sequential_axpy(self, seed):
        # the reference: accumulate the (1/m)-scaled rows one at a time
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, 30, 40, 8, LossKind.SQUARED)
        expected = np.zeros(data.dim)
        for i in range(data.m):
            x = data.row(i)
            expected[x.indices] += 1.0 / data.m * x.values
        assert mean_vector(data).tobytes() == expected.tobytes()

    def test_rows_without_nonzeros(self):
        data = Dataset.from_rows([(SparseVec([], [], 2), 0.0)] * 2, 2)
        mean = mean_vector(data)
        assert mean.dtype == np.float64 and list(mean) == [0.0, 0.0]


class TestSquaredNorm:
    def test_example(self):
        assert squared_norm(np.array([3.0, 4.0])) == 25.0

    def test_empty(self):
        assert squared_norm(np.zeros(0)) == 0.0

    def test_zero(self):
        assert squared_norm(np.zeros(3)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(min_value=-1e160, max_value=1e160),
                              st.lists(st.sampled_from([0.0, -0.0]), max_size=3)),
                    max_size=200), st.sampled_from([1, 2, 3, 7, BLOCK]))
    def test_left_to_right_sum_with_and_without_zeros(self, runs, block):
        # the squares added in order from +0.0, the sum carried across blocks;
        # zeros interleaved anywhere, as all n features hold them around a
        # model's support, change no bit
        values = [x for x, _ in runs]
        with_zeros = [y for x, zeros in runs for y in (x, *zeros)]
        total = 0.0
        for x in values:
            total += x * x
        for v in (values, with_zeros):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sparse_core, "BLOCK", block)
                got = squared_norm(np.array(v, dtype=np.float64))
            assert np.float64(got).view(np.int64) == np.float64(total).view(np.int64)


def whole_array_check(indptr, indices, dim):
    """``check_csr``'s checks over whole arrays at once, as a reference."""
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        return "indptr"
    if indices.size and (indices.min() < 0 or indices.max() >= dim):
        return "range"
    rising = np.diff(indices) > 0
    starts = indptr[1:-1]
    rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    return None if rising.all() else "order"


class TestCheckCsr:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), max_size=6), max_size=12),
           st.integers(-1, 2), st.sampled_from([1, 2, 3, 5, BLOCK]), st.integers(1, 10))
    def test_blocks_match_the_whole_array_check(self, rows, flaw, block, dim):
        # rows of any indices, sorted or not; flaw 0 breaks indptr's order,
        # flaw 1 its last entry
        indptr = np.cumsum([0] + [len(r) for r in rows])
        indices = np.array([j for r in rows for j in r], dtype=np.int64)
        if flaw == 0 and indptr.size > 2:
            indptr[1], indptr[2] = indptr[2], indptr[1] - 1
        elif flaw == 1:
            indptr[-1] += 1
        errors = {"indptr": "indptr must run", "range": "index out of range",
                  "order": "indices must be strictly increasing"}
        want = whole_array_check(indptr, indices, dim)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_core, "BLOCK", block)
            if want is None:
                check_csr(indptr, indices, np.zeros(indices.size), dim)
            else:
                with pytest.raises((ValueError, DimensionError), match=errors[want]):
                    check_csr(indptr, indices, np.zeros(indices.size), dim)


class TestFinalizeCombine:
    def test_cancellation(self):
        v = np.array([1.0, 2.0])
        assert list(finalize_combine([(1.0, v), (-1.0, v.copy())])) == [0.0, 0.0]

    def test_single_scale(self):
        out = finalize_combine([(-2.0, np.array([1.0, 0.0, 3.0]))])
        assert list(out) == [-2.0, 0.0, -6.0]

    def test_two_vectors(self):
        out = finalize_combine([(0.5, np.array([2.0, 2.0])), (0.5, np.array([4.0, 0.0]))])
        assert list(out) == [3.0, 1.0]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            finalize_combine([(1.0, np.zeros(2)), (1.0, np.zeros(3))])

    def test_rejects_no_vectors_and_a_read_only_output(self):
        read_only = np.zeros(4)
        read_only.setflags(write=False)
        for coeffs in ([], [(1.0, np.zeros(4)), (1.0, read_only)]):
            with pytest.raises(ValueError):
                finalize_combine(coeffs)
