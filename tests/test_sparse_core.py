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
from sparselin import _kernel, sparse_core
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


def flat(rows):
    """The indices of the given rows of rising feature indices, as CSR holds them."""
    return np.array(sum(rows, []), np.int64)


def random_indices(rng, m, dim, k_max):
    """The indices of m rows of up to k_max distinct features in [0, dim), a
    third of the rows empty."""
    ks = rng.integers(0, k_max + 1, size=m)
    ks[::3] = 0
    return flat([sorted(rng.choice(dim, k, replace=False).tolist()) for k in ks])


class TestNumber:
    """Training's numbering equals ``support`` + ``lookup`` on both of its paths:
    the rank bitmap where dim <= DENSE * nnz and the kernel loads, the sort else."""

    @staticmethod
    def numbered(indices, dim, kernel=True):
        """``number``'s result, and whether it sorted (called ``support``)."""
        sorted_ = []
        with pytest.MonkeyPatch.context() as mp:
            real = sparse_core.support
            mp.setattr(sparse_core, "support", lambda a: sorted_.append(1) or real(a))
            if not kernel:
                mp.setattr(_kernel, "load", lambda: None)
            idx, n = sparse_core.number(indices, dim)
        return idx, n, bool(sorted_)

    @classmethod
    def assert_agrees(cls, indices, dim, sorts):
        feats = sparse_core.support(indices)
        want = sparse_core.lookup(feats, indices)
        for kernel in (True, False):
            idx, n, sorted_ = cls.numbered(indices, dim, kernel)
            assert sorted_ == (sorts or not kernel)
            assert idx.dtype == np.int32 and idx.tolist() == want.tolist()
            assert n == feats.size
            rebuilt = np.empty(n, np.int64)
            rebuilt[idx] = indices  # as _train rebuilds the model's features
            assert rebuilt.tolist() == feats.tolist()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dim", [100, 3000, 10**6])  # 10^6 sorts: about 4,000 nonzeros
    def test_random_csr(self, seed, dim):
        rng = np.random.default_rng(seed)
        indices = random_indices(rng, int(rng.integers(300, 400)), dim, 30)
        self.assert_agrees(indices, dim, dim > sparse_core.DENSE * indices.size)

    @pytest.mark.parametrize("dim", [63, 64, 65, 128])
    def test_first_and_last_bit_of_a_word(self, dim):
        # index 0, and dim - 1 (bit 63 of the last word at dim 64 and 128), with empty rows
        indices = flat([[0, dim - 1], [], [dim - 1], [], [0, 5, dim - 1]])
        self.assert_agrees(indices, dim, False)

    def test_one_repeated_feature(self):
        self.assert_agrees(np.full(40, 7, np.int64), 100, False)
        self.assert_agrees(np.zeros(1, np.int64), 1, False)

    def test_the_rule_at_its_bound(self):
        # dim at DENSE * nnz takes the bitmap, one more the sort
        rng = np.random.default_rng(9)
        indices = random_indices(rng, 30, 90, 6)
        dim = sparse_core.DENSE * indices.size
        indices[-1] = dim - 1
        for d, sorts in ((dim, False), (dim + 1, True)):
            self.assert_agrees(indices, d, sorts)

    def test_no_nonzeros(self):
        for dim in (0, 1):
            idx, n, _ = self.numbered(np.zeros(0, np.int64), dim)
            assert idx.dtype == np.int32 and idx.size == n == 0
