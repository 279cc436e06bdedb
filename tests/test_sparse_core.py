import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_dataset
from sparselin import (
    Dataset,
    DimensionError,
    EmptyDatasetError,
    LossKind,
    SparseVec,
    TouchCounter,
    dot,
    mean_vector,
)
from sparselin.sparse_core import axpy, finalize_combine, squared_norm

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

    @given(dense_with_sparse())
    def test_densify_sparsify_round_trip(self, pair):
        _, x = pair
        xd = x.densify()
        back = SparseVec.from_dense(xd)
        assert np.array_equal(back.densify(), xd)


class TestDot:
    def test_example(self):
        v = np.array([1.0, 2.0, 3.0])
        x = SparseVec([0, 2], [2.0, -1.0], 3)
        assert dot(v, x) == brute_dot(v, x) == -1.0

    def test_empty_sparse(self):
        assert dot(np.array([5.0, 5.0, 5.0]), SparseVec([], [], 3)) == 0.0

    def test_zero_dense(self):
        assert dot(np.zeros(2), SparseVec([1], [7.0], 2)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dot(np.zeros(3), SparseVec([0], [1.0], 2))

    @settings(max_examples=200)
    @given(dense_with_sparse())
    def test_matches_brute_force(self, pair):
        v, x = pair
        expected = brute_dot(v, x)
        magnitude = sum(abs(v[i] * c) for i, c in zip(x.indices, x.values))
        assert abs(dot(v, x) - expected) <= 1e-12 * max(1.0, magnitude)

    @given(dense_with_sparse())
    def test_never_touches_dense_counters(self, pair):
        v, x = pair
        counter = TouchCounter()
        dot(v, x, counter)
        assert counter.loop_dense_touches == 0
        assert counter.outside_dense_touches == 0
        assert counter.sparse_touches == x.nnz


class TestAxpy:
    def test_example(self):
        v = np.array([1.0, 1.0, 1.0])
        axpy(v, 2.0, SparseVec([1], [3.0], 3))
        assert list(v) == [1.0, 7.0, 1.0]

    def test_zero_alpha(self):
        v = np.array([4.0, 4.0])
        axpy(v, 0.0, SparseVec([0], [9.0], 2))
        assert list(v) == [4.0, 4.0]

    def test_accumulate_into_zero(self):
        v = np.zeros(2)
        axpy(v, 1.0, SparseVec([0, 1], [1.0, 2.0], 2))
        assert list(v) == [1.0, 2.0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            axpy(np.zeros(2), 1.0, SparseVec([0], [1.0], 3))

    @settings(max_examples=200)
    @given(dense_with_sparse(), dense_with_sparse(), st.floats(-1e3, 1e3))
    def test_linearity_against_dot(self, pair_a, pair_b, alpha):
        v, x = pair_a
        _, y = pair_b
        if x.dim != y.dim:
            keep = y.indices < x.dim
            y = SparseVec(y.indices[keep], y.values[keep], x.dim)
        updated = v.copy()
        axpy(updated, alpha, x)
        lhs = dot(updated, y)
        xd = x.densify()
        rhs = dot(v, y) + alpha * brute_dot(xd, y)
        scale = sum(abs(v[i] * c) + abs(alpha * xd[i] * c) for i, c in zip(y.indices, y.values))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, scale)

    def test_only_sparse_touches(self):
        counter = TouchCounter()
        v = np.zeros(8)
        axpy(v, 2.5, SparseVec([1, 5], [1.0, 1.0], 8), counter)
        assert (counter.loop_dense_touches, counter.outside_dense_touches) == (0, 0)
        assert counter.sparse_touches == 2


class TestMeanVector:
    def test_two_examples(self):
        data = Dataset.from_rows([(SparseVec([0], [2.0], 2), 0.0), (SparseVec([1], [4.0], 2), 0.0)], 2)
        # densify-and-average oracle
        expected = (data.row(0).densify() + data.row(1).densify()) / 2
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
        # the reference: accumulate the (1/m)-scaled rows one axpy at a time
        rng = np.random.default_rng(seed)
        data = random_dataset(rng, 30, 40, 8, LossKind.SQUARED)
        expected = np.zeros(data.dim)
        for i in range(data.m):
            axpy(expected, 1.0 / data.m, data.row(i))
        assert mean_vector(data).tobytes() == expected.tobytes()

    def test_rows_without_nonzeros(self):
        data = Dataset.from_rows([(SparseVec([], [], 2), 0.0)] * 2, 2)
        mean = mean_vector(data)
        assert mean.dtype == np.float64 and list(mean) == [0.0, 0.0]

    def test_costs_only_sparse_touches(self):
        counter = TouchCounter()
        data = Dataset.from_rows([(SparseVec([0, 1], [1.0, 1.0], 4), 0.0)] * 3, 4)
        mean_vector(data, counter)
        assert counter.sparse_touches == 6
        assert counter.loop_dense_touches == 0


class TestSquaredNorm:
    def test_example(self):
        assert squared_norm(np.array([3.0, 4.0])) == 25.0

    def test_empty(self):
        assert squared_norm(np.zeros(0)) == 0.0

    def test_zero(self):
        assert squared_norm(np.zeros(3)) == 0.0

    def test_charges_outside_touches(self):
        counter = TouchCounter()
        squared_norm(np.ones(7), counter)
        assert counter.outside_dense_touches == 7


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

    def test_charges_one_pass(self):
        counter = TouchCounter()
        finalize_combine([(1.0, np.zeros(9)), (2.0, np.zeros(9))], counter)
        assert counter.outside_dense_touches == 9
        assert counter.loop_dense_touches == 0
