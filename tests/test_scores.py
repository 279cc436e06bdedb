"""Whole-dataset scores against a scalar left-to-right sum and per-row ``predict``.

``row_dots`` sums each row with ``bincount`` one block of rows at a time;
the scalar loop below is the order the compiled training loop uses.  A
model holds only its support, so scoring looks each data index up in it
(``sparse_core.lookup``, compiled or by ``np.searchsorted``); the edge
cases of that lookup are scored on both paths against ``reference_scores``.
Every comparison is on int64 views, so the sign of a zero counts.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_model, reference_scores
from sparselin import (Dataset, LinearModel, LossKind, SparselinError, TrainConfig, _kernel,
                       predict, sparse_core)
from sparselin.losses import scores
from sparselin.solvers import fit
from sparselin.sparse_core import BLOCK_ROWS, lookup, row_dots, search

# products and sums of up to 12 of them stay finite
wide = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def scalar_row_dots(w, data):
    w, indices, values = w.tolist(), data.indices.tolist(), data.values.tolist()
    out = []
    for lo, hi in zip(data.indptr[:-1].tolist(), data.indptr[1:].tolist()):
        d = 0.0
        for j in range(lo, hi):
            d += w[indices[j]] * values[j]
        out.append(d)
    return out


def assert_scores_match(w, b, data):
    model = dense_model(w, b, LossKind.SQUARED)
    reference = scalar_row_dots(w, data)
    assert bits(row_dots(w, data.indptr, data.indices, data.values)) == bits(reference)
    p = scores(model, data)
    assert bits(p) == bits([d + b for d in reference])
    assert bits(p) == bits([predict(model, data.row(i)) for i in range(data.m)])


def random_corpus(rng, m, dim, k_max):
    ks = rng.integers(0, k_max + 1, size=m)
    ks[::3] = 0  # empty rows, at block ends too
    indices = np.concatenate([np.sort(rng.choice(dim, k, replace=False)) for k in ks] + [[]])
    # magnitudes far apart, so that the order of a sum shows in its last bits
    values = rng.normal(size=indices.size) * 10.0 ** rng.integers(-8, 9, size=indices.size)
    return Dataset(np.concatenate(([0], np.cumsum(ks))), indices, values, np.zeros(m), dim)


@st.composite
def scored_corpora(draw):
    dim = draw(st.integers(1, 12))
    m = draw(st.integers(0, 30))
    rows = [sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim))) for _ in range(m)]
    indices = [j for row in rows for j in row]
    values = draw(st.lists(wide, min_size=len(indices), max_size=len(indices)))
    data = Dataset(np.cumsum([0] + [len(row) for row in rows]), indices, values, np.zeros(m), dim)
    w = np.array(draw(st.lists(wide, min_size=dim, max_size=dim)))
    return data, w, draw(wide), draw(st.sampled_from([1, 2, 3, 7, BLOCK_ROWS]))


@settings(max_examples=300, deadline=None)
@given(scored_corpora())
def test_random_corpora(case):
    data, w, b, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse_core, "BLOCK_ROWS", block)
        assert_scores_match(w, b, data)


@pytest.mark.parametrize("m", [0, 1, BLOCK_ROWS, 3 * BLOCK_ROWS + 1])
@pytest.mark.parametrize("b", [0.0, -0.0, 0.375])
def test_empty_rows_block_ends_and_signed_zero_bias(m, b):
    rng = np.random.default_rng(m)
    data = random_corpus(rng, m, 50, 9)
    w = rng.normal(size=50) * 10.0 ** rng.integers(-8, 9, size=50)
    w[:5] = -0.0
    assert_scores_match(w, b, data)


@pytest.fixture(params=["compiled", "fallback"])
def path(request, monkeypatch):
    if request.param == "fallback":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    else:
        assert _kernel.load() is not None, "the compiled kernel could not be built or loaded"
    return request.param


@pytest.mark.parametrize("model_dim", [7, 40, 90])
def test_data_of_another_dimension(model_dim, path):
    # a narrower model gives the data's extra features weight 0; a wider one
    # scores every row as a model of the data's own dimension would
    rng = np.random.default_rng(model_dim)
    data = random_corpus(rng, 300, 40, 12)
    w = rng.normal(size=model_dim)
    model = dense_model(w, -0.0, LossKind.SQUARED)
    padded = np.zeros(max(model_dim, data.dim))
    padded[:model_dim] = w
    assert bits(scores(model, data)) == bits([d + -0.0 for d in scalar_row_dots(padded, data)])
    assert bits(scores(model, data)) == bits(reference_scores(model, data))


def rows_of(rows, dim):
    """A dataset of the given rows of indices, with values far apart in magnitude."""
    indices = [j for row in rows for j in row]
    values = 10.0 ** (np.arange(len(indices)) % 17 - 8) * (-1.0) ** np.arange(len(indices))
    return Dataset(np.cumsum([0] + [len(r) for r in rows]), indices, values,
                   np.zeros(len(rows)), dim)


HASHED = 10**12  # a hashed feature space's dimension: no dense vector of it fits in memory

# (support, model dim, data rows, data dim): the lookup's edges
EDGES = {
    "empty support": ([], 50, [[0, 3], [], [49]], 50),
    "dim 0": ([], 0, [[], [], []], 0),
    "dim 0, data beyond it": ([], 0, [[0], [1, 5]], 6),
    "dim 1": ([0], 1, [[0], [], [0]], 1),
    "dim 1, data beyond it": ([0], 1, [[0, 1], [1, 2]], 3),
    "features 0..999 of a hashed space": (
        list(range(1000)), HASHED,
        [list(range(0, 1000, 7)), [999, 1000, HASHED - 1], [5, 10**9]], HASHED),
    "all but the last in one bucket": (
        list(range(999)) + [HASHED - 1], HASHED,
        [[0, 500, 998, 999, 10**6, HASHED - 2, HASHED - 1]], HASHED),
    "keys past the last bucket": ([2, 9, 40], 100, [[1, 2, 3, 41, 99], [9, 40, 99]], 100),
    "keys at and above model dim": ([1, 4, 6], 7, [[0, 6, 7, 8], [7, 30], [4, 6, 12]], 31),
}


@pytest.mark.parametrize("case", sorted(EDGES))
def test_lookup_edges(case, path):
    feats, dim, rows, data_dim = EDGES[case]
    data = rows_of(rows, data_dim)
    weights = -0.5 * (np.arange(len(feats)) + 1.0)
    model = LinearModel(feats, weights, 0.25, LossKind.SQUARED, dim)
    position = {f: i for i, f in enumerate(feats)}
    want = [position.get(j, len(feats)) for j in data.indices.tolist()]
    assert lookup(model.feats, data.indices).dtype == np.int32
    assert lookup(model.feats, data.indices).tolist() == want
    assert search(model.feats, data.indices).tolist() == want
    assert bits(scores(model, data)) == bits(reference_scores(model, data))
    if data_dim == dim:
        assert bits(scores(model, data)) == bits([predict(model, data.row(i))
                                                  for i in range(data.m)])


def test_an_oversize_support_is_refused_alike(path, monkeypatch):
    # int32 positions number at most MAX_SUPPORT features: the lookup, scoring
    # and training refuse a larger support with one error on both paths
    monkeypatch.setattr(sparse_core, "MAX_SUPPORT", 2)
    data = rows_of([[0, 1], [2]], 3)
    model = LinearModel([0, 1, 2], [1.0, 2.0, 3.0], 0.0, LossKind.SQUARED, 3)
    cfg = TrainConfig(steps=5, lam=1.0, seed=0, loss=LossKind.SQUARED)
    for call in (lambda: lookup(model.feats, data.indices), lambda: scores(model, data),
                 lambda: fit("casgd", data, cfg)):
        with pytest.raises(SparselinError,
                           match="^3 features exceed the 2 that int32 positions can number$"):
            call()
    assert lookup(model.feats[:2], data.indices).tolist() == [0, 1, 2]


@pytest.mark.parametrize("rows, first", [([[0], [1]], 1), ([[], [0, 1]], 2), ([[2], [1]], 2),
                                         ([[2], [3]], 2)])
def test_first_non_finite_score_raises_without_a_warning(rows, first):
    # 1e300 * 1e10 overflows; a row holding features 0 and 1 sums inf + -inf;
    # feature 3 scores 1e308, which overflows only when the bias is added
    data = Dataset(np.cumsum([0] + [len(r) for r in rows]), sum(rows, []),
                   [1e10] * len(sum(rows, [])), np.ones(len(rows)), 4)
    model = dense_model(np.array([1e300, -1e300, 1.0, 1e298]), 1e308, LossKind.HINGE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SparselinError, match=f"^example {first}: score .* is not finite$"):
            scores(model, data)


def compiled_and_fallback(model, data):
    """The bits of ``scores`` on each path, or the error it raised there."""
    outcomes = []
    for load in (_kernel.load, lambda: None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernel, "load", load)
            try:
                outcomes.append(bits(scores(model, data)))
            except SparselinError as exc:
                outcomes.append(str(exc))
    return outcomes


weights_and_values = st.one_of(wide, st.sampled_from([0.0, -0.0, 1e300, -1e300]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compiled_scores_match_the_fallback(data):
    # sl_scores skips an index not in the support; the fallback adds 0.0 * 0.0
    # for it: misses (of an infinite value too), data indices at or above the
    # model's dim, an empty support, empty rows and signed zeros must not
    # tell them apart
    assert _kernel.load() is not None, "the compiled kernel could not be built or loaded"
    model_dim = data.draw(st.integers(0, 40))
    feats = sorted(data.draw(st.sets(st.integers(0, max(model_dim - 1, 0)), max_size=model_dim)))
    weights = data.draw(st.lists(weights_and_values, min_size=len(feats), max_size=len(feats)))
    model = LinearModel(feats, weights, data.draw(weights_and_values), LossKind.SQUARED,
                        model_dim)
    data_dim = data.draw(st.integers(0, 60))
    rows = [sorted(data.draw(st.sets(st.integers(0, max(data_dim - 1, 0)), max_size=data_dim)))
            for _ in range(data.draw(st.integers(0, 12)))]
    indices = [j for row in rows for j in row]
    values = data.draw(st.lists(weights_and_values | st.sampled_from([np.inf, -np.inf]),
                                min_size=len(indices), max_size=len(indices)))
    dataset = Dataset(np.cumsum([0] + [len(row) for row in rows]), indices, values,
                      np.zeros(len(rows)), data_dim)
    compiled, fallback = compiled_and_fallback(model, dataset)
    assert compiled == fallback
