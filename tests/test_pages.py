"""The compiled loop and scoring touch no dense vector, as the machine sees it.

The element count of ``test_the_loop_touches_no_dense_vector`` runs on the
Python loop only, and a dense pass that changes no bit (a ``memset`` of a
zero vector, a read-only scan) would pass every bit-for-bit test of the
compiled one.  Here v and u, and a model's weights, sit in fresh private
anonymous mappings, with ``MADV_NOHUGEPAGE`` on those mappings only, so
that a page is 4 KiB (512 doubles) and no page is resident before the code
runs.  After the loop, or the scoring, ``mincore`` counts each vector's
resident pages: a sparse pass makes resident at most one page per distinct
feature of the rows, a dense read or write of any part of the vector every
page it covers.  The dimension is chosen so that the vector's pages
outnumber the data's nonzeros a hundred times.

What this cannot see: touches within one page, so a feature's neighbours
read with it, and pages that were resident before the code ran (none here,
which each test checks first).  ``TouchCounter.loop_dense_touches`` is not
set from this count.
"""

import ctypes
import mmap

import numpy as np
import pytest

from helpers import loop_args
from sparselin import Dataset, LinearModel, LossKind, _kernel
from sparselin.losses import Scorer
from sparselin.solvers import ALGOS, _python_steps

PAGE = 4096
M, K, T = 16, 5, 2000  # rows, nonzeros per row and steps: 80 nonzeros
DIM = 1 << 22  # 8,192 pages of doubles, at least 100 per nonzero

_mincore = getattr(ctypes.CDLL(None, use_errno=True), "mincore", None)
if _mincore is not None:  # int mincore(void *addr, size_t length, unsigned char *vec)
    _mincore.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p)
    _mincore.restype = ctypes.c_int
pytestmark = [
    pytest.mark.skipif(_mincore is None, reason="the C library has no mincore to count pages"),
    pytest.mark.skipif(not hasattr(mmap, "MADV_NOHUGEPAGE"),
                       reason="no MADV_NOHUGEPAGE: a read could map a huge page at once"),
    pytest.mark.skipif(mmap.PAGESIZE != PAGE,
                       reason=f"the sizes here are chosen for {PAGE}-byte pages, "
                              f"not {mmap.PAGESIZE}"),
]
assert DIM * 8 // PAGE >= 100 * M * K


def fresh(n: int) -> np.ndarray:
    """n zero doubles in a fresh private anonymous mapping of base pages, none
    resident; the array holds the mapping open."""
    region = mmap.mmap(-1, n * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    region.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(region, np.float64)


def resident(a: np.ndarray) -> int:
    """The pages of ``a``'s page-aligned buffer that are resident."""
    pages = -(-a.nbytes // PAGE)
    vec = np.zeros(pages, np.uint8)
    if _mincore(a.ctypes.data, a.nbytes, vec.ctypes.data) != 0:
        pytest.skip(f"mincore failed with errno {ctypes.get_errno()}")
    return int(np.count_nonzero(vec & 1))


def spread_rows() -> Dataset:
    """M rows of K features spread over DIM, with labels of either sign."""
    rng = np.random.default_rng(13)
    indices = np.concatenate([np.sort(rng.choice(DIM, K, replace=False)) for _ in range(M)])
    return Dataset(np.arange(0, M * K + 1, K), indices, rng.normal(size=M * K),
                   np.where(np.arange(M) % 2, 1.0, -1.0), DIM)


@pytest.fixture(params=["compiled", "python"])
def loop(request):
    if request.param == "python":
        return _python_steps
    assert _kernel.load() is not None, "the compiled kernel could not be built or loaded"
    return _kernel.load().sl_steps


@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_the_loop_leaves_only_the_rows_pages_resident(loop, algo):
    data = spread_rows()
    average, center = ALGOS[algo]
    args = list(loop_args(data, LossKind.LOG, 1e-3, 7, average, center))
    sums = [fresh(DIM) for _ in range(1 + average)]
    args[10:12] = sums + [None] * (2 - len(sums))  # v, and u for averaging
    assert [resident(s) for s in sums] == [0] * len(sums)
    assert loop(*args, 1, T + 1) == 0
    counts = [resident(s) for s in sums]  # before anything here reads the sums
    assert all(0 < c <= np.unique(data.indices).size + 1 for c in counts), counts


def test_compiled_scoring_leaves_only_the_rows_pages_resident():
    # compiled only: the fallback Scorer copies every weight (np.append), a
    # dense pass by design, made once per model and not per row
    assert _kernel.load() is not None, "the compiled kernel could not be built or loaded"
    data = spread_rows()
    weights = fresh(DIM)
    model = LinearModel(np.arange(DIM), weights, 0.5, LossKind.LOG, DIM)
    assert model.weights is weights  # no copy was made
    scorer = Scorer(model)
    assert scorer.directory is not None and resident(weights) == 0
    out = np.empty(data.m)
    scorer(data.indptr, data.indices, data.values, out)
    assert out.tolist() == [0.5] * data.m
    assert resident(weights) <= np.unique(data.indices).size + 1
