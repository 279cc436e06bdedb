"""Training algorithms that keep every per-step operation O(k).

The step-size schedule 1/(lam*t) lets the SGD recurrence be folded into a
gradient-sum representation that is updated sparsely:

    [v_t, a_t] = sum_{j<=t} g_j [x_j, 1],      [w_t, b_t] = -[v_t, a_t] / (lam*t)

All three solvers run one loop, in which averaging and centering add state.
``sgd_train`` keeps (v, a) alone.  Averaging (``asgd_train``) adds the
harmonic gradient sum u (each gradient weighted by the harmonic number h of
the *previous* step) and the bias average accumulator c, from which the
iterate average is recovered as -(h*v - u)/(lam*T), -c/(lam*T).  Centering
(``casgd_train``) trains on implicitly mean-centered data: the mean feature
vector xbar and theta = 1 + |xbar|^2 are computed once, and the projection
sum z = v . xbar, the centered bias sum r = a*theta - z and its average s
are kept so that centering never needs a dense operation inside the loop.
The one product with xbar a step needs, q = xbar . x, depends only on the
row, so ``_train`` computes it once per row before the loop (``row_dots``,
in the loop's order) and drops xbar: the loop reads q[i], and the
recovery computes xbar again, the same bits, once u is the only sum left.

The loop runs over the data's features only: ``_train`` finds the n'
distinct feature indices the data uses (``sparse_core.support``), numbers
them 0..n'-1 once (``sparse_core.lookup``), and trains on that compacted
dataset, so v, u and xbar are n' long.  Through the loop it holds only
the data, its int32 numbers (4 bytes per nonzero), v, u for averaging,
and for centering the m row products q: the sorted features are rebuilt
from the numbers once the model is recovered, as the model's ``feats``.
The allocation, the mean, the finalize and the model itself then cost
O(n'): the recovered n'-vector is the model's weights, on those features,
with no n-length vector anywhere, so memory is O(m*k + n') for any ``dim``
up to ``sparse_core.MAX_DIM``.
Adding dimensions the data never uses changes no bit of the weights or of
the bias.

The loop is compiled: ``sl_steps`` in ``_kernel.c`` runs it over the
dataset's CSR arrays (built and cached by ``_kernel``).  ``_python_steps``
is the same loop in Python, for when no library can be built or loaded (no
compiler, say), and the reference the compiled loop is tested against:
both keep the contract stated at ``sl_steps``, so their models are the
same bit for bit.  ``_train`` makes one call, over the steps [1, T + 1); a
call over any window [t0, t1) continues the sums where the last one left
them, so a caller observes single steps by running the loop over [t, t + 1).
The rows are ``draw_indices``' sequence, a function of the seed, the step
and m: the compiled loop draws each step's row alone, the Python loop
``BLOCK`` steps at a time (``_rows``), so no T-long array is built and
memory is independent of T, which is at most ``MAX_STEPS``.  The loops
count nothing: ``_train`` alone charges a ``TouchCounter``, from the rows
the run drew (``_loop_touches``).  Model recovery works in place, in the
vectors it combines, and ends in the last one (v for sgd, u for asgd, xbar
for casgd, which it allocates once v is freed); an overflow in it, flagged
by numpy, is a ``NonFiniteError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import EmptyDatasetError, NonFiniteError, SparselinError
from .losses import LinearModel, LossKind, loss_subgradient, validate_labels
from .sparse_core import (
    BLOCK,
    Dataset,
    TouchCounter,
    column_mean,
    finalize_combine,
    lookup,
    row_dots,
    squared_norm,
    support,
)

_LOSSES = tuple(LossKind)  # the loop's loss codes are the positions here
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MUL2 = np.uint64(0x94D049BB133111EB)
MAX_STEPS = 2**63 - 2  # the loops count t up to T + 1 in a signed 64-bit integer
MAX_SEED = 2**64 - 1  # a seed is splitmix64's state, an unsigned 64-bit integer
# the solvers by name, each as the sums it keeps beyond (v, a): (average, center)
ALGOS = {"sgd": (False, False), "asgd": (True, False), "casgd": (True, True)}


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    lam: float
    seed: int
    loss: LossKind

    def __post_init__(self):
        if not 1 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be from 1 to {MAX_STEPS}, got {self.steps}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be a positive finite real, got {self.lam}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def draw_indices(seed: int, steps: int, m: int) -> np.ndarray:
    """The pinned index sequence: splitmix64, then floor(m * (u >> 11) * 2^-53).

    splitmix64's state after i calls is seed + i*GAMMA mod 2^64, so the whole
    sequence vectorizes.  (u >> 11) * 2^-53 is exact in float64 (53 bits,
    power-of-two scale), leaving a single rounding in the multiply by m; the
    result is always < m.
    """
    if m < 1:
        raise EmptyDatasetError("cannot draw indices from an empty dataset")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return _rows(seed, m, 1, steps + 1)


def _rows(seed: int, m: int, t0: int, t1: int) -> np.ndarray:
    """Steps t0..t1-1 of the sequence, ``draw_indices(seed, T, m)[t0 - 1:t1 - 1]``
    for any T >= t1 - 1, so a window draws what one call over every step
    would (``draw`` in ``_kernel.c`` is its step t alone)."""
    z = np.uint64(seed) + np.arange(t0, t1, dtype=np.uint64) * _SM64_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM64_MUL1
    z = (z ^ (z >> np.uint64(27))) * _SM64_MUL2
    z ^= z >> np.uint64(31)
    unit = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.floor(m * unit).astype(np.int64)


def fit(algo: str, data: Dataset, cfg: TrainConfig) -> LinearModel:
    """The model of the solver ``algo`` names (sgd, asgd or casgd)."""
    return _train(data, cfg, None, *ALGOS[algo])


def _train(data: Dataset, cfg: TrainConfig, counter: TouchCounter | None, average: bool,
           center: bool) -> LinearModel:
    """The loop behind all three solvers; ``center`` requires ``average``."""
    if data.m == 0:
        raise EmptyDatasetError("training needs at least one example")
    validate_labels(data, cfg.loss)
    for lo in range(0, data.values.size, BLOCK):  # no temporary the size of the data
        finite = np.isfinite(data.values[lo:lo + BLOCK])
        if not finite.all():
            j = lo + int(finite.argmin())
            raise SparselinError(f"example {np.searchsorted(data.indptr, j, 'right')}: "
                                 f"feature value {data.values[j]} is not finite")
    lam, T, kind = cfg.lam, cfg.steps, cfg.loss
    from . import _kernel  # here, so that importing sparselin does not import it

    # the loop runs over the n' features the data uses, feature feats[j] as j
    feats, dim = support(data.indices), data.dim
    idx, n = lookup(feats, data.indices), feats.size
    del feats
    theta, q = 0.0, None
    if center:  # xbar is held only for theta and each row's q = xbar . x
        xbar = column_mean(idx, data.values, data.m, n)
        if counter is not None:  # the mean: m*k sparse touches
            counter.sparse_touches += idx.size
        theta = 1.0 + squared_norm(xbar)
        if not math.isfinite(theta):  # no lambda helps: the data's scale is at fault
            raise SparselinError(f"theta = 1 + |xbar|^2 = {theta} is not finite: "
                                 "the feature means are too large to center")
        q = row_dots(xbar, data.indptr, idx, data.values)
        del xbar
    v = np.zeros(n)
    u = np.zeros(n) if average else None
    st = np.zeros(8)  # a, c, h, z, r, s, and the last step's p and g
    lib = _kernel.load()
    # the loop's contract, one argument list for both loops: see sl_steps in _kernel.c
    bad = (_python_steps if lib is None else lib.sl_steps)(
        cfg.seed, data.m, data.indptr, idx, data.values, data.labels,
        _LOSSES.index(kind), lam, theta, q, v, u, st, 1, T + 1)
    q = None  # the recovery holds no more than the loop did
    a, c, h, z, r, s, p, g = st.tolist()
    if counter is not None:  # the loop; once it finishes, theta and the model, at n
        counter.sparse_touches += _loop_touches(cfg.seed, data.indptr, T, bad, average, center)
        counter.outside_dense_touches += 0 if bad else dim * (1 + center)
    if bad:
        raise NonFiniteError(f"non-finite value at step {bad} (p={p}, g={g}); "
                             "lambda may be too small for the data")

    try:
        # numpy's flags catch an overflow here, with no second pass over the model
        with np.errstate(over="raise", invalid="raise"):
            scale = 1.0 / np.float64(lam * T)
            coeffs, bias = [(-scale, v)], a
            if average:
                coeffs, bias = [(-h * scale, v), (scale, u)], s if center else c
            w, b = finalize_combine(coeffs), float(-bias * scale)
            coeffs = v = u = None  # w is one of them: free the other before the mean or feats
            if center:  # the mean again, the same bits, rounded as one combine of all three
                xbar = column_mean(idx, data.values, data.m, n)
                w = finalize_combine([(1.0, w), (c * scale, xbar)])
    except FloatingPointError:
        raise NonFiniteError(f"the model overflows when its sums are divided by lambda*T = "
                             f"{lam * T}; lambda may be too small for the data") from None
    feats = np.empty(n, np.int64)
    feats[idx] = data.indices  # exact: every position is hit, each by its own feature only
    return LinearModel(feats, w, b, kind, dim)


def _loop_touches(seed, indptr, T, bad, average, center) -> int:
    """The sparse touches of T steps that step ``bad`` stopped (0 if none), in
    the paper's terms: at step t, the row's k for q = xbar . x, for v . x and
    the u update from step 2 on, and for the v update, but at step ``bad``
    only for its dot products.  (The loops read q, computed once per row
    before them, and the model's recovery computes xbar a second time; the
    charge is the paper's single mean and k per step.)"""
    k, m, last = np.diff(indptr), indptr.size - 1, bad or T
    K = sum(int(k[_rows(seed, m, w, min(w + BLOCK, last + 1))].sum())
            for w in range(1, last + 1, BLOCK))
    first, stop = (int(k[_rows(seed, m, t, t + 1)][0]) for t in (1, last))
    total = (1 + center) * K + (1 + average) * (K - first)
    return total - (bad > 0) * stop * (1 + average * (last > 1))


@np.errstate(over="ignore", invalid="ignore")  # as in C: callers check finiteness
def _python_steps(seed, m, indptr, indices, values, labels, loss, lam, theta, q, v, u, st,
                  t0, t1) -> int:
    """``sl_steps`` in Python, with its contract (see ``_kernel.c``).  Runs when
    the compiled kernel cannot be built or loaded, and is the reference the
    kernel is tested against."""
    kind = _LOSSES[loss]
    a, c, h, z, r, s, p, g = st.tolist()
    rows = chain.from_iterable(_rows(seed, m, w, min(w + BLOCK, t1)).tolist()
                               for w in range(t0, t1, BLOCK))
    for t, i in enumerate(rows, t0):
        row, lo, hi = indptr[i:i + 2], indptr.item(i), indptr.item(i + 1)
        if q is not None:
            qi = q.item(i)
        p = 0.0
        if t > 1:
            d = row_dots(v, row, indices, values).item()
            # sgd and asgd keep -(d + a): with q = 0 the centered form can
            # flip the sign of a zero prediction
            p = -(d + r - a * qi if q is not None else d + a) / (lam * (t - 1))
        g = loss_subgradient(kind, p, labels.item(i))
        if not (math.isfinite(p) and math.isfinite(g)):
            st[6:] = p, g
            return t
        x, xv = indices[lo:hi], values[lo:hi]
        v[x] += g * xv
        a += g
        if u is not None:
            if t > 1:  # weight is the harmonic number of step t-1; h_0 = 0
                u[x] += (h * g) * xv
            c += a / t
            h += 1.0 / t
        if q is not None:
            z += g * qi
            r = a * theta - z
            s += r / t
    st[:] = a, c, h, z, r, s, p, g
    return 0


def sgd_train(data: Dataset, cfg: TrainConfig,
              counter: TouchCounter | None = None) -> LinearModel:
    """Plain SGD; returns the last iterate."""
    return _train(data, cfg, counter, *ALGOS["sgd"])


def asgd_train(data: Dataset, cfg: TrainConfig,
               counter: TouchCounter | None = None) -> LinearModel:
    """SGD returning the average of all iterates instead of the last one."""
    return _train(data, cfg, counter, *ALGOS["asgd"])


def casgd_train(data: Dataset, cfg: TrainConfig,
                counter: TouchCounter | None = None) -> LinearModel:
    """Averaged SGD on implicitly mean-centered data.

    Predictions from the returned model apply directly to raw, uncentered
    inputs: the centering shift lives in the bias term, which makes the
    trained predictor invariant to translating the whole training set.
    """
    return _train(data, cfg, counter, *ALGOS["casgd"])
