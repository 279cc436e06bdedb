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
The loop charges only ``sparse_touches``; model recovery is one dense pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DimensionError, EmptyDatasetError, NonFiniteError
from .losses import LossKind, loss_subgradient, validate_labels
from .sparse_core import (
    DenseVec,
    SparseVec,
    TouchCounter,
    axpy,
    dot,
    finalize_combine,
    mean_vector,
    squared_norm,
)

if TYPE_CHECKING:
    from .data_io import Dataset


_MASK64 = (1 << 64) - 1
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MUL2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    lam: float
    seed: int
    loss: LossKind

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be a positive finite real, got {self.lam}")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass
class LinearModel:
    """Deployable predictor (w, b) plus the metadata needed to apply it."""

    w: DenseVec
    b: float
    loss: LossKind
    dim: int

    def __post_init__(self):
        if self.w.shape != (self.dim,):
            raise DimensionError(f"weight length {self.w.shape} != dim {self.dim}")

    @classmethod
    def zero(cls, dim: int, loss: LossKind) -> "LinearModel":
        return cls(w=np.zeros(dim), b=0.0, loss=loss, dim=dim)


@dataclass
class SolverState:
    """Solver state after step t; sums the solver does not keep stay at their defaults."""

    v: DenseVec
    a: float
    t: int
    u: DenseVec | None = None
    c: float = 0.0
    h: float = 0.0
    xbar: DenseVec | None = None
    theta: float = 0.0
    z: float = 0.0
    r: float = 0.0
    s: float = 0.0


# Called after every completed step with the solver state and the
# prediction p used at that step (0.0 for step 1).  The state holds the
# live arrays, so an observer that keeps it must copy it.  Test-only hook.
Observer = Callable[[SolverState, float], None]


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
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if steps == 0:
        return np.empty(0, dtype=np.int64)
    z = np.uint64(seed) + np.arange(1, steps + 1, dtype=np.uint64) * _SM64_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM64_MUL1
    z = (z ^ (z >> np.uint64(27))) * _SM64_MUL2
    z ^= z >> np.uint64(31)
    unit = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.floor(m * unit).astype(np.int64)


def predict(model: LinearModel, x: SparseVec, counter: TouchCounter | None = None) -> float:
    """w . x + b via the O(k) kernel."""
    if x.dim != model.dim:
        raise DimensionError(f"input dim {x.dim} != model dim {model.dim}")
    return dot(model.w, x, counter) + model.b


def _train(
    data: "Dataset",
    cfg: TrainConfig,
    counter: TouchCounter | None,
    observer: Observer | None,
    average: bool,
    center: bool,
) -> LinearModel:
    """The loop behind all three solvers; ``center`` requires ``average``."""
    if data.m == 0:
        raise EmptyDatasetError("training needs at least one example")
    validate_labels(data, cfg.loss)
    order = draw_indices(cfg.seed, cfg.steps, data.m).tolist()
    lam, T, kind = cfg.lam, cfg.steps, cfg.loss
    examples = data.examples

    xbar = mean_vector(data, counter) if center else None
    theta = 1.0 + squared_norm(xbar, counter) if center else 0.0
    v = np.zeros(data.dim)
    u = np.zeros(data.dim) if average else None
    a = c = h = z = r = s = p = 0.0

    for t in range(1, T + 1):
        x, y = examples[order[t - 1]]
        if center:
            q = dot(xbar, x, counter)
        if t > 1:
            d = dot(v, x, counter)
            # sgd and asgd keep -(d + a): with q = 0 the centered form can
            # flip the sign of a zero prediction
            p = -(d + r - a * q if center else d + a) / (lam * (t - 1))
        g = loss_subgradient(kind, p, y)
        if not (math.isfinite(p) and math.isfinite(g)):
            raise NonFiniteError(
                f"non-finite value at step {t} (p={p}, g={g}); "
                "lambda may be too small for the data"
            )
        axpy(v, g, x, counter)
        a += g
        if average:
            if t > 1:  # weight is the harmonic number of step t-1; h_0 = 0
                axpy(u, h * g, x, counter)
            c += a / t
            h += 1.0 / t
        if center:
            z += g * q
            r = a * theta - z
            s += r / t
        if observer is not None:
            observer(SolverState(v, a, t, u, c, h, xbar, theta, z, r, s), p)

    scale = 1.0 / (lam * T)
    coeffs, bias = [(-scale, v)], a
    if average:
        coeffs, bias = [(-h * scale, v), (scale, u)], c
    if center:
        coeffs, bias = coeffs + [(c * scale, xbar)], s
    w = finalize_combine(coeffs, counter)
    return LinearModel(w=w, b=-bias * scale, loss=kind, dim=data.dim)


def sgd_train(
    data: "Dataset",
    cfg: TrainConfig,
    counter: TouchCounter | None = None,
    observer: Observer | None = None,
) -> LinearModel:
    """Plain SGD; returns the last iterate."""
    return _train(data, cfg, counter, observer, average=False, center=False)


def asgd_train(
    data: "Dataset",
    cfg: TrainConfig,
    counter: TouchCounter | None = None,
    observer: Observer | None = None,
) -> LinearModel:
    """SGD returning the average of all iterates instead of the last one."""
    return _train(data, cfg, counter, observer, average=True, center=False)


def casgd_train(
    data: "Dataset",
    cfg: TrainConfig,
    counter: TouchCounter | None = None,
    observer: Observer | None = None,
) -> LinearModel:
    """Averaged SGD on implicitly mean-centered data.

    Predictions from the returned model apply directly to raw, uncentered
    inputs: the centering shift lives in the bias term, which makes the
    trained predictor invariant to translating the whole training set.
    """
    return _train(data, cfg, counter, observer, average=True, center=True)


# Recovery of predictors from solver state at any step t; used by the
# equivalence tests.

def recover_sgd_iterate(state: SolverState, lam: float) -> tuple[DenseVec, float]:
    """(w_t, b_t) = -[v_t, a_t] / (lam*t)."""
    scale = -1.0 / (lam * state.t)
    return scale * state.v, scale * state.a


def recover_centered_iterate(state: SolverState, lam: float) -> tuple[DenseVec, float]:
    """Current centered-data iterate with its implicit (uncentered-input) bias."""
    scale = -1.0 / (lam * state.t)
    return scale * (state.v - state.a * state.xbar), scale * state.r
