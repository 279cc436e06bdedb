"""Shared instance generators and tolerance helpers for the test suite."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from sparselin import (
    Dataset,
    LinearModel,
    LossKind,
    NonFiniteError,
    SparseVec,
    TrainConfig,
    _kernel,
    draw_indices,
)
from sparselin.solvers import _LOSSES, ALGOS, _python_steps, fit
from sparselin.sparse_core import column_mean, mean_vector, row_dots, squared_norm

ALL_LOSSES = list(LossKind)


def rel_err(actual, reference) -> float:
    """L2 distance relative to the reference scale, floored at 1 so that
    near-zero references are compared absolutely."""
    a = np.atleast_1d(np.asarray(actual, dtype=float))
    r = np.atleast_1d(np.asarray(reference, dtype=float))
    return float(np.linalg.norm(a - r) / max(1.0, np.linalg.norm(r)))


def dense_model(w: np.ndarray, b: float, loss: LossKind) -> LinearModel:
    """The model of the dense weight vector w, every one of its len(w) features
    in the support (signed zeros kept)."""
    return LinearModel(np.arange(w.size), w, b, loss, w.size)


def reference_scores(model: LinearModel, data: Dataset) -> list[float]:
    """w . x + b for every row x of ``data``, the reference for ``losses.scores``:
    each product of a dense w, held as a map from the support to the weights
    (w of every other index 0, at or beyond ``model.dim`` too), added left to
    right from +0.0, then b."""
    w = dict(zip(model.feats.tolist(), model.weights.tolist()))
    indices, values = data.indices.tolist(), data.values.tolist()
    out = []
    for lo, hi in zip(data.indptr[:-1].tolist(), data.indptr[1:].tolist()):
        d = 0.0
        for j in range(lo, hi):
            d += w.get(indices[j], 0.0) * values[j]
        out.append(d + model.b)
    return out


def model_rel_err(model, ref_w, ref_b) -> float:
    return rel_err(np.append(model.dense(), model.b), np.append(ref_w, ref_b))


def random_sparse(
    rng: np.random.Generator, n: int, k_max: int, scale: float = 1.0, k_min: int = 0
) -> SparseVec:
    k = int(rng.integers(k_min, min(n, k_max) + 1))
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return SparseVec(idx, scale * rng.normal(size=k), n)


def random_label(rng: np.random.Generator, loss: LossKind) -> float:
    if loss.is_classification:
        return float(rng.choice([-1.0, 1.0]))
    return float(rng.normal(scale=2.0))


def random_dataset(
    rng: np.random.Generator, n: int, m: int, k_max: int, loss: LossKind, k_min: int = 0
) -> Dataset:
    return Dataset.from_rows(
        [(random_sparse(rng, n, k_max, k_min=k_min), random_label(rng, loss)) for _ in range(m)], n
    )


# Two float implementations of the same recurrence can only be compared on
# instances whose dynamics do not amplify their rounding gap beyond the test
# tolerance.  The screen below rejects candidates that
#   - blow up (|p| beyond _MAX_ABS_P: small-lambda squared-loss runs can
#     excurse through 1e70 before contracting again, leaving absolute float
#     error far above any tolerance), or
#   - pass within _MIN_KINK_GAP of a hinge/absolute subgradient kink, where
#     the two roundings of p can take different branches of the
#     discontinuity (the hinge margin attractor eventually snaps p onto
#     p*y == 1.0 exactly).
# The screen reads only the sparse solvers' own trajectories, so a screened
# family is deterministic for a given generator seed.
_MAX_ABS_P = 1e4
_MIN_KINK_GAP = 1e-8


def _kink_gap(loss: LossKind, p: float, y: float) -> float:
    if loss is LossKind.HINGE:
        return abs(p * y - 1.0)
    if loss is LossKind.ABSOLUTE:
        return abs(p - y)
    return float("inf")


def _comparable(data: Dataset, cfg: TrainConfig, algos) -> bool:
    labels = data.labels.tolist()
    order = draw_indices(cfg.seed, cfg.steps, data.m).tolist()
    for algo in algos:
        try:  # the trainer itself, for a NonFiniteError in the loop or in the model
            fit(algo, data, cfg)
        except NonFiniteError:
            return False
        args = loop_args(data, cfg.loss, cfg.lam, cfg.seed, *ALGOS[algo])
        for step in trace(args, cfg.steps):
            gap = _kink_gap(cfg.loss, step.p, labels[order[step.t - 1]])
            if abs(step.p) > _MAX_ABS_P or gap < _MIN_KINK_GAP:
                return False
    return True


def instance_family(seed: int, count: int, m_min: int = 1, centered: bool = False):
    """Random small, numerically comparable training instances, cycling
    through all four losses.

    Yields (dataset, loss, lam, steps, solver_seed); dimensions stay small
    enough that the dense reference runs in microseconds.  Every example
    has at least one nonzero so predictions are generic floats, and every
    candidate is screened for comparability (see _comparable).  With
    ``centered=True`` the screen also covers the centered solver's
    trajectory.
    """
    rng = np.random.default_rng(seed)
    produced = 0
    attempts = 0
    algos = ("sgd", "casgd") if centered else ("sgd",)
    while produced < count:
        attempts += 1
        if attempts > 50 * count:
            raise RuntimeError("instance screening rejected too many candidates")
        loss = ALL_LOSSES[produced % len(ALL_LOSSES)]
        n = int(rng.integers(1, 33))
        m = int(rng.integers(m_min, 17))
        steps = int(rng.integers(1, 257))
        lam = float(rng.choice([0.01, 0.1, 1.0]))
        data = random_dataset(rng, n, m, 8, loss, k_min=1)
        solver_seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        cfg = TrainConfig(steps=steps, lam=lam, seed=solver_seed, loss=loss)
        if not _comparable(data, cfg, algos):
            continue
        produced += 1
        yield data, loss, lam, steps, solver_seed


def recover_sgd_iterate(step, lam: float) -> tuple[np.ndarray, float]:
    """The iterate (w_t, b_t) = -[v_t, a_t] / (lam*t) from the state after step t."""
    scale = -1.0 / (lam * step.t)
    return scale * step.v, scale * step.a


def recover_centered_iterate(step, lam: float) -> tuple[np.ndarray, float]:
    """The centered-data iterate after step t, with its implicit (uncentered-input) bias."""
    scale = -1.0 / (lam * step.t)
    return scale * (step.v - step.a * step.xbar), scale * step.r


def loop_args(data: Dataset, loss: LossKind, lam: float, seed: int, average: bool,
              center: bool) -> tuple:
    """The arguments of ``sl_steps``/``_python_steps`` before t0 and t1, as
    ``_train`` builds them but over all of ``data``'s dimensions, each index
    its own int32 position, with fresh zero sums and state array: with
    centering, theta and q, each row's product with the mean."""
    idx, q, theta = data.indices.astype(np.int32), None, 0.0
    if center:
        xbar = mean_vector(data)
        theta, q = 1.0 + squared_norm(xbar), row_dots(xbar, data.indptr, idx, data.values)
    return (seed, data.m, data.indptr, idx, data.values, data.labels, _LOSSES.index(loss), lam,
            theta, q, np.zeros(data.dim), np.zeros(data.dim) if average else None, np.zeros(8))


class Step(NamedTuple):
    """The loop's state after step t, and the prediction p that step used
    (0.0 at step 1).  Sums the solver does not keep stay None or 0.0."""

    t: int
    p: float
    v: np.ndarray
    u: np.ndarray | None
    xbar: np.ndarray | None
    theta: float
    a: float
    c: float
    h: float
    z: float
    r: float
    s: float


def trace(args: tuple, steps: int, loop=None):
    """Steps 1..``steps`` of the loop over ``loop_args``' ``args``, one call per
    step over [t, t + 1): yields each step's ``Step``, v and u copied.  ``loop``
    defaults to the one ``_train`` runs (``sl_steps`` where the kernel loads);
    pass ``_python_steps`` for the fallback.  A step that goes non-finite
    raises ``NonFiniteError``, so no test reads a trace cut short.  A centered
    ``Step`` carries the mean, computed again from the arguments."""
    if loop is None:
        lib = _kernel.load()
        loop = _python_steps if lib is None else lib.sl_steps
    _, m, _, idx, values, *_, theta, q, v, u, st = args
    xbar = None if q is None else column_mean(idx, values, m, v.size)
    for t in range(1, steps + 1):
        if loop(*args, t, t + 1):
            raise NonFiniteError(f"non-finite value at step {t}")
        a, c, h, z, r, s, p = st.tolist()[:7]
        yield Step(t, p, v.copy(), None if u is None else u.copy(), xbar, theta,
                   a, c, h, z, r, s)


def densify(x: SparseVec) -> np.ndarray:
    """x as a dense vector."""
    out = np.zeros(x.dim)
    out[x.indices] = x.values
    return out


def sparsify(v: np.ndarray) -> SparseVec:
    """The nonzero components of the dense vector v."""
    idx = np.flatnonzero(v)
    return SparseVec(idx, v[idx], v.size)


def shift_vec(x: SparseVec, delta: np.ndarray) -> SparseVec:
    """x + delta as an (explicitly dense) sparse vector."""
    return SparseVec(np.arange(x.dim), densify(x) + delta, x.dim)


def shift_dataset(data: Dataset, delta: np.ndarray) -> Dataset:
    return Dataset.from_rows(
        [(shift_vec(data.row(i), delta), y) for i, y in enumerate(data.labels)], data.dim
    )


def _exact_decimal(x) -> str:
    """The dyadic rational x (a Fraction) as an exact decimal ``<digits>e-<k>``."""
    k = max(x.denominator.bit_length() - 1, 0)  # the denominator is 2^k
    return f"{x.numerator * 5 ** k}e-{k}"


def _midpoints() -> list[str]:
    """For doubles where rounding is hardest, the exact decimal halfway to the
    next double up, and the decimals one unit in its last digit below and
    above: a tie rounds to the even neighbour, the others away from it."""
    out = []
    for x in (5e-324, 1e-323, math.nextafter(sys.float_info.min, 0.0), sys.float_info.min,
              1e-300, 7.038531e-26, 1.0, 2.0, 2.0 ** 52, 2.0 ** 53, 1e23,
              sys.float_info.max):
        up = math.nextafter(x, math.inf)
        mid = (Fraction(x) + (Fraction(up) if up < math.inf else Fraction(2) ** 1024)) / 2
        digits, _, exp = _exact_decimal(mid).partition("e")
        for n in (int(digits) - 1, int(digits), int(digits) + 1):
            out.append(f"{n}e{exp}")
    return out


# Decimal strings at the edges of the compiled number reader (number() in
# _kernel.c), each read as Python's float reads it or, where that is not
# finite, refused.  The last ones are exact midpoints of neighbouring doubles.
NUMBER_EDGES = [
    # 2^53 and its neighbours: Clinger's exact path ends at 2^53; 2^53 + 1 is a tie
    "9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994",
    "9007199254740995", "9007199254740993.0", "9.007199254740993e15",
    # the largest subnormal and the smallest normal double
    "2.2250738585072011e-308", "2.2250738585072014e-308", "2.2250738585072012e-308",
    # the smallest subnormal, and half of it, which ties to 0, and just above half
    "4.9406564584124654e-324", "5e-324", "3e-324", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "1e-323",
    # the largest double, the decimals that still round to it, and one that overflows
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623158079e308",
    "1.7976931348623159e308", "1e308", "1e309", "-1e309",
    # zeros and underflow
    "-0", "0", "+0", "0e999", "-0e-999", "0.000", ".0e0", "1e-400", "-1e-400", "1e-342",
    "1e-343", "9999999999999999999e-342", "9999999999999999999e-343",
    # 19 and 20 significant digits: up to 19 the mantissa is read whole, past it cut
    "1000000000000000000", "9999999999999999999", "10000000000000000000",
    "99999999999999999999", "1844674407370955161", "18446744073709551615",
    "18446744073709551616", "1234567890123456789", "12345678901234567890",
    "1234567890123456789.5", "0.00000000000000000000012345678901234567891",
    "9007199254740993.00000000000000000001", "9007199254740992.99999999999999999999",
    "100000000000000000000000000000000000000e-38", "123456789012345678901234567890e-30",
    # the exact path's limits (above 2^53, w as a double is rounded once too
    # often), and hard cases from the Eisel-Lemire literature
    "1e22", "1e23", "1e-22", "1e-23", "9039171559262585e-22", "11507007968910921e17", "4503599627370496.5", "4503599627370497.5",
    "7.038531e-26", "0.1", "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203124",
    "1.00000000000000011102230246251565404236316680908203126",
    "2.000000000000000444089209850062616169452667236328125",
    "8.98846567431158e307", "123456789.123456789e-5", "1e+0000000000000000000000000010",
    "1e-99999999999999999999999999999", "1e99999999999999999999999999999",
] + _midpoints()
