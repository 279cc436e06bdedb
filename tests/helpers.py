"""Shared instance generators and tolerance helpers for the test suite."""

from __future__ import annotations

import numpy as np

from sparselin import (
    Dataset,
    LossKind,
    NonFiniteError,
    SparseVec,
    TrainConfig,
    casgd_train,
    draw_indices,
    sgd_train,
)

ALL_LOSSES = list(LossKind)


def rel_err(actual, reference) -> float:
    """L2 distance relative to the reference scale, floored at 1 so that
    near-zero references are compared absolutely."""
    a = np.atleast_1d(np.asarray(actual, dtype=float))
    r = np.atleast_1d(np.asarray(reference, dtype=float))
    return float(np.linalg.norm(a - r) / max(1.0, np.linalg.norm(r)))


def model_rel_err(model, ref_w, ref_b) -> float:
    return rel_err(np.append(model.w, model.b), np.append(ref_w, ref_b))


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


def _comparable(data: Dataset, cfg: TrainConfig, solvers) -> bool:
    labels = data.labels.tolist()
    order = draw_indices(cfg.seed, cfg.steps, data.m)
    for train in solvers:
        worst_p = 0.0
        worst_gap = float("inf")

        def watch(state, p):
            nonlocal worst_p, worst_gap
            worst_p = max(worst_p, abs(p))
            worst_gap = min(worst_gap, _kink_gap(cfg.loss, p, labels[order[state.t - 1]]))

        try:
            train(data, cfg, observer=watch)
        except NonFiniteError:
            return False
        if worst_p > _MAX_ABS_P or worst_gap < _MIN_KINK_GAP:
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
    solvers = (sgd_train, casgd_train) if centered else (sgd_train,)
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
        if not _comparable(data, cfg, solvers):
            continue
        produced += 1
        yield data, loss, lam, steps, solver_seed


def shift_vec(x: SparseVec, delta: np.ndarray) -> SparseVec:
    """x + delta as an (explicitly dense) sparse vector."""
    return SparseVec(np.arange(x.dim), x.densify() + delta, x.dim)


def shift_dataset(data: Dataset, delta: np.ndarray) -> Dataset:
    return Dataset.from_rows(
        [(shift_vec(data.row(i), delta), y) for i, y in enumerate(data.labels)], data.dim
    )
