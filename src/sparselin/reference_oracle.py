"""Deliberately naive O(T*n) dense implementations used as test ground truth.

These run the textbook dense recurrence

    [w_t, b_t] = (1 - 1/t) [w_{t-1}, b_{t-1}] - (g_t / (lam*t)) [x_t, 1]

touching every one of the n components at every step, and recover the
averaged/centered variants by explicit summation.  They share the index
sequence and the loss code with the sparse solvers; the update algebra --
the part under test -- is independent.

Not meant for real training: the trace costs O(T*n) memory (pass
``keep_trace=False`` to time large instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .losses import LossKind, loss_subgradient, validate_labels
from .sparse_core import DenseVec, TouchCounter
from .solvers import LinearModel, TrainConfig, draw_indices

if TYPE_CHECKING:
    from .data_io import Dataset


@dataclass
class DenseTrace:
    """All T intermediate predictors (w_t, b_t), t = 1..T."""

    iterates: list[tuple[DenseVec, float]]

    def __len__(self) -> int:
        return len(self.iterates)

    def final(self) -> tuple[DenseVec, float]:
        return self.iterates[-1]

    def mean(self) -> tuple[DenseVec, float]:
        ws = np.mean([w for w, _ in self.iterates], axis=0)
        bs = float(np.mean([b for _, b in self.iterates]))
        return ws, bs


def _densify_rows(data: "Dataset", counter: TouchCounter | None) -> np.ndarray:
    rows = np.zeros((data.m, data.dim))
    rows[np.repeat(np.arange(data.m), np.diff(data.indptr)), data.indices] = data.values
    if counter is not None:
        counter.outside_dense_touches += data.m * data.dim
    return rows


def _run_dense(
    rows: np.ndarray,
    ys: list[float],
    order: list[int],
    lam: float,
    kind: LossKind,
    counter: TouchCounter | None,
    keep_trace: bool,
) -> DenseTrace | tuple[DenseVec, float]:
    n = rows.shape[1]
    w = np.zeros(n)
    b = 0.0
    iterates: list[tuple[DenseVec, float]] = []
    for t, j in enumerate(order, start=1):
        xd = rows[j]
        p = float(w @ xd) + b
        g = loss_subgradient(kind, p, ys[j])
        keep = 1.0 - 1.0 / t
        step = g / (lam * t)
        w *= keep
        w -= step * xd
        b = keep * b - step
        if counter is not None:
            # dot + rescale + subtract: three full passes over the n weights
            counter.loop_dense_touches += 3 * n
        if keep_trace:
            iterates.append((w.copy(), b))
    if keep_trace:
        return DenseTrace(iterates)
    return w, b


def dense_sgd(
    data: "Dataset",
    cfg: TrainConfig,
    counter: TouchCounter | None = None,
    keep_trace: bool = True,
) -> DenseTrace | tuple[DenseVec, float]:
    """All iterates of the dense recurrence, same index sequence as sgd_train."""
    validate_labels(data, cfg.loss)
    order = draw_indices(cfg.seed, cfg.steps, data.m).tolist()
    rows = _densify_rows(data, counter)
    ys = data.labels.tolist()
    return _run_dense(rows, ys, order, cfg.lam, cfg.loss, counter, keep_trace)


def dense_asgd(data: "Dataset", cfg: TrainConfig, counter: TouchCounter | None = None) -> LinearModel:
    """Arithmetic mean of the dense_sgd iterates."""
    trace = dense_sgd(data, cfg, counter)
    w, b = trace.mean()
    return LinearModel(w=w, b=b, loss=cfg.loss, dim=data.dim)


def dense_casgd(data: "Dataset", cfg: TrainConfig, counter: TouchCounter | None = None) -> LinearModel:
    """Explicit dense centering, averaged run, then bias conversion.

    Center every example as x - xbar, average the dense iterates on the
    centered data (same index sequence), and fold the centering back into
    the bias: b' = b - w . xbar, so the model applies to raw inputs.
    """
    validate_labels(data, cfg.loss)
    order = draw_indices(cfg.seed, cfg.steps, data.m).tolist()
    rows = _densify_rows(data, counter)
    ys = data.labels.tolist()
    xbar = rows.mean(axis=0)
    centered = rows - xbar
    if counter is not None:
        counter.outside_dense_touches += 2 * data.m * data.dim
    trace = _run_dense(centered, ys, order, cfg.lam, cfg.loss, counter, keep_trace=True)
    w, b = trace.mean()
    return LinearModel(w=w, b=b - float(w @ xbar), loss=cfg.loss, dim=data.dim)
