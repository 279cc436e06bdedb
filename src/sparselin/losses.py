"""Convex losses, their subderivatives, and the regularized objective.

Prediction-side conventions at the nondifferentiable points are pinned so
that independent implementations agree bit-for-bit: the absolute loss
returns -1 whenever p <= y, the hinge returns -y whenever p*y <= 1.

The log loss is evaluated in overflow-safe form; the textbook expressions
log(1 + exp(-p*y)) and -y / (1 + exp(p*y)) break down for |p*y| beyond a
few hundred.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError, LabelError
from .sparse_core import dot, squared_norm

if TYPE_CHECKING:
    from .data_io import Dataset
    from .solvers import LinearModel


class LossKind(Enum):
    ABSOLUTE = "absolute"
    SQUARED = "squared"
    HINGE = "hinge"
    LOG = "log"

    @property
    def is_classification(self) -> bool:
        return self in (LossKind.HINGE, LossKind.LOG)


def _check_label(kind: LossKind, y: float) -> None:
    if kind.is_classification and y not in (-1.0, 1.0):
        raise LabelError(f"{kind.value} loss needs labels in {{-1, +1}}, got {y}")


def loss_value(kind: LossKind, p: float, y: float) -> float:
    """Penalty for predicting p when the true label is y."""
    if __debug__:
        _check_label(kind, y)
    if kind is LossKind.SQUARED:
        return 0.5 * (p - y) * (p - y)
    if kind is LossKind.HINGE:
        m = 1.0 - p * y
        return m if m > 0.0 else 0.0
    if kind is LossKind.LOG:
        py = p * y
        if py >= 0.0:
            return math.log1p(math.exp(-py))
        return -py + math.log1p(math.exp(py))
    return abs(p - y)


def loss_subgradient(kind: LossKind, p: float, y: float) -> float:
    """Subderivative of the loss with respect to the prediction p."""
    if __debug__:
        _check_label(kind, y)
    if kind is LossKind.SQUARED:
        return p - y
    if kind is LossKind.HINGE:
        return -y if p * y <= 1.0 else 0.0
    if kind is LossKind.LOG:
        py = p * y
        if py >= 0.0:
            e = math.exp(-py)
            return -y * e / (1.0 + e)
        return -y / (1.0 + math.exp(py))
    return -1.0 if p <= y else 1.0


def validate_labels(data: "Dataset", kind: LossKind) -> None:
    """Check every label once, up front; the per-step loss calls then only
    assert in debug runs."""
    if not kind.is_classification:
        return
    bad = np.flatnonzero((data.labels != 1.0) & (data.labels != -1.0))
    if bad.size:
        i = int(bad[0])
        raise LabelError(
            f"example {i + 1}: {kind.value} loss needs labels in {{-1, +1}}, "
            f"got {float(data.labels[i])}"
        )


def objective_value(model: "LinearModel", data: "Dataset", lam: float) -> float:
    """Regularized objective: (lam/2)(|w|^2 + b^2) + average loss."""
    if not lam > 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    if model.dim != data.dim:
        raise DimensionError(f"model dim {model.dim} != data dim {data.dim}")
    if data.m == 0:
        raise ValueError("objective_value needs at least one example")
    total = 0.0
    for i, y in enumerate(data.labels.tolist()):
        total += loss_value(model.loss, dot(model.w, data.row(i)) + model.b, y)
    return penalized(model, lam, total / data.m)


def penalized(model: "LinearModel", lam: float, avg_loss: float) -> float:
    """The objective from a precomputed average loss: (lam/2)(|w|^2 + b^2) + avg_loss."""
    return 0.5 * lam * (squared_norm(model.w) + model.b * model.b) + avg_loss
