"""Convex losses, the linear model, its scores on a dataset and the regularized objective.

A ``LinearModel`` is (w, b) over its support plus the loss it was trained
for; ``predict`` applies it to one row, and a ``Scorer`` to CSR rows, any
number per call through one lookup directory: to every row of a ``Dataset``
(``scores``), or to a file a block at a time as it is read
(``data_io.load_scores``, which the ``predict`` and ``eval`` commands use),
bit for bit alike.  ``objective_value`` evaluates it through the same
``Scorer``, as ``train`` prints it.

Prediction-side conventions at the nondifferentiable points are pinned so
that independent implementations agree bit-for-bit: the absolute loss
returns -1 whenever p <= y, the hinge returns -y whenever p*y <= 1.

The log loss is evaluated in overflow-safe form; the textbook expressions
log(1 + exp(-p*y)) and -y / (1 + exp(p*y)) break down for |p*y| beyond a
few hundred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError, LabelError, SparselinError
from .sparse_core import (Dataset, DenseVec, SparseVec, check_csr, directory, row_dots, search,
                          squared_norm)


class LossKind(Enum):
    ABSOLUTE = "absolute"
    SQUARED = "squared"
    HINGE = "hinge"
    LOG = "log"

    @property
    def is_classification(self) -> bool:
        return self in (LossKind.HINGE, LossKind.LOG)


@dataclass
class LinearModel:
    """Deployable predictor (w, b) plus the metadata needed to apply it.

    w is held as its support: ``weights[j]`` is the weight of feature
    ``feats[j]`` (sorted, distinct int64 in [0, dim)), and every other
    feature's weight is 0.  So a model costs O(n') memory however large
    ``dim`` is, which bounds only the indices; ``dense`` gives the dim-long w.
    """

    feats: np.ndarray
    weights: DenseVec
    b: float
    loss: LossKind
    dim: int

    def __post_init__(self):
        self.feats = np.ascontiguousarray(self.feats, dtype=np.int64)
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        check_csr(np.array([0, self.feats.size]), self.feats, self.weights, self.dim)

    def dense(self) -> DenseVec:
        """w as a dim-long vector, 0 off the support: O(n) memory, for callers
        that need the whole vector; nothing in training or scoring does."""
        w = np.zeros(self.dim)
        w[self.feats] = self.weights
        return w


def _check_label(kind: LossKind, y: float, where: str = "") -> None:
    if not (y in (-1.0, 1.0) if kind.is_classification else math.isfinite(y)):
        need = "labels in {-1, +1}" if kind.is_classification else "finite labels"
        raise LabelError(f"{where}{kind.value} loss needs {need}, got {y}")


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


def validate_labels(data: Dataset, kind: LossKind) -> None:
    """Check every label once, up front; the per-step loss calls then only
    assert in debug runs."""
    check_labels(data.labels, kind)


def check_labels(labels: np.ndarray, kind: LossKind) -> None:
    """``validate_labels`` of the labels alone, naming the first bad one's example:
    every loss needs finite labels, and a classification loss labels of -1 or +1."""
    ok = (labels == 1.0) | (labels == -1.0) if kind.is_classification else np.isfinite(labels)
    if not ok.all():
        i = int(ok.argmin())
        _check_label(kind, float(labels[i]), f"example {i + 1}: ")


class Scorer:
    """w . x + b of CSR rows under one model, any number of rows per call.

    A row sums w . x over its indices found in the model's support, left to
    right from +0.0, then adds b: an index not there, at or beyond ``dim``
    too, has weight 0 and adds nothing, whatever its value.  The path is
    picked once, here, by ``sparse_core.directory``: ``sl_scores``, one pass
    over the rows through the directory with no other temporary; else
    ``search`` and ``row_dots``, a miss taking a weight of 0.0 (appended after
    the last) and a value of 0.0, whose +0.0 product changes no such sum.  So
    rows scored in blocks (``data_io.load_scores``) score bit for bit as in
    one call (``scores``)."""

    def __init__(self, model: LinearModel):
        self.model, self.directory = model, directory(model.feats)
        if self.directory is None:
            self.weights = np.append(model.weights, 0.0)

    def __call__(self, indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
                 out: np.ndarray) -> None:
        """The scores of the rows ``indptr`` delimits in ``indices`` and ``values``
        into ``out``, one per row, finite or not."""
        model = self.model
        if self.directory is None:
            pos = search(model.feats, indices)
            values = np.where(pos < model.feats.size, values, 0.0)
            with np.errstate(over="ignore", invalid="ignore"):
                np.add(row_dots(self.weights, indptr, pos, values), model.b, out=out)
        else:
            lib, room, shift = self.directory
            lib.sl_scores(model.feats, model.weights, model.feats.size, model.b, indptr,
                          indices, values, out.size, room, shift, out)


def predict(model: LinearModel, x: SparseVec) -> float:
    """w . x + b of one row in O(k log n'), summed as ``row_dots`` sums, so bit
    for bit as a ``Scorer`` scores it: over the features of x in the model's
    support, since the ±0.0 terms of the others change no left-to-right sum."""
    if x.dim != model.dim:
        raise DimensionError(f"input dim {x.dim} != model dim {model.dim}")
    pos = search(model.feats, x.indices)
    hit = pos < model.feats.size
    d = row_dots(model.weights, np.array([0, np.count_nonzero(hit)]), pos[hit], x.values[hit])
    return float(d[0]) + model.b


def scores(model: LinearModel, data: Dataset) -> np.ndarray:
    """w . x + b for every row x, bit for bit as ``predict`` and training score
    it: one ``Scorer`` call over all rows, then ``finite_scores``."""
    p = np.empty(data.m)
    Scorer(model)(data.indptr, data.indices, data.values, p)
    return finite_scores(p)


def finite_scores(p: np.ndarray) -> np.ndarray:
    """``p``, unless a score is not finite: then an error naming the first one's example."""
    if not np.isfinite(p).all():
        i = int(np.isfinite(p).argmin())
        raise SparselinError(f"example {i + 1}: score {p[i]} is not finite")
    return p


def mean_loss(kind: LossKind, p: np.ndarray, labels: np.ndarray) -> float:
    """Average ``loss_value`` over the examples, summed in row order.

    Labels must be valid for the loss (``validate_labels``).  Hinge, squared
    and absolute loss repeat ``loss_value``'s IEEE operations elementwise,
    and ``cumsum`` adds left to right where ``np.sum`` would add pairwise, so
    the result is bit for bit that of the per-row loop the log loss keeps."""
    if kind is LossKind.LOG:
        total = 0.0
        for pi, y in zip(p.tolist(), labels.tolist()):
            total += loss_value(kind, pi, y)
        return total / labels.size
    with np.errstate(over="ignore"):  # an inf here is penalized's error, as in the loop
        if kind is LossKind.SQUARED:
            d = p - labels
            per_row = 0.5 * d * d
        elif kind is LossKind.HINGE:
            m = 1.0 - p * labels
            per_row = np.where(m > 0.0, m, 0.0)
        else:
            per_row = np.abs(p - labels)
        return float(np.cumsum(per_row)[-1]) / labels.size


def objective_value(model: LinearModel, data: Dataset, lam: float) -> float:
    """Regularized objective: (lam/2)(|w|^2 + b^2) + average loss."""
    if not lam > 0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    if model.dim != data.dim:
        raise DimensionError(f"model dim {model.dim} != data dim {data.dim}")
    if data.m == 0:
        raise ValueError("objective_value needs at least one example")
    validate_labels(data, model.loss)  # the label, then the score, as load_scores checks them
    return penalized(model, lam, mean_loss(model.loss, scores(model, data), data.labels))


def penalized(model: LinearModel, lam: float, avg_loss: float) -> float:
    """The objective from a precomputed average loss: (lam/2)(|w|^2 + b^2) + avg_loss.

    A term that overflows (a model too large for the data or for λ) is an
    error naming it, never an objective of inf."""
    if not math.isfinite(avg_loss):
        raise SparselinError(f"average loss {avg_loss} is not finite")
    penalty = 0.5 * lam * (squared_norm(model.weights) + model.b * model.b)
    if not math.isfinite(penalty):
        raise SparselinError(f"penalty (lambda/2)(|w|^2 + b^2) = {penalty} is not finite")
    if not math.isfinite(penalty + avg_loss):
        raise SparselinError(f"objective {penalty} + {avg_loss} is not finite")
    return penalty + avg_loss
