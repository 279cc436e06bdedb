"""Seeded synthetic LIBSVM corpora for the benchmark.

Uses numpy only and never imports ``sparselin``, so every version of the
program under test reads byte-identical inputs for one seed.  Every row has
exactly ``k`` distinct, sorted, nonzero features, and feature ``n - 1``
occurs in the last row.  Values are multiples of 1/1000 in (0, 1], written
with ``repr`` so the parsed floats equal the arrays kept here bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Spec:
    m: int
    n: int
    k: int
    kind: str  # "class" (labels +-1) or "regress" (real labels)


@dataclass
class Corpus:
    indices: np.ndarray  # (m, k) int64, 0-based, strictly increasing per row
    values: np.ndarray  # (m, k) float64
    labels: np.ndarray  # (m,) float64
    labeled: bytes  # LIBSVM text with labels
    features: bytes  # the same rows without labels (prediction input)

    @property
    def m(self) -> int:
        return self.labels.shape[0]

    def scores(self, w: np.ndarray, b: float) -> np.ndarray:
        """X @ w + b, with indices beyond len(w) carrying zero weight."""
        idx = self.indices
        inside = idx < w.shape[0]
        wx = np.where(inside, w[np.where(inside, idx, 0)], 0.0)
        return (wx * self.values).sum(axis=1) + b

    def score_scale(self, w: np.ndarray, b: float) -> np.ndarray:
        """sum |w_i x_i| + |b| per row: the magnitude a score is relative to."""
        idx = self.indices
        inside = idx < w.shape[0]
        wx = np.where(inside, w[np.where(inside, idx, 0)], 0.0)
        return np.abs(wx * self.values).sum(axis=1) + abs(b)


def _draw_indices(rng: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    idx = np.sort(rng.integers(0, n, size=(m, k)), axis=1)
    while True:
        dup = np.any(np.diff(idx, axis=1) == 0, axis=1)
        if not dup.any():
            break
        idx[dup] = np.sort(rng.integers(0, n, size=(int(dup.sum()), k)), axis=1)
    # the last feature is always present, so the parsed dimension is n for every seed
    idx[-1, -1] = n - 1
    return idx


def _text(idx: np.ndarray, q: np.ndarray, labels: list[str] | None) -> bytes:
    value_text = [repr(v / 1000) for v in range(1001)]
    lines = []
    for r in range(idx.shape[0]):
        feats = " ".join(
            f"{i}:{value_text[v]}" for i, v in zip((idx[r] + 1).tolist(), q[r].tolist())
        )
        lines.append(feats if labels is None else f"{labels[r]} {feats}")
    return ("\n".join(lines) + "\n").encode("ascii")


def generate(spec: Spec, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    idx = _draw_indices(rng, spec.m, spec.n, spec.k)
    q = rng.integers(1, 1001, size=(spec.m, spec.k))
    values = q / 1000
    truth = rng.normal(size=spec.n)
    score = (truth[idx] * values).sum(axis=1)
    noise = rng.normal(scale=0.3 * score.std(), size=spec.m)
    if spec.kind == "class":
        labels = np.where(score + noise >= 0.0, 1.0, -1.0)
        label_text = ["1" if y > 0 else "-1" for y in labels.tolist()]
    else:
        labels = score + noise
        label_text = [repr(y) for y in labels.tolist()]
    return Corpus(
        indices=idx,
        values=values,
        labels=labels,
        labeled=_text(idx, q, label_text),
        features=_text(idx, q, None),
    )


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
