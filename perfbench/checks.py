"""Output checks that use no ``sparselin`` code.

The model reader below is the benchmark's own implementation of the
``sparselin-model v1`` text format, and every expected value is recomputed
with numpy from the generator's arrays.  Each check raises ``CheckError``
with a one-line reason when the output is wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from corpus import Corpus

MODEL_MAGIC = "sparselin-model v1"
LOSSES = ("absolute", "squared", "hinge", "log")
CLASSIFICATION = ("hinge", "log")
SCORE_RTOL = 1e-9  # predict output against X @ w + b
EVAL_RTOL = 1e-9  # eval / train summaries against the numpy recomputation
REFERENCE_RTOL = 1e-6  # train objective against the recorded reference


class CheckError(Exception):
    pass


@dataclass
class Model:
    loss: str
    dim: int
    w: np.ndarray
    b: float


def read_model(text: str) -> Model:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 4 or lines[0] != MODEL_MAGIC:
        raise CheckError("model: missing 'sparselin-model v1' header")
    if not lines[1].startswith("loss ") or lines[1][5:] not in LOSSES:
        raise CheckError(f"model: bad loss line {lines[1]!r}")
    if not lines[2].startswith("dim "):
        raise CheckError(f"model: bad dim line {lines[2]!r}")
    if not lines[3].startswith("bias "):
        raise CheckError(f"model: bad bias line {lines[3]!r}")
    try:
        dim = int(lines[2][4:])
        b = float(lines[3][5:])
        pairs = np.array(
            [tok for line in lines[4:] for tok in line.split(":")], dtype=np.float64
        ).reshape(-1, 2)
    except ValueError as exc:
        raise CheckError(f"model: {exc}") from None
    if len(lines) - 4 != pairs.shape[0]:
        raise CheckError("model: weight lines must be '<idx>:<float>'")
    idx = pairs[:, 0].astype(np.int64)
    if not np.array_equal(idx, pairs[:, 0]) or np.any(np.diff(idx) <= 0):
        raise CheckError("model: weight indices must be increasing integers")
    if idx.size and (idx[0] < 0 or idx[-1] >= dim):
        raise CheckError(f"model: weight index outside [0, {dim})")
    if not (math.isfinite(b) and np.all(np.isfinite(pairs[:, 1]))):
        raise CheckError("model: non-finite weight or bias")
    w = np.zeros(dim)
    w[idx] = pairs[:, 1]
    return Model(loss=lines[1][5:], dim=dim, w=w, b=b)


def losses(kind: str, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    if kind == "squared":
        return 0.5 * (p - y) ** 2
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - p * y)
    if kind == "log":
        return np.logaddexp(0.0, -p * y)
    return np.abs(p - y)


def objective(model: Model, corpus: Corpus, lam: float) -> float:
    p = corpus.scores(model.w, model.b)
    reg = 0.5 * lam * (float(model.w @ model.w) + model.b * model.b)
    return reg + float(losses(model.loss, p, corpus.labels).mean())


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def summary_fields(line: str) -> dict[str, float]:
    """key=value pairs of a one-line CLI summary, numeric values only."""
    fields = {}
    for tok in line.split():
        key, sep, val = tok.partition("=")
        if sep:
            try:
                fields[key] = float(val)
            except ValueError:
                pass
    return fields


def check_train(stdout: str, model: Model, corpus: Corpus, lam: float, loss: str,
                reference: float) -> None:
    """The printed objective matches the model file and the recorded reference
    objective for this corpus and algorithm."""
    if model.loss != loss:
        raise CheckError(f"train: model loss {model.loss!r}, expected {loss!r}")
    printed = summary_fields(stdout).get("objective")
    if printed is None or not math.isfinite(printed):
        raise CheckError(f"train: no finite objective in {stdout.strip()!r}")
    want = objective(model, corpus, lam)
    if not _close(printed, want, EVAL_RTOL):
        raise CheckError(f"train: objective {printed!r} != recomputed {want!r}")
    if not _close(printed, reference, REFERENCE_RTOL):
        raise CheckError(f"train: objective {printed!r} != reference {reference!r}")


def check_predict(text: str, model: Model, corpus: Corpus) -> None:
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError("predict: output does not end with a newline")
    lines.pop()
    if len(lines) != corpus.m:
        raise CheckError(f"predict: {len(lines)} lines for {corpus.m} rows")
    try:
        got = np.array(lines, dtype=np.float64)
    except ValueError as exc:
        raise CheckError(f"predict: {exc}") from None
    if not np.all(np.isfinite(got)):
        raise CheckError("predict: non-finite prediction")
    want = corpus.scores(model.w, model.b)
    bad = np.abs(got - want) > SCORE_RTOL * corpus.score_scale(model.w, model.b)
    if bad.any():
        r = int(np.argmax(bad))
        raise CheckError(f"predict: row {r + 1} is {got[r]!r}, X @ w + b is {want[r]!r}")


def check_eval(stdout: str, model: Model, corpus: Corpus, lam: float) -> None:
    fields = summary_fields(stdout)
    p = corpus.scores(model.w, model.b)
    y = corpus.labels
    want = {
        "avg_loss": float(losses(model.loss, p, y).mean()),
        "objective": objective(model, corpus, lam),
    }
    if model.loss in CLASSIFICATION:
        want["accuracy"] = float(np.mean(p * y > 0))
    if set(fields) != set(want):
        raise CheckError(f"eval: fields {sorted(fields)}, expected {sorted(want)}")
    for key, val in want.items():
        if key == "accuracy":
            # a score within rounding of 0 may land on either side
            near_zero = np.abs(p) <= SCORE_RTOL * corpus.score_scale(model.w, model.b)
            ok = abs(fields[key] - val) <= float(np.mean(near_zero)) + 1e-12
        else:
            ok = _close(fields[key], val, EVAL_RTOL)
        if not ok:
            raise CheckError(f"eval: {key}={fields[key]!r}, recomputed {val!r}")
