#!/usr/bin/env python3
"""Self-test of the benchmark's output checks; needs no sparselin.

    python3 perfbench/selftest.py

Builds a small corpus and a model with the benchmark's own code, writes the
outputs a correct program would print, and asserts that the checks accept
them and reject perturbed predictions, models, eval lines and objectives.
It also traces nested calls into a stand-in module and asserts that the span
nesting check accepts them and rejects a span charged to the wrong parent.
"""

from __future__ import annotations

import sys
import types

import numpy as np

import checks
import corpus
from layertrace import Tracer

LAM = 1e-3


def model_text(loss: str, w: np.ndarray, b: float) -> str:
    lines = ["sparselin-model v1", f"loss {loss}", f"dim {w.shape[0]}", f"bias {b!r}"]
    lines += [f"{i}:{float(w[i])!r}" for i in np.nonzero(w)[0]]
    return "\n".join(lines) + "\n"


def outputs(data: corpus.Corpus, model: checks.Model) -> tuple[str, str, str]:
    p = data.scores(model.w, model.b)
    obj = checks.objective(model, data, LAM)
    avg = float(checks.losses(model.loss, p, data.labels).mean())
    acc = float(np.mean(p * data.labels > 0))
    return ("".join(f"{v!r}\n" for v in p.tolist()),
            f"avg_loss={avg!r} objective={obj!r} accuracy={acc!r}\n",
            f"trained algo=casgd loss={model.loss} objective={obj!r}\n")


def rejects(what: str, fn) -> None:
    try:
        fn()
    except checks.CheckError:
        return
    raise AssertionError(f"check accepted {what}")


def check_span_nesting() -> None:
    def mean_vector(v):
        return solvers.squared_norm(v) / len(v)

    def squared_norm(v):
        return sum(x * x for x in v)

    mean_vector.__module__ = squared_norm.__module__ = "sparselin.sparse_core"
    solvers = types.SimpleNamespace(mean_vector=mean_vector, squared_norm=squared_norm)
    tracer = Tracer({"cli": types.SimpleNamespace(), "data_io": None, "solvers": solvers})
    tracer.install()
    try:
        tracer.command(lambda argv: [solvers.mean_vector(range(1000)) for _ in range(2)], [])
        tracer.command(lambda argv: solvers.squared_norm(range(1000)), [])
    finally:
        tracer.uninstall()
    names = [(span.name, span.parent) for span in tracer.spans]
    assert names == [("cli.main", -1), ("sparse_core.mean_vector", 0),
                     ("sparse_core.squared_norm", 1), ("sparse_core.mean_vector", 0),
                     ("sparse_core.squared_norm", 3), ("cli.main", -1),
                     ("sparse_core.squared_norm", 5)], names
    tracer.check_nesting()
    tracer.spans[-1].parent = 1
    try:
        tracer.check_nesting()
    except ValueError:
        return
    raise AssertionError("nesting check accepted a span charged to the wrong parent")


def main() -> int:
    data = corpus.generate(corpus.Spec(m=300, n=2000, k=5, kind="class"), seed=3)
    rng = np.random.default_rng(4)
    w = np.where(rng.random(2000) < 0.5, rng.normal(size=2000), 0.0)
    model = checks.read_model(model_text("hinge", w, 0.25))
    assert np.array_equal(model.w, w) and model.b == 0.25
    pred, eval_line, train_line = outputs(data, model)
    obj = checks.objective(model, data, LAM)

    checks.check_predict(pred, model, data)
    checks.check_eval(eval_line, model, data, LAM)
    checks.check_train(train_line, model, data, LAM, "hinge", reference=obj)

    rows = pred.split("\n")
    rows[7] = repr(float(rows[7]) * (1 + 1e-7))
    rejects("a perturbed prediction", lambda: checks.check_predict("\n".join(rows), model, data))
    rejects("a missing prediction",
            lambda: checks.check_predict("".join(pred.splitlines(True)[1:]), model, data))
    rows[7] = "nan"
    rejects("a nan prediction", lambda: checks.check_predict("\n".join(rows), model, data))

    bent = w.copy()
    bent[data.indices[0, 0]] += 1e-3
    other = checks.read_model(model_text("hinge", bent, 0.25))
    rejects("predictions from another model", lambda: checks.check_predict(pred, other, data))
    rejects("an eval line from another model",
            lambda: checks.check_eval(eval_line, other, data, LAM))
    rejects("a train objective from another model",
            lambda: checks.check_train(train_line, other, data, LAM, "hinge", reference=obj))
    rejects("an objective off the reference by 1e-5",
            lambda: checks.check_train(train_line, model, data, LAM, "hinge",
                                       reference=obj * (1 + 1e-5)))
    rejects("a perturbed eval objective", lambda: checks.check_eval(
        eval_line.replace(f"objective={obj!r}", f"objective={obj * (1 + 1e-7)!r}"),
        model, data, LAM))
    rejects("an eval line without accuracy", lambda: checks.check_eval(
        eval_line.split(" accuracy=")[0], model, data, LAM))
    text = model_text("hinge", w, 0.25)
    rejects("a model with another header",
            lambda: checks.read_model(text.replace("v1", "v2", 1)))
    head, body = text.split("\n", 4)[:4], text.split("\n", 4)[4].split("\n")
    body[0], body[1] = body[1], body[0]
    rejects("a model with unordered weights",
            lambda: checks.read_model("\n".join(head + body)))

    check_span_nesting()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
