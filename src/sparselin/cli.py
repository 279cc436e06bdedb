"""Command-line front end: train / predict / eval.

Deterministic and scriptable: every training flag is explicit (no hidden
defaults), summary output is a single key=value line, and exit codes are
stable -- 0 success, 1 usage or data error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from .data_io import fmt_float, load_dataset, load_model, load_scores, save_model, write_floats
from .errors import NonFiniteError, SparselinError
from .losses import LossKind, mean_loss, objective_value, penalized
from .solvers import ALGOS, MAX_SEED, MAX_STEPS, TrainConfig, fit

_LOSS_NAMES = [k.value for k in LossKind]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse's default of 2 is reserved for
    # numerical failure)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def exit(self, status=0, message=None):
        if sys.stdout is not None:  # --help's text: main reports a write error in it
            sys.stdout.flush()
        super().exit(status, message)


def bounded(kind, low, high, what: str, above: str | None = None):
    """An argparse ``type``: a ``kind`` (int or float) from ``low`` to ``high``,
    else an error saying it must be ``what`` (``above``, where given, for a
    value above ``high``)."""
    def number(text: str):
        value = kind(text)  # argparse reports a ValueError as "invalid number value"
        if not low <= value <= high:  # nan too
            must = above if above is not None and value > high else what
            raise argparse.ArgumentTypeError(f"must be {must}, got {text!r}")
        return value

    return number


positive_real = bounded(float, math.ulp(0.0), sys.float_info.max, "a positive finite real")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparselin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a linear model on a LIBSVM file")
    train.add_argument("--data", required=True, help="training data (LIBSVM format)")
    train.add_argument("--model", required=True, help="output model path")
    train.add_argument("--algo", required=True, choices=sorted(ALGOS))
    train.add_argument("--loss", required=True, choices=_LOSS_NAMES)
    train.add_argument("--lambda", dest="lam", required=True, type=positive_real,
                       help="regularization parameter (> 0)")
    train.add_argument("--steps", required=True, help=f"number of steps T (1 to {MAX_STEPS})",
                       type=bounded(int, 1, MAX_STEPS, ">= 1", f"<= {MAX_STEPS}"))
    train.add_argument("--seed", required=True, help="64-bit sampling seed",
                       type=bounded(int, 0, MAX_SEED, "an unsigned 64-bit integer"))
    train.add_argument("--dim", type=bounded(int, 0, math.inf, ">= 0"), default=None,
                       help="feature-space dimension (default: the largest index in the data)")
    train.set_defaults(func=cmd_train)

    pred = sub.add_parser("predict", help="write raw predictions for a data file")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", default=None, help="output path (default: stdout)")
    pred.set_defaults(func=cmd_predict)

    ev = sub.add_parser("eval", help="average loss, objective, and accuracy")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--lambda", dest="lam", required=True, type=positive_real)
    ev.set_defaults(func=cmd_eval)
    return parser


def cmd_train(args) -> int:
    data = load_dataset(args.data, dim_override=args.dim)
    cfg = TrainConfig(steps=args.steps, lam=args.lam, seed=args.seed,
                      loss=LossKind(args.loss))
    model = fit(args.algo, data, cfg)
    save_model(model, args.model)
    objective = objective_value(model, data, args.lam)
    print(f"trained algo={args.algo} loss={args.loss} lambda={fmt_float(args.lam)} "
          f"T={args.steps} seed={args.seed} objective={fmt_float(objective)}")
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    p, _ = load_scores(args.data, model, require_labels=False)
    if args.out is None:
        write_floats(p, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as out:
            write_floats(p, out)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    p, labels = load_scores(args.data, model)
    avg_loss = mean_loss(model.loss, p, labels)
    objective = penalized(model, args.lam, avg_loss)
    line = f"avg_loss={fmt_float(avg_loss)} objective={fmt_float(objective)}"
    if model.loss.is_classification:
        line += f" accuracy={fmt_float(np.count_nonzero(p * labels > 0) / labels.size)}"
    print(line)
    return 0


def main(argv=None) -> int:
    """Runs one command; returns its exit code.  The library's entry: it
    leaves the garbage collector as it found it."""
    try:
        args = build_parser().parse_args(argv)
        # a command that prints its result needs stdout, before it does any work
        if sys.stdout is None and getattr(args, "out", None) is None:  # descriptor 1 closed
            hint = "; give --out" if "out" in args else ""
            raise SparselinError(f"standard output is closed{hint}")
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a write error is reported here, not at shutdown
        return code
    except NonFiniteError as exc:
        print(f"sparselin: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SparselinError, OSError) as exc:
        print(f"sparselin: error: {exc}", file=sys.stderr)
        _drop_unwritten_stdout()
        return 1
    except MemoryError as exc:
        print(f"sparselin: error: out of memory: {exc}", file=sys.stderr)
        return 1


def _drop_unwritten_stdout() -> None:
    """Points descriptor 1 at the null device if what stdout holds cannot be
    written, so that the interpreter's flush at exit drops it rather than
    reporting the error a second time and exiting 120."""
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def run(argv=None) -> int:
    """The program's one entry, for ``python -m sparselin`` and the
    ``sparselin`` script: ``main(argv)``, then ``gc.freeze()``, however main
    ends.  The process exits next, and the interpreter's collections at
    shutdown skip frozen objects: the ~22,000 that numpy and the package
    leave behind, which nothing needs freed (no command runs a collection)."""
    try:
        return main(argv)
    finally:
        gc.freeze()
