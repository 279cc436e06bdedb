"""Command-line front end: train / predict / eval.

Deterministic and scriptable: every training flag is explicit (no hidden
defaults), summary output is a single key=value line, and exit codes are
stable -- 0 success, 1 usage or data error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .data_io import Dataset, fmt_float, load_dataset, load_model, save_model
from .errors import NonFiniteError, SparselinError
from .losses import LossKind, loss_value, objective_value, penalized, validate_labels
from .solvers import asgd_train, casgd_train, predict, sgd_train, TrainConfig

_SOLVERS = {"sgd": sgd_train, "asgd": asgd_train, "casgd": casgd_train}
_LOSS_NAMES = [k.value for k in LossKind]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse's default of 2 is reserved for
    # numerical failure)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparselin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a linear model on a LIBSVM file")
    train.add_argument("--data", required=True, help="training data (LIBSVM format)")
    train.add_argument("--model", required=True, help="output model path")
    train.add_argument("--algo", required=True, choices=sorted(_SOLVERS))
    train.add_argument("--loss", required=True, choices=_LOSS_NAMES)
    train.add_argument("--lambda", dest="lam", required=True, type=float,
                       help="regularization parameter (> 0)")
    train.add_argument("--steps", required=True, type=int, help="number of steps T (>= 1)")
    train.add_argument("--seed", required=True, type=int, help="64-bit sampling seed")
    train.add_argument("--dim", type=int, default=None,
                       help="feature-space dimension (default: max index + 1)")
    train.set_defaults(func=cmd_train)

    pred = sub.add_parser("predict", help="write raw predictions for a data file")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--out", default=None, help="output path (default: stdout)")
    pred.set_defaults(func=cmd_predict)

    ev = sub.add_parser("eval", help="average loss, objective, and accuracy")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--lambda", dest="lam", required=True, type=float)
    ev.set_defaults(func=cmd_eval)
    return parser


def _validate_train_flags(parser: argparse.ArgumentParser, args) -> None:
    if not args.lam > 0:
        parser.error("argument --lambda: must be > 0")
    if args.steps < 1:
        parser.error("argument --steps: must be >= 1")
    if not 0 <= args.seed < 2**64:
        parser.error("argument --seed: must be an unsigned 64-bit integer")
    if args.dim is not None and args.dim < 0:
        parser.error("argument --dim: must be >= 0")


def cmd_train(args) -> int:
    data = load_dataset(args.data, dim_override=args.dim)
    cfg = TrainConfig(steps=args.steps, lam=args.lam, seed=args.seed,
                      loss=LossKind(args.loss))
    model = _SOLVERS[args.algo](data, cfg)
    save_model(model, args.model)
    objective = objective_value(model, data, args.lam)
    print(f"trained algo={args.algo} loss={args.loss} lambda={fmt_float(args.lam)} "
          f"T={args.steps} seed={args.seed} objective={fmt_float(objective)}")
    return 0


def _refit(data: Dataset, dim: int) -> Dataset:
    # indices beyond the model's dimension carry zero learned weight
    if dim == data.dim:
        return data
    keep = data.indices < dim
    kept = np.concatenate(([0], np.cumsum(keep)))  # kept entries before each position
    return Dataset(kept[data.indptr], data.indices[keep], data.values[keep], data.labels, dim)


def cmd_predict(args) -> int:
    model = load_model(args.model)
    data = _refit(load_dataset(args.data, require_labels=False), model.dim)
    lines = (fmt_float(predict(model, data.row(i))) + "\n" for i in range(data.m))
    if args.out is None:
        sys.stdout.writelines(lines)
    else:
        with open(args.out, "w", encoding="utf-8", newline="\n") as out:
            out.writelines(lines)
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.model)
    data = _refit(load_dataset(args.data), model.dim)
    validate_labels(data, model.loss)
    total, correct = 0.0, 0
    for i, y in enumerate(data.labels.tolist()):
        p = predict(model, data.row(i))
        total += loss_value(model.loss, p, y)
        correct += p * y > 0
    avg_loss = total / data.m
    objective = penalized(model, args.lam, avg_loss)
    line = f"avg_loss={fmt_float(avg_loss)} objective={fmt_float(objective)}"
    if model.loss.is_classification:
        line += f" accuracy={fmt_float(correct / data.m)}"
    print(line)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "train":
        _validate_train_flags(parser, args)
    elif args.command == "eval" and not args.lam > 0:
        parser.error("argument --lambda: must be > 0")
    try:
        return args.func(args)
    except NonFiniteError as exc:
        print(f"sparselin: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SparselinError, OSError) as exc:
        print(f"sparselin: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"sparselin: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
