#!/usr/bin/env python3
"""Generate a synthetic sparse LIBSVM file.

Classification data is drawn separable with a margin around a random unit
direction (labels +1/-1); regression labels are a noisy sparse linear
function.  The score of a row against the unit direction has spread about
sqrt(k/n), so the margin is given in multiples of that spread: rows whose
score lies within margin * sqrt(k/n) of zero are redrawn.  Example:

    python scripts/make_synthetic.py --out train.txt --kind class \
        --examples 2000 --dim 5000 --nnz 12 --seed 1
"""

import argparse

import numpy as np

from sparselin import Dataset, SparseVec, write_libsvm


def make_dataset(kind, m, n, k, seed, margin=0.3, noise=0.1):
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=n)
    direction /= np.linalg.norm(direction)
    threshold = margin * np.sqrt(k / n)
    examples = []
    while len(examples) < m:
        idx = np.sort(rng.choice(n, size=k, replace=False))
        vals = rng.normal(size=k)
        score = float(direction[idx] @ vals)
        if kind == "class":
            if abs(score) < threshold:
                continue
            y = 1.0 if score > 0 else -1.0
        else:
            y = score + float(rng.normal(scale=noise))
        examples.append((SparseVec(idx, vals, n), y))
    return Dataset.from_rows(examples, n)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--kind", choices=["class", "regress"], default="class")
    ap.add_argument("--examples", type=int, default=1000)
    ap.add_argument("--dim", type=int, default=10_000)
    ap.add_argument("--nnz", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--margin", type=float, default=0.3,
                    help="class margin in multiples of the score spread sqrt(nnz/dim)")
    args = ap.parse_args()

    data = make_dataset(args.kind, args.examples, args.dim, args.nnz, args.seed, args.margin)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_libsvm(data, fh)
    print(f"wrote {data.m} examples, dim {data.dim}, nnz/example {args.nnz} -> {args.out}")


if __name__ == "__main__":
    main()
