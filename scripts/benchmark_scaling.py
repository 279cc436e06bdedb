#!/usr/bin/env python3
"""Show the O(n + T*k) / O(T*n) split: sparse solver wall time stays flat
as the dimension grows, the naive dense reference scales linearly.

    python scripts/benchmark_scaling.py --steps 10000 --nnz 10
"""

import argparse
import time

import numpy as np

from sparselin import Dataset, LossKind, SparseVec, TouchCounter, TrainConfig, casgd_train
from sparselin.reference_oracle import dense_sgd


def instance(n, m, k, rng):
    examples = []
    for _ in range(m):
        idx = np.sort(rng.choice(n, size=k, replace=False))
        examples.append((SparseVec(idx, rng.normal(size=k), n),
                         float(rng.choice([-1.0, 1.0]))))
    return Dataset.from_rows(examples, n)


def best_of(reps, fn):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=10_000)
    ap.add_argument("--oracle-steps", type=int, default=1_000)
    ap.add_argument("--nnz", type=int, default=10)
    ap.add_argument("--examples", type=int, default=20)
    ap.add_argument("--dims", type=int, nargs="+",
                    default=[25_000, 50_000, 100_000, 200_000, 400_000])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"T={args.steps} (oracle T={args.oracle_steps}), k={args.nnz}, m={args.examples}")
    print(f"{'n':>8} {'solver[ms]':>12} {'oracle[ms]':>12} {'sparse_touches':>15} {'dense_touches':>14}")
    for n in args.dims:
        data = instance(n, args.examples, args.nnz, rng)
        cfg = TrainConfig(steps=args.steps, lam=0.5, seed=7, loss=LossKind.LOG)
        ocfg = TrainConfig(steps=args.oracle_steps, lam=0.5, seed=7, loss=LossKind.LOG)
        counter = TouchCounter()
        casgd_train(data, cfg, counter)
        t_solver = best_of(args.reps, lambda: casgd_train(data, cfg))
        t_oracle = best_of(args.reps, lambda: dense_sgd(data, ocfg, keep_trace=False))
        print(f"{n:>8} {t_solver * 1e3:>12.1f} {t_oracle * 1e3:>12.1f} "
              f"{counter.sparse_touches:>15} {counter.outside_dense_touches:>14}")


if __name__ == "__main__":
    main()
