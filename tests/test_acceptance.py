"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them on success).

Criteria 1-4 are oracle-equivalence and invariance properties over pinned
random instance families; 5 is the operation-count/scaling contract; 6 is
an end-to-end optimization sanity check; 7 pins the loss layer; 8 pins
reproducibility and the file formats.
"""

import copy
import io
import math
import time
from contextlib import contextmanager

import numpy as np

from helpers import (
    instance_family,
    model_rel_err,
    random_sparse,
    rel_err,
    shift_dataset,
    shift_vec,
)
from sparselin import (
    Dataset,
    LinearModel,
    LossKind,
    SparseVec,
    TouchCounter,
    TrainConfig,
    asgd_train,
    casgd_train,
    draw_indices,
    loss_subgradient,
    loss_value,
    objective_value,
    parse_libsvm,
    predict,
    read_model,
    sgd_train,
    write_libsvm,
    write_model,
)
from sparselin.cli import main as cli_main
from sparselin.reference_oracle import dense_casgd, dense_sgd
from sparselin.solvers import recover_sgd_iterate


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS")


def test_criterion_1_iterate_recovery_equivalence():
    with criterion(1, "per-step gradient-sum recovery matches dense recurrence"):
        losses_seen, lams_seen = set(), set()
        count = 0
        for data, loss, lam, steps, seed in instance_family(seed=2, count=220):
            losses_seen.add(loss)
            lams_seen.add(lam)
            count += 1
            cfg = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            snaps = []
            sgd_train(data, cfg, observer=lambda st, p: snaps.append(copy.deepcopy(st)))
            trace = dense_sgd(data, cfg)
            assert len(snaps) == steps
            for st, (w_ref, b_ref) in zip(snaps, trace.iterates):
                w, b = recover_sgd_iterate(st, lam)
                assert rel_err(np.append(w, b), np.append(w_ref, b_ref)) <= 1e-9
        assert count >= 200
        assert losses_seen == set(LossKind)
        assert lams_seen == {0.01, 0.1, 1.0}


def test_criterion_2_averaging_equivalence():
    with criterion(2, "averaged model equals mean of dense iterates"):
        for data, loss, lam, steps, seed in instance_family(seed=2, count=220):
            cfg = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            model = asgd_train(data, cfg)
            w_ref, b_ref = dense_sgd(data, cfg).mean()
            assert model_rel_err(model, w_ref, b_ref) <= 1e-8


def test_criterion_3_centering_equivalence():
    with criterion(3, "centered solver equals explicit dense centering"):
        count = 0
        for data, loss, lam, steps, seed in instance_family(
            seed=1000002, count=220, m_min=2, centered=True
        ):
            count += 1
            cfg = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            ref = dense_casgd(data, cfg)
            assert model_rel_err(casgd_train(data, cfg), ref.w, ref.b) <= 1e-8
        assert count >= 200


def test_criterion_4_translation_invariance():
    with criterion(4, "centered training is translation invariant, plain averaging is not"):
        rng = np.random.default_rng(404)
        checked = 0
        for data, loss, lam, steps, seed in instance_family(
            seed=2000002, count=40, m_min=2, centered=True
        ):
            cfg = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            delta = rng.normal(size=data.dim)
            delta *= float(rng.choice([1.0, 10.0, 100.0])) / max(1.0, float(np.linalg.norm(delta)))
            if rng.random() < 0.25:
                delta *= 10.0  # norm up to 1e3
            assert np.linalg.norm(delta) <= 1e3 + 1e-9
            base = casgd_train(data, cfg)
            shifted = casgd_train(shift_dataset(data, delta), cfg)
            for _ in range(6):
                x = random_sparse(rng, data.dim, 8, k_min=1)
                p0 = predict(base, x)
                p1 = predict(shifted, shift_vec(x, delta))
                assert abs(p0 - p1) <= 1e-6 * max(1.0, abs(p0), abs(p1))
                checked += 1
        assert checked >= 200

        # plain averaged SGD demonstrably fails the same test
        data = parse_libsvm(["1 1:1", "-1 1:-1", "1 2:1", "-1 2:-1"])
        cfg = TrainConfig(steps=64, lam=1.0, seed=3, loss=LossKind.SQUARED)
        delta = np.array([2.0, -2.0])
        plain = asgd_train(data, cfg)
        moved = asgd_train(shift_dataset(data, delta), cfg)
        x = data.row(0)
        gap = abs(predict(plain, x) - predict(moved, shift_vec(x, delta)))
        assert gap > 1e-2


def _complexity_instance(n, m, k, rng):
    examples = []
    for _ in range(m):
        idx = np.sort(rng.choice(n, size=k, replace=False))
        examples.append((SparseVec(idx, rng.normal(size=k), n),
                         float(rng.choice([-1.0, 1.0]))))
    return Dataset.from_rows(examples, n)


def _timing_ratio(fn_small, fn_large, reps):
    """Best-of-reps wall time of fn_large over fn_small, interleaved so CPU
    drift hits both alike."""
    fn_small()
    fn_large()
    small = large = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn_small()
        small = min(small, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_large()
        large = min(large, time.perf_counter() - t0)
    return large / small


def test_criterion_5_complexity_contract():
    with criterion(5, "O(n + T*k) cost: zero in-loop dense touches, flat scaling in n"):
        n, k, steps, m = 100_000, 10, 10_000, 20
        rng = np.random.default_rng(55)
        data = _complexity_instance(n, m, k, rng)
        cfg = TrainConfig(steps=steps, lam=0.5, seed=7, loss=LossKind.LOG)

        for train, outside_cap in ((sgd_train, 2 * n), (asgd_train, 2 * n), (casgd_train, 4 * n)):
            counter = TouchCounter()
            train(data, cfg, counter)
            assert counter.loop_dense_touches == 0
            assert counter.outside_dense_touches <= outside_cap
            assert counter.sparse_touches <= 8 * steps * k

        # wall-clock: doubling n leaves the sparse solver nearly unchanged
        # while the dense oracle's per-step cost doubles.  Quiet-machine
        # ratio is ~1.02; retries with more reps ride out scheduler noise,
        # while a genuine O(T*n) regression measures ~2.0 on every attempt.
        data2 = _complexity_instance(2 * n, m, k, rng)
        ratios = []
        for reps in (5, 9, 15):
            ratios.append(_timing_ratio(lambda: casgd_train(data, cfg),
                                        lambda: casgd_train(data2, cfg), reps=reps))
            if abs(ratios[-1] - 1.0) < 0.25:
                break
        assert abs(ratios[-1] - 1.0) < 0.25, f"solver time ratios at 2n: {ratios}"

        oracle_cfg = TrainConfig(steps=1_000, lam=0.5, seed=7, loss=LossKind.LOG)
        ratio = _timing_ratio(lambda: dense_sgd(data, oracle_cfg, keep_trace=False),
                              lambda: dense_sgd(data2, oracle_cfg, keep_trace=False),
                              reps=3)
        assert ratio > 1.4


def test_criterion_6_optimization_sanity():
    with criterion(6, "averaged model near-optimal on a separable hinge instance"):
        rng = np.random.default_rng(2024)
        n, m, k = 50, 200, 5
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        examples = []
        while len(examples) < m:
            idx = np.sort(rng.choice(n, size=k, replace=False))
            vals = rng.normal(size=k)
            margin = float(direction[idx] @ vals)
            if abs(margin) < 0.5:
                continue
            examples.append((SparseVec(idx, vals, n), 1.0 if margin > 0 else -1.0))
        data = Dataset.from_rows(examples, n)
        lam = 0.1

        model = asgd_train(data, TrainConfig(steps=50_000, lam=lam, seed=11, loss=LossKind.HINGE))
        objective = objective_value(model, data, lam)

        best = math.inf
        long_cfg = TrainConfig(steps=500_000, lam=lam, seed=11, loss=LossKind.HINGE)
        for train in (sgd_train, asgd_train, casgd_train):
            best = min(best, objective_value(train(data, long_cfg), data, lam))

        assert abs(objective - best) <= 0.05 * best
        at_zero = objective_value(LinearModel.zero(n, LossKind.HINGE), data, lam)
        assert at_zero == 1.0  # hinge loss of the zero predictor
        assert objective < at_zero


def test_criterion_7_loss_layer():
    with criterion(7, "loss values, subgradients, kink conventions"):
        # boundary conventions, exactly
        assert loss_subgradient(LossKind.HINGE, 1.0, 1.0) == -1.0
        assert loss_subgradient(LossKind.HINGE, -1.0, -1.0) == 1.0
        assert loss_subgradient(LossKind.ABSOLUTE, 5.0, 5.0) == -1.0
        assert loss_subgradient(LossKind.ABSOLUTE, -2.25, -2.25) == -1.0

        rng = np.random.default_rng(777)
        h = 1e-6
        for _ in range(2000):
            kind = list(LossKind)[int(rng.integers(4))]
            y = float(rng.choice([-1.0, 1.0])) if kind.is_classification else float(
                rng.uniform(-50, 50)
            )
            p = float(rng.uniform(-50, 50))
            q = float(rng.uniform(-50, 50))

            g = loss_subgradient(kind, p, y)
            assert loss_value(kind, q, y) >= loss_value(kind, p, y) + g * (q - p) - 1e-10

            if kind is LossKind.HINGE and abs(p * y - 1.0) <= 1e-3:
                continue
            if kind is LossKind.ABSOLUTE and abs(p - y) <= 1e-3:
                continue
            fd = (loss_value(kind, p + h, y) - loss_value(kind, p - h, y)) / (2 * h)
            assert abs(fd - g) <= 1e-4


def test_criterion_8_reproducibility_and_formats(tmp_path):
    with criterion(8, "deterministic artifacts and exact formats"):
        # pinned sampler: golden sequence frozen from the scalar procedure
        assert list(draw_indices(42, 3, 10)) == [7, 1, 2]

        # byte-identical model files from identical CLI invocations
        train_file = tmp_path / "train.txt"
        train_file.write_text("1 1:1 3:-2.5\n-1 2:0.75\n1 1:0.5 2:1\n")
        paths = [str(tmp_path / "m1.txt"), str(tmp_path / "m2.txt")]
        for path in paths:
            rc = cli_main(["train", "--data", str(train_file), "--model", path,
                           "--algo", "asgd", "--loss", "hinge", "--lambda", "0.05",
                           "--steps", "2000", "--seed", "31"])
            assert rc == 0
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

        # model round-trip identity
        rng = np.random.default_rng(88)
        w = np.where(rng.random(30) < 0.5, rng.normal(size=30), 0.0)
        model = LinearModel(w=w, b=float(rng.normal()), loss=LossKind.ABSOLUTE, dim=30)
        buf = io.StringIO()
        write_model(model, buf)
        back = read_model(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.w, model.w) and back.b == model.b

        # dataset round-trip: identical bits after re-parse, identical training
        data = parse_libsvm(str(train_file.read_text()).splitlines())
        buf = io.StringIO()
        write_libsvm(data, buf)
        again = parse_libsvm(io.StringIO(buf.getvalue()), dim_override=data.dim)
        cfg = TrainConfig(steps=500, lam=0.2, seed=5, loss=LossKind.HINGE)
        m1, m2 = sgd_train(data, cfg), sgd_train(again, cfg)
        assert np.array_equal(m1.w, m2.w) and m1.b == m2.b
