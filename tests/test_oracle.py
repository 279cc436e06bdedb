import numpy as np

from helpers import instance_family, model_rel_err, rel_err
from sparselin import (
    Dataset,
    LossKind,
    SparseVec,
    TouchCounter,
    TrainConfig,
    casgd_train,
    sgd_train,
)
from sparselin.reference_oracle import dense_asgd, dense_casgd, dense_sgd

ONE_EXAMPLE = Dataset.from_rows([(SparseVec([0], [1.0], 1), 2.0)], 1)


def cfg(steps, lam=1.0, seed=0, loss=LossKind.SQUARED):
    return TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)


class TestDenseSgd:
    def test_single_step_hand_trace(self):
        trace = dense_sgd(ONE_EXAMPLE, cfg(1))
        assert len(trace) == 1
        w, b = trace.final()
        assert list(w) == [2.0] and b == 2.0

    def test_two_step_hand_trace(self):
        trace = dense_sgd(ONE_EXAMPLE, cfg(2))
        (w1, b1), (w2, b2) = trace.iterates
        assert (list(w1), b1) == ([2.0], 2.0)
        assert (list(w2), b2) == ([0.0], 0.0)

    def test_is_genuinely_naive(self):
        # the oracle must touch Theta(T*n) dense elements inside its loop
        data, loss, lam, steps, seed = next(instance_family(seed=9, count=1))
        counter = TouchCounter()
        dense_sgd(data, TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss), counter)
        assert counter.loop_dense_touches >= steps * data.dim

    def test_matches_sparse_solver_final(self):
        for data, loss, lam, steps, seed in instance_family(seed=72, count=8):
            c = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            w_ref, b_ref = dense_sgd(data, c).final()
            assert model_rel_err(sgd_train(data, c), w_ref, b_ref) <= 1e-9


class TestDenseAsgd:
    def test_single_step_equals_trace(self):
        model = dense_asgd(ONE_EXAMPLE, cfg(1))
        assert list(model.w) == [2.0] and model.b == 2.0

    def test_mean_of_two_step_trace(self):
        model = dense_asgd(ONE_EXAMPLE, cfg(2))
        assert list(model.w) == [1.0] and model.b == 1.0


class TestDenseCasgd:
    def test_single_example_centers_to_zero_weights(self):
        model = dense_casgd(ONE_EXAMPLE, cfg(1))
        assert list(model.w) == [0.0]
        assert model.b == 2.0

    def test_already_centered_data_equals_dense_asgd(self):
        # mean feature vector is exactly zero, so b' = b
        x = SparseVec([0, 1], [1.0, -2.0], 2)
        neg = SparseVec([0, 1], [-1.0, 2.0], 2)
        data = Dataset.from_rows([(x, 1.5), (neg, -0.5)], 2)
        c = cfg(37, lam=0.5, seed=8)
        centered = dense_casgd(data, c)
        plain = dense_asgd(data, c)
        assert np.array_equal(centered.w, plain.w)
        assert centered.b == plain.b

    def test_matches_sparse_casgd(self):
        for data, loss, lam, steps, seed in instance_family(seed=81, count=8, m_min=2, centered=True):
            c = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            ref = dense_casgd(data, c)
            assert model_rel_err(casgd_train(data, c), ref.w, ref.b) <= 1e-8


class TestCenteringPredictionPaths:
    def test_explicit_and_implicit_centering_agree(self):
        # w_t . (x - xbar) + b_t  ==  w_t . x + b'_t with b'_t = b_t - w_t . xbar
        rng = np.random.default_rng(14)
        for data, loss, lam, steps, seed in instance_family(seed=90, count=6, m_min=2):
            c = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            rows = np.stack([data.row(i).densify() for i in range(data.m)])
            xbar = rows.mean(axis=0)
            centered = Dataset.from_rows(
                [(SparseVec.from_dense(row - xbar), y)
                 for row, y in zip(rows, data.labels)],
                data.dim,
            )
            trace = dense_sgd(centered, c)
            for w, b in trace.iterates[:: max(1, steps // 16)]:
                x = rng.normal(size=data.dim)
                explicit = float(w @ (x - xbar)) + b
                implicit = float(w @ x) + (b - float(w @ xbar))
                assert rel_err(implicit, explicit) <= 1e-9
