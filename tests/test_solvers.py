import io
import math
import re

import numpy as np
import pytest

from helpers import (
    dense_model,
    instance_family,
    loop_args,
    model_rel_err,
    random_dataset,
    random_label,
    random_sparse,
    recover_centered_iterate,
    recover_sgd_iterate,
    rel_err,
    trace,
)
from reference_oracle import dense_sgd
from sparselin import (
    Dataset,
    DimensionError,
    EmptyDatasetError,
    LabelError,
    LinearModel,
    LossKind,
    NonFiniteError,
    SparseVec,
    TouchCounter,
    TrainConfig,
    asgd_train,
    casgd_train,
    draw_indices,
    predict,
    sgd_train,
    write_model,
)
from sparselin import _kernel, losses, solvers, sparse_core
from sparselin.errors import SparselinError
from sparselin.solvers import ALGOS, MAX_STEPS
from sparselin.sparse_core import check_csr

ONE_EXAMPLE = Dataset.from_rows([(SparseVec([0], [1.0], 1), 2.0)], 1)


def cfg(steps=1, lam=1.0, seed=0, loss=LossKind.SQUARED):
    return TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)


class TestDrawIndices:
    def test_single_example_always_zero(self):
        assert list(draw_indices(987654321, 5, 1)) == [0, 0, 0, 0, 0]

    def test_zero_steps(self):
        assert draw_indices(1, 0, 10).shape == (0,)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            draw_indices(1, 3, 0)

    def test_golden_sequence(self):
        # frozen once from the pinned procedure below (seed=42, T=3, m=10)
        assert list(draw_indices(42, 3, 10)) == [7, 1, 2]

    def test_matches_scalar_reference(self):
        # independent scalar splitmix64 + floor(m * (u >> 11) * 2^-53)
        mask = (1 << 64) - 1

        def reference(seed, steps, m):
            state = seed
            out = []
            for _ in range(steps):
                state = (state + 0x9E3779B97F4A7C15) & mask
                z = state
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
                z ^= z >> 31
                out.append(int(m * ((z >> 11) * 2.0**-53)))
            return out

        for seed in (0, 1, 42, 2**64 - 1, 0xDEADBEEF):
            for m in (1, 2, 3, 10, 1000, 2**31):
                assert list(draw_indices(seed, 50, m)) == reference(seed, 50, m)

    def test_deterministic_and_in_range(self):
        a = draw_indices(7, 1000, 17)
        b = draw_indices(7, 1000, 17)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 17

    def test_different_seeds_differ(self):
        assert list(draw_indices(1, 20, 1000)) != list(draw_indices(2, 20, 1000))


class TestTrainConfig:
    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            cfg(steps=0)

    def test_steps_fit_the_loop_counter(self):
        # the loops count t up to T + 1 in a signed 64-bit integer
        assert cfg(steps=2**63 - 2).steps == MAX_STEPS
        with pytest.raises(ValueError):
            cfg(steps=2**63 - 1)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            cfg(lam=0.0)
        with pytest.raises(ValueError):
            cfg(lam=-1.0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            cfg(seed=-1)
        with pytest.raises(ValueError):
            cfg(seed=2**64)
        cfg(seed=2**64 - 1)


class TestPredict:
    def test_example(self):
        model = dense_model(np.array([2.0, 0.0]), 1.0, LossKind.SQUARED)
        assert predict(model, SparseVec([0], [1.0], 2)) == 3.0

    def test_empty_features_gives_bias(self):
        model = dense_model(np.array([5.0]), -2.5, LossKind.HINGE)
        assert predict(model, SparseVec([], [], 1)) == -2.5

    def test_zero_model(self):
        model = LinearModel([], [], 0.0, LossKind.LOG, 3)
        assert predict(model, SparseVec([1], [9.0], 3)) == 0.0

    def test_dimension_mismatch(self):
        model = LinearModel([], [], 0.0, LossKind.LOG, 3)
        with pytest.raises(DimensionError):
            predict(model, SparseVec([1], [9.0], 4))


class TestSgdHandTraces:
    def test_single_step(self):
        model = sgd_train(ONE_EXAMPLE, cfg(steps=1))
        assert list(model.dense()) == [2.0]
        assert model.b == 2.0

    def test_zero_first_gradient_gives_zero_model(self):
        data = Dataset.from_rows([(SparseVec([0], [1.0], 1), 0.0)], 1)
        model = sgd_train(data, cfg(steps=1))
        assert list(model.dense()) == [0.0] and model.b == 0.0


class TestAsgdHandTraces:
    def test_t1_equals_sgd(self):
        rng = np.random.default_rng(0)
        for loss in LossKind:
            data = random_dataset(rng, 6, 4, 3, loss)
            c = cfg(steps=1, lam=0.5, seed=9, loss=loss)
            s, a = sgd_train(data, c), asgd_train(data, c)
            assert np.array_equal(s.dense(), a.dense()) and s.b == a.b

    def test_two_steps_hand_trace(self):
        model = asgd_train(ONE_EXAMPLE, cfg(steps=2))
        assert list(model.dense()) == [1.0]
        assert model.b == 1.0


class TestCasgdHandTraces:
    def test_single_example_moves_mass_to_bias(self):
        model = casgd_train(ONE_EXAMPLE, cfg(steps=1))
        assert list(model.dense()) == [0.0]
        assert model.b == 2.0
        assert predict(model, ONE_EXAMPLE.row(0)) == 2.0


class TestPerStepEquivalence:
    def test_gradient_sum_recovery_matches_dense_recurrence(self):
        for data, loss, lam, steps, seed in instance_family(seed=101, count=24):
            c = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            snaps = list(trace(loop_args(data, loss, lam, seed, *ALGOS["sgd"]), steps))
            iterates = dense_sgd(data, c).iterates
            assert len(snaps) == len(iterates) == steps
            for st, (w_ref, b_ref) in zip(snaps, iterates):
                w, b = recover_sgd_iterate(st, lam)
                assert rel_err(np.append(w, b), np.append(w_ref, b_ref)) <= 1e-9

    def test_prediction_path_sgd(self):
        for data, loss, lam, steps, seed in instance_family(seed=33, count=8):
            c = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            order = draw_indices(seed, steps, data.m)
            ps = [st.p for st in trace(loop_args(data, loss, lam, seed, *ALGOS["sgd"]), steps)]
            iterates = dense_sgd(data, c).iterates
            assert ps[0] == 0.0
            for t in range(2, steps + 1):
                w_prev, b_prev = iterates[t - 2]
                x = data.row(order[t - 1])
                model = dense_model(w_prev, b_prev, loss)
                assert rel_err(ps[t - 1], predict(model, x)) <= 1e-9

    def test_prediction_path_casgd(self):
        for data, loss, lam, steps, seed in instance_family(seed=44, count=8, m_min=2):
            order = draw_indices(seed, steps, data.m)
            snaps = list(trace(loop_args(data, loss, lam, seed, *ALGOS["casgd"]), steps))
            for t in range(2, steps + 1):
                w_prev, b_prev = recover_centered_iterate(snaps[t - 2], lam)
                x = data.row(order[t - 1])
                model = dense_model(w_prev, b_prev, loss)
                assert rel_err(snaps[t - 1].p, predict(model, x)) <= 1e-9


class TestAveragedState:
    def test_harmonic_numbers_and_u_start(self):
        data = random_dataset(np.random.default_rng(3), 8, 5, 4, LossKind.LOG)
        snaps = list(trace(loop_args(data, LossKind.LOG, 0.1, 5, *ALGOS["asgd"]), 64))
        assert not snaps[0].u.any()  # h_0 = 0: step 1 contributes nothing to u
        harmonic = 0.0
        for t, st in enumerate(snaps, start=1):
            harmonic += 1.0 / t
            assert abs(st.h - harmonic) <= 1e-12

    def test_averaging_identity(self):
        for data, loss, lam, steps, seed in instance_family(seed=55, count=12):
            c = TrainConfig(steps=steps, lam=lam, seed=seed, loss=loss)
            model = asgd_train(data, c)
            w_ref, b_ref = dense_sgd(data, c).mean()
            assert model_rel_err(model, w_ref, b_ref) <= 1e-8


    def test_long_horizon_precision(self):
        # the averaged model is recovered as -(h*v - u)/(lam*T), a difference
        # of two sums that grow with T; against the dense recurrence run in
        # extended precision it measures about 1e-13 at T = 1e5
        data = random_dataset(np.random.default_rng(2016), 20, 50, 8, LossKind.LOG, k_min=1)
        c = cfg(steps=100_000, lam=1e-2, seed=9, loss=LossKind.LOG)
        rows = np.zeros((data.m, data.dim), dtype=np.longdouble)
        for i in range(data.m):
            x = data.row(i)
            rows[i, x.indices] = x.values
        one, lam = np.longdouble(1), np.longdouble(c.lam)
        w, b = np.zeros(data.dim, dtype=np.longdouble), np.longdouble(0)
        w_sum, b_sum = np.zeros_like(w), np.longdouble(0)
        for t, j in enumerate(draw_indices(c.seed, c.steps, data.m).tolist(), start=1):
            x, y = rows[j], np.longdouble(data.labels[j])
            py = (w @ x + b) * y
            g = -y * np.exp(-py) / (one + np.exp(-py)) if py >= 0 else -y / (one + np.exp(py))
            keep, step = one - one / t, g / (lam * t)
            w, b = keep * w - step * x, keep * b - step
            w_sum += w
            b_sum += b
        ref = np.append(w_sum, b_sum) / c.steps
        model = asgd_train(data, c)
        err = np.append(model.dense(), model.b).astype(np.longdouble) - ref
        assert np.sqrt(err @ err / (ref @ ref)) <= 1e-11


class TestCenteredState:
    def test_projection_sum_identity(self):
        for data, loss, lam, steps, seed in instance_family(seed=66, count=10, m_min=2):
            for st in trace(loop_args(data, loss, lam, seed, *ALGOS["casgd"]), steps):
                z_ref = float(st.v @ st.xbar)
                assert rel_err(st.z, z_ref) <= 1e-9

    def test_r_is_recomputed_exactly(self):
        data = random_dataset(np.random.default_rng(8), 10, 6, 4, LossKind.SQUARED)
        for st in trace(loop_args(data, LossKind.SQUARED, 0.5, 2, *ALGOS["casgd"]), 50):
            assert st.r == st.a * st.theta - st.z

    @pytest.mark.parametrize("loss", list(LossKind))
    def test_zero_mean_data_matches_asgd(self, loss):
        # xbar = 0 exactly when every row is followed by its negation; then
        # theta = 1, q = 0, r = a and s = c, so casgd must write asgd's bytes
        rng = np.random.default_rng(17)
        examples = []
        for _ in range(6):
            x, y = random_sparse(rng, 9, 5, k_min=1), random_label(rng, loss)
            examples += [(x, y), (SparseVec(x.indices, -x.values, 9), -y)]
        data = Dataset.from_rows(examples, 9)
        files = []
        for train in (asgd_train, casgd_train):
            buf = io.StringIO()
            write_model(train(data, cfg(steps=300, lam=0.1, seed=3, loss=loss)), buf)
            files.append(buf.getvalue())
        assert files[0] == files[1]


class TestGuards:
    def test_nonfinite_raises(self):
        data = Dataset.from_rows([(SparseVec([0], [1.0], 1), 2.0)], 1)
        with pytest.raises(NonFiniteError):
            sgd_train(data, cfg(steps=200, lam=1e-300))

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            sgd_train(Dataset.from_rows([], 3), cfg(steps=5))

    def test_bad_labels_rejected_at_entry(self):
        data = Dataset.from_rows([(SparseVec([0], [1.0], 1), 0.5)], 1)
        with pytest.raises(LabelError):
            casgd_train(data, cfg(steps=5, loss=LossKind.HINGE))

    # the readers refuse nan and inf line by line; training refuses them
    # before the loop, naming the example, rather than blaming lambda
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("loss", list(LossKind))
    def test_non_finite_label_rejected_for_every_loss(self, bad, loss):
        data = Dataset.from_rows([(SparseVec([0], [1.0], 1), y) for y in (1.0, bad)], 1)
        message = f"^example 2: {loss.value} loss needs .*, got {bad}$"
        with pytest.raises(LabelError, match=message):
            sgd_train(data, cfg(steps=5, loss=loss))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_non_finite_value_rejected(self, monkeypatch, bad, algo):
        monkeypatch.setattr(solvers, "BLOCK", 3)  # the value is checked in the third block
        rows = [([0, 1], [1.0, 2.0]), ([], []), ([0, 1, 2], [1.0, 1.0, 1.0]), ([1, 2], [3.0, bad])]
        data = Dataset.from_rows([(SparseVec(i, v, 3), 1.0) for i, v in rows], 3)
        message = f"^example 4: feature value {bad} is not finite$"
        with pytest.raises(SparselinError, match=message):
            getattr(solvers, f"{algo}_train")(data, cfg(steps=5))

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_each_solver_is_fit_by_its_name(self, algo):
        data = random_dataset(np.random.default_rng(5), 20, 9, 5, LossKind.LOG)
        c = cfg(steps=300, lam=0.05, seed=3, loss=LossKind.LOG)
        models = getattr(solvers, f"{algo}_train")(data, c), solvers.fit(algo, data, c)
        texts = [io.StringIO(), io.StringIO()]
        for model, text in zip(models, texts):
            write_model(model, text)
        assert texts[0].getvalue() == texts[1].getvalue()
        assert models[0].weights.tobytes() == models[1].weights.tobytes()


class TestDeterminism:
    @pytest.mark.parametrize("train", [sgd_train, asgd_train, casgd_train])
    def test_bit_identical_reruns(self, train):
        data = random_dataset(np.random.default_rng(12), 20, 9, 5, LossKind.LOG)
        c = cfg(steps=300, lam=0.05, seed=77, loss=LossKind.LOG)
        m1, m2 = train(data, c), train(data, c)
        assert np.array_equal(m1.dense(), m2.dense())
        assert m1.b == m2.b


class Touched(np.ndarray):
    """An array that counts the elements each indexing, item assignment, ufunc
    and ``__array_function__`` call reads or writes in it (``touches``).  What
    these return is a plain ndarray, so that it is not counted again."""

    def __array_finalize__(self, obj):
        self.touches = 0

    def __getitem__(self, key):
        out = self.view(np.ndarray)[key]
        self.touches += np.size(out)
        return out

    def __setitem__(self, key, value):
        plain = self.view(np.ndarray)
        self.touches += np.size(plain[key])
        plain[key] = value

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return getattr(ufunc, method)(*counted(inputs), **counted(kwargs))

    def __array_function__(self, func, types, args, kwargs):
        return func(*counted(args), **counted(kwargs))


def counted(x):
    """``x`` with each ``Touched`` in it, in a list, tuple or dict too, as a
    plain ndarray, its whole size added to its ``touches``."""
    if isinstance(x, dict):
        return {key: counted(y) for key, y in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(counted, x))
    if isinstance(x, Touched):
        x.touches += x.size
        return x.view(np.ndarray)
    return x


class TestTouchAccounting:
    # sgd/asgd finish with one dense recovery pass; casgd adds the one-time
    # squared-norm pass for 1 + |xbar|^2
    # sparse touches: step 1 makes one axpy (casgd adds the mean's m*k and
    # q = xbar . x); each later step adds a dot and one axpy per sum kept
    @pytest.mark.parametrize(
        "train,dense_passes,sparse_touches",
        [(sgd_train, 1, 4794), (asgd_train, 1, 7188), (casgd_train, 2, 9660)],
        ids=["sgd_train-1", "asgd_train-1", "casgd_train-2"],
    )
    def test_no_dense_touches_in_loop(self, train, dense_passes, sparse_touches):
        n, m, k, steps = 64, 12, 6, 400
        rng = np.random.default_rng(21)
        examples = []
        for _ in range(m):
            idx = np.sort(rng.choice(n, size=k, replace=False))
            examples.append((SparseVec(idx, rng.normal(size=k), n), float(rng.normal())))
        data = Dataset.from_rows(examples, n)
        counter = TouchCounter()
        train(data, cfg(steps=steps, lam=0.2, seed=4), counter)
        assert counter.loop_dense_touches == 0
        assert counter.outside_dense_touches == dense_passes * n
        assert counter.sparse_touches == sparse_touches

    # Rows of 0 to n nonzeros, some of them empty: every total is tallied
    # here step by step, from the drawn rows and their sizes, and must come
    # out the same from the compiled loop and the fallback, with the draw
    # windows of both the loop and the charge crossed many times.
    @pytest.fixture(params=["compiled", "fallback"])
    def path(self, request, monkeypatch):
        monkeypatch.setattr(solvers, "BLOCK", 3)
        if request.param == "fallback":
            monkeypatch.setattr(_kernel, "load", lambda: None)

    @staticmethod
    def ragged(dim=9, scale=1.0, label=None):
        rng = np.random.default_rng(23)
        rows = []
        for k in (0, dim, 3, 0, 1, 7, 2, dim, 5, 0, 4, 6):
            idx = np.sort(rng.choice(dim, size=k, replace=False))
            y = float(rng.normal()) if label is None else label
            rows.append((SparseVec(idx, scale * rng.normal(size=k), dim), y))
        return Dataset.from_rows(rows, dim)

    @staticmethod
    def tally(data, c, algo, stop=0):
        """The sparse touches the cost model charges: casgd's mean, m*k; at
        step t, the row's k for q = xbar . x, for v . x from step 2 on, for
        the v update and for the u update from step 2 on; and a step that
        stops the run (``stop``) makes its dot products only."""
        average, center = ALGOS[algo]
        k = np.diff(data.indptr).tolist()
        total = data.indices.size if center else 0
        for t, i in enumerate(draw_indices(c.seed, stop or c.steps, data.m).tolist(), 1):
            total += k[i] * (center + (t > 1))
            if t != stop:
                total += k[i] * (1 + (average and t > 1))
        return total

    @staticmethod
    def counted(data, c, algo):
        """The counter of one run, and the step that stopped it (0 if none)."""
        counter = TouchCounter()
        try:
            getattr(solvers, f"{algo}_train")(data, c, counter)
        except NonFiniteError as exc:
            return counter, int(re.search(r"at step (\d+)", str(exc))[1])
        return counter, 0

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_ragged_rows(self, path, algo):
        data, c = self.ragged(), cfg(steps=50, lam=0.3, seed=6, loss=LossKind.SQUARED)
        counter, stop = self.counted(data, c, algo)
        assert stop == 0
        assert counter == TouchCounter(0, data.dim * (1 + ALGOS[algo][1]),
                                       self.tally(data, c, algo))

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    @pytest.mark.parametrize("first", [True, False], ids=["step_1", "later"])
    def test_stopped_runs(self, path, algo, first):
        # with lambda 1e-300, step 4's p overflows, on a row with nonzeros past
        # the first window; a stopped run charges no dense pass.  Training
        # refuses the non-finite label that alone could stop step 1 (p = 0
        # there), so that step's charge is checked on _loop_touches itself
        data, c = self.ragged(label=1e-300), cfg(steps=50, lam=1e-300, seed=6)
        if first:
            average, center = ALGOS[algo]
            touches = solvers._loop_touches(c.seed, data.indptr, c.steps, 1, average, center)
            assert touches + center * data.indices.size == self.tally(data, c, algo, 1)
            return
        counter, stop = self.counted(data, c, algo)
        assert stop == 4
        assert counter == TouchCounter(0, 0, self.tally(data, c, algo, stop))

    def test_a_casgd_run_checks_the_arrays_once(self, path, monkeypatch):
        # the model's check: the data was checked when it was built, and the
        # mean is taken over the numbered arrays, not a second Dataset
        data, calls = self.ragged(), []

        def counted_check(*args):
            calls.append(args)
            check_csr(*args)

        monkeypatch.setattr(sparse_core, "check_csr", counted_check)
        monkeypatch.setattr(losses, "check_csr", counted_check)
        casgd_train(data, cfg(steps=50), TouchCounter())
        assert len(calls) == 1

    def test_casgd_theta_overflow(self, path):
        # the mean is charged where it is computed, before theta is checked
        data, counter = self.ragged(scale=1e200), TouchCounter()
        with pytest.raises(SparselinError, match="theta"):
            casgd_train(data, cfg(steps=50), counter)
        assert counter == TouchCounter(0, 0, data.indices.size)

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_the_loop_touches_no_dense_vector(self, algo):
        # the reference loop, which the compiled one is tested to match bit for
        # bit, over the same rows in dim and in 100*dim features: its reads and
        # writes of q, v and u do not grow with the dimension, and are at
        # most twice the sparse touches charged (an update reads and writes)
        data, c = self.ragged(), cfg(steps=50, lam=0.3, seed=6, loss=LossKind.SQUARED)
        counts = []
        for dim in (data.dim, 100 * data.dim):
            wide = Dataset(data.indptr, data.indices, data.values, data.labels, dim)
            args = list(loop_args(wide, c.loss, c.lam, c.seed, *ALGOS[algo]))
            args[9:12] = [None if x is None else x.view(Touched) for x in args[9:12]]  # q, v, u
            sums = [x for x in args[9:12] if x is not None]
            assert solvers._python_steps(*args, 1, c.steps + 1) == 0
            counts.append(sum(x.touches for x in sums))
        assert 0 < counts[0] == counts[1] <= 2 * self.tally(data, c, algo)

    @pytest.mark.parametrize("algo", sorted(ALGOS))
    def test_one_input_at_a_time(self, path, algo):
        # doubling T moves only the loop's sparse touches; widening the
        # feature space 10^6 times moves only the dense passes, exactly as much
        data, c = self.ragged(), cfg(steps=40, lam=0.3, seed=8, loss=LossKind.SQUARED)
        c2 = cfg(steps=80, lam=0.3, seed=8, loss=LossKind.SQUARED)
        base, _ = self.counted(data, c, algo)
        longer, _ = self.counted(data, c2, algo)
        assert longer == TouchCounter(base.loop_dense_touches, base.outside_dense_touches,
                                      self.tally(data, c2, algo))
        assert longer.sparse_touches > base.sparse_touches
        wide = Dataset(data.indptr, data.indices, data.values, data.labels, data.dim * 10**6)
        wider, _ = self.counted(wide, c, algo)
        assert wider == TouchCounter(base.loop_dense_touches,
                                     base.outside_dense_touches * 10**6, base.sparse_touches)
