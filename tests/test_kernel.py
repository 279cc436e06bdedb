"""The compiled step loop and finalize against their Python reference.

The Python loop (``solvers._python_steps``) and the numpy finalize are what
runs when the kernel cannot be built or loaded.  Here they are forced by
making ``_kernel.load`` report that no library could be built, and compared
with the compiled path.  The two loops differ only in how a sparse dot
product is summed, so models agree to 1e-12; the finalize is bit-identical.
"""

import os

import numpy as np
import pytest

from helpers import ALL_LOSSES, random_dataset, rel_err, shift_dataset
from sparselin import (
    Dataset,
    LossKind,
    NonFiniteError,
    SparseVec,
    TouchCounter,
    TrainConfig,
    asgd_train,
    casgd_train,
    draw_indices,
    sgd_train,
)
from sparselin import _kernel
from sparselin.sparse_core import finalize_combine

TRAINERS = [sgd_train, asgd_train, casgd_train]


def on_fallback(fn, *args, **kwargs):
    """``fn`` run with the loader reporting that no library could be built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "load", lambda: None)
        return fn(*args, **kwargs)


@pytest.fixture(autouse=True)
def compiled():
    # a kernel that no longer builds would leave every test here comparing
    # the fallback with itself
    assert _kernel.load() is not None, "the compiled kernel could not be built or loaded"


def assert_same_run(data, cfg, train):
    """Same model, same per-step predictions and same touch counts on both paths."""
    runs = []
    for run in (train, lambda *a, **k: on_fallback(train, *a, **k)):
        ps, counter = [], TouchCounter()
        model = run(data, cfg, counter, observer=lambda st, p: ps.append(p))
        plain = TouchCounter()
        again = run(data, cfg, plain)  # without an observer: one call for all steps
        assert np.array_equal(again.w, model.w) and again.b == model.b
        assert plain == counter
        runs.append((model, ps, counter))
    (m1, ps1, c1), (m2, ps2, c2) = runs
    assert rel_err(np.append(m1.w, m1.b), np.append(m2.w, m2.b)) <= 1e-12
    assert rel_err(ps1, ps2) <= 1e-12
    assert c1 == c2
    return ps2


def labels_at_steps(data, cfg):
    return data.labels[draw_indices(cfg.seed, cfg.steps, data.m)]


@pytest.mark.parametrize("train", TRAINERS)
@pytest.mark.parametrize("loss", ALL_LOSSES)
def test_random_and_translated_corpora(train, loss):
    rng = np.random.default_rng(4)
    data = random_dataset(rng, 30, 12, 8, loss, k_min=1)
    shifted = shift_dataset(data, rng.normal(scale=3.0, size=data.dim))
    for corpus in (data, shifted):
        assert_same_run(corpus, TrainConfig(steps=400, lam=1.0, seed=11, loss=loss), train)


@pytest.mark.parametrize("train", TRAINERS)
@pytest.mark.parametrize("loss", [LossKind.HINGE, LossKind.ABSOLUTE])
def test_exact_kinks(train, loss):
    # one feature of value 1 per row keeps every dot product exact, so both
    # paths land on p*y == 1 (hinge) and p == y (absolute) and must take the
    # same branch there
    data = Dataset.from_rows([(SparseVec([0], [1.0], 2), 1.0),
                              (SparseVec([1], [1.0], 2), -1.0)], 2)
    cfg = TrainConfig(steps=64, lam=0.5, seed=3, loss=loss)
    ps = np.array(assert_same_run(data, cfg, train))
    ys = labels_at_steps(data, cfg)
    on_kink = ps * ys == 1.0 if loss is LossKind.HINGE else (ps == ys)
    assert on_kink.sum() >= 2


@pytest.mark.parametrize("train", TRAINERS)
def test_log_loss_beyond_exp_overflow(train):
    # |p*y| > 710 is where the textbook log-loss gradient overflows exp
    rng = np.random.default_rng(5)
    data = random_dataset(rng, 10, 6, 4, LossKind.LOG, k_min=1)
    cfg = TrainConfig(steps=300, lam=1e-4, seed=2, loss=LossKind.LOG)
    ps = np.array(assert_same_run(data, cfg, train))
    assert np.abs(ps * labels_at_steps(data, cfg)).max() > 710


@pytest.mark.parametrize("train", TRAINERS)
def test_non_finite_error_is_the_same(train):
    data = Dataset.from_rows([(SparseVec([0], [1.0], 1), 2.0)], 1)
    cfg = TrainConfig(steps=200, lam=1e-300, seed=0, loss=LossKind.SQUARED)
    messages = []
    for run in (train, lambda *a: on_fallback(train, *a)):
        with pytest.raises(NonFiniteError) as exc:
            run(data, cfg)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("non-finite value at step ")


@pytest.mark.parametrize("terms", [1, 2, 3])
def test_finalize_bit_identical(terms):
    # blocks 1 and 3 are +0.0 in every vector and flagged dead; both signs of
    # the coefficients make the result there +0.0 (skipped) or -0.0 (written)
    rng = np.random.default_rng(terms)
    block = _kernel.BLOCK
    n = 4 * block + 100
    live = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
    vecs = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 290, size=n) for _ in range(terms)]
    for vec in vecs:
        vec[block:2 * block] = vec[3 * block:4 * block] = 0.0
    vecs[0][:50] = 0.0
    vecs[0][50:100] = -0.0
    alphas = rng.normal(size=terms)
    for signs in (1.0, -1.0):
        outs = []
        for run, mask in ((finalize_combine, None), (finalize_combine, live),
                          (lambda *a: on_fallback(finalize_combine, *a), live)):
            coeffs = [(float(signs * alpha), vec.copy()) for alpha, vec in zip(alphas, vecs)]
            out = run(coeffs, None, mask)
            assert out is coeffs[-1][1]  # written in place
            outs.append(out.view(np.int64))
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


def test_cold_cache_build_then_reuse(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "_lib", None)
    assert _kernel.load() is not None
    (built,) = (tmp_path / "sparselin").iterdir()
    stamp = built.stat().st_ino, built.stat().st_mtime_ns

    data = random_dataset(np.random.default_rng(6), 12, 8, 5, LossKind.SQUARED, k_min=1)
    assert_same_run(data, TrainConfig(steps=100, lam=0.5, seed=1, loss=LossKind.SQUARED),
                    casgd_train)

    def no_compiler(path):
        raise AssertionError("a second load must reuse the cached library")

    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "_build", no_compiler)
    assert _kernel.load() is not None
    assert os.listdir(tmp_path / "sparselin") == [built.name]
    assert (built.stat().st_ino, built.stat().st_mtime_ns) == stamp
