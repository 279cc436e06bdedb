"""The compiled kernel against its Python reference.

The Python loop (``solvers._python_steps``) and the Python line code of
``data_io`` are what runs when the kernel cannot be built or loaded.  Here
they are forced by making ``_kernel.load`` report that no library could be
built, and compared with the compiled path.  Both loops make the same
floating-point operations in the same order, each sparse dot product summed
left to right (``sparse_core.row_dots``), so the models, the per-step
predictions and the file readers' output are bit-identical.  The model
recovery is the same numpy code on both paths.  The scanners' own
decimal-to-double conversion is checked against Python's ``float``, bit for
bit, on generated and edge-case decimals.
"""

import ctypes
import io
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ALL_LOSSES, NUMBER_EDGES, loop_args, random_dataset, shift_dataset, trace
from sparselin import (
    Dataset,
    FormatError,
    LossKind,
    NonFiniteError,
    ParseError,
    SparseVec,
    SparselinError,
    TouchCounter,
    TrainConfig,
    asgd_train,
    casgd_train,
    draw_indices,
    sgd_train,
)
from sparselin import _kernel, data_io, solvers
from sparselin.losses import scores
from sparselin.solvers import ALGOS, MAX_STEPS, _python_steps, _rows
from sparselin.sparse_core import BLOCK, finalize_combine

TRAINERS = [sgd_train, asgd_train, casgd_train]
SRC = str(Path(__file__).resolve().parent.parent / "src")


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
    """Same model and touch counts from the trainer on both paths, and the same
    per-step predictions from both loops; returns the fallback's predictions."""
    algo = ALGOS[train.__name__.removesuffix("_train")]
    ps = [[st.p for st in trace(loop_args(data, cfg.loss, cfg.lam, cfg.seed, *algo),
                                cfg.steps, loop)]
          for loop in (_kernel.load().sl_steps, _python_steps)]
    runs = []
    for run in (train, lambda *a: on_fallback(train, *a)):
        counter = TouchCounter()
        runs.append((run(data, cfg, counter), counter))
    (m1, c1), (m2, c2) = runs
    assert bits(m1.dense(), np.array([m1.b])) == bits(m2.dense(), np.array([m2.b]))
    assert bits(np.array(ps[0])) == bits(np.array(ps[1]))
    assert c1 == c2
    return ps[1]


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
    messages, counters = [], []
    for run in (train, lambda *a: on_fallback(train, *a)):
        counters.append(TouchCounter())
        with pytest.raises(NonFiniteError) as exc:
            run(data, cfg, counters[-1])
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("non-finite value at step ")
    assert counters[0] == counters[1]  # the failing step's dot products included


@pytest.mark.parametrize("m", [1, 2, 10, 2**31 + 1, 2**53])
def test_step_draws_are_draw_indices(m):
    # the compiled loop draws step t's row alone, from the seed, m and t, and
    # the Python loop draws windows [t0, t1) of steps (_rows): both give
    # draw_indices' sequence, and agree at steps far beyond any array
    # draw_indices could build
    lib = _kernel.load()
    seeds = [0, 1, 2**64 - 1] + np.random.default_rng(12).integers(
        0, 2**64 - 1, 5, np.uint64, endpoint=True).tolist()
    for seed in seeds:
        want = draw_indices(seed, BLOCK + 9, m)
        assert [lib.sl_draw(seed, m, t) for t in range(1, 501)] == want[:500].tolist()
        for t0, t1 in ((1, BLOCK + 1), (BLOCK - 4, BLOCK + 9), (BLOCK, BLOCK + 2), (7, 7)):
            assert np.array_equal(_rows(seed, m, t0, t1), want[t0 - 1:t1 - 1])
        for t in (2**32 + 7, 2**62 + 3, MAX_STEPS):
            row = _rows(seed, m, t, t + 1)
            assert row.tolist() == [lib.sl_draw(seed, m, t)] and 0 <= row[0] < m


@pytest.mark.parametrize("solver", sorted(ALGOS))
@pytest.mark.parametrize("stops", [False, True], ids=["finite", "stops"])
def test_one_loop_contract(solver, stops):
    # sl_steps and _python_steps, each in one call for all steps and in one
    # call per step, leave the same state array (a through s, p and g) and
    # the same v and u, bit for bit; a step that stops the run
    # leaves a through s as the call found them, so there the two ways differ
    if stops:  # squared loss and lambda 1e-300 make p non-finite within a few steps
        data = Dataset.from_rows([(SparseVec([0], [1.0], 1), 2.0)], 1)
        loss, lam, steps = LossKind.SQUARED, 1e-300, 200
    else:
        data = random_dataset(np.random.default_rng(9), 12, 15, 5, LossKind.LOG)
        loss, lam, steps = LossKind.LOG, 0.05, 120
    runs = {}
    for loop in (_kernel.load().sl_steps, _python_steps):
        for spans in ([(1, steps + 1)], [(t, t + 1) for t in range(1, steps + 1)]):
            args = loop_args(data, loss, lam, 7, *ALGOS[solver])
            for t0, t1 in spans:
                bad = loop(*args, t0, t1)
                if bad:
                    break
            *_, v, u, st = args
            runs.setdefault(len(spans), []).append((bad, bits(st, v), u is None or bits(u)))
    (compiled, python), (compiled_1, python_1) = runs.values()
    assert compiled == python and compiled_1 == python_1
    assert (compiled == compiled_1) != stops
    bad, _, _ = compiled
    assert (bad > 1) == stops


@pytest.mark.parametrize("solver", sorted(ALGOS))
def test_python_loop_draws_in_windows(solver, monkeypatch):
    # the Python loop draws its rows BLOCK steps at a time; with windows of 7
    # steps, a call from t0 = 3 crosses many window ends and still leaves
    # what the compiled loop leaves
    data = random_dataset(np.random.default_rng(9), 12, 15, 5, LossKind.LOG)
    monkeypatch.setattr(solvers, "BLOCK", 7)
    runs = []
    for loop in (_kernel.load().sl_steps, _python_steps):
        args = loop_args(data, LossKind.LOG, 0.05, 7, *ALGOS[solver])
        assert loop(*args, 1, 3) == loop(*args, 3, 120) == 0
        *_, v, u, st = args
        runs.append((bits(st, v), u is None or bits(u)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("path", ["compiled", "fallback"])
@pytest.mark.parametrize("train", TRAINERS)
def test_strided_arrays(train, path):
    # a Dataset of every other element of larger arrays holds C-contiguous
    # copies, and trains and scores as one built from contiguous arrays
    data = random_dataset(np.random.default_rng(10), 20, 30, 6, LossKind.HINGE, k_min=1)

    def strided(a):
        out = np.zeros(2 * a.size, a.dtype)
        out[::2] = a
        return out[::2]

    arrays = [strided(a) for a in (data.indptr, data.indices, data.values, data.labels)]
    assert not any(a.flags.c_contiguous for a in arrays)
    loose = Dataset(*arrays, data.dim)
    assert all(getattr(loose, name).flags.c_contiguous
               for name in ("indptr", "indices", "values", "labels"))
    cfg = TrainConfig(steps=300, lam=0.1, seed=4, loss=LossKind.HINGE)
    run = train if path == "compiled" else lambda *a: on_fallback(train, *a)
    models = [run(d, cfg) for d in (data, loose)]
    assert bits(models[0].dense(), np.array([models[0].b])) == bits(models[1].dense(),
                                                                   np.array([models[1].b]))
    assert bits(scores(models[0], data)) == bits(scores(models[0], loose))


@pytest.mark.parametrize("terms", [1, 2, 3])
def test_finalize_bit_identical(terms):
    # with and without the kernel, every component rounds as
    # ((alpha_1 v_1 + alpha_2 v_2) + alpha_3 v_3), signed zeros included
    rng = np.random.default_rng(terms)
    n = 2148
    vecs = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 290, size=n) for _ in range(terms)]
    vecs[0][:50] = 0.0
    vecs[0][50:100] = -0.0
    alphas = rng.normal(size=terms)
    for signs in (1.0, -1.0):
        pairs = [(float(signs * alpha), vec.tolist()) for alpha, vec in zip(alphas, vecs)]
        expected = []
        for i in range(n):
            total = pairs[0][0] * pairs[0][1][i]
            for alpha, vec in pairs[1:]:
                total = total + alpha * vec[i]
            expected.append(total)
        for run in (finalize_combine, lambda *a: on_fallback(finalize_combine, *a)):
            coeffs = [(float(signs * alpha), vec.copy()) for alpha, vec in zip(alphas, vecs)]
            out = run(coeffs)
            assert out is coeffs[-1][1]  # written in place
            assert bits(out) == bits(np.array(expected))


@pytest.mark.parametrize("path", ["compiled", "fallback"])
@pytest.mark.parametrize("train", TRAINERS)
def test_unused_dimensions_change_nothing(train, path):
    # widening the feature space changes no bit of the weights or of the
    # bias, and adds no feature to the model's support
    rng = np.random.default_rng(11)
    data = random_dataset(rng, 60, 25, 6, LossKind.LOG, k_min=1)
    n = data.dim
    # values far from 0 make |xbar|^2 > 1, so theta = 1 + |xbar|^2 keeps the
    # last bits of a sum that depended on n before it ran over n' features
    data = Dataset(data.indptr, data.indices, data.values + 5.0, data.labels, n)
    wider = Dataset(data.indptr, data.indices, data.values, data.labels, 4 * n)
    cfg = TrainConfig(steps=500, lam=0.05, seed=13, loss=LossKind.LOG)
    run = train if path == "compiled" else lambda *a: on_fallback(train, *a)
    narrow, wide = run(data, cfg), run(wider, cfg)
    assert np.setdiff1d(np.arange(n), data.indices).size > 0  # unused ones below n too
    assert np.array_equal(wide.feats, narrow.feats)
    assert bits(wide.weights, np.array([wide.b])) == bits(narrow.weights, np.array([narrow.b]))


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


def test_kernel_builds_without_warnings(tmp_path):
    # the bit identity above rests on this C, the generated tables included:
    # a warning in an edit fails here
    proc = _kernel.compile_c(str(tmp_path / "kernel.so"),
                             _kernel._FLAGS + ("-Wall", "-Wextra", "-Werror"))
    assert proc.returncode == 0, proc.stderr


def test_library_exports_the_tables():
    lib = _kernel.load()
    for name, words in (("sl_fives", _kernel.fives()), ("sl_tens", _kernel.tens())):
        assert list((ctypes.c_uint64 * len(words)).in_dll(lib, name)) == words


def test_library_name_follows_both_files(tmp_path, monkeypatch):
    # _kernel.py defines the tables, so an edit to it must build a new library
    monkeypatch.setattr(_kernel, "_build", lambda path: None)
    names, original = {_kernel.locate(str(tmp_path))}, _kernel._KEYED
    for i, source in enumerate(original):
        edited = tmp_path / f"edited-{i}"
        edited.write_bytes(Path(source).read_bytes() + b"\n")
        keyed = list(original)
        keyed[i] = str(edited)
        monkeypatch.setattr(_kernel, "_KEYED", tuple(keyed))
        names.add(_kernel.locate(str(tmp_path)))
    assert len(names) == 3


def test_cached_library_computes_no_table(tmp_path, monkeypatch, capsys):
    from sparselin.cli import main

    def computed():
        raise AssertionError("a table was computed although the library is cached")

    assert _kernel.load() is not None
    monkeypatch.setattr(_kernel, "_lib", None)  # the next load finds it in the cache
    monkeypatch.setattr(_kernel, "fives", computed)
    monkeypatch.setattr(_kernel, "tens", computed)
    data, model = tmp_path / "data.txt", tmp_path / "model.txt"
    data.write_text("1 1:0.5 3:-2.25\n-1 2:1e-3\n")
    assert main(["train", "--data", str(data), "--model", str(model), "--algo", "casgd",
                 "--loss", "hinge", "--lambda", "0.1", "--steps", "20", "--seed", "3"]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data)]) == 0
    assert main(["eval", "--model", str(model), "--data", str(data), "--lambda", "0.1"]) == 0
    assert _kernel.load() is not None
    assert len(capsys.readouterr().out.splitlines()) == 4


def child(argv, cwd, **env) -> tuple:
    """The exit code, stdout and stderr of a fresh interpreter run with ``argv``
    in ``cwd``, sparselin taken from this checkout, ``env`` added to this
    process's environment."""
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC, **env))
    return proc.returncode, proc.stdout, proc.stderr


LOADS = ["-c", "from sparselin import _kernel; print(_kernel.load() is not None)"]


def test_without_a_compiler_the_commands_write_the_same(tmp_path):
    # no cc on PATH and an empty cache: load() reports None, and every command
    # runs its Python code, with the bytes and lines of the compiled run
    (tmp_path / "data.txt").write_text("1 1:0.5 3:-2.25\n-1 2:1e-3 4:7\n1 1:-1.5 4:0.125\n"
                                       "-1 3:3 4:-0.5\n")
    (tmp_path / "bin").mkdir()
    no_cc = {"PATH": str(tmp_path / "bin"), "XDG_CACHE_HOME": str(tmp_path / "cache")}
    assert child(LOADS, tmp_path) == (0, b"True\n", b"")
    assert child(LOADS, tmp_path, **no_cc) == (0, b"False\n", b"")
    commands = (["train", "--data", "data.txt", "--model", "model.txt", "--algo", "casgd",
                 "--loss", "log", "--lambda", "0.05", "--steps", "300", "--seed", "3"],
                ["predict", "--model", "model.txt", "--data", "data.txt"],
                ["eval", "--model", "model.txt", "--data", "data.txt", "--lambda", "0.05"])
    runs = []
    for env in ({}, no_cc):
        runs.append([child(["-m", "sparselin", *argv], tmp_path, **env) for argv in commands]
                    + [(tmp_path / "model.txt").read_bytes()])
    assert all(code == 0 for code, *_ in runs[0][:3]), runs[0]
    assert runs[1] == runs[0]


def test_a_cache_that_cannot_be_a_directory_builds_in_a_temporary_one(tmp_path):
    # a regular file as XDG_CACHE_HOME blocks the cache for root too, where a
    # read-only directory would not: the library builds in a per-process
    # temporary directory, loads, and nothing is left beside the file
    blocker, scratch = tmp_path / "cache", tmp_path / "tmp"
    blocker.write_text("a file\n")
    scratch.mkdir()
    assert child(LOADS, tmp_path, XDG_CACHE_HOME=str(blocker), TMPDIR=str(scratch)) == (
        0, b"True\n", b"")
    assert sorted(os.listdir(tmp_path)) == ["cache", "tmp"]
    assert blocker.read_text() == "a file\n" and os.listdir(scratch) == []


# ---- the LIBSVM and model-file scanners ------------------------------------

# Pieces of the lines below: the first list of each pair fits the scanners'
# grammar, the second holds what only the Python line code may accept or reject.
NUMBERS = (["1", "-1", "0.5", "2.25e-3", ".5", "5.", "1E+2", "007", "-0", "0", "+1", "1e-400",
            "4.9e-324", "123456789.123456789e-5", "1.7976931348623157e308"],
           ["1_0", "0x1p3", "inf", "-inf", "nan", "1e999", "1e", "1.5.", "--1", "", "abc",
            "\u00bd", " 1", "1 "])
INDICES = (["1"],  # stands for the next increasing index
           ["0", "007", "+5", "-1", "1_0", "x", "", "999999999999999999",
            "0000000000000000001", "1234567890123456789", "1" * 30])
COLONS = ([":"], ["::", "", ": "])
BLANKS = ([" ", "\t", "  "], ["\x0b", "\x0c", "\u0085", "\u00a0", "\u2028", "\x00"])
ENDINGS = (["\n", "\r\n"], ["\r"])
LINES = (["1 1:1"], ["", "#", "# 1 1:1", "   ", "\t", "1:1 2:1", "1 3:1 2:1", "1 2:1 2:1"])
RAW = [b"\x85", b"\xa0", b"\xff", b"\xc3", b"\xed\xa0\x80"]  # bytes that are not UTF-8


def pick(draw, pieces, odd):
    """A piece that fits the grammar, or with probability ``odd`` one that may not."""
    fits, other = pieces
    return draw(st.sampled_from(other if draw(st.floats(0, 1)) < odd else fits))


def libsvm_line(draw, odd):
    if pick(draw, LINES, odd) != "1 1:1":
        return pick(draw, LINES, 1.0).encode()
    tokens, prev = [pick(draw, NUMBERS, odd)], 0
    if draw(st.floats(0, 1)) < odd:
        tokens.pop()  # no label: the first token is a feature
    for _ in range(draw(st.integers(0, 6))):
        idx = pick(draw, INDICES, odd)
        if idx == "1":
            prev += draw(st.integers(1, 5))
            idx = str(prev)
        tokens.append(idx + pick(draw, COLONS, odd) + pick(draw, NUMBERS, odd))
    text = "".join(pick(draw, BLANKS, odd) + tok for tok in tokens)
    text = text[1:] if draw(st.booleans()) else text
    return text.encode() + (draw(st.sampled_from(RAW)) if draw(st.floats(0, 1)) < odd / 4 else b"")


def weight_line(draw, odd, prev):
    idx = pick(draw, INDICES, odd)
    idx = str(prev + draw(st.integers(1, 3))) if idx == "1" else idx
    text = idx + pick(draw, COLONS, odd) + pick(draw, NUMBERS, odd)
    return text.encode() + (draw(st.sampled_from(RAW)) if draw(st.floats(0, 1)) < odd / 4 else b"")


def text_file(draw, lines, odd):
    """``lines`` joined by line breaks, the last one perhaps without its own."""
    body = b"".join(line + pick(draw, ENDINGS, odd).encode() for line in lines)
    return body.rstrip(b"\r\n") if draw(st.booleans()) else body


ODD = st.sampled_from([0.0, 0.0, 0.01, 0.03, 0.1, 0.3])  # per file


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scan")


def outcome(fn, *args, **kwargs):
    """The result of ``fn`` or the class, message and line number of its error."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


def bits(*arrays):
    """The arrays' bit patterns, as int64 lists that compare with ``==``."""
    return [np.asarray(a, dtype=np.float64 if a.dtype.kind == "f" else np.int64)
            .view(np.int64).tolist() for a in arrays]


def dataset_bits(data):
    if isinstance(data, tuple):
        return data
    return data.dim, bits(data.indptr, data.indices, data.values, data.labels)


def model_bits(model):
    if isinstance(model, tuple):
        return model
    return model.loss, model.dim, bits(model.dense(), np.array([model.b]))


def text_mode(read, path):
    """``read`` on the file opened in text mode: UTF-8 with universal newlines."""
    with open(path, encoding="utf-8") as fh:
        return read(fh)


def check_paths(path, load, text, unpack):
    """The compiled reader, the forced fallback and, for UTF-8 text, the text-mode
    reader all give bit-identical results or the same error."""
    compiled = unpack(outcome(load, path))
    assert compiled == unpack(outcome(on_fallback, load, path))
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:  # text mode raises this, not a line error
        assert isinstance(compiled, tuple) and issubclass(compiled[0], SparselinError)
        return
    assert compiled == unpack(outcome(text_mode, text, path))


class TestScanners:
    @settings(max_examples=400, deadline=None)
    @given(st.data(), ODD, st.sampled_from([1, 2, 7, 64, 1 << 16]), st.booleans(),
           st.sampled_from([None, 0, 20, 1 << 40]))
    def test_dataset_matches_fallback_and_text_mode(self, scratch_dir, data, odd, chunk,
                                                    labels, dim):
        lines = [libsvm_line(data.draw, odd) for _ in range(data.draw(st.integers(0, 8)))]
        path = scratch_dir / "data.txt"
        path.write_bytes(text_file(data.draw, lines, odd))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_io, "CHUNK", chunk)
            check_paths(path, lambda p: data_io.load_dataset(p, dim, labels),
                        lambda fh: data_io.parse_libsvm(fh, dim, labels), dataset_bits)

    @settings(max_examples=400, deadline=None)
    @given(st.data(), ODD, st.sampled_from([1, 3, 16, 1 << 16]))
    def test_model_matches_fallback_and_read_model(self, scratch_dir, data, odd, chunk):
        header = [b"sparselin-model v1", b"loss log", b"dim 30", b"bias -0.5"]
        if data.draw(st.floats(0, 1)) < odd:
            i = data.draw(st.integers(0, 3))
            header[i] = data.draw(st.sampled_from(
                [b"", b"sparselin-model v2", b"loss 1", b"dim -1", b"dim 30.0", b"dim  30",
                 b"dim 1_2", b"bias nan", b"bias", b"bias 1_0", b"\xff"]))
            header = header[:data.draw(st.integers(i, 4))]
        lines, prev = [], -1
        for _ in range(data.draw(st.integers(0, 8))):
            lines.append(weight_line(data.draw, odd, prev))
            head = lines[-1].partition(b":")[0]
            prev = int(head) if head.isdigit() else prev
        path = scratch_dir / "model.txt"
        path.write_bytes(text_file(data.draw, header + lines, odd))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_io, "CHUNK", chunk)
            check_paths(path, data_io.load_model, data_io.read_model, model_bits)

    @pytest.mark.parametrize("labels", [True, False])
    def test_well_formed_lines_never_reach_the_line_code(self, tmp_path, monkeypatch, labels):
        def refused(self, raw, line_no):
            raise AssertionError(f"line {line_no} left the compiled scanner: {raw!r}")

        monkeypatch.setattr(data_io, "CHUNK", 5)
        for end in (b"\n", b"\r\n"):
            path = tmp_path / "data.txt"
            first = b"1 1:0.5 3:-2\n" if labels else b"1:0.5 3:-2\n"
            path.write_bytes((first + b"-1\t2:1e-3  7:0\n+1 4:.5 20:1\n0.25 1:7.")
                             .replace(b"\n", end))
            reference = data_io.parse_libsvm(io.StringIO(path.read_text()), 20, labels)
            with monkeypatch.context() as mp:
                mp.setattr(data_io._Rows, "add_line", refused)
                loaded = data_io.load_dataset(str(path), 20, labels)
            assert dataset_bits(loaded) == dataset_bits(reference)

            model = tmp_path / "model.txt"
            model.write_bytes(b"sparselin-model v1\nloss hinge\ndim 9\nbias 1\n0:1\n3:-0.5\n8:2e-3"
                              .replace(b"\n", end))
            reference = data_io.read_model(io.StringIO(model.read_text()))
            with monkeypatch.context() as mp:
                mp.setattr(data_io._ModelReader, "_weight", refused)
                loaded = data_io.load_model(str(model))
            assert model_bits(loaded) == model_bits(reference)

    # Each line below sits after five lines the scanner reads and before one more.
    # 2**64 + 5 is 5 to an int64 that overflows.  1 + 2**-53 + 2**-100 lies just
    # above the midpoint of two doubles: only a correctly rounded conversion gets it right
    DATA_EDGES = [
        b"1 1:1\r", b"1\r2:1", b"1 1:1\r1 2:1", b"\t1\t1:1\t", b"#", b"# 1 1:1", b"", b"   ",
        b"1 1:1 \x0b2:1", b"\x0c", b"1\xc2\x85 1:1", b"1\xc2\xa0 1:1", b"1 1:1\x85",
        b"1 1:\xa0", b"\xff", b"\xef\xbb\xbf1 1:1", b"1 1:1\x00", b"+1 1:1", b"1 1_0:1",
        b"1_0 1:1", b"1 1:1_0", b"0x1p3 1:1", b"1 1:0x1p3", b"inf 1:1", b"1 1:inf",
        b"1 1:-inf", b"nan", b"1 1:nan", b"1e999 1:1", b"1 1:1e999", b"-1e999",
        b"1e-400 1:1e-400", b"-0 1:-0", b"1 1:0 2:0", b"007 007:007", b"1 0000000000000000001:1",
        b"1 1000000000000000000:1", b"1 999999999999999999:1", b"1 99999999999999999999:1",
        b"1 18446744073709551621:1",
        b"1 1:", b"1 :1", b"1 1", b"1 1::1", b"1 1:1:1", b"1 3:1 2:1", b"1 2:1 2:1", b"1 0:1",
        b"1 -1:1", b"1 +5:1", b"1:1 2:1", b"1 1:1e", b"1 1:1e+", b"1 1:1.5.", b"1 1:.",
        b"1 1:-", b"1 1:--1", b". 1:1", b"1 1:\xc2\xbd", b"1 20:1", b"1 21:1",
        b"1.7976931348623157e308 1:4.9e-324", b"1 1:2.4703282292062328e-324",
        b"1 1:1.00000000000000011102230246251565404236316680908203125000000000000001",
        b"1 1:123456789012345678901234567890e-30",
    ]

    @pytest.mark.parametrize("line", DATA_EDGES, ids=repr)
    def test_data_edge_line(self, tmp_path, monkeypatch, line):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1 1:1\n-1 2:0.5 3:1\n1\n1 4:2\n-1 1:0.25\n" + line + b"\n1 5:1\n")
        for chunk in (1, 7, 1 << 16):
            monkeypatch.setattr(data_io, "CHUNK", chunk)
            for labels in (True, False):
                for dim in (None, 20):
                    check_paths(path, lambda p: data_io.load_dataset(p, dim, labels),
                                lambda fh: data_io.parse_libsvm(fh, dim, labels), dataset_bits)

    MODEL_EDGES = [
        b"6:1\r", b"6:1\r7:1", b" 6:1", b"6:1 ", b"6: 1", b"6:1\t", b"+6:1", b"6_1:1", b"-1:1",
        b"06:1", b"6:1_0", b"6:0x1p3", b"6:inf", b"6:nan", b"6:1e999", b"6:1e-400", b"6:-0",
        b"6:", b":1", b"6", b"6::1", b"6:1:1", b"29:1", b"30:1", b"0000000000000000006:1",
        b"1234567890123456789:1", b"18446744073709551622:1", b"#", b"", b"\xff", b"6:\xa0",
        b"6:4.9e-324", b"5:2", b"4:1",
        b"6:1.00000000000000011102230246251565404236316680908203125000000000000001",
    ]

    @pytest.mark.parametrize("line", MODEL_EDGES, ids=repr)
    def test_model_edge_line(self, tmp_path, monkeypatch, line):
        path = tmp_path / "model.txt"
        path.write_bytes(b"sparselin-model v1\nloss log\ndim 30\nbias -0.5\n"
                         b"1:1\n2:0.5\n3:-2\n4:1e-3\n5:7\n" + line + b"\n25:1\n")
        for chunk in (1, 7, 1 << 16):
            monkeypatch.setattr(data_io, "CHUNK", chunk)
            check_paths(path, data_io.load_model, data_io.read_model, model_bits)

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=3000) | st.text("\n:x", max_size=3000).map(str.encode),
           st.sampled_from([1, 7, 64, 1 << 16]))
    def test_count(self, scratch_dir, body, chunk):
        # a regular file's lines and ':'s, which size the readers' arrays
        path = scratch_dir / "count.txt"
        path.write_bytes(body)
        with pytest.MonkeyPatch.context() as mp, open(path, "rb") as fh:
            mp.setattr(data_io, "CHUNK", chunk)
            lines = body.count(b"\n") + (body[-1:] not in (b"", b"\n"))
            assert data_io._count(fh) == (lines, body.count(b":"))
            assert fh.tell() == 0

    def test_blocks_end_at_the_first_line_break_after_a_chunk(self, tmp_path, monkeypatch):
        # a read of CHUNK bytes is completed to the end of its last line: a
        # "\r\n" cut by the read, and a line longer than CHUNK, end one block
        body = (b"1 1:0." + b"5" * 57 + b"\r\n"
                + b"".join(b"1 %d:0.5\r\n" % i for i in range(1, 200))
                + b"1 1:1" * 40 + b"\n" + b"1 1:1" * 40)
        path = tmp_path / "data.txt"
        path.write_bytes(body)
        blocks = []

        class Blocks:
            def reserve(self, lines, colons):
                pass

            def scan(self, lib, block, pos, line_no):
                blocks.append(block)
                return len(block), line_no

        monkeypatch.setattr(data_io, "CHUNK", 64)
        monkeypatch.setattr(_kernel, "load", lambda: "lib")
        data_io._read_lines(str(path), Blocks(), ParseError)
        at = 0
        for block in blocks:
            end = body.find(b"\n", at + 63) + 1 or len(body)
            assert block == body[at:end]
            at = end
        assert at == len(body)
        assert blocks[0][63:] == b"\r\n"
        assert len(blocks[-2]) > 64 and len(blocks[-1]) > 64


# ---- the number reader ------------------------------------------------------

@st.composite
def decimal_token(draw):
    """A token of the scanners' number grammar: 1-40 significant digits with
    leading and trailing zeros, the point anywhere or nowhere, a sign, and an
    exponent from -400 to 400 with either sign, perhaps with leading zeros."""
    n = draw(st.integers(1, 40))
    body = ("0" * draw(st.integers(0, 3)) + str(draw(st.integers(10 ** (n - 1), 10 ** n - 1)))
            + "0" * draw(st.integers(0, 3)))
    point = draw(st.one_of(st.none(), st.integers(0, len(body))))
    if point is not None:
        body = body[:point] + "." + body[point:]
    token = draw(st.sampled_from(["", "+", "-"])) + body
    exp = draw(st.one_of(st.none(), st.integers(-400, 400)))
    if exp is not None:
        sign = "-" if exp < 0 else draw(st.sampled_from(["", "+"]))
        token += draw(st.sampled_from("eE")) + sign + "0" * draw(st.integers(0, 2)) + str(abs(exp))
    return token


def read_back(tmp_path, tokens):
    """Each token read by the compiled readers: as a weight of ``load_model``, and
    as a label and a feature value of ``load_dataset``, with the Python line code
    made to fail so that every line must pass through the scanners."""
    def refused(self, raw, line_no):
        raise AssertionError(f"line {line_no} left the compiled scanner: {raw!r}")

    model = tmp_path / "model.txt"
    model.write_text(f"sparselin-model v1\nloss log\ndim {len(tokens)}\nbias 0\n"
                     + "".join(f"{i}:{t}\n" for i, t in enumerate(tokens)))
    data = tmp_path / "data.txt"
    data.write_text("".join(f"{t} 1:{t}\n" for t in tokens))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_io._ModelReader, "_weight", refused)
        mp.setattr(data_io._Rows, "add_line", refused)
        w = data_io.load_model(str(model)).dense()
        loaded = data_io.load_dataset(str(data))
    return w, loaded.labels, loaded.values


def check_tokens(tmp_path, tokens):
    """The readers give Python's float of each token bit for bit, or, where that
    is not finite, the error of the Python line code."""
    values = [float(t) for t in tokens]
    finite = [t for t, v in zip(tokens, values) if math.isfinite(v)]
    if finite:
        w, labels, nonzero = read_back(tmp_path, finite)
        want = np.array([float(t) for t in finite])
        assert bits(w, labels, nonzero) == bits(want, want, want[want != 0.0])
    for t in set(tokens) - set(finite):
        model = tmp_path / "model.txt"
        model.write_text(f"sparselin-model v1\nloss log\ndim 2\nbias 0\n0:1\n1:{t}\n")
        got = outcome(data_io.load_model, str(model))
        assert got[:2] == (FormatError, "line 6: weight 1 is not finite")
        assert got == outcome(text_mode, data_io.read_model, model)
        for line, message in ((f"{t} 1:1", "non-finite label"),
                              (f"1 1:{t}", "non-finite feature value")):
            data = tmp_path / "data.txt"
            data.write_text(f"1 1:1\n{line}\n")
            got = outcome(data_io.load_dataset, str(data))
            assert got[:2] == (ParseError, f"line 2: {message} {t!r}")
            assert got == outcome(text_mode, data_io.parse_libsvm, data)


class TestNumbers:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(decimal_token(), min_size=1, max_size=12))
    def test_matches_python_float(self, scratch_dir, tokens):
        check_tokens(scratch_dir, tokens)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=12),
           st.sampled_from(["{!r}", "{:.17g}", "{:.25e}", "{:.40g}"]))
    def test_printed_doubles_read_back(self, scratch_dir, patterns, layout):
        doubles = np.array(patterns, dtype=np.uint64).view(np.float64).tolist()
        check_tokens(scratch_dir, [layout.format(x) for x in doubles if math.isfinite(x)] or ["1"])

    def test_table_entries(self):
        # each c = f1 2^64 + f0 against its definition: 5^q 2^s in [2^127, 2^128),
        # truncated for q >= 0 (exact up to 5^55), rounded down plus one for
        # -27 <= q < 0, and within one of it below that
        table = list(_kernel.fives())
        assert len(table) == 2 * (308 + 342 + 1)
        for i, q in enumerate(range(-342, 309)):
            c = table[2 * i] << 64 | table[2 * i + 1]
            power = Fraction(5) ** q
            s = 127 - math.floor(q * math.log2(5))
            while power * Fraction(2) ** s >= 2 ** 128:
                s -= 1
            while power * Fraction(2) ** s < 2 ** 127:
                s += 1
            scaled = math.floor(power * Fraction(2) ** s)
            if q >= 0:
                assert c == scaled
            elif q >= -27:
                assert c == scaled + 1
            else:
                assert scaled <= c <= scaled + 1
            assert 2 ** 127 <= c < 2 ** 128

    def test_edges(self, tmp_path):
        check_tokens(tmp_path, NUMBER_EDGES)
        assert sum(not math.isfinite(float(t)) for t in NUMBER_EDGES) >= 3
