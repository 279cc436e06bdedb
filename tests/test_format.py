"""The compiled float formatter (``sl_format``) against ``fmt_float``.

``data_io.write_floats`` writes a model's weight lines and ``predict``'s
output through ``sl_format`` where the kernel loads, and through
``fmt_float`` (Python's ``repr``) where it does not.  Both must give the same
bytes for every finite double: the shortest digits that read back as the
double, the nearest of those, laid out as ``repr`` lays them out.
"""

import io
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import NUMBER_EDGES, loop_args
from sparselin import LossKind, _kernel, data_io
from sparselin.cli import main
from sparselin.data_io import fmt_float, parse_libsvm, write_floats
from sparselin.solvers import _LOSSES, _python_steps
from sparselin.sparse_core import row_dots, search

HERE = Path(__file__).resolve().parent
STRIDE = 10**14 + 3  # between weight indices, so that they run to 19 digits


def feats_of(values, weights):
    """The weight indices of ``values`` as weight lines (``weights``), else None."""
    return np.arange(len(values), dtype=np.int64) * STRIDE if weights else None


def expected(values, weights):
    if weights:
        return "".join(f"{i * STRIDE}:{fmt_float(v)}\n" for i, v in enumerate(values) if v != 0.0)
    return "".join(f"{fmt_float(v)}\n" for v in values)


def formatted(values, weights):
    out = io.StringIO()
    write_floats(np.array(values, dtype=np.float64), out, feats_of(values, weights))
    return out.getvalue()


def from_bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64).tolist()


def edge_values():
    twos = [2.0 ** e for e in range(-1074, 1024)]  # the rounding interval is asymmetric there
    values = twos + [3.0 * x for x in twos[:-1]]
    values += from_bits(range(1, 64))  # the smallest subnormals, where shortest is 1 or 2 digits
    values += [from_bits([(1 << 52) - 1])[0], sys.float_info.min, sys.float_info.max,
               2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1e15, 1e16, 9999999999999998.0,
               1e-4, 9.999999999999999e-05, 1e-5, 1.0, 2.0, 10.0, 100.0, 123456789.0,
               1e15 + 1, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 5e-324, 1.5, 123.456]
    for k in range(-323, 309):  # each power of ten and its neighbours
        x = float(f"1e{k}")
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    values = [v for v in values if math.isfinite(v)]
    return values + [-v for v in values]


EDGES = edge_values()


def zero_runs():
    """k-digit integers d (k = 1..17, last digit nonzero) followed by each count
    of zeros up to 17 - k, times powers of ten across the layouts and the
    range, and their negations: digits of every length, ending in every
    count of zeros, for the formatter to strip."""
    rng = np.random.default_rng(26)
    values = []
    for k in range(1, 18):
        for _ in range(3):
            d = int(rng.integers(10 ** (k - 1), 10 ** k)) // 10 * 10 + int(rng.integers(1, 10))
            for zeros in range(18 - k):
                for e in (-340, -310, -30, -8, -4, 0, 4, 20, 280):
                    x = float(f"{d}{'0' * zeros}e{e}")
                    if 0.0 < x < math.inf:
                        values.append(x)
    return values + [-v for v in values]


ZERO_RUNS = zero_runs()
# a feature index at each side of every change in its number of digits
WIDTHS = sorted({0} | {10 ** d for d in range(18)} | {10 ** d - 1 for d in range(1, 19)})


def indexed(values):
    """``WIDTHS`` over and over, one index per value."""
    return np.resize(np.array(WIDTHS, np.int64), len(values))


def indexed_lines(values):
    """The nonzero ``values`` as weight lines at ``indexed``'s indices."""
    return "".join(f"{i}:{fmt_float(v)}\n" for i, v in zip(indexed(values).tolist(), values))


@pytest.fixture(autouse=True)
def compiled():
    # without the kernel every test here would compare fmt_float with itself
    assert _kernel.load() is not None, "the compiled kernel could not be built or loaded"


@pytest.mark.parametrize("weights", [False, True])
def test_edge_values(weights):
    values = EDGES + ZERO_RUNS + [0.0, -0.0]
    assert formatted(values, weights) == expected(values, weights)


def test_index_widths():
    values = ZERO_RUNS[::7]
    assert len(values) > len(WIDTHS)
    out = io.StringIO()
    write_floats(np.array(values), out, indexed(values))
    assert out.getvalue() == indexed_lines(values)


def test_zeros_and_layout():
    assert formatted([0.0, -0.0, 1e16, 1e-5, 1e-4, 100.0, -2.5, 5e-324], False) == (
        "0\n-0\n1e+16\n1e-05\n0.0001\n100\n-2.5\n5e-324\n")
    assert formatted([0.0, -0.0, 2.0, 0.0, -1e300], True) == (
        f"{2 * STRIDE}:2\n{4 * STRIDE}:-1e+300\n")
    assert formatted([], False) == formatted([], True) == ""


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60), st.booleans())
def test_raw_bit_patterns(patterns, weights):
    values = [v for v in from_bits(patterns) if math.isfinite(v)]
    assert formatted(values, weights) == expected(values, weights)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
       st.booleans())
def test_floats(values, weights):
    assert formatted(values, weights) == expected(values, weights)


@pytest.mark.parametrize("weights", [False, True])
def test_buffer_boundary(weights):
    # with room for the longest line only, every call stops at a line that
    # does not fit and the next call resumes there; with less, nothing is written
    lib = _kernel.load()
    x = np.array(EDGES[::7] + [0.0, -0.0] * 5)
    feats = feats_of(x, weights)
    text = expected(x.tolist(), weights).encode()
    longest = max(len(line) + 1 for line in text.split(b"\n")[:-1])
    stop = np.zeros(1, np.int64)
    for cap in (longest, longest + 1, 2 * longest - 1, 1000):
        buf, pos, out, calls = bytearray(cap), 0, b"", 0
        view = np.frombuffer(buf, np.uint8)
        while pos < x.size:
            n = lib.sl_format(x, feats, pos, x.size, view, cap, stop)
            assert 0 < n <= cap or stop[0] == x.size
            assert buf[:n].endswith(b"\n") or n == 0
            out += bytes(buf[:n])
            pos, calls = int(stop[0]), calls + 1
        assert out == text
        assert calls > len(text) // cap
    first = text.split(b"\n")[0]
    buf = bytearray(len(first))
    n = lib.sl_format(x, feats, 0, x.size, np.frombuffer(buf, np.uint8), len(buf), stop)
    assert n == 0 and stop[0] == 0


def test_write_floats_splits_at_the_buffer(monkeypatch):
    monkeypatch.setattr(data_io, "CHUNK", 64)
    values = EDGES[::3]
    assert formatted(values, False) == expected(values, False)
    assert formatted(values, True) == expected(values, True)


def test_table_entries():
    # each g against its definition: 10^-k = beta 2^r with 2^125 <= beta < 2^126,
    # g = floor(beta) + 1 = g1 2^63 + g0
    table = list(_kernel.tens())
    assert len(table) == 2 * (292 + 324 + 1)
    for i, k in enumerate(range(-324, 293)):
        g1, g0 = table[2 * i], table[2 * i + 1]
        assert 0 <= g0 < 2 ** 63 and 0 <= g1 < 2 ** 63
        power = Fraction(10) ** -k
        r = math.floor(-k * math.log2(10)) - 125
        while power / Fraction(2) ** r >= 2 ** 126:
            r += 1
        while power / Fraction(2) ** r < 2 ** 125:
            r -= 1
        assert g1 * 2 ** 63 + g0 == math.floor(power / Fraction(2) ** r) + 1


def test_commands_write_the_same_bytes_without_the_kernel(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(8)
    rows = []
    for _ in range(300):
        idx = np.sort(rng.choice(2000, size=6, replace=False)) + 1
        vals = rng.normal(size=6) * 10.0 ** rng.integers(-8, 8, size=6)
        rows.append(f"{rng.choice([-1, 1])} "
                    + " ".join(f"{j}:{v!r}" for j, v in zip(idx.tolist(), vals.tolist())))
    data = tmp_path / "data.txt"
    data.write_text("\n".join(rows) + "\n")
    outputs = []
    for path in ("compiled", "fallback"):
        if path == "fallback":
            monkeypatch.setattr(_kernel, "load", lambda: None)
        run = []
        for algo in ("sgd", "asgd", "casgd"):
            model = tmp_path / f"{algo}-{path}.txt"
            assert main(["train", "--data", str(data), "--model", str(model), "--algo", algo,
                         "--loss", "hinge", "--lambda", "1e-3", "--steps", "2000",
                         "--seed", "5"]) == 0
            out = tmp_path / f"{algo}-{path}.out"
            assert main(["predict", "--model", str(model), "--data", str(data),
                         "--out", str(out)]) == 0
            assert main(["predict", "--model", str(model), "--data", str(data)]) == 0
            run += [model.read_bytes(), out.read_bytes(), capsys.readouterr().out]
        outputs.append(run)
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") > 1000  # the sgd model: over a thousand weight lines


def sanitized(tmp_path, driver):
    """``driver`` (a C file here) linked with the kernel and its tables, as a build
    compiles them, under AddressSanitizer and UBSan."""
    exe = tmp_path / driver.removesuffix(".c")
    flags = ("-O1", "-g", "-ffp-contract=off", "-fsanitize=address,undefined",
             "-fno-sanitize-recover=all", "-Wall", "-Wextra", "-Werror")
    proc = _kernel.compile_c(str(exe), flags, [str(HERE / driver)])
    assert proc.returncode == 0, proc.stderr
    return exe


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_sanitized_build(tmp_path):
    # sl_format writing into a malloc'ed buffer of exactly the cap it is given,
    # from arrays of exactly one value and one index per line
    exe = sanitized(tmp_path, "format_driver.c")
    values = EDGES + [0.0, -0.0]
    bits = " ".join(f"{b:x}" for b in np.array(values).view(np.uint64).tolist())
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0")
    for weights in (0, 1):
        text = expected(values, weights)
        longest = max(len(line) + 1 for line in text.splitlines())
        for cap in (longest, 4096):
            run = subprocess.run([str(exe), str(STRIDE if weights else 0), str(cap)], input=bits,
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            assert run.stdout == text
    # every length of digits with every count of trailing zeros, as plain
    # lines and beside feature indices of every width
    feats, bits = indexed(ZERO_RUNS).tolist(), np.array(ZERO_RUNS).view(np.uint64).tolist()
    for stride, given, text in [
            (0, " ".join(f"{b:x}" for b in bits), expected(ZERO_RUNS, False)),
            (-1, " ".join(f"{i} {b:x}" for i, b in zip(feats, bits)), indexed_lines(ZERO_RUNS))]:
        longest = max(len(line) + 1 for line in text.splitlines())
        for cap in (longest, 4096):
            run = subprocess.run([str(exe), str(stride), str(cap)], input=given,
                                 capture_output=True, text=True, env=env)
            assert run.returncode == 0, run.stderr
            assert run.stdout == text
    for nothing in ("", "0 8000000000000000"):  # no weights, and only zero weights
        run = subprocess.run([str(exe), str(STRIDE), "64"], input=nothing, capture_output=True,
                             text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout == ""

    # sl_weights reading each edge token from a buffer that ends at the token's
    # NUL; a token Python reads as an infinity is refused, and w stays 0
    exe = sanitized(tmp_path, "read_driver.c")
    run = subprocess.run([str(exe)], input="".join(t + "\n" for t in NUMBER_EDGES),
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    want = [f"1 {np.float64(float(t)).view(np.uint64):x}" if math.isfinite(float(t)) else "0 0"
            for t in NUMBER_EDGES]
    assert run.stdout.splitlines() == want

    # sl_weights reading blocks of weight lines into arrays of exactly the
    # room the reader's count gives (its ':'s) or less: none at all, lines
    # up to one it refuses, and lines up to the first that does not fit
    for block, dim, lines, room in [
            ("", 5, [], None), ("0:1\n3:-2.5\r\n7:1e-300", 8, [0, 1, 2], None),
            ("5:1\n4:2\n", 9, [0], None), ("1:1\n2:2\n3:3", 3, [0, 1], None),
            ("0:1\n" * 4, 2, [0], None), ("0:1\n1:2\n2:3\n", 9, [0, 1], 2),
            ("0:1\n1:2", 9, [], 0)]:
        argv = [str(exe), "block", str(dim)] + ([] if room is None else [str(room)])
        run = subprocess.run(argv, input=block, capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        rows = [block.splitlines()[i].split(":") for i in lines]
        stop = sum(len(line) for line in block.splitlines(True)[:len(lines)])
        assert run.stdout.splitlines() == [
            f"{i} {np.float64(float(v)).view(np.uint64):x}" for i, v in rows] + [str(stop)]

    # sl_directory and sl_lookup over arrays of exactly their size: an empty
    # support, one feature, nine, misses below, between and past
    # the features, and skewed buckets; then sl_scores over the keys as a
    # dataset's indices, in rows of up to 3 and an empty one, with signed zeros
    # among the weights and the values, in one call and in calls of one and of
    # two rows over copies of just those rows that share the one directory
    exe = sanitized(tmp_path, "lookup_driver.c")
    hashed = 10**12
    for feats, keys in [([], [0, 1, hashed]), ([0], [0, 1, 2]), ([3], [0, 3, 4]),
                        ([2, 9, 40], [1, 2, 3, 9, 39, 40, 41, 10**18]),
                        (list(range(5, 95, 10)), list(range(100))),
                        (list(range(999)) + [hashed - 1], [0, 998, 999, hashed - 2, hashed - 1,
                                                         hashed]),
                        (list(range(0, 3000, 3)), list(range(3005)))]:
        want = search(np.array(feats, np.int64), np.array(keys, np.int64))
        indptr = np.array([0, 0] + list(range(3, len(keys), 3)) + [len(keys)])
        weights = -0.5 * (np.arange(len(feats)) + 1.0) * (np.arange(len(feats)) % 5 > 0)
        values = 10.0 ** (np.arange(len(keys)) % 9 - 4) * (-1.0) ** np.arange(len(keys))
        values[::4] = -0.0
        bias = 0.75
        text = " ".join(map(str, [len(feats), *feats, len(keys), *keys, indptr.size - 1,
                                  *indptr.tolist()]))
        text += " " + " ".join(f"{w:x}" for w in np.concatenate(
            [weights, values, [bias]]).view(np.uint64).tolist())
        scored = row_dots(np.append(weights, 0.0), indptr, want, values) + bias
        for rows in ([], ["1"], ["2"]):
            run = subprocess.run([str(exe), *rows], input=text, capture_output=True, text=True,
                                 env=env)
            assert run.returncode == 0, run.stderr
            assert run.stdout.split() == [str(p) for p in want.tolist()] + [
                f"{w:x}" for w in scored.view(np.uint64).tolist()]

    # sl_scan reading LIBSVM lines whose last token ends at the buffer's NUL,
    # with the largest index read (that of a :0 value too), and sl_steps over
    # arrays of exactly the scanned size, drawing its rows from the seed: sgd
    # with NULL u and q, casgd, and a run that a non-finite step stops
    exe = sanitized(tmp_path, "steps_driver.c")
    rows = "1 1:0.5 3:-2\n-1 2:1.25\r\n1 1:1e-3 2:7 3:0.5"
    for text, loss, lam, steps, average, center, seed in [
            (rows, LossKind.LOG, 0.1, 40, False, False, 2**64 - 1),
            (rows + "\n-1", LossKind.HINGE, 0.1, 40, True, True, 3),
            ("2 1:1 3:0", LossKind.SQUARED, 1e-300, 200, False, False, 0)]:
        data = parse_libsvm(text.splitlines(), dim_override=3)
        args = loop_args(data, loss, lam, seed, average, center)
        bad = _python_steps(*args, 1, steps + 1)
        argv = [str(_LOSSES.index(loss)), lam.hex(), str(steps), "3", str(int(average)),
                str(seed)]
        if center:
            argv += [x.hex() for x in (args[8], *args[9].tolist())]
        run = subprocess.run([str(exe), *argv], input=text, capture_output=True, text=True,
                             env=env)
        assert run.returncode == 0, run.stderr
        *_, v, u, st = args
        top = parse_libsvm(text.splitlines()).dim  # the largest index read, of a :0 too
        words = [data.indptr, data.indices, data.values, data.labels, [top], [bad], st, v,
                 u if average else []]
        assert run.stdout.splitlines() == [
            " ".join(f"{w:x}" for w in np.asarray(a).view(np.uint64).tolist()) for a in words]
        assert bool(bad) == (lam < 1e-200)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_sanitized_numbering(tmp_path):
    # sl_number over arrays of exactly their size: no keys, dim 1, the last
    # bit of a word (key dim - 1 at dim 64 and 128), every key equal, random
    # keys, and a count over the limit, which writes no position
    exe = sanitized(tmp_path, "number_driver.c")
    env = dict(os.environ, ASAN_OPTIONS="detect_leaks=0")
    rng = np.random.default_rng(32)
    for dim, keys, limit in [(1, [], 5), (0, [], 5), (1, [0], 5), (64, [63, 0, 63], 5),
                             (128, [127, 64, 63, 127], 5), (65, [64] * 9, 5), (300, [7] * 40, 5),
                             (1000, rng.integers(0, 1000, 3000).tolist(), 2**31 - 1),
                             (128, [1, 2, 127], 2)]:
        feats = np.unique(np.array(keys, np.int64))
        want = search(feats, np.array(keys, np.int64)).tolist()
        if feats.size > limit:
            want = [-1] * len(keys)
        text = " ".join(map(str, [dim, len(keys), *keys]))
        run = subprocess.run([str(exe), str(limit)], input=text, capture_output=True, text=True,
                             env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == [str(feats.size)] + [str(p) for p in want]
