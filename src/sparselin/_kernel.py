"""Builds, caches and loads the compiled kernel in ``_kernel.c``.

It holds the training loop (``sl_steps``, with its row draw ``sl_draw``),
the scanners of the LIBSVM and model-file readers (``sl_scan``,
``sl_weights``) with their correctly rounded decimal-to-double converter,
the directory of a model's support (``sl_directory``) through which
``sl_lookup`` finds feature indices and ``sl_scores`` scores a dataset's
rows, where ``sparse_core.directory`` picks them (see ``losses.Scorer``),
the rank bitmap that numbers a dense feature range for training
(``sl_number``, where ``sparse_core.number`` picks it), and the shortest
round-trip float formatter of the model and prediction writers
(``sl_format``; see ``data_io``), so training, ``predict`` and ``eval``
load it; ``import sparselin`` does not.  The converter reads a
table of 128-bit powers of five and the formatter one of 126-bit powers of
ten; ``fives`` and ``tens`` define them, and a build compiles them into the
library as a second C file (``compile_c``), so no caller ever handles them.

The C source ships inside the package and is compiled on first use with the
system's ``cc`` into ``$XDG_CACHE_HOME/sparselin/`` (default
``~/.cache/sparselin/``), under a name keyed on a checksum of ``_kernel.c``,
this file and the compile flags, so an edit or new flags build a new
library, and a cached one loads without computing a table.  A build writes
to a temporary file and publishes it with an atomic rename, so concurrent
first uses never load a half-written library.  Where the cache directory
cannot be written, the library is built in a per-process temporary
directory instead.  ``load`` returns None when no library can be built or
loaded (no compiler, say); the callers then run their Python code.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import tempfile
import zlib

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_KEYED = (_SOURCE, os.path.abspath(__file__))  # the files whose bytes name the library
# -ffp-contract=off: a fused multiply-add would round differently from numpy
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_lib: ctypes.CDLL | None | bool = None  # False once building or loading failed


def locate(directory: str) -> str:
    """Path of the compiled library in ``directory``, built there first if missing."""
    key = zlib.crc32(" ".join(_FLAGS + (os.uname().machine,)).encode())
    for name in _KEYED:
        with open(name, "rb") as fh:
            key = zlib.crc32(fh.read(), key)
    path = os.path.join(directory, f"kernel-{key:08x}.so")
    if not os.path.exists(path):
        _build(path)
    return path


def compile_c(output: str, flags=_FLAGS, sources=()):
    """``cc`` with ``flags`` on ``sources``, ``_kernel.c`` and a C file given on
    stdin that defines ``sl_fives`` and ``sl_tens`` as ``fives`` and ``tens``
    give them, linked into ``output``: the completed process."""
    import subprocess  # only on a cache miss: most runs never start a compiler

    tables = "".join(f"const uint64_t {name}[] = {{{', '.join(map(hex, words))}}};\n"
                     for name, words in (("sl_fives", fives()), ("sl_tens", tens())))
    return subprocess.run(["cc", *flags, "-o", output, *sources, _SOURCE, "-lm", "-x", "c", "-"],
                          input="#include <stdint.h>\n" + tables, capture_output=True, text=True)


def _build(path: str) -> None:
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        proc = compile_c(tmp)
        if proc.returncode != 0:
            raise OSError(f"cc exited with {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _array(dtype, none=False):
    """ctypes' type of a C-contiguous 1-d array of ``dtype``, passed as a pointer
    to its data (ctypes refuses any other array); with ``none``, None is NULL.
    The pointer is made from the address alone: numpy's own conversion
    (``ndarray.ctypes``) leaves a reference cycle per argument, garbage until
    the cycle collector runs, which calls made a block at a time would pile
    up."""
    t = np.ctypeslib.ndpointer(dtype, ndim=1, flags="C_CONTIGUOUS")

    def from_param(cls, a):
        if a is None and none:
            return None
        return ctypes.c_void_p(t.from_param(a).data)  # checked: dtype, dimensions, layout

    return type(t)(t.__name__, (t,), {"from_param": classmethod(from_param)})


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    u64, i64, dbl, flag, text = (ctypes.c_uint64, ctypes.c_int64, ctypes.c_double, ctypes.c_int,
                                 ctypes.c_char_p)
    ints, reals = _array(np.int64), _array(np.float64)
    positions = _array(np.int32)  # into a support: see sparse_core.MAX_SUPPORT
    maybe_ints, maybe_reals = _array(np.int64, none=True), _array(np.float64, none=True)
    for fn, args, result in (
            (lib.sl_steps, [u64, i64, ints, positions, reals, reals, flag, dbl, dbl,
                            maybe_reals, reals, maybe_reals, reals, i64, i64], i64),
            (lib.sl_draw, [u64, i64, i64], i64),
            (lib.sl_scan, [text, i64, i64, flag, i64, i64, ints, reals, ints, reals, ints], i64),
            (lib.sl_weights, [text, i64, i64, i64, ints, reals, ints], i64),
            (lib.sl_directory, [ints, i64, positions], flag),
            (lib.sl_lookup, [ints, i64, ints, i64, positions, flag, positions], None),
            (lib.sl_number, [ints, i64, _array(np.uint64), i64, positions, i64, positions], i64),
            (lib.sl_scores, [ints, reals, i64, dbl, ints, ints, reals, i64, positions, flag,
                             reals], None),
            (lib.sl_format, [reals, maybe_ints, i64, i64, _array(np.uint8), i64, ints], i64)):
        fn.argtypes, fn.restype = args, result
    return lib


def tens() -> list[int]:
    """``sl_format``'s table: for k = -324..292, g = floor(10^-k 2^-r) + 1 with r
    such that 2^125 <= 10^-k 2^-r < 2^126, as the words g >> 63 and g mod 2^63."""
    words = []
    for k in range(-324, 293):
        p = 10 ** abs(k)
        b = p.bit_length()
        if k <= 0:  # 10^-k = p, r = b - 126
            g = (p >> b - 126 if b > 126 else p << 126 - b) + 1
        else:  # 10^-k = 1/p, r = -b - 125 (p is no power of 2)
            g = (1 << b + 125) // p + 1
        words += (g >> 63, g & ((1 << 63) - 1))
    return words


def fives() -> list[int]:
    """The number reader's table of ``sl_scan`` and ``sl_weights``: for
    q = -342..308, 5^q scaled by a power of two into [2^127, 2^128), as the
    words c >> 64 and c mod 2^64.  For q >= 0 it is 5^q truncated; for
    q < 0 the reciprocal 2^b / 5^-q rounded down plus one, b = z + 127 with
    2^(z-1) < 5^-q < 2^z, or for q < -27 b = 2z + 128 and that then
    truncated (fast_float's table, which the error analysis covers)."""
    words = []
    p = 5 ** 342
    for q in range(-342, 309):
        z = p.bit_length()
        if q >= 0:
            c = p << 128 - z if z < 128 else p >> z - 128
        else:
            c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // p + 1
            c >>= max(0, c.bit_length() - 128)
        words += (c >> 64, c & (1 << 64) - 1)
        p = p // 5 if q < 0 else p * 5
    return words


def _open() -> ctypes.CDLL | None:
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    try:
        try:
            return _declare(ctypes.CDLL(locate(os.path.join(cache, "sparselin"))))
        except OSError:  # an unwritable cache directory, or an unloadable file in it
            with tempfile.TemporaryDirectory() as tmp:
                # a loaded library stays mapped after its file is removed
                return _declare(ctypes.CDLL(locate(tmp)))
    except OSError:
        return None


def load() -> ctypes.CDLL | None:
    """The compiled library, built and loaded on the first call; None if that failed."""
    global _lib
    if _lib is None:
        _lib = _open() or False
    return _lib or None
