"""LIBSVM-format dataset ingestion and the versioned model file format.

Data files: one example per line, ``<label> <idx>:<val> ...`` with 1-based,
strictly increasing indices (converted to 0-based internally).  Lines that
are empty or start with ``#`` are skipped.  Explicit ``:0`` values are
dropped so the nonzero count stays meaningful, but their indices count
toward the default dimension.  A ``nan`` or ``inf`` label or value is a
parse error.

The readers write straight into a ``Dataset``'s CSR arrays (see
``sparse_core``), and a model's weights into its two.

``parse_libsvm`` and ``read_model`` read text one line at a time.  The
path-based readers read the file in binary, and every reader sizes its
arrays by one rule, through its ``reserve``.  ``load_dataset`` and
``load_model``, which return exact-size arrays, count a regular file first,
``CHUNK`` bytes at a time into one reused buffer (numpy's
``count_nonzero``): its line breaks bound the rows, and its ':'s the
nonzeros and the weight lines, exactly for a file of ``'\\n'``-ended lines
with no comment and no ``:0`` value.  The arrays are then allocated once at
that size and filled in place, so a reader holds what it returns plus a few
buffers of ``CHUNK`` bytes, which bound only the reads.  Scoring input
(``load_scores``), a pipe and a text stream are sized as they are read:
they start with no room, and a line that does not fit doubles the arrays,
or grows them to what it needs if that is more (``_grown``).

The file is then read ``CHUNK`` bytes at a time, and a read that does not
end in ``'\\n'`` is completed with ``readline``: so each block holds whole
lines (a line longer than ``CHUNK`` is one block, a ``'\\r\\n'`` is never
split) and only the file's last block may lack a final line break; ``read``
waits for ``CHUNK`` bytes or the end of a pipe as of a file.  Each block
goes to a compiled scanner (``sl_scan``, ``sl_weights``).  A scanner
accepts one narrow form:
ASCII numbers ``[+-]?(d+(.d*)?|.d+)([eE][+-]?d+)?`` that are finite,
indices of at most 18 plain digits, space or tab between tokens, ``'\\n'``
or ``'\\r\\n'`` at the end of each line, and the same index checks as the
line code, and it writes no more than the room left in the arrays.  At the
first line outside that form, or that does not fit, it stops; that line is
decoded and split as text-mode reading would (universal newlines) and goes
to the same Python line code as ``parse_libsvm``/``read_model``, which
raises the usual error with its line number or accepts it (a comment, a
blank line, ``1_0``, a lone ``'\\r'``; making room first), and scanning
resumes after it.  The scanners convert numbers themselves, correctly
rounded as ``float`` rounds: Clinger's exact path (one IEEE multiply or
divide) where the digits and exponent are small, else the Eisel-Lemire
algorithm, and ``strtod`` only for a decimal of more than 19 significant
digits that these cannot decide.
So both readers give bit-identical arrays and the same errors with or
without the kernel; without it (no compiler, say) every line takes the
Python line code.  Bytes that are not UTF-8 are a ``ParseError``/
``FormatError`` naming their line.

``load_scores``, which ``predict`` and ``eval`` read their data with,
builds no ``Dataset``.  The same loop calls it before each block's lines
are read; it scores the rows of the block before (``losses.Scorer``, whose
lookup directory is built once), keeps their scores and labels in two
m-long arrays, and empties its CSR arrays, which keep their room for the
new block.  So it holds the model, those two arrays and about one block's
arrays, and its scores and errors are those of ``scores`` on the whole file.

Model files (text, version ``v1``)::

    sparselin-model v1
    loss squared
    dim 3
    bias 2
    0:2
    2:-0.5

Floats are serialized with the shortest decimal representation that parses
back to the identical bits, and the nearest of those, laid out as ``repr``
lays them out without a final ``.0`` (``fmt_float``), so write/read
round-trips are exact.  A model is its support (see ``LinearModel``): a
weight line is written for each nonzero weight of it (``-0.0`` is dropped
as ``0.0`` is), and reading appends each line's index and weight, so
neither costs anything of the model's ``dim``.  ``write_model`` and the
``predict`` command write their lines with ``write_floats``: where the
kernel loads, its formatter (``sl_format``, Schubfach's shortest-digit
search) fills one reused ``CHUNK``-byte buffer at a time, which goes to the
text stream, so no whole-file buffer is built; without the kernel each
float goes through ``fmt_float``.  Both give the same bytes, which the test
suite checks.
"""

from __future__ import annotations

import math
import os
import stat
from typing import IO, Iterable

import numpy as np

from .errors import (
    DimensionError,
    EmptyDatasetError,
    FormatError,
    IndexOrderError,
    ParseError,
)
from .losses import LinearModel, LossKind, Scorer, check_labels, finite_scores
from .sparse_core import MAX_DIM, Dataset

MODEL_MAGIC = "sparselin-model v1"
CHUNK = 1 << 16  # bytes per read of the path-based readers, and at most per write of write_floats
LINE_MAX = 45  # the longest line sl_format writes: 19 digits, ':', 24 bytes of float, '\n'


def fmt_float(x: float) -> str:
    """Shortest decimal that round-trips; integral values drop the '.0'."""
    s = repr(float(x))
    return s[:-2] if s.endswith(".0") else s


def _parse_feature(tok: str, line_no: int) -> tuple[int, float]:
    idx_s, sep, val_s = tok.partition(":")
    if not sep:
        raise ParseError(line_no, f"expected <index>:<value>, got {tok!r}")
    try:
        idx = int(idx_s)
    except ValueError:
        raise ParseError(line_no, f"bad feature index {idx_s!r}") from None
    if idx < 1:
        raise ParseError(line_no, f"feature indices are 1-based, got {idx}")
    try:
        val = float(val_s)
    except ValueError:
        raise ParseError(line_no, f"bad feature value {val_s!r}") from None
    if not math.isfinite(val):
        raise ParseError(line_no, f"non-finite feature value {val_s!r}")
    return idx - 1, val


def _grown(a: np.ndarray, used: int, need: int, extra: int = 0) -> np.ndarray:
    """``a`` if it has room for ``need`` items (and ``extra`` slots more), else a
    new array of its type with room for twice its items, or ``need`` if that is
    more, that starts with its first ``used`` items (and the ``extra``)."""
    size = a.size - extra
    if need <= size:
        return a
    new = np.empty(max(2 * size, need) + extra, a.dtype)
    new[:used + extra] = a[:used + extra]  # the tail takes no memory until it is written
    return new


class _Rows:
    """CSR rows written into arrays with room for more, one text line at a time
    (``add_line``) or a block of lines at a time by the compiled scanner
    (``scan``)."""

    def __init__(self, dim_override: int | None, require_labels: bool):
        self.indptr, self.indices = np.zeros(1, np.int64), np.empty(0, np.int64)
        self.values, self.labels = np.empty(0), np.empty(0)
        self.rows = self.nnz = 0
        self.dim_override, self.require_labels = dim_override, require_labels
        self.limit, self.what = ((MAX_DIM, "the largest dimension") if dim_override is None
                                 else (dim_override, "dimension"))
        # sl_scan's room and result, and the largest 1-based index read, of a :0
        # value too: the default dimension, which a --dim of it then accepts
        self.count = np.zeros(3, np.int64)

    def reserve(self, rows: int, nnz: int) -> None:
        """Room for ``rows`` more rows and ``nnz`` more nonzeros (a file's lines and
        ':'s bound them).  The arrays grow one at a time, so that each old one is
        freed before the next grows."""
        self.labels = _grown(self.labels, self.rows, self.rows + rows)
        self.indptr = _grown(self.indptr, self.rows, self.rows + rows, 1)  # one slot more
        self.indices = _grown(self.indices, self.nnz, self.nnz + nnz)
        self.values = _grown(self.values, self.nnz, self.nnz + nnz)

    def add_line(self, raw: str, line_no: int) -> None:
        line = raw.strip()
        if not line or line.startswith("#"):
            return
        tokens = line.split()
        if self.require_labels or ":" not in tokens[0]:
            try:
                y = float(tokens[0])
            except ValueError:
                raise ParseError(line_no, f"bad label {tokens[0]!r}") from None
            if not math.isfinite(y):
                raise ParseError(line_no, f"non-finite label {tokens[0]!r}")
            feats = tokens[1:]
        else:
            y = 0.0
            feats = tokens
        prev, indices, values = -1, [], []
        for tok in feats:
            idx, val = _parse_feature(tok, line_no)
            if idx <= prev:
                raise IndexOrderError(
                    line_no, f"index {idx + 1} after {prev + 1}: must be strictly increasing"
                )
            prev = idx
            if idx >= self.limit:
                raise DimensionError(
                    f"line {line_no}: index {idx + 1} exceeds {self.what} {self.limit}")
            if val == 0.0:
                continue
            indices.append(idx)
            values.append(val)
        self.count[2] = max(self.count.item(2), prev + 1)
        self.reserve(1, len(indices))
        end = self.nnz + len(indices)
        self.indices[self.nnz:end], self.values[self.nnz:end] = indices, values
        self.labels[self.rows], self.indptr[self.rows + 1] = y, end
        self.rows, self.nnz = self.rows + 1, end

    def scan(self, lib, block: bytes, pos: int, line_no: int) -> tuple[int, int]:
        """``sl_scan`` over ``block`` from ``pos`` into the room left: where it
        stopped, and the line number reached."""
        rows, nnz = self.rows, self.nnz
        self.count[:2] = self.labels.size - rows, self.values.size - nnz
        # indices the scanner accepts stay below 10**18 < MAX_DIM, so the clamp changes nothing
        stop = lib.sl_scan(block, pos, len(block), self.require_labels, min(self.limit, MAX_DIM),
                           nnz, self.indptr[rows + 1:], self.labels[rows:], self.indices[nnz:],
                           self.values[nnz:], self.count)
        read, kept, _ = self.count.tolist()
        self.rows, self.nnz = rows + read, nnz + kept
        return stop, line_no + read

    def dataset(self) -> Dataset:
        if not self.rows:
            raise EmptyDatasetError("no data lines found")
        dim = self.dim_override if self.dim_override is not None else self.count.item(2)
        return Dataset(self.indptr[:self.rows + 1], self.indices[:self.nnz],
                       self.values[:self.nnz], self.labels[:self.rows], dim)


class _ScoredRows(_Rows):
    """CSR rows scored under a model a block at a time: before each block's
    lines are read (``flush``), the rows of the block before are scored into
    the m-long ``p`` and their labels kept in ``y``, and the CSR arrays are
    emptied but keep their room (sized as the module docstring says), so they
    stay about the size of a block."""

    def __init__(self, model: LinearModel, require_labels: bool):
        super().__init__(None, require_labels)
        self.score = Scorer(model)  # the directory, built once for every block
        self.p, self.y, self.m = np.empty(0), np.empty(0), 0

    def flush(self) -> None:
        """Score the rows read since the last flush, and empty the CSR arrays."""
        m, rows, nnz = self.m, self.rows, self.nnz
        self.p = _grown(self.p, m, m + rows)
        self.y = _grown(self.y, m, m + rows)
        self.score(self.indptr[:rows + 1], self.indices[:nnz], self.values[:nnz],
                   self.p[m:m + rows])
        self.y[m:m + rows] = self.labels[:rows]
        self.m, self.rows, self.nnz = m + rows, 0, 0


def parse_libsvm(
    lines: Iterable[str],
    dim_override: int | None = None,
    require_labels: bool = True,
) -> Dataset:
    """Parse a LIBSVM text stream into a Dataset.

    ``dim_override`` fixes the dimension (indices at or beyond it are an
    error); otherwise the dimension is the largest index read, 1-based, that
    of a ``:0`` value too, so that it is one ``dim_override`` accepts; an index
    beyond ``sparse_core.MAX_DIM``, past which no dense weight vector could
    be described, is an error naming its line.  With
    ``require_labels=False`` a line whose first token contains ':' is
    treated as all features with a placeholder label of 0 (prediction
    inputs).
    """
    rows = _Rows(dim_override, require_labels)
    for line_no, raw in enumerate(lines, start=1):
        rows.add_line(raw, line_no)
    return rows.dataset()


def _count(fh: IO[bytes]) -> tuple[int, int]:
    """The lines and the ':' bytes of the regular file ``fh``, read ``CHUNK``
    bytes at a time into one buffer; ``fh`` is then back at its start."""
    buf, lines, colons, last = bytearray(CHUNK), 0, 0, ord("\n")
    view = np.frombuffer(buf, np.uint8)  # holds buf's export: it cannot be resized or moved
    while n := fh.readinto(buf):
        lines += np.count_nonzero(view[:n] == ord("\n"))
        colons += np.count_nonzero(view[:n] == ord(":"))
        last = buf[n - 1]
    fh.seek(0)
    return lines + (last != ord("\n")), colons  # a last line may lack its line break


def _read_lines(path: str, reader, error, each_block=None) -> None:
    """Feed the text file at ``path`` to ``reader``, read and sized as the
    module docstring says: without ``each_block``, a regular file is counted
    first (``reader.reserve(lines, colons)``); ``each_block()``, where given,
    is called before each block's lines are read.  Where the kernel loads,
    ``reader.scan(lib, block, pos, line_no)`` reads lines from ``pos`` until
    one does not fit it and returns where it stopped and the last line number
    it read.  Each line it stops at (each line, without the kernel) goes to
    ``reader.add_line(text, line_no)``, and scanning resumes after it.  Bytes
    that are not UTF-8 raise ``error(line_no, message)``."""
    from . import _kernel  # here, so that importing sparselin does not import it

    lib, line_no = _kernel.load(), 0
    with open(path, "rb") as fh:
        if each_block is None and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            reader.reserve(*_count(fh))  # a pipe cannot be read twice
        while block := fh.read(CHUNK):
            if not block.endswith(b"\n"):
                block += fh.readline()  # the rest of the last line
            if each_block is not None:
                each_block()
            pos = 0
            while pos < len(block):
                if lib is not None:
                    pos, line_no = reader.scan(lib, block, pos, line_no)
                    if pos == len(block):
                        break
                end = block.find(b"\n", pos) + 1 or len(block)
                lines = block[pos:end].replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
                if not lines[-1]:
                    lines.pop()  # what followed the last line break
                for line in lines:
                    line_no += 1
                    try:
                        text = line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise error(line_no, f"not valid UTF-8 ({exc.reason})") from None
                    reader.add_line(text, line_no)
                pos = end


def write_libsvm(data: Dataset, stream: IO[str]) -> None:
    """Inverse of parse_libsvm (indices back to 1-based)."""
    for i, y in enumerate(data.labels.tolist()):
        x = data.row(i)
        feats = (f" {j + 1}:{fmt_float(v)}" for j, v in zip(x.indices.tolist(), x.values.tolist()))
        stream.write(fmt_float(y) + "".join(feats) + "\n")


def load_dataset(
    path: str, dim_override: int | None = None, require_labels: bool = True
) -> Dataset:
    """``parse_libsvm`` of the file at ``path``, compiled where the kernel loads."""
    rows = _Rows(dim_override, require_labels)
    _read_lines(path, rows, ParseError)
    return rows.dataset()


def load_scores(path: str, model: LinearModel,
                require_labels: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """``scores(model, data)`` and ``data.labels`` for ``data =
    load_dataset(path, require_labels=require_labels)``, bit for bit, with
    the labels checked for the model's loss (``validate_labels``) where they
    are required; the errors come in the same order (a parse error anywhere
    in the file, then a bad label, then a score that is not finite).  No
    ``Dataset`` is built: the file is read once, as the module docstring
    says, and scored a block at a time (``_ScoredRows``)."""
    rows = _ScoredRows(model, require_labels)
    _read_lines(path, rows, ParseError, rows.flush)
    rows.flush()
    if not rows.m:
        raise EmptyDatasetError("no data lines found")
    p, y = rows.p[:rows.m], rows.y[:rows.m]
    if require_labels:
        check_labels(y, model.loss)
    return finite_scores(p), y


def write_floats(x: np.ndarray, stream: IO[str], feats: np.ndarray | None = None) -> None:
    """The finite float64 array ``x`` as lines of text: with ``feats``,
    ``<feats[i]>:<float>`` for each nonzero x[i] (a model's weight lines),
    else ``<float>`` for every x[i]; each float as ``fmt_float`` writes it.
    Compiled where the kernel loads: ``sl_format`` fills one reused buffer of
    ``CHUNK`` bytes, which goes to ``stream`` as text.  Without it, weight
    lines go ``CHUNK // LINE_MAX`` at a time, so ``CHUNK`` bounds each write
    of them either way."""
    from . import _kernel  # here, so that importing sparselin does not import it

    lib, size = _kernel.load(), max(CHUNK, LINE_MAX)
    if lib is None:
        if feats is None:
            stream.writelines(fmt_float(v) + "\n" for v in x.tolist())
            return
        nonzero, lines = np.flatnonzero(x), size // LINE_MAX
        for lo in range(0, nonzero.size, lines):
            at = nonzero[lo:lo + lines]
            stream.write("".join(f"{i}:{fmt_float(v)}\n"
                                 for i, v in zip(feats[at].tolist(), x[at].tolist())))
        return
    x = np.ascontiguousarray(x, dtype=np.float64)
    if feats is not None:
        feats = np.ascontiguousarray(feats, dtype=np.int64)
    buf, stop = bytearray(size), np.zeros(1, np.int64)
    view = np.frombuffer(buf, np.uint8)  # holds buf's export: it cannot be resized or moved
    while stop[0] < x.size:
        n = lib.sl_format(x, feats, int(stop[0]), x.size, view, len(buf), stop)
        stream.write(buf[:n].decode("ascii"))


def write_model(model: LinearModel, stream: IO[str]) -> None:
    _check_finite(model)
    _write_model(model, stream)


def _check_finite(model: LinearModel) -> None:
    # min and max carry a nan or an infinity, without a temporary; initial covers no weights
    if not all(map(math.isfinite, (model.b, np.min(model.weights, initial=0.0),
                                   np.max(model.weights, initial=0.0)))):
        raise FormatError("model contains non-finite values")


def _write_model(model: LinearModel, stream: IO[str]) -> None:
    stream.write(MODEL_MAGIC + "\n")
    stream.write(f"loss {model.loss.value}\n")
    stream.write(f"dim {model.dim}\n")
    stream.write(f"bias {fmt_float(model.b)}\n")
    write_floats(model.weights, stream, model.feats)


def _header_value(line: str, key: str, parse):
    """``parse`` applied to the value of a ``<key> <value>`` line; None if the
    line is not one or the value does not parse."""
    if not line.startswith(key + " "):
        return None
    try:
        return parse(line[len(key) + 1:])
    except ValueError:
        return None


class _ModelReader:
    """A model file read one line at a time (``add_line``); once the header
    is read, weight lines also a block at a time by the compiled scanner
    (``scan``).  Each weight goes, with its index, into arrays with room for
    more, which ``reserve`` sizes from a file's count."""

    HEADER = ("header", "loss", "dim", "bias")

    def __init__(self):
        self.header: list = []  # magic, loss, dim and bias, as far as read
        self.feats, self.weights = np.empty(0, np.int64), np.empty(0)
        self.n = 0  # the weights read
        self.prev = -1
        self.state = np.zeros(2, np.int64)  # sl_weights' last index and room, then lines read

    def reserve(self, lines: int, colons: int) -> None:
        """Room for ``colons`` more weights: a weight line holds one ':', a header
        line none."""
        self.feats = _grown(self.feats, self.n, self.n + colons)
        self.weights = _grown(self.weights, self.n, self.n + colons)

    def add_line(self, line: str, line_no: int) -> None:
        n = len(self.header)
        if n == len(self.HEADER):
            self._weight(line, line_no)
            return
        if n == 0:
            if line != MODEL_MAGIC:
                raise FormatError(f"unknown model version {line!r}", line_no)
            value = line
        elif n == 1:
            if not line.startswith("loss "):
                raise FormatError(f"expected 'loss <name>', got {line!r}", line_no)
            try:
                value = LossKind(line[5:])
            except ValueError:
                raise FormatError(f"unknown loss {line[5:]!r}", line_no) from None
        elif n == 2:
            value = _header_value(line, "dim", int)
            if value is None or not 0 <= value <= MAX_DIM:
                raise FormatError(f"expected 'dim <n>', got {line!r}", line_no)
        else:
            value = _header_value(line, "bias", float)
            if value is None:
                raise FormatError(f"expected 'bias <float>', got {line!r}", line_no)
            if not math.isfinite(value):
                raise FormatError("bias is not finite", line_no)
        self.header.append(value)

    def _weight(self, line: str, line_no: int) -> None:
        idx_s, _, val_s = line.partition(":")
        try:  # without a ':', val_s is empty and fails to parse
            idx, val = int(idx_s), float(val_s)
        except ValueError:
            raise FormatError(f"expected '<idx>:<float>', got {line!r}", line_no) from None
        if idx <= self.prev:
            raise FormatError(f"weight index {idx} out of order", line_no)
        dim = self.header[2]
        if not 0 <= idx < dim:
            raise FormatError(f"weight index {idx} outside [0, {dim})", line_no)
        if not math.isfinite(val):
            raise FormatError(f"weight {idx} is not finite", line_no)
        self.prev = idx
        self.reserve(1, 1)
        self.feats[self.n], self.weights[self.n] = idx, val
        self.n += 1

    def scan(self, lib, block: bytes, pos: int, line_no: int) -> tuple[int, int]:
        """``sl_weights`` over ``block`` from ``pos``: where it stopped, and the line
        number reached."""
        if len(self.header) < len(self.HEADER):  # the header is read line by line
            return pos, line_no
        self.state[:] = self.prev, self.feats.size - self.n
        stop = lib.sl_weights(block, pos, len(block), self.header[2], self.feats[self.n:],
                              self.weights[self.n:], self.state)
        self.prev, lines = self.state.tolist()
        self.n += lines
        return stop, line_no + lines

    def model(self) -> LinearModel:
        if len(self.header) < len(self.HEADER):
            raise FormatError(
                f"unexpected end of model file, expected {self.HEADER[len(self.header)]}")
        _, loss, dim, bias = self.header
        return LinearModel(self.feats[:self.n], self.weights[:self.n], bias, loss, dim)


def read_model(stream: Iterable[str]) -> LinearModel:
    reader = _ModelReader()
    for line_no, raw in enumerate(stream, start=1):
        reader.add_line(raw.rstrip("\r\n"), line_no)
    return reader.model()


def load_model(path: str) -> LinearModel:
    """``read_model`` of the file at ``path``, compiled where the kernel loads."""
    reader = _ModelReader()
    _read_lines(path, reader, lambda line_no, message: FormatError(message, line_no))
    return reader.model()


def save_model(model: LinearModel, path: str) -> None:
    """``write_model`` to the file at ``path``, which is replaced whole or left as
    it was: a model that is not finite creates nothing, and the lines go to a
    new file beside the target (a symbolic link's), renamed over it once
    written, with the mode ``open`` would give it.  A device or a pipe is
    written to directly."""
    _check_finite(model)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            return _write_model(model, fh)
    path = os.path.realpath(path)
    tmp = f"{path}.{os.urandom(6).hex()}"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies, as in open
    except OSError as exc:  # named by the model's path, as open would name it
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        if os.path.exists(path):  # open keeps an existing file's mode
            os.chmod(fd, os.stat(path).st_mode & 0o7777)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            _write_model(model, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
