"""Small file-system helpers shared by the exporters and the CLI.

Every output is written to a temporary file in its own directory and
renamed into place, so readers never observe a partially written file.
The temporary file is created as a plain ``open`` creates a file, so the
output gets the same mode.
CSV files are streamed: no file's whole text is held in memory.  A CSV
cell holds the bytes of Python's ``"%.17g" % x``; numpy lays them out
(``_cells``), and Python formats only the rare cells that routine
cannot settle.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
from pathlib import Path

import numpy as np

__all__ = ["write_text_atomic", "write_csv_atomic"]

# Rows formatted and written at a time.  Writing verify's two files at
# 12 001 nodes, chunks of 1024 rows peak at about 560 kB of allocations;
# 512 rows save 150 kB but take about 10% longer, and 2048 rows double
# the peak and run no faster.
_CSV_CHUNK = 1024


@contextlib.contextmanager
def _atomic_files(paths):
    """Yield one text handle per path, open on a new file beside it,
    named ``<name>.<random hex>`` and created with mode 0o666 as a plain
    ``open`` creates it, so that the umask (and a default ACL) applies.
    On success each file is renamed onto its path; on failure every
    temporary file is removed."""
    handles, names = [], []
    try:
        for path in paths:
            name = f"{path}.{os.urandom(8).hex()}"
            fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            names.append(name)
            handles.append(os.fdopen(fd, "w"))
        yield handles
        for handle in handles:
            handle.close()
        for name, path in zip(names, paths):
            os.replace(name, path)
    except BaseException:
        for handle in handles:
            with contextlib.suppress(OSError):
                handle.close()
        for name in names:
            with contextlib.suppress(OSError):
                os.unlink(name)  # already gone once renamed
        raise


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically."""
    with _atomic_files([path]) as (handle,):
        handle.write(text)


def write_csv_atomic(columns, targets) -> None:
    """Write one or more CSV files atomically in one pass over shared
    float ``columns``.

    Each target is ``(path, header, width, rows, trailer)``: its file
    holds the ``header`` line, then ``rows`` rows of the first ``width``
    columns, each cell as ``"%.17g"`` writes it (17 significant digits,
    a binary64 round trip), then the ``trailer`` lines.  Each chunk of
    rows is formatted once, in the columns that a target still writing
    rows prints, and written to every such target before the next chunk
    is formatted.  A column shorter than the chunk is formatted only as
    far as it reaches.
    """
    with _atomic_files([path for path, *_ in targets]) as handles:
        for (_, header, *_), handle in zip(targets, handles):
            handle.write(header + "\n")
        for start in range(0, max(rows for *_, rows, _ in targets), _CSV_CHUNK):
            live = [(handle, width, rows - start)
                    for (_, _, width, rows, _), handle in zip(targets, handles) if rows > start]
            segments = [column[start : start + _CSV_CHUNK]
                        for column in columns[: max(width for _, width, _ in live)]]
            _write_rows(segments, live)
        for (*_, trailer), handle in zip(targets, handles):
            handle.write("".join(line + "\n" for line in trailer))


def _write_rows(segments, live):
    """Format the columns ``segments`` of one chunk, and write the first
    ``count`` rows of the first ``width`` of them to each live target."""
    block = np.zeros((max(map(len, segments)), len(segments)))
    for j, segment in enumerate(segments):
        block[: len(segment), j] = segment
    cells, ends = _cells(block.ravel())
    cells, ends = cells.reshape(block.shape + (-1,)), ends.reshape(block.shape)
    for handle, width, count in live:
        handle.write(_rows_text(cells, ends, min(count, len(block)), width))


def _rows_text(cells, ends, count, width):
    """The CSV lines of the first ``count`` rows of the first ``width``
    columns of ``cells``, a (rows, columns, _CELL) array of ``_cells``
    with its separator positions ``ends``."""
    rows = np.arange(count)
    last = (rows, width - 1, ends[rows, width - 1])
    cells[last] = ord("\n")
    text = cells[:count, :width].tobytes().translate(None, b"\0").decode()
    cells[last] = ord(",")
    return text


# ---------------------------------------------------------------------------
# "%.17g" in numpy
# ---------------------------------------------------------------------------
#
# For 1e-288 <= |x| <= 1e288 with decimal exponent E, the 17 digits are
# V = |x| * 10^(16 - E) rounded half-even to an integer D.  V is formed
# as a double-double hi + lo, to about 1e-14: Dekker's exact product of
# |x| with the double nearest 10^k, plus |x| times that double's
# residual.  hi is then an even integer, so hi + rint(lo) is V rounded
# half-even.  A cell whose V lies within 1e-7 of a rounding boundary goes
# to Python, and so does every cell outside the range except +-0.0.
#
# A cell's text is gathered byte by byte from a source row of _ROW bytes,
#
#     0 separator, 1 NUL, 2 "0", 3..19 the digits of D,
#     20 "0", 21..23 the digits of |E|, 24..27 "-.e+",
#
# along a template chosen by (sign, E form, significant digits): fixed
# notation for -4 <= E < 17, else exponent notation with two or three
# exponent digits; trailing zeros stripped, and a bare point too.  The
# template ends at the separator, padded with NUL, which the writer
# deletes.
#
# The first run of each numpy loop maps about 64 kB of numpy's code into
# the process, so the routine runs few distinct ones.  E is a float, first
# estimated from the bits of |x| rather than by log10; masks are tested
# with np.count_nonzero, not .any(); the digit table is laid out by
# broadcast copies, not integer arithmetic.  Together that keeps about
# 420 kB out of the blow-up benchmark's process.

_LOW, _HIGH = 1e-288, 1e288
# 10^k for k = 16 - E: E stays within one of floor(log10|x|).
_K0, _K1 = -274, 307
_GATHER = 512  # cells gathered at a time
_ROW = 28
_CELL = 25  # the longest text, "-4.9406564584124654e-324", and a separator
_SEP, _NUL, _ZERO, _DIGIT, _EXPONENT, _MINUS, _POINT, _E, _PLUS = 0, 1, 2, 3, 21, 24, 25, 26, 27
_FORMS = 25  # E = -4 ... 16 fixed, then E >= 0 or < 0 with 2 or 3 exponent digits
_ZERO_CODE = 2 * _FORMS * 17  # the codes of +0.0 and -0.0


class _LazyRows:
    """A table whose row ``key`` is ``row(key)``, built the first time a
    call meets ``key``.  A row depends on its key alone, so every caller
    may share the table."""

    def __init__(self, size, width, dtype, row):
        self.values = np.zeros((size, width), dtype)
        self.built = np.zeros(size, bool)
        self.row = row

    def __call__(self, keys):
        """The table, with the rows of ``keys`` built."""
        new = ~self.built.take(keys)
        if np.count_nonzero(new):
            for key in dict.fromkeys(keys[new].tolist()):
                self.values[key] = self.row(key)
                self.built[key] = True
        return self.values


def _power_row(index):
    """The double nearest 10^k for k = index + _K0, its Dekker split and
    the double nearest its residual, from Python ints: their conversion
    and true division round correctly."""
    k = index + _K0
    if k >= 0:
        exact = 10**k
        near = float(exact)
        residual = float(exact - int(near))
    else:
        exact = 10**-k
        near = 1 / exact
        num, den = near.as_integer_ratio()
        residual = (den - num * exact) / (den * exact)
    # Split the mantissa, which 2^27 + 1 cannot overflow.
    mantissa, exponent = math.frexp(near)
    big = mantissa * 134217729.0
    head = math.ldexp(big - (big - mantissa), exponent)
    return near, head, near - head, residual


def _template_row(code):
    """The source bytes of the text of ``code``, then the separator, NUL
    padding and the text's length."""
    if code >= _ZERO_CODE:
        text = [_MINUS] * (code - _ZERO_CODE) + [_ZERO]
    else:
        negative, rest = divmod(code, _FORMS * 17)
        form, digits = divmod(rest, 17)
        digits = [_DIGIT + i for i in range(digits + 1)]
        text = [_MINUS] * negative
        if form <= 20:
            e = form - 4
            if e < 0:
                text += [_ZERO, _POINT] + [_ZERO] * (-e - 1) + digits
            else:
                text += [_DIGIT + i for i in range(e + 1)]
                if len(digits) > e + 1:
                    text += [_POINT] + digits[e + 1 :]
        else:
            form -= 21
            text += digits[:1] + ([_POINT] + digits[1:] if len(digits) > 1 else [])
            text += [_E, _MINUS if form >= 2 else _PLUS]
            text += [_EXPONENT + i for i in range(1 - form % 2, 3)]
    return text + [_SEP] + [_NUL] * (_CELL - 1 - len(text)) + [len(text)]


@functools.cache
def _tables():
    """The tables of ``_cells``, built at the first write: four ASCII
    digits per int below 10^4, the first word of a source row per
    leading digit, and the power and template rows, filled as met."""
    numerals = np.arange(48, 58, dtype=np.uint8)
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        digits[..., j] = numerals.reshape((1,) * j + (10,) + (1,) * (3 - j))
    first = np.array([[ord(","), 0, ord("0"), ord("0") + d] for d in range(10)], np.uint8)
    return (
        digits.view(np.uint32).ravel(),
        first.view(np.uint32).ravel(),
        np.frombuffer(b"-.e+", np.uint32)[0],
        _LazyRows(_K1 - _K0 + 1, 4, np.float64, _power_row),
        _LazyRows(_ZERO_CODE + 2, _CELL + 1, np.uint8, _template_row),
    )


def _scaled(powers, a, e):
    """a * 10^(16 - e) as hi + lo, with |lo| at most half an ulp of hi."""
    k = (16.0 - _K0 - e).astype(np.intp)
    near, head, tail, residual = powers(k).take(k, axis=0).T
    hi = a * near
    big = a * 134217729.0
    a_head = big - (big - a)
    a_tail = a - a_head
    lo = ((a_head * head - hi) + a_head * tail + a_tail * head) + a_tail * tail + a * residual
    total = hi + lo
    lo -= total - hi
    return total, lo


def _decimal(a, powers):
    """(D, E, slow) for each ``a`` = |x|, which it overwrites: |x| =
    D * 10^(E - 16) to 17 digits, rounded half-even.  ``slow`` marks the
    cells left to Python, among them all out of range; their D is 10^16."""
    fast = (a >= _LOW) & (a <= _HIGH)
    a[~fast] = 1.0
    # E to within one from the bits of |x|: exponent plus mantissa
    # fraction is log2|x| less 0 ... 0.087, so this log10|x| errs by 0.013.
    e = np.floor((a.view(np.int64) * 2.0**-52 - 1023.0) * 0.30102999566398120 + 0.013)
    hi, lo = _scaled(powers, a, e)
    # Move E until 10^16 - 1/20 <= V < 10^17 - 1/2, the V that round to
    # 17 digits at E.  The estimate misses E by one at most; a V that
    # swings back lies within 1e-14 of a boundary, and is slow.  At the
    # upper boundary V is a tie of rint; no double comes within 1e-4 of
    # the lower (test_no_double_lies_near_the_lower_digit_boundary).
    for moves in range(3):
        up = (hi > 1e17) | ((hi == 1e17) & (lo >= -0.5))
        down = (hi < 1e16) | ((hi == 1e16) & (lo < -0.05))
        out = up | down
        if moves == 2 or not np.count_nonzero(out):
            break
        e[up] += 1.0
        e[down] -= 1.0
        hi[out], lo[out] = _scaled(powers, a[out], e[out])
    slow = ~fast | out | (np.abs(lo - np.floor(lo) - 0.5) < 1e-7)
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    d[slow] = 10**16
    return d, e, slow


def _source(d, e, digits, first, marks):
    """The source rows of ``_cells``, flat, for digits ``d`` and
    exponents ``e``."""
    source = np.empty((len(d), _ROW // 4), np.uint32)
    lead, d = np.divmod(d, 10**16)
    source[:, 0] = first.take(lead)
    for word, unit in enumerate((10**12, 10**8, 10**4), 1):
        group, d = np.divmod(d, unit)
        source[:, word] = digits.take(group)
    source[:, 4] = digits.take(d)
    source[:, 5] = digits.take(np.abs(e).astype(np.intp))
    source[:, 6] = marks
    return source.view(np.uint8).ravel()


def _cells(x):
    """The ``"%.17g"`` text of each float of ``x``, a separator ``,``
    after it and NUL padding, as an (n, _CELL) uint8 array, and the
    position of each separator."""
    digits, first, marks, powers, templates = _tables()
    n = len(x)
    d, e, slow = _decimal(np.abs(x), powers)
    source = _source(d, e, digits, first, marks)
    trailing = source.reshape(n, _ROW)[:, _DIGIT + 16 : _DIGIT - 1 : -1] == ord("0")
    significant = 17 - trailing.argmin(axis=1)
    exponent_form = np.where(e < 0, 23.0, 21.0) + (np.abs(e) >= 100)
    form = np.where((e >= -4) & (e <= 16), e + 4.0, exponent_form)
    negative = np.signbit(x)
    code = (np.where(negative, _FORMS * 17.0, 0.0) + form * 17 + significant - 1).astype(np.intp)
    zero = x == 0
    code[zero] = _ZERO_CODE + negative[zero]
    del d, e, trailing, significant, exponent_form, form, negative  # before the gather's peak
    table = templates(code)
    ends = table[:, _CELL].take(code)
    # An index takes 8 bytes per byte gathered: one slice of cells at a time.
    cells = np.empty((n, _CELL), np.uint8)
    index = np.empty((min(n, _GATHER), _CELL), np.intp)
    offsets = np.arange(0, _ROW * len(index), _ROW)[:, None]
    for start in range(0, n, _GATHER):
        part = index[: n - start]
        rows = table.take(code[start : start + len(part)], axis=0)
        np.add(rows[:, :_CELL], offsets[: len(part)], out=part)
        source[_ROW * start :].take(part, out=cells[start : start + len(part)], mode="clip")

    slow &= ~zero
    if np.count_nonzero(slow):
        which = np.flatnonzero(slow)
        texts = ["%.17g," % v for v in x[which].tolist()]
        cells[which] = np.array(texts, f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
        ends[which] = [len(text) - 1 for text in texts]
    return cells, ends
