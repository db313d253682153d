"""Block-wise parsing and formatting of numeric CSV bodies.

The series, stream, spike-train and network-trace files hold up to millions
of numeric rows. Handling them one Python call per row made file I/O the
bulk of a command's run time, so their readers and writers go through the
functions here, which stand in exactly for the per-row code.

Parsing: ``row_blocks`` takes a file's header, checked first, and its
body, in one pass of 64 KiB chunks of lines (``str.splitlines``'s lines,
so a break such as ``\x0c`` or ``\u2028`` splits them). A chunk's ``#``
lines go to the format's hook, and each run of rows between them, past its
leading blank lines, to one ``np.loadtxt`` call, which converts fields with
the same ``PyOS_string_to_double`` as ``float``. A run it does not take
(not ``width`` numbers, ``1_0``, a blank line of spaces), or in a chunk
holding ``\x1f`` (white space ``np.loadtxt`` strips from a field and
``float`` does not), goes through the line loop ``_parse_lines``, which
accepts what ``float`` accepts and alone raises a ParseError, naming the
first bad line as ``str.splitlines`` numbers the whole text (a ``#`` line
is one in a stream, which has no hook). It yields each block of rows as it
is parsed, for a reader that holds no more than a chunk; ``read_table``
puts them into one buffer sized from the file's size, so each is held once.

Formatting: ``write_rows`` (and ``write_long_rows`` for the time-major
trace files) writes ``BLOCK_ROWS`` rows at a time with array arithmetic to
a file opened in binary mode, and the bytes equal those of ``row_format %
row`` per row (``%.9g`` and ``f"{x:.9g}"`` share one formatter). Each
``%.Pg`` field is made in three steps.

- Digits. ``e = floor(log10|x|)`` and ``m = |x| * 10**(P-1-e)``, where the
  power is ``float(10**k)`` (exact for |k| <= 22, correctly rounded beyond)
  and is applied as a multiplication for k >= 0 and a division for k < 0.
  ``q = rint(m)`` holds the P digits. Where ``m`` falls below 10**(P-1)
  or ``q`` reaches 10**P (``log10`` one off near a power of ten, or the
  carry of ``9...9.5`` and up), ``e`` is moved by one and ``m``
  recomputed; a ``q`` still outside [10**(P-1), 10**P) goes to ``%``.
  ``%g`` then uses fixed notation for -4 <= e < P and otherwise
  ``d.ddde±XX``, dropping trailing zeros.
- Exactness. ``m`` is off from the exact ``|x| * 10**(P-1-e)`` by at most
  two roundings, less than 2.3e-16 * 10**P: 2.3e-7 for P = 9, 2.3e-4 for
  P = 12. ``rint(m)`` can differ from printf's correctly rounded digits
  only if a half-integer lies between ``m`` and the exact value, so every
  value whose ``m`` (on either pass) has a fraction within
  ``10**(P-15)`` of 0.5 (1e-6 at P = 9, 1e-3 at P = 12; more than four
  times the error) is formatted by ``%`` instead, one value at a time. So
  are inf, NaN, and |x| outside [1e-280, 1e280], where the scaling could
  leave the normal range (subnormals included). Zero is not a fallback:
  ``q = 0``, ``e = 0`` gives ``0``, with ``-`` from ``signbit``. Of values
  with random low digits about one in 500,000 falls back at P = 9 and one
  in 500 at P = 12; integers never do.
- Layout. Every ``%.Pg`` value fits the slots ``- | 0 . 0 0 0 | D0 . D1 .
  ... D(P-1) | e ± E E E``: the sign, the ``0.000`` prefix of fixed
  notation with e < 0, P digits each followed by a decimal point slot, and
  the exponent. A field's block is one uint8 matrix of slots by rows; each
  slot row is its character times a row mask (``np.multiply(mask, char,
  out=row)``) and digits come from 100000 x 5 and 10000 x 4 ASCII tables
  gathered with ``take(axis=1)``. Only the slots some row of the block
  uses get a matrix row. A fallback string is laid into the first slots of
  its field, which widen when it is longer than the block's live slots
  (``nan`` among small integers). Separators are constant rows. The
  fields' slots are laid row by row with one transposing copy and their
  NUL bytes dropped in one ``bytes.translate`` pass, which leaves the
  rows' ASCII bytes in order, written with no decode and re-encode; both
  go ``_WRITE_ROWS`` rows at a time.

The writers' fields are ``%.9g`` and ``%.12g``, and anything else is a
ValueError. Integer columns (neuron indices, 0/1 codes) are ``%.12g``
fields, which print every integer below 10**12 in size as ``%d`` does.
"""

import functools
import itertools
import os
import re

import numpy as np

from . import _inputs
from .errors import ParseError

#: Rows formatted per block: large enough to amortise the per-slot array
#: calls, small enough that a block's arrays (under 100 bytes a row at
#: their peak) stay under two megabytes. A block only splits the same
#: arithmetic, so the bytes do not depend on its size.
BLOCK_ROWS = 16384
#: Rows of a block laid out and written at a time: a few hundred kilobytes.
_WRITE_ROWS = 4096
#: Characters read per body chunk: the chunk's line strings stay well
#: under a megabyte however long the file.
_READ_CHUNK = 1 << 16

_FIELD = re.compile(r"%\.(9|12)g")
#: The P digits are taken from the digit tables in chunks of these widths.
_CHUNK_WIDTHS = {9: (5, 4), 12: (4, 4, 4)}
#: ``e`` range covered by the scale tables; |x| in [1e-280, 1e280] needs
#: -282 <= e <= 281 and 10**(P-1-e) stays a normal float for P <= 12.
_E_SPAN = 290
_CHARS = {c: np.uint8(ord(c)) for c in "-0.e+"}


def _read_text(fh):
    """An open text file in pieces of about ``_READ_CHUNK`` characters, each
    cut after its last newline, so that ``str.splitlines`` splits the pieces
    as it splits the whole text."""
    pending = ""
    while True:
        chunk = fh.read(_READ_CHUNK)
        text = pending + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        yield text[:cut]
        pending = text[cut:]
        if not chunk:
            return


def row_line(path, row):
    """The line number of data row ``row`` (from 0) of a CSV file whose header
    and rows are its lines that are neither blank nor ``#`` lines (a stream
    has none: its reader rejects them). The file is read again, so only an
    error message should ask."""
    with _inputs.open_text(path) as fh:
        lines = (line for text in _read_text(fh) for line in text.splitlines())
        held = (number for number, text in enumerate(lines, start=1)
                if text.strip() and not text.lstrip().startswith("#"))
        return next(itertools.islice(held, row + 1, None))


def _parse_lines(lines, width, line):
    """The rows of ``lines``, the first of which is the file's line ``line``:
    blank lines skipped, the rest stripped and split at commas. A line that
    is not ``width`` numbers ``float`` accepts (a ``#`` line too) is a
    ParseError naming it."""
    rows = []
    for number, text in enumerate(lines, start=line):
        text = text.strip()
        if not text:
            continue
        fields = text.split(",")
        if len(fields) != width:
            raise ParseError(f"expected {width} fields, got {len(fields)}", line=number)
        try:
            rows.append([float(field) for field in fields])
        except ValueError as exc:
            raise ParseError(str(exc), line=number) from None
    return np.array(rows, dtype=np.float64).reshape(-1, width)


def _parse_run(lines, width, line, loadtxt):
    """The rows of ``lines``, the first of which is the file's line ``line``:
    ``np.loadtxt``'s where ``loadtxt`` allows and it takes them, otherwise
    ``_parse_lines``'s, which are the same rows or the error."""
    start = next((i for i, text in enumerate(lines) if text.strip()), len(lines))
    lines = lines[start:]
    if not lines:
        return np.empty((0, width))
    if loadtxt:
        try:
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            rows = None
        if rows is not None and rows.shape[1] == width:
            return rows
    return _parse_lines(lines, width, line + start)


def row_blocks(fh, check_header, comment=None):
    """(block, seen) for each run of rows of an open text CSV file, in order:
    a non-empty (k, width) float64 array, width the header's field count,
    and the characters read up to the end of its chunk. The header is the
    first line that is not blank ("" if there is none), which
    ``check_header(header, line)`` checks before any row is parsed, and a
    bad line is a ParseError naming it. Blank lines are skipped, and with a
    ``comment`` hook so are ``#`` lines, each handed to the hook stripped,
    with its line number, before the rows above it are yielded."""
    header, seen, line = None, 0, 1
    for chunk in _read_text(fh):
        seen += len(chunk)
        lines = chunk.splitlines()
        if header is None:
            skip = next((i for i, text in enumerate(lines) if text.strip()), len(lines))
            line += skip
            if skip == len(lines):
                continue
            header = lines[skip]
            check_header(header, line)
            width = len(header.split(","))
            lines = lines[skip + 1:]
            line += 1
        marks = [] if comment is None or "#" not in chunk else \
            [i for i, text in enumerate(lines) if text.lstrip().startswith("#")]
        start = 0
        for stop in marks + [len(lines)]:
            block = _parse_run(lines[start:stop], width, line + start, "\x1f" not in chunk)
            if stop < len(lines):
                comment(lines[stop].strip(), line + stop)
            start = stop + 1
            if len(block):
                yield block, seen
        line += len(lines)
    if header is None:
        check_header("", line)


def read_table(fh, check_header, comment=None):
    """(header, rows) of an open text CSV file: ``row_blocks``' header and
    blocks, these as one (n, width) float64 array. The buffer is sized from
    the file's size and the rows per character read so far, with 1% slack,
    grown in place if that falls short and trimmed at the end."""
    size = os.fstat(fh.fileno()).st_size
    header = None

    def check(text, line):
        nonlocal header
        check_header(text, line)
        header = text

    rows, n = None, 0
    for block, seen in row_blocks(fh, check, comment):
        if rows is None or n + len(block) > len(rows):
            need = n + len(block)
            capacity = max(int(need * size / seen * 1.01), need + need // 8)
            if n:  # resize zero-fills what it adds; np.empty leaves the slack untouched
                rows.resize((capacity, block.shape[1]), refcheck=False)
            else:
                rows = np.empty((capacity, block.shape[1]))
        rows[n:n + len(block)] = block
        n += len(block)
        del block  # so that the next block is parsed with this one gone
    if rows is None:
        return header, np.empty((0, len(header.split(","))))
    rows.resize((n, rows.shape[1]), refcheck=False)
    return header, rows


@functools.cache
def _digit_table(width):
    """(width, 10**width) ASCII digits of every ``width``-digit number."""
    n = np.arange(10 ** width, dtype=np.int32)
    table = np.empty((width, n.size), np.uint8)
    for j in range(width):
        table[j] = n // 10 ** (width - 1 - j) % 10 + 48
    return table


@functools.cache
def _trailing_zeros(width):
    """Trailing zero digits of every ``width``-digit number (``width`` for 0)."""
    n = np.arange(10 ** width, dtype=np.int32)
    return sum((n % 10 ** j == 0).astype(np.int8) for j in range(1, width + 1))


@functools.cache
def _scales(precision):
    """Multiplier and divisor tables giving m = |x| * 10**(P-1-e), by e + _E_SPAN."""
    k = precision - 1 - np.arange(-_E_SPAN, _E_SPAN + 1)
    mul = np.array([float(10 ** int(i)) if i > 0 else 1.0 for i in k])
    div = np.array([float(10 ** int(-i)) if i < 0 else 1.0 for i in k])
    return mul, div


def _ascii_digit(d):
    return (d + 48).astype(np.uint8)


def _scaled_digits(x, p):
    """The P significant digits ``q`` and decimal exponent ``e`` of each |x|.

    Returns (q, e, bad): ``bad`` indexes the values whose digits are not
    provably printf's (non-finite, outside [1e-280, 1e280], or a rounding
    of ``m`` near a tie on either pass), which go to ``%``. Zeros and bad
    values get ``q = 0``, ``e = 0``, which lays out ``0`` for a zero.
    """
    lo10, hi10 = 10.0 ** (p - 1), 10.0 ** p
    half = 0.5 - 10.0 ** (p - 15)
    mul, div = _scales(p)
    a = np.abs(x)
    ok = (a >= 1e-280) & (a <= 1e280)
    np.copyto(a, 1.0, where=~ok)
    e = np.log10(a)
    np.floor(e, out=e)
    e = e.astype(np.intp)
    e += _E_SPAN
    m = mul.take(e)
    m *= a
    m /= div.take(e)
    q = np.rint(m)
    fix = np.flatnonzero((m < lo10) | (q >= hi10))
    m -= q
    near = np.abs(m, out=m) > half
    del m
    if fix.size:
        ef = e[fix] + np.where(q[fix] >= hi10, 1, -1)
        mf = a[fix] * mul.take(ef) / div.take(ef)
        qf = np.rint(mf)
        near[fix] |= np.abs(mf - qf) > half
        e[fix] = ef
        q[fix] = qf
    e -= _E_SPAN
    valid = ok & ~near & (q >= lo10) & (q < hi10)
    np.copyto(q, 0.0, where=~valid)
    np.copyto(e, 0, where=~valid)
    return q, e, np.flatnonzero(~valid & (x != 0))


def _field_slots(column, p):
    """The slot rows of a column formatted as ``%.Pg``, P = ``p``.

    Returns an (h, n) uint8 array holding, for each of the n values, its
    characters in slot order and NUL in the slots it does not use; h counts
    only the slots some value uses.
    """
    column = np.asarray(column)
    x = column.astype(np.float64, copy=False)
    q, e, bad = _scaled_digits(x, p)

    # Digits, in chunks of at most five, and how many are significant. Below
    # the first split every chunk is < 10**8, so the chunks are int32.
    qi = q.astype(np.int64)
    del q
    widths = _CHUNK_WIDTHS[p]
    chunks = []
    for w in widths[:0:-1]:
        qi, low = np.divmod(qi, 10 ** w)
        chunks.append(low.astype(np.int32, copy=False))
        qi = qi.astype(np.int32, copy=False)
    del low
    chunks.append(qi)
    chunks.reverse()
    tz = _trailing_zeros(widths[-1]).take(chunks[-1])
    below_zero = chunks[-1] == 0
    for c, w in zip(chunks[-2::-1], widths[-2::-1]):
        tz = tz + below_zero * _trailing_zeros(w).take(c)
        below_zero &= c == 0
    nsig = p - tz.astype(np.int16)
    del tz, below_zero

    X = e.astype(np.int16)
    del e
    fixed = (X >= -4) & (X < p)
    upper = fixed & (X >= 0)
    ndig = np.where(upper, np.maximum(nsig, X + 1), nsig)
    dot = np.where(upper & (nsig > X + 1), X, np.where(~fixed & (nsig > 1), 0, -1))
    zeros = np.where(fixed & (X < 0), -X - 1, -1)
    expo = ~fixed
    del nsig, fixed, upper
    neg = np.signbit(x)
    ndig[bad] = 0
    dot[bad] = -1
    zeros[bad] = -1
    expo[bad] = False
    neg[bad] = False

    has_neg = bool(neg.any())
    n_zeros = int(zeros.max(initial=-1))
    n_digits = int(ndig.max(initial=0))
    dots = set(np.flatnonzero(np.bincount(dot + 1, minlength=p + 1)[1:]).tolist())
    has_expo = bool(expo.any())
    has_e3 = has_expo and bool((expo & (np.abs(X) >= 100)).any())
    live = (has_neg + (n_zeros + 2 if n_zeros >= 0 else 0) + n_digits + len(dots)
            + (4 + has_e3 if has_expo else 0))
    fallback = [f"%.{p}g" % v for v in column[bad].tolist()]

    c = _CHARS
    out = np.zeros((max(live, *map(len, fallback), 0), x.size), np.uint8)
    rows = iter(out)
    if has_neg:
        np.multiply(neg, c["-"], out=next(rows))
    if n_zeros >= 0:
        prefix = zeros >= 0
        np.multiply(prefix, c["0"], out=next(rows))
        np.multiply(prefix, c["."], out=next(rows))
        for j in range(n_zeros):
            np.multiply(zeros > j, c["0"], out=next(rows))
    j = 0
    for chunk, w in zip(chunks, widths):
        if j >= n_digits:
            break
        # One digit row at a time (1 byte a value, where a (w, n) take holds
        # w), from the chunk as take's index type, which take would
        # otherwise convert on each call.
        index = chunk.astype(np.intp)
        for table in _digit_table(w):
            if j >= n_digits:
                break
            np.multiply(ndig > j, table.take(index), out=next(rows))
            if j in dots:
                np.multiply(dot == j, c["."], out=next(rows))
            j += 1
        del index
    if has_expo:
        ax = np.abs(X)
        np.multiply(expo, c["e"], out=next(rows))
        np.multiply(expo, np.where(X < 0, c["-"], c["+"]), out=next(rows))
        if has_e3:
            np.multiply(expo & (ax >= 100), _ascii_digit(ax // 100), out=next(rows))
        np.multiply(expo, _ascii_digit(ax // 10 % 10), out=next(rows))
        np.multiply(expo, _ascii_digit(ax % 10), out=next(rows))
    for i, text in zip(bad, fallback):
        out[:len(text), i] = np.frombuffer(text.encode("ascii"), np.uint8)
    return out


def _literal_slots(text, n):
    """Slot rows of a constant text on each of n rows (a broadcast view)."""
    chars = np.frombuffer(text.encode("ascii"), np.uint8)
    return np.broadcast_to(chars[:, None], (chars.size, n))


def _write_block(fh, parts):
    """Write to the binary file ``fh`` the rows whose slot rows are ``parts``,
    (h, n) arrays in order.

    ``_WRITE_ROWS`` rows at a time, the slots are laid row by row into one
    buffer with one transposing copy, and their NUL bytes dropped in one
    ``bytes.translate`` pass whose ASCII bytes are written as they are. So
    a block write holds, besides its slots, three copies of a piece of its
    rows, not of the whole block.
    """
    n = parts[0].shape[1]
    rows = np.empty((min(n, _WRITE_ROWS), sum(len(part) for part in parts)), np.uint8)
    for lo in range(0, n, len(rows)):
        hi = min(lo + len(rows), n)
        r = 0
        for part in parts:
            rows[:hi - lo, r:r + len(part)] = part[:, lo:hi].T
            r += len(part)
        fh.write(rows[:hi - lo].tobytes().translate(None, b"\0"))


def _parse_format(row_format):
    """Split ``row_format`` into its literal texts and field precisions."""
    parts = _FIELD.split(row_format)
    literals = parts[::2]
    if any("%" in text for text in literals):
        raise ValueError(f"unsupported row format {row_format!r}")
    return literals, [int(g) for g in parts[1::2]]


def write_rows(fh, row_format, *columns):
    """Write ``row_format % row`` for each row of the equal-length columns to
    the binary file ``fh``, as ASCII.

    ``row_format`` formats one row, newline included, from ``%.9g`` and
    ``%.12g`` fields; the bytes are those of ``%`` on the row's Python
    floats and ints.
    """
    literals, precisions = _parse_format(row_format)
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0])
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        parts = [_literal_slots(literals[0], hi - lo)]
        for col, precision, text in zip(columns, precisions, literals[1:]):
            parts += [_field_slots(col[lo:hi], precision), _literal_slots(text, hi - lo)]
        _write_block(fh, parts)


def write_long_rows(fh, times, matrix):
    """``time,index,value`` rows, time-major, to the binary file ``fh``:
    ``f"{t:.9g},{i},{x:.9g}\\n"`` for each step's time ``t`` and each row
    ``i`` of ``matrix[:, step]``.

    Each step's time is formatted once and its slots repeated N times, and
    the index column is formatted once for range(N) and tiled. A (steps, N)
    buffer seen through ``.T`` hands over each block as one contiguous slice.
    A matrix with no rows writes nothing.
    """
    n = matrix.shape[0]
    if n == 0:
        return
    index = _field_slots(np.arange(n), 12)
    steps_per_block = max(1, BLOCK_ROWS // n)
    for lo in range(0, len(times), steps_per_block):
        block = slice(lo, lo + steps_per_block)
        steps = len(times[block])
        comma = _literal_slots(",", steps * n)
        _write_block(fh, [np.repeat(_field_slots(times[block], 9), n, axis=1), comma,
                          np.tile(index, steps), comma,
                          _field_slots(matrix[:, block].T.ravel(), 9),
                          _literal_slots("\n", steps * n)])
