"""Block-wise parsing and formatting of numeric CSV bodies.

The series, stream, spike-train and network-trace files hold up to millions
of numeric rows. Handling them one Python call per row made file I/O the
bulk of a command's run time, so their readers and writers go through the
functions here, which stand in exactly for the per-row code.

Parsing: ``read_header`` takes a file's header line and ``read_rows`` its
body. ``np.loadtxt`` converts each field with the same
``PyOS_string_to_double`` as ``float``, and the body goes to it in one of
two ways.

- Whole. A file that is ASCII, breaks lines only at ``\n``, ``\r\n``
  and ``\r`` and holds no ``\x1f`` has the same lines and fields for
  ``np.loadtxt`` as for ``str.splitlines`` and ``float``. Its leading
  blank and metadata lines are read here, and the rest goes to one
  ``np.loadtxt`` call on the file's path, which reads the file in C into
  one growing array: the rows are held once.
- Chunked, where that call is refused: the file holds another byte (a
  character outside ASCII, a byte that is not UTF-8, a line break such as
  ``\x0c`` that ``str.splitlines`` knows and ``np.loadtxt`` strips as white
  space, or ``\x1f``, which ``np.loadtxt`` strips from a field and
  ``float`` does not), a ``#`` past the leading lines (the byte scan that
  checks the file finds it, so the whole call is not tried), or
  ``np.loadtxt`` rejects the body (a blank line of spaces, a bad line).
  The body then goes on from its first row in megabyte chunks of lines, in
  one pass that never returns to an earlier chunk. Each chunk, rid of its
  leading blank and metadata lines, goes to ``np.loadtxt``; a chunk it does
  not take (a line that is not exactly ``width`` numbers, ``1_0``, a series
  metadata line) or that holds ``\x1f`` goes, on its own, through the line
  loop ``_parse_lines``. That loop skips blank lines, hands ``#`` lines to
  the format's hook if it has one (a stream has none, so ``#`` is an error
  there), accepts what ``float`` accepts and raises a ParseError naming the
  first bad line, numbered file-wide as ``str.splitlines`` numbers the
  whole text. Only this path names a bad line: the whole path gives way to
  it on any error.

Formatting: ``write_rows`` (and ``write_long_rows`` for the time-major
trace files) writes ``BLOCK_ROWS`` rows at a time with array arithmetic, and
the bytes equal those of ``row_format % row`` per row (``%.9g`` and
``f"{x:.9g}"`` share one formatter). Each ``%.Pg`` field is made in three
steps.

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
  rows' text in order.

The writers use three row formats, ``%.12g,%.9g``, ``%.9g,%.9g`` and
``%d,%.9g``, and the long rows; so fields are ``%.9g``, ``%.12g`` or
``%d`` of an integer array, and anything else is a ValueError. A ``%d``
field is a ``%.12g`` field: for an integer below 10**12 in size the two
print the same digits, and a larger one goes to ``%d`` on its own.
"""

import functools
import re

import numpy as np

from .errors import ParseError

#: Rows formatted per block: large enough to amortise the per-slot array
#: calls, small enough that a block's arrays (under 100 bytes a row at
#: their peak) stay a few megabytes.
BLOCK_ROWS = 65536
#: Characters read per body chunk: the chunk's line strings stay a few
#: megabytes however long the file.
_READ_CHUNK = 1 << 20

_FIELD = re.compile(r"%(?:\.(9|12)g|d)")
#: The P digits are taken from the digit tables in chunks of these widths.
_CHUNK_WIDTHS = {9: (5, 4), 12: (4, 4, 4)}
#: ``e`` range covered by the scale tables; |x| in [1e-280, 1e280] needs
#: -282 <= e <= 281 and 10**(P-1-e) stays a normal float for P <= 12.
_E_SPAN = 290
_CHARS = {c: np.uint8(ord(c)) for c in "-0.e+"}


def read_header(fh, skip_blank=False):
    """(header, rest, line, read): the first line of an open text file (with
    ``skip_blank``, the first that is not blank; "" if there is none), the
    text read past it, the number of the line after it, and the number of
    characters read."""
    text, line, read = "", 1, 0
    while True:
        if not text:
            text = fh.readline()
            read += len(text)
        if not text:
            return "", "", line, read
        first = text.splitlines(keepends=True)[0]
        text = text[len(first):]
        line += 1
        header = first.splitlines()[0]
        if header.strip() or not skip_blank:
            return header, text, line, read


def _read_text(fh, first=""):
    """The rest of an open text file, from its text ``first``, in pieces of
    about ``_READ_CHUNK`` characters, each cut after its last newline, so
    that ``str.splitlines`` splits the pieces as it splits the whole text."""
    pending = first
    while True:
        chunk = fh.read(_READ_CHUNK)
        text = pending + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        yield text[:cut]
        pending = text[cut:]
        if not chunk:
            return


def read_lines(fh, first=""):
    """The lines of the rest of an open text file, from its text ``first``, in
    lists of about ``_READ_CHUNK`` characters, split as ``str.splitlines``
    splits the whole text."""
    return (text.splitlines() for text in _read_text(fh, first))


def _is_data(line, comment):
    """Whether a line holds a row: not blank, and not a ``#`` line when the
    format has a ``comment`` hook, which is handed the stripped line."""
    text = line.strip()
    if comment is not None and text.startswith("#"):
        comment(text)
        return False
    return bool(text)


def _parse_lines(lines, width, line, comment):
    """The rows of ``lines``, the first of which is the file's line ``line``.

    Skips what ``_is_data`` skips and splits the rest, stripped, at commas;
    a line that is not ``width`` numbers ``float`` accepts is a ParseError
    naming it.
    """
    rows = []
    for number, text in enumerate(lines, start=line):
        if not _is_data(text, comment):
            continue
        fields = text.strip().split(",")
        if len(fields) != width:
            raise ParseError(f"expected {width} fields, got {len(fields)}", line=number)
        try:
            rows.append([float(field) for field in fields])
        except ValueError as exc:
            raise ParseError(str(exc), line=number) from None
    return np.array(rows, dtype=np.float64).reshape(-1, width)


def read_rows(path, fh, width, first="", line=1, read=0, comment=None):
    """The rest of the file ``path``, open as ``fh`` from its text ``first``
    (the file's line ``line``; ``read`` characters, ``first`` among them,
    have been read from the file), as an (n, width) float64 array, or a
    ParseError naming the first bad line.

    Blank lines and, with a ``comment`` hook, ``#`` lines are skipped, and
    the hook is handed each stripped ``#`` line. The rows come from one
    ``np.loadtxt`` call on ``path`` where ``_scan`` finds that the whole
    file splits into the same lines for it as for ``str.splitlines``, no
    ``#`` follows the leading lines and it takes the body; otherwise
    ``_read_chunks`` reads them from the first row on.
    """
    if not first:
        whole, last_hash = _scan(path)
        if whole:
            # Up to the first row line by line, so the hook sees the leading # lines.
            for first in iter(fh.readline, ""):
                if _is_data(first, comment):
                    break
                line += 1
                read += len(first)
            else:
                return np.empty((0, width))
            # The file is ASCII, so ``read``, the characters before the first
            # row, is the row's byte offset.
            if last_hash < read:
                try:
                    rows = np.loadtxt(path, delimiter=",", comments=None, skiprows=line - 1,
                                      ndmin=2, encoding="ascii")
                except ValueError:
                    rows = None
                if rows is not None and rows.shape[1] == width:
                    return rows
    return _read_chunks(fh, width, first, line, comment)


#: The ASCII line breaks of ``str.splitlines`` that ``np.loadtxt`` does not
#: break at, and ``\x1f``, white space that ``np.loadtxt`` strips from a field
#: and ``float`` does not.
_LINE_LOOP_ONLY = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _scan(path):
    """(whole, last_hash): whether the file is ASCII without a byte of
    ``_LINE_LOOP_ONLY``, so that ``np.loadtxt`` and the line loop split it
    into the same lines and fields, and the offset of its last ``#`` (-1 if
    it has none). A ``#`` past the leading lines fails ``np.loadtxt``."""
    last_hash, offset = -1, 0
    with open(path, "rb") as fh:
        while block := fh.read(_READ_CHUNK):
            if not block.isascii() or any(c in block for c in _LINE_LOOP_ONLY):
                return False, -1
            at = block.rfind(b"#")
            if at >= 0:
                last_hash = offset + at
            offset += len(block)
    return True, last_hash


def _read_chunks(fh, width, first, line, comment):
    """``read_rows`` chunk by chunk: the exact path for any body.

    Each chunk from ``_read_text`` is rid of its leading blank and ``#``
    lines (``np.loadtxt`` skips only later blank ones) and parsed by
    ``np.loadtxt``; the lines of a chunk it does not take, or that holds
    ``\x1f``, go to ``_parse_lines``, which gives the same rows or the error.
    """
    blocks = []
    for chunk in _read_text(fh, first):
        lines = chunk.splitlines()
        start = next((i for i, text in enumerate(lines) if _is_data(text, comment)),
                     len(lines))
        if start < len(lines):
            rows = None
            if "\x1f" not in chunk:
                try:
                    rows = np.loadtxt(lines[start:], delimiter=",", comments=None, ndmin=2)
                except ValueError:
                    pass
            if rows is None or rows.shape[1] != width:
                rows = _parse_lines(lines[start:], width, line + start, comment)
            blocks.append(rows)
        line += len(lines)
    return np.concatenate(blocks) if blocks else np.empty((0, width))


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


def _field_slots(column, precision):
    """The slot rows of a column formatted as ``%.Pg`` (``precision`` None: ``%d``).

    Returns an (h, n) uint8 array holding, for each of the n values, its
    characters in slot order and NUL in the slots it does not use; h counts
    only the slots some value uses.
    """
    column = np.asarray(column)
    if precision is None:
        if column.dtype.kind not in "iu":
            raise ValueError(f"%d needs an integer column, not {column.dtype}")
        fmt, p = "%d", 12
        x = column.astype(np.float64)
        x[~(np.abs(x) < 1e12)] = np.nan
    else:
        fmt, p = f"%.{precision}g", precision
        x = column.astype(np.float64, copy=False)
    q, e, bad = _scaled_digits(x, p)

    # Digits, in chunks of at most five, and how many are significant.
    qi = q.astype(np.int64)
    del q
    widths = _CHUNK_WIDTHS[p]
    chunks = []
    for w in widths[:0:-1]:
        top = qi // 10 ** w
        chunks.append(qi - top * 10 ** w)
        qi = top
    chunks.append(qi)
    chunks.reverse()
    tz = _trailing_zeros(widths[-1]).take(chunks[-1])
    below_zero = chunks[-1] == 0
    for c, w in zip(chunks[-2::-1], widths[-2::-1]):
        tz = tz + below_zero * _trailing_zeros(w).take(c)
        below_zero &= c == 0
    nsig = p - tz.astype(np.int16)

    X = e.astype(np.int16)
    del e
    fixed = (X >= -4) & (X < p)
    upper = fixed & (X >= 0)
    ndig = np.where(upper, np.maximum(nsig, X + 1), nsig)
    dot = np.where(upper & (nsig > X + 1), X, np.where(~fixed & (nsig > 1), 0, -1))
    zeros = np.where(fixed & (X < 0), -X - 1, -1)
    expo = ~fixed
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
    fallback = [fmt % v for v in column[bad].tolist()]

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
        for row in _digit_table(w).take(chunk, axis=1):
            if j >= n_digits:
                break
            np.multiply(ndig > j, row, out=next(rows))
            if j in dots:
                np.multiply(dot == j, c["."], out=next(rows))
            j += 1
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
    """Write the rows whose slot rows are ``parts``, (h, n) arrays in order.

    The slots are laid row by row with one transposing copy and their NUL
    bytes dropped in one ``bytes.translate`` pass. ``parts`` is emptied and
    each copy dropped once the next is made, so that a block holds about
    two copies of its slots at a time.
    """
    rows = np.empty((parts[0].shape[1], sum(len(part) for part in parts)), np.uint8)
    r = 0
    for part in parts:
        rows[:, r:r + len(part)] = part.T
        r += len(part)
    parts.clear()
    data = rows.tobytes()
    del rows
    text = data.translate(None, b"\0")
    del data
    fh.write(text.decode("ascii"))


def _parse_format(row_format):
    """Split ``row_format`` into its literal texts and field precisions (None: %d)."""
    parts = _FIELD.split(row_format)
    literals = parts[::2]
    if any("%" in text for text in literals):
        raise ValueError(f"unsupported row format {row_format!r}")
    return literals, [None if g is None else int(g) for g in parts[1::2]]


def write_rows(fh, row_format, *columns):
    """Write ``row_format % row`` for each row of the equal-length columns.

    ``row_format`` formats one row, newline included, from ``%.9g``,
    ``%.12g`` and ``%d`` fields (``%d`` on integer columns only); the bytes
    are those of ``%`` on the row's Python floats and ints.
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
    """``time,index,value`` rows, time-major: ``f"{t:.9g},{i},{x:.9g}\\n"``
    for each step's time ``t`` and each row ``i`` of ``matrix[:, step]``.

    Each step's time is formatted once and its slots repeated N times, and
    the index column is formatted once for range(N) and tiled. A (steps, N)
    buffer seen through ``.T`` hands over each block as one contiguous slice.
    A matrix with no rows writes nothing.
    """
    n = matrix.shape[0]
    if n == 0:
        return
    index = _field_slots(np.arange(n), None)
    steps_per_block = max(1, BLOCK_ROWS // n)
    for lo in range(0, len(times), steps_per_block):
        block = slice(lo, lo + steps_per_block)
        steps = len(times[block])
        comma = _literal_slots(",", steps * n)
        _write_block(fh, [np.repeat(_field_slots(times[block], 9), n, axis=1), comma,
                          np.tile(index, steps), comma,
                          _field_slots(matrix[:, block].T.ravel(), 9),
                          _literal_slots("\n", steps * n)])
