"""Block-wise parsing and formatting of numeric CSV bodies.

The series, stream, spike-train and network-trace files hold up to millions
of numeric rows. Handling them one Python call per row made file I/O the
bulk of a command's run time, so their readers and writers go through the
two functions here, which stand in exactly for the per-row code:

- ``parse_rows`` hands the body lines to one ``np.loadtxt`` call, which
  converts each field with the same ``PyOS_string_to_double`` as ``float``.
  Whenever a line is not exactly ``width`` numbers it returns None, and the
  caller re-reads with its line loop. That loop accepts what ``float``
  accepts and ``loadtxt`` does not (``1_0``, metadata lines between rows)
  and raises every parse error with its line number, as before.
- ``write_rows`` formats up to ``BLOCK_ROWS`` rows with one ``%`` operation
  on Python floats and ints. ``"%.9g" % x`` and ``f"{x:.9g}"`` share one
  formatter, so the bytes equal those of per-row f-strings.
"""

import numpy as np

#: Rows formatted per ``%`` operation: large enough to amortise the call,
#: small enough that the block's Python objects stay a few megabytes.
BLOCK_ROWS = 65536


def parse_rows(lines, width):
    """Parse comma-separated numeric lines into an (n, width) float64 array.

    Returns None when ``lines`` is empty, starts with a blank line, or holds
    any line that is not ``width`` numbers; the caller then falls back to
    its line loop. Empty lines after the first are skipped, as the loops do.
    """
    if not lines or not lines[0].strip():
        return None
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == width else None


def write_rows(fh, row_format, *columns):
    """Write ``row_format % row`` for each row of the equal-length columns.

    ``row_format`` formats one row, newline included; integer columns come
    out as Python ints (for ``%d``) and float columns as Python floats.
    """
    columns = [np.asarray(col) for col in columns]
    width = len(columns)
    n = len(columns[0])
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        fields = [None] * ((hi - lo) * width)
        for c, col in enumerate(columns):
            fields[c::width] = col[lo:hi].tolist()
        fh.write(row_format * (hi - lo) % tuple(fields))
