"""The array formatter of ``protoneuro._csvio`` against the ``%`` operator.

Every test formats columns with ``write_rows`` (or ``write_long_rows``) and
compares the text with ``row_format % row`` per row, which is the contract.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoneuro import _csvio
from protoneuro._csvio import BLOCK_ROWS

# Rows at the edges of the writers' first block and of their fourth.
BLOCK_EDGES = [k * BLOCK_ROWS + e for k in (1, 4) for e in (-1, 0, 1)]


def formatted(row_format, *columns):
    fh = io.BytesIO()
    _csvio.write_rows(fh, row_format, *columns)
    return fh.getvalue().decode("ascii")


def reference(row_format, *columns):
    return "".join(row_format % row for row in zip(*(np.asarray(c).tolist() for c in columns)))


def assert_matches_percent(values):
    x = np.asarray(values, dtype=np.float64)
    for row_format in ("%.9g\n", "%.12g\n", "%.12g,%.9g\n"):
        columns = (x,) * row_format.count("%")
        assert formatted(row_format, *columns) == reference(row_format, *columns), row_format


def decimal_ties(digits, exponents):
    """Doubles nearest the decimal ties ``d.dd...d5e<k>`` one digit past ``digits``,
    and both their neighbours: the values whose scaled digits sit nearest x.5."""
    mantissas = ["1" + "0" * (digits - 1), "1234567890123"[:digits], "9" * digits,
                 "5" + "0" * (digits - 1)]
    ties = np.array([float(f"{m[0]}.{m[1:]}5e{k}") for m in mantissas for k in exponents])
    return np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])


#: Literal edge cases: signed zeros, non-finite values, subnormals, the ends
#: of the vectorised range (1e-280, 1e280) and of the double range, ties at
#: the 9th and 12th significant digit, the carries 999999999.5 and
#: 999999999999.5, and the fixed/exponent switch points 1e-5, 1e-4, 1e9, 1e12.
EDGE_VALUES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1e-280, 9.999999999999999e-281, 1.0000000000000001e-280,
    1e280, 9.999999999999999e279, 1.0000000000000001e280, 1e-300, 1e300,
    1.7976931348623157e308, -1.7976931348623157e308,
    123456789.5, 123456788.5, 0.1234567895, 9.999999995, 99999999.95,
    999999999.5, 999999999.4999999, 999999999.5000001, 999999999.7, 99999999.99999999,
    123456789012.5, 123456789011.5, 0.9999999999995, 999999999999.5, 999999999999.7,
    1e-5, 9.9999999995e-6, 1e-4, 9.99999999995e-5, 0.0001, 0.00099999999995,
    1e9, 999999999.0, 1e12, 999999999999.0, 1e13, 1.5, 2.5, 0.5, 1 / 3, 2 / 3,
    1.23456789e-5, 2.5e-7, 7e22, 1e23, 1e-22, 1e-23, 4.35e-308, 1e100, 1e-100,
]


def test_matches_percent_on_edge_values():
    values = np.array(EDGE_VALUES)
    assert_matches_percent(np.concatenate([values, -values]))


def test_matches_percent_on_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    assert_matches_percent(np.concatenate(
        [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers]))


@pytest.mark.parametrize("digits", [9, 12])
def test_matches_percent_on_decimal_ties(digits):
    assert_matches_percent(decimal_ties(digits, range(-290, 291, 7)))
    assert_matches_percent(decimal_ties(digits, range(-6, 14)))


def test_matches_percent_on_many_random_values():
    rng = np.random.default_rng(20261018)
    raw = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False).view(np.float64)
    scaled = rng.standard_normal(100_000) * 10.0 ** rng.integers(-20, 20, 100_000)
    assert_matches_percent(np.concatenate([raw, scaled]))


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_matches_percent_on_raw_bit_patterns(bits):
    assert_matches_percent(np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.mark.parametrize("values", [
    [1.0, 2.0, np.nan, 3.0],               # nan is wider than the digit slot
    [np.inf, 1.0],
    [-np.inf, 0.0, -0.0],
    [1e-300, 5.0],                         # fallback by range, not by value kind
    [np.nan],
    [np.nan, np.inf, -np.inf, 5e-324, 1e300],   # every row falls back
])
def test_fallback_widens_the_slots(values):
    assert_matches_percent(values)


def test_integer_columns_match_percent_d():
    # Integer columns (neuron indices, 0/1 codes) are %.12g fields, which
    # print every integer below 10**12 in size as %d does.
    ints = np.array([0, 1, -1, 9, 10, 99, 100, 12345, -98765, 10**11, 10**12 - 1,
                     -(10**12 - 1)])
    assert formatted("%.12g,%.9g\n", ints, ints.astype(float)) == \
        reference("%d,%.9g\n", ints, ints.astype(float))
    codes = np.array([0, 1, 1, 0], np.uint8)
    assert formatted("%.12g,%.12g\n", codes, codes) == reference("%d,%d\n", codes, codes)


@pytest.mark.parametrize("row_format, column", [
    ("%d\n", np.arange(3)),                  # integer columns are %.12g fields
    ("%.6g\n", np.arange(3.0)),               # only the writers' precisions 9 and 12
    ("%f\n", np.arange(3.0)),
])
def test_unsupported_fields_are_rejected(row_format, column):
    with pytest.raises(ValueError):
        formatted(row_format, column)


def test_zeros_integers_and_carries_are_formatted_without_fallback():
    # Zero is laid out by the array path, not handed to %: a readout full of
    # zeros must not become a per-value loop. Nor must a 9...9.7 that
    # rounds up to the next power of ten.
    for precision in (9, 12):
        for values in (np.zeros(1000), -np.zeros(1000), np.arange(-500.0, 500.0)):
            assert _csvio._scaled_digits(values, precision)[2].size == 0
    carries = np.array([999999999.7, 9.9999999996e-5, -99.99999999, 9.9999999997e100])
    assert _csvio._scaled_digits(carries, 9)[2].size == 0
    assert formatted("%.9g\n", carries) == reference("%.9g\n", carries)


@pytest.mark.parametrize("n", [0, 1, *BLOCK_EDGES])
def test_block_edges(n):
    rng = np.random.default_rng(n)
    ints = rng.integers(-10**6, 10**6, n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    values[::97] = np.nan
    assert formatted("%.12g,%.9g;%.12g\n", ints, values, values) == \
        reference("%.12g,%.9g;%.12g\n", ints, values, values)


@pytest.mark.parametrize("rows", [1, 3])
def test_long_rows_match_percent(rows):
    rng = np.random.default_rng(rows)
    times = np.concatenate([np.arange(7) * 1e-4, [np.nan, 0.0, -0.0, 1e300]])
    matrix = rng.standard_normal((rows, times.size))
    matrix[0, 3] = np.inf
    fh = io.BytesIO()
    _csvio.write_long_rows(fh, times, matrix)
    assert fh.getvalue().decode("ascii") == "".join(f"{t:.9g},{i},{matrix[i, k]:.9g}\n"
                                    for k, t in enumerate(times) for i in range(rows))


def test_long_rows_of_an_empty_matrix_write_nothing():
    fh = io.BytesIO()
    _csvio.write_long_rows(fh, np.arange(4.0), np.empty((0, 4)))
    assert fh.getvalue() == b""
