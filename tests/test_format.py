"""horizonfv.cli._format_g17 against Python's b"%.17g" % x, value by value."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from horizonfv.cli import _format_g17


def assert_formats_as_percent(values):
    values = np.asarray(values, dtype=np.float64)
    got = _format_g17(values).tolist()
    want = [b"%.17g" % x for x in values.tolist()]
    wrong = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:5]


def test_random_bit_patterns():
    rng = np.random.default_rng(20240817)
    bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    # all but the first 40 000 get an exponent from the binades of 1e-4 <= |x| < 1e17, where the
    # vectorised path applies; the drawn exponent is almost always outside them
    exponent = rng.integers(1009, 1080, bits.size, dtype=np.uint64) << np.uint64(52)
    bits[40_000:] = (bits[40_000:] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | exponent[40_000:]
    assert_formats_as_percent(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    ulps = np.arange(-60, 61)
    near = np.concatenate([(np.float64(10.0 ** p).view(np.int64) + ulps).view(np.float64) for p in range(-8, 19)])
    assert_formats_as_percent(np.concatenate([near, -near]))


def test_ties_and_eighths():
    ties = [1e15 + 0.25, 1e15 + 0.75, -(1e15 + 0.25), 1e16 + 2.0, 99999999999999984.0, 0.5, 2.5]
    eighths = np.concatenate([np.arange(-20_000, 20_000), 8e15 + np.arange(-4_000, 4_000),
                              2.0 ** 56 + np.arange(-4_000, 4_000)]) / 8.0
    assert_formats_as_percent(np.concatenate([ties, eighths]))


def test_values_outside_the_vectorised_range():
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
               9.9999999999999991e-05, 1e-5, 1e17, -1e17, 1.7976931348623157e308, 1e-4, -1e-4]
    assert_formats_as_percent(special)
    assert_formats_as_percent(np.array(special)[::3])  # a strided view
    assert _format_g17(np.array([])).dtype == np.dtype("S24")


@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_any_floats(values):
    assert_formats_as_percent(values)
