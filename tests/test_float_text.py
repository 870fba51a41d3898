"""`float_text.repr_chars` gives the characters of `repr` for every float64.

The kept bytes of each row must equal repr(float(x)), also where the
formatter hands the value to `repr` (±0, subnormals, inf, nan, powers of
two, exponent forms, uncertain roundings), and the numpy path must carry
almost all positional values, else the speed it exists for is gone.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohlim import float_text
from cohlim.float_text import repr_chars

CHUNK = 1 << 16  # floats per call, which keeps the sweep's memory small


def lines(x):
    """The text `repr_chars` gives for the elements of x, one a line."""
    chars, keep = repr_chars(np.asarray(x, dtype=np.float64))
    assert chars.shape == keep.shape and len(chars) == len(x)
    rows = np.hstack([chars, np.full((len(x), 1), 10, dtype=np.uint8)])
    kept = np.hstack([keep, np.ones((len(x), 1), dtype=bool)])
    return rows[kept].tobytes().decode("ascii")


def texts(x):
    return lines(x).split("\n")[:-1]


def mismatches(x):
    """(repr, our text) of every element of x where the two differ."""
    bad = []
    for lo in range(0, len(x), CHUNK):
        part = x[lo : lo + CHUNK]
        ours, reprs = lines(part), list(map(repr, part.tolist()))
        if ours != "\n".join(reprs) + "\n":
            bad += [(r, t) for r, t in zip(reprs, ours.split("\n")) if r != t]
    return bad


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
def test_matches_repr_on_any_floats(values):
    assert texts(values) == list(map(repr, values))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_matches_repr_on_any_bit_pattern(patterns):
    values = [from_bits(b) for b in patterns]
    assert texts(values) == list(map(repr, values))


@settings(max_examples=100, deadline=None)
@given(st.integers(-1074, 1023), st.booleans())
def test_matches_repr_on_powers_of_two(e, negative):
    v = math.ldexp(-1.0 if negative else 1.0, e)
    values = [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf), 3 * v if abs(3 * v) < math.inf else v]
    assert texts(values) == list(map(repr, values))


def test_every_power_of_two_in_the_positional_range():
    """Powers of two, whose lower neighbour is nearer than the upper one,
    and their neighbours, over the whole range the numpy path serves."""
    powers = [s * math.ldexp(1.0, e) for e in range(-14, 51) for s in (1.0, -1.0)]
    values = powers + [math.nextafter(v, w) for v in powers for w in (0.0, 2 * v)]
    assert texts(values) == list(map(repr, values))


@pytest.mark.parametrize("denominator", [4, 8, 16])
def test_exact_digit_ties(denominator):
    """x = odd/4, odd/8 and odd/16 near 1e14 put |x|*100 exactly halfway
    between two 16- or 17-digit integers."""
    base = 10.0**14 + np.arange(0, 4000)
    x = np.concatenate([base + (2 * np.arange(4000) + 1) / denominator, 7.25 * base + 1 / denominator])
    assert mismatches(x) == []
    assert mismatches(-x) == []


def test_special_values():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.2250738585072014e-308,
              1e-4, 9.999999999999999e-05, 1e15, 999999999999999.9, 1e16, 1.7976931348623157e308, 0.1, 0.5]
    assert texts(values) == list(map(repr, values))


def test_sweep_of_a_million_values_has_no_mismatch():
    rng = np.random.default_rng(20_26)
    k = np.arange(-100_000, 100_000, dtype=np.float64)
    near_powers = [np.nextafter(10.0**p, s) for p in range(-5, 17) for s in (np.inf, -np.inf)]
    x = np.concatenate(
        [
            rng.integers(0, 2**64, size=200_000, dtype=np.uint64).view(np.float64),
            *(scale * rng.standard_normal(100_000) for scale in (1e-3, 1e-2, 0.1, 1.0, 3.0, 50.0)),
            k / 8,
            k / 1000,
            np.array(near_powers + [10.0**p for p in range(-5, 17)]),
        ]
    )
    assert len(x) >= 10**6
    assert mismatches(x) == []


def test_numpy_path_carries_positional_values(monkeypatch):
    """Fewer than 1 in 1000 normal draws go to repr: the ties and rounding
    boundaries it must leave to repr are rare."""
    calls = []

    def counting_repr(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(float_text, "repr", counting_repr, raising=False)
    x = 0.3 * np.random.default_rng(5).standard_normal(80_000)
    assert texts(x) == list(map(repr, x.tolist()))
    assert len(calls) < 80


def test_empty_input():
    chars, keep = repr_chars(np.array([]))
    assert chars.shape[0] == keep.shape[0] == 0
