"""Float text without a Python call per float: the characters of `repr`.

`repr_chars(x)` gives, for a float64 array, each element's `repr` as the
kept bytes of a row of a uint8 matrix.  Positional values, 1e-4 <= |x| <
1e15, take numpy arithmetic.  The exact product |x|*10^k = hi + lo
(Dekker's two-product, Numer. Math. 18 (1971) 224; 10^k is exact for
k <= 22) puts 17 digits before the point.  The 17-, 16- and 15-digit
roundings of that product come by integer arithmetic on hi, corrected by
lo, and the shortest of them that reads back as x (within half the gap to
x's neighbours) is taken: the shortest round-trip digits that `repr` takes
from Gay's dtoa (mode 0), which among the shortest picks the nearest.
Whatever cannot be certified goes to `repr` itself, in one batch placed
by one array assignment, so no byte differs from it: a rounding within
1e-9 of a digit tie or of x's rounding boundary, a power of two (whose
neighbours are not equally far), a value next to a power of ten (where hi
falls outside (1e16, 1e17)), and every value outside that range (±0,
subnormals, inf, nan and the exponent forms).

The work is done on (position, element) arrays, so each numpy call runs
over all elements at once; the matrices returned are their transposes.
"""

from functools import cache

import numpy as np

_POW10 = np.array([float(10**k) for k in range(23)])  # exact
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of 53 bits into 26 + 27
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_MANTISSA = np.uint64((1 << 52) - 1)
_EXPONENT = np.uint64(0x7FF << 52)
_DOUBT = 1e-9  # margin of a rounding decision, far above the ~1e-14 error of forming it
_ROWS = 24  # rows of the digit canvas: the longest repr, as of -2.2250738585072014e-308
_FIRST = _ROWS - 17  # canvas row of the first of 17 significant digits


@cache
def _digit_tables():
    """(quads, last), read-only: the four digits of each group g < 10^4 as
    '0000'..'9999' in the columns of quads, and in last the place of its
    last nonzero digit, 1..4, or -99 for none.  Built on first use, so a
    run that formats no floats does not hold them."""
    quads = np.empty((4, 10, 10, 10, 10), dtype=np.uint8)
    for place in range(4):
        np.moveaxis(quads[place], place, -1)[:] = np.arange(48, 58, dtype=np.uint8)
    quads = quads.reshape(4, 10**4)
    last = np.full(10**4, -99, dtype=np.int8)
    for place in range(4):
        last[quads[place] != 48] = place + 1
    quads.flags.writeable = last.flags.writeable = False
    return quads, last


def _two_product(a, k):
    """(hi, lo) with hi = fl(a*10^k) and hi + lo = a*10^k exactly (Dekker:
    ((ah*bh - hi) + ah*bl + al*bh) + al*bl, evaluated in place)."""
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    c = _SPLIT * a
    ah = c - a
    np.subtract(c, ah, out=ah)
    al = np.subtract(a, ah, out=c)
    lo = ah * bh
    lo -= hi
    t = ah * bl
    lo += t
    lo += np.multiply(al, bh, out=t)
    lo += np.multiply(al, bl, out=t)
    return hi, lo


def _shortest(h, lo, half):
    """(digits, doubt): the 17-digit integer, trailing zeros included, of
    the shortest of the 17-, 16- and 15-digit roundings of P = h + lo that
    lies within `half` of P, and where that choice is not certified.  A
    15-digit tie is 50 from P, farther than `half` (at most 11.1)."""
    c = np.rint(lo)
    digits = h + c.astype(np.int64)
    doubt = np.abs(np.abs(c - lo) - 0.5) <= _DOUBT
    for m in (10, 100):  # a shorter rounding that fits replaces a longer one
        q = h // m
        t = (h - q * m) + lo  # P - q*m, to ~1e-14
        c = np.rint(t * (1 / m))
        err = np.abs(c * m - t)
        doubt |= np.abs(err - half) <= _DOUBT
        if m == 10:
            doubt |= np.abs(err - 5.0) <= _DOUBT
        digits = np.where(err < half, (q + c.astype(np.int64)) * m, digits)
    return digits, doubt


def repr_chars(x):
    """(chars, keep) of a 1-d float64 array x: uint8 and bool matrices of
    one shape (len(x), width), where row i of chars read at the True
    entries of row i of keep is repr(float(x[i])) in ASCII."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15) & ((a.view(np.uint64) & _MANTISSA) != 0)
    a = np.where(fast, a, 1.5)
    # 17 digits before the point, unless log10 rounds across a power of ten:
    # then hi is out of range
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _two_product(a, k)
    # the gap to the next float up: 2^(exponent - 52)
    ulp = ((a.view(np.uint64) & _EXPONENT) - np.uint64(52 << 52)).view(np.float64)
    digits, doubt = _shortest(hi.astype(np.int64), lo, 0.5 * _POW10[k] * ulp)
    # a rounding up to 10^17 would be 10^j round-tripping to x < 10^j: no x in range does
    fast &= (hi > 1e16) & (hi < 1e17) & (digits < 10**17) & ~doubt
    decpt = (17 - k).astype(np.int8)  # digits before the point

    # the digit canvas: 7 zeros, then the 17 digits, four at a time after the first
    canvas = np.full((_ROWS, n), 48, dtype=np.uint8)  # '0'
    high = digits // 10**8  # digits 0..8
    low = digits - high * 10**8  # digits 9..16
    lead = high // 10**8
    high -= lead * 10**8
    canvas[_FIRST] += lead.astype(np.uint8)
    ndig = np.ones(n, dtype=np.int8)  # significant digits
    quads, last = _digit_tables()
    for row, part in ((_FIRST + 9, low), (_FIRST + 1, high)):
        upper = part // 10**4
        for at, group in ((row + 4, part - upper * 10**4), (row, upper)):
            np.take(quads, group, axis=1, out=canvas[at : at + 4])
            np.maximum(ndig, last[group] + (at - _FIRST), out=ndig)
    # repr = [-] canvas[sa:ea] . canvas[sb:eb]; the part before the point is
    # "0" (the zero above the first digit) when decpt <= 0
    sa = _FIRST - (decpt <= 0).view(np.int8)
    ea = _FIRST + np.maximum(decpt, 0)
    sb = _FIRST + decpt
    eb = _FIRST + np.maximum(ndig, decpt + 1)
    # the rest: repr's own bytes, right-aligned in their canvas columns (the
    # spaces above are not kept), as the second window
    neg = np.signbit(x) & fast
    slow = np.flatnonzero(~fast)
    texts = list(map(repr, x[slow].tolist()))
    padded = "".join([text.rjust(_ROWS) for text in texts]).encode()
    canvas[:, slow] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, _ROWS).T
    sa[slow] = ea[slow] = _FIRST
    sb[slow] = _ROWS - np.fromiter(map(len, texts), dtype=np.int8, count=len(texts))
    eb[slow] = _ROWS

    a0, a1 = (sa.min(), ea.max()) if n else (0, 0)
    b0, b1 = (sb.min(), eb.max()) if n else (0, 0)
    wa = a1 - a0
    chars = np.empty((2 + wa + b1 - b0, n), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    chars[0], keep[0] = 45, neg  # '-'
    chars[1 + wa], keep[1 + wa] = 46, fast  # '.'
    for at, start, stop, s, e in ((1, a0, a1, sa, ea), (2 + wa, b0, b1, sb, eb)):
        chars[at : at + stop - start] = canvas[start:stop]
        # s <= row < e, as one unsigned comparison
        rows = np.arange(start, stop, dtype=np.int8)[:, None]
        np.less((rows - s).view(np.uint8), (e - s).view(np.uint8), out=keep[at : at + stop - start])
    return chars.T, keep.T
