"""Shortest round-trip decimal text of float64 arrays, vectorized.

``format_rows(a)`` returns the bytes of
``",".join(map(repr, row.tolist())) + "\\n"`` for every row of a 2-D array
of finite floats, computed for the whole array at once.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020; a sibling of Ryu, U. Adams, PLDI 2018): the shortest decimal
in the rounding interval of v and, of those, the one closest to v, ties to
an even last digit. They come from fixed-width integer arithmetic on a
126-bit table of powers of ten, which numpy runs over an array in uint64
with 32-bit limbs. The algorithm follows the Java reference implementation
(``jdk.internal.math.DoubleToDecimal``) with two changes that make its
digits Python's: Java keeps at least two digits, so the shorter candidate is
tried whenever s >= 10 (Java: s >= 100) and the tiny-subnormal branch that
renders 5e-324 as 4.9e-324 is gone. The layout is ``repr``'s: fixed notation,
with a ``.0`` on integers, for magnitudes in [1e-4, 1e16), else
``d.ddde-XX``. The tables are built on first use, not at import.

Zeros are spliced, not searched: the digit search and the layout run over
the nonzero values only, and each zero gets its token, ``0.0`` or ``-0.0``
(the sign bit kept, as ``repr`` keeps it), directly. So a mostly-zero array
costs about what its nonzeros cost, and an all-zero one runs no search.
"""

from __future__ import annotations

import functools

import numpy as np

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that float64 needs
_C_MIN = np.uint64(1 << 52)
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_WIDTH = 25  # the longest token, "-2.2250738585072014e-308", and a separator
_ZERO, _DOT, _MINUS, _PLUS, _E, _COMMA, _NEWLINE = b"0.-+e,\n"
_P = 17  # the column of the '.': 16 integer digits and a '-' fit left of it
_LEFT, _RIGHT = 20, 36  # '0's around the 20 digits: room for every shift
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_UPTO = np.arange(_WIDTH) <= np.arange(_WIDTH)[:, None]  # row L: columns 0..L
# the tokens of 0.0 and -0.0, each padded to a row of _WIDTH
_SIGNED_ZERO = np.frombuffer(b"0.0".ljust(_WIDTH) + b"-0.0".ljust(_WIDTH), np.uint8).reshape(2, _WIDTH)


def _flog10pow2(e):
    """floor(log10(2^e)), exact over the range float64 needs."""
    return (e * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(e):
    """floor(log10(3/4 2^e)), exact over the range float64 needs."""
    return (e * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(log2(10^e)), exact over the range float64 needs."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _g_limbs() -> np.ndarray:
    """Schubfach's g = floor(10^-k 2^-r) + 1, where r puts 10^-k 2^-r in
    [2^125, 2^126), for k = _K_MIN.._K_MAX. Row i holds limb i of the split
    g = (g1 2^63 + g0) with g1 = l0 2^32 + l1 and g0 = l2 2^32 + l3, as
    uint64."""
    limbs = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num << -r, den) if r < 0 else (num, den << r)
        g = num // den + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        limbs.append((g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return np.array(limbs, dtype=np.uint64).T.copy()


def _product(a1, a0, c1, c0):
    """The high and low 64 bits of (a1 2^32 + a0)(c1 2^32 + c0), both
    factors below 2^63, from their 32-bit limbs."""
    lo, m1, m2 = a0 * c0, a1 * c0, a0 * c1
    mid = (lo >> 32) + (m1 & _M32) + (m2 & _M32)
    return a1 * c1 + (m1 >> 32) + (m2 >> 32) + (mid >> 32), (mid << 32) | (lo & _M32)


def _rop(g, cp):
    """Schubfach's rop: cp g 2^-127 rounded to odd, from the limbs ``g`` of
    ``_g_limbs``, with the truncations of the Java reference (the product
    with g0 keeps its high 64 bits only)."""
    c1, c0 = cp >> 32, cp & _M32
    y1, y0 = _product(g[0], g[1], c1, c0)
    x1, _ = _product(g[2], g[3], c1, c0)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _M63) != 0)


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest decimal f 10^e of each nonzero finite float64 (given as its
    bit patterns), ``f`` < 10^17 possibly with trailing zeros. Both are
    int64: ``np.searchsorted`` would compare a uint64 ``f`` with int64
    powers of ten as float64."""
    bq = (bits >> 52) & np.uint64(0x7FF)
    c = bits & (_C_MIN - np.uint64(1))
    c[bq != 0] |= _C_MIN
    q = np.maximum(bq.astype(np.int64), 1) - 1075
    del bq  # here and in _tokens, each temporary goes once dead: they set a chunk's peak
    irregular = (c == _C_MIN) & (q != -1074)  # a power of two: the gap below is half
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    del q

    # the value and the ends of its rounding interval, in units of 2^q / 4,
    # scaled by 10^-k: vb, vbl and vbr of the Java reference
    g = _g_limbs()[:, k - _K_MIN]
    out = c & np.uint64(1)  # an odd c leaves the ends out
    cb = c << np.uint64(2)
    del c
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - np.uint64(2) + irregular) << h)
    vbr = _rop(g, (cb + np.uint64(2)) << h)
    del g, cb, h, irregular
    vbl += out
    vbr -= out
    del out

    s = vb >> np.uint64(2)
    # one digit shorter: u' = 10 floor(s / 10) or w' = u' + 10
    sp = s // np.uint64(10) * np.uint64(10)
    upin = vbl <= sp << np.uint64(2)
    wpin = (sp + np.uint64(10)) << np.uint64(2) <= vbr
    uin = vbl <= s << np.uint64(2)
    win = (s + np.uint64(1)) << np.uint64(2) <= vbr
    # both of u = s and w = s + 1 in range: the closer, ties to even
    mid = (s << np.uint64(2)) + np.uint64(2)
    closer_u = (vb < mid) | ((vb == mid) & (s & np.uint64(1) == 0))
    f = s + ~np.where(uin != win, uin, closer_u)
    shorter = (s >= 10) & (upin != wpin)  # Java asks s >= 100, to keep two digits
    f = np.where(shorter, sp + np.uint64(10) * ~upin, f)
    return f.view(np.int64), k


def format_rows(a: np.ndarray) -> bytes:
    """``",".join(map(repr, row.tolist())) + "\\n"`` for each row of the
    2-D float64 array ``a``, whose values must be finite."""
    cols = a.shape[1]
    bits = np.ascontiguousarray(a, dtype=np.float64).reshape(-1).view(np.uint64)
    size = bits.size
    neg = (bits >> np.uint64(63)).astype(np.intp)
    mag = bits & _M63
    nonzero = np.flatnonzero(mag)
    if nonzero.size == size:  # no zeros: the tokens are the text
        text, length = _tokens(mag, neg)
    else:  # each zero is "0.0" or "-0.0"; the digit search sees the rest
        # made before the text, for a lower peak; an all-zero chunk has none
        tokens = _tokens(mag[nonzero], neg[nonzero]) if nonzero.size else None
        text, length = _SIGNED_ZERO[neg], 3 + neg
        if tokens is not None:
            text[nonzero], length[nonzero] = tokens

    ends = np.arange(size) * _WIDTH + length
    flat = text.reshape(-1)
    flat[ends] = _COMMA
    flat[ends[cols - 1 :: cols]] = _NEWLINE
    return text[_UPTO[length]].tobytes()


def _tokens(mag: np.ndarray, neg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``repr``'s text of each nonzero value, given as its magnitude's bit
    pattern ``mag`` and its sign ``neg`` (0 or 1): row i of the returned
    (size, _WIDTH) array from column 0, and its length."""
    size = mag.size
    f, e = _decimal(mag)

    # f in 20 digit characters, most significant first, between runs of '0's
    # long enough for every shift below; and how many of them are trailing zeros
    src = np.full((size, _LEFT + 20 + _RIGHT), _ZERO, dtype=np.uint8)
    words = src[:, _LEFT : _LEFT + 20].view("<u4")  # 4-aligned
    chars, zeros = _digit_groups()
    rest = f
    tz = np.zeros(size, dtype=np.intp)
    for i in range(4, -1, -1):
        top = rest // 10000
        group = rest - top * 10000
        words[:, i] = chars[group]
        tz += (tz == 4 * (4 - i)) * zeros[group]  # only while the groups after are 0000
        rest = top
    del words, rest, top, group
    digits = np.searchsorted(_POW10, f, side="right")
    n = digits - tz  # significant digits
    decpt = digits + e  # the value is 0.ddd 10^decpt
    del f, tz
    sci = (decpt <= -4) | (decpt > 16)
    point = np.where(sci, 1, decpt)  # sci: render the digits as d.ddd first

    # shift the digits so that the units place sits just left of column _P,
    # insert the '.' there, and start each token at its first character
    shifted = _windows(src, _LEFT + 20 - _P + point - digits, _P + 20)
    del src, digits
    text = np.full((size, _P + 1 + _WIDTH), _ZERO, dtype=np.uint8)
    text[:, :_P] = shifted[:, :_P]
    text[:, _P] = _DOT
    text[:, _P + 1 : _P + 21] = shifted[:, _P:]
    del shifted
    start = _P - np.maximum(point, 1) - neg
    text.reshape(-1)[(np.arange(size) * text.shape[1] + start)[neg == 1]] = _MINUS
    text = _windows(text, start, _WIDTH)
    length = neg + np.maximum(point, 1) + 1 + np.maximum(n - point, 1)

    # sci: the exponent replaces the '.0' of a single digit or follows the digits
    rows = np.flatnonzero(sci)
    x = decpt[rows] - 1
    epos = rows * _WIDTH + neg[rows] + np.where(n[rows] > 1, n[rows] + 1, 1)
    flat = text.reshape(-1)
    flat[epos] = _E
    flat[epos + 1] = np.where(x < 0, _MINUS, _PLUS)
    x = np.abs(x)
    big = x >= 100
    flat[epos + 2 + big] = x // 10 % 10 + _ZERO
    flat[epos + 3 + big] = x % 10 + _ZERO
    flat[epos[big] + 2] = x[big] // 100 + _ZERO
    length[rows] = epos - rows * _WIDTH + 4 + big
    return text, length


def _windows(a: np.ndarray, start: np.ndarray, width: int) -> np.ndarray:
    """Row i of the contiguous uint8 array ``a`` from column ``start[i]``,
    ``width`` columns of it."""
    rows, cols = a.shape
    flat = np.lib.stride_tricks.as_strided(a, (rows * cols - width + 1, width), (1, 1))
    return flat[np.arange(rows) * cols + start]


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """For 0..9999: the four digit characters as a little-endian uint32
    word, and the number of trailing zeros among them."""
    i = np.arange(10000, dtype=np.uint16)  # small: the tables are built inside a render
    chars = (i[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + _ZERO).astype(np.uint8)
    return chars.view("<u4").ravel(), sum(i % 10**j == 0 for j in range(1, 5))
