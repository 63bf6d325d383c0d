"""The exact ``'%.17g'`` text of float64 arrays, computed over whole arrays.

:func:`format_g17` gives the text of every value of an array at once,
with integer arithmetic in place of the per-value decimal conversion of
``'%.17g' % x``, which leaves its floating-point fast path above 14
digits.

For a finite normal ``x = m * 2**e`` (``m`` in [2**52, 2**53)) with
decimal exponent ``X``, the 17 significant digits are ``y = x * 10**(16 -
X)`` rounded to the nearest integer. ``10**k`` is tabled as ``c_k *
2**b_k`` with ``c_k`` in [2**63, 2**64), rounded to nearest, so ``P = m *
c_k`` (117 bits, from 32-bit limbs) is within ``2**52`` of ``y * 2**s``,
where ``s = -(e + b_k)`` lies in [59, 63]. The digits are ``P >> s``,
rounded up when the remainder exceeds ``2**(s - 1)``. A value falls back
to ``'%.17g' % x`` when that remainder is within ``2**52`` of the half
(exact ties included), when ``X`` (estimated with ``log10``) was wrong,
and when it is subnormal, infinite or NaN. 0 and -0 are the digit 0 at
``X = 0``.

A row holds the text in fixed byte slots, four little-endian uint64
words, and the slots a value does not use are 0 bytes: the sign, the
"0." and zeros of a value in [1e-4, 0.1), the lead digit, the 16 further
digits with the point shifted in among them, and the exponent. Where each
slot goes, and which digits a value keeps, depends on ``X`` alone and is
tabled.
"""

from __future__ import annotations

import functools

import numpy as np

# bytes of a row; a text has at most 24, and the last byte is always 0
WIDTH = 32

_U = np.uint64
_TEN16, _TEN17, _TOP = _U(10**16), _U(10**17), _U(2**63)
_X_MIN, _X_MAX = -309, 309  # decimal exponents tabled; normal doubles have [-308, 308]


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Lookup tables, built once: powers of ten by ``308 - X``, layout by
    ``X - _X_MIN``, text and last nonzero digit of four-digit groups."""
    c, s0 = [], []
    power = 10**293
    for k in range(16 - 308, 16 + 308 + 1):  # k = 16 - X
        # c_k = 10**k * 2**t rounded half up, with 10**k * 2**t in [2**63, 2**64)
        if k < 0:
            power //= 10
            t = 63 + power.bit_length()
            c_k = ((1 << (t + 1)) // power + 1) >> 1
        else:
            power = power * 10 if k else 1
            t = 64 - power.bit_length()
            c_k = power << t if t >= 0 else ((power >> (-t - 1)) + 1) >> 1
        if c_k == 2**64:
            c_k, t = 2**63, t - 1
        c.append(c_k)
        s0.append(1075 + t)  # s = s0 - the biased binary exponent

    group = np.arange(10_000)
    chars = np.zeros(len(group), dtype=np.uint64)
    for i in range(4):  # the thousands digit in the lowest byte
        chars |= ((group // 10 ** (3 - i) % 10 + ord("0")) << (8 * i)).astype(np.uint64)
    last = (4 - sum(group % 10**i == 0 for i in range(1, 5))).astype(np.uint8)  # 0 for 0000

    X = np.arange(_X_MIN, _X_MAX + 1)
    exponent_form = (X < -4) | (X >= 17)
    small = (X >= -4) & (X < 0)  # "0." and zeros lead; no point among the digits
    before = np.where(exponent_form, 0, np.clip(X, 0, 16)).astype(np.uint64)  # tail digits before the point
    at = np.minimum(before, _U(15))  # the point, or a 0 byte, goes before tail digit `at`
    shift = _U(8) * (at % _U(8))
    # "e", the sign and two or three digits, in bytes 1-5 of the last word
    magnitude = chars[np.abs(X)] >> np.where(np.abs(X) >= 100, _U(8), _U(16))
    sign = np.where(X < 0, _U(ord("-")), _U(ord("+")))
    prefixes = [int.from_bytes(b"\0" + b"0." + b"0" * (-x - 1), "little") for x in range(-4, 0)]
    return {
        "c": np.array(c, dtype=np.uint64),
        "s0": np.array(s0, dtype=np.int64),
        "chars": chars,
        "last": np.where(last > 0, last + np.arange(0, 16, 4, dtype=np.uint8)[:, None], np.uint8(0)),
        "lead": (np.arange(10, dtype=np.uint64) + _U(ord("0"))) << _U(56),
        # the lowest `kept` of the 16 tail digits, by `kept`
        "mask_lo": np.array([(1 << 8 * min(k, 8)) - 1 for k in range(17)], dtype=np.uint64),
        "mask_hi": np.array([(1 << 8 * max(k - 8, 0)) - 1 for k in range(17)], dtype=np.uint64),
        "before": before,
        "limit": np.where(small, _U(16), before),
        "first": at < _U(8),
        "below": (_U(1) << shift) - _U(1),
        "dot": _U(ord(".")) << shift,
        "prefix": np.where(small, np.array(prefixes, dtype=np.uint64)[np.clip(X + 4, 0, 3)], _U(0)),
        "exponent": np.where(
            exponent_form, (_U(ord("e")) << _U(8)) | (sign << _U(16)) | (magnitude << _U(24)), _U(0)
        ),
    }


def _product(m, c):
    """``(hi, lo)`` with ``m * c = hi * 2**64 + lo``, from 32-bit limbs;
    uint64 arrays, ``m`` below 2**53. Overwrites ``m`` and ``c``."""
    m32 = _U(0xFFFFFFFF)
    hi, c_high = m >> _U(32), c >> _U(32)
    m &= m32
    c &= m32
    lo, mid = m * c, m * c_high
    c *= hi  # the other middle product
    hi *= c_high
    hi += mid >> _U(32)
    hi += c >> _U(32)
    mid &= m32
    mid += c & m32
    mid += lo >> _U(32)
    hi += mid >> _U(32)
    lo &= m32
    lo |= mid << _U(32)
    return hi, lo


def _digits(x):
    """``(digits, X, ok)``: the 17 significant digits of each value of
    ``x`` as an integer in [10**16, 10**17) (0 for a zero), its decimal
    exponent, and whether both are exact; where not, the digits are 10**16.
    Its uint64 temporaries are reused in place once their values are spent."""
    t = _tables()
    bits = x.view(np.uint64)
    biased = (bits >> _U(52)).view(np.int64)
    biased &= 0x7FF
    ok = (biased != 0) & (biased != 0x7FF)  # normal
    X = np.floor(np.log10(np.abs(np.where(ok, x, 1.0)))).astype(np.int64)
    row = 308 - X
    s = t["s0"][row]
    s -= biased
    del biased
    ok &= (s - 59).view(np.uint64) <= _U(4)  # s in [59, 63]
    s = s.view(np.uint64)
    m = bits & _U(2**52 - 1)
    m |= _U(2**52)
    hi, lo = _product(m, t["c"][row])
    del m, row
    up = _U(64) - s
    digits = hi
    digits <<= up
    digits |= lo >> s
    rest = lo
    rest <<= up  # the remainder, scaled so that the half is 2**63
    # X was right when the unrounded digits are 17; the remainder must be
    # farther than the error of P, 2**52 before scaling, from the half
    ok &= (digits >= _TEN16) & (digits < _TEN17)
    distance = (rest ^ _TOP).view(np.int64)
    np.abs(distance, out=distance)
    ok &= distance.view(np.uint64) > np.left_shift(_U(2**52), up, out=up)
    digits += rest > _TOP
    X += digits == _TEN17  # a carry to 10**17 is 10**16 at the next exponent
    digits[~ok | (digits == _TEN17)] = _TEN16
    zero = (bits << _U(1)) == _U(0)  # 0 and -0: the one digit 0 at X = 0
    digits[zero], X[zero] = 0, 0
    return digits.view(np.int64), X, ok | zero


def format_g17(values) -> np.ndarray:
    """An ``(n, WIDTH)`` uint8 matrix for the ``n`` values of a float64
    array, whose nonzero bytes in row i are exactly ``'%.17g' % values[i]``
    (ASCII); the bytes between and after them are 0."""
    t = _tables()
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    digits, X, ok = _digits(x)
    # each remainder as a - (a // k) * k, in place: the same integers, as
    # numpy's % by a scalar is several times slower than its //
    lead = digits // 10**16
    digits -= lead * 10**16
    high = digits // 10**8
    digits -= high * 10**8
    low = digits
    high_4, low_4 = high // 10**4, low // 10**4
    high -= high_4 * 10**4
    low -= low_4 * 10**4
    groups = [high_4, high, low_4, low]
    chars, last = t["chars"], t["last"]
    # a group's four characters in the high half of its word
    shifted = chars[high]
    shifted <<= _U(32)
    tail_lo = chars[high_4]
    tail_lo |= shifted
    np.take(chars, low, out=shifted)
    shifted <<= _U(32)
    tail_hi = chars[low_4]
    tail_hi |= shifted
    nonzero = last[0][high_4]  # tail digits up to the last nonzero one
    for k in range(1, 4):
        np.maximum(nonzero, last[k][groups[k]], out=nonzero)
    del groups, high, low, digits, shifted

    xi = X - _X_MIN
    kept = np.maximum(t["before"][xi], nonzero)
    tail_lo &= t["mask_lo"][kept]
    tail_hi &= t["mask_hi"][kept]
    first = t["first"][xi]
    word = np.where(first, tail_lo, tail_hi)
    below = word & t["below"][xi]
    word ^= below
    word <<= _U(8)
    word |= below
    word |= (nonzero > t["limit"][xi]) * t["dot"][xi]  # the point, or a 0 byte

    out = np.empty((len(x), 4), dtype="<u8")
    out[:, 0] = (x.view(np.uint64) >> _U(63)) * _U(ord("-")) | t["prefix"][xi] | t["lead"][lead]
    out[:, 1] = np.where(first, word, tail_lo)
    tail_lo >>= _U(56)
    tail_lo |= tail_hi << _U(8)
    out[:, 2] = np.where(first, tail_lo, word)
    tail_hi >>= _U(56)
    out[:, 3] = tail_hi | t["exponent"][xi]
    out = out.view(np.uint8)

    fallback = np.flatnonzero(~ok)
    if len(fallback):
        texts = ["%.17g" % v for v in x[fallback].tolist()]
        out[fallback] = np.array(texts, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out
