"""Python's `repr` of float64 blocks, byte for byte, with numpy.

`lines(heads, cols, values)` renders the text `heads[i] + cols[j] +
repr(float(values[i, j])) + "\\r\\n"` of every entry of a 2-d block, one
chunk per block row, without a Python `repr` call per value. Each pass
covers up to `BLOCK_VALUES` values in three steps:

1. Shortest digits. Schubfach (R. Giulietti, "The Schubfach way to render
   doubles", 2020) finds the shortest decimal in a double's rounding
   interval and, of two such, the one closest to it (ties to even), as
   CPython's `dtoa` mode 0 does. It needs only 64-bit integer arithmetic:
   the 128-bit products are built from 32-bit halves on uint64 lanes, and
   the 617-entry table of 126-bit approximations of 10^-k is built on the
   first call, not at import.
2. ASCII digits by SWAR ("SIMD within a register") arithmetic. The 16
   digits after the first form two 8-digit groups, and each group becomes
   one 64-bit word of eight ASCII bytes: two 32-bit lanes of 4 digits,
   then four 16-bit lanes of 2, then eight bytes of 1.
3. Python's `'r'` layout. Each entry is a fixed-width record of 64-bit
   words (head, column, sign with the "0.000" prefix and first digit, two
   digit words, exponent and line end) whose unused bytes are NUL, so
   `bytes.translate(None, b"\\0")` compacts a row's records into its
   lines. A point inside the digits moves the digits after it up one byte.
   A repr takes exponent form exactly when its decimal point position lies
   outside -3..16: 0.0001 is fixed, 1e-05 and 1e+16 are not.

±0.0 goes through the same layout ("0.0", "-0.0"); subnormals, NaN and
±inf take per-value `repr`.
"""
from __future__ import annotations

import functools
import mmap

import numpy as np

BLOCK_VALUES = 4096  # values per numpy pass: larger passes cost cache misses and memory

_WORD = np.dtype("<u8")  # the record layout is little-endian bytes
_U = np.uint64
_I = np.int64
_U1, _U2, _U10 = _U(1), _U(2), _U(10)
_S1, _S2, _S32, _S52, _S63 = _U(1), _U(2), _U(32), _U(52), _U(63)
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_X7FF = _U(0x7FF)
_FRAC = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_K_MIN, _K_MAX = -324, 292  # decimal exponents k of normal doubles
_VALUE_WORDS = 4  # [sign, "0.000", D0, point] [D1-D8] [D9-D16] [exponent or D16, \r\n]
_LANES = 19  # scratch rows of one pass, each one block long
_POW10_8 = _U(10 ** 8)
_POW10_16 = _U(10 ** 16)
_ASCII_ZEROS = _U(0x3030303030303030)


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _tables():
    """Lookup tables, built once per process on first use.

    - g[k - K_MIN] = floor(10^-k / 2^r) + 1, with r chosen so that
      2^125 <= g - 1 < 2^126, as four 32-bit parts (high part first).
    - Word 0 by sign·10 + zeros·2 + point: a sign, for fixed form below 1
      "0." and zeros - 1 zeros (zeros in 1..4), then the first digit's byte
      (added per value) and a point after it.
    - Digit-word masks by kept digits (0..17), for D1-D8 and D9-D16: digit
      p stays when p < kept.
    - By the digit p (1..15) a point follows, or 0 for none, for D1-D8 and
      D9-D16: the mask of the bytes before the point, and the point itself.
      The bytes from the point on move up one byte: out of D1-D8 into
      D9-D16, and out of D9-D16 into byte 0 of word 3.
    - Word 3 by exponent + 309 (0 without exponent): "e±XX[X]\\r\\n".
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            p = 10 ** k
            g.append((1 << (p.bit_length() + 125)) // p + 1)
    parts = tuple(np.array([(x >> shift) & mask for x in g], dtype=_U)
                  for shift, mask in ((95, 2**32 - 1), (63, 2**32 - 1),
                                      (32, 2**31 - 1), (0, 2**32 - 1)))
    word0 = np.array([_word((b"-" if sign else b"\0")
                            + (b"0." + b"0" * (zeros - 1) if zeros else b"").ljust(5, b"\0")
                            + b"\0" + (b"." if point else b"\0"))
                      for sign in (0, 1) for zeros in range(5) for point in (0, 1)], dtype=_U)
    ones = (1 << 64) - 1
    keep = np.array([[(1 << 8 * min(max(kept - 1, 0), 8)) - 1 for kept in range(18)],
                     [(1 << 8 * min(max(kept - 9, 0), 8)) - 1 for kept in range(18)]], dtype=_U)
    before = np.array([[(1 << 8 * p) - 1 if 0 < p < 8 else ones for p in range(16)],
                       [(1 << 8 * (p - 8)) - 1 if p > 8 else ones * (p == 0)
                        for p in range(16)]], dtype=_U)
    point = np.array([[0x2E << 8 * p if 0 < p < 8 else 0 for p in range(16)],
                      [0x2E << 8 * (p - 8) if p >= 8 else 0 for p in range(16)]], dtype=_U)
    tail = np.array([_word(b"\0" * 5 + b"\r\n")]
                    + [_word(b"e" + b"-+"[e >= 0:][:1] + str(abs(e)).rjust(2, "0").encode()
                             .rjust(3, b"\0") + b"\r\n") for e in range(-308, 309)], dtype=_U)
    return parts, word0, keep, before, point, tail


def _product(ah, al, bh, bl, high, scratch, low=False):
    """high = the upper 64 bits of (ah·2^32 + al)(bh·2^32 + bl); with low,
    scratch[2] gets the lower 64 bits.

    All parts are below 2^32 and bh is below 2^31; scratch holds three lanes.
    """
    ll, t, m = scratch
    np.multiply(al, bl, out=ll)
    np.multiply(ah, bl, out=t)
    np.right_shift(ll, _S32, out=m)
    t += m  # ah·bl + (ll >> 32) < 2^64
    np.multiply(al, bh, out=m)
    np.bitwise_and(t, _M32, out=high)
    m += high  # al·bh + (t mod 2^32) < 2^63
    np.multiply(ah, bh, out=high)
    t >>= _S32
    high += t
    np.right_shift(m, _S32, out=t)
    high += t
    if low:
        m <<= _S32
        ll &= _M32
        m |= ll


def _round_to_odd(g, cp, out, scratch):
    """out = floor(g·cp / 2^127), its last bit set when nonzero bits were
    dropped (Schubfach's rop), for g = g1·2^63 + g0 given as four 32-bit
    parts (g1 high, g1 low, g0 high, g0 low) and cp < 2^60.

    cp is clobbered; scratch holds five lanes.
    """
    ch, cl, *product = scratch
    z = product[2]
    np.right_shift(cp, _S32, out=ch)
    np.bitwise_and(cp, _M32, out=cl)
    _product(g[2], g[3], ch, cl, cp, product)  # cp = high half of g0·cp
    _product(g[0], g[1], ch, cl, out, product, low=True)  # out, z = g1·cp
    z >>= _S1
    z += cp
    np.right_shift(z, _S63, out=cp)
    out += cp
    z &= _M63
    z += _M63
    z >>= _S63
    out |= z


def _negative(a, b, out):
    """out = 1 where a - b < 0, else 0, for operands less than 2^63 apart."""
    np.subtract(a, b, out=out)
    bits = out.view(_U)
    bits >>= _S63


def _shortest(bits, d, k, lanes):
    """Set d and k so that d·10^k is, for each normal double, the shortest
    decimal that reads back as it, and of two such the closer (ties to even).

    d gets 16 or 17 digits. Lanes holding zeros, subnormals, NaN or ±inf get
    meaningless but in-range values. lanes: 17 rows of scratch.
    """
    odd, c, irregular, h, *rest = lanes
    g, (vb, vbl, vbr, cp), scratch = rest[:4], rest[4:8], rest[8:]
    qi, hi, ii = vb.view(_I), h.view(_I), odd.view(_I)  # q and the table index, for now
    np.right_shift(bits, _S52, out=odd)
    odd &= _X7FF  # the biased exponent, for now
    np.bitwise_and(bits, _FRAC, out=c)
    # below a power of two the interval is asymmetric, except at the
    # smallest normal exponent, whose neighbour below is subnormal
    _negative(c, _U1, irregular)  # c == 0
    _negative(_U1, odd, h)  # biased exponent > 1
    irregular &= h
    c |= _HIDDEN
    np.subtract(odd.view(_I), _I(1075), out=qi)
    # k = floor(log10(2^q)), or floor(log10(3/4·2^q)) when irregular;
    # h = q + floor(log2(10^-k)) + 2 (Schubfach's fixed-point logarithms)
    np.multiply(qi, _I(661971961083), out=k)
    np.multiply(irregular.view(_I), _I(274743187321), out=hi)
    k -= hi
    k >>= _I(41)
    np.negative(k, out=hi)
    hi *= _I(913124641741)
    hi >>= _I(38)
    hi += qi
    hi += _I(2)
    np.subtract(k, _I(_K_MIN), out=ii)
    for part, lane in zip(_tables()[0], g):
        part.take(ii, out=lane, mode="clip")
    np.bitwise_and(c, _U1, out=odd)
    c <<= _S2
    np.left_shift(c, h, out=cp)
    _round_to_odd(g, cp, vb, scratch)
    np.add(c, irregular, out=cp)
    cp -= _U2
    cp <<= h
    _round_to_odd(g, cp, vbl, scratch)
    np.add(c, _U2, out=cp)
    cp <<= h
    _round_to_odd(g, cp, vbr, scratch)
    vbl += odd  # the rounding interval is open when c is odd
    vbr -= odd
    s, sp10, four = c, irregular, h
    pick, closer, u_in, w_in = scratch[:4]
    np.right_shift(vb, _S2, out=s)
    # one digit fewer: at most one multiple of 10 lies in the interval
    np.floor_divide(s, _U10, out=sp10)
    sp10 *= _U10
    np.left_shift(sp10, _S2, out=four)
    _negative(four, vbl, u_in)
    u_in ^= _U1  # vbl <= 4·sp10
    four += _U(40)
    _negative(vbr, four, w_in)
    w_in ^= _U1  # 4·(sp10 + 10) <= vbr
    # full length: s or s + 1, whichever is in; if both, the closer to
    # vb = 4v, ties to the even one
    np.left_shift(s, _S2, out=four)
    _negative(four, vbl, pick)
    pick ^= _U1  # vbl <= 4s
    four += _U2
    np.bitwise_and(s, _U1, out=closer)
    closer ^= _U1
    closer += four
    _negative(vb, closer, closer)  # vb < 4s + 2, or == when s is even
    four += _U2
    _negative(vbr, four, cp)  # 4(s + 1) > vbr
    closer |= cp
    pick &= closer
    np.subtract(s, pick, out=d)
    d += _U1
    u_in ^= w_in
    w_in *= _U10
    w_in += sp10
    w_in -= d
    w_in *= u_in
    d += w_in


def _layout(bits, d, k, out, lanes):
    """Write the value words of each lane into the rows of `out`, (n, 4).

    A lane that is not a normal double is laid out as zero ("0.0" with its
    sign). lanes: 12 rows of scratch, the first of which ends as 1 for the
    normal doubles and 0 for the rest.
    """
    _, word0, keep, before, dots, tail = _tables()
    normal, first, point, n, x, w = lanes[:6]
    pair, tmp, tmp2 = lanes[6:8], lanes[8:10], lanes[10:12]
    pi, wi = point.view(_I), w.view(_I)
    # the biased exponent plus one wraps to 0 for NaN and inf, 1 for zero and subnormals
    np.right_shift(bits, _S52, out=x)
    x += _U1
    x &= _X7FF
    _negative(_U1, x, normal)
    # 17 digits D0..D16 with value 0.D0D1... × 10^point; 0 and 1 for the rest
    _negative(d, _POW10_16, x)  # d has 16 digits
    np.subtract(k, x.view(_I), out=pi)
    pi += _I(16)
    pi *= normal.view(_I)
    pi += _I(1)
    x *= _U(9)
    x += _U1
    d *= x
    d *= normal
    np.floor_divide(d, _POW10_16, out=first)
    np.multiply(first, _POW10_16, out=x)
    d -= x
    np.floor_divide(d, _POW10_8, out=pair[0])  # D1-D8
    np.multiply(pair[0], _POW10_8, out=x)
    np.subtract(d, x, out=pair[1])  # D9-D16
    # SWAR: 8 digits to two 32-bit lanes of 4, four 16-bit lanes of 2, eight bytes of 1
    np.floor_divide(pair, _U(10000), out=tmp)
    np.multiply(tmp, _U(10000), out=tmp2)
    pair -= tmp2
    pair <<= _S32
    pair |= tmp
    np.multiply(pair, _U(5243), out=tmp)  # x // 100 = x·5243 >> 19 for x < 10^4
    tmp >>= _U(19)
    tmp &= _U(0x0000007F0000007F)
    np.multiply(tmp, _U(100), out=tmp2)
    pair -= tmp2
    pair <<= _U(16)
    pair |= tmp
    np.multiply(pair, _U(103), out=tmp)  # x // 10 = x·103 >> 10 for x < 100
    tmp >>= _U(10)
    tmp &= _U(0x000F000F000F000F)
    np.multiply(tmp, _U10, out=tmp2)
    pair -= tmp2
    pair <<= _U(8)
    pair |= tmp
    # n = significant digits = the highest set bit of a digit-nonzero mask
    np.add(pair, _U(0x7F7F7F7F7F7F7F7F), out=tmp)
    tmp >>= _U(7)
    tmp &= _U(0x0101010101010101)
    tmp *= _U(0x0102040810204080)  # gathers the eight byte bits into bits 56-63
    tmp >>= _U(56)
    np.left_shift(tmp[0], _S1, out=x)
    tmp[1] <<= _U(9)
    x |= tmp[1]
    x |= _U1
    np.copyto(w.view(np.float64), x, casting="unsafe")
    np.right_shift(w, _S52, out=n)
    n -= _U(1022)
    # the form: exponent, fixed below 1 or fixed at or above 1
    exp_form, below, above, t = tmp[0], tmp[1], tmp2[0], tmp2[1]
    ti = t.view(_I)
    _negative(pi, _I(-3), exp_form.view(_I))
    _negative(_I(16), pi, wi)
    exp_form |= w
    _negative(pi, _I(1), below.view(_I))
    np.subtract(_U1, exp_form, out=above)
    below &= above
    above -= below
    # word 0: sign, "0.000" prefix, the first digit and a point after it
    # in exponent form with n > 1 or fixed form with point == 1
    _negative(_U1, n, t)  # n > 1
    t &= exp_form
    _negative(pi, _I(2), wi)
    w &= above  # above 1 and point == 1
    t |= w
    np.subtract(_I(1), pi, out=wi)
    wi *= below.view(_I)
    w <<= _S1
    t += w
    np.right_shift(bits, _S63, out=w)
    w *= _U10
    t += w
    word0.take(ti, out=w, mode="clip")
    first += _U(0x30)
    first <<= _U(48)
    w |= first
    out[:, 0] = w
    np.add(pi, _I(308), out=ti)
    t *= exp_form
    tail.take(ti, out=first, mode="clip")  # word 3, but for a digit moved past a point
    # digits kept: n, and in fixed form at or above 1 up to the point and one after
    np.add(pi, _I(1), out=ti)
    ti -= n.view(_I)
    np.maximum(ti, _I(0), out=ti)
    t *= above
    t += n
    pair |= _ASCII_ZEROS
    for word in range(2):
        keep[word].take(ti, out=x, mode="clip")
        pair[word] &= x
    # the point after digit point - 1 in fixed form at or above 10
    np.subtract(pi, _I(1), out=ti)
    t *= above
    carry = n
    for word in range(2):
        before[word].take(ti, out=x, mode="clip")
        np.bitwise_and(pair[word], x, out=w)
        pair[word] ^= w
        np.right_shift(pair[word], _U(56), out=x)
        pair[word] <<= _U(8)
        pair[word] |= w
        if word:
            pair[word] |= carry
        np.copyto(carry, x)
        dots[word].take(ti, out=x, mode="clip")
        pair[word] |= x
        out[:, 1 + word] = pair[word]
    first |= carry
    out[:, 3] = first


def _render(values, out, lanes):
    """Write the value words of a 1-d float64 array into `out`, (n, 4)."""
    bits = values.view(_U)
    d, k = lanes[0], lanes[1].view(_I)
    _shortest(bits, d, k, lanes[2:19])
    _layout(bits, d, k, out, lanes[2:14])
    normal = lanes[2]
    if normal.min() == 0:
        for i in np.flatnonzero(normal == 0).tolist():
            if values[i] != 0:  # subnormal, NaN or ±inf
                text = repr(float(values[i])).encode()
                out[i, :3] = np.frombuffer(text.ljust(24, b"\0"), _WORD)
                out[i, 3] = _tables()[-1][0]


def _fields(texts) -> np.ndarray:
    """Texts as rows of NUL-padded little-endian words, one row per text."""
    data = [t.encode() for t in texts]
    width = -(-max(map(len, data), default=1) // 8) * 8
    if any(b"\0" in t for t in data):
        raise ValueError("line heads must not contain NUL")
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in data),
                         _WORD).reshape(len(data), width // 8)


def lines(heads, cols, values):
    """Yield, for each row i of the 2-d float64 block `values`, the text of
    its lines `heads[i] + cols[j] + repr(float(values[i, j])) + "\\r\\n"`.

    One pass renders up to BLOCK_VALUES values (at least one row) into
    fixed-width records, and each matrix row's records compact into its
    text. The records and scratch lanes of all passes share one buffer per
    call, an anonymous memory map rather than malloc heap, so that the
    pages go back to the system when the call ends and no long-lived
    allocation can settle between them.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n_rows, n_cols = values.shape
    if n_rows == 0 or n_cols == 0:
        return
    head_words, col_words = _fields(heads), _fields(cols)
    hw, cw = head_words.shape[1], col_words.shape[1]
    width = hw + cw + _VALUE_WORDS
    per_block = min(n_rows, max(1, BLOCK_VALUES // n_cols))
    size = per_block * n_cols
    memory = mmap.mmap(-1, (_LANES + width) * size * 8)
    lanes = np.frombuffer(memory, _U, _LANES * size).reshape(_LANES, size)
    records = np.frombuffer(memory, _WORD, width * size, lanes.nbytes).reshape(size, width)
    grid = records.reshape(per_block, n_cols, width)
    grid[:, :, hw:hw + cw] = col_words
    row_bytes = n_cols * width * 8
    for start in range(0, n_rows, per_block):
        block = values[start:start + per_block].reshape(-1)
        rows = block.size // n_cols
        grid[:rows, :, :hw] = head_words[start:start + rows, None, :]
        _render(block, records[:block.size, hw + cw:], lanes[:, :block.size])
        for begin in range(lanes.nbytes, lanes.nbytes + rows * row_bytes, row_bytes):
            yield memory[begin:begin + row_bytes].translate(None, b"\0").decode()
