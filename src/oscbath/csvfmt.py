"""The CSV outputs' one exact vectorised formatter: float rows as ``np.savetxt(..., fmt="%.17g")``."""

import numpy as np

#: values per ``csv_rows`` call in ``write_csv_rows``, which takes max(1, CSV_VALUES // columns)
#: rows at a time: 256 rows of a 25-column CSV. The call's scratch is a few word arrays of this
#: many values; on fewer values per call, its fixed numpy overhead dominates
CSV_VALUES = 6400

_ONES = np.uint64(0x0101010101010101)
#: |x| in [1e-11, 2**52) is formatted in numpy; other nonzero values by Python
_LOWEST, _HIGHEST = np.array([1e-11, 2.0**52]).view(np.uint64)
#: 5**(16 - X) at the case index c = X + 11 of the decimal exponents X = -11..15
_POW5 = np.array([5 ** (27 - c) for c in range(27)], dtype=np.uint64)


def _bytes_where(fill: int, cond) -> list:
    """Three little-endian words with byte ``fill`` at the body bytes j = 0..23 where cond(j)."""
    return [int.from_bytes(bytes(fill if cond(8 * w + k) else 0 for k in range(8)), "little")
            for w in range(3)]


def _slot_tables():
    """Per case (X = -11..15, then zero): prefix and suffix words, and masks over the body.

    A value's 17 digit characters c_0..c_16 become an 18-byte body: c_j at
    byte j before the point (j < p), the point at byte p (none if p = 17) and
    c_(j-1) after it. Digits from c_keep on may be trailing zeros, which go.
    """
    cases = []
    for x in [*range(-11, 16), None]:
        if x is None:
            prefix, suffix, p, keep = b"0", b"", 17, 0
        elif x < -4:
            prefix, suffix, p, keep = b"", b"e-%02d" % -x, 1, 1
        elif x < 0:
            prefix, suffix, p, keep = b"0." + b"0" * (-x - 1), b"", 17, 1
        else:
            prefix, suffix, p, keep = b"", b"", x + 1, x + 1
        cases.append([int.from_bytes(b"\0" + prefix, "little"), int.from_bytes(b"\0\0" + suffix, "little"),
                      *_bytes_where(0xFF, lambda j: j < p), *_bytes_where(0xFF, lambda j: j > p),
                      *_bytes_where(1, lambda j: j == p < 17), *_bytes_where(1, lambda j: j < keep)])
    t = np.array(cases, dtype=np.uint64).T
    return t[0], t[1], t[2:5], t[5:8], t[8:11], t[11:14]


_PREFIX, _SUFFIX, _BEFORE, _AFTER, _POINT, _KEEP = _slot_tables()


def _scaled(mant, expo, c):
    """floor(|x| 10**(16 - X)) for X = c - 11, the right shift that gave it, and whether it rounds up.

    |x| = mant 2**(expo - 1075), so |x| 10**k = mant 5**k / 2**s with
    s = 1075 - expo - k. The product (at most 116 bits) is formed in two
    64-bit limbs and shifted, rounding half to even; a negative s wraps to a
    huge shift.
    """
    pw = np.take(_POW5, c)
    s = (c + np.uint64(1048)) - expo
    mh, ml, ph, pl = mant >> 32, mant & 0xFFFFFFFF, pw >> 32, pw & 0xFFFFFFFF
    low = ml * pl
    mid = mh * pl + ml * ph
    lo = low + (mid << 32)
    hi = mh * ph + (mid >> 32) + (lo < low)
    q = (lo >> s) | (hi << (64 - s))
    rest = lo & ((np.uint64(1) << s) - 1)
    half = (np.uint64(1) << s) >> 1
    return q, s, (rest > half) | ((rest == half) & (half > 0) & (q & 1 == 1))


def _digit_word(v):
    """The 8 decimal digits of v < 10**8 as the bytes of a word, most significant first."""
    hi4 = v // 10_000
    x = hi4 | ((v - hi4 * 10_000) << 32)  # two 4-digit lanes
    h = ((x * 5243) >> 19) & 0x0000007F0000007F  # lane // 100
    y = h | ((x - h * 100) << 16)  # four 2-digit lanes
    t = ((y * 103) >> 10) & 0x000F000F000F000F  # lane // 10
    return t | ((y - t * 10) << 8)


def csv_rows(rows: np.ndarray) -> bytes:
    """The rows of a 2-D float array as ``",".join(["%.17g"] * cols) % tuple(row) + "\n"`` formats them.

    Exact and vectorised, for about ``CSV_VALUES`` values per call. Each |x| in
    [1e-11, 2**52) gets its 17 significant digits D = round(|x| 10**(16 - X)),
    half to even, by integer arithmetic on its mantissa (``_scaled``). The
    decimal exponent X is guessed from ``log10`` and corrected from the
    truncated quotient. Each value fills a 32-byte slot (sign, prefix, body,
    suffix and separator) with NUL where ``%.17g`` writes nothing, and the
    NULs are cut. Zeros have their own case. Every other value (tiny, huge,
    non-finite) is formatted by Python into its slot, so no result depends on
    the window.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    n_rows, n_cols = rows.shape
    bits = rows.reshape(-1).view(np.uint64)
    mag = bits & np.uint64(2**63 - 1)
    zero = mag == 0
    fast = (mag - _LOWEST) < (_HIGHEST - _LOWEST)
    mag[~fast] = np.float64(1.0).view(np.uint64)  # a stand-in: Python formats these
    c = np.log10(mag.view(np.float64))
    c += 11
    c = np.clip(c, 0, 26).astype(np.uint64)
    expo, mant = mag >> 52, (mag & np.uint64(2**52 - 1)) | np.uint64(2**52)
    q, s, up = _scaled(mant, expo, c)
    redo = np.flatnonzero((q < 10**16) | (q >= 10**17))  # log10 was one off
    if redo.size:
        c[redo] = np.where(q[redo] < 10**16, c[redo] - 1, c[redo] + 1)  # 0 - 1 wraps past 26
        fast[redo] &= c[redo] <= 26
        c[redo] = np.minimum(c[redo], 26)
        q[redo], s[redo], up[redo] = _scaled(mant[redo], expo[redo], c[redo])
        fast &= (q >= 10**16) & (q < 10**17)
    d = q + up
    # no double in the window rounds up to 10**17 (the nearest that do are 1e-14 and 1e+98)
    fast &= (s < 64) & (d < 10**17)
    c[zero], d[zero] = 27, 0
    c = c.astype(np.intp)
    del q, s, up, mant, expo, mag  # the digit stage needs none of these; freeing them lowers the peak

    lead = d // 10**16
    rest = d - lead * 10**16
    hi8 = rest // 10**8
    high, low = _digit_word(hi8), _digit_word(rest - hi8 * 10**8)
    digits = [lead | (high << 8), (high >> 56) | (low << 8), low >> 56]  # c_0..c_16
    del d, lead, rest, hi8, high, low
    later, further = [None] * 3, np.uint64(0)  # byte j of later[w]: a digit from c_(8w+j) on is nonzero
    for w in (2, 1, 0):
        f = (digits[w] | digits[w] >> 1 | digits[w] >> 2 | digits[w] >> 3) & _ONES
        f |= f >> 8
        f |= f >> 16
        later[w] = f | f >> 32 | further
        further = (later[w] != 0) * _ONES
    at_point = [np.take(_POINT[w], c) for w in range(3)]
    point = ((later[0] & at_point[0]) | (later[1] & at_point[1]) | (later[2] & at_point[2])) != 0

    slots = np.empty((n_rows, n_cols, 4), dtype="<u8")
    words = slots.reshape(-1, 4)
    words[:, 0] = np.take(_PREFIX, c) | (bits >> 63) * ord("-")
    before = np.uint64(0)
    for w, zeros in enumerate((0x30 * _ONES, 0x30 * _ONES, np.uint64(0x30))):
        chars = (digits[w] + zeros) & ((later[w] | np.take(_KEEP[w], c)) * 0xFF)
        words[:, 1 + w] = ((chars & np.take(_BEFORE[w], c))
                           | (((chars << 8) | (before >> 56)) & np.take(_AFTER[w], c))
                           | at_point[w] * point * np.uint64(ord(".")))  # if a nonzero digit follows
        before = chars
    words[:, 3] |= np.take(_SUFFIX, c)
    slots[:, :, 3] |= np.uint64(ord(",") << 48)
    slots[:, -1, 3] ^= np.uint64((ord(",") ^ ord("\n")) << 48)
    raw = slots.view(np.uint8).reshape(-1, 32)
    for i in np.flatnonzero(~fast & ~zero):
        text = b"%.17g" % rows.flat[i]
        raw[i, :30] = 0
        raw[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return slots.tobytes().translate(None, b"\0")


def write_csv_rows(out, data: np.ndarray) -> None:
    """Append the rows of ``data`` to the open text file ``out``, formatted by ``csv_rows``."""
    rows = max(1, CSV_VALUES // data.shape[1])
    for start in range(0, len(data), rows):
        out.write(csv_rows(data[start : start + rows]).decode("ascii"))
