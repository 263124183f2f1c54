"""Exact ``"%.17g"`` text of a float64 array, computed a chunk at a time.

``join(a, sep)`` returns ``sep.join("%.17g" % v for v in a)`` byte for byte,
at a fraction of the per-element cost; ``pieces(a, sep)`` yields the same
text one chunk at a time, for a caller that writes it without joining.  It
works through ``distributions.CHUNK`` entries at a time in reused work
buffers:

1. E = floor(log10|x|), and y = |x| * 10^(16 - E) as a double-double
   product of x with a table of 10^k, each entry a correctly rounded
   (hi, lo) pair.  Rounding y gives the 17-digit integer D; D = 10^17 carries
   into E + 1.
2. The exponent after rounding picks the ``%g`` layout: fixed notation iff
   -4 <= E < 17, otherwise exponent notation with at least two exponent
   digits; trailing zeros are stripped, and a set sign bit writes ``-``.
3. Each entry's bytes go into one row of a byte template holding every
   character any layout can need, with a zero in each slot the layout does
   not use; ``bytearray.translate`` drops the zeros (``np.compress`` would
   build an 8-byte index for every byte it keeps).

Error bound.  The product is p + t with p = fl(|x| hi) (an integer, since
p >= 2^53 for every y in [10^16, 10^17)) and t = err(|x| hi) + fl(|x| lo),
err from Dekker's exact product.  The table error |hi + lo - 10^k| <=
2^-106 10^k, the rounding of |x| lo (|x lo| <= 2^-52 y < 23) and the one
addition in t each stay below 2e-15, so |p + t - y| < 1e-14 units of the
last digit.  Rounding p + t therefore gives D exactly unless its fraction
lies within that distance of 1/2.  These entries go through ``"%.17g" %``
one at a time instead:

- subnormals, non-finite values and |x| outside (1e-280, 1e280), which
  keeps every product term normal and every Veltkamp split below the float
  range (zeros are written by the template: "0", "-0");
- an entry whose fraction lies within 1e-9 of 1/2 (a tie, or nearly one);
- an entry whose unrounded p + t falls outside [10^16, 10^17), where log10
  missed E by one near a power of ten.  Inside the range, a value within
  1e-14 of either end gives the same text as the true y would at the
  neighbouring exponent: both round to 10^16 at E, or carry from 10^17
  to 10^16 at E + 1.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .distributions import CHUNK

# Largest |E| in the tables.  Entries with |x| in (1e-280, 1e280) have
# E in [-280, 279]; log10 may miss by one, and rounding may carry one more.
_EMAX = 281
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting factor

# Bytes of one entry after the separator, in output order: the sign, the
# "0.000" prefix of fixed notation below 1, the 17 digits with a "." slot
# after each of the first 16, then "e", the exponent's sign and three
# exponent digits.  A zero byte is dropped.
_SIGN, _PRE, _DIG, _EXP, _WIDTH = 0, 1, 6, 39, 44
_J17 = np.arange(17, dtype=np.uint8)[:, None]


@cache
def _tables():
    """Lookup tables indexed by E + _EMAX, built on first use, read-only.

    ``hh, hl, lo``: 10^(16 - E) = hi + lo, hi and lo each correctly rounded
    from integer arithmetic (CPython's int-to-float conversion and int true
    division round correctly), and hi = hh + hl exactly with each part at
    most 26 bits wide.  ``lead``: digits before the "." slot at exponent E
    (0 in fixed notation below 1, 1 in exponent notation).  ``affix``: the
    5 prefix and 5 exponent bytes at exponent E, zero where absent.  And
    ``quad``, not indexed by E: the four ASCII digits of 0..9999, (4, 10^4).
    """
    hi, lo = [], []
    lead = np.empty(2 * _EMAX + 1, dtype=np.uint8)
    affix = np.zeros((2 * _EMAX + 1, 10), dtype=np.uint8)
    for j, e in enumerate(range(-_EMAX, _EMAX + 1)):
        k = 16 - e
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            d = 10 ** -k
            hi.append(1 / d)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * d) / (den * d))
        if -4 <= e < 17:
            lead[j] = max(e + 1, 0)
            text = ("0." + "0" * (-e - 1) if e < 0 else "").ljust(10, "\0")
        else:
            lead[j] = 1
            digits = f"{abs(e):03d}"
            text = "\0" * 5 + ("e-" if e < 0 else "e+") + (
                digits if abs(e) >= 100 else "\0" + digits[1:])
        affix[j] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    quad = np.frombuffer("".join(f"{i:04d}" for i in range(10 ** 4)).encode("ascii"),
                         dtype=np.uint8).reshape(-1, 4).T.copy()
    tables = hh, hi - hh, np.array(lo), lead, affix, quad
    for t in tables:
        t.setflags(write=False)
    return tables


class _Work:
    """Work buffers for chunks of up to m entries, reused from chunk to chunk
    so that no chunk allocates (and faults in) fresh pages."""

    def __init__(self, m: int, sep: bytes):
        s = len(sep)
        self.raw = bytearray(m * (s + _WIDTH))
        self.rows = np.frombuffer(self.raw, dtype=np.uint8).reshape(m, s + _WIDTH)
        self.rows[:, :s] = np.frombuffer(sep, dtype=np.uint8)
        self.f = np.empty((8, m))
        self.n = np.empty((4, m), dtype=np.int64)
        self.b = np.empty((4, m), dtype=bool)
        self.u8 = np.empty((3, m), dtype=np.uint8)
        self.digits = np.empty((17, m), dtype=np.uint8)
        self.d17 = np.empty((17, m), dtype=np.uint8)
        self.affix = np.empty((m, 10), dtype=np.uint8)
        self.base = np.arange(m) * self.rows.shape[1]


def _decimal(x: np.ndarray, w: _Work):
    """Write the 17-digit integer D and E + _EMAX of each entry of the float64
    chunk x into w.n[0] and w.n[1]; return the sign bits and the entries the
    template cannot write, both views of w.b.  Zeros get D = 0 and E = 0."""
    k = x.size
    hh, hl, plo = _tables()[:3]
    ax, h1, h2, p, x1, x2, t, u = w.f[:, :k]
    d, e, r = w.n[:3, :k]
    neg, fast, slow, v = w.b[:, :k]
    np.signbit(x, out=neg)
    np.abs(x, out=ax)
    np.greater(ax, 1e-280, out=fast)
    np.less(ax, 1e280, out=v)
    fast &= v
    np.invert(fast, out=v)
    np.copyto(ax, 1.0, where=v)
    np.log10(ax, out=t)
    np.floor(t, out=t)
    np.copyto(e, t, casting="unsafe")
    e += _EMAX
    np.take(hh, e, out=h1, mode="clip")
    np.take(hl, e, out=h2, mode="clip")
    np.take(plo, e, out=t, mode="clip")
    t *= ax                              # fl(|x| lo)
    np.add(h1, h2, out=p)
    p *= ax                              # fl(|x| hi)
    np.multiply(ax, _SPLIT, out=x1)      # |x| = x1 + x2, Veltkamp
    np.subtract(x1, ax, out=x2)
    x1 -= x2
    np.subtract(ax, x1, out=x2)
    np.multiply(x1, h1, out=u)           # Dekker: |x| hi - p, exactly
    u -= p
    for y, z in ((x1, h2), (x2, h1), (x2, h2)):
        np.multiply(y, z, out=ax)
        u += ax
    t += u                               # y = p + t
    np.floor(t, out=u)
    t -= u                               # fraction of y
    np.copyto(d, p, casting="unsafe")
    np.copyto(r, u, casting="unsafe")
    d += r                               # floor(y)
    np.subtract(t, 0.5, out=u)
    np.abs(u, out=u)
    np.less(u, 1e-9, out=slow)
    np.less(d, 10 ** 16, out=v)
    slow |= v
    np.greater_equal(d, 10 ** 17, out=v)
    slow |= v
    np.greater(t, 0.5, out=v)
    d += v
    np.equal(d, 10 ** 17, out=v)         # carry into E + 1
    np.copyto(d, 10 ** 16, where=v)
    e += v
    np.invert(fast, out=v)
    slow |= v
    np.equal(x, 0, out=v)
    np.copyto(d, 0, where=v)
    np.copyto(e, _EMAX, where=v)
    slow &= ~v
    return neg, slow


def join(a, sep: str) -> str:
    """``sep.join("%.17g" % v for v in a)`` for a 1-D float64 array ``a``.

    ``sep`` is ASCII without NUL bytes."""
    return "".join(pieces(a, sep))


def pieces(a, sep: str):
    """Yield ``join(a, sep)`` in consecutive pieces, one per chunk of ``a``:
    the first without a leading ``sep``, every later one starting with it."""
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size == 0:
        return
    *_, lead, affix, quad = _tables()
    sepb = sep.encode("ascii")
    s = len(sepb)
    m = min(a.size, CHUNK)
    w = _Work(m, sepb)
    width = w.rows.shape[1]
    for lo in range(0, a.size, m):
        x = a[lo:lo + m]
        k = x.size
        neg, slow = _decimal(x, w)
        d, ei, q, at = w.n[:, :k]
        before, ndig, nd = w.u8[:, :k]
        dg, d17 = w.digits[:, :k], w.d17[:, :k]
        # digits: D = top 10^16 + (g1 10^4 + g2) 10^8 + g3 10^4 + g4
        np.floor_divide(d, 10 ** 8, out=q)
        np.multiply(q, 10 ** 8, out=at)
        d -= at
        np.floor_divide(q, 10 ** 8, out=at)
        np.add(at, 48, out=dg[0], casting="unsafe")
        at *= 10 ** 8
        q -= at
        for row, g in ((1, q), (9, d)):
            np.floor_divide(g, 10 ** 4, out=at)
            np.take(quad, at, axis=1, out=dg[row:row + 4], mode="clip")
            at *= 10 ** 4
            np.subtract(g, at, out=at)
            np.take(quad, at, axis=1, out=dg[row + 4:row + 8], mode="clip")
        # significant digits, kept digits and the "." after digit before - 1
        np.not_equal(dg, 48, out=d17)
        d17 *= _J17 + 1
        np.max(d17, axis=0, out=ndig)
        np.take(lead, ei, out=before, mode="clip")
        np.maximum(before, ndig, out=nd)
        np.less(_J17, nd, out=d17)
        dg *= d17
        ent = w.rows[:k, s:]
        ent[:, _DIG:_EXP:2] = dg.T
        # a row without a "." writes it into its sign slot, overwritten below
        np.multiply(before, 2, out=at)
        at += s + _DIG - 1
        undotted = np.less_equal(ndig, before, out=w.b[3, :k])
        np.copyto(at, s + _SIGN, where=undotted)
        at += w.base[:k]
        np.put(w.rows, at, ord("."), mode="clip")
        np.multiply(neg, np.uint8(ord("-")), out=ent[:, _SIGN])
        fix = np.take(affix, ei, axis=0, out=w.affix[:k], mode="clip")
        ent[:, _PRE:_DIG] = fix[:, :5]
        ent[:, _EXP:] = fix[:, 5:]
        bad = np.flatnonzero(slow)
        if bad.size:  # their "%.17g" texts, one after another, scattered into their rows
            texts = ["%.17g" % v for v in x[bad].tolist()]
            size = np.fromiter(map(len, texts), np.intp, bad.size)
            end = np.cumsum(size)
            ent[bad] = 0
            at_text = np.repeat(bad * width + s - (end - size), size) + np.arange(end[-1])
            np.put(w.rows, at_text, np.frombuffer("".join(texts).encode("ascii"), np.uint8))
        w.rows[k:] = 0  # the last chunk may be short
        text = w.raw.translate(None, b"\0").decode("ascii")
        np.put(w.rows, at, 0, mode="clip")
        ent[bad] = 0
        yield text[s:] if lo == 0 else text
