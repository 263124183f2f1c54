"""Exact ``"%.17g"`` text of a float64 array, computed a chunk at a time.

``join(a, sep)`` returns ``sep.join("%.17g" % v for v in a)`` byte for byte,
at a fraction of the per-element cost; ``pieces(a, sep)`` yields the same
text as ASCII ``bytes``, one chunk at a time, for a caller that writes it
to a binary file without joining or encoding.  It works through
``distributions.CHUNK`` entries at a time in reused work buffers:

1. E = floor(log10|x|), and y = |x| * 10^(16 - E) as a double-double
   product of x with a table of 10^k, each entry a correctly rounded
   (hi, lo) pair.  Rounding y gives the 17-digit integer D; D = 10^17 carries
   into E + 1.
2. The exponent after rounding picks the ``%g`` layout: fixed notation iff
   -4 <= E < 17, otherwise exponent notation with at least two exponent
   digits; trailing zeros are stripped, and a set sign bit writes ``-``.
3. Each entry's bytes go into one row of a byte template: a sign slot, five
   prefix slots ("0.000" of fixed notation below 1), 18 digit slots and five
   exponent slots ("e-308"), with a zero in each slot the layout does not
   use.  The 17 digits fill digit slots 0-16.  Where a "." falls among them,
   after digit ``lead(E) - 1``, the digits from that slot on move one slot
   right and the "." takes it, so a row has one dot slot, not one after
   every digit.  ``bytearray.translate`` drops the zeros (``np.compress``
   would build an 8-byte index for every byte it keeps).

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
# "0.000" prefix of fixed notation below 1, 18 slots for the 17 digits and
# at most one ".", then "e", the exponent's sign and three exponent digits.
# A zero byte is dropped.  Slots 0-7 and 21-28 are written as two words.
_SIGN, _PRE, _DIG, _EXP, _WIDTH = 0, 1, 6, 24, 29
_J17 = np.arange(17, dtype=np.uint8)[:, None]


@cache
def _tables():
    """Lookup tables indexed by E + _EMAX, built on first use, read-only.

    ``hh, hl, lo``: 10^(16 - E) = hi + lo, hi and lo each correctly rounded
    from integer arithmetic (CPython's int-to-float conversion and int true
    division round correctly), and hi = hh + hl exactly with each part at
    most 26 bits wide.  ``lead``: digits before the "." at exponent E (0 in
    fixed notation below 1, 1 in exponent notation).  ``prefix`` and
    ``suffix``: words whose little-endian bytes 1-5 hold the 5 prefix bytes,
    and bytes 3-7 the 5 exponent bytes, at exponent E, zero where absent.
    And ``quad``, not indexed by E: the four ASCII digits of 0..9999,
    (4, 10^4).
    """
    hi, lo = [], []
    lead = np.empty(2 * _EMAX + 1, dtype=np.uint8)
    prefix, suffix = [], []
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
        text = text.encode("ascii")
        prefix.append(int.from_bytes(text[:5], "little") << 8)
        suffix.append(int.from_bytes(text[5:], "little") << 24)
    hi = np.array(hi)
    c = hi * _SPLIT
    hh = c - (c - hi)
    quad = np.frombuffer("".join(f"{i:04d}" for i in range(10 ** 4)).encode("ascii"),
                         dtype=np.uint8).reshape(-1, 4).T.copy()
    tables = (hh, hi - hh, np.array(lo), lead,
              np.array(prefix, dtype=np.uint64), np.array(suffix, dtype=np.uint64), quad)
    for t in tables:
        t.setflags(write=False)
    return tables


class _Work:
    """Work buffers for chunks of up to m entries, reused from chunk to chunk
    so that no chunk allocates (and faults in) fresh pages.  The float rows
    ``f`` of ``_decimal`` are dead once it returns, so the affix words, and
    after them the digit rows and their mask, are views of the same memory."""

    def __init__(self, m: int, sep: bytes):
        s = len(sep)
        width = s + _WIDTH
        self.raw = bytearray(m * width)
        self.rows = np.frombuffer(self.raw, dtype=np.uint8).reshape(m, width)
        self.rows[:, :s] = np.frombuffer(sep, dtype=np.uint8)
        self.f = np.empty((8, m))
        self.n = np.empty((4, m), dtype=np.int64)
        self.b = np.empty((4, m), dtype=bool)
        self.u8 = np.empty((3, m), dtype=np.uint8)
        self.words = self.f[:2].view(np.uint64)
        shared = self.f.reshape(-1).view(np.uint8)
        self.digits = shared[:18 * m].reshape(18, m)
        self.slots = shared[18 * m:37 * m].reshape(19, m)
        self.mask = shared[37 * m:54 * m].reshape(17, m)
        self.col = np.arange(m)
        # slots 0-7 and 21-28 of every entry, as unaligned little-endian words
        self.ends = [np.ndarray((m,), dtype="<u8", buffer=self.raw, offset=s + i,
                                strides=(width,)) for i in (_SIGN, _WIDTH - 8)]


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
    return b"".join(pieces(a, sep)).decode("ascii")


def pieces(a, sep: str):
    """Yield ``join(a, sep)`` as ASCII ``bytes`` pieces, one per chunk of
    ``a``: the first without a leading ``sep``, every later one starting
    with it."""
    a = np.asarray(a, dtype=np.float64).ravel()
    if a.size == 0:
        return
    *_, lead, prefix, suffix, quad = _tables()
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
        # the sign and prefix, and the exponent, as one word each: the digit
        # slots they cover are written over below
        t, u = w.words[:, :k]
        np.take(prefix, ei, out=t, mode="clip")
        np.multiply(neg, np.uint64(ord("-")), out=u)
        t |= u
        w.ends[0][:k] = t
        np.take(suffix, ei, out=t, mode="clip")
        w.ends[1][:k] = t
        dg, slots, mask = w.digits[:, :k], w.slots[:, :k], w.mask[:, :k]
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
        dg[17] = 0
        # significant digits, kept digits (the trailing zeros stripped)
        np.not_equal(dg[:17], 48, out=mask)
        mask *= _J17 + 1
        np.max(mask, axis=0, out=ndig)
        np.take(lead, ei, out=before, mode="clip")
        np.maximum(before, ndig, out=nd)
        np.less(_J17, nd, out=mask)
        dg[:17] *= mask
        # The "." goes into digit slot `before` where a digit follows it, and
        # the digits from that slot on move one slot right.  A row without a
        # "." in its digits (no digit follows, or "0." is its prefix) gets
        # before = 18: nothing moves, and its "." lands in slot 18, which is
        # not written out.
        undotted, zero_lead = w.b[1, :k], w.b[3, :k]
        np.less_equal(ndig, before, out=undotted)
        np.equal(before, 0, out=zero_lead)
        undotted |= zero_lead
        np.multiply(undotted, np.uint8(18), out=nd)
        np.maximum(before, nd, out=before)
        np.less(_J17 + 1, before, out=mask)  # slot j keeps digit j, else takes j - 1
        np.subtract(dg[1:], dg[:17], out=slots[1:18])
        slots[1:18] *= mask
        slots[1:18] += dg[:17]
        slots[0] = dg[0]
        np.multiply(before, np.int64(m), out=at)
        at += w.col[:k]
        w.slots.reshape(-1)[at] = ord(".")
        ent = w.rows[:k, s:]
        ent[:, _DIG:_EXP] = slots[:18].T
        bad = np.flatnonzero(slow)
        if bad.size:  # their "%.17g" texts, one after another, scattered into their rows
            texts = ["%.17g" % v for v in x[bad].tolist()]
            size = np.fromiter(map(len, texts), np.intp, bad.size)
            end = np.cumsum(size)
            ent[bad] = 0
            at_text = np.repeat(bad * width + s - (end - size), size) + np.arange(end[-1])
            np.put(w.rows, at_text, np.frombuffer("".join(texts).encode("ascii"), np.uint8))
        w.rows[k:] = 0  # the last chunk may be short
        # a bytes copy keeps only the text: the bytearray that translate
        # returns keeps its template-sized allocation
        text = w.raw.translate(None, b"\0")
        yield bytes(memoryview(text)[s:] if lo == 0 else text)
