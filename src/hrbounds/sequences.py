"""Partial sums, the positive/negative-part decomposition, and row blocks.

For increments X_1..X_n this module produces S_k = sum_{i<=k} X_i together
with u_k = sum_{i<=k} max(X_i, 0) and v_k = sum_{i<=k} max(-X_i, 0).  By
construction S_k = u_k - v_k, |S_k| <= u_k + v_k, and u, v are
componentwise nondecreasing, which is what the bounds exploit.

Prefix sums are computed chunk by chunk (``prefix_sum_chunks``), at most
``CHUNK`` entries at a time, in work buffers of that size.  Two totals carry
from one chunk of a row to the next: the float running sum, and the running
sum of its rounding errors.  Long rows (n > 10**4) use compensated
accumulation: the exact rounding error of every step of the running sum is
recovered with TwoSum, and the running total of those errors is added back.
Convergence demonstrations run to n = 10**6 where naive accumulation drift
could otherwise mask the effect being shown.  Shorter rows are a plain
cumsum, carried into the next chunk as its first addend.

Trajectory rows are drawn in blocks: block b holds rows [b*m, (b+1)*m) with
m = ``block_rows(n)``, and is one draw from ``SeedSpec(seed, b)``, read in
chunks (``distributions.draw_chunks``).  A block of several rows fits in one
chunk; a longer row is one block of its own.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import CHUNK, RandomSequenceSpec, SeedSpec, draw_chunks
from .errors import DataError, ValidationError

_PLAIN_CUMSUM_MAX = 10**4


def prefix_sum_chunks(pieces: Iterable[np.ndarray], n: int, compensated: bool | None = None,
                      check_finite: bool = False,
                      out: np.ndarray | None = None) -> Iterator[tuple[int, int, np.ndarray]]:
    """Prefix sums of rows of n increments, read and yielded chunk by chunk.

    ``pieces`` are consecutive flat pieces, of at most ``CHUNK`` entries, of a
    row-major ``(rows, n)`` array; each holds whole rows or lies inside one
    row, as the pieces of a ``for_each_block`` block do.  For each piece
    this yields ``(row, col, s)``: ``s`` is the ``(k, c)`` array of the sums
    S_{col+1}..S_{col+c} of the piece's k rows, the first of which is
    ``row``.  It is ``out[row:row + k, col:col + c]`` when ``out`` is
    given, and otherwise a view of a work buffer that the next piece
    overwrites.  ``out`` may be the array the pieces are views of, since a
    piece is read before its sums are written; and with ``out``, a piece of
    whole rows summed without compensation may be of any size.

    The float total and the error total carry from one piece of a row to
    the next, so the sums are bit for bit those of the whole row.
    ``compensated`` (by default n > 10**4) selects TwoSum compensation, for
    one-row pieces: error per entry is about eps * |S_k| + (k * eps)^2 *
    sum_{i<=k} |X_i|, versus the O(k * eps)-growth of a naive running sum.
    With ``check_finite`` a non-finite increment raises ``DataError`` with
    its index in the row, before that piece is summed.
    """
    n = int(n)
    if compensated is None:
        compensated = n > _PLAIN_CUMSUM_MAX
    # three 64 KiB work buffers, below the allocator's mmap threshold
    buf, b, err = np.empty(CHUNK + 1), np.empty(CHUNK), np.empty(CHUNK)
    row = col = 0
    total = carry = 0.0   # float running sum and running sum of its rounding errors
    for x in pieces:
        c = x.size
        k, width = (c // n, n) if c > n else (1, c)
        if check_finite and not np.isfinite(x).all():
            bad = int(np.argmin(np.isfinite(x)))
            raise DataError("non-finite increment", index=col + bad % width)
        s = (buf[1:c + 1] if out is None else out[row:row + k, col:col + width]).reshape(k, width)
        if compensated:
            p = buf[:c + 1]
            p[0] = total
            p[1:] = x
            np.cumsum(p, out=p)
            prev, cur = p[:-1], p[1:]
            np.subtract(cur, prev, out=b[:c])
            e = np.subtract(cur, b[:c], out=err[:c])
            np.subtract(prev, e, out=e)
            e += np.subtract(x, b[:c], out=b[:c])   # TwoSum: prev + x == cur + e exactly
            e[0] += carry
            np.cumsum(e, out=e)
            total, carry = float(p[-1]), float(e[-1])
            np.add(cur, e, out=s[0])
        else:
            if col:   # the row's running sum is the first addend of this piece
                s[0] = x
                s[0, 0] += total
                x = s
            np.cumsum(x.reshape(k, width), axis=1, out=s)
            total = float(s[0, -1])
        yield row, col, s
        col += width
        if col == n:
            row, col, total, carry = row + k, 0, 0.0, 0.0


def _chunks(x: np.ndarray) -> Iterator[np.ndarray]:
    return (x[lo:lo + CHUNK] for lo in range(0, x.size, CHUNK))


def _row_prefix_sums(x: np.ndarray, compensated: bool | None = None,
                     check_finite: bool = False) -> np.ndarray:
    out = np.empty((1, x.size), dtype=np.float64)
    for _ in prefix_sum_chunks(_chunks(x), x.size, compensated, check_finite, out):
        pass
    return out[0]


def compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Prefix sums with the rounding error of every step added back.

    Within each chunk, cumsum gives the running float sums p_k, TwoSum gives
    the exact error of each step p_k = fl(p_{k-1} + X_k), and the cumsum of
    those errors corrects p_k (see ``prefix_sum_chunks``).
    """
    return _row_prefix_sums(np.ascontiguousarray(x, dtype=np.float64).ravel(), compensated=True)


def _vector(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DataError("expected a nonempty 1-d vector of increments")
    return x


def _check_finite(x: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DataError("non-finite increment", index=int(bad[0]))
    return x


def partial_sums(x) -> np.ndarray:
    """S_k = X_1 + ... + X_k for k = 1..n (S_0 = 0 is implicit)."""
    return _row_prefix_sums(_vector(x), check_finite=True)


def decompose(x) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative-part prefix sums (u, v) with u - v = partial sums."""
    x = _check_finite(_vector(x))
    return _row_prefix_sums(np.maximum(x, 0.0)), _row_prefix_sums(np.maximum(-x, 0.0))


def block_rows(n: int) -> int:
    """Rows per seeding block at horizon n: at most one chunk of entries, at least one row."""
    return max(1, CHUNK // int(n))


def for_each_block(spec: RandomSequenceSpec, rows: int, master_seed: int, threads: int,
                   take: Callable[[int, Iterator[np.ndarray]], object]) -> Iterator:
    """Draw rows [0, rows) of spec's law block by block; yield take(first_row, pieces) in order.

    ``pieces`` is the block's ``draw_chunks`` from ``SeedSpec(master_seed, b)``.
    Every block is drawn whole and the last one is then cut to size, so a
    batch of R rows is a row-prefix of any larger batch.  Threads take whole
    blocks, so the rows do not depend on ``threads``; ``take`` may run on
    several threads at once.  At most ``2 * threads`` blocks are in flight,
    so the draw does not run ahead of a slow reader.
    """
    n = int(spec.n)
    m = block_rows(n)

    def one(b: int):
        pieces = draw_chunks(spec, SeedSpec(master_seed, b), rows=m)
        # only a block of several rows is cut, and it is a single piece
        return take(b * m, (x[:(rows - b * m) * n] for x in pieces))

    blocks = range(-(-rows // m))
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            window = deque()
            for b in blocks:
                if len(window) == 2 * threads:
                    yield window.popleft().result()
                window.append(pool.submit(one, b))
            while window:
                yield window.popleft().result()
    else:
        for b in blocks:
            yield one(b)


def _sum_rows(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Prefix sums of each row of the contiguous ``(R, n)`` array a, into out (default a)."""
    n = a.shape[1]
    # up to n = 10**4 all rows are one piece, one cumsum; longer rows are
    # summed chunk by chunk
    parts = [a.reshape(-1)] if n <= _PLAIN_CUMSUM_MAX else (c for row in a for c in _chunks(row))
    out = a if out is None else out
    for _ in prefix_sum_chunks(parts, n, out=out):
        pass
    return out


@dataclass(frozen=True, eq=False)
class RowBlock:
    """Rows [first, first + len(x)) of a batch: the increments x, an ``(rows, n)`` array.

    The prefix sums s and the one-sided walks u and v are built from x on
    first read and then kept, so a reader of s alone pays for neither walk;
    each walk is summed in place of its positive (or negative) parts.  Row
    sums do not depend on the other rows of the block, so every value is
    the one the whole batch's row would have.
    """

    first: int
    x: np.ndarray

    @cached_property
    def s(self) -> np.ndarray:
        """S_k = X_1 + ... + X_k, per row."""
        return _sum_rows(self.x, np.empty_like(self.x))

    @cached_property
    def u(self) -> np.ndarray:
        """u_k = sum_{i<=k} max(X_i, 0), per row."""
        return _sum_rows(np.maximum(self.x, 0.0))

    @cached_property
    def v(self) -> np.ndarray:
        """v_k = sum_{i<=k} max(-X_i, 0), per row."""
        v = np.negative(self.x)
        return _sum_rows(np.maximum(v, 0.0, out=v))


@dataclass(frozen=True)
class TrajectoryBatch:
    """R independent trajectories of spec's law: a description of rows, not the rows.

    Row r is row ``r % m`` of ``sample_iid(spec, SeedSpec(master_seed, r // m),
    rows=m)``, with m = ``block_rows(n)``.  A row depends on the seed and n,
    not on ``threads``, and a batch of R rows is a row-prefix of any larger
    batch.  ``blocks()`` draws the rows, one `RowBlock` at a time in row
    order; a consumer folds them and keeps only what it needs.
    """

    spec: RandomSequenceSpec
    replications: int
    master_seed: int
    threads: int = 1

    @classmethod
    def generate(cls, spec: RandomSequenceSpec, replications: int, master_seed: int,
                 threads: int = 1) -> "TrajectoryBatch":
        """The batch of ``replications`` rows; nothing is drawn until ``blocks()`` is read."""
        replications = int(replications)
        if replications < 1:
            raise ValidationError("replication count must be >= 1")
        return cls(spec=spec, replications=replications, master_seed=int(master_seed),
                   threads=int(threads))

    @property
    def n(self) -> int:
        return int(self.spec.n)

    def blocks(self) -> Iterator[RowBlock]:
        """The rows, drawn block by block and yielded in row order."""
        n = self.n

        def gather(first: int, pieces: Iterator[np.ndarray]) -> RowBlock:
            pieces = list(pieces)
            x = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            return RowBlock(first, x.reshape(-1, n))

        return for_each_block(self.spec, self.replications, self.master_seed, self.threads, gather)

    def fold(self, *takers) -> None:
        """Hand every block, in row order, to each taker's ``take(block)``: one draw for all."""
        for block in self.blocks():
            for taker in takers:
                taker.take(block)
