"""Partial sums, the positive/negative-part decomposition, and row blocks.

For increments X_1..X_n this module produces S_k = sum_{i<=k} X_i together
with u_k = sum_{i<=k} max(X_i, 0) and v_k = sum_{i<=k} max(-X_i, 0).  By
construction S_k = u_k - v_k, |S_k| <= u_k + v_k, and u, v are
componentwise nondecreasing, which is what the bounds exploit.

Long prefix sums (n > 10**4) use compensated accumulation: the exact
rounding error of every step of the running sum is recovered with TwoSum,
and the running total of those errors is added back.  Convergence
demonstrations run to n = 10**6 where naive accumulation drift could
otherwise mask the effect being shown.

Trajectory rows are drawn in blocks: block b holds rows [b*m, (b+1)*m) with
m = ``block_rows(n)``, and is one vectorised draw from ``SeedSpec(seed, b)``.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import RandomSequenceSpec, SeedSpec, sample_iid
from .errors import DataError, ValidationError

_PLAIN_CUMSUM_MAX = 10**4
_BLOCK = 8192
_SEED_BLOCK_ENTRIES = 8192


def compensated_cumsum(x: np.ndarray) -> np.ndarray:
    """Prefix sums with the rounding error of every step added back.

    Within each block, cumsum gives the running float sums p_k, TwoSum gives
    the exact error of each step p_k = fl(p_{k-1} + X_k), and the cumsum of
    those errors corrects p_k.  Error per entry is about eps * |S_k| +
    (k * eps)^2 * sum_{i<=k} |X_i|, versus the O(k * eps)-growth of a naive
    running sum.  The float total and the error total carry across blocks.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    out = np.empty(n, dtype=np.float64)
    buf = np.empty(min(n, _BLOCK) + 1, dtype=np.float64)
    total = 0.0   # float running sum at the end of the previous block
    carry = 0.0   # running sum of the rounding errors of all steps so far
    for start in range(0, n, _BLOCK):
        seg = x[start:start + _BLOCK]
        m = seg.size
        p = buf[:m + 1]
        p[0] = total
        p[1:] = seg
        np.cumsum(p, out=p)
        prev, s = p[:-1], p[1:]
        b = s - prev
        err = (prev - (s - b)) + (seg - b)   # TwoSum: prev + seg == s + err exactly
        err[0] += carry
        np.cumsum(err, out=err)
        np.add(s, err, out=out[start:start + m])
        total, carry = float(p[-1]), float(err[-1])
    return out


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    if x.size > _PLAIN_CUMSUM_MAX:
        return compensated_cumsum(x)
    return np.cumsum(x, dtype=np.float64)


def _check_finite(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DataError("expected a nonempty 1-d vector of increments")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DataError("non-finite increment", index=int(bad[0]))
    return x


def partial_sums(x) -> np.ndarray:
    """S_k = X_1 + ... + X_k for k = 1..n (S_0 = 0 is implicit)."""
    return _prefix_sums(_check_finite(x))


def decompose(x) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative-part prefix sums (u, v) with u - v = partial sums."""
    x = _check_finite(x)
    u = _prefix_sums(np.maximum(x, 0.0))
    v = _prefix_sums(np.maximum(-x, 0.0))
    return u, v


def block_rows(n: int) -> int:
    """Rows per seeding block at horizon n: about 8192 entries, at least one row."""
    return max(1, _SEED_BLOCK_ENTRIES // int(n))


def for_each_block(spec: RandomSequenceSpec, rows: int, master_seed: int, threads: int,
                   take: Callable[[int, np.ndarray], None]) -> None:
    """Draw rows [0, rows) of spec's law block by block; call take(first_row, block).

    Every block is drawn whole from ``SeedSpec(master_seed, b)`` and the last
    one is then cut to size, so a batch of R rows is a row-prefix of any larger
    batch.  Threads take whole blocks, so the rows do not depend on ``threads``;
    ``take`` may run on several threads at once.
    """
    m = block_rows(spec.n)

    def one(b: int) -> None:
        take(b * m, sample_iid(spec, SeedSpec(master_seed, b), rows=m)[:rows - b * m])

    blocks = range(-(-rows // m))
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one, blocks))
    else:
        for b in blocks:
            one(b)


@dataclass(frozen=True)
class TrajectoryBatch:
    """R independent trajectories, drawn in blocks of ``block_rows(n)`` rows.

    Row r is row ``r % m`` of ``sample_iid(spec, SeedSpec(master_seed, r // m),
    rows=m)``.  A row depends on the seed and n, not on the worker count, and
    a batch of R rows is a row-prefix of any larger batch.
    """

    spec: RandomSequenceSpec
    master_seed: int
    x: np.ndarray  # (R, n) increments
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @classmethod
    def generate(cls, spec: RandomSequenceSpec, replications: int, master_seed: int,
                 threads: int = 1) -> "TrajectoryBatch":
        replications = int(replications)
        if replications < 1:
            raise ValidationError("replication count must be >= 1")
        n = int(spec.n)
        x = np.empty((replications, n), dtype=np.float64)

        def fill(first: int, block: np.ndarray) -> None:
            x[first:first + len(block)] = block

        for_each_block(spec, replications, master_seed, threads, fill)

        if n > _PLAIN_CUMSUM_MAX:
            s = np.vstack([compensated_cumsum(row) for row in x])
            u = np.vstack([compensated_cumsum(np.maximum(row, 0.0)) for row in x])
            v = np.vstack([compensated_cumsum(np.maximum(-row, 0.0)) for row in x])
        else:
            s = np.cumsum(x, axis=1)
            u = np.cumsum(np.maximum(x, 0.0), axis=1)
            v = np.cumsum(np.maximum(-x, 0.0), axis=1)
        return cls(spec=spec, master_seed=int(master_seed), x=x, s=s, u=u, v=v)

    @property
    def replications(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


def resolve_batch(spec: RandomSequenceSpec, n: int, reps: int, seed: int,
                  threads: int, batch: TrajectoryBatch | None) -> TrajectoryBatch:
    """The supplied batch, checked to hold reps x n rows of spec's law, or a new one.

    Callers read ``[:reps, :n]`` of the result, so one batch drawn for a
    command serves every estimate made from the same law.
    """
    if batch is None:
        return TrajectoryBatch.generate(spec.with_n(n), reps, seed, threads=threads)
    if batch.spec.law() != spec.law():
        raise ValidationError("supplied batch was drawn from a different law")
    if batch.n < n or batch.replications < reps:
        raise ValidationError(
            f"supplied batch is {batch.replications}x{batch.n}, need {reps}x{n}")
    return batch
