"""Partial sums, the positive/negative-part split, and batch generation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrbounds.distributions import RandomSequenceSpec, SeedSpec, sample_iid
from hrbounds.errors import DataError, ValidationError
from hrbounds.sequences import (
    TrajectoryBatch,
    block_rows,
    compensated_cumsum,
    decompose,
    partial_sums,
    prefix_sum_chunks,
)


def test_partial_sums_pinned():
    np.testing.assert_array_equal(partial_sums([1.0, -2.0, 3.0]), [1.0, -1.0, 2.0])
    np.testing.assert_array_equal(partial_sums([0.0] * 4), [0.0] * 4)
    np.testing.assert_array_equal(partial_sums([7.5]), [7.5])


def test_decompose_pinned():
    u, v = decompose([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(u, [1.0, 1.0, 4.0])
    np.testing.assert_array_equal(v, [0.0, 2.0, 2.0])

    u, v = decompose([-1.0, -1.0])
    np.testing.assert_array_equal(u, [0.0, 0.0])
    np.testing.assert_array_equal(v, [1.0, 2.0])


def test_decompose_nonnegative_input_gives_zero_v():
    x = np.abs(np.random.default_rng(0).normal(size=50))
    u, v = decompose(x)
    assert np.all(v == 0.0)
    np.testing.assert_allclose(u, partial_sums(x))


def test_nonfinite_input_reports_index():
    with pytest.raises(DataError, match="index 2"):
        partial_sums([1.0, 2.0, np.nan])
    with pytest.raises(DataError):
        decompose([np.inf])
    with pytest.raises(DataError):
        partial_sums([])


def test_reconstruction_and_domination_random_vectors():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = rng.integers(1, 40)
        x = rng.standard_cauchy(n) * 10.0 ** rng.integers(-3, 4)
        s = partial_sums(x)
        u, v = decompose(x)
        scale = np.max(np.abs(x))
        k = np.arange(1, n + 1)
        assert np.all(np.abs((u - v) - s) <= 1e-12 * k * scale)
        assert np.all(np.abs(s) <= u + v + 1e-15)
        assert np.all(np.diff(u) >= 0) and np.all(np.diff(v) >= 0)


@given(st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=60))
@settings(max_examples=150)
# A small term against a large running total, lost by a plain in-block cumsum.
@example(xs=[98904205303.0, -861868084282.0, 6.103515625e-05, 747705089997.0])
def test_compensated_cumsum_matches_exact_rationals(xs):
    # Fraction arithmetic is the oracle: exact prefix sums, then one rounding.
    got = compensated_cumsum(np.asarray(xs, dtype=np.float64))
    acc = Fraction(0)
    for i, x in enumerate(xs):
        acc += Fraction(x)
        exact = float(acc)
        tol = 1e-15 * max(1.0, abs(exact)) * (i + 1)
        assert abs(got[i] - exact) <= tol


def test_compensated_cumsum_beats_naive_drift_on_long_arrays():
    # Every step's rounding error is added back, across 8192-entry blocks.
    # The payoff is on long horizons.
    import math

    x = np.full(1_000_000, 0.1)
    exact = float(Fraction(0.1) * 1_000_000)
    naive_err = abs(np.cumsum(x)[-1] - exact)
    comp_err = abs(compensated_cumsum(x)[-1] - exact)
    assert comp_err < 1e-9
    assert comp_err < naive_err / 1000.0

    rng = np.random.default_rng(5)
    y = rng.standard_normal(1_000_000) * 1e8 + 0.25
    exact_y = math.fsum(y.tolist())
    assert abs(compensated_cumsum(y)[-1] - exact_y) <= 1e-6
    assert abs(np.cumsum(y)[-1] - exact_y) > 1e-3


def _twosum_loop_reference(xs):
    """Compensated prefix sums one step at a time: the float sum p, TwoSum's
    error of each step, the running sum of those errors, and p plus it."""
    out, p, errors = [], 0.0, 0.0
    for x in xs:
        s = p + x
        b = s - p
        errors += (p - (s - b)) + (x - b)
        p = s
        out.append(p + errors)
    return np.array(out)


@pytest.mark.parametrize("n", [8191, 8192, 8193, 10_000, 10_001, 3 * 8192 + 5])
def test_chunked_prefix_sums_are_the_whole_row_sums(n):
    """Across chunk edges the carried totals give a one-pass sum's bits: a
    plain cumsum up to n = 10**4, TwoSum compensation above, and always
    for compensated_cumsum."""
    x = np.random.default_rng(n).standard_cauchy(n) * 1e3
    x[::7] = -0.0
    compensated = _twosum_loop_reference(x)
    plain = compensated if n > 10**4 else np.cumsum(x)
    np.testing.assert_array_equal(partial_sums(x).view(np.uint64), plain.view(np.uint64))
    np.testing.assert_array_equal(compensated_cumsum(x).view(np.uint64),
                                  compensated.view(np.uint64))
    u, v = decompose(x)
    pos, neg = np.maximum(x, 0.0), np.maximum(-x, 0.0)
    want = ((_twosum_loop_reference(pos), _twosum_loop_reference(neg)) if n > 10**4
            else (np.cumsum(pos), np.cumsum(neg)))
    for got, ref in zip((u, v), want):
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_prefix_sum_chunks_of_several_rows_restart_each_row():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 50))
    x[:, 0] = -0.0   # a row starts from its first entry, not from 0.0 + it
    [(row, col, s)] = list(prefix_sum_chunks([x.ravel()], 50))
    assert (row, col) == (0, 0)
    np.testing.assert_array_equal(s.view(np.uint64), np.cumsum(x, axis=1).view(np.uint64))

    y = rng.standard_cauchy((2, 10_001))   # compensated rows, two chunks each
    got = [(row, col, s[0].copy()) for row, col, s in
           prefix_sum_chunks([c for r in y for c in (r[:8192], r[8192:])], 10_001)]
    assert [(row, col) for row, col, _ in got] == [(0, 0), (0, 8192), (1, 0), (1, 8192)]
    for r in range(2):
        row_sums = np.concatenate([s for row, _, s in got if row == r])
        np.testing.assert_array_equal(row_sums.view(np.uint64),
                                      _twosum_loop_reference(y[r]).view(np.uint64))


@pytest.mark.parametrize("n", [20_000, 9_000])
def test_nonfinite_increment_in_a_later_chunk_reports_its_index(n):
    x = np.ones(n)
    x[8192 + 5] = np.inf
    x[8192 + 9] = np.nan
    with pytest.raises(DataError, match=r"index 8197\)") as err:
        partial_sums(x)
    assert err.value.index == 8192 + 5
    with pytest.raises(DataError, match=r"index 8197\)"):
        decompose(x)


FAMILY_SPECS = [
    RandomSequenceSpec.rademacher(16),
    RandomSequenceSpec.gaussian(16, mu=0.5, sigma=2.0),
    RandomSequenceSpec.centered_exponential(16, lam=3.0),
    RandomSequenceSpec.alpha_stable(16, alpha=1.5, beta=0.3),
    RandomSequenceSpec.point_mass(16, c=-1.25),
]


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
def test_batch_rows_come_from_whole_blocks(spec):
    m = block_rows(spec.n)
    assert m == 512
    reps = 2 * m + 77  # the last block is cut short
    batch = TrajectoryBatch.generate(spec, reps, master_seed=42)
    blocks = [sample_iid(spec, SeedSpec(42, b), rows=m) for b in range(3)]
    for r in range(reps):
        np.testing.assert_array_equal(batch.x[r], blocks[r // m][r % m])


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda s: s.family)
def test_single_row_block_is_the_one_dimensional_draw(spec):
    # Above n = 4096 a block is one row, so long trajectories keep these streams.
    assert block_rows(4097) == 1 and block_rows(4096) == 2
    one = sample_iid(spec, SeedSpec(7, 3))
    block = sample_iid(spec, SeedSpec(7, 3), rows=1)
    assert one.shape == (16,) and block.shape == (1, 16)
    np.testing.assert_array_equal(block[0], one)


@pytest.mark.parametrize("spec, rows, more, seed", [
    # the two uniform arrays of a block would shift if the last block were drawn short
    (RandomSequenceSpec.alpha_stable(32, alpha=1.2, beta=-0.5), 700, 1700, 5),
    (RandomSequenceSpec.gaussian(6), 500, 800, 4),
], ids=["alpha_stable", "gaussian"])
def test_batch_is_a_prefix_of_a_larger_one(spec, rows, more, seed):
    small = TrajectoryBatch.generate(spec, rows, master_seed=seed)
    large = TrajectoryBatch.generate(spec, more, master_seed=seed)
    for name in ("x", "s", "u", "v"):
        np.testing.assert_array_equal(getattr(small, name), getattr(large, name)[:rows])


def test_batch_thread_count_does_not_change_values():
    spec = RandomSequenceSpec("alpha_stable", 32,
                              (("alpha", 1.5), ("beta", 0.0), ("scale", 1.0)))
    reps = 2000  # 8 blocks of 256 rows, more than any thread count below
    a = TrajectoryBatch.generate(spec, reps, master_seed=9, threads=1)
    for threads in (2, 4):
        b = TrajectoryBatch.generate(spec, reps, master_seed=9, threads=threads)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.s, b.s)


def test_long_batch_rows_are_compensated_row_sums():
    """Above n = 10**4 every row of s, u and v is its own compensated sum."""
    spec = RandomSequenceSpec.alpha_stable(10_001, alpha=1.2, beta=0.5)
    batch = TrajectoryBatch.generate(spec, 3, master_seed=2, threads=2)
    for r in range(3):
        x = sample_iid(spec, SeedSpec(2, r))
        np.testing.assert_array_equal(batch.x[r], x)
        for got, part in ((batch.s, x), (batch.u, np.maximum(x, 0.0)),
                          (batch.v, np.maximum(-x, 0.0))):
            want = _twosum_loop_reference(part)
            np.testing.assert_array_equal(got[r].view(np.uint64), want.view(np.uint64))


def test_batch_requires_positive_replications():
    spec = RandomSequenceSpec("rademacher", 4)
    with pytest.raises(ValidationError):
        TrajectoryBatch.generate(spec, 0, master_seed=1)
