"""Acceptance gate: the eight shipping criteria, one printed line each.

Every test prints `[acceptance] criterion N: PASS/FAIL - detail` so a plain
`pytest -v -s tests/test_acceptance.py` doubles as the release checklist.
"""

import math
import time

import numpy as np
import pytest

from hrbounds.bounds import (
    SLLNSeriesSpec,
    analytic_moment_profile,
    bound_amini,
    bound_theorem1,
    estimate_moment_profile,
    slln_series_check,
    _increment_sigma_ex2,
)
from hrbounds.distributions import RandomSequenceSpec
from hrbounds.errors import NonIntegrabilityError
from hrbounds.sequences import TrajectoryBatch
from hrbounds.shape_functions import ScaleFunction, ShapeFunction, WeightSequence, subadditivity_constant
from hrbounds.simulation import (
    demi_check,
    enumerate_exact,
    estimate_event_An,
    estimate_max_event,
    slln_trajectory,
    verify_bound,
)

PHI1 = ShapeFunction.abs_power(1.0)
PHI2 = ShapeFunction.abs_power(2.0)
GRID_SEED = 2024
REPS = 10_000

GAUSS = (("mu", 0.0), ("sigma", 1.0))
CEXP = (("lam", 1.0),)
STABLE = (("alpha", 1.5), ("beta", 0.0), ("scale", 1.0))


def _criterion(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_lower_bound_never_violated():
    """Full scenario grid, 10^4 replications per cell, shared batches."""
    families = [
        (RandomSequenceSpec("rademacher", 1), (1.0, 2.0)),
        (RandomSequenceSpec("gaussian", 1, GAUSS), (1.0, 2.0)),
        (RandomSequenceSpec("centered_exponential", 1, CEXP), (1.0, 2.0)),
        (RandomSequenceSpec("alpha_stable", 1, STABLE), (1.0,)),  # no 2nd moment
    ]
    start = time.time()
    tally = {"consistent": 0, "vacuous": 0, "violation": 0}
    for base, exponents in families:
        for n in (8, 32, 64):
            spec = base.with_n(n)
            batch = TrajectoryBatch.generate(spec, REPS, GRID_SEED)
            for nu in exponents:
                phi = ShapeFunction.abs_power(nu)
                mp = analytic_moment_profile(spec, phi)
                for beta in (1.0, 1.5):
                    w = WeightSequence.power(beta, n)
                    for eps in (2.0, 5.0, 10.0):
                        chi = (ScaleFunction.linear(eps) if nu == 1.0
                               else ScaleFunction.power(eps ** 2, 2.0))
                        report = bound_theorem1(phi, chi, w, mp)
                        est = estimate_event_An(batch, phi, chi, w)
                        tally[verify_bound(est, report)] += 1
    elapsed = time.time() - start
    cells = sum(tally.values())
    ok = tally["violation"] == 0 and cells == 126 and elapsed < 600
    _criterion(1, ok, f"{cells} cells, {tally['consistent']} consistent, "
                      f"{tally['vacuous']} vacuous, {tally['violation']} violations, "
                      f"{elapsed:.1f}s")


def test_criterion_2_exact_oracle_equivalence():
    """Enumerable ground truth dominates the bound; CI covers it across seeds."""
    worst_gap = -math.inf
    for n in (2, 4, 8, 12):
        spec = RandomSequenceSpec("rademacher", n)
        mp = analytic_moment_profile(spec, PHI1)
        for beta in (1.0, 1.5):
            w = WeightSequence.power(beta, n)
            for eps in (0.5, 1.0, 2.0, 8.0):
                chi = ScaleFunction.linear(eps)
                report = bound_theorem1(PHI1, chi, w, mp)
                exact = enumerate_exact(spec, PHI1, chi, w, n, "A_n")
                worst_gap = max(worst_gap, report.value - float(exact))
    dominated = worst_gap <= 1e-12

    # nondegenerate scenario with exact P(A_8) = 1/16
    spec = RandomSequenceSpec("rademacher", 8)
    w = WeightSequence.custom([2.0] * 8)
    chi = ScaleFunction.linear(0.9)
    exact = float(enumerate_exact(spec, PHI1, chi, w, 8, "A_n"))
    covered = sum(
        1 for seed in range(100)
        if (lambda e: e.ci_low <= exact <= e.ci_high)(
            estimate_event_An(TrajectoryBatch.generate(spec, 2000, seed), PHI1, chi, w)))
    ok = dominated and covered >= 97
    _criterion(2, ok, f"max(bound - exact) = {worst_gap:.2e}, "
                      f"CI covered exact p=1/16 in {covered}/100 seeds")


def test_criterion_3_quadratic_shape_recovery():
    """phi(x) = |x|^2 with chi(b) = eps*b runs clean; variance bound alongside."""
    spec0 = RandomSequenceSpec("gaussian", 1, GAUSS)
    tally = {"consistent": 0, "vacuous": 0, "violation": 0}
    for n in (8, 32, 64):
        spec = spec0.with_n(n)
        batch = TrajectoryBatch.generate(spec, REPS, 41)
        mp = analytic_moment_profile(spec, PHI2)
        sigma, _ = _increment_sigma_ex2(spec)
        for beta in (1.0, 1.5):
            w = WeightSequence.power(beta, n)
            for eps in (2.0, 5.0, 10.0):
                report = bound_theorem1(PHI2, ScaleFunction.linear(eps), w, mp)
                est = estimate_event_An(batch, PHI2, ScaleFunction.linear(eps), w)
                tally[verify_bound(est, report)] += 1

                amini = bound_amini(np.full(n, sigma), w, n, eps,
                                    source=spec.law())
                amax = estimate_max_event(batch, w, eps, 1)
                tally[verify_bound(amax, amini)] += 1
    ok = tally["violation"] == 0 and sum(tally.values()) == 36
    _criterion(3, ok, f"36 paired cells, no hypothesis errors, "
                      f"{tally['violation']} violations")


def test_criterion_4_heavy_tail_separation():
    """One test, both behaviors: exponent 2 is refused, exponent 1 works."""
    spec = RandomSequenceSpec("alpha_stable", 32, STABLE)
    w = WeightSequence.power(1.5, 32)
    chi = ScaleFunction.linear(20.0)

    with pytest.raises(NonIntegrabilityError):
        analytic_moment_profile(spec, PHI2)
    est_mp = estimate_moment_profile(TrajectoryBatch.generate(spec, 2000, 0), PHI2)
    refused = est_mp.non_integrable
    with pytest.raises(NonIntegrabilityError):
        bound_theorem1(PHI2, chi, w, est_mp)

    report = bound_theorem1(PHI1, chi, w, analytic_moment_profile(spec, PHI1))
    well_defined = math.isfinite(report.raw_value) and report.informative
    ok = refused and well_defined
    _criterion(4, ok, f"exponent 2 refused (drift {est_mp.max_rel_drift:.2f}), "
                      f"exponent 1 raw_value {report.raw_value:.4f}")


def test_criterion_5_slln_demonstration():
    """Heavy-tailed strong law: shrinking trailing-window ratio quantiles."""
    start = time.time()
    n = 100_000
    w = WeightSequence.power(1.5, n)
    series = slln_series_check(SLLNSeriesSpec(alpha=1.0, r=1.0, weights=w),
                               horizon=n)
    traj = slln_trajectory(RandomSequenceSpec("alpha_stable", n, STABLE),
                           PHI1, ScaleFunction.linear(1.0), w, n,
                           reps=200, checkpoints=(1000, 10_000, 100_000), seed=3)
    elapsed = time.time() - start
    q95 = traj.q95_abs_ratio
    decreasing = all(b < a for a, b in zip(q95, q95[1:]))
    ok = (series.verdict == "converging" and decreasing and q95[-1] < 0.05
          and elapsed < 120)
    _criterion(5, ok, f"series {series.verdict}, q95 profile "
                      f"{[f'{q:.4f}' for q in q95]}, {elapsed:.1f}s")


def test_criterion_6_demi_checker_discrimination():
    centered = TrajectoryBatch.generate(RandomSequenceSpec("gaussian", 8, GAUSS),
                                        REPS, 13)
    passed_centered = demi_check(centered, "S").passed

    all_js_flagged = True
    for n in (4, 8):
        spec = RandomSequenceSpec("gaussian", n, (("mu", -0.5), ("sigma", 1.0)))
        drifted = demi_check(TrajectoryBatch.generate(spec, REPS, 17), "S")
        all_js_flagged &= drifted.flagged_js() == tuple(range(1, n))

    one_sided_clean = all(
        demi_check(centered, p).pointwise_negative_count == 0 for p in ("u", "v"))
    ok = passed_centered and all_js_flagged and one_sided_clean
    _criterion(6, ok, f"centered passed={passed_centered}, "
                      f"drift flagged everywhere={all_js_flagged}, "
                      f"u/v pointwise clean={one_sided_clean}")


def test_criterion_7_subadditivity_certificates():
    details = []
    ok = True
    for nu in (1.0, 1.5, 2.0, 3.0):
        cert = subadditivity_constant(ShapeFunction.abs_power(nu))
        ok &= cert.checked_grid_max_ratio <= 2.0 ** (nu - 1.0) + 1e-9
        details.append(f"nu={nu}: ratio {cert.checked_grid_max_ratio:.6f}")
    tight = subadditivity_constant(PHI2).checked_grid_max_ratio >= 2.0 - 1e-6
    ok &= tight
    _criterion(7, ok, "; ".join(details) + f"; quadratic sup attained={tight}")


def test_criterion_8_series_numeric_check():
    w = WeightSequence.power(1.0, 10_000)
    basel = slln_series_check(SLLNSeriesSpec(alpha=1.0, r=2.0, weights=w),
                              horizon=10_000)
    gap = abs(basel.partial_sum - math.pi ** 2 / 6.0)
    harmonic = slln_series_check(SLLNSeriesSpec(alpha=1.0, r=1.0, weights=w),
                                 horizon=10_000)
    ok = (basel.verdict == "converging" and gap < 1e-2
          and harmonic.verdict == "diverging")
    _criterion(8, ok, f"basel verdict {basel.verdict} (gap {gap:.1e}), "
                      f"harmonic verdict {harmonic.verdict}")
