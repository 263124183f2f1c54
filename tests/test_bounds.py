"""Bound calculators against worked values, algebraic identities, and oracles."""

import math
import struct
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrbounds import bounds
from hrbounds.bounds import (
    MomentProfile,
    PhiSums,
    _fsum,
    _pava,
    SLLNSeriesSpec,
    analytic_moment_profile,
    bound_amini,
    bound_hajek_renyi_classic,
    bound_rao,
    bound_theorem1,
    estimate_moment_profile,
    slln_series_check,
)
from hrbounds.distributions import CHUNK, RandomSequenceSpec
from hrbounds.errors import (
    AnalyticProfileUnavailable,
    DataError,
    HypothesisViolationError,
    NonIntegrabilityError,
    ParameterDomainError,
    ValidationError,
)
from hrbounds.sequences import TrajectoryBatch
from hrbounds.shape_functions import ScaleFunction, ShapeFunction, WeightSequence
from hrbounds.simulation import enumerate_exact

PHI1 = ShapeFunction.abs_power(1.0)
PHI2 = ShapeFunction.abs_power(2.0)

RADEMACHER2 = RandomSequenceSpec("rademacher", 2)
GAUSS = lambda n: RandomSequenceSpec("gaussian", n, (("mu", 0.0), ("sigma", 1.0)))
STABLE15 = lambda n: RandomSequenceSpec(
    "alpha_stable", n, (("alpha", 1.5), ("beta", 0.0), ("scale", 1.0)))


def nondecreasing_moments(draw_min=0.0):
    """Strategy: a short profile of nondecreasing nonnegative expectations."""
    return st.lists(st.floats(min_value=draw_min, max_value=5.0),
                    min_size=1, max_size=8).map(
        lambda incs: tuple(float(x) for x in np.cumsum(incs)))


def u_profile(us) -> MomentProfile:
    """A profile with E[phi(u_k)] = us and E[phi(v_k)] = 0."""
    return MomentProfile(us, (0.0,) * len(us))


def walks(batch: TrajectoryBatch, name: str) -> np.ndarray:
    """The one-sided walk ``name`` ("u" or "v") of every row of batch, in row order."""
    return np.vstack([getattr(block, name) for block in batch.blocks()])


def standard_errors(phi: ShapeFunction, paths: np.ndarray) -> np.ndarray:
    """Per-k standard error of the mean of phi over the rows of ``paths``."""
    return phi(paths).std(axis=0, ddof=1) / math.sqrt(paths.shape[0])


class TestTheorem1:
    def test_worked_two_step_sign_example(self):
        # E[u_k] = E[v_k] = k/2; chi(b_k) = 10k; K = 1:
        # raw = 1 - 2*[(1/2+1/2)/10 + (1/2+1/2)/20] = 0.7
        mp = analytic_moment_profile(RADEMACHER2, PHI1)
        np.testing.assert_array_equal(mp.e_phi_u, [0.5, 1.0])
        rep = bound_theorem1(PHI1, ScaleFunction.linear(10.0),
                             WeightSequence.power(1.0, 2), mp)
        assert rep.bound_kind == "theorem1_lower"
        assert rep.value == pytest.approx(0.7, abs=1e-15)
        assert rep.informative

    def test_worked_example_is_dominated_by_exact_probability(self):
        mp = analytic_moment_profile(RADEMACHER2, PHI1)
        w = WeightSequence.power(1.0, 2)
        rep = bound_theorem1(PHI1, ScaleFunction.linear(10.0), w, mp)
        exact = enumerate_exact(RADEMACHER2, rep.event, w)
        assert float(exact) == 1.0 >= rep.value

    def test_clamps_to_zero_and_reports_uninformative(self):
        mp = analytic_moment_profile(RADEMACHER2, PHI1)
        rep = bound_theorem1(PHI1, ScaleFunction.linear(0.1),
                             WeightSequence.power(1.0, 2), mp)
        assert rep.value == 0.0
        assert rep.raw_value < 0.0
        assert not rep.informative

    def test_refuses_non_integrable_profile(self):
        mp = estimate_moment_profile(TrajectoryBatch.generate(STABLE15(16), 2000, 0), PHI2)
        assert mp.non_integrable
        with pytest.raises(NonIntegrabilityError):
            bound_theorem1(PHI2, ScaleFunction.linear(1.0),
                           WeightSequence.power(1.0, 16), mp)

    def test_rejects_decreasing_moment_sequence(self):
        with pytest.raises(HypothesisViolationError) as exc:
            MomentProfile((1.0, 0.5, 2.0), (0.0, 0.0, 0.0))
        assert tuple(exc.value.failing_indices) == (2,)

    def test_estimated_route_agrees_with_analytic(self):
        spec = GAUSS(6)
        chi = ScaleFunction.linear(5.0)
        w = WeightSequence.power(1.0, 6)
        exact = bound_theorem1(PHI1, chi, w, analytic_moment_profile(spec, PHI1))
        batch = TrajectoryBatch.generate(spec, 40_000, 8)
        est = bound_theorem1(PHI1, chi, w, estimate_moment_profile(batch, PHI1))
        assert est.raw_value == pytest.approx(exact.raw_value, abs=0.02)

    def test_lower_bound_monotone_in_epsilon(self):
        mp = analytic_moment_profile(GAUSS(8), PHI1)
        w = WeightSequence.power(1.0, 8)
        raws = [bound_theorem1(PHI1, ScaleFunction.linear(e), w, mp).raw_value
                for e in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b for a, b in zip(raws, raws[1:]))

    @given(nondecreasing_moments(), nondecreasing_moments())
    @settings(max_examples=60)
    def test_terms_reconstruct_raw_value(self, us, vs):
        n = min(len(us), len(vs))
        mp = MomentProfile(us[:n], vs[:n])
        rep = bound_theorem1(PHI1, ScaleFunction.linear(1.0),
                             WeightSequence.power(1.0, n), mp)
        assert rep.raw_value == 1.0 - math.fsum(rep.terms)
        assert 0.0 <= rep.value <= 1.0

    @given(nondecreasing_moments())
    @settings(max_examples=60)
    def test_matches_rao_form_when_negative_part_vanishes(self, us):
        """With v identically 0 and K = 1 the two bounds are algebraically tied:
        raw_theorem1 = 1 - 2 * (1 - raw_rao)."""
        n = len(us)
        chi = ScaleFunction.linear(2.0)
        w = WeightSequence.power(1.0, n)
        mp = u_profile(us)
        t1 = bound_theorem1(PHI1, chi, w, mp)
        rao = bound_rao(PHI1, chi, w, mp)
        assert t1.raw_value == pytest.approx(1.0 - 2.0 * (1.0 - rao.raw_value),
                                             rel=1e-12, abs=1e-12)


class TestRao:
    def test_worked_example(self):
        rep = bound_rao(PHI1, ScaleFunction.linear(10.0),
                        WeightSequence.power(1.0, 2), u_profile((0.5, 1.0)))
        assert rep.bound_kind == "rao_lower"
        assert rep.value == pytest.approx(0.925, abs=1e-15)
        assert rep.event["process"] == "u"

    def test_requires_nondecreasing_expectations(self):
        # the profile refuses these before any bound reads them
        with pytest.raises(HypothesisViolationError):
            u_profile((1.0, 0.5))
        with pytest.raises(ValidationError, match="negative entry"):
            u_profile((-0.5,))

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="n >= 1"):
            u_profile(())

    def test_refuses_non_integrable_profile(self):
        mp = estimate_moment_profile(TrajectoryBatch.generate(STABLE15(16), 2000, 0), PHI2)
        assert mp.non_integrable
        with pytest.raises(NonIntegrabilityError):
            bound_rao(PHI2, ScaleFunction.linear(1.0), WeightSequence.power(1.0, 16), mp)

    @pytest.mark.parametrize("n", [1, 16, 100])
    @pytest.mark.parametrize("c", [0.0, 0.25, 1.0, 3.0])
    @pytest.mark.parametrize("phi, K", [(PHI1, 1), (PHI2, 2)])
    def test_theorem1_is_2K_times_rao_on_one_profile(self, phi, K, c, n):
        """A point mass c >= 0 has v = 0, so on its analytic profile each theorem1
        term is 2K times the rao term, bit for bit (2K is a power of two), and
        the two summed masses agree to one ulp of the raw values' scale."""
        mp = analytic_moment_profile(RandomSequenceSpec("point_mass", n, (("c", c),)), phi)
        assert not mp.e_phi_v.any()
        chi, w = ScaleFunction.power(20.0, 1.5), WeightSequence.power(0.75, n)
        t1, rao = bound_theorem1(phi, chi, w, mp), bound_rao(phi, chi, w, mp)
        assert t1.terms.tobytes() == (2 * K * rao.terms).tobytes()
        mass = 1.0 - t1.raw_value
        assert abs(mass - 2 * K * (1.0 - rao.raw_value)) <= math.ulp(max(1.0, abs(mass)))


class TestClassic:
    def test_worked_example_is_informative(self):
        # head: (1/eps^2)(1/b_1^2) = 1/4, tail: (1/eps^2)(1/4 + 1/9) = 13/144;
        # raw = 49/144
        rep = bound_hajek_renyi_classic([1.0, 1.0, 1.0],
                                        WeightSequence.power(1.0, 3),
                                        m=1, n=3, epsilon=2.0)
        assert rep.raw_value == pytest.approx(49.0 / 144.0, rel=1e-14)
        assert rep.value == rep.raw_value
        assert rep.informative

    def test_informative_case(self):
        # head: (1/4)(1/4) = 1/16, tail: (1/4)(1/16) = 1/64; raw = 5/64
        rep = bound_hajek_renyi_classic([1.0, 1.0],
                                        WeightSequence.custom([2.0, 4.0]),
                                        m=1, n=2, epsilon=2.0)
        assert rep.raw_value == pytest.approx(5.0 / 64.0, rel=1e-14)
        assert rep.informative

    def test_head_range_carries_epsilon(self):
        # One step, eps < 1: E[X^2]/(eps b_1)^2 = 1/(0.5 * 2)^2 = 1, vacuous,
        # where the head term without eps^-2 gave 1/4 against P = 1.
        rep = bound_hajek_renyi_classic([1.0], WeightSequence.custom([2.0]),
                                        m=1, n=1, epsilon=0.5)
        assert rep.raw_value == pytest.approx(1.0, rel=1e-14)
        assert not rep.informative

    def test_index_and_domain_errors(self):
        w = WeightSequence.power(1.0, 3)
        with pytest.raises(IndexError):
            bound_hajek_renyi_classic([1.0] * 3, w, m=4, n=3, epsilon=1.0)
        with pytest.raises(IndexError):
            bound_hajek_renyi_classic([1.0] * 3, w, m=0, n=3, epsilon=1.0)
        with pytest.raises(ParameterDomainError):
            bound_hajek_renyi_classic([1.0] * 3, w, m=1, n=3, epsilon=0.0)
        with pytest.raises(ValidationError):
            bound_hajek_renyi_classic([1.0, -1.0, 1.0], w, m=1, n=3, epsilon=1.0)
        with pytest.raises(DataError, match="index"):
            bound_hajek_renyi_classic([1.0, math.nan, 1.0], w, m=1, n=3,
                                      epsilon=1.0)

    def test_upper_bound_monotone_in_epsilon(self):
        w = WeightSequence.power(1.0, 5)
        raws = [bound_hajek_renyi_classic([1.0] * 5, w, 2, 5, e).raw_value
                for e in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(raws, raws[1:]))


class TestAmini:
    def test_single_step_example(self):
        rep = bound_amini([1.0], WeightSequence.custom([1.0]), 1, 4.0)
        assert rep.bound_kind == "amini_upper"
        assert rep.value == pytest.approx(0.5, abs=1e-15)

    def test_two_step_example_clamps(self):
        # (8/16)(1 + 1/4) + 2*(1*1)/4 = 1.125, clamped to 1
        rep = bound_amini([1.0, 1.0], WeightSequence.custom([1.0, 2.0]), 2, 4.0)
        assert rep.raw_value == pytest.approx(1.125, rel=1e-14)
        assert rep.value == 1.0

    def test_zero_dispersion_gives_zero(self):
        rep = bound_amini([0.0] * 4, WeightSequence.power(1.0, 4), 4, 1.0)
        assert rep.value == 0.0

    def test_rejects_negative_dispersion(self):
        with pytest.raises(ValidationError):
            bound_amini([1.0, -0.1], WeightSequence.power(1.0, 2), 2, 1.0)

    def test_upper_bound_monotone_in_epsilon(self):
        w = WeightSequence.power(1.0, 6)
        raws = [bound_amini([1.0] * 6, w, 6, e).raw_value
                for e in (1.0, 2.0, 5.0, 10.0)]
        assert all(a >= b for a, b in zip(raws, raws[1:]))


class TestMomentProfiles:
    def test_point_mass_zero_profile(self):
        spec = RandomSequenceSpec("point_mass", 4, (("c", 0.0),))
        mp = estimate_moment_profile(TrajectoryBatch.generate(spec, 200, 0), PHI1)
        np.testing.assert_array_equal(mp.e_phi_u, np.zeros(4))
        np.testing.assert_array_equal(mp.e_phi_v, np.zeros(4))

    def test_point_mass_analytic_any_exponent(self):
        spec = RandomSequenceSpec("point_mass", 3, (("c", -2.0),))
        mp = analytic_moment_profile(spec, ShapeFunction.abs_power(3.0))
        np.testing.assert_array_equal(mp.e_phi_u, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(mp.e_phi_v, [8.0, 64.0, 216.0])

    def test_rademacher_estimated_linear_growth(self):
        """E[u_k] = k/2 for sign increments; 1e5 replications, 4 se."""
        batch = TrajectoryBatch.generate(RandomSequenceSpec("rademacher", 3), 100_000, 0)
        mp, se = estimate_moment_profile(batch, PHI1), standard_errors(PHI1, walks(batch, "u"))
        for k in range(3):
            assert abs(mp.e_phi_u[k] - 0.5 * (k + 1)) <= 4 * se[k]

    def test_gaussian_half_normal_first_entry(self):
        batch = TrajectoryBatch.generate(GAUSS(1), 100_000, 1)
        mp, se = estimate_moment_profile(batch, PHI1), standard_errors(PHI1, walks(batch, "u"))
        assert abs(mp.e_phi_u[0] - 1.0 / math.sqrt(2 * math.pi)) <= 4 * se[0]

    @pytest.mark.parametrize("family,params,nu,seed", [
        ("gaussian", (("mu", 0.0), ("sigma", 1.0)), 2.0, 1),
        ("centered_exponential", (("lam", 1.0),), 1.0, 2),
        ("centered_exponential", (("lam", 1.0),), 2.0, 3),
    ])
    def test_analytic_matches_estimation_within_noise(self, family, params, nu, seed):
        spec = RandomSequenceSpec(family, 6, params)
        phi = ShapeFunction.abs_power(nu)
        a = analytic_moment_profile(spec, phi)
        batch = TrajectoryBatch.generate(spec, 20_000, seed)
        e = estimate_moment_profile(batch, phi)
        noise_u, noise_v = (standard_errors(phi, walks(batch, w)) for w in ("u", "v"))
        for k in range(6):
            assert abs(a.e_phi_u[k] - e.e_phi_u[k]) <= 4 * noise_u[k]
            assert abs(a.e_phi_v[k] - e.e_phi_v[k]) <= 4 * noise_v[k]

    def test_stable_second_moment_analytic_refusal(self):
        with pytest.raises(NonIntegrabilityError):
            analytic_moment_profile(STABLE15(8), PHI2)

    def test_stable_second_moment_estimation_detector(self):
        mp = estimate_moment_profile(TrajectoryBatch.generate(STABLE15(32), 2000, 0), PHI2)
        assert mp.non_integrable
        assert mp.max_rel_drift > 0.10

    def test_stable_first_moment_analytic_profile(self):
        mp = analytic_moment_profile(STABLE15(4), PHI1)
        half_mean = math.gamma(1.0 - 1.0 / 1.5) / math.pi
        np.testing.assert_allclose(mp.e_phi_u,
                                   half_mean * np.arange(1, 5), rtol=1e-12)

    def test_unavailable_analytic_combination_falls_through(self):
        with pytest.raises(AnalyticProfileUnavailable):
            analytic_moment_profile(GAUSS(4), ShapeFunction.abs_power(1.5))

    def test_estimated_profiles_are_isotonic(self):
        mp = estimate_moment_profile(TrajectoryBatch.generate(STABLE15(16), 500, 4), PHI1)
        assert all(b >= a - 1e-12 for a, b in zip(mp.e_phi_u, mp.e_phi_u[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(mp.e_phi_v, mp.e_phi_v[1:]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=200)
    def test_pava_is_a_nondecreasing_projection(self, ys):
        y = np.asarray(ys)
        fit = _pava(y)
        assert fit.shape == y.shape and np.all(np.diff(fit) >= 0)
        np.testing.assert_array_equal(_pava(np.sort(y)), np.sort(y))
        # pooling moves mass between entries but keeps the total
        tol = 2.0 * y.size * np.finfo(float).eps * math.fsum(np.abs(y))
        assert abs(math.fsum(fit) - math.fsum(y)) <= tol

    def test_replication_floor(self):
        with pytest.raises(ValidationError, match=">= 100 replications"):
            estimate_moment_profile(TrajectoryBatch.generate(GAUSS(2), 99, 0), PHI1)

    @pytest.mark.parametrize("n, reps", [
        (1, 1001),        # one block of 1001 single-entry rows
        (32, 1001),       # row 500, where the half ends, falls inside the second block
        (12_000, 100),    # one compensated row per block; the half ends between blocks
    ])
    def test_phi_sums_add_each_blocks_column_sums_in_block_order(self, n, reps):
        """Means are the block-order totals of each block's ``sum(axis=0)``, at any thread count."""
        half = reps // 2
        total, first = [0.0, 0.0], [0.0, 0.0]
        for block in TrajectoryBatch.generate(GAUSS(n), reps, 3).blocks():
            for i, walk in enumerate((block.u, block.v)):
                values = PHI2(walk)
                total[i] = total[i] + values.sum(axis=0)
                first[i] = first[i] + values[:max(half - block.first, 0)].sum(axis=0)
        want = [(t / reps, f / half) for t, f in zip(total, first)]
        for threads in (1, 2):
            sums = PhiSums(PHI2, reps)
            TrajectoryBatch.generate(GAUSS(n), reps, 3, threads=threads).fold(sums)
            got = sums.means()
            for (mean, half_mean), (want_mean, want_half) in zip(got, want):
                assert mean.shape == half_mean.shape == (n,)
                np.testing.assert_array_equal(mean.view(np.uint64), want_mean.view(np.uint64))
                np.testing.assert_array_equal(half_mean.view(np.uint64),
                                              want_half.view(np.uint64))


class TestVectorsAreFrozenArrays:
    def test_profile_vectors_are_read_only_copies(self):
        us, vs = [0.5, 1.0, 1.5], np.array([0.0, 0.25, 0.5])
        mp = MomentProfile(us, vs)
        us[0], vs[0] = 9.0, 9.0
        for name, want in (("e_phi_u", [0.5, 1.0, 1.5]), ("e_phi_v", [0.0, 0.25, 0.5])):
            vec = getattr(mp, name)
            assert vec.dtype == np.float64 and vec.ndim == 1 and not vec.flags.writeable
            np.testing.assert_array_equal(vec, want)
            with pytest.raises(ValueError):
                vec[0] = 2.0

    def test_profile_vectors_of_unequal_length_are_refused(self):
        with pytest.raises(ValidationError, match="e_phi_u has 3 entries, e_phi_v has 2"):
            MomentProfile([0.5, 1.0, 1.5], [0.0, 0.25])
        assert MomentProfile([0.5, 1.0, 1.5], [0.0, 0.25, 0.5]).n == 3

    def test_computed_profiles_hold_read_only_arrays(self):
        for mp in (analytic_moment_profile(GAUSS(5), PHI1),
                   estimate_moment_profile(TrajectoryBatch.generate(GAUSS(5), 200, 0), PHI1)):
            for vec in (mp.e_phi_u, mp.e_phi_v):
                assert vec.dtype == np.float64 and vec.shape == (5,)
                assert not vec.flags.writeable

    def test_report_terms_are_a_read_only_copy(self):
        w = WeightSequence.power(1.0, 3)
        sigma = np.array([1.0, 1.0, 1.0])
        reports = [bound_amini(sigma, w, 3, 2.0),
                   bound_rao(PHI1, ScaleFunction.linear(10.0), w, u_profile((0.5, 1.0, 1.5))),
                   bound_theorem1(PHI1, ScaleFunction.linear(10.0), w,
                                  analytic_moment_profile(RandomSequenceSpec("rademacher", 3),
                                                          PHI1))]
        for rep in reports:
            assert rep.terms.dtype == np.float64 and rep.terms.shape == (3,)
            assert not rep.terms.flags.writeable
            assert rep.to_dict()["terms"] is rep.terms
        terms = [0.25, 0.5]
        rep = replace(reports[0], terms=terms)
        terms[0] = 9.0
        np.testing.assert_array_equal(rep.terms, [0.25, 0.5])
        with pytest.raises(ValidationError, match="1-D"):
            replace(reports[0], terms=np.zeros((2, 2)))


class TestSeriesCheck:
    def test_basel_series(self):
        s = SLLNSeriesSpec(alpha=1.0, r=2.0, weights=WeightSequence.power(1.0, 10_000))
        rep = slln_series_check(s, horizon=10_000)
        assert rep.verdict == "converging"
        assert abs(rep.partial_sum - math.pi ** 2 / 6.0) < 1e-2

    def test_harmonic_series(self):
        s = SLLNSeriesSpec(alpha=1.0, r=1.0, weights=WeightSequence.power(1.0, 10_000))
        rep = slln_series_check(s, horizon=10_000)
        assert rep.verdict == "diverging" and rep.tail_bound is None

    def test_zero_coefficients(self):
        s = SLLNSeriesSpec(alpha=0.0, r=1.0, weights=WeightSequence.power(1.0, 100))
        rep = slln_series_check(s, horizon=100)
        assert rep.verdict == "converging" and rep.partial_sum == 0.0 == rep.tail_bound

    def test_p_three_halves_converges(self):
        s = SLLNSeriesSpec(alpha=1.0, r=1.0, weights=WeightSequence.power(1.5, 10_000))
        assert slln_series_check(s, horizon=10_000).verdict == "converging"

    def test_oscillating_coefficients_are_inconclusive(self):
        alpha = tuple(2.0 + (-1.0) ** k for k in range(1, 2001))
        s = SLLNSeriesSpec(alpha=alpha, r=1.0, weights=WeightSequence.power(1.0, 2000))
        rep = slln_series_check(s, horizon=2000)
        assert rep.verdict == "inconclusive" and rep.tail_bound is None

    @pytest.mark.parametrize("horizon", [1_000, 100_000])
    @pytest.mark.parametrize("p", [1.05, 1.2, 1.5])
    def test_slowly_converging_p_series(self, p, horizon):
        s = SLLNSeriesSpec(alpha=1.0, r=p, weights=WeightSequence.power(1.0, horizon))
        assert slln_series_check(s, horizon=horizon).verdict == "converging"

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 5.0])
    def test_log_weights_diverge(self, r):
        s = SLLNSeriesSpec(alpha=1.0, r=r, weights=WeightSequence.log(1_000))
        rep = slln_series_check(s, horizon=1_000)
        assert rep.verdict == "diverging" and rep.tail_bound is None

    @given(st.floats(1e-6, 1e6), st.floats(0.01, 10.0), st.floats(0.01, 10.0),
           st.integers(1, 200))
    @example(alpha=1.0, beta=0.5, r=2.0, horizon=10)  # beta r == 1: the harmonic series
    @settings(max_examples=200)
    def test_power_series_converges_iff_beta_r_above_one(self, alpha, beta, r, horizon):
        s = SLLNSeriesSpec(alpha=alpha, r=r, weights=WeightSequence.power(beta, horizon))
        rep = slln_series_check(s, horizon=horizon)
        assert (rep.verdict == "converging") == (beta * r > 1.0)
        assert (rep.tail_bound is not None) == (beta * r > 1.0)

    @pytest.mark.parametrize("horizon", [10, 1_000, 100_000])
    @pytest.mark.parametrize("p, zeta", [(1.5, 2.612375348685488), (2.0, math.pi ** 2 / 6.0),
                                         (3.0, 1.2020569031595942)])
    def test_tail_bound_brackets_zeta(self, p, zeta, horizon):
        """The integral-test bound overshoots the tail by at most the first omitted term."""
        s = SLLNSeriesSpec(alpha=1.0, r=p, weights=WeightSequence.power(1.0, horizon))
        rep = slln_series_check(s, horizon=horizon)
        over = rep.partial_sum + rep.tail_bound - zeta
        ulps = 8 * math.ulp(zeta)
        assert -ulps <= over <= horizon ** -p + ulps

    def test_tail_bound_at_a_short_horizon(self):
        s = SLLNSeriesSpec(alpha=1.0, r=2.0, weights=WeightSequence.power(1.0, 4))
        rep = slln_series_check(s, horizon=4)
        assert rep.verdict == "converging" and rep.tail_bound == 0.25
        with pytest.raises(ValidationError):
            slln_series_check(s, horizon=0)

    def test_spec_validation(self):
        w = WeightSequence.power(1.0, 100)
        with pytest.raises(ValidationError):
            SLLNSeriesSpec(alpha=1.0, r=1.0, weights=WeightSequence.custom([1.0, 2.0]))
        with pytest.raises(ParameterDomainError):
            SLLNSeriesSpec(alpha=1.0, r=0.0, weights=w)
        with pytest.raises(ValidationError):
            SLLNSeriesSpec(alpha=-1.0, r=1.0, weights=w)
        s = SLLNSeriesSpec(alpha=(1.0,) * 10, r=1.0, weights=w)
        with pytest.raises(ValidationError):
            slln_series_check(s, horizon=50)


# ---------------------------------------------------------------------------
# exact sums: _fsum is math.fsum, bit for bit, with the same exceptions


def _assert_fsum_matches(a):
    """_fsum(a) has math.fsum's bits, or raises an exception of the same type."""
    a = np.asarray(a, dtype=np.float64)
    try:
        want = math.fsum(a.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises((OverflowError, ValueError)) as got:
            _fsum(a)
        assert type(got.value) is type(exc)
    else:
        assert struct.pack("<d", _fsum(a)) == struct.pack("<d", want)


# None: the default size threshold; 0: the buckets at every length
MIN_LENS = [None, 0]


def _min_len(min_len):
    return mock.patch.object(bounds, "_FSUM_MIN_LEN",
                             bounds._FSUM_MIN_LEN if min_len is None else min_len)


@st.composite
def _float_vectors(draw):
    """Finite float64 vectors of 0 to 3 CHUNK entries, subnormals included:
    random significands over a drawn binade range, then up to 20 entries
    anywhere in the float range."""
    n = draw(st.integers(0, 3 * CHUNK))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo, hi = sorted(draw(st.tuples(st.integers(-1074, 1000), st.integers(-1074, 1000))))
    a = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi + 1, n))
    if n:
        finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
        for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), finite), max_size=20)):
            a[i] = v
    return a


@pytest.mark.parametrize("min_len", MIN_LENS)
@given(a=_float_vectors())
@settings(max_examples=60, deadline=None)
def test_fsum_equals_math_fsum(min_len, a):
    with _min_len(min_len):
        _assert_fsum_matches(a)


def _pinned_sums():
    rng = np.random.default_rng(11)
    x = rng.normal(size=1500) * 10.0 ** rng.uniform(-200, 200, 1500)
    pad = [0.0] * 1500
    near_max = 2.0 ** 1023
    return {
        "all-negative-zeros": [-0.0] * 2000,
        "short-negative-zeros": [-0.0] * 3,
        "mixed-signed-zeros": [0.0, -0.0] * 1000,
        "exact-cancellation": rng.permutation(np.concatenate([x, -x])),
        "subnormal-result": [2.0 ** -1000, -(2.0 ** -1000)] * 700 + [5e-324] * 3 + [-1e-320],
        "subnormal-entries": rng.integers(-2 ** 40, 2 ** 40, 3000) * 5e-324,
        "tie-to-even-down": [1.0, 2.0 ** -53] + pad,
        "tie-to-even-up": [1.0 + 2.0 ** -52, 2.0 ** -53] + pad,
        "tie-broken-by-a-subnormal": [1.0, 2.0 ** -53, 5e-324] + pad,
        "tie-at-the-top": [2.0 ** 1000, 2.0 ** 947] + pad,
        "overflow-short": [near_max, near_max],
        "overflow-long": [near_max] + [1.7976931348623157e308] + pad,
        "near-max-cancels": [near_max, -near_max, 1.0] * 700,
        "intermediate-overflow": [near_max, near_max, -near_max] + pad,
        "inf": [math.inf] + pad,
        "-inf": pad + [-math.inf],
        "nan": pad + [math.nan] + pad,
        "inf-minus-inf": [math.inf] + pad + [-math.inf],
        "below-threshold": rng.lognormal(-10.0, 3.0, bounds._FSUM_MIN_LEN - 1),
        "at-threshold": rng.lognormal(-10.0, 3.0, bounds._FSUM_MIN_LEN),
        "one-chunk": rng.normal(size=CHUNK),
        "chunk-and-one": rng.normal(size=CHUNK + 1),
    }


PINNED_SUMS = _pinned_sums()


@pytest.mark.parametrize("min_len", MIN_LENS)
@pytest.mark.parametrize("name", sorted(PINNED_SUMS))
def test_fsum_equals_math_fsum_on_pinned_vectors(min_len, name):
    with _min_len(min_len):
        _assert_fsum_matches(PINNED_SUMS[name])


def test_finite_sums_from_the_size_threshold_on_take_the_buckets(monkeypatch):
    a = np.random.default_rng(3).lognormal(-10.0, 1.0, 100_000)
    short = a[:bounds._FSUM_MIN_LEN]
    want = math.fsum(a.tolist()), math.fsum(short.tolist())

    def refused(_):
        raise AssertionError("math.fsum called")

    monkeypatch.setattr(math, "fsum", refused)
    assert (_fsum(a), _fsum(short)) == want
    with pytest.raises(AssertionError, match="math.fsum called"):
        _fsum(short[:-1])
