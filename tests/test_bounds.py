"""Bound calculators against worked values, algebraic identities, and oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hrbounds.bounds import (
    MomentProfile,
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
from hrbounds.distributions import RandomSequenceSpec
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
    """An analytic profile with E[phi(u_k)] = us and E[phi(v_k)] = 0."""
    return MomentProfile(n=len(us), e_phi_u=us, e_phi_v=(0.0,) * len(us))


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
        exact = enumerate_exact(RADEMACHER2, PHI1, ScaleFunction.linear(10.0),
                                WeightSequence.power(1.0, 2), 2, "A_n")
        assert float(exact) == 1.0 >= 0.7

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
            MomentProfile(n=3, e_phi_u=(1.0, 0.5, 2.0), e_phi_v=(0.0, 0.0, 0.0),
                          provenance="analytic")
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
        mp = MomentProfile(n=n, e_phi_u=us[:n], e_phi_v=vs[:n],
                           provenance="analytic")
        rep = bound_theorem1(PHI1, ScaleFunction.linear(1.0),
                             WeightSequence.power(1.0, n), mp)
        assert rep.raw_value == pytest.approx(rep.reconstruct_raw(), rel=1e-12)
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
        np.testing.assert_array_equal(mp.se_u, np.zeros(4))

    def test_point_mass_analytic_any_exponent(self):
        spec = RandomSequenceSpec("point_mass", 3, (("c", -2.0),))
        mp = analytic_moment_profile(spec, ShapeFunction.abs_power(3.0))
        np.testing.assert_array_equal(mp.e_phi_u, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(mp.e_phi_v, [8.0, 64.0, 216.0])

    def test_rademacher_estimated_linear_growth(self):
        """E[u_k] = k/2 for sign increments; 1e5 replications, 4 se."""
        mp = estimate_moment_profile(
            TrajectoryBatch.generate(RandomSequenceSpec("rademacher", 3), 100_000, 0), PHI1)
        for k in range(3):
            assert abs(mp.e_phi_u[k] - 0.5 * (k + 1)) <= 4 * mp.se_u[k]

    def test_gaussian_half_normal_first_entry(self):
        mp = estimate_moment_profile(TrajectoryBatch.generate(GAUSS(1), 100_000, 1), PHI1)
        assert abs(mp.e_phi_u[0] - 1.0 / math.sqrt(2 * math.pi)) <= 4 * mp.se_u[0]

    @pytest.mark.parametrize("family,params,nu,seed", [
        ("gaussian", (("mu", 0.0), ("sigma", 1.0)), 2.0, 1),
        ("centered_exponential", (("lam", 1.0),), 1.0, 2),
        ("centered_exponential", (("lam", 1.0),), 2.0, 3),
    ])
    def test_analytic_matches_estimation_within_noise(self, family, params, nu, seed):
        spec = RandomSequenceSpec(family, 6, params)
        phi = ShapeFunction.abs_power(nu)
        a = analytic_moment_profile(spec, phi)
        e = estimate_moment_profile(TrajectoryBatch.generate(spec, 20_000, seed), phi)
        for k in range(6):
            assert abs(a.e_phi_u[k] - e.e_phi_u[k]) <= 4 * e.se_u[k]
            assert abs(a.e_phi_v[k] - e.e_phi_v[k]) <= 4 * e.se_v[k]

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


class TestVectorsAreFrozenArrays:
    def test_profile_vectors_are_read_only_copies(self):
        us, vs, se = [0.5, 1.0, 1.5], np.array([0.0, 0.25, 0.5]), np.array([0.1, 0.1, 0.1])
        mp = MomentProfile(n=3, e_phi_u=us, e_phi_v=vs, provenance="estimated",
                           replications=100, se_u=se, se_v=se)
        us[0], vs[0], se[0] = 9.0, 9.0, 9.0
        for name, want in (("e_phi_u", [0.5, 1.0, 1.5]), ("e_phi_v", [0.0, 0.25, 0.5]),
                           ("se_u", [0.1] * 3), ("se_v", [0.1] * 3)):
            vec = getattr(mp, name)
            assert vec.dtype == np.float64 and vec.ndim == 1 and not vec.flags.writeable
            np.testing.assert_array_equal(vec, want)
            with pytest.raises(ValueError):
                vec[0] = 2.0

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
