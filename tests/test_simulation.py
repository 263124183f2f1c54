"""Monte Carlo estimates, exact enumeration, verdicts, demi margins, SLLN runs."""

import math
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings, strategies as st

from hrbounds import sequences
from hrbounds.bounds import analytic_moment_profile, bound_theorem1
from hrbounds.distributions import RandomSequenceSpec, SeedSpec, sample_iid
from hrbounds.errors import (
    DataError,
    DigestMismatchError,
    ParameterDomainError,
    EnumerationSizeError,
    HypothesisViolationError,
    ValidationError,
)
from hrbounds.sequences import TrajectoryBatch, block_rows, partial_sums
from hrbounds.shape_functions import ScaleFunction, ShapeFunction, WeightSequence
from hrbounds.simulation import (
    DEFAULT_DEMI_FAMILY,
    DEMI_PROCESSES,
    MonteCarloEstimate,
    binomial_estimate,
    demi_check,
    _ENUM_MAX_N,
    _region,
    enumerate_exact,
    estimate_event_An,
    estimate_max_event,
    slln_trajectory,
    verify_bound,
)

PHI1 = ShapeFunction.abs_power(1.0)


def rademacher(n):
    return RandomSequenceSpec("rademacher", n)


def gaussian(n, mu=0.0):
    return RandomSequenceSpec("gaussian", n, (("mu", mu), ("sigma", 1.0)))


# ---------------------------------------------------------------------------
# interval machinery


def test_wilson_interval_interior():
    est = binomial_estimate(50, 100, level=0.95)
    assert est.method == "wilson"
    # hand-computed Wilson interval at z = 1.959964, p_hat = 0.5, n = 100
    assert est.ci_low == pytest.approx(0.404, abs=2e-3)
    assert est.ci_high == pytest.approx(0.596, abs=2e-3)
    assert est.ci_low <= est.p_hat <= est.ci_high


def test_clopper_pearson_boundaries_closed_form():
    # at zero successes: upper limit is 1 - (alpha/2)^(1/R); mirrored at R
    R, level = 400, 0.99
    alpha = 1.0 - level
    z = binomial_estimate(0, R, level=level)
    assert z.method == "exact_clopper_pearson"
    assert z.ci_low == 0.0
    assert z.ci_high == pytest.approx(1.0 - (alpha / 2.0) ** (1.0 / R), rel=1e-10)
    o = binomial_estimate(R, R, level=level)
    assert o.ci_high == 1.0
    assert o.ci_low == pytest.approx((alpha / 2.0) ** (1.0 / R), rel=1e-10)


def test_levels_whose_quantile_rounds_to_an_endpoint():
    # 1 - alpha/2 rounds to 1.0 at the largest level below 1: z is infinite
    # and the Wilson interval is all of [0, 1]
    est = binomial_estimate(3, 10, level=math.nextafter(1.0, 0.0))
    assert (est.method, est.ci_low, est.ci_high) == ("wilson", 0.0, 1.0)
    # one test at a level that rounds 1 - alpha to 0: z is -inf, and any
    # margin with a positive standard error is flagged
    batch = TrajectoryBatch.generate(gaussian(2), 1000, master_seed=0)
    assert demi_check(batch, "S", family=("const",), level=1e-300).flagged_count == 1
    assert demi_check(batch, "S", family=("const",), level=0.99).flagged_count == 0


def test_estimate_invariants_enforced():
    with pytest.raises(ValidationError):
        MonteCarloEstimate(p_hat=0.5, replications=100, ci_low=0.6, ci_high=0.9)


# ---------------------------------------------------------------------------
# event estimators


def test_event_an_point_mass_zero_is_certain():
    batch = TrajectoryBatch.generate(RandomSequenceSpec("point_mass", 4, (("c", 0.0),)), 1000, 0)
    est = estimate_event_An(batch, PHI1, ScaleFunction.linear(1.0), WeightSequence.power(1.0, 4))
    assert est.p_hat == 1.0


def test_event_an_wide_envelope_is_certain():
    batch = TrajectoryBatch.generate(rademacher(2), 1000, 0)
    est = estimate_event_An(batch, PHI1, ScaleFunction.linear(10.0), WeightSequence.power(1.0, 2))
    assert est.p_hat == 1.0


def test_event_an_tight_envelope_half():
    batch = TrajectoryBatch.generate(rademacher(2), 4000, 0)
    est = estimate_event_An(batch, PHI1, ScaleFunction.linear(1.0),
                            WeightSequence.custom([1.0, 1.0]))
    assert est.ci_low <= 0.5 <= est.ci_high


def test_max_event_examples():
    zero = TrajectoryBatch.generate(RandomSequenceSpec("point_mass", 3, (("c", 0.0),)), 1000, 0)
    assert estimate_max_event(zero, WeightSequence.power(1.0, 3), 1.0, 1).p_hat == 0.0
    signs = TrajectoryBatch.generate(rademacher(2), 1000, 1)
    assert estimate_max_event(signs, WeightSequence.custom([1.0, 2.0]), 0.9, 1).p_hat == 1.0
    half = estimate_max_event(TrajectoryBatch.generate(rademacher(2), 4000, 2),
                              WeightSequence.custom([2.0, 2.0]), 0.9, 1)
    assert half.ci_low <= 0.5 <= half.ci_high


def test_sidedness_at_the_boundary():
    # S_k/b_k is exactly 1 for a unit point mass with b_k = k, so the
    # inclusive reading fires and the strict one does not
    batch = TrajectoryBatch.generate(RandomSequenceSpec("point_mass", 3, (("c", 1.0),)), 1000, 0)
    w = WeightSequence.power(1.0, 3)
    assert estimate_max_event(batch, w, 1.0, 1, sided="abs").p_hat == 1.0
    assert estimate_max_event(batch, w, 1.0, 1, sided="upper").p_hat == 0.0


@st.composite
def region_cases(draw):
    n = draw(st.integers(1, 12))
    spec = draw(st.sampled_from([rademacher, gaussian]))(n)
    if draw(st.booleans()):
        w = WeightSequence.power(draw(st.sampled_from([0.0, 0.5, 1.0])), n)
    else:
        # quarter steps, so sign-sequence ratios often meet the threshold exactly
        quarters = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
        w = WeightSequence.custom([q / 4 for q in sorted(quarters)])
    eps = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]))
    rho = draw(st.sampled_from([1.0, 2.0]))
    return dict(
        spec=spec, n=n, w=w, epsilon=eps, seed=draw(st.integers(0, 2 ** 32 - 1)),
        phi=draw(st.sampled_from([ShapeFunction.abs_power,
                                  ShapeFunction.positive_part_power]))(rho),
        chi=ScaleFunction.linear(eps) if rho == 1.0 else ScaleFunction.power(eps, rho),
        ms=(draw(st.integers(1, n)), draw(st.integers(1, n))))


@given(region_cases())
@settings(max_examples=30, deadline=None)
def test_estimators_count_the_rows_a_loop_counts(case):
    spec, n, w, eps = case["spec"], case["n"], case["w"], case["epsilon"]
    phi, chi, reps = case["phi"], case["chi"], 1000
    batch = TrajectoryBatch.generate(spec, reps, case["seed"])
    b = w.materialize(n)
    envelope = chi(b)
    for process, paths in (("S", batch.s), ("u", batch.u)):
        inside = 0
        for row in paths:
            values = phi(row)
            inside += all(values[k] <= envelope[k] for k in range(n))
        est = estimate_event_An(batch, phi, chi, w, process=process)
        assert est.p_hat == inside / reps
        assert est.event["process"] == process
    for sided, m in zip(("abs", "upper"), case["ms"]):
        hits = 0
        for row in batch.s:
            ratios = [(abs(row[k]) if sided == "abs" else row[k]) / b[k] for k in range(m - 1, n)]
            hits += any(r >= eps if sided == "abs" else r > eps for r in ratios)
        est = estimate_max_event(batch, w, eps, m, sided=sided)
        assert est.p_hat == hits / reps


def test_estimator_preconditions():
    too_few = TrajectoryBatch.generate(rademacher(2), 999, 0)
    with pytest.raises(ValidationError, match=">= 1000 replications"):
        estimate_event_An(too_few, PHI1, ScaleFunction.linear(1.0), WeightSequence.power(1.0, 2))
    with pytest.raises(ValidationError, match=">= 1000 replications"):
        estimate_max_event(too_few, WeightSequence.power(1.0, 2), 1.0)
    with pytest.raises(IndexError):
        estimate_max_event(TrajectoryBatch.generate(rademacher(4), 1000, 0),
                           WeightSequence.power(1.0, 4), 1.0, m=5)


# ---------------------------------------------------------------------------
# exact enumeration


def test_enumeration_pinned_probabilities():
    assert enumerate_exact(rademacher(2), PHI1, ScaleFunction.linear(10.0),
                           WeightSequence.power(1.0, 2), 2, "A_n") == 1

    half = enumerate_exact(rademacher(2), w=WeightSequence.custom([2.0, 2.0]),
                           n=2, event="max", epsilon=0.9)
    assert half == Fraction(1, 2)

    quarter = enumerate_exact(rademacher(3), w=WeightSequence.custom([1.0] * 3),
                              n=3, event="max", epsilon=3.0)
    assert quarter == Fraction(1, 4)


def test_enumeration_complementary_events():
    spec, w = rademacher(8), WeightSequence.custom([2.0] * 8)
    inside = enumerate_exact(spec, PHI1, ScaleFunction.linear(0.9), w, 8, "A_n")
    outside = enumerate_exact(spec, w=w, n=8, event="max", epsilon=0.9)
    assert inside + outside == 1
    assert inside == Fraction(1, 16)


def test_enumeration_denominator_is_power_of_two():
    p = enumerate_exact(rademacher(9), PHI1, ScaleFunction.linear(1.0),
                        WeightSequence.power(1.0, 9), 9, "A_n")
    assert isinstance(p, Fraction)
    d = p.denominator
    assert d & (d - 1) == 0


def test_enumeration_guards():
    over = _ENUM_MAX_N + 1
    with pytest.raises(EnumerationSizeError):
        enumerate_exact(rademacher(over), PHI1, ScaleFunction.linear(1.0),
                        WeightSequence.power(1.0, over), over, "A_n")
    with pytest.raises(ValidationError):
        enumerate_exact(gaussian(4), PHI1, ScaleFunction.linear(1.0),
                        WeightSequence.power(1.0, 4), 4, "A_n")
    with pytest.raises(ParameterDomainError):
        enumerate_exact(rademacher(4), w=WeightSequence.power(1.0, 4), n=4,
                        event="max")  # epsilon missing


def bitmask_enumerate(n, phi, chi, w, event, epsilon, m, sided, process):
    """The same probability by visiting all 2^n sign paths (n <= 16).

    Row i of the path matrix takes step j up when bit j of i is set; the event
    is evaluated on whole paths exactly as the Monte Carlo estimators do.
    """
    assert n <= 16
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    steps = bits * 2.0 - 1.0 if process == "S" else bits * 1.0
    t = np.cumsum(steps, axis=1)
    b = w.materialize(n)
    if event == "A_n":
        hits = np.all(phi(t) <= chi(b), axis=1)
    else:
        tail = t[:, m - 1:]
        ratios = ((np.abs(tail) if sided == "abs" else tail) / b[m - 1:]).max(axis=1)
        hits = ratios >= epsilon if sided == "abs" else ratios > epsilon
    return Fraction(int(hits.sum()), 2 ** n)


@st.composite
def enumeration_cases(draw, max_n=16, exponents=(1.0, 2.0)):
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["power", "log", "custom"]))
    if kind == "power":
        w = WeightSequence.power(draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])), n)
    elif kind == "log":
        w = WeightSequence.log(n)
    else:
        # quarter steps, so |T_k|/b_k and phi(T_k) often meet the threshold exactly
        quarters = draw(st.lists(st.integers(1, 24), min_size=n, max_size=n))
        w = WeightSequence.custom([q / 4 for q in sorted(quarters)])
    shape = draw(st.sampled_from([ShapeFunction.abs_power, ShapeFunction.positive_part_power]))
    eps = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
    rho = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return dict(
        n=n, w=w, phi=shape(draw(st.sampled_from(exponents))),
        chi=ScaleFunction.linear(eps) if rho == 1.0 else ScaleFunction.power(eps, rho),
        event=draw(st.sampled_from(["A_n", "max"])), epsilon=eps,
        m=draw(st.integers(1, n)), sided=draw(st.sampled_from(["abs", "upper"])),
        process=draw(st.sampled_from(["S", "u"])))


# |S_1|/b_1 = 1/2 = epsilon: the two-sided event (>=) holds, the one-sided (>) does not
TIE = dict(n=1, w=WeightSequence.custom([2.0]), phi=PHI1, chi=ScaleFunction.linear(0.5),
           event="max", epsilon=0.5, m=1, process="S")


@given(enumeration_cases())
@example(dict(TIE, sided="abs"))
@example(dict(TIE, sided="upper"))
@settings(max_examples=150, deadline=None)
def test_dynamic_program_equals_bitmask_enumeration(case):
    expected = bitmask_enumerate(**case)
    got = enumerate_exact(rademacher(case["n"]), case["phi"], case["chi"], case["w"],
                          case["n"], case["event"], case["epsilon"], case["m"],
                          case["sided"], case["process"])
    assert got == expected


def test_enumeration_tie_follows_the_sidedness():
    assert bitmask_enumerate(**TIE, sided="abs") == 1
    assert bitmask_enumerate(**TIE, sided="upper") == 0
    for sided, p in (("abs", 1), ("upper", 0)):
        assert enumerate_exact(rademacher(1), w=TIE["w"], n=1, event="max",
                               epsilon=0.5, sided=sided) == p


def test_enumeration_u_process_and_point_mass():
    # u_k counts the +1 steps: u_2 <= 1 fails only on the path (+1, +1)
    w = WeightSequence.custom([1.0, 1.0])
    assert enumerate_exact(rademacher(2), PHI1, ScaleFunction.linear(1.0), w, 2, "A_n",
                           process="u") == Fraction(3, 4)
    mass = RandomSequenceSpec.point_mass(3, c=-1.0)
    assert enumerate_exact(mass, PHI1, ScaleFunction.linear(2.0), WeightSequence.power(1.0, 3),
                           3, "A_n") == 1
    assert enumerate_exact(mass, w=WeightSequence.power(1.0, 3), n=3, event="max",
                           epsilon=1.0, sided="upper") == 0
    assert enumerate_exact(mass, PHI1, ScaleFunction.linear(0.5), WeightSequence.power(1.0, 3),
                           3, "A_n", process="u") == 1


def per_step_enumerate(n, phi, chi, w, event, epsilon, m, sided, process):
    """The dynamic program with a fresh region test and count vector at every step k."""
    allowed = _region(event, phi, chi, w, n, epsilon, m, sided, process)
    down = -1 if process == "S" else 0
    paths = np.ones(1, dtype=object)
    for k in range(1, n + 1):
        ups = np.arange(k + 1)
        nxt = np.append(paths, 0)
        nxt[1:] += paths
        nxt[~allowed(k, (ups + (k - ups) * down).astype(np.float64))] = 0
        paths = nxt
    stay = Fraction(int(paths.sum()), 2 ** n)
    return stay if event == "A_n" else 1 - stay


# |S_k| <= sqrt(k) through phi = |x|^1.5 and chi = b^1.5: the region binds in every block
ROOT_ENVELOPE = dict(w=WeightSequence.power(0.5, 91), phi=ShapeFunction.abs_power(1.5),
                     chi=ScaleFunction.power(1.0, 1.5), event="A_n", epsilon=1.0,
                     sided="abs", process="S")


@given(enumeration_cases(300, (1.0, 1.5, 2.0, 3.0)))
@example(dict(ROOT_ENVELOPE, n=90, m=1))   # CHUNK // 91 = 90 rows: one block
@example(dict(ROOT_ENVELOPE, n=91, m=1))   # CHUNK // 92 = 89 rows: two blocks
@example(dict(ROOT_ENVELOPE, n=91, m=60, event="max", epsilon=0.75, sided="upper",
              process="u", w=WeightSequence.custom([q / 4 for q in range(40, 131)])))
@settings(max_examples=100, deadline=None)
def test_blocked_region_test_equals_the_per_step_program(case):
    got = enumerate_exact(rademacher(case["n"]), case["phi"], case["chi"], case["w"],
                          case["n"], case["event"], case["epsilon"], case["m"],
                          case["sided"], case["process"])
    assert got == per_step_enumerate(**case)


@pytest.mark.parametrize("process", ["S", "u"])
@pytest.mark.parametrize("sided", ["abs", "upper"])
@pytest.mark.parametrize("n", [91, 1000, _ENUM_MAX_N])
def test_last_step_exceedance_is_a_binomial_tail(n, sided, process):
    """With m = n the max event is one step's: a sum of C(n, j) / 2^n over j.

    b_n = sqrt(n) is 64 at the cap, where |S_n| = 64 and u_n = 2080 meet
    epsilon exactly, so abs (>=) and upper (>) differ by the tie.
    """
    w = WeightSequence.power(0.5, n)
    b_n = float(w.materialize(n)[-1])
    epsilon = 1.0 if process == "S" else (n + b_n) / (2 * b_n)
    tail = 0
    for j in range(n + 1):
        t = float(2 * j - n if process == "S" else j)
        ratio = (abs(t) if sided == "abs" else t) / b_n
        if ratio >= epsilon if sided == "abs" else ratio > epsilon:
            tail += math.comb(n, j)
    got = enumerate_exact(rademacher(n), w=w, n=n, event="max", epsilon=epsilon, m=n,
                          sided=sided, process=process)
    assert got == Fraction(tail, 2 ** n)


def test_enumeration_at_the_cap_keeps_no_lattice_sized_temporary():
    """A region test of the whole (n + 1)^2 lattice at once would allocate >= 134 MB.

    The band |S_k| <= 8 is tested at every step like any region, but only its
    few states hold nonzero counts, so tracemalloc follows few integer sums.
    """
    n = _ENUM_MAX_N
    tracemalloc.start()
    try:
        p = enumerate_exact(rademacher(n), PHI1, ScaleFunction.linear(8.0),
                            WeightSequence.power(0.0, n), n, "A_n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < p < 1
    assert peak < 8 * 2 ** 20


# ---------------------------------------------------------------------------
# verdicts


def _theorem1_report():
    mp = analytic_moment_profile(rademacher(2), PHI1)
    return bound_theorem1(PHI1, ScaleFunction.linear(10.0),
                          WeightSequence.power(1.0, 2), mp)


def test_verdict_consistent_against_exact_one():
    assert verify_bound(Fraction(1), _theorem1_report()) == "consistent"


def test_verdict_violation_fires():
    bad = MonteCarloEstimate(p_hat=0.5, replications=1000, ci_low=0.4, ci_high=0.6)
    assert verify_bound(bad, _theorem1_report()) == "violation"


def test_verdict_vacuous_for_clamped_bounds():
    mp = analytic_moment_profile(rademacher(2), PHI1)
    rep = bound_theorem1(PHI1, ScaleFunction.linear(0.1),
                         WeightSequence.power(1.0, 2), mp)
    assert rep.value == 0.0
    est = MonteCarloEstimate(p_hat=0.2, replications=1000, ci_low=0.1, ci_high=0.3)
    assert verify_bound(est, rep) == "vacuous"


def test_verdict_digest_guard():
    rep = _theorem1_report()
    batch = TrajectoryBatch.generate(rademacher(2), 1000, 0)
    est = estimate_event_An(batch, PHI1, ScaleFunction.linear(10.0), WeightSequence.power(1.0, 2))
    assert est.event_digest == rep.inputs_digest
    assert verify_bound(est, rep) == "consistent"

    other = estimate_event_An(batch, PHI1, ScaleFunction.linear(9.0),
                              WeightSequence.power(1.0, 2))
    with pytest.raises(DigestMismatchError):
        verify_bound(other, rep)


# ---------------------------------------------------------------------------
# demi margins


def test_demi_drifted_gaussian_flagged_everywhere():
    batch = TrajectoryBatch.generate(gaussian(8, mu=-0.5), 10_000, master_seed=17)
    rep = demi_check(batch, "S")
    assert rep.flagged_js() == (1, 2, 3, 4, 5, 6, 7)
    const_margins = [r.margin for r in rep.records if r.g == "const"]
    assert all(abs(m + 0.5) < 0.05 for m in const_margins)


def test_demi_centered_martingales_pass():
    for spec, seed in [(gaussian(8), 13), (rademacher(8), 3)]:
        batch = TrajectoryBatch.generate(spec, 10_000, master_seed=seed)
        rep = demi_check(batch, "S")
        assert rep.passed, rep.flagged_js()


def test_demi_one_sided_processes_have_no_negative_products():
    batch = TrajectoryBatch.generate(gaussian(6), 2000, master_seed=5)
    for process in ("u", "v"):
        rep = demi_check(batch, process)
        assert rep.pointwise_negative_count == 0
        assert rep.passed


def test_demi_transformed_process_closure():
    """phi(S_k+) with convex nondecreasing phi stays inside the class."""
    batch = TrajectoryBatch.generate(gaussian(8), 10_000, master_seed=13)
    rep = demi_check(batch, "phi_of_S_plus", phi=ShapeFunction.abs_power(2.0))
    assert rep.passed


def _demi_reference(batch, process, family, level, phi):
    """Margins one (j, g) pair at a time, each from its own columns."""
    T = {"S": batch.s, "u": batch.u, "v": batch.v}.get(process)
    if T is None:
        T = phi(np.maximum(batch.s, 0.0))
    R, n = T.shape
    c = float(np.quantile(np.abs(T), 0.999))
    running_max = np.maximum.accumulate(T, axis=1)
    z = NormalDist().inv_cdf(1.0 - (1.0 - level) / ((n - 1) * len(family)))
    records = []
    for j in range(1, n):
        diff = T[:, j] - T[:, j - 1]
        col = T[:, j - 1]
        for name in family:
            if name == "const":
                g = np.ones(R)
            elif name == "coordinate":
                g = np.clip(col, -c, c) + c
            elif name == "running_max":
                g = np.clip(running_max[:, j - 1], -c, c) + c
            elif name == "indicator_q25":
                g = (col > np.quantile(col, 0.25)).astype(np.float64)
            else:
                g = (col > np.quantile(col, 0.75)).astype(np.float64)
            prod = diff * g
            margin = float(prod.mean())
            se = float(prod.std(ddof=1) / math.sqrt(R))
            flagged = margin < -z * se if se > 0 else margin < 0
            records.append((j, name, margin, se, bool(flagged),
                            int(np.count_nonzero(prod < 0))))
    return c, records


@st.composite
def demi_cases(draw):
    # demi_check refuses fewer than 1000 rows
    reps = draw(st.integers(1000, 3000))
    n = draw(st.integers(2, 12))
    spec = rademacher(n) if draw(st.booleans()) else gaussian(n, draw(st.sampled_from([0.0, -0.3])))
    family = tuple(draw(st.permutations(DEFAULT_DEMI_FAMILY))[:draw(st.integers(1, 5))])
    return spec, reps, draw(st.integers(0, 2 ** 32 - 1)), draw(st.sampled_from(DEMI_PROCESSES)), \
        family, draw(st.sampled_from([0.9, 0.99, 0.999999]))


@given(demi_cases())
@settings(max_examples=40, deadline=None)
def test_demi_margins_equal_the_per_pair_loop_bit_for_bit(case):
    """Rademacher columns have tied quantiles; the records must still agree to the bit."""
    spec, reps, seed, process, family, level = case
    batch = TrajectoryBatch.generate(spec, reps, master_seed=seed)
    phi = ShapeFunction.abs_power(1.5)
    rep = demi_check(batch, process, family, level, phi=phi)
    c, want = _demi_reference(batch, process, family, level, phi)
    got = [(r.j, r.g, r.margin, r.se, r.flagged, r.negative_products) for r in rep.records]
    assert rep.clip_constant == c
    assert [(j, g, f, k) for j, g, _, _, f, k in got] == [(j, g, f, k) for j, g, _, _, f, k in want]
    for g_rec, w_rec in zip(got, want):
        np.testing.assert_array_equal(np.array(g_rec[2:4]).view(np.uint64),
                                      np.array(w_rec[2:4]).view(np.uint64))


def test_demi_check_on_s_leaves_the_one_sided_walks_unbuilt():
    batch = TrajectoryBatch.generate(gaussian(6), 2000, master_seed=5)
    demi_check(batch, "S")
    demi_check(batch, "phi_of_S_plus", phi=PHI1)
    assert "u" not in vars(batch) and "v" not in vars(batch)
    demi_check(batch, "u")
    assert "u" in vars(batch) and "v" not in vars(batch)


def test_demi_validation():
    batch = TrajectoryBatch.generate(gaussian(4), 1000, master_seed=0)
    with pytest.raises(ValidationError):
        demi_check(batch, "S", family=())
    with pytest.raises(ValidationError):
        demi_check(batch, "S", family=("const", "mystery"))
    with pytest.raises(ValidationError):
        demi_check(batch, "phi_of_S_plus")  # phi missing
    small = TrajectoryBatch.generate(gaussian(4), 999, master_seed=0)
    with pytest.raises(ValidationError):
        demi_check(small, "S")


# ---------------------------------------------------------------------------
# SLLN trajectories


def test_slln_point_mass_all_zero():
    spec = RandomSequenceSpec("point_mass", 500, (("c", 0.0),))
    t = slln_trajectory(spec, PHI1, ScaleFunction.linear(1.0),
                        WeightSequence.power(1.0, 500), 500, 20, (100, 500), seed=0)
    assert all(q == 0.0 for q in t.q95_phi_ratio)
    assert all(q == 0.0 for q in t.q95_abs_ratio)


def test_slln_sign_sequence_classic_rate():
    spec = rademacher(10_000)
    t = slln_trajectory(spec, PHI1, ScaleFunction.linear(1.0),
                        WeightSequence.power(1.0, 10_000), 10_000, 100,
                        (1000, 10_000), seed=6)
    assert t.q95_abs_ratio[-1] < 0.05
    assert t.q95_abs_ratio[1] < t.q95_abs_ratio[0]


def test_slln_requires_unbounded_weights_and_sane_checkpoints():
    spec = rademacher(100)
    with pytest.raises(HypothesisViolationError):
        slln_trajectory(spec, PHI1, ScaleFunction.linear(1.0),
                        WeightSequence.custom([1.0] * 100), 100, 10, (50, 100), seed=0)
    w = WeightSequence.power(1.0, 100)
    with pytest.raises(ValidationError):
        slln_trajectory(spec, PHI1, ScaleFunction.linear(1.0), w, 100, 10,
                        (80, 40), seed=0)
    with pytest.raises(ValidationError):
        slln_trajectory(spec, PHI1, ScaleFunction.linear(1.0), w, 100, 10,
                        (50, 200), seed=0)


def test_slln_deterministic():
    spec = gaussian(2000)
    args = (spec, PHI1, ScaleFunction.linear(1.0), WeightSequence.power(1.0, 2000),
            2000, 25, (200, 2000))
    a = slln_trajectory(*args, seed=9)
    b = slln_trajectory(*args, seed=9)
    assert a.q95_abs_ratio == b.q95_abs_ratio
    assert a.median_phi_ratio == b.median_phi_ratio


def _slln_reference(spec, phi, chi, w, n, reps, checkpoints, seed):
    """The summaries row by row from whole n-length arrays, as slln_trajectory
    first computed them: partial_sums, phi(S)/chi(b), |S|/b, window max()."""
    b = w.materialize(n)
    chib = chi(b)
    m = block_rows(n)
    phi_out = np.empty((reps, len(checkpoints)))
    abs_out = np.empty((reps, len(checkpoints)))
    for r in range(reps):
        s = partial_sums(sample_iid(spec.with_n(n), SeedSpec(seed, r // m), rows=m)[r % m])
        phi_ratio = phi(s) / chib
        abs_ratio = np.abs(s) / b
        for i, k in enumerate(checkpoints):
            lo = max(k // 2, 1) - 1
            phi_out[r, i] = phi_ratio[lo:k].max()
            abs_out[r, i] = abs_ratio[lo:k].max()
    return (np.median(phi_out, axis=0), np.quantile(phi_out, 0.95, axis=0),
            np.median(abs_out, axis=0), np.quantile(abs_out, 0.95, axis=0))


SLLN_LAWS = {
    "gaussian": RandomSequenceSpec.gaussian(1, mu=0.1, sigma=2.0),
    "stable-1.2": RandomSequenceSpec.alpha_stable(1, alpha=1.2),
    "stable-1-skewed": RandomSequenceSpec.alpha_stable(1, alpha=1.0, beta=0.5),
    "rademacher": RandomSequenceSpec.rademacher(1),
    "point_mass": RandomSequenceSpec.point_mass(1, c=0.25),
    "gaussian-overflow": RandomSequenceSpec.gaussian(1, sigma=1e307),
}
# n = 100: blocks of 81 rows, the last cut short; n = 20_000: compensated sums,
# with windows that start and end at the chunk edges 8192 and 16_384.
SLLN_HORIZONS = {
    100: (200, (2, 50, 81, 100)),
    5000: (5, (2, 100, 4097, 5000)),
    20_000: (4, (2, 8192, 8193, 16_385, 20_000)),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n", sorted(SLLN_HORIZONS))
@pytest.mark.parametrize("law", sorted(SLLN_LAWS))
def test_slln_summaries_match_the_whole_row_reference(law, n, threads):
    reps, cps = SLLN_HORIZONS[n]
    spec = SLLN_LAWS[law].with_n(n)
    phi, chi = ShapeFunction.abs_power(1.5), ScaleFunction.power(2.0, 1.3)
    w = WeightSequence.power(0.9, n)
    with np.errstate(over="ignore", invalid="ignore"):
        got = slln_trajectory(spec, phi, chi, w, n, reps, cps, seed=11, threads=threads)
        want = _slln_reference(spec, phi, chi, w, n, reps, cps, 11)
    summaries = (got.median_phi_ratio, got.q95_phi_ratio,
                 got.median_abs_ratio, got.q95_abs_ratio)
    for g, ref in zip(summaries, want):
        assert np.array(g).tobytes() == ref.tobytes()
    if law == "gaussian-overflow" and n > 100:
        # the partial sums overflow: a fold that dropped NaN would show here
        assert np.isnan(summaries).any() and np.isinf(summaries).any()


def test_slln_nonfinite_increment_reports_its_index(monkeypatch):
    draw = sequences.draw_chunks

    def with_nan(spec, seed, rows=1):
        for lo, x in enumerate(draw(spec, seed, rows)):
            if seed.block_index == 1 and lo == 1:
                x[5] = np.nan
            yield x

    monkeypatch.setattr(sequences, "draw_chunks", with_nan)
    w = WeightSequence.power(1.0, 20_000)
    for threads in (1, 2):
        with pytest.raises(DataError, match=r"index 8197\)") as err:
            slln_trajectory(gaussian(20_000), PHI1, ScaleFunction.linear(1.0), w,
                            20_000, 3, (100, 20_000), seed=0, threads=threads)
        assert err.value.index == 8192 + 5


@pytest.mark.parametrize("n,reps", [(100, 200), (20_000, 3)])
def test_slln_overflowing_increments_raise_at_the_first_one(n, reps):
    spec = RandomSequenceSpec.gaussian(n, sigma=1e308)  # |X| > 1.8e308 is inf
    w = WeightSequence.power(1.0, n)
    for threads in (1, 2):
        with np.errstate(over="ignore"), pytest.raises(DataError, match=r"index 24\)"):
            slln_trajectory(spec, PHI1, ScaleFunction.linear(1.0), w, n, reps,
                            (2, n), seed=1, threads=threads)
