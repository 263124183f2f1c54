"""The stdlib normal and Clopper-Pearson formulas, the PAVA fit and the skewed
stable sampler against scipy.

scipy is a test-only oracle: the package itself imports only numpy and the
standard library.  Every formula comparison holds within 1e-12 relative; the
sampler's empirical CDF holds within 6 binomial standard errors.
"""

import math

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import isotonic_regression  # noqa: E402
from scipy.stats import beta, levy_stable, norm  # noqa: E402

from hrbounds.bounds import _normal_cdf, _normal_pdf, _pava  # noqa: E402
from hrbounds.distributions import RandomSequenceSpec, SeedSpec, sample_iid  # noqa: E402
from hrbounds.simulation import _normal_quantile, binomial_estimate  # noqa: E402

RTOL = 1e-12
LEVELS = (0.5, 0.9, 0.95, 0.99, 0.999, 0.999999)


def test_normal_cdf_and_pdf():
    for z in np.linspace(-12.0, 12.0, 4801):
        assert _normal_cdf(z) == pytest.approx(norm.cdf(z), rel=RTOL, abs=0.0)
        assert _normal_pdf(z) == pytest.approx(norm.pdf(z), rel=RTOL, abs=0.0)


def test_normal_quantile_at_the_levels_in_use():
    # Wilson z at 1 - alpha/2; the demi check's Bonferroni z at 1 - alpha/tests
    for level in LEVELS:
        for tests in (2, 1, 35, 155, 1000):
            p = 1.0 - (1.0 - level) / tests
            assert _normal_quantile(p) == pytest.approx(norm.ppf(p), rel=RTOL, abs=0.0)


def test_clopper_pearson_boundaries():
    for reps in (1, 2, 7, 100, 1000, 4000, 10_000, 10**6):
        for level in LEVELS:
            a = (1.0 - level) / 2.0
            zero = binomial_estimate(0, reps, level)
            full = binomial_estimate(reps, reps, level)
            assert zero.ci_high == pytest.approx(beta.isf(a, 1, reps), rel=RTOL, abs=0.0)
            assert full.ci_low == pytest.approx(beta.ppf(a, reps, 1), rel=RTOL, abs=0.0)


def test_wilson_interval():
    for level in LEVELS:
        z = norm.ppf(1.0 - (1.0 - level) / 2.0)
        for k, reps in ((1, 1000), (500, 1000), (3999, 4000), (17, 29)):
            p = k / reps
            denom = 1.0 + z * z / reps
            center = (p + z * z / (2.0 * reps)) / denom
            half = z * math.sqrt(p * (1.0 - p) / reps + z * z / (4.0 * reps ** 2)) / denom
            est = binomial_estimate(k, reps, level)
            assert est.ci_low == pytest.approx(max(0.0, center - half), rel=RTOL, abs=0.0)
            assert est.ci_high == pytest.approx(min(1.0, center + half), rel=RTOL, abs=0.0)


def test_pava_matches_isotonic_regression():
    rng = np.random.default_rng(2012)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        y = rng.normal(size=n).cumsum() * 10.0 ** rng.integers(-3, 4)
        if rng.random() < 0.3:
            y = np.round(y)  # ties
        got, want = _pava(y), isotonic_regression(y).x
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.abs(y).max())


@pytest.mark.parametrize("alpha,skew,scale", [(1.2, 0.5, 2.0), (0.8, -0.7, 1.0), (1.0, 0.5, 1.5)])
def test_skewed_stable_cdf(monkeypatch, alpha, skew, scale):
    """Empirical CDF of 2e5 draws against levy_stable (S1) at seven points."""
    monkeypatch.setattr(levy_stable, "parameterization", "S1")
    n = 200_000
    x = sample_iid(RandomSequenceSpec.alpha_stable(n, alpha, skew, scale), SeedSpec(2012, 0))
    points = scale * np.array([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0])
    cdf = levy_stable.cdf(points, alpha, skew, scale=scale)
    empirical = (x[:, None] <= points).mean(axis=0)
    se = np.sqrt(cdf * (1.0 - cdf) / n)
    assert np.all(np.abs(empirical - cdf) <= 6.0 * se)
