"""Sampler correctness: moment-match oracles, stream discipline, domains."""

import math

import numpy as np
import pytest

from hrbounds.distributions import (
    CHUNK,
    RandomSequenceSpec,
    SeedSpec,
    draw_chunks,
    sample_iid,
    stable_sample,
)
from hrbounds.sequences import block_rows, for_each_block
from hrbounds.errors import ParameterDomainError, ValidationError


def spec(family, n, **params):
    return RandomSequenceSpec(family, n, tuple(sorted(params.items())))


STABLE15 = dict(alpha=1.5, beta=0.0, scale=1.0)


def test_rademacher_support_and_balance():
    x = sample_iid(spec("rademacher", 100_000), SeedSpec(0, 0))
    assert set(np.unique(x)) == {-1.0, 1.0}
    assert abs(x.mean()) < 4 / math.sqrt(100_000)


def test_gaussian_moments():
    x = sample_iid(spec("gaussian", 100_000, mu=1.5, sigma=2.0), SeedSpec(1, 0))
    assert abs(x.mean() - 1.5) < 4 * 2.0 / math.sqrt(100_000)
    assert abs(x.std() - 2.0) < 0.03


def test_centered_exponential_is_centered():
    x = sample_iid(spec("centered_exponential", 100_000, lam=2.0), SeedSpec(2, 0))
    assert abs(x.mean()) < 4 * 0.5 / math.sqrt(100_000)
    assert x.min() >= -0.5  # exponential(lam) - 1/lam is bounded below


def test_point_mass_is_constant():
    x = sample_iid(spec("point_mass", 100, c=-3.25), SeedSpec(3, 0))
    assert np.all(x == -3.25)


def test_stable_alpha2_matches_gaussian_variance():
    """At the boundary the sampler collapses to a normal with variance 2*scale^2."""
    x = sample_iid(spec("alpha_stable", 100_000, alpha=2.0, beta=0.0, scale=1.0),
                   SeedSpec(0, 0))
    se = x.var() * math.sqrt(2.0 / (x.size - 1))
    assert abs(x.var() - 2.0) < 3 * se
    assert abs(x.mean()) < 4 * math.sqrt(2.0 / x.size)


def test_stable_alpha1_cauchy_tail_fraction():
    """For a standard Cauchy, P(|X| > 1) = 1/2 exactly."""
    x = sample_iid(spec("alpha_stable", 100_000, alpha=1.0, beta=0.0, scale=1.0),
                   SeedSpec(1, 0))
    frac = np.mean(np.abs(x) > 1.0)
    assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / x.size)


def test_stable_absolute_mean_constant():
    # E|X| = (2/pi) * Gamma(1 - 1/alpha) * scale for the symmetric case, alpha > 1.
    # Infinite variance makes the empirical mean converge slowly, hence the
    # loose tolerance and the pinned seed.
    x = sample_iid(spec("alpha_stable", 100_000, **STABLE15), SeedSpec(2, 0))
    target = (2.0 / math.pi) * math.gamma(1.0 - 1.0 / 1.5)
    assert abs(np.abs(x).mean() - target) < 0.08


def test_replicate_streams_are_uncorrelated():
    g = spec("gaussian", 100_000, mu=0.0, sigma=1.0)
    a = sample_iid(g, SeedSpec(7, 0))
    b = sample_iid(g, SeedSpec(7, 1))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


@pytest.mark.parametrize("family,params", [
    ("rademacher", {}),
    ("gaussian", dict(mu=0.0, sigma=1.0)),
    ("alpha_stable", STABLE15),
])
def test_symmetric_families_negation_invariance(family, params):
    """Two-sample location check: X and -X' should agree in mean within 4 se."""
    s = spec(family, 100_000, **params)
    x = sample_iid(s, SeedSpec(3, 0))
    y = -sample_iid(s, SeedSpec(4, 0))
    se = math.sqrt(x.var() / x.size + y.var() / y.size)
    assert abs(x.mean() - y.mean()) <= 4 * se


def test_sampling_is_deterministic_per_seedspec():
    s = spec("alpha_stable", 64, **STABLE15)
    a = sample_iid(s, SeedSpec(11, 5))
    b = sample_iid(s, SeedSpec(11, 5))
    c = sample_iid(s, SeedSpec(11, 6))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stable_sample_closed_form_at_alpha2():
    u1 = np.array([0.3, 0.7, 0.11])
    u2 = np.array([0.5, 0.25, 0.9])
    out = stable_sample(2.0, 0.0, 1.5, u1, u2)
    assert out.shape == (3,)
    assert np.all(np.isfinite(out))
    # scale invariance holds exactly in the closed form
    np.testing.assert_allclose(stable_sample(2.0, 0.0, 3.0, u1, u2), 2.0 * out)


def _cms_reference(alpha, beta, scale, u1, u2):
    """The CMS transform in its sin/cos/pow form, as the sampler first wrote it."""
    v = np.pi * (u1 - 0.5)
    w = -np.log(u2)
    if alpha == 1.0:
        half_pi = np.pi / 2
        z = (2 / np.pi) * ((half_pi + beta * v) * np.tan(v)
                           - beta * np.log((half_pi * w * np.cos(v)) / (half_pi + beta * v)))
        return scale * z + (2 / np.pi) * beta * scale * math.log(scale)
    ta = 0.0 if alpha == 2.0 else math.tan(math.pi * alpha / 2)
    b0 = math.atan(beta * ta) / alpha
    s0 = (1 + (beta * ta) ** 2) ** (1 / (2 * alpha))
    z = (s0 * np.sin(alpha * (v + b0)) / np.cos(v) ** (1 / alpha)
         * (np.cos(v - alpha * (v + b0)) / w) ** ((1 - alpha) / alpha))
    return scale * z


_EPS = np.finfo(np.float64).eps
_EDGES = np.array([_EPS, 1e-12, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-12, 1 - _EPS])


@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("alpha", [0.3, 0.6, 1.0, 1.2, 1.5, 1.9, 2.0])
def test_stable_sample_matches_sin_cos_pow_form(alpha, beta):
    """The tangent form agrees with the sin/cos/pow form within 1e-13 relative.

    At alpha = 1 the variate is a difference of two terms and crosses zero,
    so last-bit differences there are absolute: they get an atol of 1e-13
    times the scale.  The reference is NaN where rounding puts a cosine's
    angle just past pi/2 (u1 = eps or 1 - eps, alpha = 1.2, beta = -+1); the
    tangent form must stay finite there too.
    """
    scale = 1.3
    rng = np.random.default_rng(2012)
    random = np.clip(rng.random((2, 20_000)), _EPS, 1 - _EPS)
    edges = np.stack([g.ravel() for g in np.meshgrid(_EDGES, _EDGES)])
    atol = 1e-13 * scale if alpha == 1.0 else 0.0
    with np.errstate(invalid="ignore"):
        for name, (u1, u2) in (("random", random), ("edges", edges)):
            got = stable_sample(alpha, beta, scale, u1, u2)
            want = _cms_reference(alpha, beta, scale, u1, u2)
            assert np.all(np.isfinite(got))
            ok = np.isfinite(want)
            assert ok.all() or name == "edges"
            np.testing.assert_allclose(got[ok], want[ok], rtol=1e-13, atol=atol)


@pytest.mark.parametrize("beta", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("alpha", [1.1, 1.2, 1.5, 1.9])
def test_stable_sample_finite_at_clipped_uniform_edges(alpha, beta):
    """Finite at the edges the clipped uniforms reach, though not accurate there.

    Near alpha = 1.2 with u1 = 1 - eps (beta = -1) or u1 = eps (beta = 1),
    V - alpha theta rounds onto pi/2 and the second cosine is lost:
    ``stable_sample(1.2, -1, 1, 1 - eps, 0.5)`` is 2.507 where the exact
    transform gives 3.928.  Only finiteness is pinned here.
    """
    u = np.array([_EPS, 0.5, 1 - _EPS])
    u1, u2 = (g.ravel() for g in np.meshgrid(u, u))
    assert np.all(np.isfinite(stable_sample(alpha, beta, 1.0, u1, u2)))


def test_stable_sample_scalar_in_float_out():
    for alpha in (0.7, 1.0, 2.0):
        out = stable_sample(alpha, 0.5, 1.0, 0.3, 0.6)
        assert type(out) is float
        assert out == stable_sample(alpha, 0.5, 1.0, np.array([0.3]), np.array([0.6]))[0]


def test_stable_sample_chunks_do_not_change_bits():
    """A (3, 10_007) input crosses a chunk boundary; each row is its own call."""
    rng = np.random.default_rng(7)
    u1, u2 = rng.random((2, 3, 10_007))
    for alpha, beta in ((1.5, 0.3), (1.0, -0.5), (0.6, 1.0)):
        whole = stable_sample(alpha, beta, 2.0, u1, u2)
        rows = np.stack([stable_sample(alpha, beta, 2.0, a, b) for a, b in zip(u1, u2)])
        assert whole.shape == (3, 10_007)
        np.testing.assert_array_equal(whole, rows)


def test_stable_sample_uniform_domain():
    for u1, u2 in ((0.0, 0.5), (0.5, 1.0), (np.array([0.2, 1.5]), np.array([0.3, 0.4]))):
        with pytest.raises(ParameterDomainError):
            stable_sample(1.5, 0.0, 1.0, u1, u2)


@pytest.mark.parametrize("bad", [
    dict(alpha=0.0, beta=0.0, scale=1.0),
    dict(alpha=2.5, beta=0.0, scale=1.0),
    dict(alpha=1.5, beta=1.5, scale=1.0),
    dict(alpha=1.5, beta=0.0, scale=0.0),
])
def test_stable_parameter_domains(bad):
    with pytest.raises(ParameterDomainError):
        spec("alpha_stable", 4, **bad)


def test_other_parameter_domains():
    with pytest.raises(ParameterDomainError):
        spec("gaussian", 4, mu=0.0, sigma=0.0)
    with pytest.raises(ParameterDomainError):
        spec("centered_exponential", 4, lam=-1.0)
    with pytest.raises(ParameterDomainError):
        spec("levy_flight", 4)
    with pytest.raises((ParameterDomainError, ValidationError)):
        RandomSequenceSpec("rademacher", 4, (), "markov")


def test_partial_params_fill_documented_defaults():
    s = RandomSequenceSpec("alpha_stable", 8, (("alpha", 1.2),))
    assert s.param_dict() == {"alpha": 1.2, "beta": 0.0, "scale": 1.0}


def test_law_excludes_horizon():
    a = spec("gaussian", 8, mu=0.0, sigma=1.0)
    b = spec("gaussian", 99, mu=0.0, sigma=1.0)
    assert a.law() == b.law()
    assert a.descriptor() != b.descriptor()


def _whole_draw_reference(spec, seed, rows):
    """The (rows, n) draw as one vectorised call per array, as sample_iid first made it."""
    rng = seed.generator()
    size = (rows, spec.n)
    p = spec.param_dict()
    if spec.family == "rademacher":
        return 2.0 * rng.integers(0, 2, size=size) - 1.0
    if spec.family == "gaussian":
        return p["mu"] + p["sigma"] * rng.standard_normal(size)
    if spec.family == "centered_exponential":
        return rng.exponential(1.0 / p["lam"], size=size) - 1.0 / p["lam"]
    if spec.family == "point_mass":
        return np.full(size, p["c"], dtype=np.float64)
    u1 = np.clip(rng.random(size), _EPS, 1.0 - _EPS)
    u2 = np.clip(rng.random(size), _EPS, 1.0 - _EPS)
    return stable_sample(p["alpha"], p["beta"], p["scale"], u1, u2)


STREAM_SPECS = [
    RandomSequenceSpec.rademacher(1),
    RandomSequenceSpec.gaussian(1, mu=0.5, sigma=2.0),
    RandomSequenceSpec.centered_exponential(1, lam=3.0),
    RandomSequenceSpec.alpha_stable(1, alpha=1.3, beta=0.4, scale=2.0),
    RandomSequenceSpec.point_mass(1, c=-1.25),
]


def _bits(x):
    return np.ascontiguousarray(x).ravel().view(np.uint64)


@pytest.mark.parametrize("n", [1, 4096, 8191, 8192, 8193, 100_003])
@pytest.mark.parametrize("law", STREAM_SPECS, ids=lambda s: s.family)
def test_draw_chunks_are_the_whole_draw(law, n, monkeypatch):
    """Chunks concatenate to sample_iid and to one whole draw, bit for bit.

    A block is seeded once however many chunks it is read in, and
    for_each_block yields what its reader makes of each block's chunks, in
    block order, the last block cut short.
    """
    spec = law.with_n(n)
    m = block_rows(n)
    seeded = []
    generator = SeedSpec.generator
    monkeypatch.setattr(SeedSpec, "generator", lambda self: seeded.append(self) or generator(self))
    for rows in sorted({1, m}):
        seeded.clear()
        pieces = list(draw_chunks(spec, SeedSpec(3, 1), rows))
        assert seeded == [SeedSpec(3, 1)]
        assert [p.size for p in pieces[:-1]] == [CHUNK] * (len(pieces) - 1)
        assert 0 < pieces[-1].size <= CHUNK
        want = _bits(_whole_draw_reference(spec, SeedSpec(3, 1), rows))
        np.testing.assert_array_equal(_bits(np.concatenate(pieces)), want)
        np.testing.assert_array_equal(_bits(sample_iid(spec, SeedSpec(3, 1), rows=rows)), want)

    seeded.clear()
    reps = 2 * m + (m > 1)   # with several rows per block, the last is cut to one
    got = dict(for_each_block(spec, reps, 5, 1, lambda first, pieces: (
        first, np.concatenate(list(pieces)))))
    blocks = -(-reps // m)
    assert sorted(got) == [b * m for b in range(blocks)]
    assert seeded == [SeedSpec(5, b) for b in range(blocks)]
    for b in range(blocks):
        want = _whole_draw_reference(spec, SeedSpec(5, b), m)[:reps - b * m]
        np.testing.assert_array_equal(_bits(got[b * m]), _bits(want))


@pytest.mark.parametrize("law", STREAM_SPECS, ids=lambda s: s.family)
def test_draw_of_no_rows_is_empty(law):
    spec = law.with_n(5)
    assert [p.size for p in draw_chunks(spec, SeedSpec(0), rows=0)] == [0]
    assert sample_iid(spec, SeedSpec(0), rows=0).shape == (0, 5)
