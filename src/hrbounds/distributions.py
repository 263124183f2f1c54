"""Seed-reproducible i.i.d. samplers for the increment families.

The menu spans the regimes the bounds care about: bounded increments
(rademacher), light tails (gaussian), asymmetric light tails
(centered_exponential), infinite variance (alpha_stable with alpha < 2)
and the degenerate point mass.

Stream discipline: the stream for ``SeedSpec(master_seed, b)`` is derived
as ``numpy.random.SeedSequence([master_seed, b])``, i.e. hash-based child
seeding.  One stream feeds one block of rows (``sample_iid(spec, seed,
rows=m)``); streams for distinct block indices never overlap, so blocks can
be generated in parallel and in any order with identical results.  How rows
are grouped into blocks is fixed by ``sequences.block_rows``.

``draw_chunks`` reads a block's draw as consecutive pieces of at most
``CHUNK`` entries; ``sample_iid`` is their concatenation.  A block of at
most ``CHUNK`` entries is one piece, one vectorised draw.  Every family
reads its stream in entry order, so the pieces do not depend on where the
draw is cut.  The stable family reads two uniforms per entry: u1 from the
block's stream, and u2 from the same stream advanced past the ``rows * n``
draws of u1, which are the values two whole-block ``random`` calls give.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterDomainError

FAMILIES = ("rademacher", "gaussian", "centered_exponential", "alpha_stable", "point_mass")

# parameters each family accepts (and their defaults)
_FAMILY_PARAMS: dict[str, dict[str, float]] = {
    "rademacher": {},
    "gaussian": {"mu": 0.0, "sigma": 1.0},
    "centered_exponential": {"lam": 1.0},
    "alpha_stable": {"alpha": 1.5, "beta": 0.0, "scale": 1.0},
    "point_mass": {"c": 0.0},
}

_U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream: one block of rows.

    ``(master_seed, block_index)`` is mapped to an independent child stream
    via ``SeedSequence([master_seed, block_index])``; different block
    indices under the same master seed give disjoint streams.
    """

    master_seed: int
    block_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) <= _U64_MAX:
            raise ParameterDomainError("master_seed", "must be a 64-bit unsigned integer")
        if int(self.block_index) < 0:
            raise ParameterDomainError("block_index", "must be non-negative")

    def generator(self) -> np.random.Generator:
        """Instantiate the stream this spec addresses."""
        ss = np.random.SeedSequence([int(self.master_seed), int(self.block_index)])
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class RandomSequenceSpec:
    """Generative description of an i.i.d. sequence X_1..X_n.

    ``params`` holds the family's named parameters; unknown or out-of-domain
    parameters are rejected at construction.
    """

    family: str
    n: int
    params: tuple[tuple[str, float], ...] = field(default_factory=tuple)
    dependence: str = "iid"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterDomainError("family", f"unknown family {self.family!r}")
        if self.dependence != "iid":
            raise ParameterDomainError("dependence", "only 'iid' is supported")
        if int(self.n) < 1:
            raise ParameterDomainError("n", "sequence length must be a positive integer")
        allowed = _FAMILY_PARAMS[self.family]
        given = dict(self.params)
        for name in given:
            if name not in allowed:
                raise ParameterDomainError(name, f"not a parameter of family {self.family!r}")
        merged = {**allowed, **given}
        object.__setattr__(self, "params", tuple(sorted(merged.items())))
        p = self.param_dict()
        if self.family == "gaussian" and p["sigma"] <= 0:
            raise ParameterDomainError("sigma", "must be > 0")
        if self.family == "centered_exponential" and p["lam"] <= 0:
            raise ParameterDomainError("lam", "must be > 0")
        if self.family == "alpha_stable":
            if not 0 < p["alpha"] <= 2:
                raise ParameterDomainError("alpha", "must satisfy 0 < alpha <= 2")
            if not -1 <= p["beta"] <= 1:
                raise ParameterDomainError("beta", "must satisfy -1 <= beta <= 1")
            if p["scale"] <= 0:
                raise ParameterDomainError("scale", "must be > 0")

    # -- constructors ------------------------------------------------------

    @classmethod
    def rademacher(cls, n: int) -> "RandomSequenceSpec":
        return cls("rademacher", n)

    @classmethod
    def gaussian(cls, n: int, mu: float = 0.0, sigma: float = 1.0) -> "RandomSequenceSpec":
        return cls("gaussian", n, (("mu", float(mu)), ("sigma", float(sigma))))

    @classmethod
    def centered_exponential(cls, n: int, lam: float = 1.0) -> "RandomSequenceSpec":
        return cls("centered_exponential", n, (("lam", float(lam)),))

    @classmethod
    def alpha_stable(cls, n: int, alpha: float, beta: float = 0.0,
                     scale: float = 1.0) -> "RandomSequenceSpec":
        return cls("alpha_stable", n,
                   (("alpha", float(alpha)), ("beta", float(beta)), ("scale", float(scale))))

    @classmethod
    def point_mass(cls, n: int, c: float = 0.0) -> "RandomSequenceSpec":
        return cls("point_mass", n, (("c", float(c)),))

    # -- helpers -----------------------------------------------------------

    def param_dict(self) -> dict[str, float]:
        return dict(self.params)

    def with_n(self, n: int) -> "RandomSequenceSpec":
        return RandomSequenceSpec(self.family, n, self.params, self.dependence)

    def descriptor(self) -> dict:
        """Canonical plain-dict form, used for digests and serialization."""
        return {
            "family": self.family,
            "n": int(self.n),
            "params": self.param_dict(),
            "dependence": self.dependence,
        }

    def law(self) -> dict:
        """The increment law alone, without the horizon.

        Event digests use this so that a batch drawn at a longer horizon can
        be sliced down to a shorter event without changing identity.
        """
        return {
            "family": self.family,
            "params": self.param_dict(),
            "dependence": self.dependence,
        }


# Entries per chunk of a streamed draw, of the prefix sums (``sequences``) and
# of ``stable_sample``'s evaluation: 64 KiB of float64, small enough that work
# buffers of this size are reused from the heap and never fault in new pages.
CHUNK = 8192


def _log_cos_from_tan(t: np.ndarray) -> None:
    """Overwrite t = tan x, |x| < pi/2, with log cos x = -log1p(t^2) / 2."""
    np.square(t, out=t)
    np.log1p(t, out=t)
    t *= -0.5


def _check_unit(u: np.ndarray, name: str) -> None:
    if u.size and (u.min() <= 0 or u.max() >= 1):
        raise ParameterDomainError(name, "must lie strictly inside (0, 1)")


def stable_sample(alpha: float, beta: float, scale: float, u1, u2):
    """One stable variate from two uniforms, via the CMS transform.

    Pure function: identical inputs give identical output, so it can be
    tested directly against distributional oracles.  Accepts scalars or
    equally-shaped arrays for ``u1``/``u2``.

    Uses the standard one-parameterization: for ``alpha != 1`` the output is
    ``scale * Z`` with Z the unit variate; ``alpha == 1`` adds the
    ``(2/pi) * beta * scale * log(scale)`` shift that keeps the skewed
    Cauchy branch consistent.  At ``alpha == 2`` the transform collapses to
    ``2 * scale * sin(V) * sqrt(W)``, a centered normal with variance
    ``2 * scale**2``.

    The transform of Chambers, Mallows & Stuck (1976) is evaluated in
    tangent form, with tangents, logs and one exp, because ``sin``, ``cos``
    and array powers cost several times as much per entry.  With
    ``V = pi (u1 - 1/2)``, ``W = -log u2`` and ``theta = V + b0``, every
    cosine the transform takes has its angle inside (-pi/2, pi/2), so
    ``log cos x = -log1p(tan(x)^2) / 2``; ``sin(alpha theta)`` comes from
    its half-angle tangent ``h`` as ``2h / (1 + h^2)``; and the two powers
    fold into ``exp(-log cos V / alpha + (1 - alpha) / alpha
    * (log cos(V - alpha theta) - log W))``.  This agrees with the
    sin/cos/pow form to about 1e-14 relative, and stays finite at uniforms
    where rounding puts a cosine's angle just past pi/2, where the pow form
    gives NaN.  The flattened input is evaluated in chunks of ``CHUNK``
    entries, each in place in its slice of the output and three work
    buffers, so no temporary grows with the input.
    """
    if not 0 < alpha <= 2:
        raise ParameterDomainError("alpha", "must satisfy 0 < alpha <= 2")
    if not -1 <= beta <= 1:
        raise ParameterDomainError("beta", "must satisfy -1 <= beta <= 1")
    if scale <= 0:
        raise ParameterDomainError("scale", "must be > 0")
    u1, u2 = np.broadcast_arrays(np.asarray(u1, dtype=np.float64),
                                 np.asarray(u2, dtype=np.float64))
    _check_unit(u1, "u1")
    _check_unit(u2, "u2")
    shape = u1.shape
    u1, u2 = u1.ravel(), u2.ravel()
    out = np.empty(u1.size, dtype=np.float64)

    if alpha == 1.0:
        half_pi = np.pi / 2
        shift = (2 / np.pi) * beta * scale * math.log(scale)
    else:
        # tan(pi*alpha/2) is exactly 0 at alpha == 2; avoid the float residue
        ta = 0.0 if alpha == 2.0 else math.tan(math.pi * alpha / 2)
        b0 = math.atan(beta * ta) / alpha
        # scale * s0 * sin(alpha theta), with the half-angle form's factor 2
        c = 2 * scale * (1 + (beta * ta) ** 2) ** (1 / (2 * alpha))
        p = (1 - alpha) / alpha
    # Every step writes into the chunk of ``out`` or one of three work
    # buffers; the comments name what each buffer holds after the step.
    for lo in range(0, u1.size, CHUNK):
        chunk = slice(lo, lo + CHUNK)
        o = out[chunk]
        v = u1[chunk] - 0.5
        v *= np.pi                                  # V, uniform on (-pi/2, pi/2)
        if alpha == 1.0:
            # logarithmic branch; reduces to tan(V) (Cauchy) when beta == 0
            a = v * beta
            a += half_pi                            # pi/2 + beta V
            np.tan(v, out=v)                        # tan V
            np.multiply(a, v, out=o)                # (pi/2 + beta V) tan V
            _log_cos_from_tan(v)                    # log cos V
            w = np.log(u2[chunk])
            w *= -half_pi                           # pi/2 W, W = -log u2
            w /= a
            np.log(w, out=w)                        # log(pi/2 W / (pi/2 + beta V))
            w += v
            w *= beta
            o -= w
            o *= (2 / np.pi) * scale
            o += shift
        else:
            at = v + b0
            at *= alpha                             # alpha theta
            np.tan(np.subtract(v, at, out=o), out=o)
            _log_cos_from_tan(o)                    # log cos(V - alpha theta)
            w = np.log(u2[chunk])
            np.negative(w, out=w)                   # W, unit exponential
            np.log(w, out=w)                        # log W
            o -= w
            o *= p
            _log_cos_from_tan(np.tan(v, out=v))
            v /= alpha                              # log cos(V) / alpha
            o -= v
            np.exp(o, out=o)                        # cos(V)^(-1/alpha) (cos(V - alpha theta)/W)^p
            at *= 0.5
            np.tan(at, out=at)                      # h = tan(alpha theta / 2)
            np.square(at, out=w)
            w += 1
            at /= w
            at *= c                                 # scale s0 sin(alpha theta)
            o *= at
    out = out.reshape(shape)
    return out if out.ndim else float(out)


def draw_chunks(spec: RandomSequenceSpec, seed: SeedSpec,
                rows: int = 1) -> Iterator[np.ndarray]:
    """The ``(rows, n)`` draw of ``spec`` from ``seed``, as consecutive flat pieces.

    Each piece holds the next ``CHUNK`` entries in row-major order (the last
    one fewer), so a draw of at most ``CHUNK`` entries, none included, is a
    single piece.
    The pieces, concatenated and reshaped, are ``sample_iid(spec, seed,
    rows)`` bit for bit.  The stream is seeded once, when the first piece is
    asked for.
    """
    rng = seed.generator()
    total = int(rows) * int(spec.n)
    p = spec.param_dict()
    if spec.family == "rademacher":
        def draw(size):
            return 2.0 * rng.integers(0, 2, size=size) - 1.0
    elif spec.family == "gaussian":
        def draw(size):
            return p["mu"] + p["sigma"] * rng.standard_normal(size)
    elif spec.family == "centered_exponential":
        def draw(size):
            return rng.exponential(1.0 / p["lam"], size=size) - 1.0 / p["lam"]
    elif spec.family == "point_mass":
        def draw(size):
            return np.full(size, p["c"], dtype=np.float64)
    else:
        # alpha_stable: u1 and u2 feed the pure CMS transform.  Drawn in one
        # piece, u2 follows u1 in the stream; drawn in several, it is read
        # from a copy of the stream advanced past all of u1.
        rng2 = rng
        if total > CHUNK:
            bits = np.random.PCG64()
            bits.state = rng.bit_generator.state
            bits.advance(total)
            rng2 = np.random.Generator(bits)
        eps = np.finfo(np.float64).eps

        def draw(size):
            u1 = rng.random(size)
            u2 = rng2.random(size)
            np.clip(u1, eps, 1.0 - eps, out=u1)
            np.clip(u2, eps, 1.0 - eps, out=u2)
            return stable_sample(p["alpha"], p["beta"], p["scale"], u1, u2)
    for lo in range(0, total or 1, CHUNK):
        yield draw(min(CHUNK, total - lo))


def sample_iid(spec: RandomSequenceSpec, seed: SeedSpec,
               rows: int | None = None) -> np.ndarray:
    """Draw the length-n i.i.d. vector described by ``spec``, or ``rows`` of them.

    With ``rows`` the result is a ``(rows, n)`` array drawn from the one
    stream; ``rows=1`` gives the 1-D draw as its only row.  The draw is the
    concatenation of ``draw_chunks``.  Bitwise reproducible: identical
    ``(spec, seed, rows)`` give identical output.
    """
    pieces = list(draw_chunks(spec, seed, 1 if rows is None else rows))
    x = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
    return x if rows is None else x.reshape(int(rows), int(spec.n))
