"""Shape function phi, scale function chi, and weight sequences.

These are the three functional ingredients every bound in the package is
built from.  Each carries a machine-checkable certificate of the
hypotheses the bounds impose: phi must be nonnegative, nondecreasing on
[0, inf), convex, vanish at 0 and satisfy phi(x+y) <= K (phi(x) + phi(y));
chi must be positive nondecreasing on b > 0; the weights must satisfy
0 = b_0 < b_1 <= b_2 <= ...
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CertificateError, ParameterDomainError, ValidationError

# Certificate grid: 61 log-spaced magnitudes per sign per variable over
# [1e-3, 1e3].  Brackets the supremum location x == y for power functions.
_GRID_MAGNITUDES = np.logspace(-3.0, 3.0, 61)


@dataclass(frozen=True)
class ShapeFunction:
    """phi in one of two closed-form families.

    abs_power(nu):            phi(x) = |x| ** nu,        nu >= 1
    positive_part_power(r):   phi(x) = max(x, 0) ** r,   r >= 1

    Both vanish at 0, are nonnegative, nondecreasing on [0, inf) (where the
    bounds apply them) and convex, with subadditivity constant 2**(e-1).
    """

    kind: str
    exponent: float

    def __post_init__(self):
        if self.kind not in ("abs_power", "positive_part_power"):
            raise ParameterDomainError("kind", f"unknown shape kind {self.kind!r}")
        if self.exponent < 1:
            raise ParameterDomainError("exponent", "must be >= 1")

    @classmethod
    def abs_power(cls, nu: float) -> "ShapeFunction":
        return cls("abs_power", float(nu))

    @classmethod
    def positive_part_power(cls, r: float) -> "ShapeFunction":
        return cls("positive_part_power", float(r))

    def __call__(self, x):
        return phi_eval(self, x)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "exponent": self.exponent}


@dataclass(frozen=True)
class SubadditivityCertificate:
    """Analytic constant K with its numeric grid check.

    ``checked_grid_max_ratio`` is the max of phi(x+y) / (phi(x) + phi(y))
    over the certificate grid; validity requires it not to exceed K.
    """

    K: float
    checked_grid_max_ratio: float
    grid_description: str

    def __post_init__(self):
        if self.checked_grid_max_ratio > self.K + 1e-9:
            raise CertificateError(
                f"grid ratio {self.checked_grid_max_ratio!r} exceeds claimed K={self.K!r}")


@dataclass(frozen=True)
class ScaleFunction:
    """chi in one of two closed-form families on b > 0.

    linear(epsilon):        chi(b) = epsilon * b
    power(epsilon, rho):    chi(b) = epsilon * b ** rho,  rho >= 1

    Both are positive, nondecreasing, and diverge as b -> inf, so they are
    usable in the almost-sure convergence statements as well.
    """

    kind: str
    epsilon: float
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "power"):
            raise ParameterDomainError("kind", f"unknown scale kind {self.kind!r}")
        if self.epsilon <= 0:
            raise ParameterDomainError("epsilon", "must be > 0")
        if self.rho < 1:
            raise ParameterDomainError("rho", "must be >= 1")
        if self.kind == "linear" and self.rho != 1.0:
            raise ParameterDomainError("rho", "linear scale has rho fixed at 1")

    @classmethod
    def linear(cls, epsilon: float) -> "ScaleFunction":
        return cls("linear", float(epsilon), 1.0)

    @classmethod
    def power(cls, epsilon: float, rho: float) -> "ScaleFunction":
        return cls("power", float(epsilon), float(rho))

    def __call__(self, b):
        return chi_eval(self, b)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "epsilon": self.epsilon, "rho": self.rho}


@dataclass(frozen=True)
class WeightSequence:
    """Nondecreasing positive weights b_1..b_n (b_0 = 0 is implicit).

    power(beta):  b_k = k ** beta, beta >= 0 (unbounded iff beta > 0)
    log:          b_k = log(k + 1)
    custom:       an explicit validated list
    """

    kind: str
    n: int
    beta: float = 1.0
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("power", "log", "custom"):
            raise ParameterDomainError("kind", f"unknown weight kind {self.kind!r}")
        if int(self.n) < 1:
            raise ParameterDomainError("n", "length must be positive")
        if self.kind == "power" and self.beta < 0:
            raise ParameterDomainError("beta", "must be >= 0")
        if self.kind == "custom":
            if len(self.values) != self.n:
                raise ValidationError(
                    f"custom weights: expected {self.n} values, got {len(self.values)}")
            prev = 0.0  # b_0 = 0, so b_1 must be strictly positive
            for i, v in enumerate(self.values, start=1):
                if not np.isfinite(v) or v <= 0:
                    raise ValidationError(f"custom weights: non-positive entry at index {i}")
                if v < prev:
                    raise ValidationError(f"custom weights: decreasing at index {i}")
                prev = v

    @classmethod
    def power(cls, beta: float, n: int) -> "WeightSequence":
        return cls("power", int(n), beta=float(beta))

    @classmethod
    def log(cls, n: int) -> "WeightSequence":
        return cls("log", int(n))

    @classmethod
    def custom(cls, values, n: int | None = None) -> "WeightSequence":
        values = tuple(float(v) for v in values)
        return cls("custom", len(values) if n is None else int(n), values=values)

    @property
    def is_unbounded(self) -> bool:
        """Whether b_k -> inf can be certified from the kind alone.

        Custom lists are finite evidence and are conservatively treated as
        bounded, so they are rejected wherever divergence is a hypothesis.
        """
        if self.kind == "power":
            return self.beta > 0
        return self.kind == "log"

    def materialize(self, n: int | None = None) -> np.ndarray:
        return weights_materialize(self, n)

    def descriptor(self) -> dict:
        d: dict = {"kind": self.kind, "n": int(self.n)}
        if self.kind == "power":
            d["beta"] = self.beta
        if self.kind == "custom":
            d["values"] = list(self.values)
        return d


def phi_eval(phi: ShapeFunction, x):
    """Evaluate phi(x) in closed form (scalar or elementwise).

    The power is taken in place on |x| or max(x, 0), so an array input costs
    one temporary, not two.  Exponents 1 and 2 take numpy's own fast paths
    of ``** 1.0`` (none) and ``** 2.0`` (a square), so the bits are those of
    ``np.abs(x) ** e``.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    if phi.kind == "abs_power":
        np.abs(x, out=out)
    else:
        np.maximum(x, 0.0, out=out)
    if phi.exponent == 2.0:
        np.square(out, out=out)
    elif phi.exponent != 1.0:
        np.power(out, phi.exponent, out=out)
    return out if out.ndim else float(out)


def chi_eval(chi: ScaleFunction, b):
    """Evaluate chi(b) for b > 0 (scalar or elementwise)."""
    b = np.asarray(b, dtype=np.float64)
    if np.any(b <= 0):
        raise ParameterDomainError("b", "scale function requires b > 0")
    out = chi.epsilon * b if chi.kind == "linear" else chi.epsilon * b ** chi.rho
    return out if out.ndim else float(out)


def weights_materialize(w: WeightSequence, n: int | None = None) -> np.ndarray:
    """Concrete b_1..b_n, as a read-only array.

    ``n`` overrides the declared length for the kind-based sequences (the
    rule extends naturally); a custom list cannot be extended.  The last
    (w, n) built is kept until `release_weights`, so the bounds and event
    digests of one command share one array instead of building it once each.
    """
    n = int(w.n if n is None else n)
    if n < 1:
        raise ValidationError("weight sequence length must be positive")
    return _weights(w, n)


@lru_cache(maxsize=1)
def _weights(w: WeightSequence, n: int) -> np.ndarray:
    if w.kind == "custom":
        if n > len(w.values):
            raise ValidationError(f"custom weights: only {len(w.values)} values, {n} requested")
        b = np.array(w.values[:n], dtype=np.float64)
    else:
        k = np.arange(1, n + 1, dtype=np.float64)
        b = k ** w.beta if w.kind == "power" else np.log(k + 1.0)
    b.setflags(write=False)
    return b


@lru_cache(maxsize=1)
def weights_sha256(w: WeightSequence, n: int) -> str:
    """Hex SHA-256 of b_1..b_n as little-endian float64 bytes.

    Kept with the array until `release_weights`, so the kinds of one command
    hash their shared weights once.
    """
    return hashlib.sha256(weights_materialize(w, n).astype("<f8", copy=False)).hexdigest()


def release_weights() -> None:
    """Drop the kept b_1..b_n and its hash, so that neither outlives the command that used it."""
    _weights.cache_clear()
    weights_sha256.cache_clear()


@lru_cache(maxsize=32)
def subadditivity_constant(phi: ShapeFunction) -> SubadditivityCertificate:
    """Analytic K with phi(x+y) <= K (phi(x) + phi(y)), plus a grid check.

    For both power families K = 2**(exponent - 1), attained at x == y > 0.
    The certificate evaluates the ratio over signed pairs from the log grid
    and fails loudly if any grid point contradicts the analytic constant.
    A passed check is kept per (frozen) ``phi``; a failed one is not, so it
    raises on every call.
    """
    k_analytic = 2.0 ** (phi.exponent - 1.0)
    mags = _GRID_MAGNITUDES
    axis = np.concatenate([-mags[::-1], mags])
    x, y = np.meshgrid(axis, axis)
    num = phi_eval(phi, x + y)
    den = phi_eval(phi, x) + phi_eval(phi, y)
    pos = den > 0
    if np.any(num[~pos] > 0):
        raise CertificateError("phi(x+y) > 0 on a grid pair with phi(x) + phi(y) == 0")
    max_ratio = float(np.max(num[pos] / den[pos]))
    return SubadditivityCertificate(
        K=k_analytic,
        checked_grid_max_ratio=max_ratio,
        grid_description="61 log-spaced magnitudes per sign per variable over [1e-3, 1e3]",
    )
