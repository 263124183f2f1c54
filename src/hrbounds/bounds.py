"""Closed-form probability bounds for weighted partial-sum maxima.

Four inequalities are evaluated from per-index moment data, each into a
BoundReport with per-term contributions:

* ``bound_theorem1``: lower bound on P(phi(S_k) <= chi(b_k) for all k <= n)
  built from the positive/negative-part decomposition, with the
  subadditivity constant K of phi entering as a factor 2K.
* ``bound_rao``: the one-envelope precursor on the positive-part walk u of
  the same profile, 1 - sum of increments of E[phi(u_k)] over chi(b_k).
* ``bound_hajek_renyi_classic``: the two-range second-moment upper bound
  on the weighted maximum of partial sums of independent centered terms.
* ``bound_amini``: the variance-plus-cross-term upper bound on
  P(max_k |S_k|/b_k >= eps).

Each bound computes its terms and the event it constrains, and ``_report``
does the rest; callers read the event to estimate from the report.

Moment data arrives as a MomentProfile, either from the closed-form table
(`analytic_moment_profile`) or from Monte Carlo (`estimate_moment_profile`).
Estimated profiles are isotonically projected to restore the monotonicity
the analytic quantities must have, and are flagged as non-integrable when
running means fail to stabilize; both lower bounds refuse a flagged profile
rather than silently use it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._digest import digest_of, event_a_n, event_max_ratio
from .distributions import CHUNK, RandomSequenceSpec
from .errors import (
    AnalyticProfileUnavailable,
    DataError,
    HypothesisViolationError,
    NonIntegrabilityError,
    ParameterDomainError,
    ValidationError,
)
from .sequences import RowBlock, TrajectoryBatch
from .shape_functions import (
    ScaleFunction,
    ShapeFunction,
    WeightSequence,
    subadditivity_constant,
)

BOUND_KINDS = ("theorem1_lower", "rao_lower", "hajek_renyi_upper", "amini_upper")

# Relative drift between half-sample and full-sample running means above
# which an estimated moment sequence is declared non-integrable.
_DRIFT_LIMIT = 0.10


# ---------------------------------------------------------------------------
# moment profiles


def _frozen_vector(vec, name: str) -> np.ndarray:
    """A read-only 1-D float64 copy of ``vec``, so a caller's later writes do not reach it."""
    arr = np.array(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name}: expected a 1-D vector, got {arr.ndim} dimensions")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class MomentProfile:
    """Per-index moment data: E[phi(u_k)] and E[phi(v_k)] for k = 1..n.

    The vectors are held as read-only 1-D float64 arrays, copied once from
    whatever sequence the caller passes; ``==`` is identity, so compare the
    vectors themselves.  ``n`` is their common length.  ``source`` is the
    law descriptor of the increment sequence, which the bounds' events name.
    An estimated profile whose running means failed to stabilize is flagged
    ``non_integrable`` (the expectations are not trusted to exist), with
    the drift that flagged it in ``max_rel_drift``.
    """

    e_phi_u: np.ndarray
    e_phi_v: np.ndarray
    source: dict | None = None
    non_integrable: bool = False
    max_rel_drift: float | None = None

    def __post_init__(self):
        for name in ("e_phi_u", "e_phi_v"):
            object.__setattr__(self, name, _frozen_vector(getattr(self, name), name))
        if self.e_phi_u.size != self.e_phi_v.size:
            raise ValidationError(f"e_phi_u has {self.e_phi_u.size} entries, "
                                  f"e_phi_v has {self.e_phi_v.size}")
        if self.n < 1:
            raise ValidationError(f"a moment profile needs n >= 1, got {self.n}")
        for name in ("e_phi_u", "e_phi_v"):
            arr = getattr(self, name)
            if not self.non_integrable and not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name}: non-finite entry")
            if np.any(arr < 0):
                raise ValidationError(f"{name}: negative entry (phi is nonnegative)")
            bad = np.flatnonzero(np.diff(arr) < 0)
            if bad.size and not self.non_integrable:
                raise HypothesisViolationError(
                    f"{name} must be nondecreasing in k",
                    failing_indices=[int(i) + 2 for i in bad])  # 1-based k of the drop

    @property
    def n(self) -> int:
        return self.e_phi_u.size

    def increments(self) -> np.ndarray:
        """Increments of E[phi(u_k)] + E[phi(v_k)] with the k=0 term zero."""
        return np.diff(self.e_phi_u + self.e_phi_v, prepend=0.0)


# The parameter whose size can push a family's closed-form moments out of the
# float range; gaussian names the larger of |mu| and sigma.
_SIZE_PARAM = {"centered_exponential": "lam", "point_mass": "c", "alpha_stable": "scale"}


def _out_of_range(spec: RandomSequenceSpec, phi: ShapeFunction | None = None,
                  moments: str = "closed-form moments") -> ParameterDomainError:
    """Name the parameter whose size put ``moments`` outside the float range.

    A rademacher law has no size parameter, so there the shape's exponent
    is named (only an estimated profile can overflow it).
    """
    p = spec.param_dict()
    if spec.family == "rademacher":
        name, value = "exponent", phi.exponent
    else:
        name = _SIZE_PARAM.get(spec.family) or ("mu" if abs(p["mu"]) > p["sigma"] else "sigma")
        value = p[name]
    return ParameterDomainError(
        name, f"{value!r} puts the {moments} of the {spec.family} law outside the float range")


def _in_float_range(moments):
    """Report float overflow or underflow in a closed-form moment as the parameter's fault."""
    @functools.wraps(moments)
    def checked(spec: RandomSequenceSpec, *args, **kwargs):
        try:
            return moments(spec, *args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            raise _out_of_range(spec) from None
    return checked


def _sided_increment_moments(spec: RandomSequenceSpec, order: int) -> tuple[float, float]:
    """(E[(X+)^order], E[(X-)^order]) for one increment of the law, order 1 or 2.

    Only the requested order is evaluated, so first moments stay available
    when the second ones leave the float range.  Raises NonIntegrabilityError
    when a requested moment is analytically infinite,
    AnalyticProfileUnavailable when no closed form is shipped.
    """
    p = spec.param_dict()
    if spec.family == "rademacher":
        return 0.5, 0.5
    if spec.family == "gaussian":
        return _gaussian_sided(p["mu"], p["sigma"], order)
    if spec.family == "centered_exponential":
        lam = p["lam"]
        # X = E - 1/lam, E ~ Exp(lam): both sided means are 1/(e*lam);
        # E[(X+)^2] = 2/(e*lam^2), E[(X-)^2] = (1 - 2/e)/lam^2.
        if order == 1:
            return math.exp(-1.0) / lam, math.exp(-1.0) / lam
        return 2.0 * math.exp(-1.0) / lam ** 2, (1.0 - 2.0 * math.exp(-1.0)) / lam ** 2
    if spec.family == "alpha_stable":
        alpha, beta, scale = p["alpha"], p["beta"], p["scale"]
        if alpha == 2.0:
            # exactly N(0, 2*scale^2)
            return _gaussian_sided(0.0, math.sqrt(2.0) * scale, order)
        if beta != 0.0:
            raise AnalyticProfileUnavailable(
                "closed-form sided moments are only shipped for symmetric stable laws")
        if alpha <= 1.0:
            raise NonIntegrabilityError(
                f"E|X| is infinite for a stable law with alpha={alpha} <= 1")
        if order == 2:
            raise NonIntegrabilityError(
                "second moment of the sided increments is infinite; "
                "the exponent-2 profile does not exist for this law")
        # symmetric, alpha in (1,2): E|X| = (2/pi) Gamma(1 - 1/alpha) * scale,
        # split evenly between the two sides.
        half_abs_mean = (1.0 / math.pi) * math.gamma(1.0 - 1.0 / alpha) * scale
        return half_abs_mean, half_abs_mean
    raise AnalyticProfileUnavailable(f"no sided-moment table for family {spec.family!r}")


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _normal_pdf(z: float) -> float:
    return math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)


def _gaussian_sided(mu: float, sigma: float, order: int) -> tuple[float, float]:
    def one_side(m: float) -> float:
        z = m / sigma
        if order == 1:
            return m * _normal_cdf(z) + sigma * _normal_pdf(z)
        return (m * m + sigma * sigma) * _normal_cdf(z) + m * sigma * _normal_pdf(z)

    return one_side(mu), one_side(-mu)


@_in_float_range
def _increment_sigma_ex2(spec: RandomSequenceSpec) -> tuple[float | None, float | None]:
    """Std and raw second moment of one increment, or (None, None) if infinite."""
    p = spec.param_dict()
    if spec.family == "rademacher":
        return 1.0, 1.0
    if spec.family == "gaussian":
        return p["sigma"], p["mu"] ** 2 + p["sigma"] ** 2
    if spec.family == "centered_exponential":
        return 1.0 / p["lam"], 1.0 / p["lam"] ** 2
    if spec.family == "point_mass":
        return 0.0, p["c"] ** 2
    if p["alpha"] == 2.0:
        s = math.sqrt(2.0) * p["scale"]
        return s, s * s
    return None, None


@_in_float_range
@np.errstate(over="ignore")  # an entry that overflows is refused by name below
def analytic_moment_profile(spec: RandomSequenceSpec, phi: ShapeFunction) -> MomentProfile:
    """Closed-form E[phi(u_k)], E[phi(v_k)] for the shipped law/shape table.

    Covers exponents 1 and 2 for every family with the needed moments
    (u_k and v_k are nonnegative, so the absolute-value and positive-part
    shapes coincide there), and any exponent for point masses.  Requesting
    a moment that is analytically infinite raises NonIntegrabilityError;
    combinations outside the table raise AnalyticProfileUnavailable.
    """
    k = np.arange(1, int(spec.n) + 1, dtype=np.float64)

    if spec.family == "point_mass":
        c = spec.param_dict()["c"]
        e_u = phi(k * max(c, 0.0))
        e_v = phi(k * max(-c, 0.0))
    elif phi.exponent == 1.0:
        a_p, a_m = _sided_increment_moments(spec, 1)
        e_u, e_v = k * a_p, k * a_m
    elif phi.exponent == 2.0:
        a_p, a_m = _sided_increment_moments(spec, 1)
        s_p, s_m = _sided_increment_moments(spec, 2)
        # E[(sum of k iid nonnegative terms)^2] = k*E[Y^2] + k(k-1)*(E[Y])^2
        e_u = k * s_p + k * (k - 1.0) * a_p ** 2
        e_v = k * s_m + k * (k - 1.0) * a_m ** 2
    else:
        raise AnalyticProfileUnavailable(
            f"no closed form for exponent {phi.exponent} outside point masses")
    if not (np.all(np.isfinite(e_u)) and np.all(np.isfinite(e_v))):
        raise _out_of_range(spec)

    return MomentProfile(e_u, e_v, source=spec.law())


def _pava(y) -> np.ndarray:
    """Nondecreasing least-squares fit with equal weights (pool adjacent violators).

    Each block keeps its sum and size; a new entry merges with the blocks
    before it while their mean exceeds its own.  Robertson, Wright and
    Dykstra, *Order Restricted Statistical Inference* (1988), ch. 1.
    """
    sums: list[float] = []
    sizes: list[int] = []
    for value in y:
        s, c = float(value), 1
        while sums and sums[-1] / sizes[-1] > s / c:
            s += sums.pop()
            c += sizes.pop()
        sums.append(s)
        sizes.append(c)
    return np.repeat(np.divide(sums, sizes), sizes)


def _running_mean_drift(half: np.ndarray, full: np.ndarray) -> float:
    """Max over k of the relative change between half- and full-sample means."""
    scale = np.maximum(np.abs(full), np.abs(half))
    with np.errstate(invalid="ignore"):
        rel = np.where(scale > 0, np.abs(full - half) / np.where(scale > 0, scale, 1.0), 0.0)
    return float(np.max(rel)) if rel.size else 0.0


class PhiSums:
    """Column sums of phi(u) and phi(v) over a batch's rows, taken block by block.

    Each block's ``phi(walk).sum(axis=0)`` is added to a running total in
    block order, and the total over the first R // 2 rows is kept when a
    block reaches that row; `estimate_moment_profile` reads the means and
    the half-sample means of its drift check from them.  Blocks are taken in
    row order on the reading thread, so the sums do not depend on
    ``threads``.
    """

    def __init__(self, phi: ShapeFunction, replications: int):
        self.phi = phi
        self.replications = int(replications)
        self.sums: list = [0.0, 0.0]
        self.halves: list = [0.0, 0.0]

    def take(self, block: RowBlock) -> None:
        cut = self.replications // 2 - block.first   # rows of this block in the first half
        for i, walk in enumerate((block.u, block.v)):
            with np.errstate(over="ignore", invalid="ignore"):  # overflow is named below
                values = self.phi(walk)
                if 0 <= cut <= len(values):
                    self.halves[i] = self.sums[i] + values[:cut].sum(axis=0)
                self.sums[i] = self.sums[i] + values.sum(axis=0)

    def means(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(full-sample mean, half-sample mean) of phi(u) and of phi(v)."""
        reps, half = self.replications, self.replications // 2
        return [(total / reps, first / half) for total, first in zip(self.sums, self.halves)]


def check_profile_reps(reps: int) -> None:
    """Refuse a moment profile from fewer than 100 rows (`bound` and `verify` check before drawing)."""
    if reps < 100:
        raise ValidationError("moment estimation needs >= 100 replications")


def estimate_moment_profile(batch: TrajectoryBatch, phi: ShapeFunction,
                            sums: PhiSums | None = None) -> MomentProfile:
    """Monte Carlo moment profile of ``batch``'s law, with isotonic projection and drift check.

    Every row of the batch is one replicate.  The non-integrability detector
    compares the half-sample and full-sample running means entrywise;
    relative drift beyond 10% marks the profile as non-integrable, and bound
    evaluators then refuse it.  Pass ``sums`` when they have taken the batch
    in a shared pass.
    """
    check_profile_reps(batch.replications)
    if sums is None:
        sums = PhiSums(phi, batch.replications)
        batch.fold(sums)
    elif sums.phi != phi:
        raise ValidationError("the phi sums are of another shape function")
    means = []
    drift = 0.0
    for mean, half in sums.means():
        drift = max(drift, _running_mean_drift(half, mean))
        means.append(_pava(mean))
    non_integrable = drift > _DRIFT_LIMIT
    if not (non_integrable or all(np.all(np.isfinite(m)) for m in means)):
        raise _out_of_range(batch.spec, phi, "estimated phi means")
    return MomentProfile(*means, source=batch.spec.law(), non_integrable=non_integrable,
                         max_rel_drift=drift)


# ---------------------------------------------------------------------------
# bound reports


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One evaluated inequality.

    ``terms`` are the per-index contributions, a read-only 1-D float64 array
    copied once (``==`` is identity): lower bounds reconstruct as
    raw_value = 1 - sum(terms), upper bounds as raw_value = sum(terms).
    ``value`` is raw_value clamped to [0, 1].  ``event`` is the event the
    bound constrains (law, shape, scale, weights, horizon).
    """

    bound_kind: str
    value: float
    raw_value: float
    terms: np.ndarray
    hypotheses_checked: tuple[tuple[str, bool], ...]
    event: dict = field(repr=False)

    def __post_init__(self):
        if self.bound_kind not in BOUND_KINDS:
            raise ValidationError(f"unknown bound kind {self.bound_kind!r}")
        object.__setattr__(self, "terms", _frozen_vector(self.terms, "terms"))

    @property
    def direction(self) -> str:
        return "lower" if self.bound_kind.endswith("_lower") else "upper"

    @functools.cached_property
    def inputs_digest(self) -> str:
        """The digest of ``event``, which a matching estimate carries too."""
        return digest_of(self.event)

    @property
    def informative(self) -> bool:
        return dict(self.hypotheses_checked).get("informative", False)

    def to_dict(self) -> dict:
        return {
            "bound_kind": self.bound_kind,
            "direction": self.direction,
            "value": self.value,
            "raw_value": self.raw_value,
            "terms": self.terms,
            "hypotheses_checked": [[name, ok] for name, ok in self.hypotheses_checked],
            "inputs_digest": self.inputs_digest,
            "event": self.event,
        }


# Exact sums.  Every finite float64 is M 2^(e - 53) with |M| < 2^53 and
# e + _BIAS in [1, _BUCKETS) (np.frexp's exponent e, subnormals included).
_BIAS, _BUCKETS = 1074, 2099
# Entries summed per bucket before the float bucket sums are folded: each
# sum then stays below 2^26 2^27 = 2^53, so it is exact.
_EXACT_LEN = 2 ** 26
# Shorter vectors go to math.fsum: the buckets cost about 20 us whatever the
# length, and the two take about the same time at this length.
_FSUM_MIN_LEN = 1280


def _fsum(a: np.ndarray) -> float:
    """``math.fsum`` of a 1-D float64 array, equal to it bit for bit.

    The exact sum is taken in integers, as in Neal's superaccumulators: each
    entry's 53-bit significand M (``np.frexp``) is split into a high part of
    27 bits and a low part of 26, and ``np.bincount`` sums each part into one
    bucket per exponent.  A bucket receives at most 8192 parts of a chunk,
    and at most ``_EXACT_LEN`` parts in all before it is folded, so its float
    sum stays below 2^53 and is exact (8192 2^27 < 2^53 for one chunk).  The
    non-zero buckets are folded into one Python int N, the exact sum times
    2^1127, and ``N / 2^1127`` is CPython's int true division, which rounds
    correctly, subnormal results included.

    The entries go to ``math.fsum`` itself, read as Python floats a chunk at
    a time, where its result or exception could differ or it is faster:
    below ``_FSUM_MIN_LEN`` entries; with a non-finite entry, or a magnitude
    at which ``fsum`` may raise "intermediate overflow" (n max|x| >= 2^1022);
    and for an exact sum of 0, whose sign ``fsum`` decides.
    """
    if a.size and a.size >= _FSUM_MIN_LEN:
        big = 2.0 ** 1022 / a.size
        if a.min() > -big and a.max() < big:
            n = 0
            for g in range(0, a.size, _EXACT_LEN):
                high = low = 0.0
                for i in range(g, min(g + _EXACT_LEN, a.size), CHUNK):
                    m, e = np.frexp(a[i:i + CHUNK])
                    e += _BIAS
                    m *= 2.0 ** 27
                    h = np.trunc(m)
                    m -= h
                    m *= 2.0 ** 26
                    high = high + np.bincount(e, h, _BUCKETS)
                    low = low + np.bincount(e, m, _BUCKETS)
                for sums, shift in ((high, 26), (low, 0)):
                    for j in np.flatnonzero(sums != 0).tolist():
                        n += int(sums[j]) << (j + shift)
            if n:
                return n / (1 << 1127)
    return math.fsum(itertools.chain.from_iterable(
        a[i:i + CHUNK].tolist() for i in range(0, a.size, CHUNK)))


def _report(kind: str, terms: np.ndarray, event: dict, *checked: str) -> BoundReport:
    """The report of ``kind``: raw is 1 - sum(terms) for a lower bound, sum(terms)
    for an upper one; ``checked`` names the hypotheses that held.  A term that
    left the float range is refused here, by the kind and its first k."""
    bad = np.flatnonzero(~np.isfinite(terms))
    if bad.size:
        raise ValidationError(f"non-finite {kind} term at k={int(bad[0]) + 1}")
    s = _fsum(terms)
    lower = kind.endswith("_lower")
    raw = 1.0 - s if lower else s
    informative = raw > 0.0 if lower else raw < 1.0
    return BoundReport(
        bound_kind=kind,
        value=min(1.0, max(0.0, raw)),
        raw_value=raw,
        terms=terms,
        hypotheses_checked=(*((name, True) for name in checked), ("informative", informative)),
        event=event,
    )


def _integrable(mp: MomentProfile) -> MomentProfile:
    """``mp`` itself, unless it is flagged non-integrable: a lower bound is then undefined."""
    if mp.non_integrable:
        raise NonIntegrabilityError(
            "moment profile failed the running-mean stabilization check "
            f"(max relative drift {mp.max_rel_drift!r}); bound undefined")
    return mp


def bound_theorem1(phi: ShapeFunction, chi: ScaleFunction, w: WeightSequence,
                   mp: MomentProfile) -> BoundReport:
    """Lower bound on P(phi(S_k) <= chi(b_k), all k <= n) from sided moments.

    raw = 1 - 2K * sum_k (increment of E[phi(u_k)] + E[phi(v_k)]) / chi(b_k)
    with K the subadditivity constant of phi.  The bound is only meaningful
    when every moment is finite; a profile flagged non-integrable is refused.
    """
    inc = _integrable(mp).increments()
    bad = np.flatnonzero(~np.isfinite(inc))
    if bad.size:
        raise HypothesisViolationError(
            "non-finite moment increments", failing_indices=[int(i) + 1 for i in bad])
    bad = np.flatnonzero(inc < 0)
    if bad.size:
        raise HypothesisViolationError(
            "decreasing combined moment sequence", failing_indices=[int(i) + 1 for i in bad])
    chib = chi(w.materialize(mp.n))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused by _report
        terms = 2.0 * subadditivity_constant(phi).K * inc / chib
    return _report("theorem1_lower", terms, event_a_n(mp.source, phi, chi, w, mp.n),
                   "well_defined", "moments_nondecreasing")


def bound_rao(phi: ShapeFunction, chi: ScaleFunction, w: WeightSequence,
              mp: MomentProfile) -> BoundReport:
    """Lower bound 1 - sum_k (E[phi(u_k)] - E[phi(u_{k-1})]) / chi(b_k), E[phi(u_0)] = 0.

    Rao's envelope bound on the positive-part walk u of the profile that
    ``bound_theorem1`` reads, which has checked E[phi(u_k)] finite,
    nonnegative and nondecreasing; a flagged profile is refused.
    """
    inc = np.diff(_integrable(mp).e_phi_u, prepend=0.0)
    chib = chi(w.materialize(mp.n))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused by _report
        terms = inc / chib
    return _report("rao_lower", terms, event_a_n(mp.source, phi, chi, w, mp.n, process="u"),
                   "moments_nondecreasing")


def _upper_input(vec, name: str, n: int, epsilon: float) -> np.ndarray:
    """The first ``n`` entries of an upper bound's moment vector, checked finite and >= 0."""
    if epsilon <= 0:
        raise ParameterDomainError("epsilon", "must be > 0")
    e = np.asarray(vec, dtype=np.float64)
    if e.size < n:
        raise DataError(f"{name} has {e.size} entries, need {n}")
    e = e[:n]
    if not np.all(np.isfinite(e)):
        raise DataError(f"non-finite {name} entry", index=int(np.flatnonzero(~np.isfinite(e))[0]))
    if np.any(e < 0):
        raise ValidationError(f"{name} entries must be nonnegative")
    return e


def bound_hajek_renyi_classic(ex2, w: WeightSequence, m: int, n: int,
                              epsilon: float, source: dict | None = None,
                              sided: str = "abs") -> BoundReport:
    """Two-range second-moment upper bound on the weighted partial-sum maximum.

    value = min(1, eps^{-2} * (b_m^{-2} * sum_{j=1..m} ex2[j]
                               + sum_{j=m+1..n} ex2[j]/b_j^2))

    The formula is stated for the one-sided maximum of S_k/b_k; ``sided``
    declares which event the report is checked against (the two-sided form
    is what the verifier exercises, by symmetry of the centered laws used).
    """
    event = event_max_ratio(source, w, m, n, epsilon, sided)  # checks 1 <= m <= n
    m, n = int(m), int(n)
    e = _upper_input(ex2, "ex2", n, epsilon)
    b = w.materialize(n)
    terms = np.empty(n, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused by _report
        eps2 = np.float64(epsilon) ** 2
        terms[:m] = e[:m] / (eps2 * b[m - 1] ** 2)
        terms[m:] = e[m:] / (eps2 * b[m:] ** 2)
    return _report("hajek_renyi_upper", terms, event, "second_moments_finite")


def bound_amini(sigma, w: WeightSequence, n: int, epsilon: float,
                source: dict | None = None) -> BoundReport:
    """Variance/cross-term upper bound on P(max_{k<=n} |S_k|/b_k >= eps).

    value = min(1, (8/eps^2) sum_k sigma_k^2/b_k^2
                   + 2 sum_{k>=2} sigma_k (sigma_1 + ... + sigma_{k-1})/b_k^2)
    """
    n = int(n)
    if n < 1:
        raise ParameterDomainError("n", "must be >= 1")
    s = _upper_input(sigma, "sigma", n, epsilon)
    b = w.materialize(n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused by _report
        head = np.concatenate([[0.0], np.cumsum(s)[:-1]])  # sigma_1 + .. + sigma_{k-1}
        terms = (8.0 / np.float64(epsilon) ** 2) * s ** 2 / b ** 2 + 2.0 * s * head / b ** 2
    return _report("amini_upper", terms, event_max_ratio(source, w, 1, n, epsilon, "abs"),
                   "sigma_nonnegative")


# ---------------------------------------------------------------------------
# series criterion for almost-sure convergence


@dataclass(frozen=True)
class SLLNSeriesSpec:
    """Inputs of the series criterion sum_k alpha_k * b_k^{-r} < infinity.

    ``alpha`` is a scalar (broadcast) or a per-k vector of nonnegative
    coefficients; ``c`` is the hypothesis constant carried along for
    reporting, not multiplied into the series.
    """

    alpha: float | tuple[float, ...]
    r: float
    weights: WeightSequence
    c: float = 1.0

    def __post_init__(self):
        if self.r <= 0:
            raise ParameterDomainError("r", "must be > 0")
        if self.c <= 0:
            raise ParameterDomainError("c", "must be > 0")
        values = self.alpha if isinstance(self.alpha, tuple) else (self.alpha,)
        for i, a in enumerate(values, start=1):
            if not math.isfinite(a) or a < 0:
                raise ValidationError(f"alpha: bad coefficient at index {i}")
        if not self.weights.is_unbounded:
            raise ValidationError(
                "series criterion needs certifiably unbounded weights "
                "(power with beta > 0, or log)")

    def alphas(self, horizon: int) -> np.ndarray:
        if isinstance(self.alpha, tuple):
            if len(self.alpha) < horizon:
                raise ValidationError(
                    f"alpha vector has {len(self.alpha)} entries, need {horizon}")
            return np.asarray(self.alpha[:horizon], dtype=np.float64)
        return np.full(horizon, float(self.alpha))


@dataclass(frozen=True)
class SLLNSeriesReport:
    partial_sum: float
    tail_bound: float | None  # bound on the sum past the horizon; None unless converging
    verdict: str  # converging | diverging | inconclusive
    horizon: int
    c: float

    def to_dict(self) -> dict:
        return {
            "partial_sum": self.partial_sum,
            "tail_bound": self.tail_bound,
            "verdict": self.verdict,
            "horizon": self.horizon,
            "c": self.c,
        }


def slln_series_check(s: SLLNSeriesSpec, horizon: int) -> SLLNSeriesReport:
    """Decide sum_k alpha_k b_k^{-r} < infinity and sum its first ``horizon`` terms.

    A scalar alpha and the spec's weights decide the series in closed form.
    alpha = 0 makes every term 0.  Power weights b_k = k^beta give the
    p-series alpha k^{-p}, p = beta r, which converges iff p > 1.  As x^{-p}
    decreases, the integral test bounds the sum past the horizon h by
    ``tail_bound = alpha int_h^inf x^{-p} dx = alpha h^{1-p} / (p - 1)``; the
    integral is at most sum_{k>=h} k^{-p}, so the bound exceeds that sum by at
    most the first omitted term, alpha h^{-p}.  Log weights b_k = log(k + 1)
    diverge for alpha > 0: log(k + 1)^r = o(k) for every r > 0, so the terms
    eventually exceed alpha / k, a harmonic series.  A per-k alpha vector is
    known only up to the horizon, and no finite prefix decides a series, so
    it is inconclusive.  ``tail_bound`` is None unless the verdict is
    converging.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValidationError("horizon must be at least 1")
    delta = s.alphas(horizon) * s.weights.materialize(horizon) ** (-float(s.r))
    verdict, tail_bound = "diverging", None
    if isinstance(s.alpha, tuple):
        verdict = "inconclusive"
    elif s.alpha == 0.0:
        verdict, tail_bound = "converging", 0.0
    elif s.weights.kind == "power" and s.weights.beta * s.r > 1.0:
        p = s.weights.beta * s.r
        verdict, tail_bound = "converging", s.alpha * horizon ** (1.0 - p) / (p - 1.0)
    return SLLNSeriesReport(
        partial_sum=_fsum(delta),
        tail_bound=tail_bound,
        verdict=verdict,
        horizon=horizon,
        c=float(s.c),
    )
