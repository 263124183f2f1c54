"""Monte Carlo and exact estimation of the bounded probabilities.

The bounds module produces one-number reports; this module produces the
matching empirical side: estimates of P(A_n) and of weighted-maximum
exceedance probabilities, an exact oracle for sign sequences (integer path
counts by dynamic programming over the lattice walk, n <= 4096),
a verdict function comparing the two, an empirical check of the defining
inequality E[(T_{j+1} - T_j) g(T_1..T_j)] >= 0, and trailing-window ratio
summaries for almost-sure convergence demonstrations.

Each event is defined once, as a region (`_region`): which values T_k may
take at step k.  The Monte Carlo estimators test every step of a sampled
path against it and the dynamic program every lattice state, so both
compute the probability of the same event.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from ._digest import digest_of, event_a_n, event_max_ratio
from .bounds import BoundReport
from .distributions import CHUNK, RandomSequenceSpec
from .errors import (
    DigestMismatchError,
    EnumerationSizeError,
    HypothesisViolationError,
    ParameterDomainError,
    ValidationError,
)
from .sequences import TrajectoryBatch, for_each_block, prefix_sum_chunks
from .shape_functions import ScaleFunction, ShapeFunction, WeightSequence

# Largest sign-sequence horizon of the exact oracle.  There the dynamic program
# takes at most about 1.4 s (one core of a 2-vCPU x86 host).
_ENUM_MAX_N = 4096

DEMI_PROCESSES = ("S", "u", "v", "phi_of_S_plus")
DEFAULT_DEMI_FAMILY = ("const", "coordinate", "running_max",
                       "indicator_q25", "indicator_q75")


# ---------------------------------------------------------------------------
# binomial estimates


def _normal_quantile(p: float) -> float:
    """Standard normal quantile; p rounded to 0 or 1 maps to -inf or inf."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return NormalDist().inv_cdf(p)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A binomial proportion with a two-sided confidence interval.

    Wilson intervals by default; exact Clopper-Pearson at the boundary
    (p_hat of exactly 0 or 1), where Wilson degenerates.  ``event_digest``
    identifies the event estimated so reports can be matched to bounds.
    """

    p_hat: float
    replications: int
    ci_low: float
    ci_high: float
    level: float = 0.99
    method: str = "wilson"
    event_digest: str | None = None
    event: dict | None = None

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValidationError("confidence interval must satisfy "
                                  "0 <= ci_low <= p_hat <= ci_high <= 1")
        if self.method not in ("wilson", "exact_clopper_pearson"):
            raise ValidationError(f"unknown interval method {self.method!r}")

    def to_dict(self) -> dict:
        return {
            "p_hat": self.p_hat,
            "replications": self.replications,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "level": self.level,
            "method": self.method,
            "event_digest": self.event_digest,
            "event": self.event,
        }


def binomial_estimate(successes: int, replications: int, level: float = 0.99,
                      event: dict | None = None) -> MonteCarloEstimate:
    """Wilson score interval, or Clopper-Pearson when p_hat is 0 or 1."""
    if replications < 1:
        raise ValidationError("need at least one replication")
    if not 0 <= successes <= replications:
        raise ValidationError("successes outside [0, replications]")
    if not 0.0 < level < 1.0:
        raise ParameterDomainError("level", "must be in (0, 1)")
    alpha = 1.0 - level
    p = successes / replications
    if successes == 0 or successes == replications:
        # Clopper-Pearson in closed form: (alpha/2)^(1/R) at R successes and
        # 1 minus it at none; expm1 keeps the latter exact near 0 for large R.
        root = math.log(alpha / 2.0) / replications
        lo = 0.0 if successes == 0 else math.exp(root)
        hi = 1.0 if successes == replications else -math.expm1(root)
        method = "exact_clopper_pearson"
    else:
        z = _normal_quantile(1.0 - alpha / 2.0)
        denom = 1.0 + z * z / replications
        center = (p + z * z / (2.0 * replications)) / denom
        half = z * math.sqrt(p * (1.0 - p) / replications
                             + z * z / (4.0 * replications ** 2)) / denom
        lo, hi = max(0.0, center - half), min(1.0, center + half)
        method = "wilson"
    return MonteCarloEstimate(
        p_hat=p, replications=replications, ci_low=lo, ci_high=hi,
        level=level, method=method,
        event_digest=None if event is None else digest_of(event), event=event)


# ---------------------------------------------------------------------------
# event probability estimation


def _exceeds(ratio: np.ndarray, epsilon: float, sided: str) -> np.ndarray:
    # The two-sided event uses >= (the exceedance form the upper bounds
    # constrain); the one-sided event keeps the strict > of the classical
    # statement.  For the continuous laws the difference is null.
    if sided == "abs":
        return ratio >= epsilon
    if sided == "upper":
        return ratio > epsilon
    raise ValidationError(f"unknown sidedness {sided!r}")


def _region(event: str, phi: ShapeFunction | None, chi: ScaleFunction | None,
            w: WeightSequence | None, n: int, epsilon: float | None = None, m: int = 1,
            sided: str = "abs", process: str = "S"):
    """An event's region as ``allowed(k, t)``: may the walk T (S, or u) have T_k = t?

    ``k`` is a scalar or an integer array that broadcasts against ``t``: the
    estimators pass the steps along a path's axis, the dynamic program a
    column of steps against a row of lattice values.
    ``event`` is "A_n" (phi(T_k) <= chi(b_k) for every k) or "max" (max over
    m <= k <= n of |T_k|/b_k, or T_k/b_k when ``sided`` is "upper", exceeds
    epsilon): a path is in A_n when every step is allowed, in max when one is not.
    """
    if process not in ("S", "u"):
        raise ValidationError(f"unknown process {process!r}")
    if w is None:
        raise ValidationError("a weight sequence is required")
    b = w.materialize(n)
    if event == "A_n":
        if phi is None or chi is None:
            raise ValidationError("the A_n event needs phi and chi")
        envelope = chi(b)
        return lambda k, t: phi(t) <= envelope[k - 1]
    if event != "max":
        raise ValidationError(f"unknown event {event!r}")
    if epsilon is None or epsilon <= 0:
        raise ParameterDomainError("epsilon", "must be > 0 for the max event")
    m = int(m)
    if m < 1 or m > n:
        raise IndexError(f"need 1 <= m <= n, got m={m}, n={n}")

    def allowed(k, t: np.ndarray) -> np.ndarray:
        ratio = (np.abs(t) if sided == "abs" else t) / b[k - 1]
        return (k < m) | ~_exceeds(ratio, epsilon, sided)
    return allowed


def _inside(allowed, paths: np.ndarray) -> int:
    """Number of sampled paths (rows) every one of whose steps is allowed."""
    return int(np.all(allowed(np.arange(1, paths.shape[1] + 1), paths), axis=1).sum())


def check_event_reps(reps: int) -> None:
    """Refuse an event estimate from fewer than 1000 rows (`verify` checks before drawing)."""
    if reps < 1000:
        raise ValidationError("event estimation needs >= 1000 replications")


def estimate_event_An(batch: TrajectoryBatch, phi: ShapeFunction, chi: ScaleFunction,
                      w: WeightSequence, level: float = 0.99,
                      process: str = "S") -> MonteCarloEstimate:
    """Estimate P(phi(T_k) <= chi(b_k) for all k <= n), T = S or u, over the rows of ``batch``."""
    n, reps = batch.n, batch.replications
    allowed = _region("A_n", phi, chi, w, n, process=process)
    check_event_reps(reps)
    return binomial_estimate(_inside(allowed, batch.s if process == "S" else batch.u), reps, level,
                             event=event_a_n(batch.spec.law(), phi, chi, w, n, process=process))


def estimate_max_event(batch: TrajectoryBatch, w: WeightSequence, epsilon: float,
                       m: int = 1, sided: str = "abs",
                       level: float = 0.99) -> MonteCarloEstimate:
    """Estimate P(max_{m<=k<=n} (|S_k| or S_k)/b_k exceeds epsilon) over the rows of ``batch``."""
    n, reps = batch.n, batch.replications
    allowed = _region("max", None, None, w, n, epsilon, m, sided)
    check_event_reps(reps)
    return binomial_estimate(reps - _inside(allowed, batch.s), reps, level,
                             event=event_max_ratio(batch.spec.law(), w, m, n, epsilon, sided))


def enumerate_exact(spec: RandomSequenceSpec, phi: ShapeFunction | None = None,
                    chi: ScaleFunction | None = None, w: WeightSequence | None = None,
                    n: int | None = None, event: str = "A_n",
                    epsilon: float | None = None, m: int = 1,
                    sided: str = "abs", process: str = "S") -> Fraction:
    """Exact event probability of a finite-support law, by counting sign paths.

    Both events depend on a path only through its lattice walk T_k: the
    partial sums S_k (steps +1 and -1) or, with ``process="u"``, the count
    u_k of +1 steps (steps 1 and 0).  A dynamic program over the states
    (k, T_k) keeps, for each value of T_k, the number of sign paths that
    reach it without leaving the event's region, as a Python integer; a
    horizon n costs O(n^2) integer additions, not 2^n paths (path counting
    for the simple random walk, Feller, Vol. I, ch. III).  The region is the
    estimators' `_region`, tested on float64 values, so ties fall the same
    way; ``event`` and the arguments after it are `_region`'s.  It is tested
    once per block of consecutive steps, at most ``CHUNK`` lattice cells (a
    single step when n + 1 > ``CHUNK`` / 2), and the counts are stepped in
    two preallocated vectors.  The result is an exact dyadic rational; a
    point mass has one path.
    """
    n = int(spec.n if n is None else n)
    if spec.family not in ("rademacher", "point_mass"):
        raise ValidationError("exact enumeration needs a finite-support family")
    if spec.family == "rademacher" and n > _ENUM_MAX_N:
        raise EnumerationSizeError(
            f"horizon {n} exceeds the exact-enumeration cap n <= {_ENUM_MAX_N}")
    allowed = _region(event, phi, chi, w, n, epsilon, m, sided, process)

    if spec.family == "point_mass":
        c = spec.param_dict()["c"]
        path = np.cumsum(np.full((1, n), max(c, 0.0) if process == "u" else c), axis=1)
        stay = Fraction(_inside(allowed, path))
    else:
        down = -1 if process == "S" else 0
        # cur[j]: count of paths with j up steps after the last step, in the region
        cur = np.zeros(n + 1, dtype=object)
        nxt = np.zeros(n + 1, dtype=object)
        cur[0] = 1
        steps = np.arange(1, n + 1)[:, None]
        up_counts = np.arange(n + 1)
        rows = max(1, CHUNK // (n + 1))
        for first in range(0, n, rows):
            k = steps[first:first + rows]
            ups = up_counts[:k[-1, 0] + 1]
            # blocked[i, j]: the state (k[i], j) leaves the region; j > k[i] is no state
            blocked = ~allowed(k, (ups + (k - ups) * down).astype(np.float64))
            blocked &= ups <= k
            for k_i, row, hit in zip(k[:, 0].tolist(), blocked, blocked.any(axis=1).tolist()):
                nxt[0] = cur[0]              # no up step: step k goes down
                nxt[k_i] = cur[k_i - 1]      # k up steps: step k goes up
                np.add(cur[1:k_i], cur[:k_i - 1], out=nxt[1:k_i])
                if hit:
                    nxt[:k_i + 1][row[:k_i + 1]] = 0
                cur, nxt = nxt, cur
        stay = Fraction(int(cur.sum()), 2 ** n)
    return stay if event == "A_n" else 1 - stay


# ---------------------------------------------------------------------------
# bound-versus-estimate verdicts


def verify_bound(estimate, report: BoundReport) -> str:
    """Compare a bound against an estimate of the same event.

    Returns "vacuous" when the clamped bound carries no information
    (raw <= 0 for a lower bound, raw >= 1 for an upper bound), "violation"
    when the estimate's whole confidence interval sits on the wrong side of
    the bound, and "consistent" otherwise.  Exact probabilities (Fraction
    or float) act as degenerate intervals.  When both sides carry an event
    digest the digests must agree.
    """
    if isinstance(estimate, MonteCarloEstimate):
        ci_low, ci_high = estimate.ci_low, estimate.ci_high
        digest = estimate.event_digest
    else:
        p = float(estimate)
        if not 0.0 <= p <= 1.0:
            raise ValidationError("exact probability outside [0, 1]")
        ci_low = ci_high = p
        digest = None
    if digest is not None and report.inputs_digest is not None \
            and digest != report.inputs_digest:
        raise DigestMismatchError(
            f"estimate describes {digest}, report describes {report.inputs_digest}")
    if report.direction == "lower":
        if report.raw_value <= 0.0:
            return "vacuous"
        return "violation" if ci_high < report.value else "consistent"
    if report.raw_value >= 1.0:
        return "vacuous"
    return "violation" if ci_low > report.value else "consistent"


# ---------------------------------------------------------------------------
# empirical demimartingale checking


@dataclass(frozen=True)
class MarginRecord:
    j: int               # margin of step j -> j+1 (1-based)
    g: str               # test-function name
    margin: float        # mean of (T_{j+1} - T_j) * g(T_1..T_j)
    se: float
    flagged: bool        # significantly negative at the Bonferroni level
    negative_products: int  # count of strictly negative per-sample products


@dataclass(frozen=True)
class DemiCheckReport:
    """Empirical margins of the defining inequality across (j, g) pairs.

    Flags use a one-sided z-test with Bonferroni correction over all pairs,
    so at family-wise level 0.99 the false-positive allowance is zero flags.
    """

    process: str
    level: float
    replications: int
    n: int
    family: tuple[str, ...]
    clip_constant: float
    records: tuple[MarginRecord, ...]

    @property
    def flagged(self) -> tuple[MarginRecord, ...]:
        return tuple(r for r in self.records if r.flagged)

    @property
    def flagged_count(self) -> int:
        return len(self.flagged)

    @property
    def pointwise_negative_count(self) -> int:
        return sum(r.negative_products for r in self.records)

    @property
    def passed(self) -> bool:
        return self.flagged_count == 0

    def flagged_js(self) -> tuple[int, ...]:
        return tuple(sorted({r.j for r in self.flagged}))

    def to_dict(self) -> dict:
        return {
            "process": self.process,
            "level": self.level,
            "replications": self.replications,
            "n": self.n,
            "family": list(self.family),
            "clip_constant": self.clip_constant,
            "flagged_count": self.flagged_count,
            "pointwise_negative_count": self.pointwise_negative_count,
            "passed": self.passed,
            "records": [
                {"j": r.j, "g": r.g, "margin": r.margin, "se": r.se,
                 "flagged": r.flagged, "negative_products": r.negative_products}
                for r in self.records
            ],
        }


def _process_matrix(batch: TrajectoryBatch, process: str,
                    phi: ShapeFunction | None) -> np.ndarray:
    if process == "S":
        return batch.s
    if process == "u":
        return batch.u
    if process == "v":
        return batch.v
    if process == "phi_of_S_plus":
        if phi is None:
            raise ValidationError("process phi_of_S_plus needs a shape function")
        return phi(np.maximum(batch.s, 0.0))
    raise ValidationError(f"unknown process {process!r}")


def check_demi_size(replications: int, n: int) -> None:
    """Refuse a demi check of fewer than 1000 rows or 2 steps, before any are drawn."""
    if replications < 1000:
        raise ValidationError("demi check needs >= 1000 replications")
    if n < 2:
        raise ValidationError("need at least two indices to form a margin")


def demi_check(batch: TrajectoryBatch, process: str = "S",
               family: tuple[str, ...] = DEFAULT_DEMI_FAMILY,
               level: float = 0.99,
               phi: ShapeFunction | None = None) -> DemiCheckReport:
    """Estimate E[(T_{j+1} - T_j) g(T_1..T_j)] for every j and test g.

    Every shipped g is componentwise nondecreasing and nonnegative (clipped
    coordinates and running maxima are shifted up by the clip constant), so
    the family is admissible for both the general and the nonnegative-g
    variants of the defining inequality.  A pair is flagged when its margin
    is significantly negative under a Bonferroni-corrected one-sided z-test.
    """
    if not family:
        raise ValidationError("empty test-function family")
    unknown = [g for g in family if g not in DEFAULT_DEMI_FAMILY]
    if unknown:
        raise ValidationError(f"unknown test functions: {unknown}")
    check_demi_size(batch.replications, batch.n)
    if not 0.0 < level < 1.0:
        raise ParameterDomainError("level", "must be in (0, 1)")

    T = _process_matrix(batch, process, phi)
    R, n = T.shape
    c = float(np.quantile(np.abs(T), 0.999))
    n_tests = (n - 1) * len(family)
    z = _normal_quantile(1.0 - (1.0 - level) / n_tests)

    # Step j is row j - 1 of the contiguous (n, R) transpose, so every
    # reduction runs along a contiguous row, as the 1-d reduction of one
    # column would, and gives the same bits.
    Tt = np.ascontiguousarray(T.T)
    diff = Tt[1:] - Tt[:-1]   # row j - 1: T_{j+1} - T_j
    cols = Tt[:-1]
    prod = np.empty_like(diff)
    quartiles = {}
    if "indicator_q25" in family or "indicator_q75" in family:
        # one partition gives both indicator thresholds of every step
        quartiles = dict(zip(("indicator_q25", "indicator_q75"),
                             np.quantile(cols, [0.25, 0.75], axis=1)))
    margins = {}
    for name in family:
        if name == "const":
            p = diff   # diff * 1 is diff
        else:
            if name == "coordinate":
                g = np.clip(cols, -c, c)
                g += c
            elif name == "running_max":
                g = np.clip(np.maximum.accumulate(cols, axis=0), -c, c)
                g += c
            else:
                g = (cols > quartiles[name][:, None]).astype(np.float64)
            p = np.multiply(diff, g, out=prod)
        margins[name] = (p.mean(axis=1).tolist(),
                         (p.std(axis=1, ddof=1) / math.sqrt(R)).tolist(),
                         np.count_nonzero(p < 0, axis=1).tolist())

    records = []
    for j in range(1, n):  # margin between T_j and T_{j+1}, 1-based
        for name in family:
            mean, se, neg = (m[j - 1] for m in margins[name])
            flagged = mean < -z * se if se > 0 else mean < 0
            records.append(MarginRecord(j=j, g=name, margin=mean, se=se,
                                        flagged=flagged, negative_products=neg))
    return DemiCheckReport(
        process=process, level=level, replications=R, n=n,
        family=tuple(family), clip_constant=c, records=tuple(records))


# ---------------------------------------------------------------------------
# almost-sure convergence demonstrations


@dataclass(frozen=True)
class SLLNTrajectoryReport:
    """Trailing-window maxima of the normalized ratios at checkpoints.

    At checkpoint k the window is [k/2, k]; the summary is the median and
    0.95-quantile across replicates of the window maximum, for both
    phi(S_k)/chi(b_k) and |S_k|/b_k.  A profile decreasing in k is the
    empirical signature of almost-sure convergence to zero.
    """

    checkpoints: tuple[int, ...]
    median_phi_ratio: tuple[float, ...]
    q95_phi_ratio: tuple[float, ...]
    median_abs_ratio: tuple[float, ...]
    q95_abs_ratio: tuple[float, ...]
    replications: int
    n: int
    master_seed: int

    def rows(self) -> list[dict]:
        return [
            {
                "checkpoint": k,
                "median_phi_ratio": self.median_phi_ratio[i],
                "q95_phi_ratio": self.q95_phi_ratio[i],
                "median_abs_ratio": self.median_abs_ratio[i],
                "q95_abs_ratio": self.q95_abs_ratio[i],
            }
            for i, k in enumerate(self.checkpoints)
        ]


def check_checkpoints(checkpoints, n: int) -> tuple[int, ...]:
    """The checkpoints as ints; refused unless increasing, >= 2 and <= n.

    ``hrbounds slln`` calls this before it writes anything.
    """
    cps = tuple(int(k) for k in checkpoints)
    if not cps or any(k < 2 for k in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValidationError("checkpoints must be increasing integers >= 2")
    if cps[-1] > n:
        raise ValidationError(f"last checkpoint {cps[-1]} exceeds horizon {n}")
    return cps


def slln_trajectory(spec: RandomSequenceSpec, phi: ShapeFunction,
                    chi: ScaleFunction, w: WeightSequence, n: int | None = None,
                    reps: int = 200, checkpoints: tuple[int, ...] = (10 ** 3, 10 ** 4, 10 ** 5),
                    seed: int = 0, threads: int = 1) -> SLLNTrajectoryReport:
    """Per-checkpoint ratio summaries along independent long trajectories.

    Replicates are drawn and summarised block by block, and only the
    summaries are kept.  Each row is read as a stream of chunks of at most
    8192 entries (``distributions.CHUNK``): the draw, its prefix sums, the
    two ratios and the running maximum of every checkpoint window it meets
    are computed one chunk at a time.  Memory is a few chunk-sized buffers
    plus the n-length ``b`` and ``chi(b)``, at any n and any number of rows.
    """
    n = int(spec.n if n is None else n)
    if not w.is_unbounded:
        raise HypothesisViolationError(
            "almost-sure convergence needs unbounded weights; "
            "got a bounded (or not certifiably unbounded) sequence")
    cps = check_checkpoints(checkpoints, n)
    if reps < 1:
        raise ValidationError("need at least one replicate")

    b = w.materialize(n)
    chib = chi(b)
    # the [k/2, k] window of each checkpoint, as 0-based [lo, k)
    windows = [(max(k // 2, 1) - 1, k) for k in cps]
    phi_out = np.empty((reps, len(cps)), dtype=np.float64)
    abs_out = np.empty((reps, len(cps)), dtype=np.float64)

    def run(first: int, pieces: Iterator[np.ndarray]) -> None:
        for row, col, s in prefix_sum_chunks(pieces, n, check_finite=True):
            rows = slice(first + row, first + row + len(s))
            if col == 0:
                phi_out[rows] = abs_out[rows] = -np.inf
            end = col + s.shape[1]
            # the windows this chunk meets, cut to it; the ratios are needed
            # only on the span [a, z) of those pieces
            hits = [(i, max(lo, col), min(k, end)) for i, (lo, k) in enumerate(windows)
                    if lo < end and k > col]
            if not hits:
                continue
            a, z = min(h[1] for h in hits), max(h[2] for h in hits)
            s = s[:, a - col:z - col]
            phi_ratio = phi(s)
            phi_ratio /= chib[a:z]
            abs_ratio = np.abs(s)
            abs_ratio /= b[a:z]
            # np.maximum keeps a NaN, as max() over the whole window does
            for i, lo, hi in hits:
                for out, ratio in ((phi_out, phi_ratio), (abs_out, abs_ratio)):
                    np.maximum(out[rows, i], ratio[:, lo - a:hi - a].max(axis=1),
                               out=out[rows, i])

    for_each_block(spec.with_n(n), reps, seed, threads, run)

    return SLLNTrajectoryReport(
        checkpoints=cps,
        median_phi_ratio=tuple(float(x) for x in np.median(phi_out, axis=0)),
        q95_phi_ratio=tuple(float(x) for x in np.quantile(phi_out, 0.95, axis=0)),
        median_abs_ratio=tuple(float(x) for x in np.median(abs_out, axis=0)),
        q95_abs_ratio=tuple(float(x) for x in np.quantile(abs_out, 0.95, axis=0)),
        replications=int(reps), n=n, master_seed=int(seed))
