"""Monte Carlo and exact estimation of the bounded probabilities.

The bounds module produces one-number reports; this module produces the
matching empirical side: estimates of P(A_n) and of weighted-maximum
exceedance probabilities, an exact oracle for sign sequences (integer path
counts by dynamic programming over the lattice walk, n <= 4096),
a verdict function comparing the two, an empirical check of the defining
inequality E[(T_{j+1} - T_j) g(T_1..T_j)] >= 0, and trailing-window ratio
summaries for almost-sure convergence demonstrations.

An event is the dict a bound report carries (`_digest.event_a_n` or
`event_max_ratio`), and `_region` is its one reader: which values T_k may
take at step k.  The Monte Carlo estimators test every step of a sampled
path against it and the dynamic program every lattice state, so both
compute the probability of the report's own event.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from ._digest import digest_of
from .bounds import BoundReport
from .distributions import CHUNK, RandomSequenceSpec
from .errors import (
    DigestMismatchError,
    EnumerationSizeError,
    HypothesisViolationError,
    ParameterDomainError,
    ValidationError,
)
from .sequences import RowBlock, TrajectoryBatch, for_each_block, prefix_sum_chunks
from .shape_functions import ScaleFunction, ShapeFunction, WeightSequence, weights_sha256

# Largest sign-sequence horizon of the exact oracle.  There the dynamic program
# takes at most about 1.4 s (one core of a 2-vCPU x86 host).
_ENUM_MAX_N = 4096

DEMI_PROCESSES = ("S", "u", "v", "phi_of_S_plus")
DEFAULT_DEMI_FAMILY = ("const", "coordinate", "running_max",
                       "indicator_q25", "indicator_q75")
# Largest R * n of a demi check.  Its (n, R) matrix and the copy that the
# clip constant's quantile partitions take 16 bytes an entry: about 0.5 GB at
# this budget.
_DEMI_MAX_ENTRIES = 2 ** 25
# Entries in each of the demi margins' four work arrays (512 KB each): a
# check of at most this many entries is reduced in one slab of steps, and a
# longer one pays numpy's per-call cost once a slab, not once a step.  The
# arrays are made once a call, not once a slab.
_DEMI_SLAB = 2 ** 16


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
    (p_hat of exactly 0 or 1), where Wilson degenerates.  ``event`` is the
    event estimated, and its digest ``event_digest`` matches the report of a
    bound on the same event.
    """

    p_hat: float
    replications: int
    ci_low: float
    ci_high: float
    level: float = 0.99
    method: str = "wilson"
    event: dict | None = None

    def __post_init__(self):
        if not 0.0 <= self.ci_low <= self.p_hat <= self.ci_high <= 1.0:
            raise ValidationError("confidence interval must satisfy "
                                  "0 <= ci_low <= p_hat <= ci_high <= 1")
        if self.method not in ("wilson", "exact_clopper_pearson"):
            raise ValidationError(f"unknown interval method {self.method!r}")

    @cached_property
    def event_digest(self) -> str | None:
        return None if self.event is None else digest_of(self.event)

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
        level=level, method=method, event=event)


# ---------------------------------------------------------------------------
# event probability estimation


def _region(event: dict, w: WeightSequence):
    """``event``'s region as ``allowed(k, t)``: may the walk T have T_k = t?

    ``event`` is a dict from `event_a_n` (phi(T_k) <= chi(b_k) for every k,
    T = S or u) or `event_max_ratio` (max over m <= k <= n of |S_k|/b_k, or
    S_k/b_k when sided is "upper", exceeds epsilon): a path is in A_n when
    every step is allowed, in the max event when one is not.  ``w`` gives
    b_1..b_n; weights whose hash is not the event's are refused.
    ``k`` is a scalar or an integer array that broadcasts against ``t``: the
    estimators pass the steps along a path's axis, the dynamic program a
    column of steps against a row of lattice values.
    """
    n = event["n"]
    if weights_sha256(w, n) != event["weights"]:
        raise DigestMismatchError("the weight sequence is not the event's")
    b = w.materialize(n)
    if event["event"] == "A_n":
        phi, envelope = ShapeFunction(**event["phi"]), ScaleFunction(**event["chi"])(b)
        return lambda k, t: phi(t) <= envelope[k - 1]
    epsilon, m, sided = event["epsilon"], event["m"], event["sided"]

    def allowed(k, t: np.ndarray) -> np.ndarray:
        ratio = (np.abs(t) if sided == "abs" else t) / b[k - 1]
        return (k < m) | ~(ratio >= epsilon if sided == "abs" else ratio > epsilon)
    return allowed


def _same_law(spec: RandomSequenceSpec, n: int, event: dict) -> None:
    """Refuse paths of another law or horizon than ``event``'s."""
    if spec.law() != event["law"] or n != event["n"]:
        raise DigestMismatchError(f"paths of {spec.law()} at n={n} are not the event's")


def _inside(allowed, steps: np.ndarray, paths: np.ndarray) -> int:
    """Number of sampled paths (rows) every one of whose steps (1..n) is allowed."""
    return int(np.all(allowed(steps, paths), axis=1).sum())


def check_event_reps(reps: int) -> None:
    """Refuse an event estimate from fewer than 1000 rows (`verify` checks before drawing)."""
    if reps < 1000:
        raise ValidationError("event estimation needs >= 1000 replications")


def _walk(block: RowBlock, process: str) -> np.ndarray:
    """The block's prefix sums of ``process``: "S" (the partial sums), "u" or "v"."""
    return block.s if process == "S" else getattr(block, process)


class RowCounter:
    """Counts, block by block, the rows whose walk stays in the region of ``event``.

    The region and the step vector are built once, when the counter is
    made; ``inside`` is the count over the blocks taken so far.
    """

    def __init__(self, event: dict, w: WeightSequence):
        self.event = event
        self.inside = 0
        self._allowed = _region(event, w)
        self._steps = np.arange(1, event["n"] + 1)
        self._process = event.get("process", "S")

    def take(self, block: RowBlock) -> None:
        self.inside += _inside(self._allowed, self._steps, _walk(block, self._process))


def _count(batch: TrajectoryBatch, event: dict, w: WeightSequence, kind: str,
           counter: RowCounter | None) -> int:
    """Rows of ``batch`` whose walk stays in the region of ``event``, an event of ``kind``.

    A given ``counter`` has already taken the batch and must count ``event``;
    otherwise one is made and folded over the batch here.
    """
    if event["event"] != kind:
        raise ValidationError(f"expected an event of kind {kind!r}, got {event['event']!r}")
    _same_law(batch.spec, batch.n, event)
    check_event_reps(batch.replications)
    if counter is None:
        counter = RowCounter(event, w)
        batch.fold(counter)
    elif counter.event != event:
        raise DigestMismatchError("the row counter counted another event")
    return counter.inside


def estimate_event_An(batch: TrajectoryBatch, event: dict, w: WeightSequence,
                      level: float = 0.99, counter: RowCounter | None = None) -> MonteCarloEstimate:
    """Estimate P(phi(T_k) <= chi(b_k) for all k <= n) over ``batch``.

    Pass the ``counter`` of ``event`` when it has taken the batch in a shared pass.
    """
    return binomial_estimate(_count(batch, event, w, "A_n", counter),
                             batch.replications, level, event)


def estimate_max_event(batch: TrajectoryBatch, event: dict, w: WeightSequence,
                       level: float = 0.99, counter: RowCounter | None = None) -> MonteCarloEstimate:
    """Estimate P(max_{m<=k<=n} (|S_k| or S_k)/b_k exceeds epsilon) over ``batch``.

    Pass the ``counter`` of ``event`` when it has taken the batch in a shared pass.
    """
    reps = batch.replications
    return binomial_estimate(reps - _count(batch, event, w, "max_ratio", counter), reps,
                             level, event)


def enumerable(spec: RandomSequenceSpec) -> bool:
    """Whether the exact oracle counts ``spec``: a point mass, or signs up to n = 4096."""
    return spec.family == "point_mass" or (spec.family == "rademacher" and spec.n <= _ENUM_MAX_N)


def check_enumerable(spec: RandomSequenceSpec) -> None:
    """Refuse a law the exact oracle cannot count (`enumerate` checks before building its event)."""
    if not enumerable(spec):
        if spec.family == "rademacher":
            raise EnumerationSizeError(
                f"horizon {spec.n} exceeds the exact-enumeration cap n <= {_ENUM_MAX_N}")
        raise ValidationError("exact enumeration needs a finite-support family")


def enumerate_exact(spec: RandomSequenceSpec, event: dict, w: WeightSequence) -> Fraction:
    """Exact probability of ``event`` under a finite-support law, by counting sign paths.

    Both events depend on a path only through its lattice walk T_k: the
    partial sums S_k (steps +1 and -1) or, for an A_n event on u, the count
    u_k of +1 steps (steps 1 and 0).  A dynamic program over the states
    (k, T_k) keeps, for each value of T_k, the number of sign paths that
    reach it without leaving the event's region, as a Python integer; a
    horizon n costs O(n^2) integer additions, not 2^n paths (path counting
    for the simple random walk, Feller, Vol. I, ch. III).  The region is the
    estimators' `_region`, tested on float64 values, so ties fall the same
    way.  It is tested once per block of consecutive steps, at most
    ``CHUNK`` lattice cells (a single step when n + 1 > ``CHUNK`` / 2), and
    the counts are stepped in two preallocated vectors.  The result is an
    exact dyadic rational; a point mass has one path.  ``spec`` must have
    the event's law and horizon.
    """
    check_enumerable(spec)
    n = int(spec.n)
    _same_law(spec, n, event)
    allowed = _region(event, w)
    process = event.get("process", "S")

    if spec.family == "point_mass":
        c = spec.param_dict()["c"]
        path = np.cumsum(np.full((1, n), max(c, 0.0) if process == "u" else c), axis=1)
        stay = Fraction(_inside(allowed, np.arange(1, n + 1), path))
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
    return stay if event["event"] == "A_n" else 1 - stay


# ---------------------------------------------------------------------------
# bound-versus-estimate verdicts


def verify_bound(estimate, report: BoundReport) -> str:
    """Compare a bound against an estimate of the same event.

    Returns "vacuous" when the clamped bound carries no information
    (raw <= 0 for a lower bound, raw >= 1 for an upper bound), "violation"
    when the estimate's whole confidence interval sits on the wrong side of
    the bound, and "consistent" otherwise.  Exact probabilities (Fraction
    or float) act as degenerate intervals.  When the estimate carries an
    event digest, it must be the report's.
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
    if digest is not None and digest != report.inputs_digest:
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


def check_demi_size(replications: int, n: int) -> None:
    """Refuse a demi check of fewer than 1000 rows or 2 steps, or of more than
    ``_DEMI_MAX_ENTRIES`` entries, before any are drawn."""
    if replications < 1000:
        raise ValidationError("demi check needs >= 1000 replications")
    if n < 2:
        raise ValidationError("need at least two indices to form a margin")
    if replications * n > _DEMI_MAX_ENTRIES:
        raise ValidationError(f"demi check of {replications} x {n} entries exceeds "
                              f"its budget of 2^25 = {_DEMI_MAX_ENTRIES}")


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
    if process not in DEMI_PROCESSES:
        raise ValidationError(f"unknown process {process!r}")
    if process == "phi_of_S_plus" and phi is None:
        raise ValidationError("process phi_of_S_plus needs a shape function")

    R, n = batch.replications, batch.n
    # Step j is row j - 1 of the contiguous (n, R) matrix Tt, filled block by
    # block, so every reduction runs along a contiguous row, as the 1-d
    # reduction of one column would, and gives the same bits.
    Tt = np.empty((n, R))
    for block in batch.blocks():
        T = phi(np.maximum(block.s, 0.0)) if process == "phi_of_S_plus" else _walk(block, process)
        Tt[:, block.first:block.first + len(T)] = T.T
    c = float(np.quantile(np.abs(Tt), 0.999, overwrite_input=True))
    n_tests = (n - 1) * len(family)
    z = _normal_quantile(1.0 - (1.0 - level) / n_tests)

    slab = min(n - 1, max(1, _DEMI_SLAB // R))   # steps a slab
    diffs, gs, prods, peaks = np.empty((4, slab, R))
    top = Tt[0].copy()   # running max of the steps before the slab
    records = []
    for lo in range(0, n - 1, slab):
        m = min(slab, n - 1 - lo)
        cols = Tt[lo:lo + m]   # row i: step j = lo + 1 + i
        diff, g, prod, peak = diffs[:m], gs[:m], prods[:m], peaks[:m]
        np.subtract(Tt[lo + 1:lo + 1 + m], cols, out=diff)
        if "running_max" in family:
            np.maximum(np.maximum.accumulate(cols, axis=0, out=peak), top, out=peak)
            top[:] = peak[-1]
        if "indicator_q25" in family or "indicator_q75" in family:
            # one partition gives both indicator thresholds of every step
            quartiles = dict(zip(("indicator_q25", "indicator_q75"),
                                 np.quantile(cols, [0.25, 0.75], axis=1)))
        margins = []
        for name in family:
            if name == "const":
                p = diff   # diff * 1 is diff
            else:
                if name in ("coordinate", "running_max"):
                    np.clip(cols if name == "coordinate" else peak, -c, c, out=g)
                    g += c
                else:
                    np.greater(cols, quartiles[name][:, None], out=g)
                p = np.multiply(diff, g, out=prod)
            margins.append((name, p.mean(axis=1).tolist(),
                            (p.std(axis=1, ddof=1) / math.sqrt(R)).tolist(),
                            np.count_nonzero(p < 0, axis=1).tolist()))
        for i in range(m):   # margin between T_j and T_{j+1}, 1-based
            for name, mean, se, neg in margins:
                flagged = mean[i] < -z * se[i] if se[i] > 0 else mean[i] < 0
                records.append(MarginRecord(j=lo + 1 + i, g=name, margin=mean[i], se=se[i],
                                            flagged=flagged, negative_products=neg[i]))
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
                    chi: ScaleFunction, w: WeightSequence, reps: int = 200,
                    checkpoints: tuple[int, ...] = (10 ** 3, 10 ** 4, 10 ** 5), seed: int = 0,
                    threads: int = 1) -> SLLNTrajectoryReport:
    """Per-checkpoint ratio summaries along independent long trajectories.

    Replicates are drawn and summarised block by block, and only the
    summaries are kept.  Each row is read as a stream of chunks of at most
    8192 entries (``distributions.CHUNK``): the draw, its prefix sums, the
    two ratios and the running maximum of every checkpoint window it meets
    are computed one chunk at a time.  Memory is a few chunk-sized buffers
    plus the n-length ``b`` and ``chi(b)``, at any n and any number of rows.
    """
    n = int(spec.n)
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

    # errstate holds per thread, and ``run`` may run on pool threads
    @np.errstate(over="ignore", invalid="ignore")
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

    for _ in for_each_block(spec, reps, seed, threads, run):
        pass

    # the slln command refuses a summary that is not finite, by name and checkpoint
    with np.errstate(over="ignore", invalid="ignore"):
        return SLLNTrajectoryReport(
            checkpoints=cps,
            median_phi_ratio=tuple(float(x) for x in np.median(phi_out, axis=0)),
            q95_phi_ratio=tuple(float(x) for x in np.quantile(phi_out, 0.95, axis=0)),
            median_abs_ratio=tuple(float(x) for x in np.median(abs_out, axis=0)),
            q95_abs_ratio=tuple(float(x) for x in np.quantile(abs_out, 0.95, axis=0)),
            replications=int(reps), n=n, master_seed=int(seed))
