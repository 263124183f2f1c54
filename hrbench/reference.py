"""Reference values computed apart from hrbounds.

Nothing here calls into the package.  Exact Rademacher probabilities come
from a dynamic program over the distribution of S_k (integer path counts,
returned as Fractions), which is a different algorithm from the package's
bitmask enumeration.  Bound values come from the textbook sided moments of
each law, summed with math.fsum.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# weights, shapes and scales, as plain Python floats


def weights(kind: str, n: int, beta: float = 1.0, values=()) -> list[float]:
    if kind == "power":
        return [float(k) ** beta for k in range(1, n + 1)]
    if kind == "log":
        return [math.log(k + 1.0) for k in range(1, n + 1)]
    return [float(v) for v in values[:n]]


def phi(kind: str, exponent: float, x: float) -> float:
    base = abs(x) if kind == "abs_power" else max(x, 0.0)
    return base ** exponent


def chi(kind: str, epsilon: float, rho: float, b: float) -> float:
    return epsilon * b if kind == "linear" else epsilon * b ** rho


# ---------------------------------------------------------------------------
# exact Rademacher probabilities by dynamic programming over S_k


def rademacher_envelope(n: int, inside, process: str = "S") -> Fraction:
    """P(inside(k, T_k) for every k <= n), T = S (sums) or u (count of +1 steps).

    The table maps each value of T_k to the number of sign paths that reach it
    without leaving the envelope, so the count is O(n^2) integer additions.
    """
    up = 1
    down = -1 if process == "S" else 0
    counts = {0: 1}
    for k in range(1, n + 1):
        nxt: dict[int, int] = {}
        for t, c in counts.items():
            for t_next in (t + up, t + down):
                if inside(k, t_next):
                    nxt[t_next] = nxt.get(t_next, 0) + c
        counts = nxt
    return Fraction(sum(counts.values()), 2 ** n)


def rademacher_an(n: int, phi_kind: str, exponent: float, chi_kind: str,
                  epsilon: float, rho: float, b: list[float],
                  process: str = "S") -> Fraction:
    """P(phi(T_k) <= chi(b_k) for all k <= n) for sign increments."""
    env = [chi(chi_kind, epsilon, rho, bk) for bk in b]
    return rademacher_envelope(
        n, lambda k, t: phi(phi_kind, exponent, float(t)) <= env[k - 1], process)


def rademacher_max(n: int, b: list[float], epsilon: float, m: int,
                   sided: str) -> Fraction:
    """P(max_{m<=k<=n} (|S_k| or S_k)/b_k exceeds epsilon) for sign increments.

    The two-sided event is ``>= epsilon``, the one-sided one ``> epsilon``,
    matching the statement of each inequality.
    """
    def below(k, s):
        if k < m:
            return True
        r = (abs(s) if sided == "abs" else s) / b[k - 1]
        return r < epsilon if sided == "abs" else r <= epsilon
    return 1 - rademacher_envelope(n, below)


# ---------------------------------------------------------------------------
# textbook moments


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _norm_pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def sided_moments(family: str, params: dict) -> tuple[float, float, float, float]:
    """(E[X+], E[(X+)^2], E[X-], E[(X-)^2]) of one increment.

    Second moments are ``math.inf`` when they do not exist.
    """
    if family == "rademacher":
        return 0.5, 0.5, 0.5, 0.5
    if family == "gaussian":
        mu, sigma = params.get("mu", 0.0), params.get("sigma", 1.0)

        def side(m):
            z = m / sigma
            return (m * _norm_cdf(z) + sigma * _norm_pdf(z),
                    (m * m + sigma * sigma) * _norm_cdf(z) + m * sigma * _norm_pdf(z))
        (a_p, s_p), (a_m, s_m) = side(mu), side(-mu)
        return a_p, s_p, a_m, s_m
    if family == "centered_exponential":
        lam = params.get("lam", 1.0)
        e = math.exp(-1.0)
        return e / lam, 2.0 * e / lam ** 2, e / lam, (1.0 - 2.0 * e) / lam ** 2
    if family == "alpha_stable":
        # symmetric stable, E|X|^p = 2^p G((1+p)/2) G(1-p/alpha) c^p / (G(1-p/2) sqrt(pi)),
        # evaluated at p = 1 and split evenly between the two sides
        alpha, c = params["alpha"], params.get("scale", 1.0)
        abs_mean = (2.0 * math.gamma(1.0) * math.gamma(1.0 - 1.0 / alpha) * c
                    / (math.gamma(0.5) * math.sqrt(math.pi)))
        return abs_mean / 2.0, math.inf, abs_mean / 2.0, math.inf
    raise ValueError(f"no textbook moments for {family!r}")


def second_moment(family: str, params: dict) -> float:
    _, s_p, _, s_m = sided_moments(family, params)
    return s_p + s_m


def std(family: str, params: dict) -> float:
    a_p, s_p, a_m, s_m = sided_moments(family, params)
    mean = a_p - a_m
    return math.sqrt(s_p + s_m - mean * mean)


# ---------------------------------------------------------------------------
# bound values


def _envelope_increments(family: str, params: dict, exponent: float, n: int,
                         sides: str) -> list[float]:
    """Increments of E[phi(u_k)] (+ E[phi(v_k)] when sides == "uv")."""
    a_p, s_p, a_m, s_m = sided_moments(family, params)
    pairs = [(a_p, s_p)] if sides == "u" else [(a_p, s_p), (a_m, s_m)]
    out = [0.0] * n
    for a, s in pairs:
        for k in range(1, n + 1):
            # sums of k i.i.d. nonnegative terms: E[Y] = k a, E[Y^2] = k s + k(k-1) a^2
            out[k - 1] += a if exponent == 1.0 else s + 2.0 * (k - 1) * a * a
    return out


def theorem1_raw(family, params, exponent, chi_kind, epsilon, rho, b) -> float:
    """1 - 2K sum_k (increment of E phi(u_k) + E phi(v_k)) / chi(b_k), K = 2^(p-1)."""
    inc = _envelope_increments(family, params, exponent, len(b), "uv")
    two_k = 2.0 * 2.0 ** (exponent - 1.0)
    return 1.0 - math.fsum(two_k * d / chi(chi_kind, epsilon, rho, bk)
                           for d, bk in zip(inc, b))


def rao_raw(family, params, exponent, chi_kind, epsilon, rho, b) -> float:
    """1 - sum_k (increment of E phi(u_k)) / chi(b_k)."""
    inc = _envelope_increments(family, params, exponent, len(b), "u")
    return 1.0 - math.fsum(d / chi(chi_kind, epsilon, rho, bk) for d, bk in zip(inc, b))


def amini_raw(family, params, epsilon, b) -> float:
    """(8/eps^2) sum sigma^2/b_k^2 + 2 sum_k sigma (k-1) sigma / b_k^2."""
    s = std(family, params)
    return math.fsum((8.0 / epsilon ** 2) * s * s / bk ** 2 + 2.0 * s * (k - 1) * s / bk ** 2
                     for k, bk in enumerate(b, start=1))


def hajek_renyi_raw(family, params, epsilon, m, b) -> float:
    """eps^-2 (b_m^-2 sum_{j<=m} E X_j^2 + sum_{j>m} E X_j^2 / b_j^2)."""
    ex2 = second_moment(family, params)
    head = [ex2 / b[m - 1] ** 2] * m
    tail = [ex2 / bj ** 2 for bj in b[m:]]
    return math.fsum(head + tail) / epsilon ** 2


def series_partial_sum(alpha: float, r: float, b: list[float]) -> float:
    """sum_k alpha b_k^-r, the series of the SLLN criterion."""
    return math.fsum(alpha * bk ** (-r) for bk in b)
