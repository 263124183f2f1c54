"""Canonical JSON rendering and short digests for report comparability.

A bound report carries its event as the dict `event_a_n` or
`event_max_ratio` builds; the estimate it is checked against hashes the
same canonical payload, so `verify_bound` can refuse apples-to-oranges
comparisons.  Weights enter as the SHA-256 of their materialized values'
little-endian float64 bytes, which makes a length-64 weight object sliced
to an 8-step event hash identically to a native length-8 one, and keeps
the event a few hundred bytes at any n.
"""

from __future__ import annotations

import hashlib
import json

from .errors import ParameterDomainError, ValidationError
from .shape_functions import ScaleFunction, ShapeFunction, WeightSequence, weights_sha256


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, no whitespace, repr floats."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest_of(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()[:16]


def _weights_form(w: WeightSequence, n: int) -> str:
    """Hex SHA-256 of b_1..b_n as little-endian float64 bytes."""
    return weights_sha256(w, n)


def event_a_n(law: dict | None, phi: ShapeFunction, chi: ScaleFunction,
              w: WeightSequence, n: int, process: str = "S") -> dict:
    """The joint-envelope event: phi(T_k) <= chi(b_k) for every k <= n.

    ``process`` names the walk T: "S", the partial sums, or "u", the partial
    sums of the positive parts.  This and `event_max_ratio` are the only
    places an event is built and checked; `simulation._region` reads it.
    """
    if process not in ("S", "u"):
        raise ValidationError(f"unknown process {process!r}")
    return {
        "event": "A_n",
        "process": process,
        "law": law,
        "phi": phi.descriptor(),
        "chi": chi.descriptor(),
        "weights": _weights_form(w, n),
        "n": int(n),
    }


def event_max_ratio(law: dict | None, w: WeightSequence, m: int, n: int,
                    epsilon: float, sided: str) -> dict:
    """The weighted-maximum event on S: max over k in [m, n] of S_k/b_k exceeds epsilon.

    ``sided`` is "abs" (|S_k|/b_k >= epsilon, the form the upper bounds
    constrain) or "upper" (S_k/b_k > epsilon, the classical strict form).
    """
    if epsilon is None or epsilon <= 0:
        raise ParameterDomainError("epsilon", "must be > 0 for the max event")
    m, n = int(m), int(n)
    if not 1 <= m <= n:
        raise IndexError(f"need 1 <= m <= n, got m={m}, n={n}")
    if sided not in ("abs", "upper"):
        raise ValidationError(f"unknown sidedness {sided!r}")
    return {
        "event": "max_ratio",
        "law": law,
        "weights": _weights_form(w, n),
        "m": m,
        "n": n,
        "epsilon": float(epsilon),
        "sided": sided,
    }
