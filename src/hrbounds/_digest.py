"""Canonical JSON rendering and short digests for report comparability.

A bound report and the estimate it is checked against must describe the
same event; both sides hash the same canonical payload so `verify_bound`
can refuse apples-to-oranges comparisons.  Weights enter as the SHA-256 of
their materialized values' little-endian float64 bytes, which makes a
length-64 weight object sliced to an 8-step event hash identically to a
native length-8 one, and keeps the event a few hundred bytes at any n.
"""

from __future__ import annotations

import hashlib
import json

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

    ``process`` names the sequence the envelope applies to ("S" for the
    partial sums themselves, "u"/"v" for the one-sided parts), so envelopes
    over different processes never collide in digest space.
    """
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
    """The weighted-maximum event: max over k in [m, n] of S_k/b_k vs epsilon."""
    return {
        "event": "max_ratio",
        "law": law,
        "weights": _weights_form(w, n),
        "m": int(m),
        "n": int(n),
        "epsilon": float(epsilon),
        "sided": sided,
    }
