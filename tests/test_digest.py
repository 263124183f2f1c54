"""Event payloads and their digests: weights enter as a hash of their float64 bytes."""

import hashlib
import struct

import pytest

from hrbounds._digest import digest_of, event_a_n, event_max_ratio
from hrbounds.shape_functions import ScaleFunction, ShapeFunction, WeightSequence

LAW = {"family": "rademacher", "params": {}, "dependence": "iid"}
PHI = ShapeFunction("abs_power", 1.0)
CHI = ScaleFunction("linear", 2.0)
CUSTOM = [1.0 + 0.25 * k for k in range(64)]


@pytest.mark.parametrize("long, native", [
    (WeightSequence.power(1.5, 64), WeightSequence.power(1.5, 8)),
    (WeightSequence.log(64), WeightSequence.log(8)),
    (WeightSequence.custom(CUSTOM), WeightSequence.custom(CUSTOM[:8])),
], ids=["power", "log", "custom"])
def test_sliced_weights_hash_like_native_ones(long, native):
    for event in (lambda w: event_a_n(LAW, PHI, CHI, w, 8, process="u"),
                  lambda w: event_max_ratio(LAW, w, 2, 8, 0.5, "abs")):
        sliced, own = event(long), event(native)
        assert sliced == own and digest_of(sliced) == digest_of(own)
        assert len(own["weights"]) == 64 and int(own["weights"], 16) >= 0


def test_weights_hash_is_the_sha256_of_little_endian_doubles():
    values = CUSTOM[:8]
    expected = hashlib.sha256(struct.pack("<8d", *values)).hexdigest()
    assert event_a_n(LAW, PHI, CHI, WeightSequence.custom(values), 8)["weights"] == expected
    # one ulp in one weight is another event
    moved = values[:7] + [values[7] + 2.0 ** -50]
    assert event_a_n(LAW, PHI, CHI, WeightSequence.custom(moved), 8)["weights"] != expected
