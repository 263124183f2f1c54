import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hrbounds import shape_functions
from hrbounds.errors import CertificateError, ParameterDomainError, ValidationError
from hrbounds.shape_functions import (
    ScaleFunction,
    ShapeFunction,
    SubadditivityCertificate,
    WeightSequence,
    phi_eval,
    release_weights,
    subadditivity_constant,
    weights_materialize,
    weights_sha256,
)


@pytest.fixture
def fresh_certificates():
    """Certificates made from scratch, and none kept from a patched phi_eval."""
    subadditivity_constant.cache_clear()
    yield
    subadditivity_constant.cache_clear()


def test_phi_eval_pinned_values():
    assert ShapeFunction.abs_power(2.0)(-3.0) == 9.0
    assert ShapeFunction.positive_part_power(1.0)(-5.0) == 0.0
    assert ShapeFunction.abs_power(1.0)(2.5) == 2.5


def test_phi_vanishes_at_zero_and_is_vectorized():
    phi = ShapeFunction.abs_power(1.5)
    out = phi(np.array([-2.0, 0.0, 2.0]))
    assert out[1] == 0.0
    assert out[0] == out[2] > 0.0


# -0.0, subnormals, 1e200 (whose square overflows), NaN, inf and ordinary values
EDGE_INPUTS = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-160,
                        1e200, -1e200, np.nan, -np.nan, np.inf, -np.inf, 3.7, -2.1, 1.0])


@pytest.mark.parametrize("exponent", [1.0, 2.0, 1.5, 3.0])
@pytest.mark.parametrize("kind, part", [("abs_power", np.abs),
                                        ("positive_part_power", lambda x: np.maximum(x, 0.0))])
def test_phi_eval_has_the_bits_of_the_plain_power(kind, part, exponent):
    phi = ShapeFunction(kind, exponent)
    rng = np.random.default_rng(3)
    x = np.concatenate([EDGE_INPUTS, rng.standard_normal(65) * 10.0 ** rng.integers(-5, 5, 65)])
    with np.errstate(over="ignore", invalid="ignore"):
        want = part(x) ** exponent
        got = phi_eval(phi, x)
        got2d = phi_eval(phi, x.reshape(-1, 2).T)
    assert got.dtype == np.float64 and got.shape == x.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(got2d, want.reshape(-1, 2).T)
    for v, w in zip(x.tolist(), want.tolist()):
        with np.errstate(over="ignore", invalid="ignore"):
            scalar = phi_eval(phi, v)
        assert type(scalar) is float
        assert np.array(scalar).view(np.uint64) == np.array(w).view(np.uint64)


def test_phi_eval_leaves_its_input_alone():
    x = np.array([-2.0, 0.5, 3.0])
    for phi in (ShapeFunction.abs_power(1.0), ShapeFunction.positive_part_power(1.0),
                ShapeFunction.abs_power(2.0)):
        out = phi(x)
        assert not np.shares_memory(out, x)
        out[:] = 7.0
        np.testing.assert_array_equal(x, [-2.0, 0.5, 3.0])


def test_phi_exponent_below_one_rejected():
    with pytest.raises(ParameterDomainError):
        ShapeFunction.abs_power(0.5)
    with pytest.raises(ParameterDomainError):
        ShapeFunction.positive_part_power(0.0)


@pytest.mark.parametrize("nu,expected_k", [(1.0, 1.0), (2.0, 2.0), (3.0, 4.0)])
def test_subadditivity_constant_closed_form(nu, expected_k):
    cert = subadditivity_constant(ShapeFunction.abs_power(nu))
    assert cert.K == expected_k
    assert cert.checked_grid_max_ratio <= cert.K + 1e-9


def test_positive_part_certificate():
    cert = subadditivity_constant(ShapeFunction.positive_part_power(2.0))
    assert cert.K == 2.0
    assert cert.checked_grid_max_ratio <= 2.0 + 1e-9


def test_certificate_rejects_understated_constant():
    # claiming K=1 for a quadratic shape must fail the grid check
    with pytest.raises(CertificateError):
        SubadditivityCertificate(K=1.0, checked_grid_max_ratio=2.0,
                                 grid_description="synthetic")


def test_quadratic_certificate_attains_two():
    # sup of (x+y)^2/(x^2+y^2) is reached on the diagonal; the grid contains it
    cert = subadditivity_constant(ShapeFunction.abs_power(2.0))
    assert cert.checked_grid_max_ratio >= 2.0 - 1e-6


def test_certificate_is_kept_per_shape(fresh_certificates):
    phi = ShapeFunction.abs_power(2.0)
    cert = subadditivity_constant(phi)
    assert subadditivity_constant(ShapeFunction.abs_power(2.0)) is cert
    assert subadditivity_constant(ShapeFunction.positive_part_power(2.0)) is not cert


def test_failed_certificate_raises_on_every_call(fresh_certificates, monkeypatch):
    # |x|**3 in place of |x| exceeds the exponent-1 constant K = 1 on the grid
    real = shape_functions.phi_eval
    cubic = ShapeFunction.abs_power(3.0)
    calls = []

    def wrong_phi(phi, x):
        calls.append(phi)
        return real(cubic, x)

    monkeypatch.setattr(shape_functions, "phi_eval", wrong_phi)
    for _ in range(3):
        with pytest.raises(CertificateError):
            subadditivity_constant(ShapeFunction.abs_power(1.0))
    assert len(calls) == 9   # three evaluations per grid check, on every call


def test_weights_hash_is_kept_until_released():
    w = WeightSequence.power(0.75, 1000)
    h = weights_sha256(w, 1000)
    assert weights_sha256(w, 1000) is h
    assert h == hashlib.sha256(w.materialize().astype("<f8").tobytes()).hexdigest()
    release_weights()
    again = weights_sha256(w, 1000)
    assert again == h and again is not h


@given(st.floats(min_value=1.0, max_value=4.0),
       st.floats(min_value=-50.0, max_value=50.0),
       st.floats(min_value=-50.0, max_value=50.0))
def test_power_subadditivity_holds_pointwise(nu, x, y):
    phi = ShapeFunction.abs_power(nu)
    lhs = phi(x + y)
    rhs = (2.0 ** (nu - 1.0)) * (phi(x) + phi(y))
    assert lhs <= rhs * (1 + 1e-9) + 1e-12


@given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
def test_phi_nondecreasing_on_nonnegatives(a, b):
    phi = ShapeFunction.abs_power(1.7)
    lo, hi = sorted((a, b))
    assert phi(lo) <= phi(hi)


def test_chi_eval_pinned():
    assert ScaleFunction.linear(0.5)(4.0) == 2.0
    assert ScaleFunction.power(1.0, 2.0)(3.0) == 9.0


def test_chi_monotone_and_rejects_nonpositive_b():
    chi = ScaleFunction.linear(1.0)
    b = np.linspace(0.5, 20, 40)
    assert np.all(np.diff(chi(b)) >= 0)
    with pytest.raises(ParameterDomainError):
        chi(0.0)
    with pytest.raises(ParameterDomainError):
        chi(-1.0)


def test_linear_scale_rejects_other_exponents():
    with pytest.raises(ParameterDomainError, match="rho"):
        ScaleFunction("linear", 2.0, 3.0)


def test_scale_epsilon_must_be_positive():
    with pytest.raises(ParameterDomainError):
        ScaleFunction.linear(0.0)


def test_weights_power_and_log_values():
    np.testing.assert_allclose(WeightSequence.power(1.0, 4).materialize(), [1, 2, 3, 4])
    np.testing.assert_allclose(WeightSequence.log(3).materialize(),
                               np.log([2.0, 3.0, 4.0]))


def test_custom_weights_error_names_first_bad_index():
    with pytest.raises(ValidationError, match="index 2"):
        WeightSequence.custom([1.0, 0.5]).materialize()
    with pytest.raises(ValidationError, match="index 1"):
        WeightSequence.custom([0.0, 1.0]).materialize()


def test_unboundedness_flag():
    assert WeightSequence.power(1.5, 10).is_unbounded
    assert WeightSequence.log(10).is_unbounded
    assert not WeightSequence.custom([1.0, 2.0, 3.0]).is_unbounded


def test_materialize_can_truncate_but_not_extend_custom():
    w = WeightSequence.custom([1.0, 2.0, 3.0])
    assert len(w.materialize(2)) == 2
    with pytest.raises(ValidationError):
        w.materialize(5)


def test_materialized_weights_are_read_only_and_shared():
    w = WeightSequence.power(0.5, 8)
    b = w.materialize()
    assert not b.flags.writeable
    assert weights_materialize(w, 8) is b
    with pytest.raises(ValueError):
        b[0] = 2.0
    np.testing.assert_array_equal(w.materialize(3), b[:3])
    np.testing.assert_array_equal(WeightSequence.power(0.5, 8).materialize(), b)


@given(st.floats(min_value=0.1, max_value=3.0), st.integers(min_value=1, max_value=64))
def test_power_weights_monotone(beta, n):
    b = WeightSequence.power(beta, n).materialize()
    assert b[0] > 0
    assert np.all(np.diff(b) >= 0)
