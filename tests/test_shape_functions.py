import numpy as np
import pytest
from hypothesis import given, strategies as st

from hrbounds.errors import CertificateError, ParameterDomainError, ValidationError
from hrbounds.shape_functions import (
    ScaleFunction,
    ShapeFunction,
    SubadditivityCertificate,
    WeightSequence,
    subadditivity_constant,
    weights_materialize,
)


def test_phi_eval_pinned_values():
    assert ShapeFunction.abs_power(2.0)(-3.0) == 9.0
    assert ShapeFunction.positive_part_power(1.0)(-5.0) == 0.0
    assert ShapeFunction.abs_power(1.0)(2.5) == 2.5


def test_phi_vanishes_at_zero_and_is_vectorized():
    phi = ShapeFunction.abs_power(1.5)
    out = phi(np.array([-2.0, 0.0, 2.0]))
    assert out[1] == 0.0
    assert out[0] == out[2] > 0.0


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
