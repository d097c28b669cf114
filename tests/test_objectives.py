import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socialgrad import SocialObjective, quadratic_objective


def test_quadratic_values():
    obj = quadratic_objective(np.array([0.5, -0.5]))
    assert obj.phi(np.array([0.5, -0.5])) == 0.0
    assert obj.gap(np.array([1.5, -0.5])) == pytest.approx(0.5)
    assert np.array_equal(obj.grad_phi(np.array([1.0, 0.0])),
                          np.array([0.5, 0.5]))
    assert obj.form == "quadratic"


@given(arrays(np.float64, 4, elements=st.floats(-10, 10, allow_nan=False)))
def test_quadratic_gap_formula(x):
    target = np.array([1.0, -2.0, 0.25, 3.0])
    obj = quadratic_objective(target)
    assert obj.gap(x) == pytest.approx(0.5 * float(np.sum((x - target) ** 2)),
                                       rel=1e-12, abs=1e-12)


def test_gradient_must_vanish_at_target():
    with pytest.raises(ValueError):
        SocialObjective(
            phi=lambda x: float(x @ x),
            grad_phi=lambda x: 2.0 * x + 1.0,
            x_dagger=np.zeros(2),
        )
