import numpy as np
import pytest
from scipy.special import erf

from psdsample.boxes import HyperRectangle
from psdsample.exceptions import ResourceLimitError
from psdsample.quadrature import adaptive_box_quadrature


def test_polynomial_is_exact():
    box = HyperRectangle([-1.0], [2.0])
    got = adaptive_box_quadrature(lambda p: p[:, 0] ** 5 - 3 * p[:, 0] + 1, box)
    # antiderivative x^6/6 - 3x^2/2 + x evaluated at the endpoints
    expected = (2.0**6 / 6 - 6 + 2) - (1.0 / 6 - 1.5 - 1)
    assert np.isclose(got, expected, rtol=1e-13)


def test_gaussian_matches_erf_closed_form():
    box = HyperRectangle([-0.7], [1.3])
    got = adaptive_box_quadrature(lambda p: np.exp(-2.0 * p[:, 0] ** 2), box)
    expected = np.sqrt(np.pi / 2) / 2 * (
        erf(np.sqrt(2.0) * 1.3) - erf(np.sqrt(2.0) * -0.7)
    )
    assert np.isclose(got, expected, rtol=1e-12)


def test_two_dimensional_product_integrand():
    box = HyperRectangle([0.0, -1.0], [1.0, 1.0])
    got = adaptive_box_quadrature(
        lambda p: np.cos(p[:, 0]) * p[:, 1] ** 2, box, tol_abs=1e-11
    )
    expected = np.sin(1.0) * (2.0 / 3.0)
    assert np.isclose(got, expected, rtol=1e-10)


def test_kinked_integrand_converges():
    box = HyperRectangle([-1.0], [1.0])
    got = adaptive_box_quadrature(lambda p: np.abs(p[:, 0] - 0.3), box, tol_abs=1e-10)
    expected = 0.5 * (1.3**2 + 0.7**2)
    assert np.isclose(got, expected, atol=1e-9)


def test_degenerate_box_is_zero():
    box = HyperRectangle([0.5], [0.5])
    assert adaptive_box_quadrature(lambda p: np.ones(p.shape[0]), box) == 0.0


def test_rough_integrand_hits_panel_cap():
    box = HyperRectangle([0.0], [1.0])

    def jagged(p):
        return np.sin(1.0 / (p[:, 0] ** 2 + 1e-12))

    with pytest.raises(ResourceLimitError):
        adaptive_box_quadrature(jagged, box, tol_abs=1e-13, max_panels=2000)


def test_rejects_unsupported_dimension_and_unbounded():
    with pytest.raises(ValueError):
        adaptive_box_quadrature(
            lambda p: np.ones(p.shape[0]),
            HyperRectangle([0.0] * 3, [1.0] * 3),
        )
    with pytest.raises(ValueError):
        adaptive_box_quadrature(
            lambda p: np.ones(p.shape[0]), HyperRectangle.whole_space(1)
        )


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
def test_rejects_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        adaptive_box_quadrature(
            lambda p: np.ones(p.shape[0]), HyperRectangle([0.0], [1.0]), tol_abs=tol
        )
