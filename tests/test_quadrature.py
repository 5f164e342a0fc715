import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from psdsample import quadrature
from psdsample.boxes import HyperRectangle
from psdsample.exceptions import ResourceLimitError
from psdsample.quadrature import adaptive_box_quadrature


def test_polynomial_is_exact():
    box = HyperRectangle([-1.0], [2.0])
    got = adaptive_box_quadrature(
        lambda p: p[:, 0] ** 5 - 3 * p[:, 0] + 1, box.lower, box.upper
    )
    # antiderivative x^6/6 - 3x^2/2 + x evaluated at the endpoints
    expected = (2.0**6 / 6 - 6 + 2) - (1.0 / 6 - 1.5 - 1)
    assert np.isclose(got, expected, rtol=1e-13)


def test_gaussian_matches_erf_closed_form():
    box = HyperRectangle([-0.7], [1.3])
    got = adaptive_box_quadrature(
        lambda p: np.exp(-2.0 * p[:, 0] ** 2), box.lower, box.upper
    )
    expected = np.sqrt(np.pi / 2) / 2 * (
        erf(np.sqrt(2.0) * 1.3) - erf(np.sqrt(2.0) * -0.7)
    )
    assert np.isclose(got, expected, rtol=1e-12)


def test_two_dimensional_product_integrand():
    box = HyperRectangle([0.0, -1.0], [1.0, 1.0])
    got = adaptive_box_quadrature(
        lambda p: np.cos(p[:, 0]) * p[:, 1] ** 2, box.lower, box.upper, tol_abs=1e-11
    )
    expected = np.sin(1.0) * (2.0 / 3.0)
    assert np.isclose(got, expected, rtol=1e-10)


def test_kinked_integrand_converges():
    box = HyperRectangle([-1.0], [1.0])
    got = adaptive_box_quadrature(
        lambda p: np.abs(p[:, 0] - 0.3), box.lower, box.upper, tol_abs=1e-10
    )
    expected = 0.5 * (1.3**2 + 0.7**2)
    assert np.isclose(got, expected, atol=1e-9)


def test_degenerate_box_is_zero():
    box = HyperRectangle([0.5], [0.5])
    ones = adaptive_box_quadrature(lambda p: np.ones(p.shape[0]), box.lower, box.upper)
    assert ones == 0.0


def test_rough_integrand_hits_panel_cap(monkeypatch):
    box = HyperRectangle([0.0], [1.0])
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 2000)

    def jagged(p):
        return np.sin(1.0 / (p[:, 0] ** 2 + 1e-12))

    with pytest.raises(ResourceLimitError):
        adaptive_box_quadrature(jagged, box.lower, box.upper, tol_abs=1e-13)


def test_rejects_unsupported_dimension_and_unbounded():
    with pytest.raises(ValueError):
        adaptive_box_quadrature(
            lambda p: np.ones(p.shape[0]),
            [0.0] * 3,
            [1.0] * 3,
        )
    with pytest.raises(ValueError):
        adaptive_box_quadrature(
            lambda p: np.ones(p.shape[0]),
            HyperRectangle.whole_space(1).lower,
            HyperRectangle.whole_space(1).upper,
        )


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
def test_rejects_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        adaptive_box_quadrature(
            lambda p: np.ones(p.shape[0]), [0.0], [1.0], tol_abs=tol
        )


def _columns(a, b):
    """Three nonnegative integrands, the first kinked at x0 = a."""
    return [
        lambda p: np.abs(p[:, 0] - a),
        lambda p: np.exp(-b * np.sum(p**2, axis=1)),
        lambda p: 1.0 + p[:, -1] ** 2,
    ]


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    corners=st.lists(
        st.tuples(
            st.floats(-2.0, 2.0), st.floats(0.01, 1.5),
            st.floats(-2.0, 2.0), st.floats(0.01, 1.5),
        ),
        min_size=1,
        max_size=6,
    ),
    a=st.floats(-2.0, 3.0),
    b=st.floats(0.1, 3.0),
)
def test_batched_columns_equal_each_column_run_alone_per_cell(d, corners, a, b):
    lo = np.array([[c[0], c[2]][:d] for c in corners])
    hi = lo + np.array([[c[1], c[3]][:d] for c in corners])
    cols = _columns(a, b)
    got = adaptive_box_quadrature(
        lambda p: np.stack([f(p) for f in cols], axis=1), lo, hi, tol_abs=1e-10
    )
    assert got.shape == (len(corners), len(cols))
    for i in range(len(corners)):
        for j, f in enumerate(cols):
            alone = adaptive_box_quadrature(f, lo[i], hi[i], tol_abs=1e-10)
            assert np.isclose(got[i, j], alone, rtol=1e-13, atol=0.0)


def test_panel_cap_applies_per_cell_not_per_batch(monkeypatch):
    # a kink at 0.3 inside every unit cell: each cell needs a few dozen
    # panels, the batch of 8 far more than the cap of 60
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 60)

    def kinked(p):
        return np.abs(p[:, 0] - np.floor(p[:, 0]) - 0.3)

    lo = np.arange(8.0)[:, None]
    got = adaptive_box_quadrature(kinked, lo, lo + 1.0, tol_abs=1e-10)
    alone = adaptive_box_quadrature(kinked, [0.0], [1.0], tol_abs=1e-10)
    assert np.allclose(got, alone, rtol=1e-13, atol=0.0)

    def rough_first_cell(p):
        x = p[:, 0]
        return np.where(x < 1.0, np.sin(1.0 / (x**2 + 1e-12)), kinked(p))

    with pytest.raises(ResourceLimitError):
        adaptive_box_quadrature(rough_first_cell, lo, lo + 1.0, tol_abs=1e-10)
