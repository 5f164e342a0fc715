import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gl_box_integral, pairwise_kernel_sum

from psdsample import metrics
from psdsample.boxes import HyperRectangle
from psdsample.exceptions import EmptyMassError, ResourceLimitError
from psdsample.integration import integrate
from psdsample.metrics import dyadic_density, empirical_mmd, exact_distances
from psdsample.models import RankOneModel


def two_bump_1d():
    return RankOneModel(
        a=np.array([1.0, -0.6]),
        X=np.array([[0.3], [-0.5]]),
        eta=np.array([2.0]),
    )


def test_partition_tiles_the_box():
    model = two_bump_1d()
    box = HyperRectangle([-1.0], [1.0])
    dd = dyadic_density(model, box, rho=0.25)
    assert dd.leaf_count == 8
    order = np.argsort(dd.lower[:, 0])
    lo = dd.lower[order, 0]
    hi = dd.upper[order, 0]
    assert lo[0] == -1.0 and hi[-1] == 1.0
    assert np.allclose(hi[:-1], lo[1:])
    assert np.allclose(hi - lo, 0.25)


def test_masses_match_direct_integrals_and_sum():
    model = two_bump_1d()
    box = HyperRectangle([-1.0], [1.0])
    dd = dyadic_density(model, box, rho=0.5)
    assert np.isclose(dd.total_mass, integrate(model, box), rtol=1e-12)
    assert np.isclose(dd.probabilities.sum(), 1.0, atol=1e-12)
    for i in range(dd.leaf_count):
        leaf = HyperRectangle(dd.lower[i], dd.upper[i])
        assert np.isclose(dd.masses[i], integrate(model, leaf), rtol=1e-12)


def test_density_values_are_levels_inside_zero_outside():
    model = two_bump_1d()
    box = HyperRectangle([-1.0], [1.0])
    dd = dyadic_density(model, box, rho=0.25)
    mids = 0.5 * (dd.lower + dd.upper)
    vols = np.prod(dd.upper - dd.lower, axis=1)
    got = dd.density_values(mids)
    assert np.allclose(got, dd.probabilities / vols)
    outside = dd.density_values(np.array([[-1.5], [1.5], [7.0]]))
    assert np.array_equal(outside, np.zeros(3))


def test_density_values_integrate_to_one():
    model = two_bump_1d()
    box = HyperRectangle([-1.0], [1.0])
    dd = dyadic_density(model, box, rho=0.25)
    total = gl_box_integral(dd.density_values, box.lower, box.upper, panels=8)
    assert np.isclose(total, 1.0, atol=1e-12)


def test_decimal_box_has_the_grid_leaves_and_their_levels():
    # -2.4 - (-3.0) rounds above 0.6, so the side halves twice at rho 0.3
    # even though the midpoint -2.7 leaves a left half below rho
    model = RankOneModel(a=np.ones(1), X=np.array([[-2.7]]), eta=np.ones(1))
    box = HyperRectangle([-3.0], [-2.4])
    dd = dyadic_density(model, box, rho=0.3)
    assert dd.leaf_count == 4
    assert dd.lower[0, 0] == -3.0 and dd.upper[-1, 0] == -2.4
    assert np.array_equal(dd.upper[:-1], dd.lower[1:])
    levels = dd.probabilities / np.prod(dd.upper - dd.lower, axis=1)
    assert np.array_equal(dd.density_values(0.5 * (dd.lower + dd.upper)), levels)


def test_dyadic_density_validation():
    model = two_bump_1d()
    box = HyperRectangle([-1.0], [1.0])
    with pytest.raises(ValueError):
        dyadic_density(model, HyperRectangle.whole_space(1), rho=0.5)
    with pytest.raises(ValueError):
        dyadic_density(model, box, rho=0.0)
    with pytest.raises(ValueError):
        dyadic_density(model, HyperRectangle([-1.0, -1.0], [1.0, 1.0]), rho=0.5)
    with pytest.raises(ResourceLimitError):
        dyadic_density(model, box, rho=2.0**-30)


def test_dyadic_density_empty_mass():
    model = two_bump_1d()
    far = HyperRectangle([100.0], [101.0])
    with pytest.raises(EmptyMassError):
        dyadic_density(model, far, rho=0.5)


def test_exact_distances_1d_within_bounds():
    model = two_bump_1d()
    box = HyperRectangle([-1.0], [1.0])
    report = exact_distances(model, box, rho=2.0**-4)
    assert 0.0 <= report.tv <= report.tv_bound
    assert 0.0 <= report.hellinger <= report.hellinger_bound
    assert report.w1 is not None
    assert 0.0 <= report.w1 <= report.w1_bound
    assert report.w1_bound == 2.0**-4
    assert report.leaf_count == 32


def test_exact_distances_tv_matches_quadrature_oracle():
    model = two_bump_1d()
    box = HyperRectangle([-1.0], [1.0])
    rho = 0.25
    report = exact_distances(model, box, rho=rho)
    dd = dyadic_density(model, box, rho=rho)

    def gap(pts):
        return np.abs(model.evaluate(pts) / dd.total_mass - dd.density_values(pts))

    oracle = gl_box_integral(gap, box.lower, box.upper, panels=64, order=24)
    assert np.isclose(report.tv, oracle, rtol=1e-5, atol=1e-7)


def test_exact_distances_shrink_with_rho():
    model = two_bump_1d()
    box = HyperRectangle([-1.0], [1.0])
    coarse = exact_distances(model, box, rho=0.5)
    fine = exact_distances(model, box, rho=0.125)
    assert fine.tv < coarse.tv
    assert fine.hellinger < coarse.hellinger
    assert fine.w1 < coarse.w1


def test_exact_distances_evaluate_the_model_in_few_batched_calls(monkeypatch):
    model = two_bump_1d()
    calls = []
    evaluate = RankOneModel.evaluate

    def counted(self, points):
        calls.append(len(points))
        return evaluate(self, points)

    monkeypatch.setattr(RankOneModel, "evaluate", counted)
    report = exact_distances(model, HyperRectangle([-1.0], [1.0]), rho=2.0**-4)
    assert report.leaf_count == 32
    # one pass feeds TV, Hellinger and W1 from each evaluation of all leaves'
    # open panels, so there are fewer evaluations than leaves
    assert 0 < len(calls) < report.leaf_count


def test_exact_distances_2d_has_no_w1():
    model = RankOneModel(
        a=np.array([1.0]), X=np.array([[0.0, 0.0]]), eta=np.array([1.0, 1.0])
    )
    box = HyperRectangle([-1.0, -1.0], [1.0, 1.0])
    report = exact_distances(model, box, rho=1.0, tol=1e-6)
    assert report.w1 is None
    assert report.leaf_count == 4
    assert report.tv <= report.tv_bound
    assert report.hellinger <= report.hellinger_bound
    assert np.isclose(report.w1_bound, np.sqrt(2.0))


def test_exact_distances_reject_high_dimension():
    model = RankOneModel(
        a=np.array([1.0]),
        X=np.zeros((1, 3)),
        eta=np.ones(3),
    )
    box = HyperRectangle([-1.0] * 3, [1.0] * 3)
    with pytest.raises(ValueError):
        exact_distances(model, box, rho=1.0)


def test_mmd_identical_samples_is_zero():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 2))
    assert empirical_mmd(X, X, eta=1.0) == 0.0


def test_mmd_single_points_closed_form():
    x = np.array([[0.0, 0.0]])
    y = np.array([[1.0, 2.0]])
    expected = np.sqrt(2.0 - 2.0 * np.exp(-0.5 * 5.0))
    assert np.isclose(empirical_mmd(x, y, eta=0.5), expected, rtol=1e-12)


def test_mmd_symmetry_and_positivity():
    rng = np.random.default_rng(1)
    P = rng.normal(size=(40, 3))
    Q = rng.normal(loc=0.3, size=(60, 3))
    ab = empirical_mmd(P, Q, eta=0.7)
    ba = empirical_mmd(Q, P, eta=0.7)
    assert np.isclose(ab, ba, rtol=1e-12)
    assert ab > 0.0


def test_mmd_decreases_as_distributions_merge():
    rng = np.random.default_rng(2)
    P = rng.normal(size=(500, 1))
    far = empirical_mmd(P, rng.normal(loc=2.0, size=(500, 1)), eta=1.0)
    near = empirical_mmd(P, rng.normal(loc=0.2, size=(500, 1)), eta=1.0)
    assert near < far


def test_mmd_validation():
    P = np.zeros((3, 2))
    with pytest.raises(ValueError):
        empirical_mmd(P, np.zeros((3, 1)), eta=1.0)
    with pytest.raises(ValueError):
        empirical_mmd(P, np.zeros((0, 2)), eta=1.0)
    with pytest.raises(ValueError):
        empirical_mmd(P, P, eta=0.0)


BLOCK = metrics._BLOCK_ROWS
BLOCK_EDGES = st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5), BLOCK_EDGES, BLOCK_EDGES,
    st.floats(0.1, 5.0), st.integers(0, 2**32 - 1),
)
def test_kernel_sums_match_pairwise_oracle(d, n, m, eta, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    Y = rng.uniform(-2.0, 2.0, size=(m, d))
    cross = metrics._kernel_sum(X, Y, eta)
    assert np.isclose(cross, pairwise_kernel_sum(X, Y, eta), rtol=1e-12, atol=0.0)
    self_sum = metrics._self_sum(X, eta)
    assert np.isclose(self_sum, pairwise_kernel_sum(X, X, eta), rtol=1e-12, atol=0.0)


def _spread(X, Y):
    """Largest |p - c|^2 over both sets, c the midpoint of their bounding box."""
    Z = np.concatenate([X, Y])
    return float(np.max(np.sum((Z - 0.5 * (Z.min(axis=0) + Z.max(axis=0))) ** 2, axis=1)))


def _spy_clamped():
    return mock.patch.object(
        metrics, "_clamped_kernel_sum", wraps=metrics._clamped_kernel_sum
    )


def _oracle_mmd(P, Q, eta):
    n, m = P.shape[0], Q.shape[0]
    val = (
        pairwise_kernel_sum(P, P, eta) / (n * n)
        + pairwise_kernel_sum(Q, Q, eta) / (m * m)
        - 2.0 * pairwise_kernel_sum(P, Q, eta) / (n * m)
    )
    return np.sqrt(max(val, 0.0))


# eta * _spread as a multiple of the factoring limit: below, at and above it
GUARD_RATIOS = st.sampled_from([0.25, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.1, 3.0])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5), BLOCK_EDGES, BLOCK_EDGES, st.floats(0.1, 5.0),
    GUARD_RATIOS, st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1),
)
def test_kernel_sums_match_the_oracle_across_the_factoring_guard(
    d, n, m, eta, ratio, shift, seed
):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    Y = rng.uniform(-2.0, 2.0, size=(m, d)) + shift
    for A, B in ((X, Y), (X, X)):
        symmetric = B is A
        spread = _spread(A, B)
        if spread > 0.0:
            scale = np.sqrt(ratio * metrics._FACTOR_LIMIT / (eta * spread))
            A = A * scale
            B = A if symmetric else B * scale
        with _spy_clamped() as clamped:
            got = metrics._kernel_sum(A, B, eta, symmetric)
        assert np.isclose(got, pairwise_kernel_sum(A, B, eta), rtol=1e-12, atol=0.0)
        if spread > 0.0 and ratio != 1.0:
            assert clamped.called == (ratio > 1.0)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 5), BLOCK_EDGES, BLOCK_EDGES,
    st.sampled_from([100.0, -100.0, 1e3]), st.integers(0, 2**32 - 1),
)
def test_far_apart_sets_take_the_clamped_cross_sum(d, n, m, offset, seed):
    rng = np.random.default_rng(seed)
    P = rng.uniform(-1.0, 1.0, size=(n, d))
    Q = offset + rng.uniform(-1.0, 1.0, size=(m, d))
    with _spy_clamped() as clamped:
        got = empirical_mmd(P, Q, 1.0)
    # only the cross sum spans both sets; each self-sum is factored
    assert clamped.call_count == 1
    assert np.isclose(got, _oracle_mmd(P, Q, 1.0), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", range(5))
def test_clamped_sums_of_far_apart_clusters_lose_no_digits(seed):
    # two 60-point 3-D clusters 1000 apart: every kernel value is between
    # points of one cluster, and a sum from 2x.y - |x|^2 - |y|^2 cancelled
    # about 1e6 of each square away
    rng = np.random.default_rng(seed)

    def clusters():
        near = rng.uniform(-1.0, 1.0, (30, 3))
        return np.concatenate([near, 1000.0 + rng.uniform(-1.0, 1.0, (30, 3))])

    X, Y = clusters(), clusters()
    with _spy_clamped() as clamped:
        got_self = metrics._kernel_sum(X, X, 1.0, symmetric=True)
        got_cross = metrics._kernel_sum(X, Y, 1.0)
    assert clamped.call_count == 2
    assert np.isclose(got_self, pairwise_kernel_sum(X, X, 1.0), rtol=1e-14, atol=0.0)
    assert np.isclose(got_cross, pairwise_kernel_sum(X, Y, 1.0), rtol=1e-14, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), BLOCK_EDGES, st.floats(-1e3, 1e3))
def test_identical_points_at_a_huge_eta_sum_to_the_pair_count(d, n, value):
    X = np.full((n, d), value)
    assert metrics._self_sum(X, 1e308) == pairwise_kernel_sum(X, X, 1e308) == n * n


@pytest.mark.parametrize("layout", ["cross", "self", "far-apart cross"])
def test_kernel_sums_allocate_no_pair_sized_temporary(layout):
    # the inputs exist before tracing starts; what the sum allocates is its
    # block buffer and a few copies of the two sets
    n = m = 4000
    d = 5
    rng = np.random.default_rng(7)
    X = rng.normal(size=(n, d))
    Y = X if layout == "self" else rng.normal(size=(m, d))
    if layout == "far-apart cross":
        Y += 100.0
    tracemalloc.start()
    try:
        metrics._kernel_sum(X, Y, 1.0, symmetric=layout == "self")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < metrics._BLOCK_ROWS * m * 8 + 4 * (n + m) * d * 8


@pytest.mark.parametrize("n, d", [(1000, 3), (290, 5), (378, 4), (169, 5), (310, 2)])
def test_mmd_identical_sets_across_blocks_is_zero(n, d):
    X = np.random.default_rng(n).normal(size=(n, d))
    assert empirical_mmd(X, X, eta=1.0) == 0.0
    assert empirical_mmd(X, X.copy(), eta=0.3) == 0.0


def test_mmd_huge_eta_does_not_overflow():
    P = np.full((3, 2), 0.0)
    Q = np.ones((3, 2))
    assert empirical_mmd(P, Q, 1e308) == 1.4142135623730951


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mmd_rejects_non_finite_samples(bad):
    P = np.zeros((3, 2))
    Q = np.ones((3, 2))
    Q[1, 0] = bad
    with pytest.raises(ValueError, match="sample sets must be finite"):
        empirical_mmd(P, Q, 1.0)
    with pytest.raises(ValueError, match="sample sets must be finite"):
        empirical_mmd(Q, P, 1.0)
