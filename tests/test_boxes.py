import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdsample.boxes import HyperRectangle, bisect_longest, halving_counts
from psdsample.integration import integrate_boxes
from psdsample.metrics import dyadic_density
from psdsample.models import RankOneModel


def box(lo, hi):
    return HyperRectangle(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


def split(b):
    """Halves of one box through the batched bisection."""
    left_hi, right_lo = bisect_longest(b.lower[None, :], b.upper[None, :])
    return HyperRectangle(b.lower, left_hi[0]), HyperRectangle(right_lo[0], b.upper)


def test_basic_properties():
    b = box([-1.0, 0.0], [1.0, 4.0])
    assert b.dim == 2
    assert np.allclose(b.side_lengths, [2.0, 4.0])
    assert np.allclose(b.center, [0.0, 2.0])
    assert b.volume() == 8.0
    assert b.is_bounded()


def test_rejects_inverted_corners():
    with pytest.raises(ValueError):
        box([1.0], [0.0])


def test_contains_is_half_open():
    b = box([0.0], [1.0])
    inside = b.contains(np.array([[0.0], [0.5], [0.999999]]))
    assert inside.all()
    assert not b.contains(np.array([[1.0]]))[0]
    assert not b.contains(np.array([[-1e-12]]))[0]


def test_bisect_longest_halves_and_partitions():
    b = box([0.0, 0.0], [1.0, 4.0])
    left, right = split(b)
    assert np.array_equal(left.lower, b.lower) and np.array_equal(right.upper, b.upper)
    assert np.flatnonzero(left.upper != b.upper).tolist() == [1]
    assert np.allclose(left.upper, [1.0, 2.0])
    assert np.allclose(right.lower, [0.0, 2.0])
    assert left.volume() + right.volume() == b.volume()


def test_split_tie_picks_lowest_index():
    b = box([0.0, 0.0], [2.0, 2.0])
    left, _ = split(b)
    assert np.flatnonzero(left.upper != b.upper).tolist() == [0]


def test_whole_space_is_unbounded_with_infinite_volume():
    w = HyperRectangle.whole_space(3)
    assert not w.is_bounded()
    assert w.volume() == np.inf
    assert w.contains(np.array([[1e30, -1e30, 0.0]]))[0]


def test_volume_rejects_zero_times_infinity():
    b = HyperRectangle(np.array([0.0, -np.inf]), np.array([0.0, np.inf]))
    with pytest.raises(ValueError):
        b.volume()


def test_double_size_keeps_center_and_doubles_sides():
    b = box([0.0, 1.0], [2.0, 5.0])
    d = b.double_size()
    assert np.allclose(d.center, b.center)
    assert np.allclose(d.side_lengths, 2.0 * b.side_lengths)


def test_bounding_box_covers_points():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(40, 3))
    b = HyperRectangle.bounding_box(pts)
    assert np.allclose(b.lower, pts.min(axis=0))
    assert np.allclose(b.upper, pts.max(axis=0))


def test_repeated_splits_reach_leaf_size():
    b = box([-1.0], [1.0])
    for _ in range(7):
        b, _ = split(b)
    assert b.side_lengths[0] == 2.0 ** (1 - 7)


def test_halving_counts_rejects_unbounded_box():
    with pytest.raises(ValueError, match="unbounded"):
        halving_counts(HyperRectangle(np.array([0.0]), np.array([np.inf])), 0.1)


@pytest.mark.parametrize("rho", [0.0, -0.5, np.nan])
def test_halving_counts_rejects_nonpositive_rho(rho):
    with pytest.raises(ValueError, match="rho"):
        halving_counts(box([0.0], [1.0]), rho)


@st.composite
def dyadic_boxes(draw, d):
    """Boxes whose corners are small multiples of one power of two, so
    halving, differences and volumes are exact in floating point; side
    multiples from a short range make ties between axes common."""
    scale = 2.0 ** draw(st.integers(-6, 6))
    lo = np.array(draw(st.lists(st.integers(-64, 64), min_size=d, max_size=d)), float)
    sides = np.array(draw(st.lists(st.integers(1, 8), min_size=d, max_size=d)), float)
    return HyperRectangle(lo * scale, (lo + sides) * scale)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(dyadic_boxes(d), min_size=1, max_size=5)))
def test_bisect_longest_halves_one_axis_and_keeps_volume(boxes):
    lo = np.array([b.lower for b in boxes])
    hi = np.array([b.upper for b in boxes])
    left_hi, right_lo = bisect_longest(lo, hi)
    for b, lh, rl in zip(boxes, left_hi, right_lo):
        sides = b.side_lengths.tolist()
        axis = sides.index(max(sides))  # lowest index on ties
        assert np.flatnonzero(lh != b.upper).tolist() == [axis]
        assert np.flatnonzero(rl != b.lower).tolist() == [axis]
        assert lh[axis] == rl[axis] == 0.5 * (b.lower[axis] + b.upper[axis])
        left, right = HyperRectangle(b.lower, lh), HyperRectangle(rl, b.upper)
        assert left.volume() + right.volume() == b.volume()
        assert left.volume() == right.volume()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(dyadic_boxes), st.integers(-2, 1))
def test_repeated_bisection_matches_the_sampler_leaves(b, rho_exp):
    rho = 2.0**rho_exp * float(b.side_lengths.min())
    lo, hi = b.lower[None, :], b.upper[None, :]
    while np.any(hi - lo > rho):
        left_hi, right_lo = bisect_longest(lo, hi)
        lo = np.concatenate([lo, right_lo])
        hi = np.concatenate([left_hi, hi])
    # exact dyadic grid: halving_counts halvings per axis
    cells = 2.0 ** halving_counts(b, rho)
    width = b.side_lengths / cells
    assert np.all(hi - lo == width)
    idx = (lo - b.lower) / width
    assert np.array_equal(idx, np.round(idx))
    assert len({tuple(row) for row in idx}) == lo.shape[0] == int(np.prod(cells))
    assert float(np.prod(hi - lo, axis=1).sum()) == b.volume()
    # the leaf partition the sampler induces, as dyadic_density enumerates it
    model = RankOneModel(a=np.ones(1), X=b.center[None, :], eta=np.ones(b.dim))
    dd = dyadic_density(model, b, rho)
    order = np.lexsort(lo.T)
    dd_order = np.lexsort(dd.lower.T)
    assert np.array_equal(dd.lower[dd_order], lo[order])
    assert np.array_equal(dd.upper[dd_order], hi[order])
    masses = integrate_boxes(model, lo[order], hi[order])
    assert np.array_equal(dd.masses[dd_order], masses)
