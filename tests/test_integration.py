import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from psdsample import integration
from psdsample.boxes import HyperRectangle, bisect, split_axes
from psdsample.exceptions import ResourceLimitError
from psdsample.integration import (
    IntegralAccounting,
    integrate,
    integrate_boxes,
    integrate_squared,
    pair_gram,
    quartic_gram,
)
from psdsample.metrics import _axis_edges
from psdsample.models import GaussianPsdModel, RankOneModel

from oracles import gl_box_integral, integrate_boxes_reference, intervals_reference


def unit_model():
    return GaussianPsdModel(
        A=np.array([[1.0]]), X=np.array([[0.0]]), eta=np.array([1.0])
    )


def random_model(seed, d, m):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=1.1, size=(m, d))
    B = rng.normal(size=(m, m))
    return GaussianPsdModel(
        A=B @ B.T, X=X, eta=rng.uniform(0.4, 2.2, size=d)
    )


def test_unit_model_on_unit_box_frozen_value():
    # integral of e^{-2x^2} over [-1, 1) = sqrt(pi/2) erf(sqrt(2))
    acct = IntegralAccounting()
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    val = integrate(unit_model(), box, acct)
    assert np.isclose(val, 1.1962880133226081, rtol=0, atol=1e-15)
    assert acct.integral_evals == 1
    assert acct.erf_calls == 2  # 2 * d * m^2


def test_unit_model_whole_space_frozen_value():
    acct = IntegralAccounting()
    val = integrate(unit_model(), HyperRectangle.whole_space(1), acct)
    assert np.isclose(val, np.sqrt(np.pi / 2.0), rtol=1e-15)
    assert acct.erf_calls == 0  # infinite endpoints are substituted


def test_half_infinite_box_counts_only_finite_bounds():
    model = random_model(1, d=2, m=3)
    acct = IntegralAccounting()
    box = HyperRectangle(
        np.array([-np.inf, 0.0]), np.array([0.5, np.inf])
    )
    integrate(model, box, acct)
    assert acct.erf_calls == 2 * model.m**2


def test_empty_box_has_zero_mass():
    box = HyperRectangle(np.array([0.3]), np.array([0.3]))
    assert integrate(unit_model(), box) == 0.0


def test_erf_accounting_scales_with_d_m():
    model = random_model(2, d=3, m=4)
    acct = IntegralAccounting()
    box = HyperRectangle(-np.ones(3), np.ones(3))
    integrate(model, box, acct)
    assert acct.erf_calls == 2 * 3 * 16


@pytest.mark.parametrize("seed,d,m", [(3, 1, 1), (4, 1, 4), (5, 2, 3), (6, 3, 2)])
def test_closed_form_matches_cubature(seed, d, m):
    model = random_model(seed, d, m)
    rng = np.random.default_rng(seed + 100)
    lo = rng.uniform(-2.0, 0.0, size=d)
    hi = lo + rng.uniform(0.5, 2.5, size=d)
    box = HyperRectangle(lo, hi)
    exact = integrate(model, box)
    oracle = gl_box_integral(model.evaluate, lo, hi)
    assert np.isclose(exact, oracle, rtol=1e-10, atol=1e-13)


def test_batch_matches_single_box_calls(monkeypatch):
    model = random_model(7, d=2, m=3)
    rng = np.random.default_rng(8)
    lo = rng.uniform(-2, 0, size=(37, 2))
    hi = lo + rng.uniform(0.1, 2.0, size=(37, 2))
    acct = IntegralAccounting()
    batch = integrate_boxes(model, lo, hi, acct)
    singles = np.array(
        [integrate(model, HyperRectangle(a, b)) for a, b in zip(lo, hi)]
    )
    assert np.allclose(batch, singles, rtol=1e-14)
    assert acct.integral_evals == 37
    assert acct.erf_calls == 37 * 2 * 2 * 9
    # random edges make 74 distinct edges per axis, one erf each for
    # each of the 6 unique pairs
    assert acct.erf_evals == 2 * 74 * 6

    # Four levels of longest-side bisection, so boxes share edges as in
    # the sampler, plus infinite and zero-width edges, over several chunks.
    model = random_model(14, d=3, m=4)
    lo = np.array([[-2.0, -1.0, -3.0]])
    hi = np.array([[2.0, 1.5, 0.0]])
    los, his = [], []
    for _ in range(4):
        # each box's left half, then its right half
        left_hi, right_lo = bisect(lo, hi, np.argmax(hi - lo, axis=1))
        lo = np.stack([lo, right_lo], axis=1).reshape(-1, 3)
        hi = np.stack([left_hi, hi], axis=1).reshape(-1, 3)
        los.append(lo)
        his.append(hi)
    lo = np.concatenate(los)
    hi = np.concatenate(his)
    n = lo.shape[0]
    lo[3, 0] = -np.inf
    hi[8, 2] = np.inf
    lo[20, 1], hi[20, 1] = -np.inf, np.inf
    hi[5, 1] = lo[5, 1]
    lo[17] = hi[17]
    # 112 elements hold 11 boxes of 10 unique pairs: three chunks
    monkeypatch.setattr(integration, "_CHUNK_ELEMS", 7 * model.m**2)
    acct = IntegralAccounting()
    batch = integrate_boxes(model, lo, hi, acct)
    singles = np.array(
        [integrate(model, HyperRectangle(a, b)) for a, b in zip(lo, hi)]
    )
    assert n == 30
    assert batch[5] == batch[17] == 0.0
    assert np.all(np.delete(batch, [5, 17]) > 0.0)
    assert np.allclose(batch, singles, rtol=1e-14, atol=0.0)
    assert acct.integral_evals == n
    # four infinite bounds drop out of the 2 * d * m^2 count
    assert acct.erf_calls == (n * 2 * 3 - 4) * 16


def test_erf_evals_counts_each_distinct_edge_once():
    model = random_model(16, d=2, m=2)  # 3 unique pairs
    # axis 0: the lower edge 0 meets upper edges 1 and 2, three intervals
    # over the edges 0, 1, 2; axis 1: every box spans [-1, 1]
    lo = np.array([[0.0, -1.0], [0.0, -1.0], [1.0, -1.0], [0.0, -1.0]])
    hi = np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
    acct = IntegralAccounting()
    vals = integrate_boxes(model, lo, hi, acct)
    assert vals.tobytes() == integrate_boxes_reference(model, lo, hi).tobytes()
    assert acct.integral_evals == 4
    assert acct.erf_calls == 4 * 2 * 2 * 4
    assert acct.erf_evals == (3 + 2) * 3
    total = IntegralAccounting(1, 2, 3)
    total.add(acct)
    assert total == IntegralAccounting(5, 2 + 64, 3 + 15)


def _level_batch(rng, d, dyadic=False):
    """Lower corners and left-half upper corners of one sampler level,
    with a random share of each level's boxes dropped as the sampler
    drops children that get no draws.  The box has one-decimal corners
    and sides, whose midpoints round, or dyadic ones, whose do not."""
    if dyadic:
        lo = rng.integers(-8, 1, size=d) / 4.0
        box = HyperRectangle(lo, lo + 2.0 ** rng.integers(-1, 3, size=d))
    else:
        lo = rng.integers(-20, 0, size=d) / 10.0
        box = HyperRectangle(lo, lo + rng.integers(5, 40, size=d) / 10.0)
    axes = split_axes(box, 0.05)
    level = int(rng.integers(0, min(axes.size, 9)))
    lo, hi = box.lower[None, :].copy(), box.upper[None, :].copy()
    for axis in axes[:level]:
        left_hi, right_lo = bisect(lo, hi, axis)
        lo = np.concatenate([lo, right_lo])
        hi = np.concatenate([left_hi, hi])
        keep = rng.random(lo.shape[0]) < 0.7
        keep[rng.integers(lo.shape[0])] = True
        lo, hi = lo[keep], hi[keep]
    left_hi, _ = bisect(lo, hi, axes[level])
    return lo, left_hi


def _grid_level(rng, halvings):
    """Lower corners and left-half upper corners of the boxes of a
    sampler level on [-2, 2]^d, axis k halved halvings[k] times, with
    about 70% of them kept."""
    cells = [np.arange(2**c) * 4.0 / 2**c - 2.0 for c in halvings]
    widths = np.array([4.0 / 2**c for c in halvings])
    lo = np.stack(np.meshgrid(*cells, indexing="ij"), axis=-1).reshape(-1, len(cells))
    lo = lo[rng.random(lo.shape[0]) < 0.7]
    hi = lo + widths
    hi[:, 0] = lo[:, 0] + widths[0] / 2
    return lo, hi


def _reference_erf_evals(lo, hi, pairs):
    """erfs the reference evaluates: one per distinct edge of each chunk,
    axis and unique pair."""
    step = max(1, integration._CHUNK_ELEMS // pairs)
    return pairs * sum(
        np.unique(np.concatenate((lo[i : i + step, k], hi[i : i + step, k]))).size
        for i in range(0, lo.shape[0], step)
        for k in range(lo.shape[1])
    )


def _call_erf_evals(lo, hi, pairs):
    """erfs of one set of tables for the whole call: one per distinct
    edge of each axis and unique pair."""
    return pairs * sum(
        np.unique(np.concatenate((lo[:, k], hi[:, k]))).size for k in range(lo.shape[1])
    )


def _assert_intervals_match_the_reference(lo, hi):
    for k in range(lo.shape[1]):
        edges, lo_idx, hi_idx, inv = integration._intervals(lo[:, k], hi[:, k])
        ref = intervals_reference(lo[:, k], hi[:, k])
        assert edges.tobytes() == ref[0].tobytes()
        for got, want in zip((lo_idx, hi_idx, inv), ref[1:]):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.booleans(),
    st.sampled_from(["none", "inf", "zero-width", "shared-lower", "ulp"]),
)
def test_intervals_match_the_sorting_reference(seed, d, dyadic, edit):
    rng = np.random.default_rng(seed)
    lo, hi = _level_batch(rng, d, dyadic)
    n = lo.shape[0]
    i, k = rng.integers(n), rng.integers(d)
    if edit == "inf":
        lo[i, k] = -np.inf
        hi[rng.integers(n), rng.integers(d)] = np.inf
    elif edit == "zero-width":
        hi[i, k] = lo[i, k]
    elif edit == "shared-lower":
        # box i's lower edge meets a second upper edge, twice as far
        extra = hi[i].copy()
        extra[k] += hi[i, k] - lo[i, k]
        lo = np.concatenate((lo, lo[i : i + 1]))
        hi = np.concatenate((hi, extra[None, :]))
    elif edit == "ulp":
        # the last box's upper edge one ulp off the grid; the first box
        # fixes the grid's width, so the last is another one
        if n == 1:
            lo, hi = np.concatenate((lo, lo)), np.concatenate((hi, hi))
        hi[-1, k] = np.nextafter(hi[-1, k], np.inf)
    _assert_intervals_match_the_reference(lo, hi)


@pytest.mark.parametrize(
    "lo,hi",
    [
        # two cells 1024 widths apart: the counts would outgrow the batch
        ([0.0, 1.0], [2.0**-10, 1.0 + 2.0**-10]),
        # the grid's edges 2 - 2^-52 + w and + 2w both round to 2.0
        ([2.0 - 2.0**-52, 2.0], [2.0, 2.0]),
        # lo - o overflows, then the first box's width does
        ([-1.5e308, 1e308], [-1e308, 1.5e308]),
        ([-1e308, 0.0], [1e308, 1e308]),
        # infinite edges, where inf - inf would warn
        ([-np.inf, -np.inf], [-np.inf, -np.inf]),
        ([-np.inf, 0.0], [0.0, np.inf]),
        # no boxes
        ([], []),
    ],
)
def test_axes_off_a_grid_take_the_sort(lo, hi):
    lo, hi = np.array(lo), np.array(hi)
    _assert_intervals_match_the_reference(lo[:, None], hi[:, None])


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 4),
    st.sampled_from(["level", "decimal"]),
    st.booleans(),
    st.integers(1, 12),
    st.integers(1, 5),
)
def test_batches_match_the_reference_bit_for_bit(
    seed, d, m, kind, edit, chunk_boxes, block_boxes
):
    model = random_model(seed, d, m)
    rng = np.random.default_rng(seed)
    if kind == "level":
        lo, hi = _level_batch(rng, d)
    else:
        # one-decimal edges, where one lower edge meets two upper edges
        n = int(rng.integers(2, 40))
        lo = rng.integers(-20, 20, size=(n, d)) / 10.0
        hi = lo + rng.integers(0, 15, size=(n, d)) / 10.0
        lo[1, 0] = lo[0, 0]
        hi[1, 0] = hi[0, 0] + 0.1
    if edit:
        n = lo.shape[0]
        lo[rng.integers(n), rng.integers(d)] = -np.inf
        hi[rng.integers(n), rng.integers(d)] = np.inf
        i, k = rng.integers(n), rng.integers(d)
        hi[i, k] = lo[i, k]
    pairs = m * (m + 1) // 2
    with pytest.MonkeyPatch.context() as patch:
        # a few boxes per chunk: several chunks, and tables for all of
        # a batch's intervals overflow the budget, so each chunk builds
        # tables of its own;
        # fewer boxes per block, so chunks hold several blocks and may
        # end in a ragged one
        patch.setattr(integration, "_CHUNK_ELEMS", chunk_boxes * pairs)
        patch.setattr(integration, "_BLOCK_ELEMS", block_boxes * pairs)
        acct, ref_acct = IntegralAccounting(), IntegralAccounting()
        vals = integrate_boxes(model, lo, hi, acct)
        ref = integrate_boxes_reference(model, lo, hi, ref_acct)
        ref_evals = _reference_erf_evals(lo, hi, pairs)
    assert vals.tobytes() == ref.tobytes()
    assert (acct.integral_evals, acct.erf_calls) == (ref_acct.integral_evals, ref_acct.erf_calls)
    assert 0 < acct.erf_evals <= ref_evals


@pytest.mark.parametrize("d", [1, 5])
def test_interval_tables_stay_within_the_chunk_budget(d):
    # m = 40 (820 unique pairs), 1219 boxes per chunk.  d = 1: 2^14
    # adjacent leaf intervals; d = 5: 2^13 random boxes, every interval
    # and edge distinct, so each chunk tabulates its own 1219 intervals
    # over 2438 edges on each axis.
    model = random_model(17, d=d, m=40)
    if d == 1:
        edges = -3.0 + 6.0 * np.arange(2**14 + 1) / 2**14
        lo, hi = edges[:-1, None], edges[1:, None]
    else:
        rng = np.random.default_rng(18)
        lo = rng.uniform(-2.0, 0.0, size=(2**13, d))
        hi = lo + rng.uniform(0.1, 2.0, size=(2**13, d))
    ref = integrate_boxes_reference(model, lo, hi)
    acct = IntegralAccounting()
    tracemalloc.start()
    try:
        vals = integrate_boxes(model, lo, hi, acct)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The chunk's product rows, one table, the erf rows of its up to
    # twice as many edges and a gather temporary: five arrays of
    # _CHUNK_ELEMS doubles whatever d, where d tables kept at once would
    # take d + 4 and unbounded tables 340 MB.
    assert peak < 7 * 8 * integration._CHUNK_ELEMS
    assert vals.tobytes() == ref.tobytes()
    # each chunk has tables of its own, over the reference's distinct edges
    assert acct.erf_evals == _reference_erf_evals(lo, hi, 820)
    if d == 1:
        assert acct.erf_evals == (2**14 + 14) * 820


def test_level_batches_walk_blocks_within_the_chunk_budget():
    # pipeline-5d's shape: m = 50 (1275 unique pairs, 784 boxes per chunk,
    # 25 per block), d = 5 and a sampler level of about 10^4 boxes whose
    # tables fit the budget, so every chunk walks its blocks through all
    # five kept tables
    model = random_model(19, d=5, m=50)
    lo, hi = _grid_level(np.random.default_rng(20), (3, 3, 3, 3, 2))
    assert 9_000 < lo.shape[0] < 14_000
    ref = integrate_boxes_reference(model, lo, hi)
    acct = IntegralAccounting()
    tracemalloc.start()
    try:
        vals = integrate_boxes(model, lo, hi, acct)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # well inside the call's budget of 7 * 8 * _CHUNK_ELEMS bytes: the
    # chunk's product rows are the one array of _CHUNK_ELEMS, and later
    # axes gather into a block-sized buffer, not a second chunk
    assert peak < 2 * 8 * integration._CHUNK_ELEMS
    assert vals.tobytes() == ref.tobytes()
    assert acct.erf_evals <= _reference_erf_evals(lo, hi, 1275)
    # one set of tables for the call
    assert acct.erf_evals == _call_erf_evals(lo, hi, 1275)


def test_chunks_tabulate_the_call_intervals_they_use(monkeypatch):
    # a grid-aligned level of 3 unique pairs whose 32 intervals overflow
    # a budget of 10 boxes, so each chunk tabulates its own; the call
    # finds each axis' intervals once, and no chunk sorts its corners
    # again
    model = random_model(21, d=3, m=2)
    lo, hi = _grid_level(np.random.default_rng(22), (4, 3, 3))
    pairs = 3
    monkeypatch.setattr(integration, "_CHUNK_ELEMS", 10 * pairs)
    found = []
    intervals = integration._intervals

    def spy(lo_k, hi_k):
        found.append(lo_k.size)
        return intervals(lo_k, hi_k)

    monkeypatch.setattr(integration, "_intervals", spy)
    acct = IntegralAccounting()
    vals = integrate_boxes(model, lo, hi, acct)
    assert lo.shape[0] > 30 * 10
    assert found == [lo.shape[0]] * 3
    assert vals.tobytes() == integrate_boxes_reference(model, lo, hi).tobytes()
    assert acct.erf_evals == _reference_erf_evals(lo, hi, pairs)


def _cell_level(rng, d, tiny):
    """Each axis' cells and each node's cell on one sampler-like level:
    a box halved a few times per axis, random nodes among its cells,
    and the first axis' cells ending at their split points, as in the
    sampler's left-half call.  On a tiny box, whose sides span a few
    ulps, split points round onto edges and leave zero-width cells."""
    lower = rng.integers(-20, 20, size=d) / 10.0
    if tiny:
        side = np.abs(lower) * 2.0**-52 * rng.integers(1, 9, size=d) + 2.0**-60
    else:
        side = rng.integers(1, 40, size=d) / 10.0
    box = HyperRectangle(lower, lower + side)
    edges = _axis_edges(box, rng.integers(0, d, size=int(rng.integers(0, 3 * d + 4))))
    n = int(rng.integers(1, 60))
    cells = []
    for k, e in enumerate(edges):
        cell_lo, cell_hi = e[:-1], e[1:]
        if k == 0:
            cell_hi = 0.5 * (cell_lo + cell_hi)
        used, inv = np.unique(rng.integers(0, cell_lo.size, size=n), return_inverse=True)
        cells.append((cell_lo[used], cell_hi[used], inv))
    return cells


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
)
def test_cell_tables_and_float_corners_give_the_same_bytes(seed, d, m, tiny, per_chunk):
    model = random_model(seed, d, m)
    cells = _cell_level(np.random.default_rng(seed), d, tiny)
    tables = [integration._cell_intervals(*c) for c in cells]
    lo = np.stack([cell_lo[inv] for cell_lo, _, inv in cells], axis=1)
    hi = np.stack([cell_hi[inv] for _, cell_hi, inv in cells], axis=1)
    for k, table in enumerate(tables):
        # the table the sort finds on the same corners
        want = integration._intervals(lo[:, k], hi[:, k])
        assert table.edges.tobytes() == want.edges.tobytes()
        for got, ref in zip(table[1:], want[1:]):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
    pairs = m * (m + 1) // 2
    with pytest.MonkeyPatch.context() as patch:
        if per_chunk:
            # chunks of three boxes, each tabulating its own intervals
            patch.setattr(integration, "_CHUNK_ELEMS", 3 * pairs)
        acct, ref_acct = IntegralAccounting(), IntegralAccounting()
        vals = integrate_boxes(model, tables, None, acct)
        ref = integrate_boxes(model, lo, hi, ref_acct)
    assert vals.tobytes() == ref.tobytes()
    assert acct == ref_acct


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(4, 12),
    st.integers(1, 3),
    st.booleans(),
)
def test_batches_match_cubature_in_both_regimes(seed, d, m, n_free, chunk_boxes, share):
    # A sampler-like level and free random boxes, shuffled together; all
    # within a few length scales of the centers, where the erf
    # differences keep their relative accuracy.
    model = random_model(seed, d, m)
    rng = np.random.default_rng(seed)
    level_lo, level_hi = _level_batch(rng, d)
    free_lo = rng.uniform(-2.5, 1.0, size=(n_free, d))
    free_hi = free_lo + rng.uniform(0.0, 2.5, size=(n_free, d))
    if share:
        # a free box's lower corner meets a level box's lower corner with
        # another upper corner, so the axes fall back to a box per interval
        free_lo[0] = level_lo[0]
        free_hi[0] = level_lo[0] + rng.uniform(0.1, 2.5, size=d)
    order = rng.permutation(level_lo.shape[0] + n_free)
    lo = np.concatenate((level_lo, free_lo))[order]
    hi = np.concatenate((level_hi, free_hi))[order]
    check = rng.choice(lo.shape[0], size=min(4, lo.shape[0]), replace=False)
    panels = 8 if d < 3 else 4
    oracle = np.array([gl_box_integral(model.evaluate, lo[i], hi[i], panels) for i in check])
    pairs = m * (m + 1) // 2
    acct = IntegralAccounting()
    vals = integrate_boxes(model, lo, hi, acct)
    # these batches' tables fit the default budget: one set for the call
    assert acct.erf_evals == _call_erf_evals(lo, hi, pairs)
    assert np.allclose(vals[check], oracle, rtol=1e-10, atol=1e-13)
    with pytest.MonkeyPatch.context() as patch:
        # chunks of at most three boxes, fewer than the n_free > 3
        # distinct intervals of the first axis: each chunk has its own
        patch.setattr(integration, "_CHUNK_ELEMS", chunk_boxes * pairs)
        acct = IntegralAccounting()
        vals = integrate_boxes(model, lo, hi, acct)
        assert acct.erf_evals == _reference_erf_evals(lo, hi, pairs)
    assert np.allclose(vals[check], oracle, rtol=1e-10, atol=1e-13)


def test_additivity_under_box_split():
    model = random_model(9, d=2, m=4)
    box = HyperRectangle(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    lo, hi = box.lower[None, :], box.upper[None, :]
    left_hi, right_lo = bisect(lo, hi, np.argmax(hi - lo, axis=1))
    left = HyperRectangle(box.lower, left_hi[0])
    right = HyperRectangle(right_lo[0], box.upper)
    whole = integrate(model, box)
    parts = integrate(model, left) + integrate(model, right)
    assert np.isclose(whole, parts, rtol=1e-13)


def test_rank_one_model_integrates_like_its_psd_form():
    rng = np.random.default_rng(10)
    r1 = RankOneModel(
        a=rng.normal(size=3), X=rng.normal(size=(3, 2)), eta=np.array([1.0, 0.6])
    )
    box = HyperRectangle(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
    assert np.isclose(integrate(r1, box), integrate(r1.to_psd(), box), rtol=1e-14)


def test_empty_batch_integrates_to_an_empty_vector():
    acct = IntegralAccounting()
    empty = np.empty((0, 2))
    vals = integrate_boxes(random_model(8, d=2, m=2), empty, empty, acct)
    assert vals.shape == (0,)
    assert acct == IntegralAccounting()


def test_corner_validation():
    model = unit_model()
    with pytest.raises(ValueError):
        integrate_boxes(model, np.array([[0.0]]), np.array([[np.nan]]))
    with pytest.raises(ValueError):
        integrate_boxes(model, np.array([[1.0]]), np.array([[0.0]]))
    # lower corners alone, or a table for each of two axes of a 1-D model
    with pytest.raises(ValueError):
        integrate_boxes(model, np.array([[0.0]]))
    table = integration._intervals(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        integrate_boxes(model, [table, table])


def test_integrate_squared_unit_model_frozen_value():
    # integral of e^{-4x^2} over R = sqrt(pi)/2; wide box captures it
    wide = HyperRectangle(np.array([-40.0]), np.array([40.0]))
    val = integrate_squared(unit_model(), wide)
    assert np.isclose(val, np.sqrt(np.pi) / 2.0, rtol=1e-15)


def test_integrate_squared_keeps_relative_accuracy_in_the_tails():
    # integral of e^{-4x^2} over [3, 4] (and [-4, -3]) is
    # sqrt(pi)/4 (erfc(6) - erfc(8)); erf(6) and erf(8) both round to 1
    exact = np.sqrt(np.pi) / 4.0 * (erfc(6.0) - erfc(8.0))
    for lo, hi in ((3.0, 4.0), (-4.0, -3.0)):
        box = HyperRectangle(np.array([lo]), np.array([hi]))
        assert np.isclose(integrate_squared(unit_model(), box), exact, rtol=1e-12)


def test_integrate_squared_matches_gram_and_cubature():
    model = random_model(11, d=2, m=3)
    box = HyperRectangle(np.array([-2.0, -1.5]), np.array([1.0, 2.0]))
    direct = integrate_squared(model, box)
    G = quartic_gram(model.X, model.eta, box)
    via_gram = float(np.ravel(model.A) @ G @ np.ravel(model.A))
    oracle = gl_box_integral(
        lambda p: model.evaluate(p) ** 2, box.lower, box.upper
    )
    assert np.isclose(direct, via_gram, rtol=1e-12)
    assert np.isclose(direct, oracle, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_pair_gram_matches_quartic_gram_and_cubature(d, m, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=1.1, size=(m, d))
    eta = rng.uniform(0.4, 2.2, size=d)
    lo = rng.uniform(-2.0, 0.0, size=d)
    box = HyperRectangle(lo, lo + rng.uniform(0.5, 2.5, size=d))
    B = rng.normal(size=(m, m))
    A = B + B.T
    iu, ju = np.triu_indices(m)
    a = A[iu, ju] * np.where(iu == ju, 1.0, 2.0)
    via_pairs = a @ pair_gram(X, eta, box) @ a
    via_full = np.ravel(A) @ quartic_gram(X, eta, box) @ np.ravel(A)
    assert np.isclose(via_pairs, via_full, rtol=1e-12, atol=0.0)
    model = GaussianPsdModel(A=B @ B.T, X=X, eta=eta)
    oracle = gl_box_integral(
        lambda p: model.evaluate(p) ** 2, box.lower, box.upper, panels=4
    )
    assert np.isclose(integrate_squared(model, box), oracle, rtol=1e-9, atol=0.0)


def test_quartic_gram_is_symmetric_psd():
    model = random_model(12, d=1, m=4)
    box = HyperRectangle(np.array([-2.0]), np.array([2.0]))
    G = quartic_gram(model.X, model.eta, box)
    assert G.shape == (16, 16)
    assert np.allclose(G, G.T, atol=1e-14)
    assert np.linalg.eigvalsh(G).min() >= -1e-10


def test_pair_cap_raises(monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(40, 1))
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    monkeypatch.setattr(integration, "_PAIR_CAP", 1e4)
    with pytest.raises(ResourceLimitError, match="2.56e\\+06 pair products"):
        quartic_gram(X, np.array([1.0]), box)
    # the squared integral counts unique pairs: (40 * 41 / 2)^2 = 672400
    model = GaussianPsdModel(A=np.eye(40), X=X, eta=np.array([1.0]))
    monkeypatch.setattr(integration, "_PAIR_CAP", 6e5)
    with pytest.raises(ResourceLimitError, match="6.72e\\+05 pair products"):
        integrate_squared(model, box)
    monkeypatch.setattr(integration, "_PAIR_CAP", 6.8e5)
    assert integrate_squared(model, box) > 0.0
