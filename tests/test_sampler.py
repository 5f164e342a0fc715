import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import psdsample
from psdsample import sampler as sampler_module
from psdsample.boxes import HyperRectangle, split_axes
from psdsample.densities import get_density
from psdsample.exceptions import EmptyMassError, UnboundedDomainError
from psdsample.integration import IntegralAccounting, integrate, integrate_boxes
from psdsample.metrics import dyadic_density
from psdsample.models import GaussianPsdModel, RankOneModel
from psdsample.sampler import (
    SamplerParams,
    _binom_ppf,
    _binomial_inversion,
    adaptive_rho,
    find_support,
    integral_budget,
    read_samples_csv,
    sample,
    write_samples_csv,
)

from oracles import gl_box_integral, sample_reference, write_samples_csv_reference


def unit_model():
    return GaussianPsdModel(
        A=np.array([[1.0]]), X=np.array([[0.0]]), eta=np.array([1.0])
    )


def two_center_model():
    return GaussianPsdModel(
        A=np.array([[0.6, -0.2], [-0.2, 0.5]]),
        X=np.array([[-0.8], [0.9]]),
        eta=np.array([2.0]),
    )


def test_halving_counts_examples():
    box = HyperRectangle(np.array([0.0, 0.0]), np.array([1.0, 4.0]))
    axes = split_axes(box, 0.5)
    assert axes.tolist() == [1, 1, 0, 1]
    assert np.bincount(axes, minlength=2).tolist() == [1, 3]
    already = split_axes(HyperRectangle(np.array([0.0]), np.array([0.25])), 0.5)
    assert np.bincount(already, minlength=1).tolist() == [0]


def test_integral_budget_formula():
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    # N max(0, log2 |Q|) + N d log2(2/rho) + 1 with |Q| = 2, rho = 2^-6
    expected = 100 * 1.0 + 100 * 1 * 7.0 + 1.0
    assert integral_budget(box, 2.0**-6, 100) == expected
    small = HyperRectangle(np.array([0.0]), np.array([0.5]))
    assert integral_budget(small, 0.5, 10) == 10 * 0 + 10 * 1 * 2.0 + 1.0


def test_samples_land_in_box_and_are_deterministic():
    model = two_center_model()
    box = HyperRectangle(np.array([-3.0]), np.array([3.0]))
    params = SamplerParams(rho=2.0**-5, n_samples=5000, seed=123)
    run1 = sample(model, box, params)
    run2 = sample(model, box, params)
    assert run1.samples.shape == (5000, 1)
    assert np.array_equal(run1.samples, run2.samples)
    assert box.contains(run1.samples).all()
    assert run1.rho_used == 2.0**-5


def test_different_seeds_differ():
    model = two_center_model()
    box = HyperRectangle(np.array([-3.0]), np.array([3.0]))
    a = sample(model, box, SamplerParams(rho=0.125, n_samples=200, seed=1))
    b = sample(model, box, SamplerParams(rho=0.125, n_samples=200, seed=2))
    assert not np.array_equal(a.samples, b.samples)


def test_zero_samples_costs_one_integral():
    model = unit_model()
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    run = sample(model, box, SamplerParams(rho=0.25, n_samples=0, seed=0))
    assert run.samples.shape == (0, 1)
    assert run.accounting.integral_evals == 1


def test_full_tree_integral_count():
    # every leaf of [-1, 1) at rho = 2^-6 gets samples: 128 leaves,
    # 127 internal nodes, one integral at the root and one per internal
    # node puts the count at exactly 128
    model = two_center_model()
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    run = sample(model, box, SamplerParams(rho=2.0**-6, n_samples=100_000, seed=5))
    assert run.leaf_count == 128
    assert run.accounting.integral_evals == 128
    assert run.accounting.erf_calls == 2 * 1 * 4 * 128
    # in one dimension every box of a call is its own interval, so each
    # integral tabulates one row: two erfs for each of the 3 unique pairs
    assert run.accounting.erf_evals == 2 * 3 * 128


def test_budget_and_erf_accounting_hold_across_random_runs():
    rng = np.random.default_rng(99)
    for trial in range(25):
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        X = rng.normal(size=(m, d))
        B = rng.normal(size=(m, m))
        model = GaussianPsdModel(
            A=B @ B.T, X=X, eta=rng.uniform(0.5, 2.0, size=d)
        )
        lo = rng.uniform(-3, -1, size=d)
        hi = lo + rng.uniform(1.0, 4.0, size=d)
        box = HyperRectangle(lo, hi)
        rho = float(rng.choice([0.5, 0.25, 0.125, 0.0625]))
        n = int(rng.integers(1, 2000))
        run = sample(model, box, SamplerParams(rho=rho, n_samples=n, seed=trial))
        budget = integral_budget(box, rho, n)
        assert run.accounting.integral_evals <= budget
        assert run.accounting.erf_calls == 2 * d * m * m * run.accounting.integral_evals
        assert box.contains(run.samples).all()


def test_output_order_is_permuted_not_tree_order():
    model = unit_model()
    box = HyperRectangle(np.array([-2.0]), np.array([2.0]))
    run = sample(model, box, SamplerParams(rho=0.125, n_samples=4000, seed=11))
    x = run.samples[:, 0]
    # tree-order output would be monotone across leaves; a random
    # permutation makes adjacent-pair increases hit about half
    increases = np.mean(np.diff(x) > 0)
    assert 0.4 < increases < 0.6


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 3),
    dyadic=st.booleans(),
    n=st.integers(0, 500),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=1, m=1, dyadic=True, n=0, seed=0)
@example(d=2, m=2, dyadic=False, n=1, seed=1)
def test_walk_draws_the_reference_loops_points(d, m, dyadic, n, seed):
    rng = np.random.default_rng(seed)
    if dyadic:
        lo = rng.integers(-12, 1, size=d) / 4
        hi = lo + 2.0 ** rng.integers(-1, 3, size=d)
    else:
        lo = np.round(rng.uniform(-3.0, 0.0, size=d), 1)
        hi = np.round(lo + rng.uniform(0.5, 3.0, size=d), 1)
    box = HyperRectangle(lo, hi)
    B = rng.normal(size=(m, m))
    model = GaussianPsdModel(
        A=B @ B.T,
        X=rng.uniform(lo - 0.5, hi + 0.5, size=(m, d)),
        eta=rng.uniform(0.5, 2.0, size=d),
    )
    rho = float(rng.choice([0.5, 0.25, 0.3, 0.125]))
    params = SamplerParams(rho=rho, n_samples=n, seed=seed)
    run = sample(model, box, params)
    ref = sample_reference(model, box, params)

    def rows_sorted(x):
        return x[np.lexsort(x.T[::-1])]

    assert run.samples.shape == (n, d)
    assert np.array_equal(rows_sorted(run.samples), rows_sorted(ref.samples))
    assert run.accounting.integral_evals == ref.accounting.integral_evals
    assert run.accounting.erf_calls == ref.accounting.erf_calls
    assert run.leaf_count == ref.leaf_count


def _small_model_and_box(rng, d, m, dyadic):
    if dyadic:
        lo = rng.integers(-12, 1, size=d) / 4
        hi = lo + 2.0 ** rng.integers(-1, 3, size=d)
    else:
        lo = np.round(rng.uniform(-3.0, 0.0, size=d), 1)
        hi = np.round(lo + rng.uniform(0.5, 3.0, size=d), 1)
    B = rng.normal(size=(m, m))
    model = GaussianPsdModel(
        A=B @ B.T,
        X=rng.uniform(lo - 0.5, hi + 0.5, size=(m, d)),
        eta=rng.uniform(0.5, 2.0, size=d),
    )
    return model, HyperRectangle(lo, hi)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 3),
    dyadic=st.booleans(),
    n=st.integers(0, 500),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=3, m=1, dyadic=False, n=0, seed=0)
def test_draws_fill_positive_mass_leaves_of_the_box(d, m, dyadic, n, seed):
    rng = np.random.default_rng(seed)
    model, box = _small_model_and_box(rng, d, m, dyadic)
    rho = float(rng.choice([0.5, 0.25, 0.3, 0.125]))
    run = sample(model, box, SamplerParams(rho=rho, n_samples=n, seed=seed))
    assert run.samples.shape == (n, d)
    assert box.contains(run.samples).all()
    # each draw's cell of the split_axes grid, with every cell's mass
    leaves = dyadic_density(model, box, rho)
    leaf, inside = leaves._leaf_of(run.samples)
    assert inside.all()
    counted, counts = np.unique(leaf, return_counts=True)
    assert counts.sum() == n
    assert counted.size == run.leaf_count
    assert np.all(leaves.masses[counted] > 0.0)


def test_a_zero_mass_half_gets_no_draws(monkeypatch):
    # the binomial quantile at u = 0 is 0 even when q = 1, which would
    # send every draw into a right half of zero computed mass
    class ZeroUniforms:
        def random(self, size):
            return np.zeros(size)

        def permutation(self, n):
            return np.arange(n)

    monkeypatch.setattr(sampler_module, "rng_from_seed", lambda seed: ZeroUniforms())
    model = unit_model()
    right = HyperRectangle(np.array([20.0]), np.array([40.0]))
    assert integrate(model, right) == 0.0
    box = HyperRectangle(np.array([0.0]), np.array([40.0]))
    run = sample(model, box, SamplerParams(rho=20.0, n_samples=5, seed=0))
    assert np.all((run.samples >= 0.0) & (run.samples < 20.0))


def _assert_the_reference_walk(model, box, params):
    run = sample(model, box, params)
    ref = sample_reference(model, box, params)
    order = np.lexsort(run.samples.T[::-1])
    ref_order = np.lexsort(ref.samples.T[::-1])
    assert run.samples[order].tobytes() == ref.samples[ref_order].tobytes()
    assert run.accounting == ref.accounting
    assert run.leaf_count == ref.leaf_count
    return run


@pytest.mark.parametrize(
    "box,rho,n",
    [
        # a side of 16 ulps, halved 22 times
        (HyperRectangle(np.array([1.0]), np.array([1.0 + 2.0**-48])), 2.0**-70, 1000),
        # a side of a few ulps below 2^-60, halved 51 times, next to one
        # halved 50 times
        (HyperRectangle(np.array([0.0, 0.0]), np.array([2e-3 + 2.0**-40, 1e-3])), 2.0**-60, 300),
    ],
)
def test_split_points_that_round_onto_an_edge_walk_as_the_reference(box, rho, n):
    # past the spacing of floats a split point rounds onto an edge of
    # its cell; the cell tables count such an edge once, as the sort of
    # the reference's float corners does
    X = np.linspace(box.lower, box.upper, 2)
    model = GaussianPsdModel(A=np.array([[0.6, -0.2], [-0.2, 0.5]]), X=X, eta=np.full(box.dim, 2.0))
    _assert_the_reference_walk(model, box, SamplerParams(rho=rho, n_samples=n, seed=7))


def test_a_deep_walk_keeps_its_tables_within_the_cells_present(monkeypatch):
    # 41 levels on [-1, 1]: a dense table of the leaf grid would hold
    # 2^41 edges, the cells present at most two per node
    calls = []

    def spy(model, tables, uppers, acct):
        assert uppers is None
        calls.append(max(t.edges.size - 2 * t.inv.size for t in tables))
        return integrate_boxes(model, tables, uppers, acct)

    monkeypatch.setattr(sampler_module, "integrate_boxes", spy)
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    params = SamplerParams(rho=2.0**-40, n_samples=1000, seed=8)
    run = _assert_the_reference_walk(two_center_model(), box, params)
    assert len(calls) == split_axes(box, params.rho).size == 41
    assert max(calls) <= 0
    assert run.leaf_count == 1000


def test_sample_moments_match_cubature():
    model = two_center_model()
    box = HyperRectangle(np.array([-3.0]), np.array([3.0]))
    run = sample(model, box, SamplerParams(rho=2.0**-7, n_samples=200_000, seed=21))
    mass = integrate(model, box)
    mean_exact = gl_box_integral(
        lambda p: p[:, 0] * model.evaluate(p), box.lower, box.upper
    ) / mass
    var_exact = gl_box_integral(
        lambda p: p[:, 0] ** 2 * model.evaluate(p), box.lower, box.upper
    ) / mass - mean_exact**2
    assert abs(run.samples.mean() - mean_exact) < 0.01
    assert abs(run.samples.var() - var_exact) < 0.01


def test_empty_mass_raises():
    # center far outside the box: mass underflows to exactly zero
    model = GaussianPsdModel(
        A=np.array([[1.0]]), X=np.array([[100.0]]), eta=np.array([5.0])
    )
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(EmptyMassError):
        sample(model, box, SamplerParams(rho=0.5, n_samples=10, seed=0))


def test_unbounded_box_raises():
    with pytest.raises(UnboundedDomainError):
        sample(
            unit_model(),
            HyperRectangle.whole_space(1),
            SamplerParams(rho=0.5, n_samples=10, seed=0),
        )


def test_params_validation():
    with pytest.raises(ValueError):
        SamplerParams(rho=0.0, n_samples=1, seed=0)
    with pytest.raises(ValueError):
        SamplerParams(rho=0.5, n_samples=-1, seed=0)
    with pytest.raises(ValueError):
        SamplerParams(rho=0.5, n_samples=1, seed=-1)


def test_adaptive_rho_hellinger_hand_formula():
    # rank-one a=(1) at center 0, tau=1, Q=[-1,1):
    # rho = sqrt(I) * eps / (sqrt(|Q|) * sqrt(2) * d * ||K^{1/2} a||)
    #     = sqrt(I) * eps / 2 with I the model mass on Q
    r1 = RankOneModel(a=np.array([1.0]), X=np.array([[0.0]]), eta=np.array([1.0]))
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    eps = 0.05
    I = integrate(r1.to_psd(), box)
    expected = np.sqrt(I) * eps / 2.0
    assert np.isclose(adaptive_rho(r1, box, eps, metric="hellinger"), expected, rtol=1e-12)


def test_adaptive_rho_tv_hand_formula():
    # tv: rho = I * eps / (|Q| * lip_f), lip_f = sqrt(8 tau) d ||K^{1/2} A K^{1/2}||
    model = unit_model()
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    eps = 0.1
    I = integrate(model, box)
    lip = np.sqrt(8.0)
    assert np.isclose(
        adaptive_rho(model, box, eps, metric="tv"), I * eps / (2.0 * lip), rtol=1e-12
    )


def test_adaptive_rho_rejects_unknown_metric():
    box = HyperRectangle(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        adaptive_rho(unit_model(), box, 0.1, metric="w2")


def test_find_support_single_center():
    model = unit_model()
    box = find_support(model, eps_mass=1e-6)
    c = 2.0 * np.sqrt(2.0)
    assert np.allclose(box.lower, [-c]) and np.allclose(box.upper, [c])
    whole = HyperRectangle.whole_space(1)
    assert integrate(model, box) / integrate(model, whole) >= 1 - 1e-6


def test_find_support_accounts_integrals():
    acct = IntegralAccounting()
    find_support(unit_model(), eps_mass=1e-6, acct=acct)
    assert acct.integral_evals >= 2  # whole space plus at least one box


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(17, 3))
    path = tmp_path / "samples.csv"
    write_samples_csv(pts, path)
    back = read_samples_csv(path)
    assert np.array_equal(back, pts)


def test_csv_single_row_keeps_2d_shape(tmp_path):
    path = tmp_path / "one.csv"
    write_samples_csv(np.array([[1.5, -2.25]]), path)
    back = read_samples_csv(path)
    assert back.shape == (1, 2)


_CSV_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e-310, 1e300, -1e300, 1e-300, -1e-300]),
)


@st.composite
def _csv_samples(draw):
    rows, d = draw(st.integers(0, 9)), draw(st.integers(0, 4))
    flat = draw(st.lists(_CSV_VALUES, min_size=rows * d, max_size=rows * d))
    return np.array(flat, dtype=float).reshape(rows, d)


@settings(max_examples=80, deadline=None)
@given(samples=_csv_samples(), block_rows=st.sampled_from([1, 3, 4096]))
@example(samples=np.atleast_2d([]), block_rows=4096)
@example(samples=np.empty((0, 3)), block_rows=4096)
@example(samples=np.array([[-0.0], [5e-324], [1e300]]), block_rows=2)
def test_csv_writer_matches_the_row_writer(tmp_path_factory, samples, block_rows):
    # each block is formatted from one template; the bytes must match the
    # row-by-row join of reprs, for empty and one-column shapes and for
    # blocks that split the rows
    tmp = tmp_path_factory.mktemp("csv")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler_module, "_CSV_BLOCK_ROWS", block_rows)
        write_samples_csv(samples, tmp / "block.csv")
    write_samples_csv_reference(samples, tmp / "row.csv")
    assert (tmp / "block.csv").read_bytes() == (tmp / "row.csv").read_bytes()
    if samples.shape == (1, 0):
        assert (tmp / "block.csv").read_bytes() == b"\n"


def test_binomial_inversion_matches_scipy_stats_binom_ppf():
    # the sampler calls binom.ppf's private ufunc; pin it to the public
    # quantile, with q in {0, 1, 1e-300}, u = 0 and n up to 1e6 included
    rng = np.random.default_rng(5)
    size = 200_000
    n = rng.integers(0, 10 ** rng.integers(1, 7, size))
    q = rng.random(size) ** rng.integers(1, 20, size)
    q[:3000] = rng.choice([0.0, 1.0, 1e-300], 3000)
    u = np.random.default_rng(6).random(size)
    expected = np.clip(binom.ppf(u, n, q), 0, n).astype(np.int64)
    got = _binomial_inversion(np.random.default_rng(6), n, q)
    assert np.array_equal(got, expected)
    zero = np.zeros(size)
    assert np.array_equal(
        np.clip(_binom_ppf(zero, n, q), 0, n), np.clip(binom.ppf(zero, n, q), 0, n)
    )


def test_binomial_quantile_is_exact_where_the_kernel_bracketing_fails():
    # binom.ppf's kernel warns on each of these and answers 1, 2, 2, 90 and
    # 95; the expected quantiles were computed in 80-digit arithmetic
    u = np.array([
        0.9999999999999971, 0.9999999999999918, 0.9999999999999432,
        2.8735737942759542e-120, 5.670332155247923e-127,
    ])
    n = np.array([39, 220, 1580, 101, 105])
    q = np.array([
        6.812833647063242e-17, 5.479837800895158e-15, 3.948350977340122e-11,
        0.9999999999993384, 0.9999999999999994,
    ])
    assert np.array_equal(_binom_ppf(u, n, q), [0, 1, 1, 91, 96])
    assert np.array_equal(_binomial_inversion(_GivenUniforms(u), n, q), [0, 1, 1, 91, 96])


class _GivenUniforms:
    """Stands in for the generator: ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    regime=st.sampled_from(["uniform", "log", "log-complement", "dyadic"]),
)
def test_bernoulli_splits_match_the_binomial_quantile(seed, regime):
    # n = 1 nodes take k = (u > 1 - q) outside a band where the comparison
    # and _binom_ppf may round apart; place u in and around that band
    rng = np.random.default_rng(seed)
    size = 4000
    if regime == "uniform":
        q = rng.random(size)
    elif regime == "log":
        q = 10.0 ** rng.uniform(-300.0, 0.0, size)
    elif regime == "log-complement":
        q = 1.0 - 10.0 ** rng.uniform(-16.0, 0.0, size)
    else:
        scale = 2.0 ** rng.integers(0, 31, size)
        q = np.floor(rng.random(size) * (scale + 1)) / scale  # 0 and 1 included
    p = 1.0 - q
    # +-k ulps of 1 - q (k = 0..64, kept at 0 and above), within 1e-10
    # of 1, or anywhere; random() never returns 1
    at_p = np.maximum(p.view(np.int64) + rng.integers(-64, 65, size), 0).view(np.float64)
    near_one = 1.0 - 1e-10 * rng.random(size)
    where = rng.integers(0, 3, size)
    u = np.select([where == 0, where == 1], [at_p, near_one], rng.random(size))
    u = np.minimum(u, np.nextafter(1.0, 0.0))
    n = np.where(rng.random(size) < 0.7, 1, rng.integers(0, 40, size))
    got = _binomial_inversion(_GivenUniforms(u), n, q)
    expected = np.clip(_binom_ppf(u, n, q), 0, n).astype(np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


def test_count_one_splits_skip_the_binomial_quantile(monkeypatch):
    seen = {"nodes": 0, "not_one": 0, "quantiles": 0, "band": 0}
    inversion = sampler_module._binomial_inversion

    def counting_inversion(rng, n, q):
        seen["nodes"] += n.size
        seen["not_one"] += int(np.count_nonzero(n != 1))
        return inversion(rng, n, q)

    def counting_ppf(u, n, q):
        # count-one entries in the band where the comparison and the
        # quantile may round apart are the only ones allowed beside n != 1
        p = 1.0 - q
        band = (n == 1) & (np.abs(u - p) <= 1e-14 * p)
        seen["quantiles"] += u.size
        seen["band"] += int(np.count_nonzero(band))
        return _binom_ppf(u, n, q)

    monkeypatch.setattr(sampler_module, "_binomial_inversion", counting_inversion)
    monkeypatch.setattr(sampler_module, "_binom_ppf", counting_ppf)
    target = get_density("squared-diff-5d")
    run = sample(
        target.exact_model, target.domain,
        SamplerParams(rho=2.0**-4, n_samples=20_000, seed=3),
    )
    # one binomial draw per internal node, one integral per node and the root
    assert seen["nodes"] == run.accounting.integral_evals - 1
    assert seen["not_one"] < seen["nodes"] / 4
    assert seen["quantiles"] <= seen["not_one"] + seen["band"]


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    src = str(Path(psdsample.__file__).resolve().parents[1])
    code = "import sys, psdsample.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
