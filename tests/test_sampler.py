import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

import psdsample
from psdsample.boxes import HyperRectangle, split_axes
from psdsample.exceptions import EmptyMassError, UnboundedDomainError
from psdsample.integration import IntegralAccounting, integrate, integrate_boxes
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

from oracles import gl_box_integral


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


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    src = str(Path(psdsample.__file__).resolve().parents[1])
    code = "import sys, psdsample.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
