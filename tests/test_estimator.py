import warnings

import numpy as np
import pytest

from psdsample import estimator
from psdsample.boxes import HyperRectangle
from psdsample.densities import get_density
from psdsample.estimator import (
    EvaluationOracle,
    FitConfig,
    fit_psd,
    fit_rank_one,
    fit_rank_one_holdout,
    theoretical_parameters,
)
from psdsample.exceptions import ConvergenceWarning
from psdsample.integration import integrate_squared
from psdsample.kernels import kernel_matrix
from psdsample.models import GaussianPsdModel, RankOneModel


def unit_box(d=1, half=2.0):
    return HyperRectangle(np.full(d, -half), np.full(d, half))


def linear_model_oracle(a, X, tau, domain):
    r1 = RankOneModel(a=a, X=X, eta=np.full(domain.dim, tau))
    return r1, EvaluationOracle(r1.linear_evaluate, domain, kind="linear")


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(n=2, m=3, tau=1.0, lam=1e-6, seed=0)  # n < m
    with pytest.raises(ValueError):
        FitConfig(n=5, m=2, tau=0.0, lam=1e-6, seed=0)
    with pytest.raises(ValueError):
        FitConfig(n=5, m=2, tau=1.0, lam=-1e-3, seed=0)


def test_config_dict_round_trip():
    cfg = FitConfig(n=100, m=10, tau=0.5, lam=1e-7, seed=3)
    assert FitConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.to_dict()["lambda"] == 1e-7


def test_oracle_rejects_negative_values_in_nonnegative_mode():
    domain = unit_box()
    oracle = EvaluationOracle(lambda p: p[:, 0], domain, kind="nonnegative")
    with pytest.raises(ValueError):
        oracle(np.array([[-0.5]]))
    # linear mode accepts signed values
    signed = EvaluationOracle(lambda p: p[:, 0], domain, kind="linear")
    assert signed(np.array([[-0.5]]))[0] == -0.5


def test_zero_oracle_gives_zero_coefficients():
    domain = unit_box()
    oracle = EvaluationOracle(lambda p: np.zeros(p.shape[0]), domain, kind="linear")
    model, report = fit_rank_one(oracle, FitConfig(n=50, m=5, tau=1.0, lam=1e-6, seed=0))
    assert np.array_equal(model.a, np.zeros(5))
    assert report.residual == 0.0


def test_planted_rank_one_recovery():
    # target in the span of the centers, tiny lambda: near-exact recovery
    rng = np.random.default_rng(0)
    domain = unit_box()
    X_m = rng.uniform(-2, 2, size=(6, 1))
    a_true = rng.normal(size=6)
    truth, oracle = linear_model_oracle(a_true, X_m, tau=1.0, domain=domain)
    cfg = FitConfig(n=4000, m=6, tau=1.0, lam=1e-12, seed=1)
    model, _ = fit_rank_one(oracle, cfg, centers=X_m)
    fresh = rng.uniform(-2, 2, size=(1000, 1))
    rmse = np.sqrt(np.mean((model.linear_evaluate(fresh) - truth.linear_evaluate(fresh)) ** 2))
    assert rmse <= 1e-6


def test_fit_scales_linearly_with_oracle():
    rng = np.random.default_rng(2)
    domain = unit_box()
    X_m = rng.uniform(-2, 2, size=(5, 1))
    a_true = rng.normal(size=5)
    _, oracle = linear_model_oracle(a_true, X_m, tau=0.8, domain=domain)
    cfg = FitConfig(n=500, m=5, tau=0.8, lam=1e-8, seed=7)
    base, _ = fit_rank_one(oracle, cfg)
    scaled_oracle = EvaluationOracle(
        lambda p: 3.5 * oracle.fn(p), domain, kind="linear"
    )
    scaled, _ = fit_rank_one(scaled_oracle, cfg)
    assert np.allclose(scaled.a, 3.5 * base.a, rtol=1e-8)


def test_k_norm_monotone_in_lambda():
    rng = np.random.default_rng(3)
    domain = unit_box()
    X_m = rng.uniform(-2, 2, size=(8, 1))
    a_true = rng.normal(size=8)
    _, oracle = linear_model_oracle(a_true, X_m, tau=1.2, domain=domain)
    norms = []
    for lam in (1e-9, 1e-6, 1e-3, 1e-1):
        cfg = FitConfig(n=300, m=8, tau=1.2, lam=lam, seed=11)
        model, _ = fit_rank_one(oracle, cfg)
        K = kernel_matrix(model.eta, model.X)
        norms.append(float(np.sqrt(model.a @ K @ model.a)))
    assert all(n1 >= n2 - 1e-12 for n1, n2 in zip(norms, norms[1:]))


def test_signed_mixture_fit_reaches_small_hellinger():
    # three-bump 2D target, n=1e5 evaluations, 300 centers
    p1 = get_density("signed-mixture-2d")
    cfg = FitConfig(n=100_000, m=300, tau=2.0, lam=1e-9, seed=42)
    model, report = fit_rank_one(p1.oracle("linear"), cfg)
    assert report.residual <= 1e-8 * report.rhs_norm
    g = np.linspace(-3, 3, 121)
    step = g[1] - g[0]
    mid = g[:-1] + step / 2
    xx, yy = np.meshgrid(mid, mid, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    f_true = p1.pdf(pts)
    f_fit = model.evaluate(pts)
    p_true = f_true / (f_true.sum() * step**2)
    p_fit = f_fit / (f_fit.sum() * step**2)
    h = np.sqrt(0.5 * np.sum((np.sqrt(p_fit) - np.sqrt(p_true)) ** 2) * step**2)
    assert h <= 0.05


def test_holdout_selects_true_precision_and_reports_grid():
    rng = np.random.default_rng(4)
    domain = unit_box()
    X_m = rng.uniform(-2, 2, size=(10, 1))
    a_true = rng.normal(size=10)
    _, oracle = linear_model_oracle(a_true, X_m, tau=0.5, domain=domain)
    cfg = FitConfig(n=2000, m=10, tau=0.5, lam=1e-9, seed=5)
    taus = [0.1, 0.5, 2.0]
    lams = [1e-9, 1e-4]
    model, report = fit_rank_one_holdout(oracle, cfg, taus, lams)
    assert len(report.holdout) == len(taus) * len(lams)
    scored = [row for row in report.holdout if row["score"] is not None]
    best_row = min(scored, key=lambda row: row["score"])
    assert report.config["tau"] == best_row["tau"]
    assert report.config["lambda"] == best_row["lambda"]
    assert model.eta[0] == best_row["tau"]
    # the candidate matching the target's own precision wins
    assert best_row["tau"] == 0.5


def test_holdout_evaluates_the_oracle_once_per_design_point():
    rng = np.random.default_rng(7)
    X_m = rng.uniform(-2, 2, size=(8, 1))
    r1 = RankOneModel(a=rng.normal(size=8), X=X_m, eta=np.array([0.5]))
    evaluated = []

    def counted(points):
        evaluated.append(len(points))
        return r1.linear_evaluate(points)

    oracle = EvaluationOracle(counted, unit_box(), kind="linear")
    cfg = FitConfig(n=400, m=8, tau=0.5, lam=1e-9, seed=9)
    model, report = fit_rank_one_holdout(oracle, cfg, [0.1, 0.5], [1e-9, 1e-4])
    assert sum(evaluated) == cfg.n
    chosen = FitConfig(
        n=cfg.n, m=cfg.m, tau=report.config["tau"], lam=report.config["lambda"], seed=cfg.seed
    )
    refit, refit_report = fit_rank_one(oracle, chosen)
    assert np.array_equal(model.a, refit.a)
    assert np.array_equal(model.X, refit.X)
    assert np.array_equal(model.eta, refit.eta)
    assert report.residual == refit_report.residual


def test_holdout_needs_room_for_centers():
    domain = unit_box()
    oracle = EvaluationOracle(lambda p: p[:, 0], domain, kind="linear")
    cfg = FitConfig(n=10, m=8, tau=1.0, lam=1e-6, seed=0)
    with pytest.raises(ValueError):
        fit_rank_one_holdout(oracle, cfg, [1.0], [1e-6])


@pytest.mark.filterwarnings("ignore::psdsample.exceptions.ConvergenceWarning")
def test_psd_fit_objective_descends_monotonically():
    rng = np.random.default_rng(6)
    domain = unit_box()
    X_m = rng.uniform(-1.5, 1.5, size=(4, 1))
    B = rng.normal(size=(4, 4))
    truth = GaussianPsdModel(A=B @ B.T, X=X_m, eta=np.array([1.0]))
    oracle = EvaluationOracle(truth.evaluate, domain, kind="nonnegative")
    cfg = FitConfig(n=600, m=4, tau=1.0, lam=1e-6, seed=9)
    model, report = fit_psd(oracle, cfg)
    trace = report.objective_trace
    assert len(trace) >= 1
    assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
    assert np.linalg.eigvalsh(model.A).min() >= -1e-9 * max(np.abs(model.A).max(), 1)


@pytest.mark.filterwarnings("ignore::psdsample.exceptions.ConvergenceWarning")
def test_psd_fit_never_ends_above_the_zero_matrix():
    # the warm start here comes from an ill-conditioned solve (objective
    # above 1e17), and the descent from it stalls far above 0, the
    # objective at A = 0
    oracle = get_density("double-well-1d").oracle("nonnegative")
    cfg = FitConfig(n=4000, m=20, tau=1.0, lam=1e-4, seed=4)
    _, report = fit_psd(oracle, cfg)
    trace = report.objective_trace
    assert trace[-1] <= 0.0
    assert all(a >= b for a, b in zip(trace, trace[1:]))


@pytest.mark.filterwarnings("ignore::psdsample.exceptions.ConvergenceWarning")
def test_psd_fit_starts_from_zero_when_the_warm_start_is_worse():
    # one descent from A = 0, not a hidden restart after a stalled one;
    # -657621 is where a backtracking descent restarted from A = 0 ends
    # after 2000 iterations
    oracle = get_density("double-well-1d").oracle("nonnegative")
    cfg = FitConfig(n=4000, m=20, tau=1.0, lam=1e-4, seed=4)
    _, report = fit_psd(oracle, cfg)
    trace = report.objective_trace
    assert report.start == "zero"
    assert trace[0] == 0.0
    assert all(a >= b for a, b in zip(trace, trace[1:]))
    assert trace[-1] <= -657621.0
    doc = report.to_dict()
    assert doc["start"] == "zero"
    assert doc["gradient_mapping"] == report.gradient_mapping > 0.0


def test_psd_fit_recovers_planted_model_on_grid():
    # same centers, dense midpoint design, tiny lambda: the fitted model
    # matches the planted one after normalization
    rng = np.random.default_rng(8)
    domain = unit_box()
    X_m = rng.uniform(-1.5, 1.5, size=(3, 1))
    B = rng.normal(size=(3, 3))
    truth = GaussianPsdModel(A=B @ B.T, X=X_m, eta=np.array([1.0]))
    oracle = EvaluationOracle(truth.evaluate, domain, kind="nonnegative")
    design = np.linspace(-2, 2, 2049)[:-1][:, None] + 1.0 / 1024
    cfg = FitConfig(n=design.shape[0], m=3, tau=1.0, lam=1e-10, seed=10)
    model, _ = fit_psd(oracle, cfg, centers=X_m, design_points=design)
    grid = np.linspace(-2, 2, 501)[:, None]
    f_true = truth.evaluate(grid)
    f_fit = model.evaluate(grid)
    f_true /= f_true.mean()
    f_fit /= f_fit.mean()
    rmse = np.sqrt(np.mean((f_fit - f_true) ** 2))
    assert rmse <= 1e-4


def test_psd_fit_zero_oracle_gives_zero_matrix():
    domain = unit_box()
    oracle = EvaluationOracle(
        lambda p: np.zeros(p.shape[0]), domain, kind="nonnegative"
    )
    model, _ = fit_psd(oracle, FitConfig(n=60, m=3, tau=1.0, lam=1e-6, seed=0))
    assert np.allclose(model.A, 0.0, atol=1e-12)


def test_psd_fit_warns_when_iteration_budget_exhausted():
    # clamped target is not realizable, so one step cannot converge
    p1 = get_density("signed-mixture-2d")
    cfg = FitConfig(n=200, m=4, tau=1.0, lam=1e-6, seed=13)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, report = fit_psd(p1.oracle("nonnegative"), cfg, max_iters=1)
    assert any(issubclass(w.category, ConvergenceWarning) for w in caught)
    assert report.converged is False


def test_psd_fit_converges_on_the_benchmark_fit():
    # the psd-fit-2d workload's fit; in the coordinates of A it ran to
    # the 2000-iteration cap and ended at -98.000037
    oracle = get_density("signed-mixture-2d").oracle("nonnegative")
    cfg = FitConfig(n=4000, m=40, tau=1.0, lam=0.1, seed=0)
    _, report = fit_psd(oracle, cfg)
    assert report.converged
    assert report.iterations <= 1000
    assert report.gradient_mapping <= estimator._GRAD_TOL
    assert report.objective_trace[-1] <= -98.2443


# (density, m, tau, lambda, seed, final objective of the fit in the
# coordinates of A); the last case is one where a floor that scaled the
# eigenvectors below the roundoff level like those at the floor drove
# the reported objective to -1.3e8 against a true +3e5
_FIT_CASES = [
    ("signed-mixture-2d", 40, 0.5, 1e-4, 0, -164.264230),
    ("double-well-1d", 40, 1.0, 1e-4, 4, -662682.2679),
    ("double-well-1d", 20, 1.0, 1e-4, 4, -662656.4679),
    ("double-well-1d", 20, 1.0, 0.1, 4, -578012.7653),
]


def _fit_case(name, m, tau, lam, seed):
    oracle = get_density(name).oracle("nonnegative")
    return oracle, FitConfig(n=4000, m=m, tau=tau, lam=lam, seed=seed)


@pytest.mark.filterwarnings("ignore::psdsample.exceptions.ConvergenceWarning")
@pytest.mark.parametrize("name, m, tau, lam, seed, before", _FIT_CASES)
def test_psd_fit_objective_trace_is_the_objective_of_the_fitted_matrix(
    name, m, tau, lam, seed, before
):
    # recomputed in the coordinates of A from the returned model; the
    # tolerance is that of this float64 recomputation, whose sum over the
    # pair Gram cancels: on the first case it read 0.7e-8 to 2.6e-8 off
    # the trace, which itself matched an extended-precision evaluation
    oracle, cfg = _fit_case(name, m, tau, lam, seed)
    model, report = fit_psd(oracle, cfg)
    X_n, X_m = estimator._draw_design(oracle, cfg, None, None)
    f_n = oracle(X_n)
    K = kernel_matrix(model.eta, X_m)
    A = model.A
    objective = (
        integrate_squared(model, oracle.domain)
        - 2.0 * float(f_n @ model.evaluate(X_n))
        + lam * float(np.trace(K @ A @ K @ A))
    )
    assert abs(report.objective_trace[-1] - objective) <= 1e-7 * abs(objective)
    assert objective <= before


@pytest.mark.parametrize(
    "name, m, tau, lam, seed",
    [case[:5] for case in _FIT_CASES[:3]] + [("signed-mixture-2d", 40, 1.0, 0.1, 0)],
)
def test_step_bounds_the_top_eigenvalue_of_the_whitened_operator(name, m, tau, lam, seed):
    # whitened pair Hessians have signed entries, so the power iteration's
    # start is not known to overlap the top eigenvector; 1/L must stay a
    # safe step all the same
    oracle, cfg = _fit_case(name, m, tau, lam, seed)
    X_n, X_m = estimator._draw_design(oracle, cfg, None, None)
    eta = np.full(oracle.domain.dim, tau)
    _, H, _ = estimator._whitened_quadratic(X_n, oracle(X_n), X_m, eta, oracle.domain, lam)
    iu, ju = np.triu_indices(m)
    mult = np.where(iu == ju, 1.0, 2.0)
    top = np.linalg.eigvalsh(np.sqrt(mult)[:, None] * H * np.sqrt(mult)[None, :])[-1]
    assert estimator._top_eigenvalue(lambda a: H @ (mult * a), mult) >= top


@pytest.mark.parametrize("lam", [1e-3, 0.0])
def test_psd_fit_with_a_singular_kernel_matrix(lam):
    # a repeated center makes K_mm exactly singular; at lambda = 0 the
    # whitening is a scaled identity
    oracle = get_density("double-well-1d").oracle("nonnegative")
    rng = np.random.default_rng(3)
    X_m = rng.uniform(oracle.domain.lower, oracle.domain.upper, size=(6, 1))
    X_m[5] = X_m[2]
    assert np.linalg.matrix_rank(kernel_matrix(np.ones(1), X_m)) < 6
    cfg = FitConfig(n=400, m=6, tau=1.0, lam=lam, seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model, report = fit_psd(oracle, cfg, centers=X_m)
    assert all(issubclass(w.category, ConvergenceWarning) for w in caught)
    assert np.all(np.isfinite(model.A))
    assert np.linalg.eigvalsh(model.A).min() >= -1e-9 * max(np.abs(model.A).max(), 1.0)
    trace = report.objective_trace
    assert all(a >= b for a, b in zip(trace, trace[1:]))
    assert trace[-1] <= 0.0


def test_psd_fit_requires_nonnegative_oracle():
    domain = unit_box()
    oracle = EvaluationOracle(lambda p: p[:, 0], domain, kind="linear")
    with pytest.raises(ValueError):
        fit_psd(oracle, FitConfig(n=50, m=3, tau=1.0, lam=1e-6, seed=0))


def test_theoretical_parameters_frozen_examples():
    tv = theoretical_parameters(0.1, d=1, beta=1, mode="tv")
    assert np.isclose(tv.lam, 1e-4) and np.isclose(tv.tau, 100.0)
    hel = theoretical_parameters(0.1, d=2, beta=2, mode="hellinger")
    assert np.isclose(hel.lam, 1e-3) and np.isclose(hel.tau, 10.0)
    for mode in ("tv", "hellinger"):
        unit = theoretical_parameters(1.0, d=3, beta=2, mode=mode)
        assert unit.lam == 1.0 and unit.tau == 1.0


def test_theoretical_parameters_validation_and_dict():
    with pytest.raises(ValueError):
        theoretical_parameters(0.0, d=1, beta=1)
    with pytest.raises(ValueError):
        theoretical_parameters(0.1, d=1, beta=0)
    sched = theoretical_parameters(0.1, d=1, beta=1, mode="tv")
    doc = sched.to_dict()
    assert doc["mode"] == "tv" and doc["lambda"] == sched.lam
