"""Each benchmark check passes on correct input and fails on a wrong one.

Run with ``PYTHONPATH=src python -m pytest -q bench``.  The references
in checks.py are also compared with the package's closed forms, so a
mistake in a reference shows here rather than as a benchmark failure.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402
from psdsample import (  # noqa: E402
    GaussianPsdModel,
    HyperRectangle,
    SamplerParams,
    empirical_mmd,
    get_density,
    integrate,
    integrate_boxes,
    sample,
)

ETA = 0.2
D = 5
LO = np.full(D, -1.0)
HI = np.full(D, 1.0)


@pytest.fixture(scope="module")
def exact_draws():
    return checks.rejection_draws(np.random.default_rng(0), 20_000, D, ETA)


def test_written_out_target_matches_package():
    x = np.random.default_rng(1).uniform(-1, 1, size=(500, D))
    want = get_density("squared-diff-5d").pdf(x)
    np.testing.assert_allclose(checks.squared_diff_pdf(x, ETA), want, rtol=1e-9, atol=1e-12)


def test_orthant_masses_match_closed_form_integrals():
    model = get_density("squared-diff-5d").exact_model
    masses = checks.squared_diff_orthant_masses(D, ETA)
    for i in (0, 5, 17, 31):
        signs = [(i >> (D - 1 - k)) & 1 for k in range(D)]
        box = HyperRectangle(np.where(signs, 0.0, -1.0), np.where(signs, 1.0, 0.0))
        assert masses[i] == pytest.approx(integrate(model, box), rel=1e-11)


def test_orthant_chi_square_passes_exact_draws_fails_uniform(exact_draws):
    masses = checks.squared_diff_orthant_masses(D, ETA)
    counts = np.bincount(checks.orthant_index(exact_draws), minlength=2**D)
    checks.check_chi_square(counts, masses, "exact")
    uniform = np.random.default_rng(2).uniform(-1, 1, size=exact_draws.shape)
    with pytest.raises(CheckFailed):
        checks.check_chi_square(
            np.bincount(checks.orthant_index(uniform), minlength=2**D), masses, "uniform"
        )


def test_orthant_chi_square_fails_on_perturbed_mass():
    model = get_density("squared-diff-5d").exact_model
    draws = sample(model, HyperRectangle(LO, HI), SamplerParams(2.0**-3, 200_000, 3)).samples
    counts = np.bincount(checks.orthant_index(draws), minlength=2**D)
    masses = checks.squared_diff_orthant_masses(D, ETA)
    checks.check_chi_square(counts, masses, "sampler")
    perturbed = masses.copy()
    perturbed[np.argmax(masses)] *= 1.1
    with pytest.raises(CheckFailed):
        checks.check_chi_square(counts, perturbed, "perturbed")


def _random_psd_model(seed):
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(6, 6))
    return GaussianPsdModel(A=B @ B.T, X=rng.uniform(-2, 2, size=(6, 2)), eta=np.full(2, 1.0))


def test_cell_masses_match_closed_form_and_catch_perturbation():
    model = _random_psd_model(4)
    lo, hi, cells = np.full(2, -3.0), np.full(2, 3.0), 8
    masses = checks.gl_cell_masses(model.A, model.X, model.eta, lo, hi, cells)
    edges = np.linspace(-3.0, 3.0, cells + 1)
    i, j = np.meshgrid(np.arange(cells), np.arange(cells), indexing="ij")
    lowers = np.stack([edges[i.ravel()], edges[j.ravel()]], axis=1)
    uppers = np.stack([edges[i.ravel() + 1], edges[j.ravel() + 1]], axis=1)
    np.testing.assert_allclose(masses.ravel(), integrate_boxes(model, lowers, uppers),
                               rtol=1e-9, atol=1e-12 * masses.sum())
    draws = sample(model, HyperRectangle(lo, hi), SamplerParams(2.0**-4, 100_000, 5)).samples
    counts = np.bincount(checks.grid_cell_index(draws, lo, hi, cells), minlength=cells**2)
    checks.check_chi_square(counts, masses.ravel(), "sampler")
    perturbed = masses.ravel().copy()
    perturbed[np.argmax(perturbed)] *= 1.1
    with pytest.raises(CheckFailed):
        checks.check_chi_square(counts, perturbed, "perturbed")


def test_direct_mmd_matches_package_and_catches_wrong_value(exact_draws):
    P, Q = exact_draws[:400], exact_draws[400:800] * 0.9
    want = checks.direct_mmd(P, Q, 2.0)
    checks.check_close(empirical_mmd(P, Q, 2.0), want, 1e-8, "mmd")
    with pytest.raises(CheckFailed):
        checks.check_close(empirical_mmd(P, Q, 2.1), want, 1e-8, "mmd at a wrong eta")


def test_noise_floor_passes_exact_draws_fails_uniform(exact_draws):
    reference, other = exact_draws[:2000], exact_draws[2000:4000]
    floor = empirical_mmd(other, reference, 2.0)
    checks.check_noise_floor(empirical_mmd(exact_draws[4000:6000], reference, 2.0), floor, 2.0)
    uniform = np.random.default_rng(6).uniform(-1, 1, size=(2000, D))
    with pytest.raises(CheckFailed):
        checks.check_noise_floor(empirical_mmd(uniform, reference, 2.0), floor, 2.0)


def test_draw_check_catches_wrong_count_and_escapes(exact_draws):
    checks.check_draws(exact_draws, len(exact_draws), LO, HI, "exact")
    with pytest.raises(CheckFailed):
        checks.check_draws(exact_draws[:-1], len(exact_draws), LO, HI, "short")
    outside = exact_draws.copy()
    outside[7, 2] = 1.0
    with pytest.raises(CheckFailed):
        checks.check_draws(outside, len(exact_draws), LO, HI, "escaped")


def test_integral_accounting_catches_overrun_and_wrong_erf_count():
    box = HyperRectangle(LO, HI)
    run = sample(get_density("squared-diff-5d").exact_model, box, SamplerParams(2.0**-3, 1000, 7))
    acct = run.accounting
    checks.check_integral_accounting(acct.integral_evals, acct.erf_calls, 1000, LO, HI, 2.0**-3, 2)
    budget = checks.integral_budget(1000, LO, HI, 2.0**-3)
    with pytest.raises(CheckFailed):
        checks.check_integral_accounting(int(budget) + 1, 40 * (int(budget) + 1), 1000, LO, HI,
                                         2.0**-3, 2)
    with pytest.raises(CheckFailed):
        checks.check_integral_accounting(acct.integral_evals, acct.erf_calls + 1, 1000, LO, HI,
                                         2.0**-3, 2)


def test_objective_trace_check_catches_rise_and_positive_end():
    checks.check_objective_trace([5.0, 1.0, -2.0, -2.0])
    with pytest.raises(CheckFailed):
        checks.check_objective_trace([5.0, -1.0, -0.5])
    with pytest.raises(CheckFailed):
        checks.check_objective_trace([5.0, 2.0, 0.5])


def test_distance_check_catches_broken_orderings():
    checks.check_distances(tv=0.07, hellinger=0.05, tv_bound=15.0)
    with pytest.raises(CheckFailed):
        checks.check_distances(tv=0.07, hellinger=0.3, tv_bound=15.0)
    with pytest.raises(CheckFailed):
        checks.check_distances(tv=0.07, hellinger=0.05, tv_bound=0.06)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    tracer.op = 1
    outer()
    row = tracer.per_op()[1]
    assert row["inner.calls"] == 3 and row["outer>inner.calls"] == 3
    assert row["outer.self_s"] == pytest.approx(row["outer.busy_s"] - row["inner.busy_s"])


def test_benchmark_json_lists_what_the_traced_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert names == {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
