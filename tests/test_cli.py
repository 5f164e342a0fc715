import json

import numpy as np
import pytest

from psdsample.boxes import HyperRectangle
from psdsample.cli import derive_seed, main, run_benchmark
from psdsample.densities import TargetDensity, get_density, register_density
from psdsample.metrics import empirical_mmd
from psdsample.models import (
    GaussianPsdModel,
    RankOneModel,
    load_model,
    model_to_dict,
    save_model,
)


def write_config(path, data):
    path.write_text(json.dumps(data, indent=2))
    return str(path)


@pytest.fixture(scope="module")
def zero_density():
    name = "zero-everywhere-test"
    try:
        register_density(
            TargetDensity(
                name=name,
                domain=HyperRectangle([0.0], [1.0]),
                pdf=lambda p: np.zeros(p.shape[0]),
                sqrt_pdf=lambda p: np.zeros(p.shape[0]),
            )
        )
    except ValueError:
        pass  # already registered by an earlier test run in this process
    return name


def fit_config(density="gaussian-well-1d", **fit_extra):
    fit = {"n": 200, "m": 10, "tau": 1.0, "lambda": 1e-8}
    fit.update(fit_extra)
    return {"density": density, "fit": fit}


def sample_config(**sampler):
    cfg = {"sampler": {"n_samples": 50, "rho": 0.25}}
    cfg["sampler"].update(sampler)
    return cfg


def test_derived_seeds_are_stable_and_distinct():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 3, 0, 0, 0, 0) != derive_seed(7, 3, 0, 0, 0, 1)
    assert derive_seed(8, 0) != derive_seed(7, 0)


def test_fit_writes_model_and_report(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", fit_config())
    rc = main(["fit", "--config", cfg, "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    model = load_model(str(tmp_path / "model.json"))
    assert model.d == 1
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["format_version"] == 1
    assert report["command"] == "fit"
    assert report["mode"] == "rank_one"
    assert report["seed"] == 5
    assert report["fit"]["config"]["seed"] == derive_seed(5, 0)


def test_every_report_carries_version_command_and_seed(tmp_path):
    domain = {"lower": [-4.0], "upper": [4.0]}
    runs = [
        ("fit", fit_config(), "fit_report.json"),
        ("sample", {**sample_config(), "domain": domain}, "sample_report.json"),
        ("evaluate", {
            "domain": domain,
            "metric": {"name": "exact", "rho": 0.5, "tol": 1e-6},
            "paths": {"report": "exact.json"},
        }, "exact.json"),
        ("evaluate", {
            "metric": {"name": "mmd", "eta": 1.0},
            "paths": {"samples_p": "samples.csv", "samples_q": "samples.csv",
                      "report": "mmd.json"},
        }, "mmd.json"),
        ("benchmark", {
            "density": "squared-diff-5d",
            "benchmark": {"budgets": [40], "methods": ["grid", "truth"],
                          "n_samples": 100, "repetitions": 2, "rho": 0.5},
        }, "benchmark_report.json"),
    ]
    # a distinct seed per command, so each report must carry its own
    for seed, (command, data, report_name) in enumerate(runs, start=3):
        cfg = write_config(tmp_path / f"cfg{seed}.json", data)
        argv = [command, "--config", cfg, "--seed", str(seed), "--out", str(tmp_path)]
        assert main(argv) == 0
        report = json.loads((tmp_path / report_name).read_text())
        assert (report["format_version"], report["command"], report["seed"]) == (
            1, command, seed
        )


def test_fit_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path / "cfg.json", fit_config())
    for out in (out_a, out_b):
        assert main(["fit", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
    assert (out_a / "model.json").read_bytes() == (out_b / "model.json").read_bytes()
    assert (
        out_a / "fit_report.json"
    ).read_bytes() == (out_b / "fit_report.json").read_bytes()


@pytest.mark.filterwarnings("ignore::psdsample.exceptions.ConvergenceWarning")
def test_fit_psd_mode(tmp_path):
    data = fit_config()
    data["fit"].update({"n": 100, "m": 4})
    cfg = write_config(tmp_path / "cfg.json", data)
    rc = main(["fit", "--psd", "--config", cfg, "--seed", "1", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert report["mode"] == "psd"
    model = load_model(str(tmp_path / "model.json"))
    assert model.A.shape == (4, 4)


def test_fit_holdout_grids(tmp_path):
    data = fit_config(taus=[0.5, 1.0], lambdas=[1e-8, 1e-4])
    cfg = write_config(tmp_path / "cfg.json", data)
    rc = main(["fit", "--config", cfg, "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "fit_report.json").read_text())
    assert len(report["fit"]["holdout"]) == 4


def test_fit_holdout_needs_both_lists(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", fit_config(taus=[0.5, 1.0]))
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_fit_zero_density_yields_zero_model(tmp_path, zero_density):
    data = {
        "density": zero_density,
        "fit": {"n": 20, "m": 4, "tau": 1.0, "lambda": 1e-6},
    }
    cfg = write_config(tmp_path / "cfg.json", data)
    rc = main(["fit", "--config", cfg, "--seed", "0", "--out", str(tmp_path)])
    assert rc == 0
    model = load_model(str(tmp_path / "model.json"))
    assert np.array_equal(model.A, np.zeros((4, 4)))


def fitted_model_dir(tmp_path):
    cfg = write_config(tmp_path / "fit.json", fit_config())
    assert main(["fit", "--config", cfg, "--seed", "11", "--out", str(tmp_path)]) == 0
    return tmp_path


def test_sample_reports_accounting(tmp_path):
    out = fitted_model_dir(tmp_path)
    data = sample_config()
    data["domain"] = {"lower": [-4.0], "upper": [4.0]}
    cfg = write_config(tmp_path / "s.json", data)
    rc = main(["sample", "--config", cfg, "--seed", "11", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "sample_report.json").read_text())
    samples = np.loadtxt(out / "samples.csv", delimiter=",", ndmin=2)
    assert samples.shape == (50, 1)
    assert np.all(samples >= -4.0) and np.all(samples < 4.0)
    assert report["bound_satisfied"] is True
    assert report["integral_evals"] <= report["integral_budget"]
    # one model integral costs 2 d m^2 erf terms on a finite box
    assert report["erf_calls"] == 2 * 1 * 100 * report["integral_evals"]
    # shared edges are evaluated once, so fewer erfs run than the terms
    assert 0 < report["erf_evals"] <= report["erf_calls"]
    assert report["rho_used"] == 0.25


def test_sample_zero_draws_costs_one_integral(tmp_path):
    out = fitted_model_dir(tmp_path)
    data = sample_config(n_samples=0)
    data["domain"] = {"lower": [-4.0], "upper": [4.0]}
    cfg = write_config(tmp_path / "s.json", data)
    rc = main(["sample", "--config", cfg, "--seed", "0", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "sample_report.json").read_text())
    assert report["integral_evals"] == 1
    assert report["bound_satisfied"] is True
    assert (out / "samples.csv").read_text() == ""


def test_sample_is_byte_deterministic(tmp_path):
    out = fitted_model_dir(tmp_path)
    data = sample_config()
    data["domain"] = {"lower": [-4.0], "upper": [4.0]}
    data["paths"] = {"model": str(out / "model.json")}
    cfg = write_config(tmp_path / "s.json", data)
    for sub in ("r1", "r2"):
        rc = main(["sample", "--config", cfg, "--seed", "9", "--out", str(out / sub)])
        assert rc == 0
    assert (
        out / "r1" / "samples.csv"
    ).read_bytes() == (out / "r2" / "samples.csv").read_bytes()
    assert (
        out / "r1" / "sample_report.json"
    ).read_bytes() == (out / "r2" / "sample_report.json").read_bytes()
    first, second = (
        json.loads((out / sub / "sample_report.json").read_text()) for sub in ("r1", "r2")
    )
    assert first["erf_evals"] == second["erf_evals"] > 0


def test_sample_requires_domain_or_flag(tmp_path):
    out = fitted_model_dir(tmp_path)
    cfg = write_config(tmp_path / "s.json", sample_config())
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2


def test_sample_find_support_grows_domain(tmp_path):
    out = fitted_model_dir(tmp_path)
    cfg = write_config(tmp_path / "s.json", sample_config())
    rc = main(["sample", "--find-support", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "sample_report.json").read_text())
    support = report["support"]
    assert support["captured_fraction"] >= 1.0 - 2e-6
    lo = support["domain"]["lower"][0]
    hi = support["domain"]["upper"][0]
    samples = np.loadtxt(out / "samples.csv", delimiter=",", ndmin=2)
    assert np.all(samples[:, 0] >= lo) and np.all(samples[:, 0] < hi)


def test_sample_rho_and_eps_are_exclusive(tmp_path):
    out = fitted_model_dir(tmp_path)
    data = sample_config(eps=0.1)  # rho is still present
    data["domain"] = {"lower": [-4.0], "upper": [4.0]}
    cfg = write_config(tmp_path / "s.json", data)
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
    del data["sampler"]["rho"]
    del data["sampler"]["eps"]
    cfg = write_config(tmp_path / "s2.json", data)
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2


def test_sample_adaptive_eps(tmp_path):
    out = fitted_model_dir(tmp_path)
    data = {"sampler": {"n_samples": 20}, "domain": {"lower": [-4.0], "upper": [4.0]}}
    cfg = write_config(tmp_path / "s.json", data)
    rc = main([
        "sample", "--config", cfg, "--eps", "0.2", "--metric", "hellinger",
        "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "sample_report.json").read_text())
    assert report["eps"] == 0.2
    assert report["metric"] == "hellinger"
    assert 0.0 < report["rho_used"] <= 8.0


def test_sample_missing_model_is_config_error(tmp_path):
    data = sample_config()
    data["domain"] = {"lower": [-4.0], "upper": [4.0]}
    cfg = write_config(tmp_path / "s.json", data)
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_sample_empty_mass_is_numerical_failure(tmp_path):
    model = RankOneModel(
        a=np.array([1.0]), X=np.array([[0.0]]), eta=np.array([1.0])
    ).to_psd()
    save_model(model, str(tmp_path / "model.json"))
    data = sample_config(n_samples=10, rho=0.5)
    data["domain"] = {"lower": [100.0], "upper": [101.0]}
    cfg = write_config(tmp_path / "s.json", data)
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_evaluate_exact_distances(tmp_path):
    out = fitted_model_dir(tmp_path)
    data = {
        "metric": {"name": "exact", "rho": 0.25, "tol": 1e-7},
        "domain": {"lower": [-4.0], "upper": [4.0]},
    }
    cfg = write_config(tmp_path / "e.json", data)
    rc = main(["evaluate", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "evaluate_report.json").read_text())
    assert report["metric"] == "exact"
    assert 0.0 <= report["tv"] <= report["tv_bound"]
    assert 0.0 <= report["hellinger"] <= report["hellinger_bound"]
    assert report["w1"] <= report["w1_bound"]
    assert report["leaf_count"] == 32


def test_evaluate_mmd_identical_files_is_zero(tmp_path):
    out = fitted_model_dir(tmp_path)
    data = sample_config()
    data["domain"] = {"lower": [-4.0], "upper": [4.0]}
    cfg = write_config(tmp_path / "s.json", data)
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    eval_cfg = write_config(tmp_path / "e.json", {
        "metric": {"name": "mmd", "eta": 1.0},
        "paths": {"samples_p": "samples.csv", "samples_q": "samples.csv"},
    })
    rc = main(["evaluate", "--config", eval_cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "evaluate_report.json").read_text())
    assert report["mean"] == 0.0
    assert report["sd"] == 0.0
    assert report["repetitions"] == 1


def test_evaluate_mmd_broadcasts_singleton(tmp_path):
    out = fitted_model_dir(tmp_path)
    data = sample_config()
    data["domain"] = {"lower": [-4.0], "upper": [4.0]}
    for i, seed in enumerate((1, 2, 3)):
        data["paths"] = {"samples": f"draw_{i}.csv", "report": f"rep_{i}.json"}
        cfg = write_config(tmp_path / f"s{i}.json", data)
        assert main([
            "sample", "--config", cfg, "--seed", str(seed), "--out", str(out)
        ]) == 0
    eval_cfg = write_config(tmp_path / "e.json", {
        "metric": {"name": "mmd", "eta": 1.0},
        "paths": {
            "samples_p": ["draw_0.csv", "draw_1.csv", "draw_2.csv"],
            "samples_q": "draw_0.csv",
        },
    })
    rc = main(["evaluate", "--config", eval_cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "evaluate_report.json").read_text())
    assert report["repetitions"] == 3
    assert len(report["values"]) == 3
    assert report["values"][0] == 0.0
    assert report["values"][1] > 0.0
    assert np.isclose(report["mean"], np.mean(report["values"]))


def test_evaluate_mmd_reads_and_self_sums_a_shared_file_once(tmp_path, monkeypatch):
    import psdsample.cli as cli

    reads, sums = [], []
    read_csv, self_sum = cli.read_samples_csv, cli.metrics._self_sum

    def counted_read(path):
        reads.append(path)
        return read_csv(path)

    def counted_sum(X, eta):
        sums.append(X)
        return self_sum(X, eta)

    monkeypatch.setattr(cli, "read_samples_csv", counted_read)
    monkeypatch.setattr(cli.metrics, "_self_sum", counted_sum)
    for i in range(3):
        (tmp_path / f"p{i}.csv").write_text(f"{0.1 * i}\n1.0\n2.0\n")
    (tmp_path / "q.csv").write_text("0.5\n1.5\n")
    eval_cfg = write_config(tmp_path / "e.json", {
        "metric": {"name": "mmd", "eta": 1.0},
        "paths": {"samples_p": ["p0.csv", "p1.csv", "p2.csv"], "samples_q": "q.csv"},
    })
    assert main(["evaluate", "--config", eval_cfg, "--out", str(tmp_path)]) == 0
    assert len(reads) == 4 and len(sums) == 4
    report = json.loads((tmp_path / "evaluate_report.json").read_text())
    q = np.array([[0.5], [1.5]])
    want = [empirical_mmd(np.array([[0.1 * i], [1.0], [2.0]]), q, 1.0) for i in range(3)]
    assert np.allclose(report["values"], want, rtol=1e-12, atol=0.0)


def test_evaluate_rejects_unknown_metric(tmp_path):
    cfg = write_config(tmp_path / "e.json", {"metric": {"name": "ks"}})
    assert main(["evaluate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_benchmark_small_run(tmp_path):
    data = {
        "density": "squared-diff-5d",
        "benchmark": {
            "budgets": [60],
            "methods": ["truth", "grid", "psd"],
            "n_samples": 150,
            "repetitions": 2,
            "m": 8,
            "rho": 0.5,
            "taus": [0.2, 0.5],
            "lambdas": [1e-6],
        },
    }
    cfg = write_config(tmp_path / "b.json", data)
    rc = main(["benchmark", "--config", cfg, "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "benchmark.csv").read_text().strip().splitlines()
    assert lines[0] == "method,n,mmd_mean,mmd_sd"
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == ["grid", "psd", "truth"]
    report = json.loads((tmp_path / "benchmark_report.json").read_text())
    assert all(len(row["values"]) == 2 for row in report["rows"])
    assert all(row["mmd_mean"] > 0.0 for row in report["rows"])


def test_benchmark_requires_budgets(tmp_path):
    cfg = write_config(
        tmp_path / "b.json", {"density": "squared-diff-5d", "benchmark": {}}
    )
    assert main(["benchmark", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_benchmark_rejects_unknown_method(tmp_path):
    cfg = write_config(tmp_path / "b.json", {
        "density": "squared-diff-5d",
        "benchmark": {"budgets": [50], "methods": ["bogus"]},
    })
    assert main(["benchmark", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_run_benchmark_needs_exact_truth():
    with pytest.raises(ValueError):
        run_benchmark(get_density("gaussian-well-1d"), [50])


def test_missing_or_invalid_config_file(tmp_path):
    assert main(["fit", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["fit", "--config", str(bad)]) == 2


def test_unknown_density_name(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", fit_config(density="missing"))
    assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2


NAN_DENSITY = "nan-values-test"
NO_SQRT_DENSITY = "no-sqrt-test"


@pytest.fixture(scope="module")
def error_densities():
    for name, sqrt_pdf in (
        (NAN_DENSITY, lambda p: np.full(p.shape[0], np.nan)),
        (NO_SQRT_DENSITY, None),
    ):
        try:
            register_density(
                TargetDensity(
                    name=name,
                    domain=HyperRectangle([0.0], [1.0]),
                    pdf=lambda p: np.full(p.shape[0], np.nan),
                    sqrt_pdf=sqrt_pdf,
                )
            )
        except ValueError:
            pass  # already registered by an earlier test run in this process


FIT = {"n": 20, "m": 3, "tau": 1.0, "lambda": 1e-6}
DOMAIN_1D = {"lower": [-4.0], "upper": [4.0]}
DOMAIN_2D = {"lower": [-4.0, 0.0], "upper": [4.0, 1.0]}
DOMAIN_2D_OPEN = {"lower": [-4.0, 0.0], "upper": [4.0, float("inf")]}
MISSING = (
    "cannot load model {out}/missing.json: "
    "[Errno 2] No such file or directory: '{out}/missing.json'"
)

# (argv, config, exit code, stderr line); {out} stands for the --out directory
ERROR_CASES = {
    "config-not-object": (
        ["fit"], ["not", "an", "object"], 2, "config must be a JSON object",
    ),
    "config-unknown-key": (
        ["fit"], {"density": "x", "typo_section": {}},
        2, "unknown config keys: ['typo_section']",
    ),
    **{
        f"sample-paths-{kind}": (
            ["sample"],
            {"domain": DOMAIN_1D, "sampler": {"n_samples": 5, "rho": 0.5}, "paths": paths},
            2, "config section 'paths' must be an object",
        )
        for kind, paths in (("null", None), ("list", []), ("string", "x"))
    },
    **{
        f"fit-density-{kind}": (
            ["fit"], {"density": density, "fit": FIT}, 2, "density must be a string",
        )
        for kind, density in (("list", []), ("object", {}))
    },
    "sample-domain-list": (
        ["sample"], {"domain": [1, 2], "sampler": {"n_samples": 5, "rho": 0.5}},
        2, "config section 'domain' must be an object",
    ),
    "fit-psd-nan": (
        ["fit", "--psd"], {"density": NAN_DENSITY, "fit": FIT},
        2, "oracle returned non-finite values",
    ),
    "fit-nan": (
        ["fit"], {"density": NAN_DENSITY, "fit": FIT},
        2, "oracle returned non-finite values",
    ),
    "fit-no-sqrt": (
        ["fit"], {"density": NO_SQRT_DENSITY, "fit": FIT},
        2, f"target '{NO_SQRT_DENSITY}' has no signed square root",
    ),
    "sample-negative-eps": (
        ["sample"], {"domain": DOMAIN_1D, "sampler": {"n_samples": 5, "eps": -1}},
        2, "epsilon must be positive and finite",
    ),
    "sample-hellinger-full-model": (
        ["sample", "--eps", "0.1", "--metric", "hellinger"],
        {"domain": DOMAIN_1D, "sampler": {"n_samples": 5},
         "paths": {"model": "full.json"}},
        2, "hellinger leaf size needs a rank-one model",
    ),
    "sample-rank-one-mismatch": (
        ["sample", "--eps", "0.1", "--metric", "hellinger"],
        {"domain": DOMAIN_1D, "sampler": {"n_samples": 5},
         "paths": {"model": "mismatch.json"}},
        2, "cannot load model {out}/mismatch.json: "
        "A must equal outer(rank_one_a, rank_one_a)",
    ),
    "sample-dimension": (
        ["sample"], {"domain": DOMAIN_2D, "sampler": {"n_samples": 5, "rho": 0.5}},
        2, "domain has dimension 2, model has 1",
    ),
    "sample-dimension-before-unbounded": (
        ["sample"], {"domain": DOMAIN_2D_OPEN, "sampler": {"n_samples": 5, "rho": 0.5}},
        2, "domain has dimension 2, model has 1",
    ),
    "sample-missing-model": (
        ["sample"],
        {"domain": DOMAIN_1D, "sampler": {"n_samples": 5, "rho": 0.5},
         "paths": {"model": "missing.json"}},
        2, MISSING,
    ),
    "evaluate-dimension": (
        ["evaluate"], {"domain": DOMAIN_2D, "metric": {"name": "exact", "rho": 0.5}},
        2, "domain has dimension 2, model has 1",
    ),
    "evaluate-unbounded-before-dimension": (
        ["evaluate"],
        {"domain": DOMAIN_2D_OPEN, "metric": {"name": "exact", "rho": 0.5}},
        2, "exact distances need a bounded domain",
    ),
    "evaluate-missing-model": (
        ["evaluate"],
        {"domain": DOMAIN_1D, "metric": {"name": "exact", "rho": 0.5},
         "paths": {"model": "missing.json"}},
        2, MISSING,
    ),
    "evaluate-zero-rho": (
        ["evaluate"], {"domain": DOMAIN_1D, "metric": {"name": "exact", "rho": 0}},
        2, "rho must be a positive finite number",
    ),
    **{
        f"evaluate-tol-{tol}": (
            ["evaluate"],
            {"domain": DOMAIN_1D, "metric": {"name": "exact", "rho": 0.5, "tol": tol}},
            2, "quadrature tolerance must be positive and finite",
        )
        for tol in (0, -1, float("nan"))
    },
    "evaluate-no-domain": (
        ["evaluate"], {"metric": {"name": "exact", "rho": 0.5}},
        2, "exact distances need a bounded domain",
    ),
    "mmd-negative-eta": (
        ["evaluate"],
        {"metric": {"name": "mmd", "eta": -1},
         "paths": {"samples_p": "draws.csv", "samples_q": "draws.csv"}},
        2, "eta must be positive and finite",
    ),
    "mmd-non-finite": (
        ["evaluate"],
        {"metric": {"name": "mmd", "eta": 1.0},
         "paths": {"samples_p": "draws.csv", "samples_q": "nonfinite.csv"}},
        2, "sample sets must be finite",
    ),
    # what `psd sample` writes for n_samples = 0
    "mmd-empty-samples": (
        ["evaluate"],
        {"metric": {"name": "mmd", "eta": 1.0},
         "paths": {"samples_p": "draws.csv", "samples_q": "empty.csv"}},
        2, "sample sets must be non-empty",
    ),
    "benchmark-unknown-method": (
        ["benchmark"],
        {"density": "squared-diff-5d",
         "benchmark": {"budgets": [40], "methods": ["nope"]}},
        2, "unknown benchmark methods: ['nope']",
    ),
    "benchmark-no-exact-model": (
        ["benchmark"], {"density": "gaussian-well-1d", "benchmark": {"budgets": [40]}},
        2, "benchmark needs a target with an exact model; 'gaussian-well-1d' has none",
    ),
    # int keys refuse values int() would truncate
    "sample-fractional-count": (
        ["sample"], {"domain": DOMAIN_1D, "sampler": {"n_samples": 2.5, "rho": 0.5}},
        2, "sampler.n_samples must be an integer",
    ),
    "sample-boolean-count": (
        ["sample"], {"domain": DOMAIN_1D, "sampler": {"n_samples": True, "rho": 0.5}},
        2, "sampler.n_samples must be an integer",
    ),
    "fit-fractional-n": (
        ["fit"], {"density": "gaussian-well-1d", "fit": {**FIT, "n": 20.5}},
        2, "fit.n must be an integer",
    ),
    "fit-boolean-m": (
        ["fit", "--psd"], {"density": "gaussian-well-1d", "fit": {**FIT, "m": True}},
        2, "fit.m must be an integer",
    ),
    **{
        f"benchmark-fractional-{key}": (
            ["benchmark"],
            {"density": "squared-diff-5d", "benchmark": {"budgets": [40], key: 2.5}},
            2, f"benchmark.{key} must be an integer",
        )
        for key in ("n_samples", "repetitions", "m")
    },
    "benchmark-boolean-repetitions": (
        ["benchmark"],
        {"density": "squared-diff-5d", "benchmark": {"budgets": [40], "repetitions": False}},
        2, "benchmark.repetitions must be an integer",
    ),
    # float keys refuse booleans
    "sample-boolean-rho": (
        ["sample"], {"domain": DOMAIN_1D, "sampler": {"n_samples": 5, "rho": True}},
        2, "sampler.rho must be a number",
    ),
    "sample-boolean-eps": (
        ["sample"], {"domain": DOMAIN_1D, "sampler": {"n_samples": 5, "eps": True}},
        2, "sampler.eps must be a number",
    ),
    # a JSON boolean, where bool("no") would run the support search
    "sample-string-find-support": (
        ["sample"], {"sampler": {"n_samples": 5, "rho": 0.5, "find_support": "no"}},
        2, "sampler.find_support must be true or false",
    ),
    "sample-boolean-support-eps": (
        ["sample", "--find-support"],
        {"sampler": {"n_samples": 5, "rho": 0.5, "support_eps": True}},
        2, "sampler.support_eps must be a number",
    ),
    "fit-boolean-tau": (
        ["fit"], {"density": "gaussian-well-1d", "fit": {**FIT, "tau": True}},
        2, "fit.tau must be a number",
    ),
    "evaluate-boolean-rho": (
        ["evaluate"], {"domain": DOMAIN_1D, "metric": {"name": "exact", "rho": True}},
        2, "metric.rho must be a number",
    ),
    "evaluate-boolean-tol": (
        ["evaluate"],
        {"domain": DOMAIN_1D, "metric": {"name": "exact", "rho": 0.5, "tol": False}},
        2, "metric.tol must be a number",
    ),
    "mmd-boolean-eta": (
        ["evaluate"],
        {"metric": {"name": "mmd", "eta": True},
         "paths": {"samples_p": "draws.csv", "samples_q": "draws.csv"}},
        2, "metric.eta must be a number",
    ),
    "benchmark-boolean-rho": (
        ["benchmark"],
        {"density": "squared-diff-5d", "benchmark": {"budgets": [40], "rho": True}},
        2, "benchmark.rho must be a number",
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_error_paths_print_one_line_and_exit_code(
    case, tmp_path, capsys, error_densities
):
    argv, data, code, message = ERROR_CASES[case]
    rank_one = RankOneModel(a=np.array([1.0]), X=np.array([[0.0]]), eta=np.array([1.0]))
    save_model(rank_one.to_psd(), str(tmp_path / "model.json"))
    full = GaussianPsdModel(
        A=np.eye(2), X=np.array([[-1.0], [1.0]]), eta=np.array([1.0])
    )
    save_model(full, str(tmp_path / "full.json"))
    # full's A with a rank-one vector that does not factor it
    mismatch = {**model_to_dict(full), "rank_one_a": [1.0, 0.0]}
    (tmp_path / "mismatch.json").write_text(json.dumps(mismatch))
    (tmp_path / "draws.csv").write_text("0.0\n1.0\n")
    (tmp_path / "nonfinite.csv").write_text("0.0\nnan\n")
    (tmp_path / "empty.csv").write_text("")
    cfg = write_config(tmp_path / "cfg.json", data)
    capsys.readouterr()
    assert main(argv + ["--config", cfg, "--out", str(tmp_path)]) == code
    captured = capsys.readouterr()
    assert captured.err == "config error: " + message.format(out=tmp_path) + "\n"
    assert captured.out == ""


def test_benchmark_passes_each_config_key_to_its_parameter(tmp_path, monkeypatch):
    import psdsample.cli as cli

    calls = []

    def record(density, budgets, **kwargs):
        calls.append((density.name, budgets, kwargs))
        return []

    monkeypatch.setattr(cli, "run_benchmark", record)
    cfg = write_config(tmp_path / "b.json", {
        "density": "squared-diff-5d",
        "benchmark": {
            "budgets": [60, 90],
            "methods": ["truth", "psd"],
            "n_samples": 150.0,
            "eta": 3,
            "repetitions": 2.0,
            "m": 8.0,
            "rho": 1,
            "taus": [0.2, 0.5],
            "lambdas": [1e-6],
        },
    })
    argv = ["benchmark", "--config", cfg, "--seed", "4", "--out", str(tmp_path)]
    assert main(argv) == 0
    [(name, budgets, kwargs)] = calls
    assert (name, budgets) == ("squared-diff-5d", [60, 90])
    expected = {
        "methods": (["truth", "psd"], list),
        "n_samples": (150, int),
        "eta": (3.0, float),
        "repetitions": (2, int),
        "seed": (4, int),
        "fit_m": (8, int),
        "rho": (1.0, float),
        "taus": ([0.2, 0.5], list),
        "lams": ([1e-6], list),
    }
    assert set(kwargs) == set(expected)
    for key, (value, kind) in expected.items():
        assert kwargs[key] == value and type(kwargs[key]) is kind, key
