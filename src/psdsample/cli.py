"""Command line front end: fit, sample, evaluate, benchmark.

Every command reads a single JSON config file and derives all randomness
from one ``--seed`` flag through ``experiment.derive_seed``, whose
docstring lists the fixed role keys of each stream.  The benchmark
command runs ``experiment.run_benchmark``; this module only parses
configs and writes outputs.

Relative paths in the config's "paths" section resolve under ``--out``;
absolute paths are used as given.  Every JSON report carries
``format_version``, ``command`` and ``seed`` and is written with sorted
keys, so reruns are byte-identical.

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import metrics
from .boxes import HyperRectangle
from .densities import TargetDensity, get_density, list_densities
from .estimator import FitConfig, fit_psd, fit_rank_one, fit_rank_one_holdout
from .exceptions import PsdSampleError
from .experiment import derive_seed, run_benchmark
from .integration import integrate
from .metrics import exact_distances
from .models import load_model, save_model
from .sampler import (
    SamplerParams,
    adaptive_rho,
    find_support,
    integral_budget,
    read_samples_csv,
    sample,
    write_samples_csv,
)

REPORT_FORMAT_VERSION = 1


class ConfigError(Exception):
    """Invalid or inconsistent configuration; maps to exit code 2."""


_CONFIG_KEYS = ("density", "domain", "fit", "sampler", "metric", "benchmark", "paths")


def _domain_box(cfg: dict) -> Optional[HyperRectangle]:
    domain = cfg.get("domain")
    if domain is None:
        return None
    if not isinstance(domain, dict):
        raise ConfigError("config section 'domain' must be an object")
    try:
        lower = np.asarray(domain["lower"], dtype=float)
        upper = np.asarray(domain["upper"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad domain section: {exc}") from None
    try:
        return HyperRectangle(lower, upper)
    except ValueError as exc:
        raise ConfigError(f"bad domain: {exc}") from None


def _target(cfg: dict) -> TargetDensity:
    name = cfg.get("density")
    if name is None:
        raise ConfigError("config needs a 'density' name")
    if not isinstance(name, str):
        raise ConfigError("density must be a string")
    try:
        return get_density(name)
    except KeyError:
        known = ", ".join(list_densities())
        raise ConfigError(f"unknown density {name!r}; known: {known}") from None


def _box_dict(box: HyperRectangle) -> dict:
    return {"lower": box.lower.tolist(), "upper": box.upper.tolist()}


def _load_config(path: str) -> dict:
    """The config file as a dict of known sections; "paths" defaults to {}."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg.setdefault("paths", {})
    if not isinstance(cfg["paths"], dict):
        raise ConfigError("config section 'paths' must be an object")
    return cfg


def _write_report(args: argparse.Namespace, path: str, fields: dict) -> None:
    """A JSON report: the command's ``fields`` under the shared header."""
    report = {"format_version": REPORT_FORMAT_VERSION, "command": args.command,
              "seed": args.seed, **fields}
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve(out_dir: str, name: str) -> str:
    """A config path under ``--out``; absolute paths are used as given."""
    if os.path.isabs(name):
        return name
    return os.path.join(out_dir, name)


def _config_path(args: argparse.Namespace, cfg: dict, key: str, default: str) -> str:
    name = cfg["paths"].get(key, default)
    if not isinstance(name, str):
        raise ConfigError(f"paths.{key} must be a string")
    return _resolve(args.out, name)


def _load_model(args: argparse.Namespace, cfg: dict):
    model_path = _config_path(args, cfg, "model", "model.json")
    try:
        return load_model(model_path)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot load model {model_path}: {exc}") from None


def _check_dim(box: HyperRectangle, model) -> None:
    if box.dim != model.d:
        raise ConfigError(f"domain has dimension {box.dim}, model has {model.d}")


def _section(cfg: dict, name: str) -> dict:
    section = cfg.get(name)
    if section is None:
        raise ConfigError(f"config needs a '{name}' section")
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    return section


def _convert(value, kind, label: str):
    """``kind(value)``, refusing booleans and what int() would truncate:
    an int key takes an integral number such as 1e4, not 2.5 or true, and
    a float key takes 0.5 or "0.5", not true."""
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{label} must be {'an integer' if kind is int else 'a number'}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{label} must be a number") from None


def _get_number(section: dict, name: str, key: str, kind=float):
    if key not in section:
        raise ConfigError(f"config section '{name}' needs '{key}'")
    return _convert(section[key], kind, f"{name}.{key}")


def cmd_fit(args: argparse.Namespace, cfg: dict) -> int:
    target = _target(cfg)
    section = _section(cfg, "fit")
    fit_cfg = FitConfig(
        n=_get_number(section, "fit", "n", int),
        m=_get_number(section, "fit", "m", int),
        tau=_get_number(section, "fit", "tau"),
        lam=_get_number(section, "fit", "lambda"),
        seed=derive_seed(args.seed, 0),
    )
    taus = section.get("taus")
    lams = section.get("lambdas")
    if args.psd:
        if taus or lams:
            raise ConfigError("holdout grids are only supported for rank-one fits")
        model, report = fit_psd(target.oracle("nonnegative"), fit_cfg)
    else:
        oracle = target.oracle("linear")
        if taus or lams:
            if not (taus and lams):
                raise ConfigError("holdout needs both 'taus' and 'lambdas' lists")
            model, report = fit_rank_one_holdout(oracle, fit_cfg, taus, lams)
        else:
            model, report = fit_rank_one(oracle, fit_cfg)

    model_path = _config_path(args, cfg, "model", "model.json")
    report_path = _config_path(args, cfg, "report", "fit_report.json")
    os.makedirs(os.path.dirname(model_path) or ".", exist_ok=True)
    save_model(model, model_path)
    _write_report(args, report_path, {
        "density": target.name,
        "mode": "psd" if args.psd else "rank_one",
        "fit": report.to_dict(),
        "model_path": cfg["paths"].get("model", "model.json"),
    })
    print(f"wrote model to {model_path}")
    return 0


def cmd_sample(args: argparse.Namespace, cfg: dict) -> int:
    section = _section(cfg, "sampler")
    model = _load_model(args, cfg)

    support_key = section.get("find_support", False)
    if not isinstance(support_key, bool):
        raise ConfigError("sampler.find_support must be true or false")
    support_info = None
    box = _domain_box(cfg)
    if box is not None:
        _check_dim(box, model)
    if box is None or not box.is_bounded():
        if not (args.find_support or support_key):
            raise ConfigError(
                "domain is missing or unbounded; pass --find-support "
                "or configure a bounded domain"
            )
        eps_mass = _convert(section.get("support_eps", 1e-6), float, "sampler.support_eps")
        box = find_support(model, eps_mass)
        whole = HyperRectangle.whole_space(model.d)
        captured = integrate(model, box) / integrate(model, whole)
        support_info = {
            "eps_mass": eps_mass,
            "captured_fraction": captured,
            "domain": _box_dict(box),
        }

    n_samples = _get_number(section, "sampler", "n_samples", int)
    rho_cfg = args.rho if args.rho is not None else section.get("rho")
    eps = args.eps if args.eps is not None else section.get("eps")
    metric = args.metric or section.get("metric", "tv")
    if (rho_cfg is None) == (eps is None):
        raise ConfigError("exactly one of 'rho' or 'eps' must be given")
    if eps is not None:
        eps = _convert(eps, float, "sampler.eps")
        rho_val = adaptive_rho(model, box, eps, metric=metric)
    else:
        rho_val = _convert(rho_cfg, float, "sampler.rho")

    params = SamplerParams(
        rho=rho_val,
        n_samples=n_samples,
        seed=derive_seed(args.seed, 1),
    )
    run = sample(model, box, params)

    samples_path = _config_path(args, cfg, "samples", "samples.csv")
    report_path = _config_path(args, cfg, "report", "sample_report.json")
    os.makedirs(os.path.dirname(samples_path) or ".", exist_ok=True)
    write_samples_csv(run.samples, samples_path)

    budget = integral_budget(box, run.rho_used, n_samples)
    report = {
        "n_samples": n_samples,
        "rho_used": run.rho_used,
        "domain": _box_dict(box),
        "integral_evals": run.accounting.integral_evals,
        "erf_calls": run.accounting.erf_calls,
        "erf_evals": run.accounting.erf_evals,
        "integral_budget": budget,
        "bound_satisfied": bool(run.accounting.integral_evals <= budget),
        "leaf_count": run.leaf_count,
        "samples_path": cfg["paths"].get("samples", "samples.csv"),
    }
    if eps is not None:
        report["eps"] = eps
        report["metric"] = metric
    if support_info is not None:
        report["support"] = support_info
    _write_report(args, report_path, report)
    print(f"wrote {n_samples} samples to {samples_path}")
    return 0


def _as_path_list(paths: dict, key: str) -> list:
    value = paths.get(key)
    if value is None:
        raise ConfigError(f"config needs paths.{key}")
    if isinstance(value, str):
        return [value]
    if isinstance(value, list) and all(isinstance(p, str) for p in value):
        if not value:
            raise ConfigError(f"paths.{key} must not be empty")
        return list(value)
    raise ConfigError(f"paths.{key} must be a path or list of paths")


def cmd_evaluate(args: argparse.Namespace, cfg: dict) -> int:
    metric = _section(cfg, "metric")
    name = metric.get("name")
    report_path = _config_path(args, cfg, "report", "evaluate_report.json")

    if name == "exact":
        model = _load_model(args, cfg)
        box = _domain_box(cfg)
        if box is None or not box.is_bounded():
            raise ConfigError("exact distances need a bounded domain")
        _check_dim(box, model)
        rho = _get_number(metric, "metric", "rho")
        tol = _convert(metric.get("tol", 1e-9), float, "metric.tol")
        distances = exact_distances(model, box, rho, tol=tol)
        _write_report(args, report_path, {
            "metric": "exact",
            "domain": _box_dict(box),
            **dataclasses.asdict(distances),
        })
        print(f"wrote exact-distance report to {report_path}")
        return 0

    if name == "mmd":
        eta = _convert(metric.get("eta", 2.0), float, "metric.eta")
        p_paths = _as_path_list(cfg["paths"], "samples_p")
        q_paths = _as_path_list(cfg["paths"], "samples_q")
        reps = max(len(p_paths), len(q_paths))
        if len(p_paths) == 1:
            p_paths = p_paths * reps
        if len(q_paths) == 1:
            q_paths = q_paths * reps
        if len(p_paths) != len(q_paths):
            raise ConfigError(
                "paths.samples_p and paths.samples_q must have equal length "
                "(or one of them length 1)"
            )

        # a file named by several repetitions is read and self-summed once
        @functools.cache
        def read(path):
            try:
                return read_samples_csv(_resolve(args.out, path))
            except OSError as exc:
                raise ConfigError(f"cannot read samples: {exc}") from None

        @functools.cache
        def self_sum(path):
            return metrics._self_sum(read(path), eta)

        values = []
        for p_path, q_path in zip(p_paths, q_paths):
            P, Q = read(p_path), read(q_path)
            values.append(metrics._mmd(P, Q, eta, self_sum(p_path), self_sum(q_path)))
        mean = float(np.mean(values))
        sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        _write_report(args, report_path, {
            "metric": "mmd",
            "eta": eta,
            "repetitions": len(values),
            "values": values,
            "mean": mean,
            "sd": sd,
        })
        print(f"wrote mmd report to {report_path}")
        return 0

    raise ConfigError("metric.name must be 'exact' or 'mmd'")


def write_benchmark_csv(rows: Sequence[dict], path: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write("method,n,mmd_mean,mmd_sd\n")
        for row in rows:
            fh.write(
                f"{row['method']},{row['n']},"
                f"{row['mmd_mean']!r},{row['mmd_sd']!r}\n"
            )


# optional benchmark config keys: run_benchmark keyword and conversion;
# keys the config leaves out take run_benchmark's defaults
_BENCHMARK_KEYS = {
    "n_samples": ("n_samples", int),
    "eta": ("eta", float),
    "repetitions": ("repetitions", int),
    "m": ("fit_m", int),
    "rho": ("rho", float),
    "taus": ("taus", None),
    "lambdas": ("lams", None),
}


def cmd_benchmark(args: argparse.Namespace, cfg: dict) -> int:
    target = _target(cfg)
    section = _section(cfg, "benchmark")
    budgets = section.get("budgets")
    if not isinstance(budgets, list) or not budgets:
        raise ConfigError("benchmark.budgets must be a non-empty list")
    kwargs = {}
    if "methods" in section:
        methods = section["methods"]
        if not isinstance(methods, list) or not methods:
            raise ConfigError("benchmark.methods must be a non-empty list")
        kwargs["methods"] = methods
    for key, (param, kind) in _BENCHMARK_KEYS.items():
        if key in section:
            kwargs[param] = (
                section[key] if kind is None else _convert(section[key], kind, f"benchmark.{key}")
            )
    rows = run_benchmark(target, budgets, seed=args.seed, **kwargs)

    table_path = _config_path(args, cfg, "table", "benchmark.csv")
    report_path = _config_path(args, cfg, "report", "benchmark_report.json")
    write_benchmark_csv(rows, table_path)
    _write_report(args, report_path, {"density": target.name, "rows": rows})
    print(f"wrote benchmark table to {table_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psd",
        description="Fit, sample, and evaluate nonnegative kernel models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=0, help="root RNG seed")
        p.add_argument("--out", default=".", help="output directory")

    p_fit = sub.add_parser("fit", help="fit a model to a registered density")
    common(p_fit)
    p_fit.add_argument(
        "--psd", action="store_true",
        help="fit a full PSD coefficient matrix instead of a rank-one model",
    )
    p_fit.set_defaults(handler=cmd_fit)

    p_sample = sub.add_parser("sample", help="draw i.i.d. samples from a model")
    common(p_sample)
    p_sample.add_argument("--rho", type=float, default=None, help="leaf side bound")
    p_sample.add_argument(
        "--eps", type=float, default=None,
        help="target distance for adaptive leaf size",
    )
    p_sample.add_argument(
        "--metric", choices=("tv", "hellinger"), default=None,
        help="distance controlled by --eps",
    )
    p_sample.add_argument(
        "--find-support", action="store_true",
        help="grow a bounded domain capturing all but support_eps of the mass",
    )
    p_sample.set_defaults(handler=cmd_sample)

    p_eval = sub.add_parser("evaluate", help="exact distances or sample MMD")
    common(p_eval)
    p_eval.set_defaults(handler=cmd_evaluate)

    p_bench = sub.add_parser("benchmark", help="budget sweep against baselines")
    common(p_bench)
    p_bench.set_defaults(handler=cmd_benchmark)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        return args.handler(args, cfg)
    except PsdSampleError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
