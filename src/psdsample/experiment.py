"""The paper's budget-sweep experiment and the run's seed namespace.

All randomness derives from one root seed.  Seed S and a role key tuple
k map to the 64-bit integer

    numpy.random.SeedSequence(S, spawn_key=k).generate_state(1)[0]

with role keys

    (0,)                fit
    (1,)                sample
    (2, r)              benchmark ground-truth reference draw, repetition r
    (3, i, j, r, 0)     benchmark fit: method index i, budget index j, rep r
    (3, i, j, r, 1)     benchmark sampling, same coordinates
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import metrics
from .baseline import build_grid
from .densities import TargetDensity
from .estimator import FitConfig, fit_rank_one_holdout
from .sampler import SamplerParams, sample

__all__ = ["derive_seed", "run_benchmark"]


def derive_seed(root_seed: int, *key: int) -> int:
    """Collapse a root seed and role key into an independent u64 seed."""
    ss = np.random.SeedSequence(root_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_benchmark(
    density: TargetDensity,
    budgets: Sequence[int],
    *,
    methods: Sequence[str] = ("grid", "psd", "truth"),
    n_samples: int = 10_000,
    eta: float = 2.0,
    repetitions: int = 5,
    seed: int = 0,
    fit_m: int = 50,
    rho: float = 2.0**-6,
    taus: Sequence[float] = (0.1, 0.2, 0.3, 0.5, 1.0, 2.0),
    lams: Sequence[float] = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-3),
) -> list[dict]:
    """Budget sweep comparing samplers by MMD to ground-truth draws.

    Methods: "psd" fits a rank-one model by holdout-selected ridge
    regression on n density evaluations and samples it; "grid" builds
    the histogram baseline on the same budget; "truth" draws fresh
    samples from the exact target model, giving the sampling-noise
    floor.  Each repetition compares against an independent reference
    draw from the exact model.  Rows come back sorted by (method, n).
    """
    if density.exact_model is None:
        raise ValueError(
            f"benchmark needs a target with an exact model; "
            f"{density.name!r} has none"
        )
    budgets = [int(n) for n in budgets]
    if not budgets or not methods:
        raise ValueError("need at least one budget and one method")
    unknown = set(methods) - {"psd", "grid", "truth"}
    if unknown:
        raise ValueError(f"unknown benchmark methods: {sorted(unknown)}")
    box = density.domain
    truth_psd = density.exact_model.to_psd()

    def draw(model, stream_seed: int):
        params = SamplerParams(rho=rho, n_samples=n_samples, seed=stream_seed)
        return sample(model, box, params).samples

    references = [draw(truth_psd, derive_seed(seed, 2, r)) for r in range(repetitions)]
    # every method and budget of a repetition meets the same reference
    reference_sums = [metrics._self_sum(ref, eta) for ref in references]

    rows = []
    for i, method in enumerate(methods):
        for j, n in enumerate(budgets):
            values = []
            for r in range(repetitions):
                fit_seed = derive_seed(seed, 3, i, j, r, 0)
                draw_seed = derive_seed(seed, 3, i, j, r, 1)
                if method == "grid":
                    draws = build_grid(density.pdf, box, n).sample(n_samples, draw_seed)
                elif method == "psd":
                    fit_cfg = FitConfig(
                        n=n, m=fit_m, tau=taus[0], lam=lams[0], seed=fit_seed
                    )
                    model, _ = fit_rank_one_holdout(
                        density.oracle("linear"), fit_cfg, taus, lams
                    )
                    draws = draw(model.to_psd(), draw_seed)
                else:
                    draws = draw(truth_psd, draw_seed)
                values.append(
                    metrics._mmd(draws, references[r], eta, q_sum=reference_sums[r])
                )
            mean = float(np.mean(values))
            sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            rows.append({
                "method": method,
                "n": n,
                "mmd_mean": mean,
                "mmd_sd": sd,
                "values": values,
            })
    rows.sort(key=lambda row: (row["method"], row["n"]))
    return rows
