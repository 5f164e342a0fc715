"""Gaussian PSD models: estimation, exact box integration, i.i.d. sampling."""

from .baseline import GridSampler, build_grid
from .boxes import HyperRectangle
from .densities import (
    TargetDensity,
    get_density,
    list_densities,
    make_potential_density,
    register_density,
)
from .estimator import (
    EvaluationOracle,
    FitConfig,
    FitReport,
    ParameterSchedule,
    fit_psd,
    fit_rank_one,
    fit_rank_one_holdout,
    theoretical_parameters,
)
from .exceptions import (
    ConvergenceWarning,
    EmptyMassError,
    IllConditionedError,
    PsdSampleError,
    ResourceLimitError,
    UnboundedDomainError,
)
from .integration import (
    IntegralAccounting,
    integrate,
    integrate_boxes,
    integrate_squared,
    pair_gram,
    quartic_gram,
)
from .kernels import gaussian_kernel, kernel_matrix, project_psd
from .metrics import (
    DistanceReport,
    DyadicDensity,
    dyadic_density,
    empirical_mmd,
    exact_distances,
)
from .models import (
    GaussianPsdModel,
    LipschitzBounds,
    RankOneModel,
    lipschitz_bounds,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    tail_box,
)
from .quadrature import adaptive_box_quadrature
from .sampler import (
    SampleRun,
    SamplerParams,
    adaptive_rho,
    find_support,
    integral_budget,
    read_samples_csv,
    sample,
    write_samples_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceWarning",
    "DistanceReport",
    "DyadicDensity",
    "EmptyMassError",
    "EvaluationOracle",
    "FitConfig",
    "FitReport",
    "GaussianPsdModel",
    "GridSampler",
    "HyperRectangle",
    "IllConditionedError",
    "IntegralAccounting",
    "LipschitzBounds",
    "ParameterSchedule",
    "PsdSampleError",
    "RankOneModel",
    "ResourceLimitError",
    "SampleRun",
    "SamplerParams",
    "TargetDensity",
    "UnboundedDomainError",
    "adaptive_box_quadrature",
    "adaptive_rho",
    "build_grid",
    "dyadic_density",
    "empirical_mmd",
    "exact_distances",
    "find_support",
    "fit_psd",
    "fit_rank_one",
    "fit_rank_one_holdout",
    "gaussian_kernel",
    "get_density",
    "integral_budget",
    "integrate",
    "integrate_boxes",
    "integrate_squared",
    "kernel_matrix",
    "lipschitz_bounds",
    "list_densities",
    "load_model",
    "make_potential_density",
    "model_from_dict",
    "model_to_dict",
    "pair_gram",
    "project_psd",
    "quartic_gram",
    "read_samples_csv",
    "register_density",
    "sample",
    "save_model",
    "tail_box",
    "theoretical_parameters",
    "write_samples_csv",
]
