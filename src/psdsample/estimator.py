"""Fitting Gaussian PSD models from pointwise evaluations of a target.

Two regimes:

* ``fit_rank_one`` does kernel ridge regression of a signed function g
  whose square is proportional to the target density.  The coefficient
  vector solves

      (K_nm^T K_nm + lambda n K_mm) a = K_nm^T g_n

  for n uniform evaluation points and m uniform centers.

* ``fit_psd`` minimizes the quadratic

      integral of f(x; A)^2 over the domain
      - 2 sum_i f_p(x_i) f(x_i; A) + lambda ||K^{1/2} A K^{1/2}||_F^2

  over PSD matrices A by projected gradient descent with backtracking,
  warm-started at the projected unconstrained minimizer.  The data term
  is the plain sum over evaluation points (no 1/n), so the fitted scale
  grows with n; densities are renormalized downstream anyway.

Both fits draw their design uniformly on the oracle's box from a
counter-based stream seeded by the config (evaluation points first,
then centers); either draw can be overridden with explicit arrays, for
deterministic designs or tied centers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import log

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .boxes import HyperRectangle
from .exceptions import ConvergenceWarning, IllConditionedError
from .integration import quartic_gram
from .kernels import kernel_matrix, project_psd
from .models import GaussianPsdModel, RankOneModel

__all__ = [
    "FitConfig",
    "EvaluationOracle",
    "FitReport",
    "ParameterSchedule",
    "fit_rank_one",
    "fit_rank_one_holdout",
    "fit_psd",
    "theoretical_parameters",
]

_RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Sample sizes, kernel precision and ridge weight for one fit."""

    n: int
    m: int
    tau: float
    lam: float
    seed: int

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        if not (isinstance(self.m, (int, np.integer)) and 1 <= self.m <= self.n):
            raise ValueError("need 1 <= m <= n")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be positive and finite")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lam must be nonnegative and finite")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")

    def to_dict(self) -> dict:
        return {
            "n": int(self.n),
            "m": int(self.m),
            "tau": float(self.tau),
            "lambda": float(self.lam),
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FitConfig":
        return cls(
            n=int(data["n"]),
            m=int(data["m"]),
            tau=float(data["tau"]),
            lam=float(data["lambda"]),
            seed=int(data.get("seed", 0)),
        )


@dataclass(frozen=True)
class EvaluationOracle:
    """Pointwise access to an unnormalized target on a bounded box.

    ``kind="linear"`` values may be signed (targets for the rank-one
    fit); ``kind="nonnegative"`` values are density evaluations and are
    rejected if any comes back negative.
    """

    fn: object
    domain: HyperRectangle
    kind: str = "linear"

    def __post_init__(self):
        if not callable(self.fn):
            raise ValueError("fn must be callable")
        if not isinstance(self.domain, HyperRectangle) or not self.domain.is_bounded():
            raise ValueError("domain must be a bounded HyperRectangle")
        if self.kind not in ("linear", "nonnegative"):
            raise ValueError("kind must be 'linear' or 'nonnegative'")

    def __call__(self, points) -> NDArray[np.float64]:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.asarray(self.fn(pts), dtype=float).reshape(-1)
        if vals.shape[0] != pts.shape[0]:
            raise ValueError("oracle returned a wrong number of values")
        if not np.all(np.isfinite(vals)):
            raise ValueError("oracle returned non-finite values")
        if self.kind == "nonnegative" and np.any(vals < 0):
            raise ValueError("oracle returned negative density values")
        return vals


@dataclass
class FitReport:
    """What the fit did, for serialization next to the model."""

    kind: str
    config: dict
    residual: float | None = None
    rhs_norm: float | None = None
    jitter: float = 0.0
    iterations: int = 0
    converged: bool = True
    objective_trace: list[float] = field(default_factory=list)
    holdout: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "kind": self.kind,
            "config": self.config,
            "residual": self.residual,
            "rhs_norm": self.rhs_norm,
            "jitter": self.jitter,
            "iterations": self.iterations,
            "converged": self.converged,
            "objective_trace": self.objective_trace,
            "holdout": self.holdout,
        }


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed)))


def _uniform_in(rng, box: HyperRectangle, count: int) -> NDArray[np.float64]:
    return box.lower + rng.random((count, box.dim)) * box.side_lengths


def _draw_design(oracle, config, centers, design_points):
    rng = _rng(config.seed)
    if design_points is None:
        X_n = _uniform_in(rng, oracle.domain, config.n)
    else:
        X_n = np.atleast_2d(np.asarray(design_points, dtype=float))
        if X_n.shape != (config.n, oracle.domain.dim):
            raise ValueError("design_points must be (n, d)")
    if centers is None:
        X_m = _uniform_in(rng, oracle.domain, config.m)
    else:
        X_m = np.atleast_2d(np.asarray(centers, dtype=float))
        if X_m.shape != (config.m, oracle.domain.dim):
            raise ValueError("centers must be (m, d)")
    return X_n, X_m


def _solve_ridge(K_nm, K_mm, g_n, lam, n):
    """Solve the normal equations with Cholesky plus refinement.

    The unjittered matrix can be numerically singular for tiny lambda;
    a jitter of 1e-12 tr(K_mm)/m on K_mm is tried next, then the same
    relative jitter on the full matrix (K_mm jitter is useless when
    lambda is 0).  Failing the residual target afterwards raises.
    """
    rhs = K_nm.T @ g_n
    rhs_norm = float(np.linalg.norm(rhs))
    base = K_nm.T @ K_nm
    m = K_mm.shape[0]
    jitter_unit = 1e-12 * float(np.trace(K_mm)) / m
    attempts = (
        (0.0, 0.0),
        (jitter_unit, 0.0),
        (jitter_unit, jitter_unit * max(lam * n, 1.0)),
    )
    last_exc = None
    for jit_K, jit_M in attempts:
        M = base + lam * n * (K_mm + jit_K * np.eye(m))
        if jit_M:
            M = M + jit_M * np.eye(m)
        try:
            cf = scipy.linalg.cho_factor(M, lower=True)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
            last_exc = exc
            continue
        except scipy.linalg.LinAlgError as exc:
            last_exc = exc
            continue
        a = scipy.linalg.cho_solve(cf, rhs)
        for _ in range(4):
            r = rhs - M @ a
            if np.linalg.norm(r) <= _RESIDUAL_RTOL * max(rhs_norm, 1e-300):
                break
            a = a + scipy.linalg.cho_solve(cf, r)
        residual = float(np.linalg.norm(rhs - M @ a))
        if residual <= _RESIDUAL_RTOL * max(rhs_norm, 1e-300):
            return a, residual, rhs_norm, jit_K + jit_M
    raise IllConditionedError(
        "ridge system did not reach the residual target"
        + ("" if last_exc is None else " (%s)" % last_exc)
    )


def fit_rank_one(
    oracle: EvaluationOracle,
    config: FitConfig,
    *,
    centers=None,
    design_points=None,
) -> tuple[RankOneModel, FitReport]:
    """Kernel ridge fit of a signed square root of the target."""
    X_n, X_m = _draw_design(oracle, config, centers, design_points)
    g_n = oracle(X_n)
    eta = np.full(oracle.domain.dim, float(config.tau))
    K_nm = kernel_matrix(eta, X_n, X_m)
    K_mm = kernel_matrix(eta, X_m)
    a, residual, rhs_norm, jitter = _solve_ridge(
        K_nm, K_mm, g_n, config.lam, config.n
    )
    model = RankOneModel(a=a, X=X_m, eta=eta)
    report = FitReport(
        kind="rank_one",
        config=config.to_dict(),
        residual=residual,
        rhs_norm=rhs_norm,
        jitter=jitter,
    )
    return model, report


def fit_rank_one_holdout(
    oracle: EvaluationOracle,
    config: FitConfig,
    taus,
    lams,
) -> tuple[RankOneModel, FitReport]:
    """Grid-search tau and lambda on a half/half split, then refit.

    The n evaluations are drawn once; the first half trains each
    candidate, the second half scores it by mean squared error, and the
    winner is refit on all n points with the same centers.
    """
    taus = [float(t) for t in taus]
    lams = [float(l) for l in lams]
    if not taus or not lams:
        raise ValueError("need at least one candidate tau and lambda")
    rng = _rng(config.seed)
    X_n = _uniform_in(rng, oracle.domain, config.n)
    X_m = _uniform_in(rng, oracle.domain, config.m)
    g_n = oracle(X_n)
    n_tr = config.n // 2
    if n_tr < config.m:
        raise ValueError("holdout split needs n // 2 >= m")
    X_tr, g_tr = X_n[:n_tr], g_n[:n_tr]
    X_va, g_va = X_n[n_tr:], g_n[n_tr:]

    rows = []
    best = None
    for tau in taus:
        eta = np.full(oracle.domain.dim, tau)
        K_tr = kernel_matrix(eta, X_tr, X_m)
        K_mm = kernel_matrix(eta, X_m)
        K_va = kernel_matrix(eta, X_va, X_m)
        for lam in lams:
            try:
                a, _, _, _ = _solve_ridge(K_tr, K_mm, g_tr, lam, n_tr)
            except IllConditionedError:
                rows.append({"tau": tau, "lambda": lam, "score": None})
                continue
            score = float(np.mean((K_va @ a - g_va) ** 2))
            rows.append({"tau": tau, "lambda": lam, "score": score})
            if best is None or score < best[0]:
                best = (score, tau, lam)
    if best is None:
        raise IllConditionedError("every holdout candidate failed to solve")
    _, tau, lam = best
    final_cfg = FitConfig(
        n=config.n, m=config.m, tau=tau, lam=lam, seed=config.seed
    )
    model, report = fit_rank_one(
        oracle, final_cfg, centers=X_m, design_points=X_n
    )
    report.holdout = rows
    return model, report


def fit_psd(
    oracle: EvaluationOracle,
    config: FitConfig,
    *,
    max_iters: int = 2000,
    step_tol: float = 1e-12,
    centers=None,
    design_points=None,
) -> tuple[GaussianPsdModel, FitReport]:
    """Projected gradient fit of a full PSD coefficient matrix.

    The oracle must be of kind "nonnegative".  The objective trace in
    the report is monotone; hitting ``max_iters`` emits a
    ``ConvergenceWarning`` and marks the report not converged.  A descent
    from the warm start that ends above 0, the objective of A = 0, is
    replaced by the descent from A = 0, whose trace and iterations the
    report then holds.
    """
    if oracle.kind != "nonnegative":
        raise ValueError("fit_psd needs a nonnegative oracle")
    X_n, X_m = _draw_design(oracle, config, centers, design_points)
    f_n = oracle(X_n)
    d = oracle.domain.dim
    eta = np.full(d, float(config.tau))
    m = config.m
    lam = float(config.lam)

    K_nm = kernel_matrix(eta, X_n, X_m)
    K_mm = kernel_matrix(eta, X_m)
    C = K_nm.T @ (f_n[:, None] * K_nm)  # sum_i f_i v_i v_i^T
    C = 0.5 * (C + C.T)
    G = quartic_gram(X_m, eta, oracle.domain)

    def quad_part(A):
        vec = A.ravel()
        KAK = K_mm @ A @ K_mm
        return float(vec @ G @ vec) + lam * float(np.sum(KAK * A))

    def objective(A):
        return quad_part(A) - 2.0 * float(np.sum(C * A))

    def gradient(A):
        GA = (G @ A.ravel()).reshape(m, m)
        KAK = K_mm @ A @ K_mm
        g = 2.0 * GA - 2.0 * C + 2.0 * lam * KAK
        return 0.5 * (g + g.T)

    # warm start: projected unconstrained minimizer of the quadratic
    H = G + lam * np.kron(K_mm, K_mm)
    try:
        A0 = np.linalg.solve(H, C.ravel()).reshape(m, m)
        A = project_psd(0.5 * (A0 + A0.T))
    except np.linalg.LinAlgError:
        A = np.zeros((m, m))

    def descend(A):
        obj = objective(A)
        trace = [obj]
        step = 1.0
        iters = 0
        converged = False
        for iters in range(1, max_iters + 1):
            g = gradient(A)
            accepted = False
            for _ in range(60):
                A_new = project_psd(A - step * g)
                delta = A_new - A
                dn2 = float(np.sum(delta * delta))
                if dn2 == 0.0:
                    accepted = True
                    A_new = A
                    obj_new = obj
                    break
                obj_new = objective(A_new)
                if obj_new <= obj + float(np.sum(g * delta)) + dn2 / (2.0 * step):
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            moved = float(np.linalg.norm(A_new - A))
            A = A_new
            if obj_new < obj:
                trace.append(obj_new)
            obj = obj_new
            step *= 1.2
            if moved <= step_tol * (1.0 + float(np.linalg.norm(A))):
                converged = True
                break
        return A, obj, trace, iters, converged

    A, obj, trace, iters, converged = descend(A)
    if obj > 0.0:
        # An ill-conditioned warm start can trap the descent above the
        # objective of A = 0, which is 0; start over from there.
        A, obj, trace, iters, converged = descend(np.zeros((m, m)))
    if not converged:
        warnings.warn(
            "projected gradient stopped after %d iterations" % iters,
            ConvergenceWarning,
        )
    model = GaussianPsdModel(A=A, X=X_m, eta=eta, repair=True)
    report = FitReport(
        kind="psd",
        config=config.to_dict(),
        iterations=iters,
        converged=converged,
        objective_trace=trace,
    )
    return model, report


@dataclass(frozen=True)
class ParameterSchedule:
    """Order-only parameter guidance for a target accuracy.

    The sample-size fields evaluate the published lower-bound
    expressions with every unknown constant set to 1, so they indicate
    scaling, not certified sufficiency.
    """

    mode: str
    epsilon: float
    d: int
    beta: float
    delta: float
    tau: float
    lam: float
    n_lower: float
    m_lower: float
    nu_tilde: float | None = None

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "d": self.d,
            "beta": self.beta,
            "delta": self.delta,
            "tau": self.tau,
            "lambda": self.lam,
            "n_lower": self.n_lower,
            "m_lower": self.m_lower,
        }
        if self.nu_tilde is not None:
            out["nu_tilde"] = self.nu_tilde
        return out


def theoretical_parameters(
    epsilon: float,
    d: int,
    beta: float,
    mode: str = "tv",
    delta: float = 0.1,
) -> ParameterSchedule:
    """Kernel precision, ridge weight and sample-size scalings.

    ``mode="tv"`` targets total variation with the full PSD fit,
    ``mode="hellinger"`` targets Hellinger with the rank-one fit.  All
    unknown constants are reported as 1 and the Hellinger exponent uses
    the limiting value min(1, d / (2 beta)).
    """
    if not (0 < epsilon <= 1):
        raise ValueError("epsilon must lie in (0, 1]")
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError("d must be a positive integer")
    if beta < 1:
        raise ValueError("beta must be at least 1")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    mode_l = mode.lower()
    log_inv_eps = log(1.0 / epsilon) if epsilon < 1 else 0.0
    if mode_l == "tv":
        tau = epsilon ** (-2.0 / beta)
        lam = epsilon ** (2.0 + 2.0 * d / beta)
        n_lo = epsilon ** (-2.0 - d / beta) * log_inv_eps**d * log(2.0 / delta)
        m_lo = (
            epsilon ** (-d / beta)
            * log_inv_eps**d
            * log(1.0 / (epsilon * delta))
        )
        return ParameterSchedule(
            mode="tv",
            epsilon=float(epsilon),
            d=int(d),
            beta=float(beta),
            delta=float(delta),
            tau=float(tau),
            lam=float(lam),
            n_lower=float(n_lo),
            m_lower=float(m_lo),
        )
    if mode_l == "hellinger":
        tau = epsilon ** (-2.0 / beta)
        lam = epsilon ** (2.0 + d / beta)
        nu = min(1.0, d / (2.0 * beta))
        n_lo = epsilon ** (-2.0 * nu) * log(8.0 / delta)
        m_lo = (
            epsilon ** (-d / beta)
            * log_inv_eps**d
            * log(1.0 / (epsilon * delta))
        )
        return ParameterSchedule(
            mode="hellinger",
            epsilon=float(epsilon),
            d=int(d),
            beta=float(beta),
            delta=float(delta),
            tau=float(tau),
            lam=float(lam),
            n_lower=float(n_lo),
            m_lower=float(m_lo),
            nu_tilde=float(nu),
        )
    raise ValueError("mode must be 'tv' or 'hellinger'")
