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

  over PSD matrices A by monotone FISTA (MFISTA, Beck & Teboulle 2009)
  with the fixed step 1/L, from whichever of the projected unconstrained
  minimizer and A = 0 has the lower objective.  It descends in whitened
  coordinates B, with A = S B S and S close to K^{-1/2}, where the
  regulariser is about lambda ||B||_F^2 and the quadratic is far better
  conditioned than in A; S is invertible, so the PSD cone and the
  minimizer are the same.  The quadratic lives in the m(m+1)/2
  unique-pair coordinates of the symmetric B, and one product with its
  matrix per iteration gives both the objective and the gradient.  The
  data term is the plain sum over evaluation points (no 1/n), so the
  fitted scale grows with n; densities are renormalized downstream
  anyway.

Both fits draw their design uniformly on the oracle's box from a
counter-based stream seeded by the config (evaluation points first,
then centers); either draw can be overridden with explicit arrays, for
deterministic designs or tied centers.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from math import log

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .boxes import HyperRectangle, rng_from_seed
from .exceptions import ConvergenceWarning, IllConditionedError
# quartic_gram stays importable here for tools that wrap it by this name
from .integration import _CHUNK_ELEMS, pair_gram, quartic_gram  # noqa: F401
from .kernels import _unique_pairs, kernel_matrix, project_psd
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
# fit_psd stops once the norm of the gradient mapping is at most this,
# relative to the norm of the gradient at A = 0
_GRAD_TOL = 1e-9
# ... or after this many iterations, with a ConvergenceWarning
_MAX_ITERS = 2000
# power iteration for the step: at most this many products, stopping
# once the Rayleigh quotient moves by at most the relative tolerance;
# the margin covers the distance left to the top eigenvalue
_POWER_ITERS = 100
_POWER_RTOL = 1e-6
_POWER_MARGIN = 1.01
# fit_psd's whitening floor, as the square of its ratio to the level
# where the regulariser's curvature meets the roundoff of the pair Gram
# (see _whitened_quadratic).  Measured on m = 20 and 40 fits with lambda
# from 1e-6 to 0.1: at 100 psd-fit-2d's fit converges in about 470
# iterations (212 at 1, 1416 at 1000), and the objective of the
# returned A, recomputed in its own coordinates, stays within 1e-7 of
# the reported one (3.4e-6 off at 1).
_FLOOR_C = 100.0


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
    start: str | None = None
    # fit_psd's last gradient mapping relative to the gradient at 0, both
    # in the whitened coordinates B of A = S B S
    gradient_mapping: float | None = None

    def to_dict(self) -> dict:
        return {"format_version": 1, **asdict(self)}


def _uniform_in(rng, box: HyperRectangle, count: int) -> NDArray[np.float64]:
    return box.lower + rng.random((count, box.dim)) * box.side_lengths


def _draw_design(oracle, config, centers, design_points):
    rng = rng_from_seed(config.seed)
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
        except np.linalg.LinAlgError as exc:
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
    return _ridge_fit(X_n, X_m, oracle(X_n), config)


def _ridge_fit(X_n, X_m, g_n, config: FitConfig) -> tuple[RankOneModel, FitReport]:
    """Rank-one model from the evaluations ``g_n`` at the design ``X_n``."""
    eta = np.full(X_m.shape[1], float(config.tau))
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
    winner is refit on all n points with the same centers, reusing their
    evaluations: the oracle is queried n times in all.
    """
    taus = [float(t) for t in taus]
    lams = [float(l) for l in lams]
    if not taus or not lams:
        raise ValueError("need at least one candidate tau and lambda")
    X_n, X_m = _draw_design(oracle, config, None, None)
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
    model, report = _ridge_fit(X_n, X_m, g_n, final_cfg)
    report.holdout = rows
    return model, report


def _top_eigenvalue(apply, mult) -> float:
    """Largest eigenvalue, with a margin, of a PSD operator that is
    self-adjoint in the inner product sum(mult * u * v).

    Power iteration from the all-ones vector.  The whitened operators
    of ``fit_psd`` have signed entries, so nothing guarantees that this
    start overlaps the leading eigenvector; the tests check the result
    against a dense eigensolver on representative fits.  The Rayleigh
    quotient approaches the eigenvalue from below, hence the margin.
    """
    v = np.ones(mult.size)
    rq = 0.0
    for _ in range(_POWER_ITERS):
        v = v / np.sqrt(np.sum(mult * v * v))
        hv = apply(v)
        rq_new = float(np.sum(mult * v * hv))
        if abs(rq_new - rq) <= _POWER_RTOL * rq_new:
            break
        rq, v = rq_new, hv
    return _POWER_MARGIN * rq_new


def _congruence_rows(rows, S, rep, iu, ju) -> NDArray[np.float64]:
    """(S R S)[iu, ju] for each row of ``rows``, read as the unique-pair
    coordinates of a symmetric matrix R (``rep`` expands them to R).

    Two products with an inner dimension of m, where the pair form of
    R -> S R S as an (m(m+1)/2)^2 matrix would need m(m+1)/2."""
    b, m = rows.shape[0], S.shape[0]
    R = (rows[:, rep].reshape(b * m, m) @ S).reshape(b, m, m)
    R = R.transpose(0, 2, 1).reshape(b * m, m) @ S
    return R.reshape(b, m, m)[:, ju, iu]


def _whitened_quadratic(X_n, f_n, X_m, eta, box, lam):
    """The fit's quadratic in the coordinates B of A = S B S.

    Returns (S, H, c): H and c are the quadratic and linear parts in the
    unique-pair coordinates of B, as ``fit_psd`` uses them.  With K_mm's
    eigenpairs (w, V), S = V diag(s) V^T and

        s^2 = max(min(1, w / noise) / max(w, floor), 1 / w_max).

    The regulariser's curvature lambda w^2 along an eigenvector falls to
    the roundoff of G, the pair Gram of the squared model, at
    w = noise = sqrt(eps ||G|| / lambda).  Above floor =
    sqrt(_FLOOR_C) noise, S whitens K exactly, the regulariser becomes
    lambda ||B||^2 there and the roundoff is at most lambda / _FLOOR_C of
    it.  Between noise and floor the scale is held at the floor's.  Below
    noise an eigenvector carries roundoff rather than data, so its scale
    falls with w, down to that of w_max: it moves no faster than it does
    in the coordinates of A.  Both levels are capped at w_max, so
    lambda = 0 gives a scaled identity, and every s is positive, so S is
    invertible and B is PSD exactly when A is.
    """
    m = X_m.shape[0]
    iu, ju, mult, rep = _unique_pairs(m)

    K_nm = kernel_matrix(eta, X_n, X_m)
    C = K_nm.T @ (f_n[:, None] * K_nm)  # sum_i f_i v_i v_i^T
    w, V = np.linalg.eigh(kernel_matrix(eta, X_m))
    H = pair_gram(X_m, eta, box)
    # G M has nonnegative entries, so its largest row sum bounds its
    # spectral radius (Gershgorin)
    g_err = np.finfo(float).eps * float((H @ mult).max())
    noise = w[-1] if lam * w[-1] ** 2 <= g_err else np.sqrt(g_err / lam)
    floor = min(w[-1], np.sqrt(_FLOOR_C) * noise)
    s2 = np.maximum(np.minimum(1.0, w / noise) / np.maximum(w, floor), 1.0 / w[-1])
    S = (V * np.sqrt(s2)) @ V.T
    S = 0.5 * (S + S.T)
    # the regulariser's matrix S K S in place of K
    P = (V * (np.maximum(w, 0.0) * s2)) @ V.T
    Pi, Pj = P[iu], P[ju]

    # H <- T^T H T, with T the pair form of B -> S B S: rows, then
    # columns, in place, one chunk of rows expanded to m^2 at a time
    step = max(1, _CHUNK_ELEMS // (m * m))
    for start in range(0, iu.size, step):
        H[start : start + step] = _congruence_rows(H[start : start + step], S, rep, iu, ju)
    for start in range(0, iu.size, step):
        cols = slice(start, start + step)
        block = _congruence_rows(H[:, cols].T, S, rep, iu, ju)
        # rows of lambda (P (x) P), symmetrized over (i, j) <-> (j, i)
        pi, pj = Pi[cols], Pj[cols]
        block += (0.5 * lam) * (pi[:, iu] * pj[:, ju] + pi[:, ju] * pj[:, iu])
        H[:, cols] = block.T
    H += H.T
    H *= 0.5
    C = S @ C @ S
    return S, H, 0.5 * (C[iu, ju] + C[ju, iu])


def fit_psd(
    oracle: EvaluationOracle,
    config: FitConfig,
    *,
    centers=None,
    design_points=None,
) -> tuple[GaussianPsdModel, FitReport]:
    """Monotone FISTA fit of a full PSD coefficient matrix.

    The oracle must be of kind "nonnegative".  The descent runs in the
    whitened coordinates B of A = S B S (see ``_whitened_quadratic``);
    S is invertible, so B is PSD exactly when A is.  It starts from
    whichever of the projected warm start and B = 0 has the lower
    objective (``report.start``), and runs MFISTA with the fixed step
    1/L, keeping the best iterate, so the objective trace in the report
    is monotone.  It stops once the gradient mapping, measured in B,
    falls to ``_GRAD_TOL`` times the gradient at B = 0; hitting
    ``_MAX_ITERS`` instead emits a ``ConvergenceWarning`` and marks the
    report not converged.
    """
    if oracle.kind != "nonnegative":
        raise ValueError("fit_psd needs a nonnegative oracle")
    X_n, X_m = _draw_design(oracle, config, centers, design_points)
    eta = np.full(oracle.domain.dim, float(config.tau))
    m = config.m

    # Unique-pair coordinates: b = B[iu, ju], and a Frobenius product of
    # symmetric matrices is sum(mult * a * b).  H (m(m+1)/2 square) holds
    # the quadratic part in these coordinates: the Gram of the squared
    # model plus the regulariser, symmetrized over (i, j) <-> (j, i).
    iu, ju, mult, _ = _unique_pairs(m)
    S, H, c = _whitened_quadratic(
        X_n, oracle(X_n), X_m, eta, oracle.domain, float(config.lam)
    )

    def to_matrix(a):
        A = np.empty((m, m))
        A[iu, ju] = a
        A[ju, iu] = a
        return A

    def apply_h(a):
        # the quadratic part as an operator on symmetric matrices; the
        # gradient of the objective is 2 (apply_h(a) - c)
        return H @ (mult * a)

    def objective(a, ha):
        # <B, H B> - 2 <C_B, B> from ha = apply_h(a)
        return float(np.sum(mult * a * (ha - 2.0 * c)))

    # warm start: projected unconstrained minimizer of the quadratic
    try:
        a0 = np.linalg.solve(H, c) / mult
        warm = project_psd(to_matrix(a0))[iu, ju]
    except np.linalg.LinAlgError:
        warm = np.zeros(iu.size)
    h_warm = apply_h(warm)
    start = "warm" if objective(warm, h_warm) < 0.0 else "zero"
    zero = np.zeros(iu.size)
    x, hx = (warm, h_warm) if start == "warm" else (zero, zero)

    # MFISTA (Beck & Teboulle 2009).  The gradient 2 (H a - c) is affine,
    # so at the extrapolated point y it is the same combination of the
    # products at z, x and the previous x: one product per iteration.
    L = 2.0 * _top_eigenvalue(apply_h, mult)
    grad0 = 2.0 * float(np.sqrt(np.sum(mult * c * c)))
    obj = objective(x, hx)
    trace = [obj]
    y, hy = x, hx
    t = 1.0
    iters = 0
    gmap = 0.0
    converged = grad0 == 0.0  # C = 0: A = 0 is the minimizer
    while not converged and iters < _MAX_ITERS:
        iters += 1
        z = project_psd(to_matrix(y - (2.0 / L) * (hy - c)))[iu, ju]
        diff = y - z
        gmap = L * float(np.sqrt(np.sum(mult * diff * diff))) / grad0
        hz = apply_h(z)
        obj_z = objective(z, hz)
        x_prev, hx_prev = x, hx
        if obj_z < obj:
            x, hx, obj = z, hz, obj_z
            trace.append(obj)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        alpha, beta = t / t_next, (t - 1.0) / t_next
        y = x + alpha * (z - x) + beta * (x - x_prev)
        hy = hx + alpha * (hz - hx) + beta * (hx - hx_prev)
        t = t_next
        converged = gmap <= _GRAD_TOL
    if not converged:
        warnings.warn(
            "MFISTA stopped after %d iterations" % iters,
            ConvergenceWarning,
        )
    model = GaussianPsdModel(A=S @ to_matrix(x) @ S, X=X_m, eta=eta, repair=True)
    report = FitReport(
        kind="psd",
        config=config.to_dict(),
        iterations=iters,
        converged=converged,
        objective_trace=trace,
        start=start,
        gradient_mapping=gmap,
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
    if mode_l not in ("tv", "hellinger"):
        raise ValueError("mode must be 'tv' or 'hellinger'")
    log_inv_eps = log(1.0 / epsilon) if epsilon < 1 else 0.0
    tau = epsilon ** (-2.0 / beta)
    nu = None
    if mode_l == "tv":
        lam = epsilon ** (2.0 + 2.0 * d / beta)
        n_lo = epsilon ** (-2.0 - d / beta) * log_inv_eps**d * log(2.0 / delta)
    else:
        lam = epsilon ** (2.0 + d / beta)
        nu = min(1.0, d / (2.0 * beta))
        n_lo = epsilon ** (-2.0 * nu) * log(8.0 / delta)
    m_lo = epsilon ** (-d / beta) * log_inv_eps**d * log(1.0 / (epsilon * delta))
    return ParameterSchedule(
        mode=mode_l,
        epsilon=float(epsilon),
        d=int(d),
        beta=float(beta),
        delta=float(delta),
        tau=float(tau),
        lam=float(lam),
        n_lower=float(n_lo),
        m_lower=float(m_lo),
        nu_tilde=None if nu is None else float(nu),
    )
