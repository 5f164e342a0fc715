"""Reference computations and method properties the benchmark checks.

Nothing here imports psdsample: every reference is computed from the
model parameters or the target formula with numpy, scipy.stats and
math alone, so a fault in the package cannot cancel out of a check.
Each check raises ``CheckFailed`` with the measured quantities.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import chi2

# A chi-square p-value below this fails: a correct sampler trips it once
# in a million runs; with 1e5 draws, the largest cell's mass 10% off
# trips it every time.
P_VALUE_FLOOR = 1e-6
# Bins with fewer expected draws are pooled so the chi-square law holds.
MIN_EXPECTED = 20.0


class CheckFailed(AssertionError):
    """A program output disagrees with a reference or a method property."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- squared-diff-5d: f(x) = (k(x, 1) - k(x, -1))^2, k = exp(-eta |.|^2)


def squared_diff_pdf(x: np.ndarray, eta: float) -> np.ndarray:
    """The target formula, written out rather than taken from the package."""
    plus = np.exp(-eta * np.sum((x - 1.0) ** 2, axis=1))
    minus = np.exp(-eta * np.sum((x + 1.0) ** 2, axis=1))
    return (plus - minus) ** 2


def rejection_draws(
    rng: np.random.Generator, n: int, d: int, eta: float, batch: int = 100_000
) -> np.ndarray:
    """Exact draws of squared-diff on [-1, 1)^d by rejection.

    The density is at most 1 there (both kernels lie in (0, 1]), so a
    uniform proposal with acceptance probability f(x) is exact.
    """
    kept = []
    total = 0
    while total < n:
        x = rng.uniform(-1.0, 1.0, size=(batch, d))
        x = x[rng.random(batch) < squared_diff_pdf(x, eta)]
        kept.append(x)
        total += x.shape[0]
    return np.concatenate(kept)[:n]


def _gauss_1d(a: float, b: float, center: float, prec: float) -> float:
    """Integral of exp(-prec (x - center)^2) over [a, b] via math.erf."""
    s = math.sqrt(prec)
    return 0.5 * math.sqrt(math.pi) / s * (
        math.erf(s * (b - center)) - math.erf(s * (a - center))
    )


def squared_diff_orthant_masses(d: int, eta: float) -> np.ndarray:
    """Mass of each orthant of [-1, 1)^d, in row-major sign order.

    Expanding the square gives three separable terms:
    k(x,1)^2 = prod exp(-2 eta (x_k - 1)^2), the same at -1, and
    k(x,1) k(x,-1) = prod exp(-2 eta x_k^2 - 2 eta).
    Orthant ``i`` takes axis k negative when bit (d-1-k) of i is 0.
    """
    halves = [(-1.0, 0.0), (0.0, 1.0)]
    masses = np.empty(2**d)
    for i in range(2**d):
        plus = minus = cross = 1.0
        for k in range(d):
            a, b = halves[(i >> (d - 1 - k)) & 1]
            plus *= _gauss_1d(a, b, 1.0, 2.0 * eta)
            minus *= _gauss_1d(a, b, -1.0, 2.0 * eta)
            cross *= math.exp(-2.0 * eta) * _gauss_1d(a, b, 0.0, 2.0 * eta)
        masses[i] = plus + minus - 2.0 * cross
    return masses


def orthant_index(x: np.ndarray) -> np.ndarray:
    """Row-major orthant id of each point: bit set where x_k >= 0."""
    bits = (x >= 0.0).astype(np.int64)
    weights = 2 ** np.arange(x.shape[1] - 1, -1, -1)
    return bits @ weights


# --- Gaussian PSD model f(x) = v(x)^T A v(x), v_i(x) = exp(-eta |x - x_i|^2)


def psd_values(A, X, eta, points: np.ndarray) -> np.ndarray:
    """v^T A v from explicit differences, not the package's kernel code."""
    diff = points[:, None, :] - X[None, :, :]
    V = np.exp(-np.sum(eta * diff * diff, axis=2))
    return np.einsum("ni,ij,nj->n", V, A, V)


def gl_cell_masses(
    A, X, eta, lower, upper, cells: int, panels: int = 4, order: int = 10
) -> np.ndarray:
    """Masses of a cells x cells grid over a 2-D box by tensor Gauss-Legendre.

    Each cell is cut into panels x panels pieces with an order-point rule
    per axis.  Returned row-major: entry (i, j) covers axis-0 cell i and
    axis-1 cell j.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    axes_x, axes_w = [], []
    for k in range(2):
        edges = np.linspace(lower[k], upper[k], cells * panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        axes_x.append((mid[:, None] + half[:, None] * nodes).ravel())
        axes_w.append((half[:, None] * weights).ravel())
    gx, gy = np.meshgrid(axes_x[0], axes_x[1], indexing="ij")
    vals = psd_values(A, X, eta, np.stack([gx.ravel(), gy.ravel()], axis=1))
    per_axis = panels * order
    w = np.outer(axes_w[0], axes_w[1]) * vals.reshape(gx.shape)
    return w.reshape(cells, per_axis, cells, per_axis).sum(axis=(1, 3))


def grid_cell_index(x: np.ndarray, lower, upper, cells: int) -> np.ndarray:
    """Row-major id of the equal-width grid cell holding each 2-D point."""
    width = (np.asarray(upper) - np.asarray(lower)) / cells
    idx = np.floor((x - lower) / width).astype(np.int64)
    idx = np.clip(idx, 0, cells - 1)
    return idx[:, 0] * cells + idx[:, 1]


# --- statistics


def chi_square_pvalue(counts: np.ndarray, masses: np.ndarray) -> float:
    """Pearson chi-square p-value of observed counts against masses.

    Bins expecting fewer than MIN_EXPECTED draws are pooled into one.
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(masses, dtype=float) / float(np.sum(masses))
    expected = probs * counts.sum()
    small = expected < MIN_EXPECTED
    if small.any():
        counts = np.append(counts[~small], counts[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    stat = float(np.sum((counts - expected) ** 2 / expected))
    return float(chi2.sf(stat, expected.size - 1))


def direct_mmd(P: np.ndarray, Q: np.ndarray, eta: float) -> float:
    """Gaussian-kernel MMD V-statistic from explicit pairwise differences."""

    def mean_kernel(a, b):
        diff = a[:, None, :] - b[None, :, :]
        return float(np.exp(-eta * np.sum(diff * diff, axis=2)).mean())

    val = mean_kernel(P, P) + mean_kernel(Q, Q) - 2.0 * mean_kernel(P, Q)
    return math.sqrt(max(val, 0.0))


# --- checks


def check_draws(draws: np.ndarray, n: int, lower, upper, what: str) -> None:
    """N finite draws, every one inside the half-open box."""
    draws = np.asarray(draws)
    require(
        draws.shape == (n, len(lower)),
        f"{what}: draws have shape {draws.shape}, expected {(n, len(lower))}",
    )
    inside = np.all((draws >= lower) & (draws < upper), axis=1)
    require(bool(inside.all()), f"{what}: {int((~inside).sum())} draws outside the box")


def check_chi_square(counts, masses, what: str) -> float:
    p = chi_square_pvalue(counts, masses)
    require(p >= P_VALUE_FLOOR, f"{what}: chi-square p-value {p:.3e} < {P_VALUE_FLOOR:g}")
    return p


def integral_budget(n: int, lower, upper, rho: float) -> float:
    """The paper's cap on box integrals of one sampling run."""
    sides = np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float)
    log_vol = float(np.sum(np.log2(sides)))
    return n * max(0.0, log_vol) + n * sides.size * math.log2(2.0 / rho) + 1.0


def check_integral_accounting(
    integral_evals: int, erf_calls: int, n: int, lower, upper, rho: float, m: int
) -> None:
    """Integrals within the paper's budget; 2 d m^2 erf terms per finite box."""
    budget = integral_budget(n, lower, upper, rho)
    require(
        integral_evals <= budget,
        f"{integral_evals} box integrals exceed the budget {budget:.0f}",
    )
    d = len(lower)
    require(
        erf_calls == 2 * d * m * m * integral_evals,
        f"erf_calls {erf_calls} != 2*d*m^2*integral_evals = "
        f"{2 * d * m * m * integral_evals}",
    )


def check_objective_trace(trace) -> None:
    """Projected gradient never raises the objective and ends at or below 0,
    the objective of A = 0."""
    trace = [float(v) for v in trace]
    rises = [i for i in range(1, len(trace)) if trace[i] > trace[i - 1]]
    require(not rises, f"objective rises at steps {rises[:5]}")
    require(trace[-1] <= 0.0, f"final objective {trace[-1]:.6g} > 0, the value at A = 0")


def check_distances(tv: float, hellinger: float, tv_bound: float) -> None:
    """hellinger^2 <= tv pointwise, and tv <= the leaf-size guarantee."""
    require(
        hellinger**2 <= tv * (1.0 + 1e-9),
        f"hellinger^2 {hellinger**2:.6g} > tv {tv:.6g}",
    )
    require(tv <= tv_bound, f"tv {tv:.6g} > tv_bound {tv_bound:.6g}")


def check_noise_floor(mmd: float, floor: float, factor: float) -> None:
    """The draws' MMD to the reference stays within ``factor`` times the
    MMD between two sets of exact draws."""
    require(mmd <= factor * floor,
            f"MMD {mmd:.5f} > {factor:g} x noise floor {floor:.5f}")


def check_close(got: float, want: float, rtol: float, what: str) -> None:
    require(
        abs(got - want) <= rtol * abs(want),
        f"{what}: {got!r} vs reference {want!r} (rtol {rtol:g})",
    )
