"""Distances between the model density and its sampled approximation.

``dyadic_density`` enumerates the partition the sampler induces (every
side of the box halved until no longer than rho, longest side first)
and attaches the exact model mass to each leaf.  ``exact_distances``
then measures total variation, Hellinger and, in one dimension, the
first Wasserstein distance between the normalized model density and the
piecewise-uniform leaf density, together with the a priori bounds that
the leaf size guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .boxes import HyperRectangle, bisect_longest, halving_counts
from .exceptions import EmptyMassError, ResourceLimitError
from .integration import IntegralAccounting, integrate_boxes
from .models import lipschitz_bounds
from .quadrature import adaptive_box_quadrature

__all__ = [
    "DyadicDensity",
    "dyadic_density",
    "DistanceReport",
    "exact_distances",
    "empirical_mmd",
]


@dataclass(frozen=True)
class DyadicDensity:
    """Piecewise-uniform density on the sampler's leaf partition."""

    box: HyperRectangle
    rho: float
    lower: NDArray[np.float64]  # (L, d)
    upper: NDArray[np.float64]  # (L, d)
    masses: NDArray[np.float64]  # (L,)
    total_mass: float

    @property
    def leaf_count(self) -> int:
        return self.masses.size

    @property
    def probabilities(self) -> NDArray[np.float64]:
        return self.masses / self.total_mass

    def density_values(self, points) -> NDArray[np.float64]:
        """Density of the leaf distribution at the given points.

        Points outside the box get 0.  Leaf lookup uses the per-axis
        dyadic index, which matches the recursion's edges because those
        are midpoint halvings of the same box.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        counts = halving_counts(self.box, self.rho)
        axis_bins = (2**counts).astype(np.int64)
        widths = self.box.side_lengths / axis_bins
        rel = (pts - self.box.lower) / widths
        idx = np.floor(rel).astype(np.int64)
        inside = np.all((idx >= 0) & (idx < axis_bins), axis=1)
        idx = np.clip(idx, 0, axis_bins - 1)
        flat = np.ravel_multi_index(idx.T, axis_bins)
        # map row-major cell ids to the enumeration order of the leaves
        leaf_idx = np.round(
            (self.lower - self.box.lower) / widths
        ).astype(np.int64)
        order = np.ravel_multi_index(leaf_idx.T, axis_bins)
        lookup = np.empty(int(np.prod(axis_bins)), dtype=np.int64)
        lookup[order] = np.arange(self.leaf_count)
        leaf_of_point = lookup[flat]
        vols = np.prod(self.upper - self.lower, axis=1)
        dens = self.probabilities[leaf_of_point] / vols[leaf_of_point]
        dens[~inside] = 0.0
        return dens


def dyadic_density(
    model,
    box: HyperRectangle,
    rho: float,
    leaf_cap: int = 2**24,
    acct: IntegralAccounting | None = None,
) -> DyadicDensity:
    """Enumerate the sampler's leaves and their exact model masses."""
    if box.dim != model.d:
        raise ValueError("box dimension does not match the model")
    if not box.is_bounded():
        raise ValueError("dyadic enumeration needs a bounded box")
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("rho must be a positive finite number")
    counts = halving_counts(box, rho)
    depth = int(counts.sum())
    if depth > np.log2(leaf_cap):
        raise ResourceLimitError(
            "partition would have 2^%d leaves (cap %d)" % (depth, leaf_cap)
        )
    lo = box.lower[None, :].copy()
    hi = box.upper[None, :].copy()
    for _ in range(depth):
        sides = hi - lo
        split = np.any(sides > rho, axis=1)
        if not np.any(split):
            break
        slo, shi = lo[split], hi[split]
        l_hi, r_lo = bisect_longest(slo, shi)
        lo = np.concatenate([lo[~split], slo, r_lo])
        hi = np.concatenate([hi[~split], l_hi, shi])
    masses = integrate_boxes(model, lo, hi, acct)
    total = float(masses.sum())
    if total <= 0.0:
        raise EmptyMassError("model has zero mass on the requested box")
    return DyadicDensity(
        box=box, rho=float(rho), lower=lo, upper=hi, masses=masses, total_mass=total
    )


@dataclass(frozen=True)
class DistanceReport:
    """Measured distances and the guarantees implied by the leaf size.

    ``w1`` is only available in one dimension; the Hellinger bound needs
    the rank-one vector and the variation bounds need an isotropic
    model, so any of the bound fields may be None.
    """

    tv: float
    hellinger: float
    w1: float | None
    tv_bound: float | None
    hellinger_bound: float | None
    w1_bound: float
    rho: float
    leaf_count: int
    total_mass: float


def _cdf_1d(model, origin: float, xs: NDArray[np.float64]) -> NDArray[np.float64]:
    lowers = np.full((xs.size, 1), origin)
    uppers = xs[:, None]
    return integrate_boxes(model, lowers, uppers, None)


def exact_distances(
    model, box: HyperRectangle, rho: float, tol: float = 1e-9
) -> DistanceReport:
    """Quadrature distances between model and leaf densities (d <= 2)."""
    if box.dim > 2:
        raise ValueError("exact distances are quadrature-based and need d <= 2")
    dd = dyadic_density(model, box, rho)
    I_tot = dd.total_mass
    vols = np.prod(dd.upper - dd.lower, axis=1)
    levels = dd.probabilities / vols  # leaf density values

    tv = 0.0
    h2 = 0.0
    for i in range(dd.leaf_count):
        leaf = HyperRectangle(dd.lower[i], dd.upper[i])
        c = levels[i]
        tv += adaptive_box_quadrature(
            lambda p: np.abs(model.evaluate(p) / I_tot - c), leaf, tol_abs=tol
        )
        h2 += adaptive_box_quadrature(
            lambda p: (np.sqrt(model.evaluate(p) / I_tot) - np.sqrt(c)) ** 2,
            leaf,
            tol_abs=tol,
        )

    w1 = None
    if box.dim == 1:
        order = np.argsort(dd.lower[:, 0])
        cum = np.concatenate(([0.0], np.cumsum(dd.probabilities[order])))
        lo_sorted = dd.lower[order, 0]
        level_sorted = levels[order]
        a0 = float(box.lower[0])
        w1 = 0.0
        for j in range(dd.leaf_count):
            leaf = HyperRectangle(dd.lower[order[j]], dd.upper[order[j]])

            def gap(p, j=j):
                x = p[:, 0]
                F_model = _cdf_1d(model, a0, x) / I_tot
                F_leaf = cum[j] + level_sorted[j] * (x - lo_sorted[j])
                return np.abs(F_model - F_leaf)

            w1 += adaptive_box_quadrature(gap, leaf, tol_abs=tol)

    tv_bound = None
    hell_bound = None
    try:
        lips = lipschitz_bounds(model)
    except ValueError:
        lips = None
    vol_box = box.volume()
    if lips is not None:
        tv_bound = vol_box / I_tot * lips.lip_f * rho
        if lips.lip_sqrt_f is not None:
            hell_bound = float(np.sqrt(vol_box / I_tot) * lips.lip_sqrt_f * rho)
    return DistanceReport(
        tv=float(tv),
        hellinger=float(np.sqrt(max(h2, 0.0))),
        w1=None if w1 is None else float(w1),
        tv_bound=None if tv_bound is None else float(tv_bound),
        hellinger_bound=hell_bound,
        w1_bound=float(np.sqrt(box.dim) * rho),
        rho=float(rho),
        leaf_count=dd.leaf_count,
        total_mass=I_tot,
    )


def _kernel_sum(Xa, Xb, eta, chunk: int = 512) -> float:
    """Sum of exp(-eta * ||x - y||^2) over all pairs, row-chunked."""
    total = 0.0
    nb2 = np.sum(Xb * Xb, axis=1)
    for start in range(0, Xa.shape[0], chunk):
        block = Xa[start : start + chunk]
        sq = (
            np.sum(block * block, axis=1)[:, None]
            + nb2[None, :]
            - 2.0 * (block @ Xb.T)
        )
        np.maximum(sq, 0.0, out=sq)
        total += float(np.exp(-eta * sq).sum())
    return total


def empirical_mmd(samples_p, samples_q, eta: float) -> float:
    """Kernel maximum mean discrepancy between two samples.

    Uses the V-statistic with the isotropic Gaussian kernel at precision
    eta; tiny negative squares from cancellation are clamped at zero
    before the square root.
    """
    P = np.atleast_2d(np.asarray(samples_p, dtype=float))
    Q = np.atleast_2d(np.asarray(samples_q, dtype=float))
    if P.shape[1] != Q.shape[1]:
        raise ValueError("sample sets must share a dimension")
    if P.shape[0] == 0 or Q.shape[0] == 0:
        raise ValueError("sample sets must be non-empty")
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError("eta must be positive and finite")
    n, m = P.shape[0], Q.shape[0]
    val = (
        _kernel_sum(P, P, eta) / (n * n)
        + _kernel_sum(Q, Q, eta) / (m * m)
        - 2.0 * _kernel_sum(P, Q, eta) / (n * m)
    )
    return float(np.sqrt(max(val, 0.0)))
