"""Distances between the model density and its sampled approximation.

``dyadic_density`` enumerates the sampler's leaves, the cells of the
``boxes.split_axes`` grid whose depth per axis is the halving count of
the box side (row-major; midpoint rounding can leave a side a few ulps
above rho), and attaches the exact model mass to each leaf.
``exact_distances`` then measures total variation, Hellinger and, in one
dimension, the first Wasserstein distance between the normalized model
density and the piecewise-uniform leaf density, with the a priori bounds
that the leaf size guarantees.  One adaptive quadrature pass over all
leaves integrates every distance's integrand, each leaf to its own
tolerance, from one model evaluation per node.  ``empirical_mmd`` is the
V-statistic MMD between two sample sets under the Gaussian kernel
k(x, y) = exp(-eta * ||x - y||^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .boxes import HyperRectangle, split_axes
from .exceptions import EmptyMassError, ResourceLimitError
from .integration import IntegralAccounting, _cell_intervals, integrate_boxes
from .models import lipschitz_bounds
from .quadrature import adaptive_box_quadrature

__all__ = [
    "DyadicDensity",
    "dyadic_density",
    "DistanceReport",
    "exact_distances",
    "empirical_mmd",
]

# dyadic_density refuses partitions with more leaves than this
_LEAF_CAP = 2**24


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

        Points outside the box get 0.  Each point's leaf is found per axis
        among the grid edges the leaves were built from.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.box.dim:
            raise ValueError("point dimension mismatch")
        leaf, inside = self._leaf_of(pts)
        vols = np.prod(self.upper - self.lower, axis=1)
        dens = self.probabilities[leaf] / vols[leaf]
        dens[~inside] = 0.0
        return dens

    def _leaf_of(self, pts):
        """Row-major leaf index of each point (clipped into the box) and
        whether the point lies in the box."""
        edges = _axis_edges(self.box, split_axes(self.box, self.rho))
        bins = [e.size - 1 for e in edges]
        idx = np.array(
            [np.searchsorted(e, x, side="right") - 1 for e, x in zip(edges, pts.T)]
        )
        inside = np.all((idx >= 0) & (idx < np.array(bins)[:, None]), axis=0)
        return np.ravel_multi_index(idx, bins, mode="clip"), inside


def _axis_edges(box: HyperRectangle, axes) -> list[NDArray[np.float64]]:
    """Leaf edges per axis: each side halved at its midpoints as often as
    the schedule ``axes`` names that axis, with the arithmetic of
    ``boxes.bisect``, so the edges are exactly the sampler's."""
    edges = []
    for k, count in enumerate(np.bincount(axes, minlength=box.dim)):
        e = np.array([box.lower[k], box.upper[k]])
        for _ in range(count):
            finer = np.empty(2 * e.size - 1)
            finer[0::2] = e
            finer[1::2] = 0.5 * (e[:-1] + e[1:])
            e = finer
        edges.append(e)
    return edges


def dyadic_density(
    model,
    box: HyperRectangle,
    rho: float,
    acct: IntegralAccounting | None = None,
) -> DyadicDensity:
    """Enumerate the sampler's leaves, row-major, and their exact model masses."""
    if box.dim != model.d:
        raise ValueError("box dimension does not match the model")
    if not box.is_bounded():
        raise ValueError("dyadic enumeration needs a bounded box")
    if not (np.isfinite(rho) and rho > 0):
        raise ValueError("rho must be a positive finite number")
    axes = split_axes(box, rho)
    if axes.size > np.log2(_LEAF_CAP):
        raise ResourceLimitError(
            "partition would have 2^%d leaves (cap %d)" % (axes.size, _LEAF_CAP)
        )
    edges = _axis_edges(box, axes)
    cells = np.indices([e.size - 1 for e in edges]).reshape(box.dim, -1)
    lo = np.stack([e[c] for e, c in zip(edges, cells)], axis=1)
    hi = np.stack([e[c + 1] for e, c in zip(edges, cells)], axis=1)
    tables = [_cell_intervals(e[:-1], e[1:], c) for e, c in zip(edges, cells)]
    masses = integrate_boxes(model, tables, None, acct)
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


def exact_distances(
    model, box: HyperRectangle, rho: float, tol: float = 1e-9
) -> DistanceReport:
    """Quadrature distances between model and leaf densities (d <= 2).

    ``tol`` is each leaf's absolute quadrature error target, not their
    sum's: with L leaves a reported distance can be off by up to L * tol.
    """
    if box.dim > 2:
        raise ValueError("exact distances are quadrature-based and need d <= 2")
    dd = dyadic_density(model, box, rho)
    I_tot = dd.total_mass
    levels = dd.probabilities / np.prod(dd.upper - dd.lower, axis=1)
    # 1-D leaves are enumerated left to right
    cum = np.concatenate(([0.0], np.cumsum(dd.probabilities)))

    def gaps(p):
        f = model.evaluate(p) / I_tot
        j = dd._leaf_of(p)[0]
        c = levels[j]
        cols = [np.abs(f - c), (np.sqrt(f) - np.sqrt(c)) ** 2]
        if box.dim == 1:
            F_model = integrate_boxes(model, np.full_like(p, box.lower[0]), p) / I_tot
            F_leaf = cum[j] + c * (p[:, 0] - dd.lower[j, 0])
            cols.append(np.abs(F_model - F_leaf))
        return np.stack(cols, axis=1)

    sums = adaptive_box_quadrature(gaps, dd.lower, dd.upper, tol_abs=tol).sum(axis=0)
    tv, h2, *w1 = sums

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
        w1=float(w1[0]) if w1 else None,
        tv_bound=None if tv_bound is None else float(tv_bound),
        hellinger_bound=hell_bound,
        w1_bound=float(np.sqrt(box.dim) * rho),
        rho=float(rho),
        leaf_count=dd.leaf_count,
        total_mass=I_tot,
    )


# Rows per block of the MMD kernel sums: a 32 x 1e4 block (2.5 MB) stays in
# cache across its in-place passes, which made a 1e4 x 1e4 sum about 10%
# faster than 512-row blocks on a 2-core Xeon.
_BLOCK_ROWS = 32


# Largest eta * |p - c|^2 over both sets that the factored kernel sum
# takes.  Up to it the factors exp(-eta |p - c|^2) stay above exp(-300)
# and exp(2 eta x.y) below exp(600), both far inside the double range
# (exp overflows above 709.78 and leaves the normals below -708.4);
# beyond it the factors could overflow or underflow to 0.
_FACTOR_LIMIT = 300.0


def _kernel_sum(X, Y, eta, symmetric: bool = False) -> float:
    """Sum of exp(-eta * ||x - y||^2) over all pairs of rows of X and Y.

    Both sets are shifted by c, the midpoint of the bounding box of their
    union, and the kernel factors as a_x * b_y * exp(2 eta x.y) with
    a_x = exp(-eta |x|^2) and b_y = exp(-eta |y|^2) on the shifted rows.
    Each block of rows takes one matmul with 2 eta Y^T (inner dimension d)
    into one reused buffer, an in-place exp, a product with b and a dot
    with a.  With ``symmetric`` (Y is X) only blocks on and above the
    diagonal are formed and the strict upper part counts twice.  Where
    2 eta overflows or eta |p - c|^2 exceeds ``_FACTOR_LIMIT`` at some
    point, the shifted sets go to ``_clamped_kernel_sum`` instead.
    """
    eta = float(eta)
    lo, hi = X.min(axis=0), X.max(axis=0)
    if not symmetric:
        lo, hi = np.minimum(lo, Y.min(axis=0)), np.maximum(hi, Y.max(axis=0))
    center = 0.5 * (lo + hi)
    X = X - center
    Y = X if symmetric else Y - center
    # squared norms of the shifted rows, made into the factors a and b below
    a = np.einsum("ij,ij->i", X, X)
    b = a if symmetric else np.einsum("ij,ij->i", Y, Y)
    # as a quotient, so that a huge eta cannot overflow the test itself
    if not (np.isfinite(2.0 * eta) and max(a.max(), b.max()) <= _FACTOR_LIMIT / eta):
        return _clamped_kernel_sum(X, Y, eta, symmetric)
    a = np.exp(-eta * a)
    b = a if symmetric else np.exp(-eta * b)
    # scaled in place where Y is a shifted copy of the caller's set
    Y2 = 2.0 * eta * X if symmetric else np.multiply(Y, 2.0 * eta, out=Y)
    n, m = X.shape[0], Y2.shape[0]
    buf = np.empty(min(_BLOCK_ROWS, n) * m)
    total = 0.0
    for start in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - start)
        first = start if symmetric else 0
        out = buf[: rows * (m - first)].reshape(rows, m - first)
        np.matmul(X[start : start + rows], Y2[first:].T, out=out)
        np.exp(out, out=out)
        if symmetric:
            diag = first + rows
            row_sums = out[:, :rows] @ b[first:diag] + 2.0 * (out[:, rows:] @ b[diag:])
        else:
            row_sums = out @ b
        total += float(a[start : start + rows] @ row_sums)
    return total


def _clamped_kernel_sum(X, Y, eta, symmetric: bool = False) -> float:
    """``_kernel_sum`` for any finite eta and spread of the sets.

    Each block of rows takes one matmul of the augmented operands
    [x, -|x|^2, 1] and [2y, 1, -|y|^2] into one reused buffer; the clamp
    at 0, the scaling by eta and the exp run in place.  With
    ``symmetric`` (Y is X) only blocks on and above the diagonal are
    formed and the strict upper part counts twice.
    """
    n, m = X.shape[0], Y.shape[0]
    x2 = np.einsum("ij,ij->i", X, X)
    y2 = x2 if symmetric else np.einsum("ij,ij->i", Y, Y)
    Xa = np.column_stack([X, -x2, np.ones(n)])
    Ya = np.column_stack([2.0 * Y, np.ones(m), -y2])
    buf = np.empty(min(_BLOCK_ROWS, n) * m)
    total = 0.0
    # eta scales only values <= 0: an overflow to -inf is a kernel value of 0
    with np.errstate(over="ignore"):
        for start in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - start)
            first = start if symmetric else 0
            out = buf[: rows * (m - first)].reshape(rows, m - first)
            np.matmul(Xa[start : start + rows], Ya[first:].T, out=out)
            np.minimum(out, 0.0, out=out)
            out *= eta
            np.exp(out, out=out)
            if symmetric:
                total += float(out[:, :rows].sum()) + 2.0 * float(out[:, rows:].sum())
            else:
                total += float(out.sum())
    return total


def _as_samples(samples) -> NDArray[np.float64]:
    return np.atleast_2d(np.asarray(samples, dtype=float))


def _check_samples(X, eta) -> None:
    if X.shape[0] == 0:
        raise ValueError("sample sets must be non-empty")
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError("eta must be positive and finite")
    if not np.isfinite(X).all():
        raise ValueError("sample sets must be finite")


def _self_sum(samples, eta) -> float:
    """Kernel sum of one sample set with itself, for a caller that compares
    the set with several others and passes the sum to ``_mmd`` each time."""
    X = _as_samples(samples)
    _check_samples(X, eta)
    return _kernel_sum(X, X, eta, symmetric=True)


def _mmd(samples_p, samples_q, eta, p_sum=None, q_sum=None) -> float:
    """``empirical_mmd``, reusing either self-sum a caller already has."""
    P = _as_samples(samples_p)
    Q = _as_samples(samples_q)
    if P.shape[1] != Q.shape[1]:
        raise ValueError("sample sets must share a dimension")
    _check_samples(P, eta)
    _check_samples(Q, eta)
    # The self-sums add triangle blocks and the cross sum full rows, so they
    # round differently; identical sets are at distance exactly 0.
    if P.shape == Q.shape and np.array_equal(P, Q):
        return 0.0
    if p_sum is None:
        p_sum = _kernel_sum(P, P, eta, symmetric=True)
    if q_sum is None:
        q_sum = _kernel_sum(Q, Q, eta, symmetric=True)
    n, m = P.shape[0], Q.shape[0]
    val = p_sum / (n * n) + q_sum / (m * m) - 2.0 * _kernel_sum(P, Q, eta) / (n * m)
    return float(np.sqrt(max(val, 0.0)))


def empirical_mmd(samples_p, samples_q, eta: float) -> float:
    """Kernel maximum mean discrepancy between two samples.

    Uses the V-statistic with the isotropic Gaussian kernel at precision
    eta; tiny negative squares from cancellation are clamped at zero
    before the square root.  Sample sets must be non-empty and finite.
    """
    return _mmd(samples_p, samples_q, eta)
