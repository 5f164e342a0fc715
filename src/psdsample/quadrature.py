"""Panel-adaptive Gauss-Legendre quadrature over batches of small boxes.

The distance computations integrate a few integrands over each of
thousands of low-dimensional leaves, so one adaptive pass runs all
leaves' panels and evaluates every integrand at the same nodes.  Panels
are bisected along their longest side until, per integrand, a panel's
estimate and the sum over its halves differ by less than its volume's
share of its own box's absolute tolerance; a panel stays open while any
integrand fails it, and each integrand keeps the first estimate it passes.
"""

from __future__ import annotations

import numpy as np

from .boxes import bisect
from .exceptions import ResourceLimitError

__all__ = ["adaptive_box_quadrature"]

# one 12-point Gauss-Legendre rule per axis, computed once
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)

# most points per integrand call, so the integrand's temporaries do not
# grow with the number of boxes
_BLOCK_POINTS = 2**15
# most panels one box may use before the integrand counts as too rough
_MAX_PANELS = 500_000


def _tensor_rule(d: int):
    """Points (12**d, d) and weights (12**d,) of the tensor rule on [-1, 1]^d."""
    grids = np.meshgrid(*[_NODES] * d, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.prod(np.meshgrid(*[_WEIGHTS] * d, indexing="ij"), axis=0).ravel()
    return points, weights


_RULES = {d: _tensor_rule(d) for d in (1, 2)}


def _panel_estimates(fn, lo, hi):
    """Tensor Gauss-Legendre estimate on each (lo, hi) panel, of shape
    (P,) plus the shape of one point's integrand values."""
    P, d = lo.shape
    points, w = _RULES[d]
    step = max(1, _BLOCK_POINTS // w.size)
    out = []
    for s in range(0, P, step):
        c = 0.5 * (lo[s : s + step] + hi[s : s + step])
        h = 0.5 * (hi[s : s + step] - lo[s : s + step])
        pts = c[:, None, :] + h[:, None, :] * points[None, :, :]
        vals = fn(pts.reshape(-1, d))
        vals = vals.reshape(c.shape[0], w.size, *vals.shape[1:])
        out.append(np.einsum("pn,pn...->p...", np.prod(h, axis=1)[:, None] * w, vals))
    return np.concatenate(out)


def adaptive_box_quadrature(fn, lower, upper, tol_abs: float = 1e-9):
    """Integrate a vectorized function over each of a batch of 1D or 2D boxes.

    ``lower`` and ``upper`` are (L, d) corner arrays, or (d,) for one box.
    ``fn`` maps an (n, d) array of points to n values, or to (n, k) values
    of k integrands.  Each box gets the absolute error target ``tol_abs``
    and at most ``_MAX_PANELS`` panels.  Returns the integrals as (L,) or
    (L, k), without the leading axis for one box.
    """
    lo = np.atleast_2d(np.asarray(lower, dtype=float))
    hi = np.atleast_2d(np.asarray(upper, dtype=float))
    if lo.shape != hi.shape or np.any(lo > hi):
        raise ValueError("corner arrays must match, with lower <= upper")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("quadrature needs a bounded box")
    if lo.shape[1] not in _RULES:
        raise ValueError("quadrature supports 1 or 2 dimensions")
    if not (np.isfinite(tol_abs) and tol_abs > 0):
        raise ValueError("quadrature tolerance must be positive and finite")

    L = lo.shape[0]
    first = _panel_estimates(fn, lo, hi)
    cell_vol = np.prod(hi - lo, axis=1)
    # open panels, their boxes and which integrands still need them;
    # degenerate boxes integrate to 0
    cells = np.flatnonzero(cell_vol > 0.0)
    lo, hi, parent = lo[cells], hi[cells], first.reshape(L, -1)[cells]
    live = np.ones(parent.shape, dtype=bool)
    total = np.zeros((L, parent.shape[1]))
    used = np.ones(L, dtype=np.int64)
    while cells.size > 0:
        share = 0.5 * tol_abs * np.prod(hi - lo, axis=1) / cell_vol[cells]
        l_hi, r_lo = bisect(lo, hi, np.argmax(hi - lo, axis=1))
        lo, hi = np.concatenate([lo, r_lo]), np.concatenate([l_hi, hi])
        est = _panel_estimates(fn, lo, hi).reshape(lo.shape[0], -1)
        refined = est[: cells.size] + est[cells.size :]
        passed = np.abs(parent - refined) <= share[:, None]
        np.add.at(total, cells, np.where(live & passed, refined, 0.0))
        live &= ~passed
        keep = np.tile(live.any(axis=1), 2)
        cells, lo, hi = np.tile(cells, 2)[keep], lo[keep], hi[keep]
        parent, live = est[keep], np.tile(live, (2, 1))[keep]
        used += np.bincount(cells, minlength=L)
        if used.max() > _MAX_PANELS:
            raise ResourceLimitError(
                "quadrature exceeded %d panels in one box; integrand is too "
                "rough for the requested tolerance" % _MAX_PANELS
            )
    total = total.reshape(first.shape)
    return total[0] if np.ndim(lower) == 1 else total
