"""Panel-adaptive Gauss-Legendre quadrature over small boxes.

Used by the distance computations, which need thousands of independent
low-dimensional integrals with vectorized integrands; calling a
scalar-callback routine per leaf would dominate the runtime.  Panels are
bisected along their longest side until the discrepancy between a
panel's estimate and the sum over its halves falls under the panel's
share of the absolute tolerance.
"""

from __future__ import annotations

import numpy as np

from .boxes import HyperRectangle, bisect
from .exceptions import ResourceLimitError

__all__ = ["adaptive_box_quadrature"]

# one 12-point Gauss-Legendre rule per axis, computed once
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(12)


def _tensor_rule(d: int):
    """Points (12**d, d) and weights (12**d,) of the tensor rule on [-1, 1]^d."""
    grids = np.meshgrid(*[_NODES] * d, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    weights = np.prod(np.meshgrid(*[_WEIGHTS] * d, indexing="ij"), axis=0).ravel()
    return points, weights


_RULES = {d: _tensor_rule(d) for d in (1, 2)}


def _panel_estimates(fn, lo, hi):
    """Tensor Gauss-Legendre estimate on each (lo, hi) panel."""
    P, d = lo.shape
    points, w = _RULES[d]
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pts = c[:, None, :] + h[:, None, :] * points[None, :, :]
    vals = fn(pts.reshape(P * w.size, d)).reshape(P, w.size)
    return np.prod(h, axis=1) * (vals @ w)


def adaptive_box_quadrature(
    fn,
    box: HyperRectangle,
    tol_abs: float = 1e-9,
    max_panels: int = 500_000,
) -> float:
    """Integrate a vectorized function over a bounded 1D or 2D box.

    ``fn`` maps an (n, d) array of points to n values.  The absolute
    error target is split across panels in proportion to volume; the
    returned value is the sum of accepted refined estimates.
    """
    if not box.is_bounded():
        raise ValueError("quadrature needs a bounded box")
    if box.dim not in _RULES:
        raise ValueError("quadrature supports 1 or 2 dimensions")
    if not (np.isfinite(tol_abs) and tol_abs > 0):
        raise ValueError("quadrature tolerance must be positive and finite")
    vol_total = box.volume()
    if vol_total == 0.0:
        return 0.0

    lo = box.lower[None, :].copy()
    hi = box.upper[None, :].copy()
    parent = _panel_estimates(fn, lo, hi)
    total = 0.0
    used = 1
    while lo.shape[0] > 0:
        l_hi, r_lo = bisect(lo, hi, np.argmax(hi - lo, axis=1))
        est_l = _panel_estimates(fn, lo, l_hi)
        est_r = _panel_estimates(fn, r_lo, hi)
        refined = est_l + est_r
        vol = np.prod(hi - lo, axis=1)
        done = np.abs(parent - refined) <= 0.5 * tol_abs * vol / vol_total
        total += float(refined[done].sum())
        keep = ~done
        lo = np.concatenate([lo[keep], r_lo[keep]])
        hi = np.concatenate([l_hi[keep], hi[keep]])
        parent = np.concatenate([est_l[keep], est_r[keep]])
        used += 2 * int(keep.sum())
        if used > max_panels:
            raise ResourceLimitError(
                "quadrature exceeded %d panels; integrand is too rough "
                "for the requested tolerance" % max_panels
            )
    return total
