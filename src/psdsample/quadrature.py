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

from .boxes import HyperRectangle, bisect_longest
from .exceptions import ResourceLimitError

__all__ = ["adaptive_box_quadrature"]


def _panel_estimates(fn, lo, hi, nodes, weights):
    """Tensor Gauss-Legendre estimate on each (lo, hi) panel."""
    P, d = lo.shape
    p = nodes.size
    if d == 1:
        pts = 0.5 * (lo + hi)[:, None, :] + 0.5 * (hi - lo)[:, None, :] * nodes[
            None, :, None
        ]
        vals = fn(pts.reshape(P * p, 1)).reshape(P, p)
        return 0.5 * (hi - lo)[:, 0] * (vals @ weights)
    if d == 2:
        nx, ny = np.meshgrid(nodes, nodes, indexing="ij")
        grid = np.stack([nx.ravel(), ny.ravel()], axis=1)  # (p*p, 2)
        w2 = np.outer(weights, weights).ravel()
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        pts = c[:, None, :] + h[:, None, :] * grid[None, :, :]
        vals = fn(pts.reshape(P * p * p, 2)).reshape(P, p * p)
        return h[:, 0] * h[:, 1] * (vals @ w2)
    raise ValueError("quadrature supports 1 or 2 dimensions")


def adaptive_box_quadrature(
    fn,
    box: HyperRectangle,
    tol_abs: float = 1e-9,
    order: int = 12,
    max_panels: int = 500_000,
) -> float:
    """Integrate a vectorized function over a bounded 1D or 2D box.

    ``fn`` maps an (n, d) array of points to n values.  The absolute
    error target is split across panels in proportion to volume; the
    returned value is the sum of accepted refined estimates.
    """
    if not box.is_bounded():
        raise ValueError("quadrature needs a bounded box")
    d = box.dim
    if d not in (1, 2):
        raise ValueError("quadrature supports 1 or 2 dimensions")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    vol_total = box.volume()
    if vol_total == 0.0:
        return 0.0

    lo = box.lower[None, :].copy()
    hi = box.upper[None, :].copy()
    parent = _panel_estimates(fn, lo, hi, nodes, weights)
    total = 0.0
    used = 1
    while lo.shape[0] > 0:
        l_hi, r_lo = bisect_longest(lo, hi)
        est_l = _panel_estimates(fn, lo, l_hi, nodes, weights)
        est_r = _panel_estimates(fn, r_lo, hi, nodes, weights)
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
