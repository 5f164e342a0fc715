"""Closed-form integrals of Gaussian PSD models over hyper-rectangles.

The product of two centered kernels collapses to a single kernel at the
pair midpoint,

    k_eta(x, x_i) k_eta(x, x_j)
        = k_{eta/2}(x_i, x_j) * k_{2 eta}(x, (x_i + x_j) / 2),

so the integral of the model over a box Q factors into m^2 terms, each a
product of one-dimensional Gaussian integrals expressed through erf.  The
closed form of a finite box has 2 * d * m^2 erf terms; infinite endpoints
substitute erf(+-inf) = +-1 and are not counted.  ``erf_calls`` reports
that term count, which the tests pin, not the erfs actually evaluated.
The evaluation does less work.  The (i, j) and (j, i) terms are
identical, so each unique pair is evaluated once.  Each axis of a set of
boxes has distinct edges and (lower, upper) intervals; erf(s (edge - mid))
is evaluated once per distinct edge and unique pair, and their
difference erf(s (hi - mid)) - erf(s (lo - mid)) is tabulated per
interval.  A caller whose boxes are cells of a partition, as the
sampler's levels and dyadic leaf sets are, passes each axis' intervals
(``Intervals``, built by ``_cell_intervals`` without a sort) in place of
corner arrays; float corners sort their edges (``_intervals``), with
the same result.  Each box gathers one table row per axis and multiplies it
into its pair products; ``erf_evals`` counts the erfs taken.  The
products fill a chunk of boxes by pairs, reduced by one product with the
pair weights.  A call finds each axis' intervals once, then works in
one of two ways.  If the tables of the whole call fit the memory budget,
as those of sampler levels and dyadic leaf sets mostly do (a level has
at most 2^c intervals on an axis halved c times), they are built once,
and each block of a chunk's rows gathers and multiplies all d axes while
it is in cache.  Otherwise each chunk tabulates, one axis at a time and
with one table alive, only the call's intervals that its boxes use: two
integer ``np.unique`` calls pick them and their edges out of the call's,
so no chunk goes back to its float corners.

A rank-one model is integrated through its cached full form
(``RankOneModel.to_psd``).  The squared model's Gram comes from one
row-chunked loop over the unique-pair midpoints that yields rows of
c * k_eta(mid_p, mid_q) times a k_{4 eta} erf product, whose erf
differences go through erfc where both bounds lie in one tail.
``integrate_squared`` reduces each chunk with the model's pair weights,
``pair_gram`` folds in the k_{eta/2}(x_i, x_j) factors for the PSD fit,
and ``quartic_gram`` expands that to the full (m^2, m^2) tensor by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray
from scipy.special import erf as _erf
from scipy.special import erfc as _erfc

from .boxes import HyperRectangle
from .exceptions import ResourceLimitError
from .kernels import _unique_pairs, kernel_matrix
from .models import _as_psd

__all__ = [
    "IntegralAccounting",
    "Intervals",
    "integrate",
    "integrate_boxes",
    "integrate_squared",
    "pair_gram",
    "quartic_gram",
]

# elements per chunk array when batching erf over boxes and pairs; 8 MB
# arrays ran integrate_boxes twice as fast as 32 MB ones on a 2-core Xeon.
# Each chunk ends in one acc @ w, whose rounding may depend on its shape,
# so chunk boundaries never move.  integrate_boxes' interval tables share
# the budget: the call's tables of all d axes are kept if they fit it, and
# otherwise each chunk, whose b boxes use at most b of the call's
# intervals per axis, builds one axis' table of those at a time.  With
# the chunk's product rows, the table, the erf rows behind it (up to two
# edges per interval) and a gather temporary, a call peaks near five
# arrays of this size whatever the batch and d, besides the edges and
# interval indices it finds once per axis, which are as long as the
# corner arrays.
_CHUNK_ELEMS = 1_000_000
# elements per block of a chunk's product rows, and of the one row
# buffer that later axes gather into.  With the call's tables kept, each
# block takes the first axis' table rows, then gathers and multiplies in
# each later axis before the next block starts, so block and buffer stay
# in L2 across all d axes instead of making 2d - 1 passes over a chunk.
# On a Xeon with 2 MB of L2 per core, 256 KB blocks ran pipeline-5d's
# level batches 5-15% faster than 128 or 512 KB ones.  A chunk with
# tables of its own gathers one axis over all its blocks, then the next.
_BLOCK_ELEMS = 2**15
# most pair products the quartic closed form may take; past it a Monte
# Carlo estimate of the squared integral is the sane alternative
_PAIR_CAP = 1e8


@dataclass
class IntegralAccounting:
    """Counters for the work spent inside box integrals.

    ``integral_evals`` counts box integrals.  ``erf_calls`` counts the
    closed form's erf terms at finite bounds, 2 * d * m^2 per finite box.
    ``erf_evals`` counts the erfs actually evaluated: one per distinct
    edge per axis and unique pair of each call whose tables fit the
    memory budget, or else of each chunk, infinite edges included.  All
    three only ever grow.
    """

    integral_evals: int = 0
    erf_calls: int = 0
    erf_evals: int = 0

    def add(self, other: "IntegralAccounting") -> None:
        self.integral_evals += other.integral_evals
        self.erf_calls += other.erf_calls
        self.erf_evals += other.erf_evals


class Intervals(NamedTuple):
    """Distinct (lower, upper) intervals of one axis of a batch of boxes.

    ``edges`` holds the sorted distinct edges, ``lo_idx`` and ``hi_idx``
    each interval's lower and upper edge index into them, and ``inv``
    each box's interval index.  Every interval and edge is used by a box.
    """

    edges: NDArray[np.float64]
    lo_idx: NDArray[np.intp]
    hi_idx: NDArray[np.intp]
    inv: NDArray[np.intp]


def _intervals(lo, hi) -> Intervals:
    """The intervals of one axis' float corners.

    One sort of the lower edges finds them when every lower edge meets
    one upper edge, as on sampler levels and dyadic leaf sets; in any
    other batch each box keeps an interval of its own.
    """
    lo_u, inv = np.unique(lo, return_inverse=True)
    hi_u = np.empty_like(lo_u)
    hi_u[inv] = hi
    if not np.array_equal(hi_u[inv], hi):
        # a lower edge meets two upper edges: one interval per box
        lo_u, hi_u, inv = lo, hi, np.arange(hi.size)
    edges, idx = np.unique(np.concatenate((lo_u, hi_u)), return_inverse=True)
    return Intervals(edges, idx[: lo_u.size], idx[lo_u.size :], inv)


def _cell_intervals(lo, hi, inv) -> Intervals:
    """The intervals of one axis whose boxes are cells of a partition,
    found without a sort.

    Cell i spans [lo[i], hi[i]], and the cells come in order, so that
    lo[0] <= hi[0] <= lo[1] <= hi[1] <= ...; box b lies in cell inv[b],
    and every cell holds a box.  Equal neighbours in that sequence are
    one edge: split points that round onto an edge leave zero-width
    cells.  Where a lower edge then bounds two cells, the boxes' float
    corners go to ``_intervals``, so that the result is always the one
    ``_intervals`` finds for the same boxes.
    """
    ends = np.stack((lo, hi), axis=1).ravel()
    new = np.empty(ends.size, dtype=bool)
    new[:1] = True
    np.not_equal(ends[1:], ends[:-1], out=new[1:])
    rank = np.cumsum(new) - 1
    lo_idx = rank[0::2]
    if np.any(lo_idx[1:] == lo_idx[:-1]):
        return _intervals(lo[inv], hi[inv])
    return Intervals(ends[new], lo_idx, rank[1::2], inv)


def _interval_table(edges, lo_idx, hi_idx, mid_k, s_k):
    """erf(s_k (hi - mid)) - erf(s_k (lo - mid)), intervals by pairs,
    from one erf row per distinct edge."""
    rows = np.subtract.outer(edges, mid_k)
    rows *= s_k
    _erf(rows, out=rows)
    table = rows.take(hi_idx, axis=0)
    table -= rows.take(lo_idx, axis=0)
    return table


def _multiply_rows(dst, table, idx, first, buf):
    """Gather the table rows ``idx`` into ``dst`` for the first axis, or
    multiply them in through ``buf``, which has at least as many rows.
    The indices are in range, and take's default mode="raise" would copy
    through a temporary."""
    if first:
        # the first axis' rows start the product (1.0 * x is x)
        table.take(idx, axis=0, out=dst, mode="clip")
    else:
        row = buf[: len(dst)]
        table.take(idx, axis=0, out=row, mode="clip")
        dst *= row


def integrate_boxes(
    model,
    lowers,
    uppers=None,
    acct: IntegralAccounting | None = None,
) -> NDArray[np.float64]:
    """Integral of the model over a batch of boxes.

    ``lowers`` and ``uppers`` are (B, d) corner arrays (infinities
    allowed).  Or ``lowers`` holds the boxes' d ``Intervals``, one per
    axis, as ``_intervals`` or ``_cell_intervals`` find them, and
    ``uppers`` is None; the result is the same to the bit.  Returns a
    length-B vector, clamped at zero since roundoff can leave residuals
    of order -1e-12 on a PSD model.
    """
    model = _as_psd(model)
    mid, w = model._pair_data
    d = model.d
    if uppers is None:
        axes = list(lowers)
        if len(axes) != d or not all(isinstance(t, Intervals) for t in axes):
            raise ValueError("need one Intervals table per axis, or upper corners")
    else:
        lowers = np.atleast_2d(np.asarray(lowers, dtype=float))
        uppers = np.atleast_2d(np.asarray(uppers, dtype=float))
        if lowers.shape != uppers.shape or lowers.shape[1] != d:
            raise ValueError("corner arrays must both be (B, d)")
        if np.any(np.isnan(lowers)) or np.any(np.isnan(uppers)):
            raise ValueError("box corners must not be NaN")
        if np.any(lowers > uppers):
            raise ValueError("need lower <= upper for every box")
        axes = [_intervals(lowers[:, k], uppers[:, k]) for k in range(d)]

    s = np.sqrt(2.0 * model.eta)  # per-coordinate scale of k_{2 eta}
    # (pi/4)^{d/2} * det(diag(2 eta))^{-1/2}
    c = float(np.prod(np.sqrt(np.pi) / (2.0 * s)))

    B = axes[0].inv.size
    n_pairs = mid.shape[0]
    out = np.empty(B)
    step = max(1, _CHUNK_ELEMS // max(1, n_pairs))
    block = min(step, max(1, _BLOCK_ELEMS // max(1, n_pairs)))
    # A chunk and a block buffer per call, filled in place: fresh multi-MB
    # temporaries for every chunk cost a page fault per 4 KB page.
    acc_buf = np.empty((min(step, B), n_pairs))
    row_buf = np.empty((min(block, B), n_pairs))
    shared = sum(t.lo_idx.size for t in axes) * n_pairs <= _CHUNK_ELEMS
    evals = 0
    if shared:
        # the call's tables fit the budget: build them once for all chunks
        tables = []
        for k, (edges, lo_idx, hi_idx, inv) in enumerate(axes):
            evals += edges.size * n_pairs
            tables.append((_interval_table(edges, lo_idx, hi_idx, mid[:, k], s[k]), inv))
    for start in range(0, B, step):
        stop = min(B, start + step)
        acc = acc_buf[: stop - start]
        blocks = [slice(b0, b0 + block) for b0 in range(0, stop - start, block)]
        if shared:
            # each block of rows takes all d axes while it is in cache
            chunk = [(table, inv[start:stop]) for table, inv in tables]
            for rows in blocks:
                dst = acc[rows]
                for k, (table, inv) in enumerate(chunk):
                    _multiply_rows(dst, table, inv[rows], k == 0, row_buf)
        else:
            for k, (edges, lo_idx, hi_idx, inv) in enumerate(axes):
                # the call's intervals that the chunk's boxes use, and
                # their edges
                used, chunk_inv = np.unique(inv[start:stop], return_inverse=True)
                ends, idx = np.unique(
                    np.concatenate((lo_idx[used], hi_idx[used])), return_inverse=True
                )
                evals += ends.size * n_pairs
                table = _interval_table(
                    edges[ends], idx[: used.size], idx[used.size :], mid[:, k], s[k]
                )
                for rows in blocks:
                    _multiply_rows(acc[rows], table, chunk_inv[rows], k == 0, row_buf)
                del table  # one table alive while the next is built
        out[start:stop] = acc @ w
    if acct is not None:
        # The counter reports the closed form's term count: one erf per
        # pair (i, j) per finite bound, even though symmetric duplicates
        # and shared intervals are evaluated once.
        finite_bounds = 0
        for edges, lo_idx, hi_idx, inv in axes:
            finite = np.isfinite(edges)
            if finite.all():
                finite_bounds += 2 * B
            else:
                for ends in (lo_idx, hi_idx):
                    finite_bounds += int(np.count_nonzero(finite[ends][inv]))
        acct.erf_calls += finite_bounds * model.m**2
        acct.erf_evals += evals
        acct.integral_evals += B
    np.maximum(out, 0.0, out=out)
    return c * out


def integrate(model, box: HyperRectangle, acct: IntegralAccounting | None = None) -> float:
    """Integral of the model over one hyper-rectangle (may be R^d)."""
    if box.dim != model.d:
        raise ValueError("box dimension does not match the model")
    vals = integrate_boxes(model, box.lower[None, :], box.upper[None, :], acct)
    return float(vals[0])


def _check_pair_cap(n_pairs: int) -> None:
    if float(n_pairs) ** 2 > _PAIR_CAP:
        raise ResourceLimitError(
            "quartic closed form needs %.3g pair products (cap %.3g); "
            "use Monte Carlo integration of the squared model instead"
            % (float(n_pairs) ** 2, _PAIR_CAP)
        )


def _erf_diff(hi, lo):
    """erf(hi) - erf(lo) for arrays hi >= lo, accurate in the tails.

    With erf(x) = sign(x) (1 - erfc(|x|)), the constant parts cancel
    exactly when both arguments share a sign, so a box far from the
    centers keeps its relative accuracy where the plain difference of
    two erf values rounding to +-1 would give 0.  Works in place: the
    result is returned in ``lo``, and ``hi`` is overwritten.
    """
    s_hi, s_lo = np.sign(hi), np.sign(lo)
    for x, sign in ((hi, s_hi), (lo, s_lo)):
        np.abs(x, out=x)
        _erfc(x, out=x)
        x *= sign
    lo -= hi
    s_hi -= s_lo
    lo += s_hi
    return lo


def _pair_gram_rows(mid, eta, box: HyperRectangle):
    """Row chunks of the pair Gram of the squared model over a box.

    ``mid`` holds the pair midpoints.  Yields ``(start, stop, rows)``
    with rows[p - start, q] the integral over the box of
    k_{2 eta}(x, mid_p) k_{2 eta}(x, mid_q): collapsing the two midpoints
    leaves c * k_eta(mid_p, mid_q) times the product over axes of the
    k_{4 eta} Gaussian integral at their average.
    """
    n_pairs, d = mid.shape
    s = np.sqrt(4.0 * eta)
    c = float(np.prod(np.sqrt(np.pi) / (2.0 * s)))
    step = max(1, _CHUNK_ELEMS // max(1, n_pairs * d))
    for start in range(0, n_pairs, step):
        stop = min(n_pairs, start + step)
        centers = 0.5 * (mid[start:stop, None, :] + mid[None, :, :])  # (b, pairs, d)
        rows = _erf_diff(s * (box.upper - centers), s * (box.lower - centers)).prod(axis=2)
        rows *= c * kernel_matrix(eta, mid[start:stop], mid)
        yield start, stop, rows


def pair_gram(X, eta, box: HyperRectangle) -> NDArray[np.float64]:
    """Gram matrix of the squared model over the unique center pairs.

    Pairs p = (i, j) with i <= j run in ``np.triu_indices(m)`` order.
    Entry (p, q), with q = (k, l), is the integral over the box of

        k_eta(x, x_i) k_eta(x, x_j) k_eta(x, x_k) k_eta(x, x_l),

    which does not change when i and j (or k and l) swap.  So for a
    symmetric A, with a = A[i, j] and mult = 1 on the diagonal and 2
    elsewhere, (mult a)^T G_s (mult a) integrates the squared model.
    The result is an (m(m+1)/2, m(m+1)/2) symmetric PSD matrix.

    Raises ``ResourceLimitError`` when the (m(m+1)/2)^2 pair products
    exceed ``_PAIR_CAP``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    eta = np.asarray(eta, dtype=float)
    m, d = X.shape
    if box.dim != d:
        raise ValueError("box dimension does not match the centers")
    iu, ju, _, _ = _unique_pairs(m)
    _check_pair_cap(iu.size)
    mid = 0.5 * (X[iu] + X[ju])
    # k_eta(x, x_i) k_eta(x, x_j) = k_{eta/2}(x_i, x_j) k_{2 eta}(x, mid)
    K_half = kernel_matrix(0.5 * eta, X)[iu, ju]
    G = np.empty((iu.size, iu.size))
    for start, stop, rows in _pair_gram_rows(mid, eta, box):
        G[start:stop] = rows
    G *= K_half[:, None]
    G *= K_half[None, :]
    return 0.5 * (G + G.T)


def quartic_gram(X, eta, box: HyperRectangle) -> NDArray[np.float64]:
    """Gram tensor of pairwise kernel products over a box.

    Entry (p, q), with p = (i, j) and q = (k, l) flattened row-major,
    equals the integral over the box of

        k_eta(x, x_i) k_eta(x, x_j) k_eta(x, x_k) k_eta(x, x_l).

    Collapsing pairs to midpoints twice leaves a single k_{4 eta} kernel,
    so each entry is again an erf product.  The result is an
    (m^2, m^2) symmetric PSD matrix; for any coefficient matrix A,
    vec(A)^T G vec(A) integrates the squared model.  It is ``pair_gram``
    expanded by index, since swapping i and j leaves each entry unchanged.

    Raises ``ResourceLimitError`` when the m^4 pair products exceed
    ``_PAIR_CAP``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    m, d = X.shape
    _check_pair_cap(m * m)
    if box.dim != d:
        raise ValueError("box dimension does not match the centers")
    # index of the unique pair (min(i, j), max(i, j)) for every (i, j)
    rep = _unique_pairs(m)[3]
    return pair_gram(X, eta, box)[np.ix_(rep, rep)]


def integrate_squared(model, box: HyperRectangle) -> float:
    """Integral of f^2 over a box via the quartic closed form.

    Accumulates the bilinear form over the (m(m+1)/2)^2 unique pair
    products in row chunks, so memory stays bounded even near the pair
    cap.
    """
    model = _as_psd(model)
    mid, w = model._pair_data
    if box.dim != model.d:
        raise ValueError("box dimension does not match the model")
    _check_pair_cap(mid.shape[0])
    total = 0.0
    for start, stop, rows in _pair_gram_rows(mid, model.eta, box):
        total += float(w[start:stop] @ (rows @ w))
    return max(total, 0.0)
