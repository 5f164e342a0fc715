"""Rejection-free i.i.d. sampling from a Gaussian PSD model on a box.

The sampler halves every box of a level on the axis ``boxes.split_axes``
names for that level and splits the sample count between the halves
with an exact binomial draw on the mass ratio q: the binomial quantile
of one uniform u.  Most nodes hold one draw, and for them the quantile
is the comparison u > 1 - q; only nodes with more draws, and the rare
u in a band around 1 - q where the comparison and the quantile function
could round apart, call the quantile function, so every draw is the
same as by the quantile alone.  A leaf is a cell of the
grid whose depth per axis is the halving count of the box side to rho
(``metrics.dyadic_density`` lists them row-major; midpoint rounding can
leave a side a few ulps above rho); inside it, points are uniform.  A
final random permutation makes the output exchangeable, so the N points
are i.i.d. from the piecewise-uniform density the leaves define.

Each visited internal node costs exactly one box integral: the left
child is integrated, the right child's mass is the difference.  With
the root integral that keeps the total at

    N * max(0, log2(vol(Q))) + N * d * log2(2 / rho) + 1

box integrals, each counted as 2 * d * m^2 erf terms in ``erf_calls``.
The boxes of one level share their intervals, at most 2^c on an axis
halved c times, so the batched integral evaluates erf once per
distinct edge, axis and unique pair (``erf_evals``), far fewer erfs
than that count, and tabulates their differences per interval.

The recursion is one walk over the ``split_axes`` schedule, the boxes
of a level batched into single vectorized calls; a child whose computed
mass is zero gets no draws.  The children that get draws, left halves
first, are gathered by one index per level and take the split value
on the halved axis.  The leaves are filled once, after the last
level, and the final permutation alone orders the output.  Randomness
comes from one counter-based Philox stream keyed on the seed: binomial
uniforms level by level, then leaf uniforms, then the permutation.
Identical seed and inputs reproduce the run bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
# binom.ppf's kernel and the binomial cdf and survival function;
# scipy.stats would add about 0.9 s to every import
from scipy.special._ufuncs import _binom_ppf as _ppf_kernel
from scipy.special._ufuncs import bdtr, bdtrc

from .boxes import HyperRectangle, left_halves, rng_from_seed, split_axes
from .exceptions import EmptyMassError, ResourceLimitError, UnboundedDomainError
from .integration import IntegralAccounting, integrate, integrate_boxes
from .models import lipschitz_bounds

__all__ = [
    "SamplerParams",
    "SampleRun",
    "sample",
    "adaptive_rho",
    "find_support",
    "integral_budget",
    "read_samples_csv",
    "write_samples_csv",
]

# find_support gives up after this many doublings of its box
_MAX_DOUBLINGS = 200
# rows per block that write_samples_csv converts to Python floats
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SamplerParams:
    """Leaf size, sample count and RNG seed for one sampling run."""

    rho: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError("rho must be a positive finite number")
        if not (isinstance(self.n_samples, (int, np.integer)) and self.n_samples >= 0):
            raise ValueError("n_samples must be a nonnegative integer")
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass
class SampleRun:
    """Samples plus the instrumentation of the run that produced them."""

    samples: NDArray[np.float64]
    accounting: IntegralAccounting
    rho_used: float
    leaf_count: int


def integral_budget(box: HyperRectangle, rho: float, n_samples: int) -> float:
    """Cap on box integrals for a sampling run (one per visited node)."""
    vol = box.volume()
    return (
        n_samples * max(0.0, np.log2(vol))
        + n_samples * box.dim * np.log2(2.0 / rho)
        + 1.0
    )


# binom.ppf's kernel brackets the quantile on the probability u, and the
# bracketing fails, warns and can return a k one off where u or 1 - u is
# below about 6e-14 (seen in a scan of 2.4M extreme (u, n, q) triples);
# within this margin of 0 or 1 the quantile is found by bisection instead
_PPF_TAIL = 2.0**-40


def _binom_ppf(u, n, q) -> NDArray[np.float64]:
    """Binomial quantile: the smallest k with P(X <= k) >= u, X ~ Bin(n, q).

    ``binom.ppf``'s kernel computes it, except for u within ``_PPF_TAIL``
    of 0 or 1.  There a bisection on k in [0, n] compares the cdf with u
    or, above 1/2, the survival function with 1 - u, which is exact.
    """
    tail = np.abs(u - 0.5) > 0.5 - _PPF_TAIL
    if not tail.any():
        return _ppf_kernel(u, n, q)
    k = np.empty(u.shape)
    body = ~tail
    k[body] = _ppf_kernel(u[body], n[body], q[body])
    u, n, q = u[tail], n[tail], q[tail]
    # lo is below the quantile, hi at or above it
    lo = np.full(u.size, -1, dtype=np.int64)
    hi = n.astype(np.int64)
    while (open_ := hi - lo > 1).any():
        mid = np.maximum((lo + hi) // 2, 0)
        at_or_above = np.where(u > 0.5, bdtrc(mid, n, q) <= 1.0 - u, bdtr(mid, n, q) >= u)
        lo = np.where(open_ & ~at_or_above, mid, lo)
        hi = np.where(open_ & at_or_above, mid, hi)
    k[tail] = hi
    return k


def _binomial_inversion(
    rng: np.random.Generator, n: NDArray[np.int64], q: NDArray[np.float64]
) -> NDArray[np.int64]:
    """Exact binomial draws via quantile inversion of one uniform each.

    A node with n = 1 draws k = (u > 1 - q), the Bernoulli quantile.
    Where that comparison and ``_binom_ppf`` could round apart, u within
    1e-14 (1 - q) of 1 - q, the node goes to ``_binom_ppf`` as every node
    with n != 1 does.  So k is the binomial quantile of u at every node,
    u = 0 with q = 1 included.
    """
    u = rng.random(n.size)
    p = 1.0 - q
    k = (u > p).astype(np.int64)
    exact = np.flatnonzero((n != 1) | (np.abs(u - p) <= 1e-14 * p))
    n_exact = n[exact]
    k_exact = _binom_ppf(u[exact], n_exact, q[exact])
    k[exact] = np.clip(k_exact, 0, n_exact).astype(np.int64)
    return k


def sample(model, box: HyperRectangle, params: SamplerParams) -> SampleRun:
    """Draw ``params.n_samples`` i.i.d. points from the model on ``box``.

    Raises ``UnboundedDomainError`` for an unbounded box (run
    ``find_support`` first) and ``EmptyMassError`` when the model's mass
    on the box is zero.  Leaves are the cells of the ``split_axes`` grid.
    A child gets draws only if its computed mass is positive (a zero-mass
    right half sends them all left), so every box the walk keeps has
    positive mass and count, and ``left_mass / mass`` never divides by 0.
    """
    if box.dim != model.d:
        raise ValueError("box dimension does not match the model")
    if not box.is_bounded():
        raise UnboundedDomainError(
            "sampling needs a bounded box; use find_support to get one"
        )
    n_total = int(params.n_samples)
    d = box.dim
    rng = rng_from_seed(params.seed)
    acct = IntegralAccounting()
    root_mass = integrate(model, box, acct)
    rho = float(params.rho)
    if n_total == 0:
        return SampleRun(np.empty((0, d)), acct, rho, 0)
    if root_mass <= 0.0:
        raise EmptyMassError("model has zero mass on the requested box")

    lo = box.lower[None, :].copy()
    hi = box.upper[None, :].copy()
    mass = np.array([root_mass])
    cnt = np.array([n_total], dtype=np.int64)
    for axis in split_axes(box, rho):
        left_hi, mid = left_halves(lo, hi, axis)
        left_mass = integrate_boxes(model, lo, left_hi, acct)
        np.minimum(left_mass, mass, out=left_mass)
        right_mass = mass - left_mass
        k = _binomial_inversion(rng, cnt, left_mass / mass)
        # the quantile at u = 0 is 0 even when q = 1
        k = np.where(right_mass > 0.0, k, cnt)

        # the children that get draws, left halves first, in one gather
        take_l = np.flatnonzero(k > 0)
        take_r = np.flatnonzero(k < cnt)
        idx = np.concatenate((take_l, take_r))
        split = mid[idx]
        lo = lo.take(idx, axis=0)
        hi = hi.take(idx, axis=0)
        n_left = take_l.size
        hi[:n_left, axis] = split[:n_left]
        lo[n_left:, axis] = split[n_left:]
        mass = np.concatenate((left_mass[take_l], right_mass[take_r]))
        cnt = np.concatenate((k[take_l], (cnt - k)[take_r]))

    u = rng.random((n_total, d))
    out = np.repeat(lo, cnt, axis=0) + u * np.repeat(hi - lo, cnt, axis=0)
    return SampleRun(out[rng.permutation(n_total)], acct, rho, lo.shape[0])


def adaptive_rho(model, box: HyperRectangle, epsilon: float, metric: str = "tv") -> float:
    """Leaf size guaranteeing a sampling error of at most epsilon.

    For ``metric="tv"`` the total variation between the model density on
    the box and the sampled piecewise-uniform density stays below
    epsilon; ``metric="hellinger"`` does the same for the Hellinger
    distance and needs the rank-one vector.  Both use the computable
    smoothness constants, so the model must be isotropic.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError("epsilon must be positive and finite")
    if not box.is_bounded():
        raise UnboundedDomainError("adaptive_rho needs a bounded box")
    vol = box.volume()
    if vol <= 0:
        raise ValueError("box must have positive volume")
    mass = integrate(model, box)
    if mass <= 0.0:
        raise EmptyMassError("model has zero mass on the requested box")
    lips = lipschitz_bounds(model)
    if metric == "tv":
        if lips.lip_f <= 0.0:
            raise ValueError("degenerate model: zero smoothness bound")
        return float(mass * epsilon / (vol * lips.lip_f))
    if metric == "hellinger":
        if lips.lip_sqrt_f is None:
            raise ValueError("hellinger leaf size needs a rank-one model")
        if lips.lip_sqrt_f <= 0.0:
            raise ValueError("degenerate model: zero smoothness bound")
        return float(np.sqrt(mass) * epsilon / (np.sqrt(vol) * lips.lip_sqrt_f))
    raise ValueError("metric must be 'tv' or 'hellinger'")


def find_support(
    model,
    eps_mass: float,
    acct: IntegralAccounting | None = None,
) -> HyperRectangle:
    """Bounded box capturing at least ``1 - eps_mass`` of the total mass.

    Starts from the bounding box of the centers and doubles it about its
    center until the captured share suffices.  Zero-length sides (a
    single center, or collinear centers) are first widened to the length
    scale of the kernel, since doubling cannot grow them from zero.
    """
    if not (0.0 < eps_mass < 1.0):
        raise ValueError("eps_mass must lie strictly between 0 and 1")
    total = integrate(model, HyperRectangle.whole_space(model.d), acct)
    if total <= 0.0:
        raise EmptyMassError("model has zero total mass")
    box = HyperRectangle.bounding_box(model.X)
    sides = box.side_lengths
    if np.any(sides == 0.0):
        half = np.where(sides == 0.0, 1.0 / np.sqrt(2.0 * model.eta), 0.5 * sides)
        box = HyperRectangle(box.center - half, box.center + half)
    for _ in range(_MAX_DOUBLINGS + 1):
        if integrate(model, box, acct) / total >= 1.0 - eps_mass:
            return box
        box = box.double_size()
    raise ResourceLimitError(
        "support search did not reach the mass target in %d doublings" % _MAX_DOUBLINGS
    )


def write_samples_csv(samples, path) -> None:
    """Headerless CSV, one point per row, shortest round-trip decimals."""
    arr = np.atleast_2d(np.asarray(samples, dtype=float))
    # "%r" formats a float as repr does; a row with no columns is "\n"
    row = ",".join(["%r"] * arr.shape[1]) + "\n"
    with open(path, "w") as fh:
        # Python floats are made one block of rows at a time: a list of
        # the whole array would take about 50 bytes per value on top of
        # it.  Each block is one template filled in by one % operation.
        for start in range(0, arr.shape[0], _CSV_BLOCK_ROWS):
            block = arr[start : start + _CSV_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def read_samples_csv(path) -> NDArray[np.float64]:
    """The rows of a samples CSV; an empty file gives a (0, 1) array."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(path, delimiter=",", ndmin=2)
