"""Axis-aligned hyper-rectangles.

Boxes are half-open, ``lower[k] <= x_k < upper[k]``, which is what lets a
dyadic bisection partition a box without overlap or gaps.  Infinite
endpoints are allowed; operations that need a bounded box say so.

``bisect_longest`` is the one longest-side bisection the sampler, the
leaf enumeration and the quadrature share, and ``halving_counts`` gives
the depth it reaches per axis before every side is at most rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class HyperRectangle:
    """Product of half-open intervals ``[lower_k, upper_k)``."""

    lower: NDArray[np.float64]
    upper: NDArray[np.float64]

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
            raise ValueError("lower and upper must be matching 1-D vectors")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise ValueError("box endpoints must not be NaN")
        if np.any(lo > hi):
            raise ValueError("need lower <= upper in every coordinate")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def side_lengths(self) -> NDArray[np.float64]:
        return self.upper - self.lower

    @property
    def center(self) -> NDArray[np.float64]:
        return 0.5 * (self.lower + self.upper)

    def volume(self) -> float:
        """Product of side lengths; inf for unbounded, 0 for degenerate."""
        sides = self.side_lengths
        if np.any(sides == 0.0) and np.any(np.isinf(sides)):
            raise ValueError("box mixes zero-length and infinite sides")
        return float(np.prod(sides))

    def is_bounded(self) -> bool:
        return bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    def contains(self, points) -> NDArray[np.bool_]:
        """Half-open membership test for one point or a batch."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise ValueError("point dimension mismatch")
        return np.all((pts >= self.lower) & (pts < self.upper), axis=1)

    def double_size(self) -> "HyperRectangle":
        """Double every side length about the center."""
        if not self.is_bounded():
            raise ValueError("cannot double an unbounded box")
        c = self.center
        half = self.side_lengths  # new half-width = old full width
        return HyperRectangle(c - half, c + half)

    @classmethod
    def bounding_box(cls, points) -> "HyperRectangle":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        return cls(pts.min(axis=0), pts.max(axis=0))

    @classmethod
    def whole_space(cls, dim: int) -> "HyperRectangle":
        return cls(np.full(dim, -np.inf), np.full(dim, np.inf))


def bisect_longest(lo, hi) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Bisect a batch of boxes along their longest sides.

    ``lo`` and ``hi`` are (B, d) corner arrays.  Each box is split on its
    longest side (lowest index on ties) at the floating-point average of
    the endpoints, so repeated splits of a dyadic box stay exact.  Returns
    ``(left_hi, right_lo)``: the left half is ``(lo, left_hi)`` and the
    right half is ``(right_lo, hi)``.
    """
    axis = np.argmax(hi - lo, axis=1)
    rows = np.arange(lo.shape[0])
    mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
    left_hi = hi.copy()
    left_hi[rows, axis] = mid
    right_lo = lo.copy()
    right_lo[rows, axis] = mid
    return left_hi, right_lo


def halving_counts(box: HyperRectangle, rho: float) -> NDArray[np.int64]:
    """Times each side must halve before it is at most rho.

    Computed by the same repeated multiplication the recursion performs,
    so the counts match the actual tree depth even when a side length
    sits within rounding of a power of two times rho.
    """
    if not box.is_bounded():
        raise ValueError("cannot count halvings of an unbounded box")
    if not rho > 0:
        raise ValueError("rho must be positive")
    counts = np.zeros(box.dim, dtype=np.int64)
    for k, length in enumerate(box.side_lengths):
        s = float(length)
        while s > rho:
            s *= 0.5
            counts[k] += 1
    return counts
