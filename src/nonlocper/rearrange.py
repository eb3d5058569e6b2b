"""Periodic symmetric decreasing rearrangement, the Riesz convolution
inequality on the circle (brute-force checkable), and the rearrangement
inequality checker for the nonlocal seminorm, including the bounded-kernel
counterexample regime.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .energy import _cell_weights, seminorm_sq_offdiag
from .errors import HypothesisViolationError
from .grids import PeriodicFunction
from .kernels import Kernel, WrappedKernel, wrap_kernel


def _placement_order(n: int) -> np.ndarray:
    """Indices ordered by distance from x = 0: 0, +1, -1, +2, -2, ..., N/2,
    for an even N, written as two strided ranges.
    The positive side of each pair comes first, so it receives the larger
    sample."""
    half = n // 2
    order = np.empty(n, dtype=np.intp)
    order[0] = 0
    order[1:n - 1:2] = np.arange(1, half)
    order[2:n - 1:2] = np.arange(n - 1, n - half, -1)
    order[n - 1] = half
    return order


def rearrange_periodic(u: PeriodicFunction) -> PeriodicFunction:
    """Samples of |u| sorted decreasingly and placed outward from x = 0.

    The result is even at grid level (up to one tie-broken sample), is
    nonincreasing along the index-distance order, and keeps the multiset of
    |u| samples exactly (equimeasurability).  Ties are broken by original
    index (stable sort) for determinism.
    """
    vals = np.abs(u.samples)
    sorted_desc = vals[np.argsort(-vals, kind="stable")]
    out = np.empty_like(vals)
    out[_placement_order(u.grid.size)] = sorted_desc
    return PeriodicFunction(u.grid, out)


@dataclass(frozen=True)
class RearrangementReport:
    seminorm_before: float
    seminorm_after: float
    inequality_holds: bool
    relative_gap: float
    equality_case: float | None  # detected translate z, if any
    equality_inconclusive: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


EQUALITY_BAND = 1e-8  # relative gap below which equality cases are examined


def detect_translate(u: PeriodicFunction, ustar: PeriodicFunction) -> float | None:
    """Grid shift z with u = +-ustar(. + z), or None.

    ustar(x + z) sampled at node j is ustar sample j + m when z = m h, so we
    compare the circular rolls of both signs whose first sample already
    matches.  Among matches the smallest |z| wins (symmetric profiles match
    several shifts)."""
    h = u.grid.spacing
    tol = 1e-10 * max(1.0, float(np.max(np.abs(ustar.samples))))
    best = None
    for sign in (1.0, -1.0):
        for m in np.flatnonzero(np.abs(u.samples[0] - sign * ustar.samples) < tol).tolist():
            if np.max(np.abs(u.samples - sign * np.roll(ustar.samples, -m))) < tol:
                z = m * h
                if z > u.grid.half_period:
                    z -= 2.0 * u.grid.half_period
                if best is None or abs(z) < abs(best):
                    best = z
    return best


def polya_szego_check(kernel: Kernel, u: PeriodicFunction,
                      wrapped: WrappedKernel | None = None) -> RearrangementReport:
    """Compare [u]_K^2 with [u*]_K^2 through the wrapped-kernel double sum.

    Both seminorms use identical off-diagonal weights, Kbar at the N - 1
    cell distances from the wrap's call table (energy._cell_weights, one
    profile value per distance), so the comparison is exact at grid level
    and the inequality direction is meaningful down to rounding; it holds
    unless [u*]_K^2 exceeds [u]_K^2 by 1e-9 relative.  Without wrapped=
    each call builds the wrap, which costs more than the check; a wrapped=
    given for speed must wrap kernel (DomainError otherwise).
    """
    grid = u.grid
    if wrapped is None:
        wrapped = wrap_kernel(kernel, grid.half_period)
    wrapped.require_kernel(kernel)
    wrapped.require_period(grid.half_period)
    kbar = _cell_weights(wrapped, grid)
    ustar = rearrange_periodic(u)
    before = seminorm_sq_offdiag(kbar, u)
    after = seminorm_sq_offdiag(kbar, ustar)
    scale = max(abs(before), abs(after), 1e-300)
    gap = (before - after) / scale
    holds = gap >= -1e-9
    z = None
    inconclusive = False
    if abs(gap) < EQUALITY_BAND:
        z = detect_translate(u, ustar)
        inconclusive = z is None
    return RearrangementReport(seminorm_before=before, seminorm_after=after,
                               inequality_holds=holds, relative_gap=gap,
                               equality_case=z,
                               equality_inconclusive=inconclusive)


def _distance_samples(g: PeriodicFunction) -> np.ndarray:
    """g reindexed so entry d is g(d h) (nodes start at -L)."""
    n = g.grid.size
    return np.roll(g.samples, -(n // 2))


def check_riesz_weight(g: PeriodicFunction) -> None:
    """The convolution weight must be even and nonincreasing in distance,
    up to 1e-10 relative."""
    gd = _distance_samples(g)
    n = g.grid.size
    scale = max(1.0, float(np.max(np.abs(gd))))
    even_defect = float(np.max(np.abs(gd[1:] - gd[1:][::-1])))
    if even_defect > 1e-10 * scale:
        raise HypothesisViolationError(f"weight not even: defect {even_defect:g}")
    half = gd[: n // 2 + 1]
    if float(np.max(np.diff(half))) > 1e-10 * scale:
        raise HypothesisViolationError("weight not nonincreasing on (0, L)")


def riesz_circle_check(f: PeriodicFunction, g: PeriodicFunction,
                       h: PeriodicFunction) -> dict:
    """Double-sum check of  sum f(x) g(x-y) h(y)  <=  same with f*, h*.

    Requires f, h >= 0 and g even nonincreasing in distance; near equality,
    searches for a common shift aligning f and h with their rearrangements.
    When f or h is constant equality always holds but no aligning shift need
    exist, so the detector reports inconclusive.
    """
    if f.grid != g.grid or f.grid != h.grid:
        raise HypothesisViolationError("f, g, h must share a grid")
    if np.min(f.samples) < -1e-12 or np.min(h.samples) < -1e-12:
        raise HypothesisViolationError("f and h must be nonnegative")
    check_riesz_weight(g)
    hx = f.grid.spacing
    gd = _distance_samples(g)

    def double_sum(fs: np.ndarray, hs: np.ndarray) -> float:
        conv = np.fft.irfft(np.fft.rfft(gd) * np.fft.rfft(hs), gd.size)
        return hx * hx * float(np.sum(fs * conv))

    fstar = rearrange_periodic(f)
    hstar = rearrange_periodic(h)
    lhs = double_sum(f.samples, h.samples)
    rhs = double_sum(fstar.samples, hstar.samples)
    scale = max(abs(lhs), abs(rhs), 1e-300)
    holds = lhs <= rhs + 1e-12 * scale
    equality = abs(lhs - rhs) <= EQUALITY_BAND * scale
    shift = None
    inconclusive = False
    if equality:
        f_const = np.ptp(f.samples) < 1e-12 * scale
        h_const = np.ptp(h.samples) < 1e-12 * scale
        if f_const or h_const:
            inconclusive = True
        else:
            zf = detect_translate(f, fstar)
            zh = detect_translate(h, hstar)
            if zf is not None and zh is not None and abs(zf - zh) < 1e-12:
                shift = zf
            else:
                inconclusive = True
    return {"lhs": lhs, "rhs": rhs, "holds": holds, "equality": equality,
            "aligned_shift": shift, "equality_inconclusive": inconclusive}
