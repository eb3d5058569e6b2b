"""Fourier multiplier symbols of kernel operators and two independent ways
of applying the operator: coefficientwise (spectral) and by direct
principal-value quadrature of the second-difference integrand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, GridMismatchError, IntegrationError
from .grids import EVAL_BLOCK, PeriodicFunction, PeriodicGrid
from .kernels import Kernel, WrappedKernel, wrap_kernel


@dataclass(frozen=True)
class SymbolTable:
    """Multiplier values ell(pi*k/L) for 0 <= k <= N/2.  The symbol is even,
    so negative modes reuse the |k| entry."""

    grid: PeriodicGrid
    values: np.ndarray
    provenance: str  # "exact" | "quadrature" | "user"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size // 2 + 1,):
            raise GridMismatchError("symbol table length must be N/2 + 1")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    def value_at(self, k: int) -> float:
        return float(self.values[abs(int(k))])

    def full_multiplier(self) -> np.ndarray:
        """Multiplier in fft mode order, length N."""
        return self.values[np.abs(self.grid.wavenumbers)]


def symbol_value(kernel: Kernel, xi: float, tol: float = 1e-9) -> float:
    """ell_K(xi) = 2 int_0^inf (1 - cos(xi t)) K(t) dt, adaptive quadrature.

    The integrand is split at t = 1/xi (i.e. z = xi t = 1): the near part is
    integrable like t^(1-2s), and the far part separates into the kernel tail
    integral minus an oscillatory cosine integral.

    tol is a target, not a bound.  Against a split quadrature the result is
    7.6e-9 off for SineTailKernel(0.5) at xi = 3, unchanged at tol = 1e-11,
    and 3.5e-8 off at s = 0.95.  For a tabulated LaplaceKernel it integrates
    the profile past the ends of the r grid, so it misses the cutoffs that
    LaplaceKernel.symbol keeps: 1.8e-3 off for
    laplace_measure_of(FractionalKernel(0.2)) at xi = 1.
    """
    from scipy import integrate

    if xi == 0.0:
        return 0.0
    xi = abs(float(xi))
    if kernel.support is not None:
        b = kernel.support
        val, err = integrate.quad(
            lambda t: (1.0 - math.cos(xi * t)) * float(kernel(t)),
            0.0, b, limit=400, epsabs=1e-13, epsrel=tol,
            points=[min(1.0 / xi, b)] if 1.0 / xi < b else None)
        return 2.0 * val

    a = 1.0 / xi
    near, e1 = integrate.quad(
        lambda t: (1.0 - math.cos(xi * t)) * float(kernel(t)),
        0.0, a, limit=400, epsabs=1e-13, epsrel=tol)
    tail = kernel.tail_integral(a)
    osc, e3 = integrate.quad(lambda t: float(kernel(t)), a, np.inf,
                             weight="cos", wvar=xi, limit=400)
    val = 2.0 * (near + tail - osc)
    est = 2.0 * (e1 + e3)
    # QAWF error estimates are conservative; gate well above the target tol
    if not math.isfinite(val) or est > max(1e3 * tol * abs(val), 1e-7):
        raise IntegrationError(
            f"symbol quadrature at xi={xi:g}: value {val:g}, error estimate {est:g}")
    return val


def symbol_of_kernel(kernel: Kernel, grid: PeriodicGrid, tol: float = 1e-9,
                     force_quadrature: bool = False) -> SymbolTable:
    """Tabulate the multiplier at xi = pi*k/L, k = 0..N/2.

    Fractional, Delaunay, compact (the indicator included) and Laplace
    kernels have closed forms (provenance "exact").  SineTail integrates all
    frequencies at once by a fixed rule, and custom kernels by adaptive
    quadrature per frequency with relative tolerance tol (both "quadrature").
    force_quadrature=True sends every family through symbol_value, the
    independent check on the others.
    """
    xis = grid.frequencies()
    if kernel.symbol_rule is not None and not force_quadrature:
        return SymbolTable(grid, kernel.symbol(xis), kernel.symbol_rule)
    vals = np.array([symbol_value(kernel, xi, tol) for xi in xis])
    return SymbolTable(grid, vals, "quadrature")


def symbol_from_values(grid: PeriodicGrid, values) -> SymbolTable:
    """Wrap user-supplied multiplier values (may be sign-changing)."""
    return SymbolTable(grid, np.asarray(values, dtype=float), "user")


def cosine_normalization(s: float) -> float:
    """int_R (1 - cos z)/|z|^(1+2s) dz, which equals 1/c_s."""
    from scipy import integrate

    # near part termwise from the cosine series: sum (-1)^(m+1)/((2m)!(2m-2s))
    near = 0.0
    fact = 1.0
    for m in range(1, 30):
        fact *= (2 * m - 1) * (2 * m)
        near += (-1.0) ** (m + 1) / (fact * (2 * m - 2.0 * s))
    tail = 1.0 / (2.0 * s)  # int_1^inf z^(-1-2s) dz
    osc, _ = integrate.quad(lambda z: z ** (-1.0 - 2.0 * s), 1.0, np.inf,
                            weight="cos", wvar=1.0, limit=200)
    return 2.0 * (near + tail - osc)


def apply_spectral(sym: SymbolTable, u: PeriodicFunction) -> PeriodicFunction:
    """Coefficientwise product; the k = 0 mode is annihilated whenever
    ell(0) = 0 (all kernel-derived symbols)."""
    if sym.grid != u.grid:
        raise GridMismatchError("symbol and function live on different grids")
    return PeriodicFunction.from_coeffs(u.grid, u.coeffs() * sym.full_multiplier())


DEFAULT_EPS_SEQ = (1e-2, 1e-3, 1e-4)
PV_STABILITY_TOL = 1e-6
PV_RULE_CACHE = 8  # entries kept by _pv_rule and by _pv_panels, least recent dropped
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@functools.lru_cache(maxsize=PV_RULE_CACHE)
def _pv_panels(L: float, eps_seq: tuple, breakpoints: tuple) -> tuple:
    """(zs, w, cuts) of _pv_rule, shared by the plans of every N."""
    # below z_switch the direct second difference is pure cancellation noise
    z_switch = 1e-3 * L
    zs, w, cuts, start = [], [], [], 0
    for eps in eps_seq:
        # geometric panels toward z = 0 resolve the z^(1-2s) behavior; the
        # dropped sliver [0, eps*2^-120] contributes O(eps^(2-2s) 2^-48)
        bounds = [eps * 2.0 ** j for j in range(-120, 1)]
        while bounds[-1] < L:
            bounds.append(min(2.0 * bounds[-1], L))
        bounds = np.array(sorted(set(bounds) | {b for b in breakpoints if bounds[0] < b < L}))
        lo, half = bounds[:-1], 0.5 * np.diff(bounds)
        zs.append(((lo + half)[:, None] + half[:, None] * _GL_NODES).ravel())
        w.append((half[:, None] * _GL_WEIGHTS).ravel())
        stop = start + zs[-1].size
        cuts.append((start, start + int(np.searchsorted(zs[-1], z_switch)), stop))
        start = stop
    zs, w = np.concatenate(zs), np.concatenate(w)
    zs.setflags(write=False)
    w.setflags(write=False)
    return zs, w, tuple(cuts)


@functools.lru_cache(maxsize=PV_RULE_CACHE)
def _pv_rule(L: float, n_modes: int, eps_seq: tuple, breakpoints: tuple) -> tuple:
    """The part of _pv_fold's quadrature that depends on neither the kernel
    nor u, built once per key: (zs, w, cuts, cos_large), all read-only.

    zs holds the panel nodes of every eps rule, concatenated in eps_seq
    order, and w their Gauss-Legendre weights.  Rule i owns
    zs[start:stop] for (start, switch, stop) = cuts[i]; its nodes ascend,
    so those below z_switch = 1e-3 L are the prefix zs[start:switch].
    cos_large is cos(outer(z, omega)) over the nodes at or above z_switch,
    rule after rule, with omega the n_modes frequencies pi k / L.

    An entry holds 8 n_modes bytes per node at or above z_switch; zs and w
    (16 bytes per node) come from _pv_panels and are shared by the entries
    of every N.  For L = pi and DEFAULT_EPS_SEQ, 374 of the 4752 nodes lie
    at or above z_switch: 0.10 MB at N = 64, 0.39 MB at N = 256 and 6.1 MB
    at N = 4096, plus 0.08 MB of panels."""
    zs, w, cuts = _pv_panels(L, eps_seq, breakpoints)
    large = np.concatenate([zs[switch:stop] for _, switch, stop in cuts])
    cos_large = np.outer(large, np.pi * np.arange(n_modes) / L)
    np.cos(cos_large, out=cos_large)
    cos_large.setflags(write=False)
    return zs, w, cuts, cos_large


def _pv_fold(u: PeriodicFunction, xs, kbar, breakpoints,
             eps_seq: Sequence[float]) -> np.ndarray:
    """int_0^L (2u(x) - u(x+z) - u(x-z)) kbar(z) dz at every x in xs on graded
    Gauss-Legendre panels, which never straddle a breakpoint of kbar.  The
    estimates for all eps in eps_seq (where the grading starts) must agree
    within PV_STABILITY_TOL relative to max(1, |value|), which certifies
    that the principal-value limit has stabilized.  The panels come from
    _pv_rule; kbar is evaluated once per EVAL_BLOCK points, on the nodes of
    every eps rule at once."""
    eps_seq = tuple(float(e) for e in eps_seq)
    if not all(math.isfinite(e) and e > 0 for e in eps_seq):
        raise DomainError(f"eps_seq entries must be finite and positive: {eps_seq}")
    if not eps_seq or any(b >= a for a, b in zip(eps_seq, eps_seq[1:])):
        raise DomainError("eps_seq must be strictly decreasing and nonempty")
    L = u.grid.half_period
    if eps_seq[0] >= L:
        raise DomainError("eps_seq must start below the half period")
    xs = np.asarray(xs, dtype=float)
    if xs.size > EVAL_BLOCK:  # caps the point-by-mode tables at EVAL_BLOCK rows
        return np.concatenate([_pv_fold(u, xs[i:i + EVAL_BLOCK], kbar, breakpoints, eps_seq)
                               for i in range(0, xs.size, EVAL_BLOCK)])
    omega = u.grid.frequencies()
    zs, w, cuts, cos_large = _pv_rule(L, omega.size, eps_seq, tuple(breakpoints))
    wk = w * kbar(zs)
    ux = u.eval(xs)
    # addition theorem: u(x+z) + u(x-z) = 2 sum_k a_k(x) cos(omega_k z) over
    # 0 <= k <= N/2, with a_k(x) the half-spectrum table of u at x
    modes = u.modes(xs)
    diff = 2.0 * (ux - cos_large @ modes.T)
    # below z_switch the even Taylor series of the second difference in
    # spectral derivatives is exact to rounding
    d2, d4, d6 = (modes @ (-omega**2) ** m for m in (1, 2, 3))
    vals, row = [], 0
    for start, switch, stop in cuts:
        z2 = zs[start:switch] ** 2
        wz2 = wk[start:switch] * z2
        wz4 = wz2 * z2
        m2, m4, m6 = np.sum(wz2), np.sum(wz4), np.sum(wz4 * z2)
        vals.append(wk[switch:stop] @ diff[row:row + stop - switch]
                    - (d2 * m2 + d4 * m4 / 12.0 + d6 * m6 / 360.0))
        row += stop - switch
    spread = np.max(np.abs(np.diff(vals, axis=0)), axis=0, initial=0.0)
    bad = np.flatnonzero(spread > PV_STABILITY_TOL * np.maximum(1.0, np.abs(vals[-1])))
    if bad.size:
        raise IntegrationError(f"principal value unstable across eps_seq at "
                               f"x={xs[bad[0]]:g}: {[float(v[bad[0]]) for v in vals]}")
    return vals[-1]


def apply_pv(kernel: Kernel, u: PeriodicFunction, x: float,
             eps_seq: Sequence[float] = DEFAULT_EPS_SEQ,
             wrapped: WrappedKernel | None = None) -> float:
    """Evaluate the operator at x by principal-value quadrature.

    Uses the second-difference form (1/2) int_R (2u(x)-u(x-z)-u(x+z)) K(|z|) dz,
    whose integrand is even in z and, being 2L-periodic in z, folds exactly
    onto (0, L] against the wrapped kernel:
        int_0^L (2u(x) - u(x+z) - u(x-z)) Kbar(z) dz.
    """
    if wrapped is None:
        wrapped = wrap_kernel(kernel, u.grid.half_period)
    wrapped.require_period(u.grid.half_period)
    return float(_pv_fold(u, [x], wrapped, wrapped.breakpoints, eps_seq)[0])


def apply_pv_grid(kernel: Kernel, u: PeriodicFunction) -> PeriodicFunction:
    """apply_pv at every grid node (cross-validation helper)."""
    wrapped = wrap_kernel(kernel, u.grid.half_period)
    return PeriodicFunction(u.grid, _pv_fold(u, u.grid.nodes, wrapped,
                                             wrapped.breakpoints, DEFAULT_EPS_SEQ))


def integrate_by_parts_check(kernel: Kernel, u: PeriodicFunction,
                             psi: PeriodicFunction,
                             sym: SymbolTable | None = None) -> float:
    """|int u (L psi) dx  -  <u, psi>_K| with the two sides computed by
    independent routes (PV quadrature vs the Fourier-side bilinear form)."""
    if u.grid != psi.grid:
        raise GridMismatchError("functions live on different grids")
    grid = u.grid
    lpsi = apply_pv_grid(kernel, psi)
    lhs = grid.spacing * float(np.sum(u.samples * lpsi.samples))
    if sym is None:
        sym = symbol_of_kernel(kernel, grid)
    rhs = bilinear_fourier(sym, u, psi)
    return abs(lhs - rhs)


def bilinear_fourier(sym: SymbolTable, u: PeriodicFunction,
                     psi: PeriodicFunction) -> float:
    """<u, psi>_K = 2L sum_k ell(pi k/L) u_k conj(psi_k)."""
    if not (sym.grid == u.grid == psi.grid):
        raise GridMismatchError("grid mismatch in bilinear form")
    mult = sym.full_multiplier()
    val = 2.0 * sym.grid.half_period * np.sum(
        mult * u.coeffs() * np.conj(psi.coeffs()))
    return float(np.real(val))


def symbol_bounds_hold(sym: SymbolTable, kernel: Kernel) -> bool:
    """Check (lambda/c_s)|xi|^(2s) <= ell(xi) <= (Lambda/c_s)|xi|^(2s)."""
    from .kernels import frac_lap_constant

    cs = frac_lap_constant(kernel.s)
    xis = sym.grid.frequencies()[1:]
    env = xis ** (2.0 * kernel.s)
    v = sym.values[1:]
    ok_hi = (not math.isfinite(kernel.Lambda_hi)) or np.all(
        v <= kernel.Lambda_hi / cs * env * (1 + 1e-8))
    ok_lo = kernel.lambda_lo == 0.0 or np.all(
        v >= kernel.lambda_lo / cs * env * (1 - 1e-8))
    return bool(ok_hi and ok_lo)
