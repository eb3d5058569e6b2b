"""Fourier multiplier symbols of kernel operators and two independent ways
of applying the operator: coefficientwise (spectral) and by direct
principal-value quadrature of the second-difference integrand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, GridMismatchError, IntegrationError,
                     UnsupportedKernelError)
from .grids import EVAL_BLOCK, PeriodicFunction, PeriodicGrid
from .kernels import Kernel, WrappedKernel, _row_blocks, wrap_kernel


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

    def full_multiplier(self) -> np.ndarray:
        """Multiplier in fft mode order, length N (cached, read-only)."""
        return self._full_multiplier

    @functools.cached_property
    def _full_multiplier(self) -> np.ndarray:
        full = self.values[np.abs(self.grid.wavenumbers)]
        full.setflags(write=False)
        return full


# relative tolerance of the symbol quadrature: a target for the adaptive
# route, and the bound on the fixed rule's error estimate beyond which a
# frequency is redone adaptively
SYMBOL_RTOL = 1e-9


def symbol_value(kernel: Kernel, xi):
    """ell_K(xi) = 2 int_0^inf (1 - cos(xi t)) K(t) dt for a frequency or an
    array of them; a scalar xi gives a float.  The symbol is even in xi.

    A family that declares smooth_profile takes one fixed rule for all
    frequencies at once (_fixed_rule), in numpy alone.  A frequency whose
    error estimate exceeds SYMBOL_RTOL relative to its value is redone by
    _adaptive_value, and so is every frequency of the other families
    (SineTail and custom kernels), whose profile may oscillate where the
    estimate cannot see it.  _adaptive_value needs the optional
    "quadrature" extra; without it, UnsupportedKernelError.
    """
    xi_arr = np.abs(np.asarray(xi, dtype=float))
    xs = xi_arr.ravel()
    if not np.all(np.isfinite(xs)):
        raise DomainError("symbol frequencies must be finite")
    out = np.zeros_like(xs)
    todo = np.flatnonzero(xs > 0)
    if kernel.smooth_profile and todo.size:
        vals, est = _fixed_rule(kernel, xs[todo])
        out[todo] = vals
        todo = todo[~(est <= SYMBOL_RTOL * np.abs(vals))]  # a NaN is redone too
    for i in todo:
        out[i] = _adaptive_value(kernel, float(xs[i]))
    return float(out[0]) if xi_arr.ndim == 0 else out.reshape(xi_arr.shape)


def _adaptive_value(kernel: Kernel, xi: float) -> float:
    """ell_K(xi) for one xi > 0 by adaptive quadrature.

    The integrand is split at t = 1/xi (i.e. z = xi t = 1): the near part is
    integrable like t^(1-2s), and the far part separates into the kernel tail
    integral minus an oscillatory cosine integral.

    SYMBOL_RTOL is a target, not a bound.  Against a split quadrature the
    result is 7.6e-9 off for SineTailKernel(0.5) at xi = 3, unchanged at a
    target of 1e-11, and 1.4e-9 off for the fractional kernel at s = 0.95
    and xi = 1.  For laplace_measure_of(FractionalKernel(0.2)), whose r-grid
    cutoffs make the fixed rule's estimate flag every frequency, it is
    within 5e-11 of LaplaceKernel.symbol at xi = 1, 4 and 32.

    It is the one place that uses scipy, which nonlocper[quadrature]
    installs; without it, UnsupportedKernelError names that extra.
    """
    try:
        from scipy import integrate
    except ImportError as exc:
        raise UnsupportedKernelError(
            f"the symbol of {type(kernel).__name__} at xi={xi:g} needs adaptive "
            "quadrature from scipy: pip install 'nonlocper[quadrature]'") from exc

    if kernel.support is not None:
        b = kernel.support
        val, err = integrate.quad(
            lambda t: (1.0 - math.cos(xi * t)) * float(kernel(t)),
            0.0, b, limit=400, epsabs=1e-13, epsrel=SYMBOL_RTOL,
            points=[min(1.0 / xi, b)] if 1.0 / xi < b else None)
        return 2.0 * val

    a = 1.0 / xi
    near, e1 = integrate.quad(
        lambda t: (1.0 - math.cos(xi * t)) * float(kernel(t)),
        0.0, a, limit=400, epsabs=1e-13, epsrel=SYMBOL_RTOL)
    tail = kernel.tail_integral(a)
    osc, e3 = integrate.quad(lambda t: float(kernel(t)), a, np.inf,
                             weight="cos", wvar=xi, limit=400)
    val = 2.0 * (near + tail - osc)
    est = 2.0 * (e1 + e3)
    # QAWF error estimates are conservative; gate well above the target
    if not math.isfinite(val) or est > max(1e3 * SYMBOL_RTOL * abs(val), 1e-7):
        raise IntegrationError(
            f"symbol quadrature at xi={xi:g}: value {val:g}, error estimate {est:g}")
    return val


# The fixed rule works in z = xi t.  On the full line,
#   ell(xi) = (2/xi) [int_0^(pi/2) 2 sin^2(z/2) K(z/xi) dz
#                     + int_0^inf K((pi/2 + y)/xi) sin y dy] + 2 int_(pi/(2 xi))^inf K,
# the last term by Kernel.tail_integral.  Each part has a fine rule and a
# coarse one, whose difference estimates the coarse rule's error and so
# bounds the fine one's.
_NEAR_NODES = (48, 24)  # Gauss-Legendre nodes of the near part, fine and coarse
_OSC_STEPS = (1.0 / 8, 1.0 / 4)  # Ooura-Mori steps, fine and coarse
_OSC_TAU = 6.0  # the Ooura-Mori sums run over |tau| <= _OSC_TAU
_PANEL_NODES = (16, 8)  # Gauss-Legendre nodes per panel on a support


def _fine_and_coarse(nodes: list, weights: list) -> tuple:
    """The nodes of a fine and a coarse rule, concatenated, and a (node x 2)
    weight matrix whose columns apply one rule each."""
    columns = np.zeros((nodes[0].size + nodes[1].size, 2))
    columns[:nodes[0].size, 0] = weights[0]
    columns[nodes[0].size:, 1] = weights[1]
    return np.concatenate(nodes), columns


def _ooura_mori(h: float) -> tuple:
    """Nodes y and weights w with int_0^inf f(y) sin y dy = sum_j w_j f(y_j):
    the double-exponential formula for Fourier-type integrals of Ooura and
    Mori (J. Comput. Appl. Math. 112, 1999), y = M phi(tau) with M = pi/h and
    phi(tau) = tau / (1 - exp(-2 tau - alpha (1 - e^-tau) - beta (e^tau - 1))).
    For large tau the nodes approach the zeros n pi of sin y double
    exponentially, so an algebraically decaying f needs no truncation term."""
    m = math.pi / h
    beta = 0.25
    alpha = beta / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    n = np.arange(-round(_OSC_TAU / h), round(_OSC_TAU / h) + 1)
    tau = n * h
    u = 2.0 * tau - alpha * np.expm1(-tau) + beta * np.expm1(tau)
    du = 2.0 + alpha * np.exp(-tau) + beta * np.exp(tau)
    mid = n == 0  # phi is 0/0 there: take its limits from u's Taylor series
    d = -np.expm1(-np.where(mid, 1.0, u))
    phi = np.where(mid, 0.0, tau) / d
    dphi = 1.0 / d - tau * du * np.exp(-u) / d**2
    c1, c2 = 2.0 + alpha + beta, 0.5 * (beta - alpha)
    phi[mid] = 1.0 / c1
    dphi[mid] = 0.5 - c2 / c1**2
    y = m * phi
    return y, m * h * dphi * np.sin(y)


@functools.lru_cache(maxsize=8)
def _line_rule(s: float) -> tuple:
    """Nodes z and a (node x 2) weight matrix whose columns are the fine and
    the coarse full-line rule, each weight holding its part's factor
    2 sin^2(z/2) or sin y.  The near part is Gauss-Legendre in v on (0, 1),
    with z = (pi/2) v^(1/(1-s)), which turns the z^(1-2s) endpoint into a
    smooth one; the oscillatory part is _ooura_mori."""
    p = 1.0 / (1.0 - s)
    zs, ws = [], []
    for n_near, h in zip(_NEAR_NODES, _OSC_STEPS):
        v, w = np.polynomial.legendre.leggauss(n_near)
        v, w = 0.5 * (v + 1.0), 0.5 * w
        z = 0.5 * math.pi * v**p
        y, wy = _ooura_mori(h)
        zs.append(np.concatenate([z, 0.5 * math.pi + y]))
        ws.append(np.concatenate([0.5 * math.pi * p * v ** (p - 1.0) * w
                                  * 2.0 * np.sin(0.5 * z) ** 2, wy]))
    z, weights = _fine_and_coarse(zs, ws)
    z.setflags(write=False)
    weights.setflags(write=False)
    return z, weights


def _support_panels(support: float, breaks: tuple, xi_max: float) -> tuple:
    """Nodes t on (0, support) and a (node x 2) weight matrix of fine and
    coarse Gauss-Legendre panels.  Panels split at every break and span at
    most pi/xi_max, half a period of the fastest cosine."""
    edges = sorted({0.0, support} | {b for b in breaks if 0.0 < b < support})
    cuts = [np.linspace(lo, hi, max(1, math.ceil((hi - lo) * xi_max / math.pi)) + 1)[:-1]
            for lo, hi in zip(edges[:-1], edges[1:])]
    edges = np.append(np.concatenate(cuts), support)
    lo, half = edges[:-1], 0.5 * np.diff(edges)
    ts, ws = [], []
    for n in _PANEL_NODES:
        x, w = np.polynomial.legendre.leggauss(n)
        ts.append(((lo + half)[:, None] + half[:, None] * x).ravel())
        ws.append((half[:, None] * w).ravel())
    return _fine_and_coarse(ts, ws)


def _fixed_rule(kernel: Kernel, xi: np.ndarray) -> tuple:
    """(values, error estimates) of ell at every xi > 0 by one fixed rule:
    Gauss-Legendre panels on a support, and otherwise _line_rule plus
    Kernel.tail_integral.  The (frequency x node) profile table is built in
    row blocks, so memory stays bounded whatever the number of frequencies.
    The estimate is the fine rule's distance from the coarse one."""
    if kernel.support is not None:
        t, weights = _support_panels(kernel.support, kernel.breaks, float(np.max(xi)))
        wk = weights * kernel(t)[:, None]
        sums = np.empty((xi.size, 2))
        for blk in _row_blocks(xi.size, t.size):
            sums[blk] = np.sin(0.5 * np.outer(xi[blk], t)) ** 2 @ wk
        return 4.0 * sums[:, 0], 4.0 * np.abs(sums[:, 0] - sums[:, 1])
    z, weights = _line_rule(kernel.s)
    sums = np.empty((xi.size, 2))
    for blk in _row_blocks(xi.size, z.size):
        t = z / xi[blk, None]
        sums[blk] = kernel(t.ravel()).reshape(t.shape) @ weights
    tails = np.array([kernel.tail_integral(0.5 * math.pi / x) for x in xi])
    return 2.0 / xi * sums[:, 0] + 2.0 * tails, 2.0 / xi * np.abs(sums[:, 0] - sums[:, 1])


def symbol_of_kernel(kernel: Kernel, grid: PeriodicGrid,
                     force_quadrature: bool = False) -> SymbolTable:
    """Tabulate the multiplier at xi = pi*k/L, k = 0..N/2.

    Fractional, Delaunay, compact (the indicator included) and Laplace
    kernels have closed forms (provenance "exact").  SineTail integrates all
    frequencies at once by its own fixed rule, and custom kernels go through
    symbol_value (both "quadrature").  force_quadrature=True sends every
    family through one symbol_value call for all frequencies, the
    independent check on the closed forms.
    """
    xis = grid.frequencies()
    if kernel.symbol_rule is not None and not force_quadrature:
        return SymbolTable(grid, kernel.symbol(xis), kernel.symbol_rule)
    return SymbolTable(grid, symbol_value(kernel, xis), "quadrature")


def symbol_from_values(grid: PeriodicGrid, values) -> SymbolTable:
    """Wrap user-supplied multiplier values (may be sign-changing)."""
    return SymbolTable(grid, np.asarray(values, dtype=float), "user")


def apply_spectral(sym: SymbolTable, u: PeriodicFunction) -> PeriodicFunction:
    """Coefficientwise product; the k = 0 mode is annihilated whenever
    ell(0) = 0 (all kernel-derived symbols)."""
    if sym.grid != u.grid:
        raise GridMismatchError("symbol and function live on different grids")
    return PeriodicFunction.from_coeffs(u.grid, u.coeffs() * sym.full_multiplier())


PV_EPS_SEQ = (1e-2, 1e-3, 1e-4)  # where the graded panels of each PV estimate start
PV_STABILITY_TOL = 1e-6
PV_RULE_CACHE = 8  # entries kept by _pv_rule and by _pv_panels, least recent dropped
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@functools.lru_cache(maxsize=PV_RULE_CACHE)
def _pv_panels(L: float, breakpoints: tuple) -> tuple:
    """(zs, w, cuts) of _pv_rule, shared by the plans of every N."""
    # below z_switch the direct second difference is pure cancellation noise
    z_switch = 1e-3 * L
    zs, w, cuts, start = [], [], [], 0
    for eps in PV_EPS_SEQ:
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
def _pv_rule(L: float, n_modes: int, breakpoints: tuple) -> tuple:
    """The part of _pv_fold's quadrature that depends on neither the kernel
    nor u, built once per key: (zs, w, cuts, cos_large), all read-only.

    zs holds the panel nodes of every eps rule, concatenated in PV_EPS_SEQ
    order, and w their Gauss-Legendre weights.  Rule i owns
    zs[start:stop] for (start, switch, stop) = cuts[i]; its nodes ascend,
    so those below z_switch = 1e-3 L are the prefix zs[start:switch].
    cos_large is cos(outer(z, omega)) over the nodes at or above z_switch,
    rule after rule, with omega the n_modes frequencies pi k / L.

    An entry holds 8 n_modes bytes per node at or above z_switch; zs and w
    (16 bytes per node) come from _pv_panels and are shared by the entries
    of every N.  For L = pi, 374 of the 4752 nodes lie
    at or above z_switch: 0.10 MB at N = 64, 0.39 MB at N = 256 and 6.1 MB
    at N = 4096, plus 0.08 MB of panels."""
    zs, w, cuts = _pv_panels(L, breakpoints)
    large = np.concatenate([zs[switch:stop] for _, switch, stop in cuts])
    cos_large = np.outer(large, np.pi * np.arange(n_modes) / L)
    np.cos(cos_large, out=cos_large)
    cos_large.setflags(write=False)
    return zs, w, cuts, cos_large


def _pv_fold(u: PeriodicFunction, xs, kbar, breakpoints) -> np.ndarray:
    """int_0^L (2u(x) - u(x+z) - u(x-z)) kbar(z) dz at every x in xs on graded
    Gauss-Legendre panels, which never straddle a breakpoint of kbar.  The
    estimates for all eps in PV_EPS_SEQ (where the grading starts) must agree
    within PV_STABILITY_TOL relative to max(1, |value|), which certifies
    that the principal-value limit has stabilized.  The panels come from
    _pv_rule; kbar is evaluated once per EVAL_BLOCK points, on the nodes of
    every eps rule at once."""
    L = u.grid.half_period
    if PV_EPS_SEQ[0] >= L:
        raise DomainError(f"the half period must exceed the first eps, {PV_EPS_SEQ[0]:g}")
    xs = np.asarray(xs, dtype=float)
    if xs.size > EVAL_BLOCK:  # caps the point-by-mode tables at EVAL_BLOCK rows
        return np.concatenate([_pv_fold(u, xs[i:i + EVAL_BLOCK], kbar, breakpoints)
                               for i in range(0, xs.size, EVAL_BLOCK)])
    omega = u.grid.frequencies()
    zs, w, cuts, cos_large = _pv_rule(L, omega.size, tuple(breakpoints))
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
        raise IntegrationError(f"principal value unstable across PV_EPS_SEQ at "
                               f"x={xs[bad[0]]:g}: {[float(v[bad[0]]) for v in vals]}")
    return vals[-1]


def apply_pv(kernel: Kernel, u: PeriodicFunction, x: float,
             wrapped: WrappedKernel | None = None) -> float:
    """Evaluate the operator at x by principal-value quadrature.

    Uses the second-difference form (1/2) int_R (2u(x)-u(x-z)-u(x+z)) K(|z|) dz,
    whose integrand is even in z and, being 2L-periodic in z, folds exactly
    onto (0, L] against the wrapped kernel:
        int_0^L (2u(x) - u(x+z) - u(x-z)) Kbar(z) dz.
    A wrapped= given for speed must wrap kernel (DomainError otherwise).
    """
    if wrapped is None:
        wrapped = wrap_kernel(kernel, u.grid.half_period)
    wrapped.require_kernel(kernel)
    wrapped.require_period(u.grid.half_period)
    return float(_pv_fold(u, [x], wrapped, wrapped.breakpoints)[0])


def apply_pv_grid(kernel: Kernel, u: PeriodicFunction) -> PeriodicFunction:
    """apply_pv at every grid node (cross-validation helper)."""
    wrapped = wrap_kernel(kernel, u.grid.half_period)
    return PeriodicFunction(u.grid, _pv_fold(u, u.grid.nodes, wrapped, wrapped.breakpoints))


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
