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
from .grids import (COEFF_NOISE_FLOOR, EVAL_BLOCK, PeriodicFunction, PeriodicGrid,
                    _half_to_samples)
from .kernels import Kernel, WrappedKernel, _gl_panels, _row_blocks, wrap_kernel


@dataclass(frozen=True)
class SymbolTable:
    """Multiplier values ell(pi*k/L) for 0 <= k <= N/2, the modes of a half
    spectrum.  The symbol is even, so mode -k has the entry of k."""

    grid: PeriodicGrid
    values: np.ndarray
    provenance: str  # "exact" | "quadrature" | "user"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.size // 2 + 1,):
            raise GridMismatchError("symbol table length must be N/2 + 1")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    @functools.cached_property
    def kinetic_weights(self) -> np.ndarray:
        """w_k = (L/N^2) ell_k {1, 2, ..., 2, 1} for k = 0..N/2, so that
        (1/2)[u]_K^2 = w . |rfft(u)|^2: modes +-k share |F_k|, and the mean
        and the Nyquist mode have no partner (cached, read-only)."""
        n = self.grid.size
        w = self.values * (2.0 * self.grid.half_period / n**2)
        w[0] *= 0.5
        w[-1] *= 0.5
        w.setflags(write=False)
        return w


# relative tolerance of the symbol quadrature: a target for the adaptive
# route, and the bound on the fixed rule's error estimate beyond which a
# frequency is redone adaptively
SYMBOL_RTOL = 1e-9


def symbol_value(kernel: Kernel, xi):
    """ell_K(xi) = 2 int_0^inf (1 - cos(xi t)) K(t) dt for a frequency or an
    array of them; a scalar xi gives a float.  The symbol is even in xi.

    A family whose symbol_rule is "exact" has a smooth, non-oscillating
    profile and takes one fixed rule for all frequencies at once
    (_fixed_rule), in numpy alone.  A frequency whose error estimate exceeds
    SYMBOL_RTOL relative to its value is redone by _adaptive_value, and so
    is every frequency of the other families (SineTail and custom kernels),
    whose profile may oscillate where the estimate cannot see it.
    _adaptive_value needs the optional "quadrature" extra; without it,
    UnsupportedKernelError.
    """
    xi_arr = np.abs(np.asarray(xi, dtype=float))
    xs = xi_arr.ravel()
    if not np.all(np.isfinite(xs)):
        raise DomainError("symbol frequencies must be finite")
    out = np.zeros_like(xs)
    todo = np.flatnonzero(xs > 0)
    if kernel.symbol_rule == "exact" and todo.size:
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
        v, w = _gl_panels([0.0, 1.0], n_near)
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
    ts, ws = zip(*(_gl_panels(edges, n) for n in _PANEL_NODES))
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
    return PeriodicFunction.from_half_spectrum(u.grid, u.half_spectrum() * sym.values)


PV_EPS_SEQ = (1e-2, 1e-3, 1e-4)  # where the graded panels of each PV estimate start
PV_STABILITY_TOL = 1e-6
PV_PLAN_BYTES = 64 << 20  # cap on the arrays of the cached PV plans, least recent dropped
_PV_NODES = 12  # Gauss-Legendre nodes per graded panel of the PV rules
_PV_DEPTH = 12  # halvings of the graded panels below each eps, at least
_PV_END_NODES = 20  # Gauss-Legendre nodes of the power-substitution panel
_PV_SWITCH = 1e-3  # z_switch / L: below it the second difference comes from its Taylor series
_PV_PLANS: dict = {}  # (build function, *key) -> plan, least recently used first


def _pv_plan(build, *key) -> tuple:
    """build(*key), its arrays made read-only and kept in _PV_PLANS.  A miss
    drops the least recently used plans until the arrays kept, the new
    plan's included, take at most PV_PLAN_BYTES; a larger plan is kept alone."""
    plan = _PV_PLANS.pop((build, *key), None)
    if plan is None:
        plan = build(*key)
        for arr in plan:
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        while _PV_PLANS and sum(a.nbytes for p in (plan, *_PV_PLANS.values()) for a in p
                                if isinstance(a, np.ndarray)) > PV_PLAN_BYTES:
            del _PV_PLANS[next(iter(_PV_PLANS))]
    _PV_PLANS[(build, *key)] = plan  # (re)inserted last: the most recent
    return plan


def _pv_panels(L: float, breakpoints: tuple) -> list:
    """(a, z, wz) per eps rule: Gauss-Legendre panels halving from L down to
    eps and on to a = eps 2^-J, J >= _PV_DEPTH chosen so that no breakpoint
    lies below a."""
    lowest = min(breakpoints, default=math.inf)
    rules = []
    for eps in PV_EPS_SEQ:
        depth = _PV_DEPTH
        while eps * 2.0 ** -depth >= lowest:
            depth += 1
        a = eps * 2.0 ** -depth
        bounds = [eps * 2.0 ** -j for j in range(depth, -1, -1)]
        while bounds[-1] < L:
            bounds.append(min(2.0 * bounds[-1], L))
        bounds = sorted(set(bounds) | {b for b in breakpoints if a < b < L})
        rules.append((a, *_gl_panels(bounds, _PV_NODES)))
    return rules


def _pv_free(L: float, n_modes: int, breakpoints: tuple) -> tuple:
    """The s-free tier of the PV plan: the Taylor columns d2, d2^2/12 and
    d2^3/360 (d2 = -omega^2, omega = pi k / L), and cos_large =
    cos(outer(z, omega)) over the direct nodes z >= z_switch, rule after
    rule; below z_switch the direct second difference is pure cancellation
    noise."""
    omega = np.pi * np.arange(n_modes) / L
    d2 = -omega**2
    taylor = np.stack([d2, d2**2 / 12.0, d2**3 / 360.0], axis=1)
    large = np.concatenate([z[z >= _PV_SWITCH * L] for _, z, _ in _pv_panels(L, breakpoints)])
    cos_large = np.outer(large, omega)
    np.cos(cos_large, out=cos_large)
    return taylor, cos_large


def _pv_rule(L: float, breakpoints: tuple, s: float) -> tuple:
    """The s tier of the PV plan: (zs, w, n_small, segs, z2, powers).  Each
    rule of _pv_panels gains a panel on (0, a) in v on (0, 1), z = a v^q,
    q = 1/(2 - 2s): the leading z^(1-2s) term of z^2 Kbar(z) for a kernel
    of order s is then constant in v, so nothing near 0 is dropped.  zs
    holds the n_small nodes below z_switch, rule after rule, then the
    direct ones, rule i's on zs[n_small:][segs[i]]; w their weights.
    z2 = zs[:n_small]^2, and row 3i + m - 1 of powers holds z^(2m-2)
    (m = 1, 2, 3) on rule i's small nodes and 0 elsewhere."""
    q = 0.5 / (1.0 - s)
    v, wv = _gl_panels([0.0, 1.0], _PV_END_NODES)
    rules = _pv_panels(L, breakpoints)
    zs = np.concatenate([np.concatenate([a * v**q, z]) for a, z, _ in rules])
    w = np.concatenate([np.concatenate([a * q * v ** (q - 1.0) * wv, wz]) for a, _, wz in rules])
    rule = np.repeat(np.arange(len(rules)), [v.size + z.size for _, z, _ in rules])
    small = zs < _PV_SWITCH * L
    order = np.argsort(np.where(small, rule, rule + len(rules)), kind="stable")
    zs, w, rule, n_small = zs[order], w[order], rule[order], int(np.count_nonzero(small))
    bounds = np.searchsorted(rule[n_small:], np.arange(len(rules) + 1))
    segs = tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
    z2 = zs[:n_small] ** 2
    powers = np.zeros((3 * len(rules), n_small))
    with np.errstate(over="ignore"):  # z^4 overflows once 1e-3 L passes about 1e77
        for m in range(3):
            powers[3 * rule[:n_small] + m, np.arange(n_small)] = z2**m
    return zs, w, n_small, segs, z2, powers


def _pv_weights(u: PeriodicFunction, kbar, breakpoints, s: float) -> tuple:
    """(wd, segs, moments, taylor, cos_large) of one fold: kbar once on every
    node of the s tier, wd = w kbar on the direct nodes, moments[i, m - 1]
    the sum of w kbar z^2m over rule i's small nodes by one product with
    powers, and the s-free tier."""
    L = u.grid.half_period
    if PV_EPS_SEQ[0] >= L:
        raise DomainError(f"the half period must exceed the first eps, {PV_EPS_SEQ[0]:g}")
    zs, w, n_small, segs, z2, powers = _pv_plan(_pv_rule, L, tuple(breakpoints), s)
    with np.errstate(over="ignore", invalid="ignore"):
        wk = w * kbar(zs)
        moments = (powers @ (wk[:n_small] * z2)).reshape(len(segs), 3)
    if not np.isfinite(moments).all():
        bad = ~np.isfinite(wk[:n_small])
        if bad.any():
            # kbar ~ z^(-1-2s) overflows at the smallest nodes for s beyond
            # about 0.98, and z = a v^q underflows to 0 for s beyond about 0.996
            raise IntegrationError(f"the kernel of order s = {s:g} is not finite at the "
                                   f"principal-value node z = {np.min(zs[:n_small][bad]):.3g}")
        # sum wk z^6 overflows for half periods beyond about 1e64 (fraclap 0.5)
        raise IntegrationError(f"principal-value moments overflow at half period {L:g}")
    return (wk[n_small:], segs, moments,
            *_pv_plan(_pv_free, L, u.grid.size // 2 + 1, tuple(breakpoints)))


def _pv_settle(u: PeriodicFunction, x: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The last row of the estimates vals (rule x point), once the rules
    agree within PV_STABILITY_TOL relative to max(1, |value|), which
    certifies that the principal-value limit has stabilized."""
    spread = np.abs(vals[1:] - vals[:-1]).max(axis=0) / np.maximum(1.0, np.abs(vals[-1]))
    # NaN passes no comparison, so an estimate that is not finite is bad
    bad = np.flatnonzero(~(spread <= PV_STABILITY_TOL))
    if bad.size:
        amp = np.abs(u.half_spectrum())
        top = np.flatnonzero(amp > COEFF_NOISE_FLOOR * amp.max()).max(initial=0)
        raise IntegrationError(
            f"principal value unstable across PV_EPS_SEQ at x={x[bad[0]]:g}: the estimates "
            f"{vals[:, bad[0]].tolist()} spread by {spread[bad[0]]:.3g} of max(1, |value|), "
            f"above PV_STABILITY_TOL = {PV_STABILITY_TOL:g}; u has modes up to k = {top} "
            "above COEFF_NOISE_FLOOR")
    return vals[-1]


def _pv_fold(u: PeriodicFunction, xs, kbar, breakpoints, s: float) -> np.ndarray:
    """int_0^L (2u(x) - u(x+z) - u(x-z)) kbar(z) dz at every x in xs, for a
    kbar of order s (kbar(z) ~ z^(-1-2s) at 0), on the PV plan, whose panels
    never straddle a breakpoint of kbar.  Each eps rule of PV_EPS_SEQ is one
    estimate: the direct second difference on its direct nodes, and below
    z_switch its even Taylor series, exact to rounding there, against the
    moments.  u's tables take EVAL_BLOCK points at a time."""
    wd, segs, moments, taylor, cos_large = _pv_weights(u, kbar, breakpoints, s)
    xs = np.asarray(xs, dtype=float)
    out = np.empty(xs.size)
    for i in range(0, xs.size, EVAL_BLOCK):
        x = xs[i:i + EVAL_BLOCK]
        ux = u.eval(x)
        # addition theorem: u(x+z) + u(x-z) = 2 sum_k a_k(x) cos(omega_k z), a_k(x)
        # the half-spectrum table of u at x (0 <= k <= N/2); the second difference
        # is -2 sum_m u^(2m)(x) z^2m / (2m)!, u^(2m)(x) = sum_k a_k(x) (-omega_k^2)^m
        modes = u.modes(x)
        diff = 2.0 * (ux - cos_large @ modes.T)
        direct = np.array([wd[seg] @ diff[seg] for seg in segs])
        out[i:i + EVAL_BLOCK] = _pv_settle(u, x, direct - moments @ (modes @ taylor).T)
    return out


def _pv_fold_grid(u: PeriodicFunction, kbar, breakpoints, s: float) -> np.ndarray:
    """_pv_fold at every node of u's grid.  u(x + z) + u(x - z) at all nodes
    x is one inverse FFT of u's half spectrum times cos(omega z) per direct
    node z, batched in kernels._row_blocks, and u'', u'''' and u^(6) are
    three more: evaluations of u, never a transform of the weights."""
    wd, segs, moments, taylor, cos_large = _pv_weights(u, kbar, breakpoints, s)
    n, half = u.grid.size, u.half_spectrum()
    rules = np.array([np.pad(wd[seg], (seg.start, wd.size - seg.stop)) for seg in segs])
    vals = -(moments @ _half_to_samples(taylor.T * half, n))
    for blk in _row_blocks(wd.size, n):
        shifted = _half_to_samples(cos_large[blk] * half, n)  # (u(x + z) + u(x - z)) / 2
        vals += rules[:, blk] @ (2.0 * (u.samples - shifted))
    return _pv_settle(u, u.grid.nodes, vals)


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
    return float(_pv_fold(u, [x], wrapped, wrapped.breakpoints, kernel.s)[0])


def apply_pv_grid(kernel: Kernel, u: PeriodicFunction) -> PeriodicFunction:
    """apply_pv at every grid node (cross-validation helper), by _pv_fold_grid."""
    wrapped = wrap_kernel(kernel, u.grid.half_period)
    return PeriodicFunction(u.grid, _pv_fold_grid(u, wrapped, wrapped.breakpoints, kernel.s))


def bilinear_fourier(sym: SymbolTable, u: PeriodicFunction,
                     psi: PeriodicFunction) -> float:
    """<u, psi>_K = 2L sum_k ell(pi k/L) u_k conj(psi_k) over |k| <= N/2,
    folded onto the half spectra: 2 N^2 kinetic_weights . Re(u_k conj(psi_k))."""
    if not (sym.grid == u.grid == psi.grid):
        raise GridMismatchError("grid mismatch in bilinear form")
    hu, hp = u.half_spectrum(), psi.half_spectrum()
    return 2.0 * sym.grid.size**2 * float(sym.kinetic_weights @ (hu * hp.conj()).real)


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
