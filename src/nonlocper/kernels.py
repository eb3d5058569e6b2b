"""Radial kernels K(t) of 1-D nonlocal operators, their periodization,
Laplace-transform representations, and class checks.

Families shipped:

* ``FractionalKernel``   K(t) = c_s t^(-1-2s), the fractional Laplacian.
* ``DelaunayKernel``     K(t) = (t^2 + a^2)^(-(n+s)/2).
* ``CompactKernel``      nonincreasing profile vanishing beyond a cutoff.
* ``LaplaceKernel``      K(t) = int kappa(r) exp(-t^2 r) dr on a log r-grid.
* ``CustomKernel``       arbitrary user profile with declared growth data.
* ``SineTailKernel``     smooth strictly convex kernel whose sqrt-profile
  fails complete monotonicity (oscillating third derivative).
* ``indicator_kernel``   characteristic function of [0, cutoff); with
  cutoff in (L, 2L) this is the kernel that defeats the periodic
  rearrangement inequality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval

from .errors import (DomainError, GridMismatchError, IntegrationError,
                     UnsupportedKernelError)


def frac_lap_constant(s: float) -> float:
    """Normalization c_s of the 1-D fractional Laplacian of order 2s."""
    if not 0 < s < 1:
        raise DomainError("s must lie in (0, 1)")
    return s * 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * math.gamma(1.0 - s))


# elements of the dense temporaries built per row block; at 64 kB each they
# stay below the allocator's mmap threshold and reuse freed heap
_BLOCK = 1 << 13


def _row_blocks(n_rows: int, n_cols: int):
    """Row slices whose (rows x n_cols) temporaries hold about _BLOCK
    elements, so memory stays bounded whatever the problem size."""
    step = max(1, _BLOCK // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """The n-point Gauss-Legendre (nodes, weights) on [-1, 1], read-only:
    numpy's leggauss is an eigen-solve, so each n is solved once."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def _gl_panels(edges, n: int) -> tuple:
    """Nodes and weights of the n-point Gauss-Legendre rule laid on every
    panel [edges[i], edges[i + 1]], panel after panel."""
    x, w = _gauss_legendre(n)
    lo, half = np.asarray(edges[:-1], dtype=float), 0.5 * np.diff(edges)
    return ((lo + half)[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


# cap on the nodes of a symbol rule whose node count grows with the largest
# frequency (_sinetail_panels, operator._support_panels): about 6x the
# 167536 nodes of SineTail's rule at L = pi and N = 4096
_MAX_RULE_NODES = 1 << 20


def _check_rule_nodes(nodes: float, what: str, xi_max: float) -> None:
    """DomainError when a rule would take more than _MAX_RULE_NODES nodes,
    raised before any of them is built."""
    if not nodes <= _MAX_RULE_NODES:
        raise DomainError(f"{what} needs about {nodes:.3g} nodes at the largest "
                          f"frequency {xi_max:g}, above the cap of {_MAX_RULE_NODES}: "
                          "take a longer period or fewer modes")


_RESEED = 64  # row blocks that _sine_square_sums rotates between two direct evaluations


def _unit(phase: np.ndarray) -> np.ndarray:
    """e^(i phase) from one cos and one sin call, which together take about
    half the time of numpy's complex exp at phases below 2."""
    z = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=z.real)
    np.sin(phase, out=z.imag)
    return z


def _sine_square_sums(xi: np.ndarray, t: np.ndarray, w: np.ndarray,
                      starts: tuple = (0,)) -> np.ndarray:
    """sum_j w_j 4 sin^2(xi_k t_j / 2) for every frequency xi_k (a row
    each) and every run of nodes t[starts[c]:starts[c + 1]] (a column
    each): the sine table of every fixed symbol rule, the runs being rules
    laid end to end.  It is built in _row_blocks.

    When xi_k = xi_0 + k d to within 4 ulp of each xi_k, as for
    PeriodicGrid.frequencies() and its slices, a block of B rows
    follows from the one before it by one complex multiply per entry,
    z *= e^(i B d t/2) in place with z = e^(i xi t/2) and sin = Im z: one
    complex exponential per node, each run summed pairwise
    (np.add.reduceat).  Every _RESEED blocks z is evaluated afresh, so its
    phase carries the rounding of at most that many products.

    A table of one block, or any other xi, takes the direct sine table,
    one sin per entry, each run summed by the matrix product that the
    rules took before the ladder, so its values are unchanged.  Only the
    ladder sums pairwise,
    since over the 88240 nodes of the fine support rule at N = 4096 and
    L = 0.7, BLAS's few running sums leave up to 2e-14 of rounding where
    the pairwise sum leaves 2e-15."""
    out = np.empty((xi.size, len(starts)))
    rows = max(1, _BLOCK // max(t.size, 1))
    ladder = False
    if xi.size > rows:
        d = (xi[-1] - xi[0]) / (xi.size - 1)
        off = np.abs(xi - (xi[0] + d * np.arange(xi.size)))
        ladder = bool(np.all(off <= 4.0 * np.finfo(float).eps * np.abs(xi)))
    if not ladder:
        runs = [slice(a, b) for a, b in zip(starts, (*starts[1:], t.size))]
        for blk in _row_blocks(xi.size, t.size):
            square = 4.0 * np.sin(0.5 * np.outer(xi[blk], t)) ** 2
            for c, run in enumerate(runs):
                out[blk, c] = square[:, run] @ w[run]
        return out
    turn = _unit((0.5 * rows * d) * t)
    terms = np.empty((rows, t.size))
    for i, blk in enumerate(_row_blocks(xi.size, t.size)):
        if i % _RESEED:
            z *= turn
        elif i == 0 and rows == 1 and xi[0] == d:
            z = turn[None, :].copy()  # a grid's ladder k >= 1 starts at its step
        else:
            z = _unit(0.5 * np.outer(xi[blk], t))
        m = min(rows, xi.size - blk.start)
        np.square(z.imag[:m], out=terms[:m])
        terms[:m] *= w
        out[blk] = 4.0 * np.add.reduceat(terms[:m], starts, axis=1)
    return out


def _each_start(integral: Callable) -> Callable:
    """tail_integral(a) for a float or an array a from integral(self, flat),
    which maps a 1-D array of starts to the integrals from each: an array
    keeps its shape, and a float gives the float that the array call gives
    for it, since each start is reduced on its own.  A start that is
    negative or NaN raises DomainError, in every family."""
    @functools.wraps(integral)
    def tail_integral(self, a):
        a = np.asarray(a, dtype=float)
        if not np.all(a >= 0.0):
            raise DomainError("the tail integral starts at a >= 0")
        out = integral(self, a.ravel())
        return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)
    return tail_integral


@dataclass(frozen=True)
class Kernel:
    """Base kernel.  lambda_lo/Lambda_hi bound K between lambda_lo*t^(-1-2s)
    and Lambda_hi*t^(-1-2s); lambda_lo = 0 means no lower bound declared.
    support is the radius beyond which K vanishes (None = full line)."""

    s: float
    lambda_lo: float = 0.0
    Lambda_hi: float = math.inf
    support: float | None = None
    # how symbol() computes the multiplier: "exact" (closed form) or
    # "quadrature" (a fixed rule over all frequencies); None means the family
    # has no symbol() and operator.symbol_value computes it.  The "exact"
    # families are also those whose profile is smooth between its breaks and
    # does not oscillate, so that symbol_value may take one fixed rule
    symbol_rule: ClassVar[str | None] = None

    def __post_init__(self):
        if not 0 < self.s < 1:
            raise DomainError("s must lie in (0, 1)")
        if not 0 <= self.lambda_lo <= self.Lambda_hi:
            raise DomainError("need 0 <= lambda_lo <= Lambda_hi")

    def profile(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def image_profile(self, t: np.ndarray, L: float, k: np.ndarray) -> np.ndarray:
        """K(|t + 2kL|) for the points t (rows) and the nonzero image
        indices k (columns), as the wrap's image sum needs it: by default one
        profile call on every entry, zero beyond the support."""
        args = np.abs(t[:, None] + 2.0 * L * k)
        vals = _safe_profile(self, args.ravel()).reshape(args.shape)
        if self.support is not None:
            vals = np.where(args < self.support, vals, 0.0)
        return vals

    @property
    def breaks(self) -> tuple:
        """Radii where the profile jumps or kinks (here the support edge).
        wrap_kernel folds them into Kbar's breakpoints."""
        return () if self.support is None else (self.support,)

    def __call__(self, t) -> np.ndarray | float:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr <= 0):
            raise DomainError("kernel argument must be positive")
        out = self.profile(t_arr)
        return float(out[0]) if np.ndim(t) == 0 else out

    def symbol(self, xi: np.ndarray) -> np.ndarray:
        """ell(xi) = 2 int_0^inf (1 - cos(xi t)) K(t) dt for an array xi >= 0,
        by the family's own rule (see symbol_rule)."""
        raise NotImplementedError

    @_each_start
    def tail_integral(self, a):
        """int_a^infinity K(t) dt for a >= 0, a float or an array, by one
        fixed double-exponential rule (Takahasi & Mori, 1974): tanh-sinh on
        [a, b] for a support b, and otherwise exp-sinh,
        t = a (1 + e^((pi/2) sinh tau)).  Exp-sinh assumes what the wrap's
        Euler-Maclaurin tail assumes, that K is smooth on [a, inf) and
        decays like t^(-1-2s), and it needs a finite Lambda_hi (see
        _exp_sinh_rule).  At a = 0 it is tanh-sinh on [0, 1] plus exp-sinh
        from 1.  The starts go in row blocks, one profile call per block."""
        if self.support is not None:
            out = _tanh_sinh(self, a, self.support)
        elif not math.isfinite(self.Lambda_hi):
            raise DomainError("cannot bound the tail integral without a "
                              "finite upper growth constant")
        else:
            whole = a == 0.0
            out = _exp_sinh(self, np.where(whole, 1.0, a))
            if whole.any():
                out[whole] += _tanh_sinh(self, np.zeros(1), 1.0)[0]
        return out


_DE_STEP = 1.0 / 32  # step in tau of both double-exponential rules
_EXP_SINH_V = 17.0 * math.log(10.0)  # the exp-sinh rule ends at x^(-2s) = 1e-17


@functools.lru_cache(maxsize=8)
def _exp_sinh_rule(s: float) -> tuple:
    """Nodes x = 1 + e^v, v = (pi/2) sinh tau, and weights w, with
    int_a^inf f(t) dt = a sum_j w_j f(a x_j), for tau from -4, where w is
    below 1e-18, to where x^(-2s) falls below 1e-17.  The bound
    Lambda_hi t^(-2s)/(2s) on the rest is then below 1e-17 of
    Lambda_hi a^(-2s)/(2s), which is the sum when K(t) t^(1+2s) is near
    Lambda_hi.

    For s below 0.0284 that end lies beyond x = 1e300, where a x overflows,
    so x and w stop there.  rest[j] holds sum w x^(-1-2s) over the nodes from
    j to the end, each term written as e^(-2sv) (1 + e^-v)^(-1-2s) dv so that
    it does not overflow; _exp_sinh scales it by the last profile value it
    could take."""
    tau = np.arange(-4.0, math.asinh(_EXP_SINH_V / (2.0 * s) / (0.5 * math.pi))
                    + _DE_STEP / 2, _DE_STEP)
    v = 0.5 * math.pi * np.sinh(tau)
    dv = _DE_STEP * 0.5 * math.pi * np.cosh(tau)
    rest = np.cumsum((dv * np.exp(-2.0 * s * v) * (1.0 + np.exp(-v)) ** (-1.0 - 2.0 * s))[::-1])
    u = np.exp(v[v < math.log(1e300)])
    rule = 1.0 + u, dv[:u.size] * u, rest[::-1]
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _exp_sinh(kernel: Kernel, a: np.ndarray) -> np.ndarray:
    """int_a^inf K for every a > 0 of an array by the rule of _exp_sinh_rule,
    over the nodes with a x <= 1e300.  Beyond, where a row stops before the
    rule ends (s < 0.0284, or a huge a), the rule goes on with
    K(t) = K(T) (t/T)^(-1-2s) from the row's last node T = a x:
    a K(T) x^(1+2s) sum w x^(-1-2s)."""
    x, w, rest = _exp_sinh_rule(kernel.s)
    n = np.searchsorted(x, 1e300 / a)
    short = n < rest.size
    out = np.empty(a.size)
    for blk in _row_blocks(a.size, x.size):
        ab, nb = a[blk], n[blk]
        if not short[blk].any():
            k = _safe_profile(kernel, (ab[:, None] * x).ravel()).reshape(ab.size, x.size)
            out[blk] = ab * np.vecdot(k, w)
            continue
        keep = np.arange(x.size) < nb[:, None]
        k = _safe_profile(kernel, (ab[:, None] * np.where(keep, x, 1.0)).ravel())
        k = np.where(keep, k.reshape(keep.shape), 0.0)
        out[blk] = ab * np.vecdot(k, w)
        on = np.flatnonzero((nb > 0) & short[blk])
        last = nb[on] - 1
        xn = x[last]
        out[blk][on] += ab[on] * (k[on, last] * xn * xn ** (2.0 * kernel.s) * rest[nb[on]])
    return out


@functools.cache
def _tanh_sinh_rule() -> tuple:
    """Nodes y in (0, 1) and weights of the tanh-sinh rule on [0, 1]:
    y = 1/(1 + e) for e = e^(-pi sinh tau), on the tau grid of the exp-sinh
    rule cut at |tau| = 4, where the weights fall below 1e-35 (read-only)."""
    tau = np.arange(-4.0, 4.0 + _DE_STEP / 2, _DE_STEP)
    e = np.exp(-math.pi * np.sinh(tau))
    y = 1.0 / (1.0 + e)
    w = _DE_STEP * math.pi * np.cosh(tau) * e * y**2  # dy/dtau, with 1 - y = e y
    y.setflags(write=False)
    w.setflags(write=False)
    return y, w


def _tanh_sinh(kernel: Kernel, a: np.ndarray, b: float) -> np.ndarray:
    """int_a^b K(t) dt for every a >= 0 of an array, with t = a + (b - a) y
    on the rule of _tanh_sinh_rule; zero where a >= b."""
    y, w = _tanh_sinh_rule()
    out = np.zeros(a.size)
    live = np.flatnonzero(a < b)
    for blk in _row_blocks(live.size, y.size):
        lo = a[live[blk]]
        k = _safe_profile(kernel, (lo[:, None] + (b - lo)[:, None] * y).ravel())
        out[live[blk]] = (b - lo) * np.vecdot(k.reshape(lo.size, y.size), w)
    return out


@dataclass(frozen=True)
class FractionalKernel(Kernel):
    def __init__(self, s: float):
        c = frac_lap_constant(s)
        super().__init__(s=s, lambda_lo=c, Lambda_hi=c)

    @property
    def constant(self) -> float:
        return self.lambda_lo

    symbol_rule = "exact"

    def profile(self, t):
        return self.constant * t ** (-1.0 - 2.0 * self.s)

    def symbol(self, xi):
        return np.abs(np.asarray(xi, dtype=float)) ** (2.0 * self.s)


@dataclass(frozen=True)
class DelaunayKernel(Kernel):
    n: int = 2
    a: float = 1.0

    def __init__(self, n: int, s: float, a: float):
        if n < 2:
            raise DomainError("dimension parameter n must be >= 2")
        if a <= 0:
            raise DomainError("core width a must be positive")
        if not 0 < s < 1:  # before the powers below, which s < 0 can make complex
            raise DomainError("s must lie in (0, 1)")
        a = float(a)
        # t^(1+2s) (t^2+a^2)^(-(n+s)/2) peaks where its log-derivative
        # vanishes, at t^2 = (1+2s) a^2 / (n-1-s); n - 1 - s > 0 since n >= 2
        try:
            t2 = (1.0 + 2.0 * s) * a**2 / (n - 1.0 - s)
            Lam = t2 ** (0.5 + s) * (t2 + a**2) ** (-(n + s) / 2.0)
            # the symbol's and the Laplace density's constants
            scales = (Lam, a ** (1.0 - n - s), math.gamma(0.5 * (n + s)))
        except ArithmeticError:  # a float power or gamma out of range
            scales = (math.nan,)
        if not all(0.0 < v < math.inf for v in scales):
            raise DomainError(f"Delaunay kernel (n={n}, s={s:g}, a={a:g}) leaves "
                              "the floating-point range")
        super().__init__(s=s, lambda_lo=0.0, Lambda_hi=Lam)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)

    symbol_rule = "exact"

    def profile(self, t):
        """(t^2 + a^2)^(-(n+s)/2); where t or a passes 1e150, so that t^2 + a^2
        could overflow, as m^(-(n+s)) ((t/m)^2 + (a/m)^2)^(-(n+s)/2) with
        m = max(t, a)."""
        t = np.asarray(t, dtype=float)
        e = -(self.n + self.s) / 2.0
        big = np.maximum(t, self.a) > 1e150
        if not big.any():
            return (t**2 + self.a**2) ** e
        out = np.empty_like(t)
        out[~big] = (t[~big] ** 2 + self.a**2) ** e
        m = np.maximum(t[big], self.a)
        out[big] = m ** (2.0 * e) * ((t[big] / m) ** 2 + (self.a / m) ** 2) ** e
        return out

    def symbol(self, xi):
        """The symbol of K's Laplace (Bernstein) form (Schilling, Song &
        Vondracek, Bernstein Functions, ch. 1), built by _measure with its
        lower end set by the smallest xi > 0, so that it is exact at every
        period.  Against mpmath at 40 digits it is within 2.0e-15 relative
        for (n, s, a) in {(2, .5, 1), (3, .2, .5), (2, .8, 2), (5, .9, .3)}
        and xi in [1e-5, 3000].  Basset's Bessel form (DLMF 10.32.11)
        subtracts two nearly equal terms at small xi: for (5, .9, .3) it is
        1.4e-11 off on [pi/40, 3000], and 6.4e-4 off at xi = 1e-5."""
        xi = np.abs(np.asarray(xi, dtype=float))
        pos = xi[xi > 0]
        if pos.size == 0:
            return np.zeros_like(xi)
        return self._measure(math.log(0.25 * (self.a * float(np.min(pos))) ** 2)).symbol(xi)

    def _measure(self, log_c: float, t_max: float = 0.0) -> LaplaceKernel:
        """K as the LaplaceKernel of its density r^(mu-1) e^(-a^2 r)/G(mu),
        mu = (n+s)/2, tabulated on the trapezoid rule in x = log(a^2 r).
        With u = e^x and nu = mu - 1/2 the symbol is
            ell = sqrt(pi) a^(-2nu)/G(mu)
                  int e^(nu x - u) (1 - exp(-(a xi)^2/4u)) dx,
        an integrand analytic in x and decaying on both sides, so the rule
        converges geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014):
        step 0.25 min(1, sqrt(2/nu)), from x = log(40 + 4 nu) down to where
        e^(nu x) is e^-36 below the symbol at c = (a xi)^2/4 = e^log_c, and,
        for t_max > 0, e^(mu x) e^-36 below the profile at t = t_max a."""
        mu = 0.5 * (self.n + self.s)
        nu = mu - 0.5
        # below c the symbol's integrand is about u^nu, and its value about
        # c^min(nu, 1); the profile's integrand e^(mu x - u (1 + (t/a)^2))
        # peaks near u = mu (a/t)^2 and is about u^mu below
        x_lo = (min(nu, 1.0) * min(0.0, log_c) - 36.0) / nu
        if t_max > 0.0:
            x_lo = min(x_lo, math.log(mu / t_max**2) - 36.0 / mu)
        # e^(nu x - u) peaks at u = nu with width 1/sqrt(nu) in x, and beyond
        # u = 40 + 4 nu it is below 1e-17 of its peak
        h = 0.25 * min(1.0, math.sqrt(2.0 / nu))
        x = np.arange(math.log(40.0 + 4.0 * nu), x_lo - h, -h)[::-1]
        log_r = x - 2.0 * math.log(self.a)
        density = np.exp((mu - 1.0) * log_r - np.exp(x)) / math.gamma(mu)
        return LaplaceKernel(np.exp(log_r), density, s=self.s, Lambda_hi=self.Lambda_hi)


@dataclass(frozen=True)
class CompactKernel(Kernel):
    """Nonincreasing tabulated profile vanishing on [cutoff, infinity)."""

    t_table: np.ndarray = field(default=None)
    k_table: np.ndarray = field(default=None)

    def __init__(self, t_table, k_table, s: float):
        t_table = np.asarray(t_table, dtype=float)
        k_table = np.asarray(k_table, dtype=float)
        if np.any(np.diff(t_table) <= 0) or t_table[0] <= 0:
            raise DomainError("profile abscissae must be positive increasing")
        if np.any(k_table < 0) or np.any(np.diff(k_table) > 1e-12):
            raise DomainError("compact profile must be nonnegative nonincreasing")
        cutoff = float(t_table[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            Lam = float(np.max(k_table * t_table ** (1.0 + 2.0 * s)))
        if not math.isfinite(Lam):
            raise DomainError(f"the bound Lambda = max K(t) t^(1+2s) overflows at t = {cutoff:g}")
        super().__init__(s=s, lambda_lo=0.0, Lambda_hi=Lam, support=cutoff)
        object.__setattr__(self, "t_table", t_table)
        object.__setattr__(self, "k_table", k_table)

    symbol_rule = "exact"

    @property
    def breaks(self) -> tuple:
        """The cutoff, where K jumps, and every knot where the slope changes
        (slope 0 before the first knot)."""
        slopes = np.diff(self.k_table) / np.diff(self.t_table)
        turns = np.abs(np.diff(slopes, prepend=0.0))
        kinks = turns > 1e-9 * np.max(np.abs(slopes), initial=0.0)
        return (self.support, *self.t_table[:-1][kinks])

    def profile(self, t):
        out = np.interp(t, self.t_table, self.k_table,
                        left=self.k_table[0], right=0.0)
        out = np.where(t >= self.support, 0.0, out)
        return out

    def symbol(self, xi):
        """Exact for the piecewise-linear profile (flat on (0, t_0]).  Summing
        the segment integrals of (1 - cos(xi t)) (alpha + beta t) by parts,
        the sine terms telescope and only the slope changes remain:
            ell/2 = int K - k_T sin(xi T)/xi
                    + (2/xi^2) sum_i (beta_(i-1) - beta_i) sin^2(xi t_i / 2),
        with T the cutoff, k_T the value K jumps from there, and slope 0
        before t_0 and beyond T."""
        xi = np.abs(np.asarray(xi, dtype=float))
        t, k = self.t_table, self.k_table
        slopes = np.concatenate([[0.0], np.diff(k) / np.diff(t), [0.0]])
        turns = slopes[:-1] - slopes[1:]
        mass = self.tail_integral(0.0)
        out = np.zeros_like(xi)
        pos = np.flatnonzero(xi > 0)
        x = xi[pos]
        bends = 0.5 * _sine_square_sums(x, t, turns)[:, 0]
        out[pos] = 2.0 * (mass - k[-1] * np.sin(x * t[-1]) / x + bends / x**2)
        return out

    @_each_start
    def tail_integral(self, a):
        """Exact: the trapezoid rule is exact on each linear piece.  Piece j
        of the table is cut at a, the flat piece (0, t_0] included."""
        t, k = self.t_table, self.k_table
        starts = np.concatenate([[-math.inf], t[:-1]])
        out = np.empty(a.size)
        for blk in _row_blocks(a.size, t.size):
            lo = np.maximum(starts, a[blk, None])
            width = np.maximum(t - lo, 0.0)
            # interp's left value k_0 makes the flat piece's start k_0
            area = width * (k + np.interp(lo, t, k)) / 2.0
            out[blk] = np.add.reduce(area, axis=1)
        return out


@dataclass(frozen=True)
class LaplaceKernel(Kernel):
    """K(t) = int kappa(r) exp(-t^2 r) dr, trapezoid on a log-spaced r grid."""

    r_grid: np.ndarray = field(default=None)
    density: np.ndarray = field(default=None)
    # _trapezoid_weights, computed once in __init__
    _weights: np.ndarray = field(default=None, repr=False, compare=False)

    def __init__(self, r_grid, density, s: float,
                 lambda_lo: float = 0.0, Lambda_hi: float = math.inf):
        r_grid = np.asarray(r_grid, dtype=float)
        density = np.asarray(density, dtype=float)
        if r_grid.size < 2:  # one node has zero trapezoid weight: K = 0
            raise DomainError("a Laplace profile needs at least two r nodes")
        # one comparison pass: r_0 > 0 and every step up (a NaN fails it)
        if not (r_grid[0] > 0 and (r_grid[1:] > r_grid[:-1]).all()):
            raise DomainError("r grid must be positive increasing")
        if (density < 0).any():
            raise DomainError("Laplace density must be nonnegative")
        if not np.isfinite(density).all():
            raise IntegrationError("Laplace density contains non-finite values")
        super().__init__(s=s, lambda_lo=lambda_lo, Lambda_hi=Lambda_hi)
        object.__setattr__(self, "r_grid", r_grid)
        object.__setattr__(self, "density", density)
        # trapezoid weights in w = log r: half the gaps on either side
        log_r = np.log(r_grid)
        dw = log_r[1:] - log_r[:-1]
        trap = np.empty_like(log_r)
        trap[0], trap[-1] = dw[0], dw[-1]
        np.add(dw[1:], dw[:-1], out=trap[1:-1])
        weights = 0.5 * trap * density
        weights.setflags(write=False)
        object.__setattr__(self, "_weights", weights)

    def profile(self, t):
        t = np.asarray(t, dtype=float)
        # integrate in w = log r: the integrand is an analytic bump, so the
        # trapezoid rule converges spectrally
        r = self.r_grid
        weights = self._trapezoid_weights() * r
        t2 = np.ravel(t) ** 2
        vals = np.empty_like(t2)
        for blk in _row_blocks(t2.size, r.size):
            # one dot product per row: a matvec's rounding would depend on
            # how many rows share the block
            vals[blk] = np.vecdot(np.exp(-np.outer(t2[blk], r)), weights)
        if not np.all(np.isfinite(vals)):
            raise IntegrationError("Laplace quadrature diverged")
        return vals

    symbol_rule = "exact"

    def symbol(self, xi):
        """Exact symbol of the tabulated kernel: the profile is a finite sum
        of Gaussians exp(-t^2 r), each with multiplier
        2 int_0^inf (1 - cos(xi t)) exp(-t^2 r) dt = sqrt(pi/r) (1 - exp(-xi^2/4r)),
        so the same trapezoid weights in log r give ell(xi) exactly.
        DelaunayKernel.symbol is this sum too, over its own measure.

        This is the symbol of the kernel as tabulated, cut off where the
        r grid ends.  For laplace_measure_of(DelaunayKernel) that cut is
        below e^-36 of the symbol, which is within 1e-15 of the Delaunay
        one on xi in [1e-5, 3000].  laplace_measure_of(FractionalKernel(0.2))
        falls off near t = 1e-4 and t = 1e7, and its symbol is 1.8e-3 below
        |xi|^0.4 at xi = 1; operator.symbol_value, whose far part takes the
        exact tail_integral below, agrees with it to 5e-11 at xi = 1, 4 and 32."""
        xi = np.abs(np.asarray(xi, dtype=float))
        r = self.r_grid
        weights = self._trapezoid_weights() * np.sqrt(math.pi * r)
        out = np.empty_like(xi)
        for blk in _row_blocks(xi.size, r.size):
            out[blk] = -np.expm1(-np.outer(xi[blk] ** 2, 0.25 / r)) @ weights
        return out

    @_each_start
    def tail_integral(self, a):
        """Exact for the tabulated kernel, as symbol() is: each Gaussian
        contributes int_a^inf exp(-t^2 r) dt = sqrt(pi/r) erfc(a sqrt(r))/2."""
        r = self.r_grid
        root = np.sqrt(r)
        weights = self._trapezoid_weights() * 0.5 * np.sqrt(math.pi * r)
        out = np.empty(a.size)
        for blk in _row_blocks(a.size, r.size):
            x = np.outer(a[blk], root)
            erfc = np.zeros_like(x)
            live = x < 27.25  # beyond, math.erfc underflows to 0.0
            erfc[live] = list(map(math.erfc, x[live].tolist()))
            out[blk] = np.add.reduce(weights * erfc, axis=1)
        return out

    def _trapezoid_weights(self) -> np.ndarray:
        """Trapezoid weights in w = log r times kappa(r), read-only: the
        profile is sum_j weights_j r_j exp(-t^2 r_j)."""
        return self._weights


@dataclass(frozen=True)
class CustomKernel(Kernel):
    # compared too, by identity: two profiles with the same growth data are
    # still two kernels, and a wrap of one must not pass for the other
    fn: Callable[[np.ndarray], np.ndarray] = None

    def __init__(self, fn, s: float, lambda_lo: float = 0.0,
                 Lambda_hi: float = math.inf, support: float | None = None):
        super().__init__(s=s, lambda_lo=lambda_lo, Lambda_hi=Lambda_hi, support=support)
        object.__setattr__(self, "fn", fn)

    def profile(self, t):
        return np.asarray(self.fn(t), dtype=float)


# Sine integrals of SineTailKernel along steepest-descent rays: with
# x = c (1 + iu) and u = e^v, int_c^inf f(x) sin x dx becomes a Laplace-type
# integral with weight exp(-c u).  Its integrand is analytic for
# |Im v| < pi/2, so the trapezoid rule in v converges geometrically, and the
# sum over every other node (step 2h) is a free error estimate.
# Below t = 2e-9 (a e^40 < 1) the range stops before exp(-a u) decays; the
# loss there is below e^(-40(s+1/2)) of K.
_DESCENT_STEP = 0.2
_DESCENT_V = np.arange(-25.0, 40.0 + _DESCENT_STEP / 2, _DESCENT_STEP)  # 326 nodes
_DESCENT_TOL = 1e-6  # largest step-h vs step-2h gap, relative to the power part


@functools.lru_cache(maxsize=8)
def _descent_weights(p: float) -> tuple:
    """Nodes u = e^v and the rows [Re, Im] of the step-h and step-2h
    trapezoid weights of u^2 (1 + iu)^(-p) dv."""
    u = np.exp(_DESCENT_V)
    w = _DESCENT_STEP * u**2 * (1.0 + 1j * u) ** (-p)
    w2 = np.where(np.arange(u.size) % 2 == 0, 2.0 * w, 0.0)
    return u, np.stack([w.real, w.imag, w2.real, w2.imag])


def _descent_sums(a: np.ndarray, p: float) -> tuple:
    """F(a) = int u^2 (1 + iu)^(-p) e^(-au) dv for an array a > 0, by the
    step-h and the step-2h trapezoid rule.  Along x = a (1 + iu),
    int_a^inf (x - a) x^(-p) sin x dx = Im[-e^(ia) a^(2-p) F(a)].

    One table exp(-a u) per row block, times the weights; the nodes with
    a u > 745 add exact zeros."""
    u, weights = _descent_weights(p)
    sums = np.empty((a.size, 4))
    for blk in _row_blocks(a.size, u.size):
        sums[blk] = np.exp(a[blk, None] * -u) @ weights.T
    return sums[:, 0] + 1j * sums[:, 1], sums[:, 2] + 1j * sums[:, 3]


# With e^(ia) and a^(2-p) factored out, F is smooth and does not oscillate
# in v = log a, so the near branch reads it from a table per p: panels of
# unit width in v ending at a = 100, each one degree-15 polynomial through
# F at 16 second-kind Chebyshev points.  Below the first panel (a < 1e-28)
# F differs from its value at that panel's start by below 1e-19 of the
# power part (s -> 0 is the worst case), and is read there.
_SINE_PANELS = 69
_SINE_V0 = math.log(100.0) - _SINE_PANELS
_SINE_NODES = 16
_SINE_FIT_TOL = 2e-15  # largest last Chebyshev coefficient, relative to the power part


@functools.cache
def _cheb_to_mono(n: int) -> np.ndarray:
    """The matrix taking n Chebyshev coefficients to monomial ones.  Going
    through the Chebyshev coefficients keeps the rounding near that of the
    values: they decay faster than the monomials of T_k grow."""
    m = np.zeros((n, n))
    m[0, 0] = m[1, 1] = 1.0
    for k in range(2, n):  # T_k = 2x T_(k-1) - T_(k-2), column by column
        m[1:, k] = 2.0 * m[:-1, k - 1]
        m[:, k] -= m[:, k - 2]
    return m


@functools.lru_cache(maxsize=8)
def _sine_table(p: float) -> np.ndarray:
    """F(a) of _descent_sums on the _SINE_PANELS panels of v = log a, panel
    i spanning [_SINE_V0 + i, _SINE_V0 + i + 1], as the read-only array of
    monomial coefficients [Re, Im] in the panel's local variable y in
    [-1, 1], shape (_SINE_PANELS, 2, _SINE_NODES).  All panels are fitted
    at once, on the first call for p.  The step-2h estimate at every node
    and each panel's last Chebyshev coefficient must stay within
    _DESCENT_TOL and _SINE_FIT_TOL of the power part 2/((p-1)(p-2)), or
    IntegrationError is raised and nothing is cached."""
    y = _cheb_points(-1.0, 1.0, _SINE_NODES)
    power = 2.0 / ((p - 1.0) * (p - 2.0))
    panels = np.arange(_SINE_PANELS)[:, None]
    fine, coarse = _descent_sums(np.exp(_SINE_V0 + panels + 0.5 * (y + 1.0)).ravel(), p)
    err = float(np.max(np.abs(fine - coarse)))
    if err > _DESCENT_TOL * power:
        raise IntegrationError(f"sine-part quadrature error {err / power:g} "
                               "of the power part")
    fine = fine.reshape(_SINE_PANELS, 1, _SINE_NODES)
    cheb = _cheb_coeffs(np.concatenate([fine.real, fine.imag], axis=1))
    last = float(np.max(np.abs(cheb[..., -1])))
    if last > _SINE_FIT_TOL * power:
        raise IntegrationError(f"sine-part table coefficient {last / power:g} "
                               "of the power part")
    coeffs = cheb @ _cheb_to_mono(_SINE_NODES).T
    coeffs.setflags(write=False)
    return coeffs


def _sine_part(a: np.ndarray, p: float) -> np.ndarray:
    """int_a^inf (x - a) x^(-p) sin x dx = Im[-e^(ia) a^(2-p) F(a)] for an
    array 0 < a < 100, with F read from the table of p (_sine_table): per
    point one log, a panel index, a 16-term row dot (np.vecdot, so no value
    depends on the batch), sin a, cos a and one power.  The powers and the
    gathered table rows are built in row blocks of _BLOCK powers."""
    coeffs = _sine_table(p)
    v = np.log(a) - _SINE_V0
    panel = np.minimum(np.maximum(v, 0.0), _SINE_PANELS - 1).astype(np.intp)
    x = np.clip(2.0 * (v - panel) - 1.0, -1.0, 1.0)
    parts = np.empty((2, a.size))
    for blk in _row_blocks(a.size, _SINE_NODES):
        powers = np.repeat(x[blk, None], _SINE_NODES, axis=1)
        powers[:, 0] = 1.0
        np.cumprod(powers, axis=1, out=powers)
        parts[:, blk] = np.vecdot(powers[:, None, :], coeffs[panel[blk]]).T
    re, im = parts
    return -a ** (2.0 - p) * (np.sin(a) * re + np.cos(a) * im)


_SYMBOL_CUT = 40.0  # SineTail symbol: the sine part is integrated on (0, cut)


def _sinetail_panels(xi_max: float) -> tuple:
    """Gauss-Legendre nodes and weights on (0, _SYMBOL_CUT).  Panels halve
    30 times toward 0, where the sine part has a t^(1-2s) term; beyond,
    each spans at most 8/(2t + xi_max), about one period of
    sin(t^2) cos(xi t).  A panel edge sits at t = 10, where the profile
    switches to its asymptotic branch.

    A step from t is 1/max(2, (2t + xi_max)/8) long, so the march to 40
    takes at most 80 + 200 + 5 xi_max steps, plus the edge at 10 and a
    last short one: with the 31 halving panels, at most 313 + 5 xi_max
    panels of 16 nodes.  DomainError is raised before any is built when
    that count passes _MAX_RULE_NODES (xi_max about 13000, N about 26000
    at L = pi)."""
    _check_rule_nodes(16.0 * (313.0 + 5.0 * xi_max), "the SineTail symbol rule", xi_max)
    t0 = 8.0 / max(8.0, xi_max)
    edges = [0.0] + [t0 * 2.0**-j for j in range(30, -1, -1)]
    while edges[-1] < _SYMBOL_CUT:
        t = edges[-1]
        nxt = min(t + min(0.5, 8.0 / (2.0 * t + xi_max)), _SYMBOL_CUT)
        edges.append(10.0 if t < 10.0 < nxt else nxt)
    return _gl_panels(edges, 16)


@dataclass(frozen=True)
class SineTailKernel(Kernel):
    """K(t) = int_{t^2}^inf (x - t^2) (2 + sin x) x^(-s-5/2) dx.

    Strictly convex and smooth, with growth constants
    1/((s+3/2)(s+1/2)) <= K(t) t^(1+2s) <= 3/((s+3/2)(s+1/2)),
    yet tau -> K(sqrt(tau)) is not completely monotone: its third
    derivative oscillates in sign for large tau.

    The constant part of (2 + sin x) integrates in closed form.  The sine
    part uses a two-term stationary expansion for t^2 >= 100 and otherwise
    reads its steepest-descent sum from a table per s, fitted at once and
    checked on first use (_sine_table; no adaptive quadrature).
    tail_integral runs the steepest-descent trapezoid rule itself.  The wrap's
    image table (image_profile) reads cos a and sin a from products of
    phases, not from a sine and a cosine per entry.  The symbol is a fixed
    Gauss-Legendre rule for all frequencies at once (provenance
    "quadrature").
    """

    def __init__(self, s: float):
        denom = (s + 1.5) * (s + 0.5)
        super().__init__(s=s, lambda_lo=1.0 / denom, Lambda_hi=3.0 / denom)

    symbol_rule = "quadrature"
    breaks = (10.0,)  # the a = t^2 = 100 switch to the stationary expansion

    def profile(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        a = t * t
        far = a >= 100.0
        af = a[far]
        return self._from_squares(a, far, np.cos(af), np.sin(af))

    def image_profile(self, t, L, k):
        """K(|t + 2kL|) with no sine or cosine per entry.  With S = 2|k|L,
        a = (t + 2kL)^2 = S^2 + t^2 + 4kLt, so on the far branch
            e^(ia) = e^(iS^2) e^(it^2) w^k,  w = e^(4iLt):
        one phase per image, two per point, and the powers w^|k| as a
        cumulative product along |k|, conjugated for k < 0.  Near and far
        split on a = args * args as in profile, so the t = 10 switch
        folds where the flat profile puts it."""
        args = np.abs(t[:, None] + 2.0 * L * k)
        a = args * args
        far = a >= 100.0
        m = np.abs(k)
        powers = np.empty((t.size, int(m.max())), dtype=complex)
        powers[:] = np.exp(4j * L * t)[:, None]
        np.cumprod(powers, axis=1, out=powers)
        phase = powers[:, m - 1]
        np.conjugate(phase, out=phase, where=k < 0)
        phase *= np.exp(1j * (2.0 * L * m) ** 2)
        phase *= np.exp(1j * t * t)[:, None]
        phase = phase[far]
        return self._from_squares(a, far, phase.real, phase.imag)

    def _from_squares(self, a, far, cos_far, sin_far):
        """K(sqrt(a)) for an array a: the power part in closed form plus the
        sine part, where far from cos a and sin a there, and at the near
        entries whose power part is finite from _sine_part's table."""
        p = self.s + 2.5
        out = 2.0 * a ** (2.0 - p) / ((p - 1.0) * (p - 2.0))
        af = a[far]
        # two-term stationary expansion of the sine part; the dropped term
        # is 3p(p+1) a^(-p-2) sin a, so at the a = 100 switch the profile
        # jumps by 7.5e-8, 2.0e-7 and 4.3e-7 of K(10) at s = 0.1, 0.5, 0.9
        out[far] += af ** (-p) * (2.0 * p * cos_far / af - sin_far)
        # where the power part overflows (t^2 underflowing to 0 included),
        # K = inf: the sine part, of the same size and either sign, would
        # make it NaN
        near = ~far & np.isfinite(out)
        if near.any():
            out[near] += _sine_part(a[near], p)
        return out

    @_each_start
    def tail_integral(self, a):
        """int_a^inf K = int_{a^2}^inf (2 + sin x) x^(-p) g(x) dx, where
        g(x) = int_a^sqrt(x) (x - t^2) dt = 2x^(3/2)/3 - a x + a^3/3.  The
        constant part sums three power integrals; the sine part goes along
        x = a^2 (1 + iu), where g = a^3 (w - 1)^2 (2w + 1)/3, w = sqrt(1 + iu).
        The step-2h estimate of each start is checked against its own power
        part."""
        s, p = self.s, self.s + 2.5
        bu = np.exp(_DESCENT_V)  # nodes of b u, the weight being e^(-b u)
        out = np.empty(a.size)
        for blk in _row_blocks(a.size, bu.size):
            a_blk = a[blk]
            b = (a_blk * a_blk)[:, None]
            scale = a_blk ** (-2.0 * s)
            power = 2.0 * scale * (2.0 / (3.0 * s) - 1.0 / (s + 0.5)
                                   + 1.0 / (3.0 * (s + 1.5)))
            z = 1j * bu / b
            w = np.sqrt(1.0 + z)
            f = (bu / b) * (1.0 + z) ** (-p) * (z / (w + 1.0)) ** 2 * (2.0 * w + 1.0) / 3.0
            f = f * np.exp(-bu)
            fine = _DESCENT_STEP * f.sum(axis=1)
            coarse = 2.0 * _DESCENT_STEP * f[:, ::2].sum(axis=1)
            err = scale * np.abs(fine - coarse)
            bad = np.flatnonzero(err > _DESCENT_TOL * power)
            if bad.size:
                raise IntegrationError(f"sine-part tail quadrature error {err[bad[0]]:g}")
            out[blk] = power + scale * np.real(np.exp(1j * b[:, 0]) * fine)
        return out

    def symbol(self, xi):
        """K splits into the power part 2 t^(-1-2s)/((p-1)(p-2)), whose
        symbol is that multiple of |xi|^(2s)/c_s, and the sine part, no
        worse than t^(1-2s) at 0 and decaying like t^(-2s-5).  One profile
        call on a fixed panel rule over (0, 40) serves every xi, and one
        _sine_square_sums table sums it; the dropped tail is O(40^(-2s-6))."""
        xi = np.abs(np.asarray(xi, dtype=float))
        p = self.s + 2.5
        c = 2.0 / ((p - 1.0) * (p - 2.0))
        t, w = _sinetail_panels(float(np.max(xi, initial=0.0)))
        rest = w * (self.profile(t) - c * t ** (-1.0 - 2.0 * self.s))
        out = c / frac_lap_constant(self.s) * xi ** (2.0 * self.s)
        pos = np.flatnonzero(xi > 0)
        out[pos] += _sine_square_sums(xi[pos], t, rest)[:, 0]
        return out

    def sqrt_profile_third_derivative(self, tau):
        """d^3/dtau^3 of K(sqrt(tau)), in closed form."""
        tau = np.asarray(tau, dtype=float)
        p = self.s + 2.5
        return (np.cos(tau) - p * (2.0 + np.sin(tau)) / tau) / tau**p


def indicator_kernel(cutoff: float, s: float = 0.5) -> CompactKernel:
    """Characteristic function of [0, cutoff): the compact profile that is
    flat at 1 up to its cutoff."""
    return CompactKernel([cutoff], [1.0], s)


DEFAULT_R_GRID = np.geomspace(1e-14, 1e8, 1600)


def laplace_measure_of(kernel: Kernel) -> LaplaceKernel:
    """Closed-form Laplace (Bernstein) density reproducing the kernel, as a
    LaplaceKernel.  Only the fractional and Delaunay families have one:
    densities c_s r^(s-1/2)/Gamma(s+1/2) and r^((n+s)/2-1) e^(-a^2 r)/Gamma((n+s)/2).

    The Delaunay density is tabulated on the trapezoid rule of
    DelaunayKernel.symbol (see _measure), down to where it is exact for the
    symbol at (a xi)^2/4 >= e^-48 and for the profile out to t = 1e7 a.
    The fractional power law has no exact finite rule: it is tabulated on
    DEFAULT_R_GRID, whose ends cut the profile off near t = 1e-4 and 1e7.
    """
    if not isinstance(kernel, (FractionalKernel, DelaunayKernel)):
        raise UnsupportedKernelError(
            f"no closed-form Laplace density for {type(kernel).__name__}")
    if isinstance(kernel, DelaunayKernel):
        return kernel._measure(-48.0, 1e7)
    r = DEFAULT_R_GRID
    dens = kernel.constant * r ** (kernel.s - 0.5) / math.gamma(kernel.s + 0.5)
    return LaplaceKernel(r, dens, s=kernel.s,
                         lambda_lo=kernel.lambda_lo, Lambda_hi=kernel.Lambda_hi)


def heat_kernel_phi(L: float, r: float, t) -> np.ndarray | float:
    """Periodized Gaussian  Phi(t, r) = sum_k exp(-(t + 2kL)^2 r).

    Even, 2L-periodic, and strictly decreasing on (0, L).  For
    r >= pi/(2L^2) the image sum at t folded into [0, L]; below, its
    Jacobi (Poisson) dual
        sqrt(pi/r)/(2L) [1 + 2 sum_m exp(-pi^2 m^2/(4L^2 r)) cos(pi m t/L)].
    At the switch both series fall like e^(-pi m^2/2), so either takes at
    most 7 terms per point; each stops where its terms fall below 1e-16 of
    its first.
    """
    if r <= 0:
        raise DomainError("rate r must be positive")
    if L <= 0:
        raise DomainError("half period L must be positive")
    t_arr = _fold(np.atleast_1d(np.asarray(t, dtype=float)), L)
    if r >= 0.5 * math.pi / (L * L):
        k_max = math.ceil((math.sqrt(math.log(1e16) / r) + L) / (2.0 * L))
        ks = np.arange(-k_max, k_max + 1)
        out = np.exp(-np.add.outer(t_arr, 2.0 * L * ks) ** 2 * r).sum(axis=1)
    else:
        q = math.pi**2 / (4.0 * L * L * r)
        m = np.arange(1, math.ceil(math.sqrt(math.log(1e16) / q)) + 1)
        dual = np.cos(np.outer(t_arr, math.pi * m / L)) @ np.exp(-q * m * m)
        out = math.sqrt(math.pi / r) / (2.0 * L) * (1.0 + 2.0 * dual)
    return float(out[0]) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class WrappedKernel:
    """Periodization  Kbar(t) = sum_k K(|t + 2kL|), built by wrap_kernel.

    Kbar is even and 2L-periodic by construction.  Evaluation splits off the
    k = 0 singular term: Kbar(t) = K(t_fold) + R(t_fold) with t_fold the
    distance folded into [0, L] and R the sum over the images k != 0.
    A call reads R from the cubic Hermite table that wrap_kernel builds
    from its Chebyshev interpolant, or, with a support, from the exact
    sum; every route of the package (apply_pv, the grid weights of
    polya_szego_check and seminorm_sq_realspace) evaluates Kbar this way.
    grid_values re-sums the images per distance: it is the exact
    reference that tests and benchmarks compare a call against.
    """

    kernel: Kernel
    half_period: float
    breakpoints: tuple = ()  # fold points in (0, L) where Kbar may jump or kink
    _exact: Callable = field(default=None, repr=False, compare=False)  # R summed
    _remainder: Callable = field(default=None, repr=False, compare=False)  # R for calls

    def fold(self, t) -> np.ndarray:
        """Distance folded into [0, L] using evenness and 2L-periodicity."""
        return _fold(t, self.half_period)

    def require_period(self, half_period: float) -> None:
        """Reject a function of another period: the fold and the image sum
        would be silently wrong for it."""
        if self.half_period != half_period:
            raise GridMismatchError(
                f"kernel wrapped at half period {self.half_period:g}, "
                f"function lives on half period {half_period:g}")

    def require_kernel(self, kernel: Kernel) -> None:
        """Reject another kernel than the one wrapped, which a caller that
        takes both would otherwise silently ignore.  An equality that
        raises (array fields) counts as a mismatch."""
        try:
            same = self.kernel is kernel or bool(self.kernel == kernel)
        except ValueError:
            same = False
        if not same:
            raise DomainError("wrapped= must wrap the kernel passed with it")

    def __call__(self, t) -> np.ndarray | float:
        out = self._kbar(np.atleast_1d(self.fold(t)), self._remainder)
        return float(out[0]) if np.ndim(t) == 0 else out

    def grid_values(self, distances) -> np.ndarray:
        """Exact (summed, not tabulated) values at the given distances > 0:
        128 images and the Euler-Maclaurin tail per distance.  A reference
        for checking calls; no route of the package reads it."""
        return self._kbar(np.atleast_1d(self.fold(distances)), self._exact)

    def _kbar(self, tf: np.ndarray, remainder: Callable) -> np.ndarray:
        """K(tf) + remainder(tf) at folded distances.  Kbar(0) is inf, except
        that a kernel with a support stays finite at zero separation."""
        if self.kernel.support is not None:
            near = np.where(tf == 0.0, 1e-12 * self.half_period, tf)
            return _safe_profile(self.kernel, near) + remainder(tf)
        return np.where(tf > 0, _safe_profile(self.kernel, tf), np.inf) + remainder(tf)


def _safe_profile(kernel: Kernel, t: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore"):
        return kernel.profile(np.maximum(t, 1e-300))


def _cheb_points(a: float, b: float, n: int) -> np.ndarray:
    """The n second-kind Chebyshev points of [a, b], from b down to a."""
    return a + 0.5 * (b - a) * (1.0 + np.cos(math.pi * np.arange(n) / (n - 1)))


def _cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through vals at the
    second-kind points, along the last axis: a DCT-I, as the real FFT of
    the even extension.  Each row is transformed on its own, so a batch
    gives the rows' coefficients bitwise."""
    n = vals.shape[-1] - 1
    c = np.fft.rfft(np.concatenate([vals, vals[..., -2:0:-1]], axis=-1)).real / n
    c[..., [0, n]] *= 0.5
    return c


K_DIRECT = 64  # image terms k = +-1..K_DIRECT summed directly when wrapping
_TAIL_POINTS = 17  # Chebyshev points of the Euler-Maclaurin tail fit
_EM_MAX_STEP = 1e100  # the tail's step h = 2L, whose h^3 must stay finite


def _exact_remainder(kernel: Kernel, L: float) -> Callable:
    """The function t -> sum_{k != 0} K(|t + 2kL|) for t in [0, L].

    The images k = +-1..K_DIRECT of a row block go through one
    kernel.image_profile call (with a support, only those whose smallest
    argument on [0, L] lies inside it: 2kL for t + 2kL and (2k - 1)L for
    2kL - t).  Beyond them comes the midpoint Euler-Maclaurin series with
    step h = 2L from a = edge +- t, to its third term:
        (1/h) int_a^inf K + (h/24) K'(a) - (7 h^3/5760) K'''(a).
    The integral is read from its Chebyshev interpolant at _TAIL_POINTS
    points of [edge - L, edge + L] (it is smooth and tiny there), fitted on
    first use and shared by every later call of the returned function, so
    the tail of a value does not depend on the batch it arrives in."""
    sup = kernel.support
    # image columns in the order k = 1, -1, 2, -2, ...
    k = np.repeat(np.arange(1, K_DIRECT + 1), 2) * np.tile([1, -1], K_DIRECT)
    if sup is not None:
        # the other columns are zero for every t in [0, L]; dropping them
        # leaves each sum bitwise unchanged
        shifts = 2.0 * L * np.abs(k)
        k = k[np.where(k > 0, shifts, shifts - L) < sup]
        if k.size == 0:  # support <= L
            return lambda t: np.zeros(np.shape(t))
    edge = 2.0 * (K_DIRECT + 0.5) * L
    lo, hi = edge - L, edge + L
    if (sup is None or sup > lo) and not 2.0 * L < _EM_MAX_STEP:
        raise DomainError(f"half period {L:g} too large: the wrap's "
                          "Euler-Maclaurin tail overflows")

    @functools.cache
    def tail_fit() -> np.ndarray:
        nodes = _cheb_points(lo, hi, _TAIL_POINTS)
        return _cheb_coeffs(kernel.tail_integral(nodes))

    def remainder(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = np.empty_like(flat)
        for blk in _row_blocks(flat.size, k.size):
            vals = kernel.image_profile(flat[blk], L, k)
            # accumulated term by term in the image order k = 1, -1, 2, -2, ...
            # (cumsum, not the pairwise sum): margins such as classify_kernel's
            # take differences of these sums, and the order fixes their last bits
            out[blk] = np.cumsum(vals, axis=1)[:, -1]
        if sup is None or sup > lo:
            # K' and K''' from one centred 4-point stencil at step a/500; at
            # s = 0.1 the wrapped fractional kernel is then 6e-15 off its
            # Hurwitz-zeta closed form, and 6e-14 at step a/100
            a = np.concatenate([edge + flat, edge - flat])
            h, d = 2.0 * L, 0.002 * a
            # one profile call for the stencil: every profile is elementwise
            # or reduces each point on its own, so the values are unchanged
            steps = np.array([2.0, 1.0, -1.0, -2.0])[:, None]
            k2, k1, m1, m2 = _safe_profile(kernel, (a + steps * d).ravel()).reshape(4, a.size)
            dK = (8.0 * (k1 - m1) - (k2 - m2)) / (12.0 * d)
            d3K = ((k2 - m2) - 2.0 * (k1 - m1)) / (2.0 * d**3)
            tail_int = chebval((2.0 * a - lo - hi) / (hi - lo), tail_fit())
            tail = tail_int / h + h * dK / 24.0 - 7.0 * h**3 * d3K / 5760.0
            out = out + tail[:flat.size] + tail[flat.size:]
        return out.reshape(t.shape)

    return remainder


def _fold(t, L: float) -> np.ndarray:
    """Distances t folded into [0, L] using evenness and 2L-periodicity."""
    t = np.fmod(np.abs(np.asarray(t, dtype=float)), 2.0 * L)  # fmod is mod for t >= 0
    return np.minimum(t, 2.0 * L - t)


def _fold_breakpoints(L: float, ts) -> tuple:
    """Points of (0, L) where Kbar breaks when K breaks at the radii ts:
    |t + 2kL| crosses a radius exactly where t folds onto it."""
    return tuple(sorted({float(f) for f in _fold(ts, L) if 0.0 < f < L}))


_CHEB_START = 17  # first level of the nested Chebyshev fit, 2^4 + 1 points
_CHEB_MAX = 4097  # its cap, 2^12 + 1 points
_CHOP_TOL = 1e-13  # trailing coefficients below this times max|R| end the doubling
_TABLE_CELLS = 4096  # uniform cells of [0, L] in the Hermite table of R


def _cheb_fit(fn: Callable, a: float, b: float) -> np.ndarray:
    """Chebyshev coefficients on [a, b] of the interpolant of fn at nested
    2^j + 1 second-kind points.  The point count doubles, reusing every
    sample, until the trailing half of the coefficients falls below
    _CHOP_TOL of max|fn| (Aurentz & Trefethen, "Chopping a Chebyshev
    series", 2017) or reaches _CHEB_MAX.  The test only ends the doubling:
    all n coefficients of the last interpolant are returned, none chopped.
    Since it reads the trailing half, n is about twice the significant
    degree; the exact SineTail remainder at s = 0.5 on [0, 4 pi - 10] has its
    last coefficient above the tolerance at degree 445, so it takes 1025
    points."""
    n = _CHEB_START
    vals = fn(_cheb_points(a, b, n))
    while True:
        c = _cheb_coeffs(vals)
        if n >= _CHEB_MAX or np.max(np.abs(c[n // 2:])) <= _CHOP_TOL * np.max(np.abs(vals)):
            return c
        n = 2 * n - 1  # the old points are the even ones of the new set
        finer = np.empty(n)
        finer[::2] = vals
        finer[1::2] = fn(_cheb_points(a, b, n)[1::2])
        vals = finer


_CLENSHAW_MAX = 65  # series up to this length keep numpy's Clenshaw loop


def _cheb_derivative(c: np.ndarray) -> np.ndarray:
    """chebder(c) without its Python loop over the terms: the derivative's
    coefficient d_k is the sum of 2j c_j over j > k with j - k odd (d_0
    halved), so the even d_k are reversed cumulative sums over the odd j and
    the odd d_k over the even j."""
    e = 2.0 * np.arange(c.size) * c
    d = np.empty(c.size - 1)
    d[0::2] = np.cumsum(e[1::2][::-1])[::-1]
    d[1::2] = np.cumsum(e[2::2][::-1])[::-1]
    d[0] *= 0.5
    return d


def _cheb_value_slope(x: np.ndarray, c: np.ndarray) -> tuple:
    """The Chebyshev series c and its derivative chebder(c) at x in [-1, 1].

    Series of at most _CLENSHAW_MAX terms take chebval and chebder, Python
    loops over the terms.  Longer ones take _cheb_derivative and are summed
    by baby-step giant-step products (Paterson & Stockmeyer, 1973): with
    z = x + i sqrt(1 - x^2) = e^(i theta), T_k(x) = Re z^k, and for
    k = bq + r with b about sqrt(n),
        Re z^k = Re z^(bq) Re z^r - Im z^(bq) Im z^r.
    The powers z^r (r < b) and z^(bq) are cumulative products, Re z^r and
    Im z^r each take one matmul against the (2q x b) matrix of c and
    chebder(c), and a sum over q finishes each node, in blocks of nodes
    whose temporaries stay small.  A node beyond +-1 (a table node just past
    its piece) takes the value at the clipped point plus one Taylor step,
    value + slope (x - clip(x)), and the slope there."""
    if c.size <= _CLENSHAW_MAX:
        return chebval(x, c), chebval(x, chebder(c))
    d = _cheb_derivative(c)
    b = math.isqrt(c.size - 1) + 1
    q = -(-c.size // b)
    coef = np.zeros((2, q * b))
    coef[0, :c.size] = c
    coef[1, :d.size] = d
    # coef[2j + m, r] is term bj + r of series m (c, then chebder(c))
    coef = coef.reshape(2, q, b).transpose(1, 0, 2).reshape(2 * q, b)
    xc = np.clip(x, -1.0, 1.0)
    out = np.empty((2, x.size))
    for blk in _row_blocks(x.size, 2 * q):
        xb = xc[blk]
        z = xb + 1j * np.sqrt((1.0 - xb) * (1.0 + xb))
        baby = np.empty((b, xb.size), dtype=complex)
        baby[0] = 1.0
        baby[1:] = z
        np.cumprod(baby, axis=0, out=baby)
        giant = np.empty((q, xb.size), dtype=complex)
        giant[0] = 1.0
        giant[1:] = baby[-1] * z
        np.cumprod(giant, axis=0, out=giant)
        re = (coef @ baby.real).reshape(q, 2, -1)
        im = (coef @ baby.imag).reshape(q, 2, -1)
        out[:, blk] = (np.einsum("qm,qjm->jm", giant.real, re)
                       - np.einsum("qm,qjm->jm", giant.imag, im))
    values, slopes = out
    return values + slopes * (x - xc), slopes


@dataclass(frozen=True)
class _HermiteTable:
    """Cubic Hermite interpolant on _TABLE_CELLS uniform cells of [0, L]:
    cell i holds the coefficients of c0 + c1 u + c2 u^2 + c3 u^3 in the
    local variable u in [0, 1], so a lookup is one index, four gathers and
    Horner."""

    cells_per_unit: float
    coeffs: tuple

    def __call__(self, t: np.ndarray) -> np.ndarray:
        x = t * self.cells_per_unit
        i = np.fmax(np.fmin(x, _TABLE_CELLS - 1), 0).astype(np.intp)
        u = x - i
        c0, c1, c2, c3 = (c[i] for c in self.coeffs)
        return c0 + u * (c1 + u * (c2 + u * c3))


def _remainder_table(L: float, folds: tuple, exact: Callable) -> _HermiteTable:
    """Hermite table of R(t) = sum_{k != 0} K(|t + 2kL|) on [0, L].  R is
    fitted by _cheb_fit on the exact sum, in pieces between the folds of
    the kernel's breaks.  A fold can land on 0 or L, where the image sum
    takes the other branch of the profile; folds within 2 gap of 0 or L
    (gap = 1e-12 L) are dropped, and every piece ends gap short of both of
    its ends, so that rounding puts no sample on the other branch.  Each
    node takes R and R' of the piece it lies in, from _cheb_value_slope."""
    gap = 1e-12 * L
    folds = [f for f in folds if 2.0 * gap < f < L - 2.0 * gap]
    ends = [0.0, *folds, L]
    t = np.linspace(0.0, L, _TABLE_CELLS + 1)
    piece = np.searchsorted(np.array(folds, dtype=float), t)
    values = np.empty_like(t)
    slopes = np.empty_like(t)
    for j, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])):
        a, b = lo + gap, hi - gap
        c = _cheb_fit(exact, a, b)
        sel = piece == j
        values[sel], slope = _cheb_value_slope((2.0 * t[sel] - a - b) / (b - a), c)
        slopes[sel] = slope * (2.0 / (b - a))
    h = L / _TABLE_CELLS
    y0, y1 = values[:-1], values[1:]
    d0, d1 = h * slopes[:-1], h * slopes[1:]
    return _HermiteTable(1.0 / h, (y0, d0, 3.0 * (y1 - y0) - 2.0 * d0 - d1,
                                   2.0 * (y0 - y1) + d0 + d1))


def wrap_kernel(kernel: Kernel, L: float, tol: float = 1e-10) -> WrappedKernel:
    """Periodize K over period 2L.

    The folds of kernel.breaks into (0, L) become the breakpoints, where
    Kbar may jump or kink and apply_pv's panels end.  The remainder
    R(t) = sum_{k != 0} K(|t + 2kL|) is summed exactly by one
    _exact_remainder, built here and kept: K_DIRECT image terms on each
    side plus an Euler-Maclaurin tail.  grid_values, the exact reference,
    reads that sum.  Without a support, R is analytic on [0, L] between
    the same folds: it is interpolated there at nested Chebyshev points
    until the trailing coefficients are negligible (see _cheb_fit), and R
    and R' are tabulated on _TABLE_CELLS uniform cells that a call reads
    as a cubic Hermite, within 3e-15 relative of the exact sum at the cell
    distances of a grid.  With a support, a call reads the exact sum too,
    which stays honest across the jumps where an interpolant would ring.

    tol sets nothing: the construction above fixes the accuracy.  It is
    still accepted, and values <= 0 are still rejected, for callers that
    pass it.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if L <= 0:
        raise DomainError("half period must be positive")
    folds = _fold_breakpoints(L, kernel.breaks)
    exact = _exact_remainder(kernel, L)
    table = exact if kernel.support is not None else _remainder_table(L, folds, exact)
    return WrappedKernel(kernel=kernel, half_period=L, breakpoints=folds,
                         _exact=exact, _remainder=table)


@dataclass(frozen=True)
class KernelClassReport:
    convex: bool
    convexity_margin: float
    wrapped_monotone: bool
    monotonicity_margin: float
    laplace_consistent: bool | None
    laplace_error: float | None
    sqrt_profile_cm: bool | None
    notes: str = ""


def classify_kernel(kernel: Kernel, L: float = math.pi) -> KernelClassReport:
    """Grid-based falsification report for the rearrangement kernel classes.

    Checks convexity of K by second differences on 400 log-spaced points of
    [1e-2, 10], monotonicity of the periodization on (0, L), and (where a
    Laplace representation is available) reconstruction consistency.
    Margins are worst violations; a passing check is evidence, never a proof.
    """
    if L <= 0:
        raise DomainError("half period must be positive")
    grid = np.geomspace(1e-2, 10.0, 400)
    kv = _safe_profile(kernel, grid)
    # second differences on the (generally nonuniform) grid
    t0, t1, t2 = grid[:-2], grid[1:-1], grid[2:]
    lam = (t2 - t1) / (t2 - t0)
    chord = lam * kv[:-2] + (1 - lam) * kv[2:]
    margin = float(np.min(chord - kv[1:-1]))
    convex = margin >= -1e-12 * max(1.0, float(np.max(np.abs(kv))))

    tt = np.linspace(L / 512, L, 512)
    remainder = _exact_remainder(kernel, L)
    try:
        # Kbar at tt from the exact image sum, without building the call table
        vals = _safe_profile(kernel, tt) + remainder(tt)
    except DomainError:
        # only Kernel.tail_integral's missing growth bound leaves the wrap
        # undefined
        if kernel.support is not None or math.isfinite(kernel.Lambda_hi):
            raise
        mono_margin = math.nan
        wrapped_monotone = False
    else:
        mono_margin = float(np.max(np.diff(vals)))
        wrapped_monotone = mono_margin <= 1e-10 * max(1.0, float(np.max(np.abs(vals))))

    laplace_consistent = None
    laplace_error = None
    sqrt_cm = None
    notes = ""
    try:
        lk = laplace_measure_of(kernel)
        ts = np.geomspace(1e-2, 10.0, 60)
        rec = lk.profile(ts)
        ref = _safe_profile(kernel, ts)
        laplace_error = float(np.max(np.abs(rec - ref) / np.abs(ref)))
        laplace_consistent = laplace_error < 1e-6
        sqrt_cm = True  # representable as a Laplace transform of mu >= 0
    except UnsupportedKernelError:
        pass
    if isinstance(kernel, SineTailKernel):
        tau = np.linspace(1.0, 100.0, 4000)
        signs = np.sign(kernel.sqrt_profile_third_derivative(tau))
        flips = int(np.count_nonzero(np.diff(signs) != 0))
        sqrt_cm = False if flips >= 2 else sqrt_cm
        notes = f"sqrt-profile third derivative changes sign {flips} times on (1, 100)"

    return KernelClassReport(convex=convex, convexity_margin=margin,
                             wrapped_monotone=wrapped_monotone,
                             monotonicity_margin=mono_margin,
                             laplace_consistent=laplace_consistent,
                             laplace_error=laplace_error,
                             sqrt_profile_cm=sqrt_cm, notes=notes)


def kernel_from_spec(spec: dict) -> Kernel:
    """Build a kernel from its JSON description (see config_schema.json)."""
    family = spec.get("family")
    if family == "fraclap":
        return FractionalKernel(s=spec["s"])
    if family == "delaunay":
        return DelaunayKernel(n=int(spec.get("n", 2)), s=spec["s"], a=spec.get("a", 1.0))
    if family == "compact":
        prof = np.asarray(spec["profile"], dtype=float)
        return CompactKernel(prof[:, 0], prof[:, 1], s=spec.get("s", 0.5))
    if family == "laplace":
        prof = np.asarray(spec["profile"], dtype=float)
        return LaplaceKernel(prof[:, 0], prof[:, 1], s=spec.get("s", 0.5),
                             Lambda_hi=spec.get("Lambda", math.inf))
    if family == "sinetail":
        return SineTailKernel(s=spec["s"])
    if family == "indicator":
        return indicator_kernel(cutoff=spec["cutoff"], s=spec.get("s", 0.5))
    raise UnsupportedKernelError(f"unknown kernel family {family!r}")
