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
* ``indicator_kernel``   characteristic function of [0, cutoff]; with
  cutoff in (L, 2L) this is the kernel that defeats the periodic
  rearrangement inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, interpolate
from scipy.special import gamma as gamma_fn

from .errors import (DomainError, GridMismatchError, IntegrationError,
                     UnsupportedKernelError)


def frac_lap_constant(s: float) -> float:
    """Normalization c_s of the 1-D fractional Laplacian of order 2s."""
    if not 0 < s < 1:
        raise DomainError("s must lie in (0, 1)")
    return s * 4.0**s * gamma_fn(0.5 + s) / (math.sqrt(math.pi) * gamma_fn(1.0 - s))


@dataclass(frozen=True)
class Kernel:
    """Base kernel.  lambda_lo/Lambda_hi bound K between lambda_lo*t^(-1-2s)
    and Lambda_hi*t^(-1-2s); lambda_lo = 0 means no lower bound declared.
    support is the radius beyond which K vanishes (None = full line)."""

    s: float
    lambda_lo: float = 0.0
    Lambda_hi: float = math.inf
    support: float | None = None

    def __post_init__(self):
        if not 0 < self.s < 1:
            raise DomainError("s must lie in (0, 1)")
        if not 0 <= self.lambda_lo <= self.Lambda_hi:
            raise DomainError("need 0 <= lambda_lo <= Lambda_hi")

    def profile(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t) -> np.ndarray | float:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr <= 0):
            raise DomainError("kernel argument must be positive")
        out = self.profile(t_arr)
        return float(out[0]) if np.ndim(t) == 0 else out

    def tail_integral(self, a: float) -> float:
        """int_a^infinity K(t) dt."""
        if self.support is not None and a >= self.support:
            return 0.0
        b = self.support if self.support is not None else np.inf
        val, err = integrate.quad(lambda t: float(self.profile(np.array([t]))[0]),
                                  a, b, limit=200)
        return val


@dataclass(frozen=True)
class FractionalKernel(Kernel):
    def __init__(self, s: float):
        c = frac_lap_constant(s)
        super().__init__(s=s, lambda_lo=c, Lambda_hi=c)

    @property
    def constant(self) -> float:
        return self.lambda_lo

    def profile(self, t):
        return self.constant * t ** (-1.0 - 2.0 * self.s)

    def tail_integral(self, a: float) -> float:
        return self.constant * a ** (-2.0 * self.s) / (2.0 * self.s)


@dataclass(frozen=True)
class DelaunayKernel(Kernel):
    n: int = 2
    a: float = 1.0

    def __init__(self, n: int, s: float, a: float):
        if n < 2:
            raise DomainError("dimension parameter n must be >= 2")
        if a <= 0:
            raise DomainError("core width a must be positive")
        # sup of t^(1+2s) (t^2+a^2)^(-(n+s)/2) is finite since n + s > 1 + 2s
        tt = np.logspace(-6, 8, 4001)
        Lam = float(np.max(tt ** (1.0 + 2.0 * s) * (tt**2 + a**2) ** (-(n + s) / 2.0)))
        super().__init__(s=s, lambda_lo=0.0, Lambda_hi=Lam)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", float(a))

    def profile(self, t):
        return (t**2 + self.a**2) ** (-(self.n + self.s) / 2.0)


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
        Lam = float(np.max(k_table * t_table ** (1.0 + 2.0 * s)))
        super().__init__(s=s, lambda_lo=0.0, Lambda_hi=Lam, support=cutoff)
        object.__setattr__(self, "t_table", t_table)
        object.__setattr__(self, "k_table", k_table)

    def profile(self, t):
        out = np.interp(t, self.t_table, self.k_table,
                        left=self.k_table[0], right=0.0)
        out = np.where(t >= self.support, 0.0, out)
        return out


@dataclass(frozen=True)
class LaplaceKernel(Kernel):
    """K(t) = int kappa(r) exp(-t^2 r) dr, trapezoid on a log-spaced r grid."""

    r_grid: np.ndarray = field(default=None)
    density: np.ndarray = field(default=None)

    def __init__(self, r_grid, density, s: float,
                 lambda_lo: float = 0.0, Lambda_hi: float = math.inf):
        r_grid = np.asarray(r_grid, dtype=float)
        density = np.asarray(density, dtype=float)
        if np.any(r_grid <= 0) or np.any(np.diff(r_grid) <= 0):
            raise DomainError("r grid must be positive increasing")
        if np.any(density < 0):
            raise DomainError("Laplace density must be nonnegative")
        if not np.all(np.isfinite(density)):
            raise IntegrationError("Laplace density contains non-finite values")
        super().__init__(s=s, lambda_lo=lambda_lo, Lambda_hi=Lambda_hi)
        object.__setattr__(self, "r_grid", r_grid)
        object.__setattr__(self, "density", density)

    def profile(self, t):
        t = np.asarray(t, dtype=float)
        # integrate in w = log r: the integrand is an analytic bump, so the
        # trapezoid rule converges spectrally
        w = np.log(self.r_grid)
        vals = np.trapezoid(self.density[None, :] * self.r_grid[None, :]
                        * np.exp(-np.outer(t**2, self.r_grid)), w, axis=1)
        if not np.all(np.isfinite(vals)):
            raise IntegrationError("Laplace quadrature diverged")
        return vals


@dataclass(frozen=True)
class CustomKernel(Kernel):
    fn: Callable[[np.ndarray], np.ndarray] = field(default=None, compare=False)

    def __init__(self, fn, s: float, lambda_lo: float = 0.0,
                 Lambda_hi: float = math.inf, support: float | None = None):
        super().__init__(s=s, lambda_lo=lambda_lo, Lambda_hi=Lambda_hi, support=support)
        object.__setattr__(self, "fn", fn)

    def profile(self, t):
        return np.asarray(self.fn(t), dtype=float)


@dataclass(frozen=True)
class SineTailKernel(Kernel):
    """K(t) = int_{t^2}^inf (x - t^2) (2 + sin x) x^(-s-5/2) dx.

    Strictly convex and smooth, with growth constants
    1/((s+3/2)(s+1/2)) <= K(t) t^(1+2s) <= 3/((s+3/2)(s+1/2)),
    yet tau -> K(sqrt(tau)) is not completely monotone: its third
    derivative oscillates in sign for large tau.
    """

    def __init__(self, s: float):
        denom = (s + 1.5) * (s + 0.5)
        super().__init__(s=s, lambda_lo=1.0 / denom, Lambda_hi=3.0 / denom)

    def profile(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p = self.s + 2.5
        out = np.empty_like(t)
        for i, ti in enumerate(t):
            a = ti * ti
            # constant part of (2 + sin x) integrates in closed form
            base = 2.0 * a ** (2.0 - p) / ((p - 1.0) * (p - 2.0))
            if a >= 100.0:
                # two-term stationary expansion of the sine part; the
                # dropped term is O(a^(-p-2)), relatively O(a^-4) vs base
                osc = -math.sin(a) * a ** (-p) + 2.0 * p * math.cos(a) * a ** (-p - 1.0)
            else:
                osc, err = integrate.quad(lambda x: (x - a) * x ** (-p),
                                          a, np.inf, weight="sin", wvar=1.0,
                                          limit=300)
                # QAWF estimates are conservative; gate only against blowups
                if err > 1e-5 * max(abs(base), 1e-30):
                    raise IntegrationError(
                        f"oscillatory tail quadrature error {err:g}")
            out[i] = base + osc
        return out

    def sqrt_profile_third_derivative(self, tau):
        """d^3/dtau^3 of K(sqrt(tau)), in closed form."""
        tau = np.asarray(tau, dtype=float)
        p = self.s + 2.5
        return (np.cos(tau) - p * (2.0 + np.sin(tau)) / tau) / tau**p


def indicator_kernel(cutoff: float, s: float = 0.5) -> CustomKernel:
    """Characteristic function of [0, cutoff]."""

    def fn(t):
        return np.where(t <= cutoff, 1.0, 0.0)

    Lam = cutoff ** (1.0 + 2.0 * s)  # sup of t^(1+2s) on the support
    return CustomKernel(fn, s=s, lambda_lo=0.0, Lambda_hi=Lam, support=cutoff)


DEFAULT_R_GRID = np.geomspace(1e-14, 1e8, 1600)


def laplace_measure_of(kernel: Kernel) -> LaplaceKernel:
    """Closed-form Laplace (Bernstein) density reproducing the kernel,
    tabulated on DEFAULT_R_GRID.

    Only the fractional and Delaunay families have a known closed form:
    densities c_s r^(s-1/2)/Gamma(s+1/2) and r^((n+s)/2-1) e^(-a^2 r)/Gamma((n+s)/2).
    """
    r = DEFAULT_R_GRID
    if isinstance(kernel, FractionalKernel):
        dens = kernel.constant * r ** (kernel.s - 0.5) / gamma_fn(kernel.s + 0.5)
    elif isinstance(kernel, DelaunayKernel):
        g = (kernel.n + kernel.s) / 2.0
        dens = np.exp((g - 1.0) * np.log(r) - kernel.a**2 * r) / gamma_fn(g)
    else:
        raise UnsupportedKernelError(
            f"no closed-form Laplace density for {type(kernel).__name__}")
    return LaplaceKernel(r, dens, s=kernel.s,
                         lambda_lo=kernel.lambda_lo, Lambda_hi=kernel.Lambda_hi)


def heat_kernel_phi(L: float, r: float, t) -> np.ndarray | float:
    """Periodized Gaussian  Phi(t, r) = sum_k exp(-(t + 2kL)^2 r).

    Even, 2L-periodic, and strictly decreasing on (0, L).  Truncation tail
    below 1e-14 absolute.
    """
    if r <= 0:
        raise DomainError("rate r must be positive")
    if L <= 0:
        raise DomainError("half period L must be positive")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    width = math.sqrt(math.log(1e16) / r)
    k_max = int(math.ceil((width + np.max(np.abs(t_arr)) + L) / (2.0 * L))) + 1
    ks = np.arange(-k_max, k_max + 1)
    out = np.exp(-np.add.outer(t_arr, 2.0 * L * ks) ** 2 * r).sum(axis=1)
    return float(out[0]) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class WrappedKernel:
    """Periodization  Kbar(t) = sum_k K(|t + 2kL|), tabulated and splined.

    Kbar is even and 2L-periodic by construction.  Evaluation splits off the
    k = 0 singular term: Kbar(t) = K(t_fold) + R(t_fold) with t_fold the
    distance folded into [0, L], R smooth on [0, L].
    """

    kernel: Kernel
    half_period: float
    tail_tol: float
    k_max: int
    breakpoints: tuple = ()  # fold points in (0, L) where Kbar may jump or kink
    _remainder: object = field(default=None, repr=False, compare=False)

    @property
    def L(self) -> float:
        return self.half_period

    def fold(self, t) -> np.ndarray:
        """Distance folded into [0, L] using evenness and 2L-periodicity."""
        t = np.abs(np.asarray(t, dtype=float))
        L = self.half_period
        t = np.mod(t, 2.0 * L)
        return np.minimum(t, 2.0 * L - t)

    def require_period(self, half_period: float) -> None:
        """Reject a function of another period: the fold and the image sum
        would be silently wrong for it."""
        if self.half_period != half_period:
            raise GridMismatchError(
                f"kernel wrapped at half period {self.half_period:g}, "
                f"function lives on half period {half_period:g}")

    def remainder(self, t_fold) -> np.ndarray:
        t_fold = np.asarray(t_fold, dtype=float)
        if self.kernel.support is not None:
            # cheap exact sum; also honest across jump discontinuities,
            # where a spline would ring
            return _wrap_remainder_exact(self.kernel, self.half_period, t_fold)
        return self._remainder(t_fold)

    def __call__(self, t) -> np.ndarray | float:
        tf = np.atleast_1d(self.fold(t))
        out = np.where(tf > 0, _safe_profile(self.kernel, np.maximum(tf, 1e-300)),
                       np.inf)
        if self.kernel.support is not None and np.any(tf == 0.0):
            # bounded kernels stay finite at zero separation
            k0 = float(self.kernel.profile(
                np.array([1e-12 * self.half_period]))[0])
            out = np.where(tf == 0.0, k0, out)
        out = out + self.remainder(tf)
        return float(out[0]) if np.ndim(t) == 0 else out

    def grid_values(self, distances) -> np.ndarray:
        """Exact (summed, not splined) values at the given distances > 0."""
        d = np.atleast_1d(self.fold(distances))
        vals = _wrap_remainder_exact(self.kernel, self.half_period, d)
        with np.errstate(divide="ignore"):
            vals = vals + np.where(
                d > 0, _safe_profile(self.kernel, np.maximum(d, 1e-300)), np.inf)
        return vals


def _safe_profile(kernel: Kernel, t: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore"):
        return kernel.profile(np.maximum(t, 1e-300))


def _tail_integral_vec(kernel: Kernel, a: np.ndarray) -> np.ndarray:
    """int_a^inf K for a vector of lower limits; interpolated from a coarse
    table when many limits are requested (the tail is smooth and tiny)."""
    a = np.asarray(a, dtype=float)
    if isinstance(kernel, FractionalKernel):
        return kernel.constant * a ** (-2.0 * kernel.s) / (2.0 * kernel.s)
    if a.size <= 16:
        return np.array([kernel.tail_integral(ai) for ai in a])
    table_a = np.linspace(float(np.min(a)), float(np.max(a)), 33)
    table_v = np.array([kernel.tail_integral(ai) for ai in table_a])
    return interpolate.CubicSpline(table_a, table_v)(a)


K_DIRECT = 64  # image terms k = +-1..K_DIRECT summed directly when wrapping


def _wrap_remainder_exact(kernel: Kernel, L: float, t: np.ndarray) -> np.ndarray:
    """sum_{k != 0} K(|t + 2kL|) for t in [0, L]: K_DIRECT direct terms per
    side plus an Euler-Maclaurin tail built on the kernel tail integral."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    sup = kernel.support
    for k in range(1, K_DIRECT + 1):
        for arg in (2 * k * L + t, 2 * k * L - t):
            if sup is not None and np.all(arg >= sup):
                continue
            inside = np.ones_like(arg, dtype=bool) if sup is None else arg < sup
            out = out + np.where(inside, _safe_profile(kernel, arg), 0.0)
    if sup is None or sup > 2 * (K_DIRECT + 0.5) * L - L:
        edge = 2.0 * (K_DIRECT + 0.5) * L
        for sign in (1.0, -1.0):
            # midpoint Euler-Maclaurin: sum_{k>k0} f(k) ~ (1/2L) int_{edge+sign*t} K
            a = edge + sign * t
            out = out + _tail_integral_vec(kernel, a) / (2.0 * L)
            # first correction term, via a centered difference of K
            h = 1e-4 * L
            dK = (_safe_profile(kernel, a + h) - _safe_profile(kernel, a - h)) / (2 * h)
            out = out + (2.0 * L) * dK / 24.0
    return out


def _fold_breakpoints(L: float, ts) -> tuple:
    """Points of (0, L) where Kbar breaks when K breaks at the radii ts:
    |t + 2kL| crosses a radius exactly where t folds onto it."""
    out = set()
    for t in ts:
        folded = abs(math.remainder(t, 2.0 * L))
        folded = min(folded, 2.0 * L - folded)
        if 0.0 < folded < L:
            out.add(folded)
    return tuple(sorted(out))


def wrap_kernel(kernel: Kernel, L: float, tol: float = 1e-10) -> WrappedKernel:
    """Periodize K over period 2L.

    Evaluation sums K_DIRECT image terms on each side plus an
    Euler-Maclaurin tail; tol only sets the reported truncation index k_max
    (the image count a pure truncation would need), and certifies nothing
    about the evaluation.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    if L <= 0:
        raise DomainError("half period must be positive")
    if kernel.support is None and not math.isfinite(kernel.Lambda_hi):
        raise DomainError("cannot bound the periodization tail without a "
                          "finite upper growth constant")
    k_max = _tail_k_max(kernel, L, tol)
    breakpoints = ()
    spline = None
    if kernel.support is not None:
        # Kbar jumps where |t + 2kL| crosses the support edge, and a tabulated
        # profile kinks at every knot where its slope changes (slope 0 before
        # the first knot)
        radii = [kernel.support]
        if isinstance(kernel, CompactKernel):
            slopes = np.diff(kernel.k_table) / np.diff(kernel.t_table)
            turns = np.abs(np.diff(slopes, prepend=0.0))
            kinks = turns > 1e-9 * np.max(np.abs(slopes), initial=0.0)
            radii += list(kernel.t_table[:-1][kinks])
        breakpoints = _fold_breakpoints(L, radii)
    else:
        t_fine = np.linspace(0.0, L, 4096)
        spline = interpolate.CubicSpline(t_fine, _wrap_remainder_exact(kernel, L, t_fine))
    return WrappedKernel(kernel=kernel, half_period=L, tail_tol=tol, k_max=k_max,
                         breakpoints=breakpoints, _remainder=spline)


def _tail_k_max(kernel: Kernel, L: float, tol: float) -> int:
    """Smallest k0 with Lambda sum_{|k|>k0} (2|k|L - 2L)^(-1-2s) < tol
    (reported truncation index; evaluation adds an integral tail on top)."""
    if kernel.support is not None:
        return max(1, int(math.ceil(kernel.support / (2.0 * L))) + 1)
    s, Lam = kernel.s, kernel.Lambda_hi
    # tail sum bounded by the integral: 2 Lam int_{k0}^inf (2kL-2L)^(-1-2s) dk
    #   = Lam (2L)^(-1-2s) (k0-1)^(-2s) / s
    k0 = (Lam * (2.0 * L) ** (-1.0 - 2.0 * s) / (s * tol)) ** (1.0 / (2.0 * s)) + 1.0
    return max(2, int(math.ceil(k0)))


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
    grid = np.geomspace(1e-2, 10.0, 400)
    kv = _safe_profile(kernel, grid)
    # second differences on the (generally nonuniform) grid
    t0, t1, t2 = grid[:-2], grid[1:-1], grid[2:]
    lam = (t2 - t1) / (t2 - t0)
    chord = lam * kv[:-2] + (1 - lam) * kv[2:]
    margin = float(np.min(chord - kv[1:-1]))
    convex = margin >= -1e-12 * max(1.0, float(np.max(np.abs(kv))))

    wk = wrap_kernel(kernel, L, tol=1e-10) if (
        kernel.support is not None or math.isfinite(kernel.Lambda_hi)) else None
    if wk is not None:
        tt = np.linspace(L / 512, L, 512)
        vals = wk.grid_values(tt)
        mono_margin = float(np.max(np.diff(vals)))
        wrapped_monotone = mono_margin <= 1e-10 * max(1.0, float(np.max(np.abs(vals))))
    else:
        mono_margin = math.nan
        wrapped_monotone = False

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
