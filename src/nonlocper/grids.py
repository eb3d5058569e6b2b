"""2L-periodic functions on uniform grids with a dual Fourier view.

Conventions: the grid covers one period [-L, L) with N (a power of two)
equispaced nodes.  Fourier coefficients follow the integral normalization
u_k = (1/2L) int u(x) exp(-i pi k x / L) dx, so a real function satisfies
u_{-k} = conj(u_k) and is kept as its half spectrum u_0..u_{N/2}.  The
Nyquist entry is real, the amplitude of cos(pi N x / 2L), the one Nyquist
term the nodes see (from_half_spectrum drops an imaginary part); off the
nodes that cosine is split evenly between +-N/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DegenerateFitError, DomainError, GridMismatchError

COEFF_NOISE_FLOOR = 1e-13
EVAL_BLOCK = 256  # points per half-spectrum table in eval


@dataclass(frozen=True)
class PeriodicGrid:
    half_period: float
    size: int

    def __post_init__(self):
        if self.half_period <= 0:
            raise DomainError("half_period must be positive")
        n = self.size
        if n < 8 or (n & (n - 1)) != 0:
            raise DomainError("size must be a power of two, at least 8")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_period / self.size

    @property
    def nodes(self) -> np.ndarray:
        L, n = self.half_period, self.size
        return -L + 2.0 * L * np.arange(n) / n

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer mode numbers in the fft order of PeriodicFunction.coeffs
        (cached, read-only)."""
        k = np.fft.fftfreq(self.size, d=1.0 / self.size).astype(int)
        k.setflags(write=False)
        return k

    def frequencies(self) -> np.ndarray:
        """Physical frequencies pi*k/L for k = 0..N/2 (cached, read-only)."""
        return self._frequencies

    @cached_property
    def _frequencies(self) -> np.ndarray:
        omega = np.pi * np.arange(self.size // 2 + 1) / self.half_period
        omega.setflags(write=False)
        return omega


def _trapezoid(grid: PeriodicGrid, values) -> float:
    """h sum(values), the trapezoid rule over one period.  np.add.reduce is
    np.sum's own reduction, bitwise equal, without np.sum's dispatch, which
    costs as much as the sum itself at N = 256."""
    return grid.spacing * float(np.add.reduce(values, None, float))


def _half_to_samples(half: np.ndarray, m: int) -> np.ndarray:
    """Samples on the m-node grid of the period (m >= N) of the real
    function(s) whose half spectrum on the N-node grid is `half` (last axis
    N/2 + 1, one function per row), by one zero-padded irfft.  On a finer
    grid the Nyquist cosine is the +-N/2 pair, each with half its entry."""
    n_half = half.shape[-1] - 1
    if m > 2 * n_half:
        spec = np.zeros(half.shape[:-1] + (m // 2 + 1,), dtype=complex)
        spec[..., :n_half + 1] = half
        spec[..., n_half] *= 0.5
    else:
        spec = np.array(half, dtype=complex)
    spec[..., 1::2] *= -1.0  # nodes start at -L: mode k has phase (-1)^k there
    return np.fft.irfft(spec, m) * m


@dataclass(frozen=True)
class PeriodicFunction:
    grid: PeriodicGrid
    samples: np.ndarray
    _half: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != (self.grid.size,):
            raise GridMismatchError("samples must match the grid size")
        object.__setattr__(self, "samples", s)
        s.setflags(write=False)

    @classmethod
    def from_callable(cls, grid: PeriodicGrid, f: Callable[[np.ndarray], np.ndarray]) -> "PeriodicFunction":
        return cls(grid, np.asarray(f(grid.nodes), dtype=float))

    @classmethod
    def from_half_spectrum(cls, grid: PeriodicGrid, half: np.ndarray) -> "PeriodicFunction":
        """The real function with coefficients u_0..u_{N/2} = half; the
        Nyquist entry's imaginary part is dropped (see the module docstring)."""
        half = np.array(half, dtype=complex)
        if half.shape != (grid.size // 2 + 1,):
            raise GridMismatchError("a half spectrum has N/2 + 1 entries")
        half[-1] = half[-1].real
        half.setflags(write=False)
        return cls(grid, _half_to_samples(half, grid.size), _half=half)

    @classmethod
    def from_coeffs(cls, grid: PeriodicGrid, coeffs: np.ndarray) -> "PeriodicFunction":
        """The real function with coefficients `coeffs` in fft order, which
        must be Hermitian (coeffs[-k] = conj(coeffs[k]), coeffs[N/2] real):
        only the entries for k = 0..N/2 are read."""
        return cls.from_half_spectrum(grid, np.asarray(coeffs)[: grid.size // 2 + 1])

    def half_spectrum(self) -> np.ndarray:
        """u_k for k = 0..N/2: rfft(samples)/N with the node phase (-1)^k
        (lazy, cached, read-only)."""
        if self._half is None:
            half = np.fft.rfft(self.samples) / self.grid.size
            half[1::2] *= -1.0
            half.setflags(write=False)
            object.__setattr__(self, "_half", half)
        return self._half

    def coeffs(self) -> np.ndarray:
        """All N coefficients in fft order, u_{-k} = conj(u_k) (a new array)."""
        half = self.half_spectrum()
        return np.concatenate([half, np.conj(half[-2:0:-1])])

    def coeff(self, k: int) -> complex:
        """u_k for |k| <= N/2; both Nyquist entries are the cosine amplitude."""
        n = self.grid.size
        if not -n // 2 <= k <= n // 2:
            raise DomainError(f"mode {k} outside resolved band")
        c = self.half_spectrum()[abs(k)]
        return complex(c if k >= 0 else np.conj(c))

    def modes(self, x) -> np.ndarray:
        """Real half-spectrum table at the points x: row i holds
        a_k(x_i) = re_k cos(omega_k x_i) - im_k sin(omega_k x_i), k = 0..N/2,
        the +-k Fourier terms at x_i summed (the Nyquist mode one-sided).
        Row sums are u(x); sum_k (-omega_k^2)^m a_k(x) is u^(2m)(x)."""
        re, im = self._amplitudes
        phase = np.outer(x, self.grid.frequencies())
        return np.cos(phase) * re - np.sin(phase) * im

    @cached_property
    def _amplitudes(self) -> tuple:
        """(re_k, im_k) for modes: 2 u_k, and u_k at k = 0 and N/2 (cached)."""
        a = 2.0 * self.half_spectrum()
        a[0] *= 0.5
        a[-1] *= 0.5
        return a.real.copy(), a.imag.copy()

    def eval(self, x) -> np.ndarray | float:
        """Band-limited (trigonometric) interpolation at arbitrary points:
        row sums of modes, EVAL_BLOCK points at a time to bound memory."""
        x = np.asarray(x, dtype=float)
        xs = np.ravel(x)
        out = np.empty(xs.size)
        for i in range(0, xs.size, EVAL_BLOCK):
            out[i:i + EVAL_BLOCK] = self.modes(xs[i:i + EVAL_BLOCK]).sum(axis=1)
        return float(out[0]) if x.ndim == 0 else out

    def refine(self, m: int) -> "PeriodicFunction":
        """The same interpolant sampled on the m-node grid of this period
        (m a multiple of N), by a zero-padded inverse FFT."""
        n = self.grid.size
        if m % n:
            raise DomainError(f"refined size {m} is not a multiple of {n}")
        if m == n:
            return self
        return PeriodicFunction(PeriodicGrid(self.grid.half_period, m),
                                _half_to_samples(self.half_spectrum(), m))

    def shift(self, z: float) -> "PeriodicFunction":
        """Spectral translation: result(x) = self(x - z).  At the nodes the
        shifted Nyquist cosine keeps only its cosine part."""
        k = np.arange(self.grid.size // 2 + 1)
        return PeriodicFunction.from_half_spectrum(
            self.grid, self.half_spectrum() * np.exp(-1j * np.pi * k * z / self.grid.half_period))

    def derivative(self, order: int = 1) -> "PeriodicFunction":
        """The spectral derivative; an odd one drops the Nyquist cosine,
        whose odd derivatives vanish at the nodes."""
        k = np.arange(self.grid.size // 2 + 1.0)
        return PeriodicFunction.from_half_spectrum(
            self.grid, self.half_spectrum() * (1j * np.pi * k / self.grid.half_period) ** order)

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def l2_norm(self) -> float:
        """L2 norm over one period, trapezoid rule."""
        return math.sqrt(_trapezoid(self.grid, self.samples**2))

    def __add__(self, other):
        if isinstance(other, PeriodicFunction):
            _require_same_grid(self, other)
            return PeriodicFunction(self.grid, self.samples + other.samples)
        return PeriodicFunction(self.grid, self.samples + other)

    def __sub__(self, other):
        if isinstance(other, PeriodicFunction):
            _require_same_grid(self, other)
            return PeriodicFunction(self.grid, self.samples - other.samples)
        return PeriodicFunction(self.grid, self.samples - other)

    def __mul__(self, scalar: float):
        return PeriodicFunction(self.grid, self.samples * scalar)

    __rmul__ = __mul__


def _require_same_grid(u: PeriodicFunction, v: PeriodicFunction) -> None:
    if u.grid != v.grid:
        raise GridMismatchError("functions live on different grids")


def decay_exponent(u: PeriodicFunction) -> float:
    """Least-squares decay rate of |u_k| ~ k^(-r) over 2 <= k <= N/2.

    A smoothness diagnostic: returns the fitted r, using only modes whose
    magnitude sits above the double-precision noise floor.
    """
    lo, hi = 2, u.grid.size // 2
    ks = np.arange(lo, hi + 1)
    mags = np.abs(u.half_spectrum()[lo:])
    keep = mags > COEFF_NOISE_FLOOR
    if np.count_nonzero(keep) < 8:
        raise DegenerateFitError(
            f"only {np.count_nonzero(keep)} modes above noise floor in [{lo}, {hi}]")
    slope = np.polyfit(np.log(ks[keep]), np.log(mags[keep]), 1)[0]
    return float(-slope)
