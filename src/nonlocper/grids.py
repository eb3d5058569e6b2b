"""2L-periodic functions on uniform grids with a dual Fourier view.

Conventions: the grid covers one period [-L, L) with N (a power of two)
equispaced nodes.  Fourier coefficients follow the integral normalization
u_k = (1/2L) int u(x) exp(-i pi k x / L) dx, so a real function satisfies
u_{-k} = conj(u_k).  Coefficients are stored in numpy fft order; the
Nyquist coefficient is forced real and, for off-grid evaluation, refinement
and shifts, is treated as a pure cosine split evenly between +-N/2.
"""

from __future__ import annotations

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
        """Integer mode numbers in fft order (cached, read-only)."""
        k = np.fft.fftfreq(self.size, d=1.0 / self.size).astype(int)
        k.setflags(write=False)
        return k

    @cached_property
    def node_signs(self) -> np.ndarray:
        """(-1)^k in fft order, the phase of mode k at the first node x = -L
        (cached, read-only)."""
        signs = np.power(-1.0, self.wavenumbers)
        signs.setflags(write=False)
        return signs

    def frequencies(self) -> np.ndarray:
        """Physical frequencies pi*k/L for k = 0..N/2."""
        return np.pi * np.arange(self.size // 2 + 1) / self.half_period


def _coeffs_from_samples(grid: PeriodicGrid, samples: np.ndarray) -> np.ndarray:
    # nodes start at -L: the DFT picks up a (-1)^k phase per mode.
    c = np.fft.fft(samples) / grid.size * grid.node_signs
    half = grid.size // 2
    c[half] = c[half].real + 0.0j
    return c


def _samples_from_coeffs(grid: PeriodicGrid, coeffs: np.ndarray) -> np.ndarray:
    return np.real(np.fft.ifft(coeffs * grid.node_signs * grid.size))


@dataclass(frozen=True)
class PeriodicFunction:
    grid: PeriodicGrid
    samples: np.ndarray
    _coeffs: np.ndarray | None = field(default=None, repr=False, compare=False)

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
    def from_coeffs(cls, grid: PeriodicGrid, coeffs: np.ndarray) -> "PeriodicFunction":
        coeffs = np.asarray(coeffs, dtype=complex)
        samples = _samples_from_coeffs(grid, coeffs)
        return cls(grid, samples, _coeffs=coeffs)

    def coeffs(self) -> np.ndarray:
        """Fourier coefficients in fft order (lazy, cached)."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", _coeffs_from_samples(self.grid, self.samples))
        return self._coeffs

    def coeff(self, k: int) -> complex:
        """u_k for |k| <= N/2; the Nyquist entry is its real (cosine) part."""
        n = self.grid.size
        if not -n // 2 <= k <= n // 2:
            raise DomainError(f"mode {k} outside resolved band")
        if abs(k) == n // 2:
            return complex(self.coeffs()[n // 2].real)
        return complex(self.coeffs()[k % n])

    def modes(self, x) -> np.ndarray:
        """Real half-spectrum table at the points x: row i holds
        a_k(x_i) = re_k cos(omega_k x_i) - im_k sin(omega_k x_i), k = 0..N/2,
        the +-k Fourier terms at x_i summed (the Nyquist mode one-sided).
        Row sums are u(x); sum_k (-omega_k^2)^m a_k(x) is u^(2m)(x)."""
        k, c = self.grid.wavenumbers, self.coeffs()
        re = np.bincount(np.abs(k), weights=c.real)
        im = np.bincount(np.abs(k), weights=np.sign(k) * c.imag)
        phase = np.outer(x, self.grid.frequencies())
        return np.cos(phase) * re - np.sin(phase) * im

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
                                _padded_samples(self.coeffs()[: n // 2 + 1], m))

    def shift(self, z: float) -> "PeriodicFunction":
        """Spectral translation: result(x) = self(x - z)."""
        L, n = self.grid.half_period, self.grid.size
        k = self.grid.wavenumbers
        c = self.coeffs() * np.exp(-1j * np.pi * k * z / L)
        half = n // 2
        # cos(pi*half*(x-z)/L) sampled at grid nodes keeps only its cosine part
        c[half] = self.coeffs()[half].real * np.cos(np.pi * half * z / L)
        return PeriodicFunction.from_coeffs(self.grid, c)

    def derivative(self, order: int = 1) -> "PeriodicFunction":
        L = self.grid.half_period
        k = self.grid.wavenumbers.astype(float)
        c = self.coeffs() * (1j * np.pi * k / L) ** order
        half = self.grid.size // 2
        if order % 2 == 1:
            c[half] = 0.0  # odd derivative of the Nyquist cosine vanishes at nodes
        return PeriodicFunction.from_coeffs(self.grid, c)

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def l2_norm(self) -> float:
        """L2 norm over one period, trapezoid rule."""
        return float(np.sqrt(self.grid.spacing * np.sum(self.samples**2)))

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


def _padded_samples(half: np.ndarray, m: int) -> np.ndarray:
    """Samples on the m-node grid of the period of the real function whose
    coefficients for k = 0..N/2 are `half` (length N/2 + 1, the last one the
    Nyquist cosine, split evenly between +-N/2), by one zero-padded irfft."""
    padded = np.zeros(m // 2 + 1, dtype=complex)
    padded[: half.size] = half
    padded[half.size - 1] *= 0.5
    padded *= np.power(-1.0, np.arange(m // 2 + 1))  # nodes start at -L
    return np.fft.irfft(padded, m) * m


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
    mags = np.array([abs(u.coeff(k)) for k in ks])
    keep = mags > COEFF_NOISE_FLOOR
    if np.count_nonzero(keep) < 8:
        raise DegenerateFitError(
            f"only {np.count_nonzero(keep)} modes above noise floor in [{lo}, {hi}]")
    slope = np.polyfit(np.log(ks[keep]), np.log(mags[keep]), 1)[0]
    return float(-slope)
