"""Half-Laplacian on the unit circle via three equivalent realizations:
the |k| Fourier multiplier, the Dirichlet-to-Neumann map of the harmonic
extension to the disk (Poisson-kernel quadrature), and a principal-value
integral against the chord-distance kernel on apply_pv's panel rule;
plus a closed-form check of wrap_kernel's periodization and the three-way
energy identity.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .energy import seminorm_sq_offdiag
from .errors import DomainError, StepSizeError
from .grids import PeriodicFunction, PeriodicGrid, _half_to_samples
from .kernels import FractionalKernel, WrappedKernel, _gl_panels, wrap_kernel
from .operator import _pv_fold, bilinear_fourier, symbol_from_values


def circle_grid(n: int) -> PeriodicGrid:
    """Uniform grid on the circle: theta_j = -pi + 2*pi*j/n."""
    return PeriodicGrid(math.pi, n)


def _require_circle(u: PeriodicFunction) -> None:
    if abs(u.grid.half_period - math.pi) > 1e-12:
        raise DomainError("circle functions need half period pi")


def dtn_multiplier(u: PeriodicFunction) -> PeriodicFunction:
    """|k| multiplier: the normal derivative of the harmonic extension."""
    _require_circle(u)
    k = np.arange(u.grid.size // 2 + 1)
    return PeriodicFunction.from_half_spectrum(u.grid, u.half_spectrum() * k)


DTN_DELTA_SEQ = (1e-2, 5e-3, 2.5e-3, 1.25e-3)  # radial steps of dtn_poisson


def _poisson_weights(n: int, radii, coef) -> np.ndarray:
    """sum_j coef_j w_j(k), k = 0..N/2: w_j is the Poisson kernel P_(r_j)'s
    Fourier coefficient by the trapezoid rule on M_j >= N nodes (error
    ~ r_j^M_j).  The M_j are powers of two, so each rule's half-period
    samples go at stride M/M_j into one even sequence on the finest grid
    (M nodes), and one irfft sums them all.  Written as (1 - r)(1 + r) /
    (2 pi ((1 - r)^2 + 4 r sin^2(phi/2))), P does not cancel near phi = 0."""
    gaps = [1.0 - r for r in radii]
    sizes = [max(n, 1 << max(10, math.ceil(math.log2(40.0 / g)))) for g in gaps]
    m = max(sizes)
    if m > 1 << 22:
        raise StepSizeError("radius too close to 1 for stable quadrature")
    sin_sq = 4.0 * np.sin(np.pi / m * np.arange(m // 2 + 1)) ** 2
    half = np.zeros(m // 2 + 1)
    for r, g, mj, c in zip(radii, gaps, sizes, coef):  # (2 pi/M_j) P_r(2 pi i/M_j)
        half[:: m // mj] += (c * g * (1.0 + r) / mj) / (g * g + r * sin_sq[:: m // mj])
    return np.fft.irfft(half, m, norm="forward")[: n // 2 + 1]


def poisson_extension(u: PeriodicFunction, radius: float) -> np.ndarray:
    """Harmonic extension sampled at radius*e^{i theta_j} by trapezoid
    quadrature of the Poisson kernel: u's half spectrum times the rule's."""
    _require_circle(u)
    if not 0 <= radius < 1:
        raise DomainError("extension radius must lie in [0, 1)")
    n = u.grid.size
    return _half_to_samples(u.half_spectrum() * _poisson_weights(n, [radius], [1.0]), n)


def dtn_poisson(u: PeriodicFunction) -> PeriodicFunction:
    """Radial difference quotient (u(p) - u_D((1-delta)p))/delta of the
    Poisson-quadrature extension at each delta of DTN_DELTA_SEQ,
    Richardson-extrapolated to delta = 0: the cubic through the quotients
    is sum_j lam_j q_j there (lam_j the Lagrange weights at 0), so the whole
    route is one multiplier on u's half spectrum."""
    _require_circle(u)
    deltas = np.array(DTN_DELTA_SEQ)
    coef = np.array([math.prod(e / (e - d) for e in deltas if e != d) for d in deltas]) / deltas
    mult = coef.sum() - _poisson_weights(u.grid.size, 1.0 - deltas, coef)
    return PeriodicFunction.from_half_spectrum(u.grid, u.half_spectrum() * mult)


def half_lap_pv_circle(u: PeriodicFunction, x):
    """(1/pi) P.V. integral of (u(p) - u(q))/|p - q|^2 over the circle at a
    point or an array of them (a scalar x gives a float), folded to the
    regular second-difference form on (0, pi), with the chord
    |p - q|^2 = 2 - 2cos t written as 4 sin^2(t/2) to avoid cancellation:

        int_0^pi (2u(x) - u(x+t) - u(x-t)) / (4 pi sin^2(t/2)) dt.
    """
    _require_circle(u)
    x = np.asarray(x, dtype=float)
    out = _pv_fold(u, x.ravel(), lambda t: 1.0 / (4.0 * math.pi * np.sin(0.5 * t) ** 2),
                   (), 0.5)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


@functools.cache
def _half_laplacian_wrap() -> WrappedKernel:
    return wrap_kernel(FractionalKernel(0.5), math.pi)


def wrapped_identity_check(t: float) -> dict:
    """The library's periodization against a closed form: the half-Laplacian
    kernel c_(1/2) t^-2 has c_(1/2) = 1/pi, so pi Kbar(t) at half period pi
    is sum_k 1/(t + 2k pi)^2, which equals 1/(2 - 2cos t).  The wrap is
    built by wrap_kernel once per process.
    """
    t = float(t)
    if abs(math.remainder(t, 2.0 * math.pi)) < 1e-12:
        raise DomainError("t must not be a multiple of 2*pi")
    lhs = math.pi * _half_laplacian_wrap()(t)
    rhs = 1.0 / (2.0 - 2.0 * math.cos(t))
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}


def energy_identity_check(u: PeriodicFunction) -> dict:
    """Three routes to the same quadratic energy:

    * E_line: Fourier side, pi sum |k| |u_k|^2 (bilinear_fourier, symbol |k|);
    * E_disk: (1/2) int_D |grad u_D|^2 by 64-point Gauss-Legendre (radius)
      x trapezoid (angle) quadrature of the harmonic extension;
    * E_circle: (1/4 pi) double trapezoid of (u(x)-u(y))^2 / (2-2cos(x-y)),
      with the diagonal filled by its limit u'(x)^2; the off-diagonal part
      is the shared FFT double sum, so memory stays O(N).
    """
    _require_circle(u)
    grid = u.grid
    n = grid.size
    c = u.half_spectrum()
    k = np.arange(n // 2 + 1.0)
    e_line = 0.5 * bilinear_fourier(symbol_from_values(grid, k), u, u)

    rr, ww = _gl_panels([0.0, 1.0], 64)
    # u_D(r, theta) = sum_k u_k r^{|k|} e^{ik theta}; one row per radius
    radial = rr[:, None] ** np.maximum(k - 1.0, 0.0)
    dr = _half_to_samples(c * k * radial, n)
    dtheta_over_r = _half_to_samples(c * 1j * k * radial, n)
    terms = ww * rr * (2.0 * math.pi / n) * np.sum(dr**2 + dtheta_over_r**2, axis=1)
    e_disk = 0.5 * float(np.cumsum(terms)[-1])  # summed in radius order

    h = grid.spacing
    chord_sq = 2.0 - 2.0 * np.cos(h * np.arange(1, n))  # |p - q|^2 at d = 1..N-1 cells
    diagonal = h * h * float(np.sum(u.derivative().samples ** 2))
    e_circle = (2.0 * seminorm_sq_offdiag(1.0 / chord_sq, u) + diagonal) / (4.0 * math.pi)
    return {"E_line": e_line, "E_disk": e_disk, "E_circle": e_circle}
