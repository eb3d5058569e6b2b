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


def poisson_extension(u: PeriodicFunction, radius: float) -> np.ndarray:
    """Harmonic extension sampled at radius*e^{i theta_j}, computed by
    trapezoid quadrature of the Poisson kernel (a circular convolution) on
    M >= N nodes; M follows from the radius (error ~ radius^M) and N.  At
    the N nodes it is u's half spectrum times that of the kernel samples."""
    _require_circle(u)
    if not 0 <= radius < 1:
        raise DomainError("extension radius must lie in [0, 1)")
    n = u.grid.size
    m = max(n, 1 << max(10, math.ceil(math.log2(40.0 / (1.0 - radius)))))
    if m > 1 << 22:
        raise StepSizeError("radius too close to 1 for stable quadrature")
    phi = PeriodicGrid(math.pi, m).nodes
    # P(r, t) = (1 - r^2) / (2 pi (1 - 2 r cos t + r^2)) at distances t
    pk = (1.0 - radius**2) / (2.0 * math.pi * (1.0 - 2.0 * radius * np.cos(phi)
                                               + radius**2))
    weights = np.fft.rfft(np.roll(pk, -(m // 2)))[: n // 2 + 1].real * (2.0 * math.pi / m)
    return _half_to_samples(u.half_spectrum() * weights, n)


def dtn_poisson(u: PeriodicFunction) -> PeriodicFunction:
    """Radial difference quotient (u(p) - u_D((1-delta)p))/delta of the
    Poisson-quadrature extension at each delta of DTN_DELTA_SEQ,
    Richardson-extrapolated to delta = 0."""
    _require_circle(u)
    deltas = np.array(DTN_DELTA_SEQ)
    quots = np.array([(u.samples - poisson_extension(u, 1.0 - d)) / d
                      for d in deltas])
    # difference quotient is analytic in delta: fit and evaluate at 0
    coeffs = np.polynomial.polynomial.polyfit(deltas, quots, deltas.size - 1)
    return PeriodicFunction(u.grid, coeffs[0])


def half_lap_pv_circle(u: PeriodicFunction, x: float) -> float:
    """(1/pi) P.V. integral of (u(p) - u(q))/|p - q|^2 over the circle,
    folded to the regular second-difference form on (0, pi), with the chord
    |p - q|^2 = 2 - 2cos t written as 4 sin^2(t/2) to avoid cancellation:

        int_0^pi (2u(x) - u(x+t) - u(x-t)) / (4 pi sin^2(t/2)) dt.
    """
    _require_circle(u)
    return float(_pv_fold(u, [x], lambda t: 1.0 / (4.0 * math.pi * np.sin(0.5 * t) ** 2),
                          (), 0.5)[0])


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
