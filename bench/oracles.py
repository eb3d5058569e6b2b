"""Reference values the benchmark checks the library against.

Everything here is computed independently of the library's quadrature:
closed-form Fourier symbols and an FFT-based spectral evaluation of
band-limited samples.  Symbols use the library's convention
    ell(xi) = 2 int_0^inf (1 - cos(xi t)) K(t) dt.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma, kv

# relative errors below this are rounding; digits are capped there
ERROR_FLOOR = 1e-16


def digits(err: float, scale: float) -> float:
    """-log10(err / scale), capped at the double-precision floor."""
    rel = abs(err) / max(abs(scale), 1e-300)
    return -math.log10(max(rel, ERROR_FLOOR))


def frequencies(L: float, n: int) -> np.ndarray:
    """Physical frequencies pi*k/L for k = 0..N/2."""
    return np.pi * np.arange(n // 2 + 1) / L


def fraclap_symbol(s: float, xi: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(xi, dtype=float)) ** (2.0 * s)


def delaunay_symbol(n: int, s: float, a: float, xi: np.ndarray) -> np.ndarray:
    """K(t) = (t^2 + a^2)^(-mu), mu = (n+s)/2, via Basset's integral
    (DLMF 10.32.11):
        ell = sqrt(pi) G(mu-1/2)/G(mu) a^(1-2mu)
              - 2 sqrt(pi)/G(mu) (xi/2a)^(mu-1/2) K_(mu-1/2)(a xi)."""
    xi = np.abs(np.asarray(xi, dtype=float))
    mu = 0.5 * (n + s)
    nu = mu - 0.5
    const = math.sqrt(math.pi) * gamma(nu) / gamma(mu) * a ** (1.0 - 2.0 * mu)
    out = np.zeros_like(xi)
    pos = xi > 0
    x = xi[pos]
    out[pos] = const - 2.0 * math.sqrt(math.pi) / gamma(mu) * (
        x / (2.0 * a)) ** nu * kv(nu, a * x)
    return out


def piecewise_linear_symbol(t_table, k_table, xi: np.ndarray) -> np.ndarray:
    """Symbol of a compact kernel whose profile is k_table[0] on (0, t_0],
    linear between table points and zero beyond t_table[-1]; each segment
    integral of (1 - cos(xi t)) (alpha + beta t) is done exactly."""
    t = np.concatenate([[0.0], np.asarray(t_table, dtype=float)])
    k = np.concatenate([[k_table[0]], np.asarray(k_table, dtype=float)])
    xi = np.abs(np.asarray(xi, dtype=float))
    out = np.zeros_like(xi)
    for j, x in enumerate(xi):
        if x == 0.0:
            continue
        total = 0.0
        for p, q, kp, kq in zip(t[:-1], t[1:], k[:-1], k[1:]):
            beta = (kq - kp) / (q - p)
            alpha = kp - beta * p

            def prim(z):
                # int_0^z (1 - cos(x u)) (alpha + beta u) du
                return (alpha * z + 0.5 * beta * z * z
                        - (alpha + beta * z) * math.sin(x * z) / x
                        - beta * (math.cos(x * z) - 1.0) / (x * x))

            total += prim(q) - prim(p)
        out[j] = 2.0 * total
    return out


def indicator_symbol(cutoff: float, xi: np.ndarray) -> np.ndarray:
    """K = 1 on [0, cutoff]: ell = 2 (cutoff - sin(xi cutoff)/xi)."""
    xi = np.abs(np.asarray(xi, dtype=float))
    out = np.zeros_like(xi)
    pos = xi > 0
    out[pos] = 2.0 * (cutoff - np.sin(xi[pos] * cutoff) / xi[pos])
    return out


def coefficients(samples: np.ndarray) -> np.ndarray:
    """Integral-normalised Fourier coefficients of samples taken at
    x_j = -L + 2Lj/N, in fft order."""
    n = samples.size
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.fft.fft(samples) / n * np.power(-1.0, k)


def apply_multiplier(samples: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Samples of the operator with multiplier table symbol (k = 0..N/2)
    applied to band-limited samples."""
    n = samples.size
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    return np.real(np.fft.ifft(np.fft.fft(samples) * symbol[np.abs(k)]))


def eval_band_limited(samples: np.ndarray, L: float, x) -> np.ndarray:
    """Trigonometric interpolant of samples at arbitrary points; the
    Nyquist mode is taken as a cosine."""
    n = samples.size
    c = coefficients(samples)
    k = np.fft.fftfreq(n, d=1.0 / n)
    c[n // 2] = c[n // 2].real
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.real(np.exp(1j * np.pi * np.outer(x, k) / L) @ c)


def seminorm_sq(samples: np.ndarray, L: float, symbol: np.ndarray) -> float:
    """[u]_K^2 = 2L sum_k ell(pi k/L) |u_k|^2."""
    n = samples.size
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    c = coefficients(samples)
    return float(2.0 * L * np.sum(symbol[np.abs(k)] * np.abs(c) ** 2))
