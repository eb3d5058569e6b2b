"""Seminorm, bilinear form, and Lagrangian

    E(u) = (1/2)[u]_K^2 - int_{-L}^{L} G(u),

with the constraint functional int Gtilde(u) and its first variation.
The Fourier side is the authoritative kinetic evaluation; the real-space
double sum is an independent validator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, GridMismatchError
from .grids import PeriodicFunction, _trapezoid
from .kernels import WrappedKernel, _gl_panels
from .operator import SymbolTable, bilinear_fourier


@dataclass(frozen=True)
class Nonlinearity:
    """Primitives G (energy) and Gtilde (constraint) with their derivatives
    g = G', gtilde = Gtilde'.  Either primitive may be absent (None).
    homogeneity p+1 means Gtilde(sigma u) = sigma^(p+1) Gtilde(u), enabling
    closed-form constraint projection.  Any other Gtilde must be a numpy
    Polynomial, whose scaled integral project_constraint solves as a
    polynomial in sigma; a Gtilde that is neither raises DomainError."""

    G: Callable | None = None
    g: Callable | None = None
    Gt: Callable | None = None
    gt: Callable | None = None
    homogeneity: float | None = None

    def __post_init__(self):
        if (self.Gt is not None and self.homogeneity is None
                and not isinstance(self.Gt, np.polynomial.Polynomial)):
            raise DomainError("a constraint Gtilde must be homogeneous or a "
                              "numpy Polynomial, so that it can be projected onto its level")

    def has_constraint(self) -> bool:
        return self.Gt is not None


def polynomial_nonlinearity(G_coeffs, Gt_coeffs=None) -> Nonlinearity:
    """Primitives as coefficient lists c_0 + c_1 u + c_2 u^2 + ..."""
    Gp = np.polynomial.Polynomial(np.asarray(G_coeffs, dtype=float))
    gp = Gp.deriv()
    Gt = gt = None
    if Gt_coeffs is not None:
        Gtp = np.polynomial.Polynomial(np.asarray(Gt_coeffs, dtype=float))
        gtp = Gtp.deriv()
        Gt, gt = Gtp, gtp
    return Nonlinearity(G=Gp, g=gp, Gt=Gt, gt=gt)


def power_constraint(p: float) -> Nonlinearity:
    """Gtilde(u) = |u|^(p+1)/(p+1).  Restricted to p >= 1 so that
    gtilde = |u|^(p-1) u stays Lipschitz near u = 0."""
    if p < 1:
        raise DomainError("power constraint requires p >= 1")
    return Nonlinearity(
        Gt=lambda u: np.abs(u) ** (p + 1) / (p + 1),
        gt=lambda u: np.abs(u) ** (p - 1) * u,
        homogeneity=p + 1)


def benjamin_ono_type(p: float = 2.0) -> Nonlinearity:
    """G(u) = -u^2/2 with the power constraint Gtilde = |u|^(p+1)/(p+1)."""
    pc = power_constraint(p)
    return Nonlinearity(G=lambda u: -0.5 * u**2, g=lambda u: -np.asarray(u, float),
                        Gt=pc.Gt, gt=pc.gt, homogeneity=p + 1)


def double_well() -> Nonlinearity:
    """G(u) = u^2/2 - u^4/4, so the total energy kinetic - int G carries the
    double-well potential u^4/4 - u^2/2 (unconstrained descent reaches the
    constant wells u = +-1)."""
    return Nonlinearity(G=lambda u: 0.5 * u**2 - 0.25 * u**4,
                        g=lambda u: np.asarray(u, float) - np.asarray(u, float) ** 3)


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float
    potential: float
    total: float
    gradient: PeriodicFunction
    constraint_value: float | None

    def __post_init__(self):
        if abs(self.total - (self.kinetic - self.potential)) > 1e-12 * max(
                1.0, abs(self.total)):
            raise DomainError("total must equal kinetic - potential")

    def to_dict(self) -> dict:
        return {"kinetic": self.kinetic, "potential": self.potential,
                "total": self.total, "constraint": self.constraint_value,
                "grad_norm": self.gradient.l2_norm()}


def seminorm_sq_fourier(sym: SymbolTable, u: PeriodicFunction) -> float:
    """[u]_K^2 = 2L sum_k ell(pi k/L) |u_k|^2."""
    return bilinear_fourier(sym, u, u)


def seminorm_sq_offdiag(kbar_at_cells: np.ndarray, u: PeriodicFunction) -> float:
    """(1/2) h^2 sum_{i != j} (u_i - u_j)^2 Kbar(x_i - x_j).

    kbar_at_cells holds Kbar(d h) for d = 1..N-1.  Dropping the (divergent
    or arbitrary) diagonal makes the rearrangement comparison exact at grid
    level: the sum splits into sum_i u_i^2 (invariant) times a distance
    weight (index-independent) minus the circular cross-correlation term.
    """
    n = u.grid.size
    h = u.grid.spacing
    if kbar_at_cells.shape != (n - 1,):
        raise ValueError("need Kbar at the N-1 nonzero cell distances")
    # circular autocorrelation A_d = sum_i u_i u_{i+d}
    acf = np.fft.irfft(np.abs(np.fft.rfft(u.samples)) ** 2, n)
    s2 = float(np.sum(u.samples**2))
    return h * h * (s2 * float(np.sum(kbar_at_cells))
                    - float(np.sum(kbar_at_cells * acf[1:])))


def _cell_weights(wk: WrappedKernel, grid) -> np.ndarray:
    """Kbar(d h) for d = 1..N-1, the off-diagonal weights of the grid double
    sum, from one call of wk: K at each distance plus the wrap's Hermite
    table of the image sum (with a support, the exact trimmed sum, so the
    weights are grid_values' bitwise).  Without a support each is within
    3e-15 relative of wk.grid_values, which re-sums 128 images per distance,
    except where an image (2k+1)L of d h = L lands on SineTail's t = 10
    switch (L = 2, 10/3): the sum and the table then take different sides
    of the profile's jump there, 2e-9 to 1e-8 apart."""
    return wk(grid.spacing * np.arange(1, grid.size))


def seminorm_sq_realspace(wk: WrappedKernel, u: PeriodicFunction) -> float:
    """[u]_K^2 by the double trapezoid sum over one period square,

        (1/2) h^2 sum_{i != j} |u_i - u_j|^2 Kbar(x_i - x_j),

    with the diagonal strip |x - y| < h restored by the local model
    |u(x)-u(y)|^2 ~ u'(x)^2 (x-y)^2 integrated against Kbar over the cell
    (plus the matching trapezoid edge corrections).  The off-diagonal
    weights come from _cell_weights, the wrap's call table."""
    wk.require_period(u.grid.half_period)
    h = u.grid.spacing
    off_diag = seminorm_sq_offdiag(_cell_weights(wk, u.grid), u)
    # diagonal strip: model g(z) = u'(x)^2 z^2 Kbar(z); the missing piece is
    #   int_{-h}^{h} g - h g(h) + (h^2/6) g'(h)
    # (the h g(h) and g' terms undo the double-counted edge weight and the
    # leading Euler-Maclaurin defect of the off-diagonal trapezoid).
    cell = _diagonal_cell(wk, h)
    kb_h = float(wk(h))
    dz = 1e-3 * h
    kb_hp = float(wk(h + dz))
    kb_hm = float(wk(h - dz))
    dkb_h = (kb_hp - kb_hm) / (2 * dz)
    j_eff = 2.0 * cell - h**3 * kb_h + (h**2 / 6.0) * (2 * h * kb_h + h**2 * dkb_h)
    du = u.derivative().samples
    return off_diag + 0.5 * h * float(np.sum(du**2)) * j_eff


_CELL_NODES = 10  # Gauss-Legendre nodes per panel of _diagonal_cell
_CELL_HALVINGS = 24  # its panels [h 2^-(j+1), h 2^-j] for j < 24


def _diagonal_cell(wk: WrappedKernel, h: float) -> float:
    """int_0^h z^2 Kbar(z) dz by a fixed rule graded toward 0: Gauss-Legendre
    on the panels [h 2^-(j+1), h 2^-j], j < _CELL_HALVINGS, split at the
    breakpoints of wk in (0, h), where Kbar may jump or kink.  The z^(1-2s)
    singularity of z^2 K at 0 is analytic on every panel.  Below
    z0 = h 2^-24, z^2 Kbar is taken as the power z^(1-2s) through its value
    at z0, which adds z0^3 Kbar(z0)/(2 - 2s).  Against adaptive quadrature
    split at the same breakpoints it is within 5e-15 relative for fraclap
    s from 0.01 to 0.999, Delaunay, compact, indicator, SineTail and
    Laplace kernels, at N = 64 and 1024."""
    edges = sorted({h * 2.0 ** -j for j in range(_CELL_HALVINGS + 1)}
                   | {b for b in wk.breakpoints if 0.0 < b < h})
    z, w = _gl_panels(edges, _CELL_NODES)
    z = np.append(z, edges[0])
    g = z * z * wk(z)
    return float(w @ g[:-1] + g[-1] * edges[0] / (2.0 - 2.0 * wk.kernel.s))


def potential_integral(u: PeriodicFunction, fn: Callable) -> float:
    """Trapezoid of int_{-L}^{L} fn(u); spectrally accurate for smooth u."""
    return _trapezoid(u.grid, fn(u.samples))


def _lagrangian(sym: SymbolTable, nl: Nonlinearity, samples: np.ndarray,
                spec: np.ndarray) -> tuple:
    """(kinetic, potential) from u's samples and spec = np.fft.rfft(samples):
    the array core of energy, which minimize's line search calls per
    candidate.  The kinetic term is sym.kinetic_weights . |spec|^2, the
    Fourier seminorm folded onto the half spectrum (the node phase (-1)^k
    drops out of |spec|)."""
    kinetic = float(sym.kinetic_weights @ (spec.real**2 + spec.imag**2))
    potential = _trapezoid(sym.grid, nl.G(samples)) if nl.G is not None else 0.0
    return kinetic, potential


def _gradient(sym: SymbolTable, nl: Nonlinearity, samples: np.ndarray,
              spec: np.ndarray) -> np.ndarray:
    """The samples of the L^2 gradient L_K u - g(u) of the Lagrangian, with
    L_K u = irfft(spec ell) from spec = np.fft.rfft(samples)."""
    lu = np.fft.irfft(spec * sym.values, sym.grid.size)
    return lu if nl.G is None else lu - np.asarray(nl.g(samples), dtype=float)


def energy(u: PeriodicFunction, sym: SymbolTable, nl: Nonlinearity) -> EnergyReport:
    """Full Lagrangian report with its L^2 gradient L_K u - g(u), both from
    one real FFT of u's samples."""
    if sym.grid != u.grid:
        raise GridMismatchError("symbol and function live on different grids")
    spec = np.fft.rfft(u.samples)
    kinetic, potential = _lagrangian(sym, nl, u.samples, spec)
    grad = PeriodicFunction(u.grid, _gradient(sym, nl, u.samples, spec))
    cons = potential_integral(u, nl.Gt) if nl.Gt is not None else None
    return EnergyReport(kinetic=kinetic, potential=potential,
                        total=kinetic - potential, gradient=grad,
                        constraint_value=cons)


def constraint_value(u: PeriodicFunction, nl: Nonlinearity):
    """int Gtilde(u) together with its first variation gtilde(u)."""
    if nl.Gt is None:
        raise DomainError("nonlinearity declares no constraint")
    val = potential_integral(u, nl.Gt)
    var = PeriodicFunction(u.grid, np.asarray(nl.gt(u.samples), dtype=float))
    return val, var
