"""Projected-gradient minimization of the periodic Lagrangian under an
integral constraint, Lagrange-multiplier recovery, post-hoc symmetry and
monotonicity diagnostics, and the maximum-principle probe.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyvander

from .errors import (DivergenceError, DomainError, HypothesisViolationError,
                     ProjectionError)
from .grids import PeriodicFunction, _half_to_samples, _trapezoid
from .kernels import Kernel
from .operator import SymbolTable, apply_pv
from .energy import Nonlinearity, _gradient, _lagrangian, energy, potential_integral


@dataclass(frozen=True)
class MinimizeConfig:
    sym: SymbolTable
    nl: Nonlinearity
    initial: PeriodicFunction
    c: float | None = None  # constraint level; None = unconstrained
    grad_tol: float = 1e-8
    max_iters: int = 50000

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise DomainError("grad_tol must be positive")
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
        if self.c is not None and not self.nl.has_constraint():
            raise DomainError("constraint level given but nonlinearity has no Gtilde")
        if self.c is not None and not math.isfinite(self.c):
            raise DomainError("constraint level must be finite")
        if self.c is not None and self.nl.homogeneity is not None and self.c <= 0:
            raise DomainError("a homogeneous Gtilde reaches only a positive level")
        bad = np.flatnonzero(~(1.0 + self.sym.values > 0))
        if bad.size:
            k = int(bad[0])
            raise DomainError(
                f"the preconditioner divides mode k by 1 + ell(k), which must be "
                f"positive: ell = {self.sym.values[k]:g} at k = {k}")


ARMIJO_C1 = 1e-4  # sufficient-decrease constant
ARMIJO_SHRINK = 0.5  # step factor per backtrack


def project_constraint(u: PeriodicFunction, nl: Nonlinearity, c: float) -> PeriodicFunction:
    """Scale u so that int Gtilde(sigma u) = c, with defect < 1e-12.

    A homogeneous Gtilde is solved in closed form.  For a polynomial
    Gtilde = sum_j g_j u^j, sigma is the positive real root nearest 1 of
    sum_j g_j M_j sigma^j = c, with moments M_j = h sum_i u_i^j, polished by
    two Newton steps.  A level that is not finite raises DomainError; no
    positive root or a defect above tolerance raises ProjectionError."""
    if not math.isfinite(c):
        raise DomainError("constraint level must be finite")
    return PeriodicFunction(u.grid, _projected(u.grid, u.samples, nl, c))


def _projected(grid, samples: np.ndarray, nl: Nonlinearity, c: float) -> np.ndarray:
    """The samples of project_constraint's result (its array core); c is finite."""
    if nl.homogeneity is not None:
        base = _trapezoid(grid, nl.Gt(samples))
        if not base > 0 or c <= 0:
            raise ProjectionError(
                f"constraint level {c:g} unreachable from int Gtilde(u) = {base:g}")
        return samples * (c / base) ** (1.0 / nl.homogeneity)
    coef = nl.Gt.convert().trim().coef  # a trailing zero times an infinite moment is NaN
    with np.errstate(all="ignore"):  # what overflows fails a check below
        q = Polynomial(coef * grid.spacing * polyvander(samples, coef.size - 1).sum(axis=0)) - c
        if not np.all(np.isfinite(q.coef)):
            raise ProjectionError("the moments of u are not finite")
        try:
            roots = q.roots()
        except np.linalg.LinAlgError:  # the companion matrix overflows
            raise ProjectionError("the roots of the moment polynomial overflow") from None
        roots = roots.real[(roots.real > 0) & (np.abs(roots.imag) <= 1e-8 * np.abs(roots))]
        if not roots.size:
            raise ProjectionError(f"no sigma > 0 reaches the constraint level {c:g}")
        sigma, dq = roots[np.argmin(np.abs(roots - 1.0))], q.deriv()
        for _ in range(2):
            sigma -= q(sigma) / dq(sigma)
        out = samples * sigma
        defect = abs(_trapezoid(grid, nl.Gt(out)) - c)
    if not defect <= 1e-12 * max(1.0, abs(c)):
        raise ProjectionError("projection defect above tolerance")
    return out


@dataclass(frozen=True)
class SymmetryDiagnostics:
    center: float
    evenness_defect: float
    monotonicity_defect: float
    critical_points: int
    degenerate: bool  # constant input: center/counts meaningless

    def to_dict(self) -> dict:
        return asdict(self)


def _newton_center(du: PeriodicFunction, z0: float, width: float, scale: float) -> float:
    """Newton refinement of u'(z) = 0 from the fine-grid argmax z0, with u''
    taken as du' (so both drop the Nyquist mode, as derivative() does).
    Steps are clamped to width.  The result is kept only when |u'| meets
    its tolerance at a point where u'' < 0 and the step lands within width
    of z0; a flat u'', a step out of that window or 60 steps without
    convergence report z0."""
    d2u = du.derivative()
    z = z0
    for _ in range(60):
        d1 = du.eval(z)
        d2 = d2u.eval(z)
        if abs(d2) < 1e-14 * scale:
            break
        step = d1 / d2
        if abs(step) > width:
            step = math.copysign(width, step)
        if abs(z - step - z0) > width:
            break
        if abs(d1) < 1e-13 * scale:
            return z - step if d2 < 0.0 else z0
        z -= step
    return z0


def symmetry_diagnostics(u: PeriodicFunction) -> SymmetryDiagnostics:
    """Locate the center (sub-grid argmax), then measure evenness and
    monotone-decay defects of the centered profile and count its critical
    points on [0, L] (the two endpoints always count)."""
    L = u.grid.half_period
    n = u.grid.size
    scale = float(np.max(np.abs(u.samples)))
    if np.ptp(u.samples) < 1e-12 * max(1.0, scale):
        return SymmetryDiagnostics(center=0.0, evenness_defect=0.0,
                                   monotonicity_defect=0.0, critical_points=0,
                                   degenerate=True)
    fine = u.refine(8 * n)
    du = u.derivative()
    z = _newton_center(du, float(fine.grid.nodes[int(np.argmax(fine.samples))]),
                       L / n, max(1.0, scale))
    # u(z + x) and u'(z + x) at spacing L/(4N), node 4N at z: each a
    # half spectrum times e^(i pi k z/L), zero-padded to 8N (u' has no
    # Nyquist mode, as derivative() drops it)
    phase = np.exp(1j * np.pi * np.arange(n // 2 + 1) * z / L)
    centered = _half_to_samples(u.half_spectrum() * phase, 8 * n)
    right, left = np.append(centered[4 * n:], centered[0]), centered[4 * n::-1]
    evenness = float(np.max(np.abs(right - left)))
    prof = 0.5 * (right + left)
    running_min = np.minimum.accumulate(prof)
    monotonicity = float(np.max(prof - running_min))
    # critical points: derivative sign changes strictly inside (0, L)
    dvals = _half_to_samples(du.half_spectrum() * phase, 8 * n)[4 * n + 1:]
    thresh = 1e-7 * max(float(np.max(np.abs(dvals))), 1e-30)
    signs = np.sign(dvals[np.abs(dvals) > thresh])
    interior = int(np.count_nonzero(np.diff(signs) != 0)) if signs.size else 0
    return SymmetryDiagnostics(center=z, evenness_defect=evenness,
                               monotonicity_defect=monotonicity,
                               critical_points=2 + interior, degenerate=False)


@dataclass(frozen=True)
class MinimizeResult:
    u: PeriodicFunction
    multiplier: float | None
    residual_norm: float
    constraint_defect: float | None
    iterations: int
    converged: bool
    energy_trace: np.ndarray = field(repr=False)
    diagnostics: SymmetryDiagnostics = None
    flags: tuple = ()

    def to_dict(self) -> dict:
        return {"multiplier": self.multiplier, "residual_norm": self.residual_norm,
                "constraint_defect": self.constraint_defect,
                "iterations": self.iterations, "converged": self.converged,
                "final_energy": float(self.energy_trace[-1]),
                "diagnostics": self.diagnostics.to_dict(),
                "flags": list(self.flags)}


def _dot(grid, a: np.ndarray, b: np.ndarray) -> float:
    """The trapezoid L^2 inner product of two sample arrays."""
    return _trapezoid(grid, a * b)


def _preconditioned(sym: SymbolTable, samples: np.ndarray) -> np.ndarray:
    """Divide mode k by 1 + ell(pi k/L) to tame the |k|^(2s) stiffness:
    irfft(rfft(v) / (1 + ell)), two real FFTs.  MinimizeConfig requires
    1 + ell > 0."""
    return np.fft.irfft(np.fft.rfft(samples) / (1.0 + sym.values), sym.grid.size)


def multiplier_and_residual(u: PeriodicFunction, sym: SymbolTable,
                            nl: Nonlinearity, constrained: bool):
    """Least-squares lambda and the Euler-Lagrange residual field."""
    rep = energy(u, sym, nl)
    lam, r = _multiplier(u.grid, u.samples, rep.gradient.samples, nl, constrained)
    return lam, PeriodicFunction(u.grid, r), rep


def _multiplier(grid, samples: np.ndarray, r: np.ndarray, nl: Nonlinearity,
                constrained: bool):
    """Least-squares lambda and the residual r - lambda gtilde(u), on the
    sample arrays of u and of the gradient r."""
    if not constrained:
        return None, r
    gt = np.asarray(nl.gt(samples), dtype=float)
    denom = _dot(grid, gt, gt)
    if denom < 1e-30:
        return None, r  # degenerate constraint direction
    lam = _dot(grid, r, gt) / denom
    return lam, r - gt * lam


def minimize(cfg: MinimizeConfig) -> MinimizeResult:
    """Projected gradient descent with least-squares multiplier, spectral
    preconditioning, Armijo backtracking on the energy, and constraint
    re-projection after every step.  Each iteration's first trial step is
    the preconditioned Barzilai-Borwein step <s, y>/<y, P y> (s and y the
    changes of u and of the projected gradient over the last accepted step,
    P the preconditioner), or 1.5 times the last accepted step where either
    inner product is <= 0; both are capped at 1e6, and a rejected step is
    halved.

    The loop carries sample arrays and one real half spectrum per iterate:
    spec = rfft(u) gives the energy (_lagrangian) and the gradient
    (_gradient).  A backtrack costs the projection, one real FFT and the
    energy; an accepted step adds the multiplier and three real FFTs (the
    gradient's irfft and the preconditioner's rfft/irfft).  A
    PeriodicFunction is built for the result only."""
    flags = []
    if np.any(cfg.sym.values < 0):
        flags.append("sign-changing symbol: no convergence guarantee")
    sym, nlty, grid = cfg.sym, cfg.nl, cfg.initial.grid
    constrained = cfg.c is not None
    u = project_constraint(cfg.initial, nlty, cfg.c) if constrained else cfg.initial
    lam, pg, rep = multiplier_and_residual(u, sym, nlty, constrained)
    trace = [rep.total]
    u, pg = u.samples, pg.samples
    d = _preconditioned(sym, pg)
    d_norm = math.sqrt(_dot(grid, d, d))
    step = 1.0
    it = 0
    converged = False
    stagnant = 0
    while it < cfg.max_iters:
        it += 1
        if d_norm < cfg.grad_tol:
            converged = True
            break
        slope = _dot(grid, pg, d)  # positive: d is a descent direction
        accepted = False
        for _ in range(60):
            cand = u - d * step
            if constrained:
                try:
                    cand = _projected(grid, cand, nlty, cfg.c)
                except ProjectionError:
                    step *= ARMIJO_SHRINK
                    continue
            spec = np.fft.rfft(cand)
            kinetic, potential = _lagrangian(sym, nlty, cand, spec)
            total = kinetic - potential
            if total <= trace[-1] - ARMIJO_C1 * step * slope:
                # steps accepted on rounding-level decreases mean the energy
                # has flattened out; count them toward stagnation
                if trace[-1] - total < 1e-14 * max(1.0, abs(trace[-1])):
                    stagnant += 1
                else:
                    stagnant = 0
                lam, pg_new = _multiplier(grid, cand, _gradient(sym, nlty, cand, spec),
                                          nlty, constrained)
                d_new = _preconditioned(sym, pg_new)
                # next trial step: BB2 <s, y>/<y, P y> (P y = d_new - d, as
                # P is linear); 1.5 times this step where a curvature is <= 0
                y = pg_new - pg
                sy, ypy = _dot(grid, cand - u, y), _dot(grid, y, d_new - d)
                step = min(sy / ypy if sy > 0 and ypy > 0 else 1.5 * step, 1e6)
                u, pg, d = cand, pg_new, d_new
                d_norm = math.sqrt(_dot(grid, d, d))
                trace.append(total)
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if accepted and stagnant >= 50 and d_norm < 100 * cfg.grad_tol:
            converged = True
            break
        if not accepted:
            # Armijo stalled at machine precision: treat as converged if the
            # projected gradient is already small, otherwise report failure
            if d_norm < 100 * cfg.grad_tol:
                converged = True
                break
            raise DivergenceError(
                f"no descent after 60 backtracks at iteration {it} "
                f"(energy {trace[-1]:g})")
        if trace[-1] < -1e12:
            raise DivergenceError("energy unbounded along the trajectory")
    result = PeriodicFunction(grid, u)
    defect = None
    if constrained:
        defect = abs(potential_integral(result, nlty.Gt) - cfg.c)
    return MinimizeResult(u=result, multiplier=lam,
                          residual_norm=math.sqrt(_dot(grid, pg, pg)),
                          constraint_defect=defect, iterations=it,
                          converged=converged, energy_trace=np.array(trace),
                          diagnostics=symmetry_diagnostics(result),
                          flags=tuple(flags))


def max_principle_probe(kernel: Kernel, v: PeriodicFunction, x0: float) -> float:
    """Operator value at an interior zero x0 of an odd, nonpositive-on-(0, L)
    test function; x0 outside (0, L) raises DomainError before v is checked.
    For admissible kernels the value is strictly positive unless v = 0."""
    L, n = v.grid.half_period, v.grid.size
    if not 0.0 < x0 < L:
        raise DomainError(f"x0 = {x0:g} must lie inside (0, L) = (0, {L:g})")
    scale = max(1.0, float(np.max(np.abs(v.samples))))
    fine = v.refine(8 * n).samples  # v at spacing L/(4N); node 4N is x = 0
    right, left = np.append(fine[4 * n:], fine[0]), fine[4 * n::-1]
    odd_defect = float(np.max(np.abs(right + left)))
    if odd_defect > 1e-10 * scale:
        raise HypothesisViolationError(f"oddness defect {odd_defect:g}")
    if float(np.max(right[1:-1])) > 1e-12 * scale:
        raise HypothesisViolationError("v must be nonpositive on (0, L)")
    if abs(v.eval(x0)) > 1e-10 * scale:
        raise HypothesisViolationError("v(x0) must vanish")
    return apply_pv(kernel, v, x0)
