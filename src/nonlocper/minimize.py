"""Projected-gradient minimization of the periodic Lagrangian under an
integral constraint, Lagrange-multiplier recovery, post-hoc symmetry and
monotonicity diagnostics, and the maximum-principle probe.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (DivergenceError, DomainError, HypothesisViolationError,
                     ProjectionError)
from .grids import PeriodicFunction
from .kernels import Kernel
from .operator import SymbolTable, apply_pv
from .energy import Nonlinearity, energy, potential_integral


@dataclass(frozen=True)
class MinimizeConfig:
    sym: SymbolTable
    nl: Nonlinearity
    initial: PeriodicFunction
    c: float | None = None  # constraint level; None = unconstrained
    grad_tol: float = 1e-8
    max_iters: int = 50000

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise DomainError("grad_tol must be positive")
        if self.c is not None and not self.nl.has_constraint():
            raise DomainError("constraint level given but nonlinearity has no Gtilde")


ARMIJO_C1 = 1e-4  # sufficient-decrease constant
ARMIJO_SHRINK = 0.5  # step factor per backtrack


def project_constraint(u: PeriodicFunction, nl: Nonlinearity, c: float) -> PeriodicFunction:
    """Scale u so that int Gtilde(sigma u) = c, with defect < 1e-12.

    Homogeneous constraints are solved in closed form; otherwise sigma is
    bracketed in [1e-8, 2^200] and found by _illinois (the shipped Gtilde
    families are monotone in sigma > 0).
    """
    base = potential_integral(u, nl.Gt)
    if nl.homogeneity is not None:
        if base <= 0 or c <= 0:
            raise ProjectionError(
                f"constraint level {c:g} unreachable from int Gtilde(u) = {base:g}")
        return (c / base) ** (1.0 / nl.homogeneity) * u

    def defect(sigma: float) -> float:
        return potential_integral(sigma * u, nl.Gt) - c

    lo, hi = 1e-8, 1.0
    f_hi = defect(hi)
    grow = 0
    while f_hi < 0 and grow < 200:
        hi *= 2.0
        f_hi = defect(hi)
        grow += 1
    f_lo = defect(lo)
    if f_lo > 0 or f_hi < 0:
        raise ProjectionError("could not bracket the constraint level")
    out = _illinois(defect, lo, hi, f_lo, f_hi) * u
    if abs(potential_integral(out, nl.Gt) - c) > 1e-12 * max(1.0, abs(c)):
        raise ProjectionError("projection defect above tolerance")
    return out


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """A root of f in [lo, hi], given f(lo) <= 0 <= f(hi): regula falsi with
    the Illinois step (Dowell & Jarratt, BIT 11, 1971), which halves the
    value kept at one end when the other end has moved twice in a row, so
    that both ends close in.  A secant point that is not strictly inside
    the bracket becomes its midpoint.  It stops when f vanishes or no double
    is left between the ends, and returns the end where |f| is smaller."""
    g_lo, g_hi = f_lo, f_hi  # the values the secant takes, halved by the step
    moved = 0  # -1 when lo moved last, +1 when hi did
    while f_lo != 0.0 and f_hi != 0.0:
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = f(x)
        if fx < 0.0:
            lo, f_lo, g_lo = x, fx, fx
            if moved == -1:
                g_hi *= 0.5
            moved = -1
        else:
            hi, f_hi, g_hi = x, fx, fx
            if moved == 1:
                g_lo *= 0.5
            moved = 1
    return lo if abs(f_lo) < abs(f_hi) else hi


@dataclass(frozen=True)
class SymmetryDiagnostics:
    center: float
    evenness_defect: float
    monotonicity_defect: float
    critical_points: int
    degenerate: bool  # constant input: center/counts meaningless

    def to_dict(self) -> dict:
        return asdict(self)


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
    z = float(fine.grid.nodes[int(np.argmax(fine.samples))])
    du = u.derivative()
    d2u = u.derivative(2)
    # Newton refinement of u'(z) = 0 near the fine-grid argmax
    for _ in range(60):
        d1 = du.eval(z)
        d2 = d2u.eval(z)
        if abs(d2) < 1e-14 * max(1.0, scale):
            break
        step = d1 / d2
        if abs(step) > L / n:  # stay inside the located basin
            step = math.copysign(L / n, step)
        z -= step
        if abs(d1) < 1e-13 * max(1.0, scale):
            break
    centered = fine.shift(-z).samples  # u(z + x) at spacing L/(4N); node 4N is z
    right, left = np.append(centered[4 * n:], centered[0]), centered[4 * n::-1]
    evenness = float(np.max(np.abs(right - left)))
    prof = 0.5 * (right + left)
    running_min = np.minimum.accumulate(prof)
    monotonicity = float(np.max(prof - running_min))
    # critical points: derivative sign changes strictly inside (0, L)
    dvals = du.refine(8 * n).shift(-z).samples[4 * n + 1:]
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


def _inner(u: PeriodicFunction, v: PeriodicFunction) -> float:
    return u.grid.spacing * float(np.sum(u.samples * v.samples))


def _precondition(sym: SymbolTable, v: PeriodicFunction) -> PeriodicFunction:
    """Divide mode k by 1 + ell(pi k/L) to tame the |k|^(2s) stiffness."""
    return PeriodicFunction.from_coeffs(
        v.grid, v.coeffs() / (1.0 + sym.full_multiplier()))


def multiplier_and_residual(u: PeriodicFunction, sym: SymbolTable,
                            nl: Nonlinearity, constrained: bool):
    """Least-squares lambda and the Euler-Lagrange residual field."""
    rep = energy(u, sym, nl)
    r = rep.gradient
    if not constrained:
        return None, r, rep
    gt = PeriodicFunction(u.grid, np.asarray(nl.gt(u.samples), dtype=float))
    denom = _inner(gt, gt)
    if denom < 1e-30:
        return None, r, rep  # degenerate constraint direction
    lam = _inner(r, gt) / denom
    return lam, r - lam * gt, rep


def minimize(cfg: MinimizeConfig) -> MinimizeResult:
    """Projected gradient descent with least-squares multiplier, spectral
    preconditioning, Armijo backtracking on the energy, and constraint
    re-projection after every step."""
    flags = []
    if np.any(cfg.sym.values < 0):
        flags.append("sign-changing symbol: no convergence guarantee")
    constrained = cfg.c is not None
    u = project_constraint(cfg.initial, cfg.nl, cfg.c) if constrained else cfg.initial
    lam, pg, rep = multiplier_and_residual(u, cfg.sym, cfg.nl, constrained)
    trace = [rep.total]
    d = _precondition(cfg.sym, pg)
    d_norm = d.l2_norm()
    step = 1.0
    it = 0
    converged = False
    stagnant = 0
    while it < cfg.max_iters:
        it += 1
        if d_norm < cfg.grad_tol:
            converged = True
            break
        slope = _inner(pg, d)  # positive: d is a descent direction
        accepted = False
        for _ in range(60):
            cand = u - step * d
            if constrained:
                try:
                    cand = project_constraint(cand, cfg.nl, cfg.c)
                except ProjectionError:
                    step *= ARMIJO_SHRINK
                    continue
            lam_c, pg_c, rep_c = multiplier_and_residual(cand, cfg.sym, cfg.nl,
                                                         constrained)
            if rep_c.total <= trace[-1] - ARMIJO_C1 * step * slope:
                # steps accepted on rounding-level decreases mean the energy
                # has flattened out; count them toward stagnation
                if trace[-1] - rep_c.total < 1e-14 * max(1.0, abs(trace[-1])):
                    stagnant += 1
                else:
                    stagnant = 0
                u, lam, pg = cand, lam_c, pg_c
                d = _precondition(cfg.sym, pg)
                d_norm = d.l2_norm()
                trace.append(rep_c.total)
                step = min(step * 1.5, 1e6)
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
    defect = None
    if constrained:
        defect = abs(potential_integral(u, cfg.nl.Gt) - cfg.c)
    return MinimizeResult(u=u, multiplier=lam, residual_norm=pg.l2_norm(),
                          constraint_defect=defect, iterations=it,
                          converged=converged, energy_trace=np.array(trace),
                          diagnostics=symmetry_diagnostics(u),
                          flags=tuple(flags))


def max_principle_probe(kernel: Kernel, v: PeriodicFunction, x0: float) -> float:
    """Operator value at an interior zero of an odd, nonpositive-on-(0, L)
    test function.  For admissible kernels the value must be strictly
    positive unless v vanishes identically."""
    L, n = v.grid.half_period, v.grid.size
    scale = max(1.0, float(np.max(np.abs(v.samples))))
    fine = v.refine(8 * n).samples  # v at spacing L/(4N); node 4N is x = 0
    right, left = np.append(fine[4 * n:], fine[0]), fine[4 * n::-1]
    odd_defect = float(np.max(np.abs(right + left)))
    if odd_defect > 1e-10 * scale:
        raise HypothesisViolationError(f"oddness defect {odd_defect:g}")
    if float(np.max(right[1:-1])) > 1e-12 * scale:
        raise HypothesisViolationError("v must be nonpositive on (0, L)")
    if not 0.0 < x0 < L:
        raise HypothesisViolationError("probe point must lie inside (0, L)")
    if abs(v.eval(x0)) > 1e-10 * scale:
        raise HypothesisViolationError("v(x0) must vanish")
    return apply_pv(kernel, v, x0)
