"""Independent oracles that the tests compare the library against."""

import numpy as np
from scipy import integrate
from scipy.special import beta, betainc


def cosine_normalization(s: float) -> float:
    """int_R (1 - cos z)/|z|^(1+2s) dz, which equals 1/c_s."""
    # near part termwise from the cosine series: sum (-1)^(m+1)/((2m)!(2m-2s))
    near = 0.0
    fact = 1.0
    for m in range(1, 30):
        fact *= (2 * m - 1) * (2 * m)
        near += (-1.0) ** (m + 1) / (fact * (2 * m - 2.0 * s))
    tail = 1.0 / (2.0 * s)  # int_1^inf z^(-1-2s) dz
    osc, _ = integrate.quad(lambda z: z ** (-1.0 - 2.0 * s), 1.0, np.inf,
                            weight="cos", wvar=1.0, limit=200)
    return 2.0 * (near + tail - osc)


def fraclap_tail(kernel, a: float) -> float:
    """int_a^inf c_s t^(-1-2s) dt = c_s a^(-2s)/(2s) for a FractionalKernel."""
    return kernel.constant * a ** (-2.0 * kernel.s) / (2.0 * kernel.s)


def delaunay_tail(kernel, a: float) -> float:
    """int_a^inf (t^2 + c^2)^(-mu) dt for a DelaunayKernel of core width c,
    mu = (n+s)/2: with u = c^2/(t^2 + c^2) it is
    c^(1-2mu)/2 B(nu, 1/2) I_x(nu, 1/2) at x = c^2/(a^2 + c^2), nu = mu - 1/2
    (I the regularized incomplete beta function)."""
    c = kernel.a
    nu = 0.5 * (kernel.n + kernel.s) - 0.5
    x = c * c / (a * a + c * c)
    return float(0.5 * c ** (-2.0 * nu) * beta(nu, 0.5) * betainc(nu, 0.5, x))


def minimize_loop(cfg):
    """The descent of nonlocper.minimize with every Armijo candidate taken
    through the public multiplier_and_residual (energy, gradient and
    multiplier) and project_constraint: the library's loop evaluates only
    the energy per candidate and must reproduce this one bit for bit."""
    import nonlocper as nl
    from nonlocper.minimize import (ARMIJO_C1, ARMIJO_SHRINK, _inner, _precondition,
                                    multiplier_and_residual)

    flags = []
    if np.any(cfg.sym.values < 0):
        flags.append("sign-changing symbol: no convergence guarantee")
    constrained = cfg.c is not None
    u = nl.project_constraint(cfg.initial, cfg.nl, cfg.c) if constrained else cfg.initial
    lam, pg, rep = multiplier_and_residual(u, cfg.sym, cfg.nl, constrained)
    trace = [rep.total]
    d = _precondition(cfg.sym, pg)
    d_norm = d.l2_norm()
    step, it, converged, stagnant = 1.0, 0, False, 0
    while it < cfg.max_iters:
        it += 1
        if d_norm < cfg.grad_tol:
            converged = True
            break
        slope = _inner(pg, d)
        accepted = False
        for _ in range(60):
            cand = u - step * d
            if constrained:
                try:
                    cand = nl.project_constraint(cand, cfg.nl, cfg.c)
                except nl.ProjectionError:
                    step *= ARMIJO_SHRINK
                    continue
            lam_c, pg_c, rep_c = multiplier_and_residual(cand, cfg.sym, cfg.nl, constrained)
            if rep_c.total <= trace[-1] - ARMIJO_C1 * step * slope:
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
            if d_norm < 100 * cfg.grad_tol:
                converged = True
                break
            raise nl.DivergenceError(f"no descent after 60 backtracks at iteration {it}")
        if trace[-1] < -1e12:
            raise nl.DivergenceError("energy unbounded along the trajectory")
    defect = abs(nl.potential_integral(u, cfg.nl.Gt) - cfg.c) if constrained else None
    return nl.MinimizeResult(u=u, multiplier=lam, residual_norm=pg.l2_norm(),
                             constraint_defect=defect, iterations=it,
                             converged=converged, energy_trace=np.array(trace),
                             diagnostics=nl.symmetry_diagnostics(u), flags=tuple(flags))


def poisson_extension(u, radius: float) -> np.ndarray:
    """Harmonic extension at radius r by trapezoid quadrature of the Poisson
    kernel on M nodes, as a circular convolution with u refined to M nodes
    (three complex FFTs of size M); M as in nonlocper.circle_dtn."""
    import math

    n = u.grid.size
    m = max(n, 1 << max(10, math.ceil(math.log2(40.0 / (1.0 - radius)))))
    uq = u.refine(m)
    pk = (1.0 - radius**2) / (2.0 * math.pi * (1.0 - 2.0 * radius * np.cos(uq.grid.nodes)
                                               + radius**2))
    conv = np.real(np.fft.ifft(np.fft.fft(np.roll(pk, -(m // 2)))
                               * np.fft.fft(uq.samples))) * (2.0 * math.pi / m)
    return conv[:: m // n]


def disk_energy(u) -> float:
    """E_disk of nonlocper.energy_identity_check, one radius at a time: the
    radial and angular derivatives of the harmonic extension by two N-point
    inverse transforms per Gauss-Legendre radius."""
    import math

    import nonlocper as nl

    grid, c, k = u.grid, u.coeffs(), u.grid.wavenumbers
    nodes, weights = np.polynomial.legendre.leggauss(64)
    absk = np.abs(k).astype(float)
    e_disk = 0.0
    for r, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        radial = r ** np.maximum(absk - 1.0, 0.0)
        dr = nl.PeriodicFunction.from_coeffs(grid, c * absk * radial).samples
        dth = nl.PeriodicFunction.from_coeffs(grid, c * 1j * k * radial).samples
        e_disk += w * r * (2.0 * math.pi / grid.size) * float(np.sum(dr**2 + dth**2))
    return 0.5 * e_disk
