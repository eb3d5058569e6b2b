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
    the energy per candidate and must reproduce this one bit for bit.  Each
    iteration's first trial step is the preconditioned Barzilai-Borwein
    step <s, y>/<y, P y> (s the change of u after projection, y that of the
    projected gradient, P y that of its preconditioned form), or 1.5 times
    the last accepted step where either inner product is <= 0; both are
    capped at 1e6."""
    import nonlocper as nl
    from nonlocper.minimize import (ARMIJO_C1, ARMIJO_SHRINK, _dot, _preconditioned,
                                    multiplier_and_residual)

    def precondition(v):
        # mode k divided by 1 + ell, on a PeriodicFunction
        return nl.PeriodicFunction(v.grid, _preconditioned(cfg.sym, v.samples))

    def inner(a, b):
        return _dot(a.grid, a.samples, b.samples)

    flags = []
    if np.any(cfg.sym.values < 0):
        flags.append("sign-changing symbol: no convergence guarantee")
    constrained = cfg.c is not None
    u = nl.project_constraint(cfg.initial, cfg.nl, cfg.c) if constrained else cfg.initial
    lam, pg, rep = multiplier_and_residual(u, cfg.sym, cfg.nl, constrained)
    trace = [rep.total]
    d = precondition(pg)
    d_norm = d.l2_norm()
    step, it, converged, stagnant = 1.0, 0, False, 0
    while it < cfg.max_iters:
        it += 1
        if d_norm < cfg.grad_tol:
            converged = True
            break
        slope = inner(pg, d)
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
                d_c = precondition(pg_c)
                y = pg_c.samples - pg.samples
                sy = _dot(u.grid, cand.samples - u.samples, y)
                ypy = _dot(u.grid, y, d_c.samples - d.samples)
                if sy > 0 and ypy > 0:
                    step = min(sy / ypy, 1e6)  # Barzilai-Borwein 2
                else:
                    step = min(step * 1.5, 1e6)
                u, lam, pg, d = cand, lam_c, pg_c, d_c
                d_norm = d.l2_norm()
                trace.append(rep_c.total)
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


def symmetry_diagnostics(u):
    """nonlocper.symmetry_diagnostics through complex FFTs of length 8N: u
    and u' refined to 8N nodes, then shifted by -z with PeriodicFunction.shift
    (an FFT and an inverse FFT each), against the library's one padded irfft
    per field.  The Newton refinement of the center is the library's (u''
    as the derivative of u', a result kept only at a maximum within L/N of
    the fine-grid argmax), so the centers compare with ==."""
    import math

    from nonlocper.minimize import SymmetryDiagnostics

    L = u.grid.half_period
    n = u.grid.size
    scale = float(np.max(np.abs(u.samples)))
    if np.ptp(u.samples) < 1e-12 * max(1.0, scale):
        return SymmetryDiagnostics(center=0.0, evenness_defect=0.0,
                                   monotonicity_defect=0.0, critical_points=0,
                                   degenerate=True)
    fine = u.refine(8 * n)
    z0 = z = float(fine.grid.nodes[int(np.argmax(fine.samples))])
    du = u.derivative()
    d2u = du.derivative()
    for _ in range(60):
        d1 = du.eval(z)
        d2 = d2u.eval(z)
        if abs(d2) < 1e-14 * max(1.0, scale):
            z = z0
            break
        step = d1 / d2
        if abs(step) > L / n:
            step = math.copysign(L / n, step)
        if abs(z - step - z0) > L / n:
            z = z0
            break
        if abs(d1) < 1e-13 * max(1.0, scale):
            z = z - step if d2 < 0.0 else z0
            break
        z -= step
    else:
        z = z0
    centered = fine.shift(-z).samples
    right, left = np.append(centered[4 * n:], centered[0]), centered[4 * n::-1]
    evenness = float(np.max(np.abs(right - left)))
    prof = 0.5 * (right + left)
    running_min = np.minimum.accumulate(prof)
    monotonicity = float(np.max(prof - running_min))
    dvals = du.refine(8 * n).shift(-z).samples[4 * n + 1:]
    thresh = 1e-7 * max(float(np.max(np.abs(dvals))), 1e-30)
    signs = np.sign(dvals[np.abs(dvals) > thresh])
    interior = int(np.count_nonzero(np.diff(signs) != 0)) if signs.size else 0
    return SymmetryDiagnostics(center=z, evenness_defect=evenness,
                               monotonicity_defect=monotonicity,
                               critical_points=2 + interior, degenerate=False)


def poisson_extension(u, radius: float) -> np.ndarray:
    """Harmonic extension at radius r by trapezoid quadrature of the Poisson
    kernel on M nodes, as a circular convolution with u refined to M nodes
    (three complex FFTs of size M); M as in nonlocper.circle_dtn.  The kernel
    is (1 - r)(1 + r) / (2 pi ((1 - r)^2 + 4 r sin^2(t/2))) at the distances
    t = 2 pi d / M, d = min(j, M - j) nodes, so that sin(t/2) is taken only
    on [0, pi/2]: the form (1 - r^2) / (2 pi (1 - 2 r cos t + r^2)) loses
    about 1e-11 of its weights to cancellation near t = 0 at r = 1 - 1.25e-3."""
    import math

    n = u.grid.size
    m = max(n, 1 << max(10, math.ceil(math.log2(40.0 / (1.0 - radius)))))
    uq = u.refine(m)
    gap = 1.0 - radius
    d = np.minimum(np.arange(m), m - np.arange(m))
    pk = gap * (1.0 + radius) / (2.0 * math.pi * (
        gap * gap + 4.0 * radius * np.sin(math.pi * d / m) ** 2))
    conv = np.real(np.fft.ifft(np.fft.fft(pk) * np.fft.fft(uq.samples))) * (2.0 * math.pi / m)
    return conv[:: m // n]


def bo_wave(grid, c: float, x0: float) -> tuple:
    """(wave, multiplier) of the periodic Benjamin-Ono wave on grid: the
    positive solution of |D|u + u = lambda u^2 with int |u|^3/3 = c, for
    L > pi.  u = alpha P_r(kappa (x - x0)), with P_r(t) = (1 - r^2)/(1 - 2r cos t
    + r^2) the Poisson kernel (Fourier coefficients r^|k|), kappa = pi/L and
    (1 + r^2)/(1 - r^2) = L/pi: then |D|P_r = P_r^2 - (L/pi) P_r in t, so
    lambda = kappa/alpha.  alpha is fixed by the grid trapezoid of the
    constraint, exact to rounding for the analytic P_r."""
    import math

    from nonlocper import PeriodicFunction

    L = grid.half_period
    a = L / math.pi
    r = math.sqrt((a - 1.0) / (a + 1.0))
    poisson = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(math.pi * (grid.nodes - x0) / L) + r * r)
    alpha = (3.0 * c / (2.0 * L / grid.size * np.sum(poisson**3))) ** (1.0 / 3.0)
    return PeriodicFunction(grid, alpha * poisson), math.pi / L / alpha


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


# The panel builders and the principal-value fold as they stood before every
# Gauss-Legendre rule came from nonlocper.kernels._gauss_legendre: numpy's
# leggauss per call, each panel layout written out, and a fold that recurses
# over blocks of EVAL_BLOCK points.  The library must reproduce them bit for bit.

def support_panels(support: float, breaks: tuple, xi_max: float) -> tuple:
    """nonlocper.operator._support_panels."""
    import math

    from nonlocper.operator import _PANEL_NODES, _fine_and_coarse

    edges = sorted({0.0, support} | {b for b in breaks if 0.0 < b < support})
    cuts = [np.linspace(lo, hi, max(1, math.ceil((hi - lo) * xi_max / math.pi)) + 1)[:-1]
            for lo, hi in zip(edges[:-1], edges[1:])]
    edges = np.append(np.concatenate(cuts), support)
    lo, half = edges[:-1], 0.5 * np.diff(edges)
    ts, ws = [], []
    for n in _PANEL_NODES:
        x, w = np.polynomial.legendre.leggauss(n)
        ts.append(((lo + half)[:, None] + half[:, None] * x).ravel())
        ws.append((half[:, None] * w).ravel())
    return _fine_and_coarse(ts, ws)


def line_rule(s: float) -> tuple:
    """nonlocper.operator._line_rule."""
    import math

    from nonlocper.operator import (_NEAR_NODES, _OSC_STEPS, _fine_and_coarse,
                                    _ooura_mori)

    p = 1.0 / (1.0 - s)
    zs, ws = [], []
    for n_near, h in zip(_NEAR_NODES, _OSC_STEPS):
        v, w = np.polynomial.legendre.leggauss(n_near)
        v, w = 0.5 * (v + 1.0), 0.5 * w
        z = 0.5 * math.pi * v**p
        y, wy = _ooura_mori(h)
        zs.append(np.concatenate([z, 0.5 * math.pi + y]))
        ws.append(np.concatenate([0.5 * math.pi * p * v ** (p - 1.0) * w
                                  * 2.0 * np.sin(0.5 * z) ** 2, wy]))
    return _fine_and_coarse(zs, ws)


def pv_rule(L: float, n_modes: int, breakpoints: tuple, s: float) -> tuple:
    """(zs, weights, cuts, cos_large, powers) of nonlocper.operator._pv_rule,
    rule after rule: cuts holds (start, switch, stop) of each rule's nodes,
    the first switch - start of them below z_switch; weights one row per
    rule; powers the columns 1, z^2, z^4 at every node."""
    import math

    from scipy.linalg import block_diag

    from nonlocper.operator import PV_EPS_SEQ

    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(12)
    end_nodes, end_weights = np.polynomial.legendre.leggauss(20)
    v, wv = 0.5 * (end_nodes + 1.0), 0.5 * end_weights
    q = 0.5 / (1.0 - s)
    z_switch = 1e-3 * L
    zs, w, cuts, start = [], [], [], 0
    for eps in PV_EPS_SEQ:
        pivot = eps * (L / math.pi)
        depth = 12
        while breakpoints and pivot * 2.0 ** -depth >= min(breakpoints):
            depth += 1
        a = pivot * 2.0 ** -depth
        bounds = [pivot * 2.0 ** -j for j in range(depth, -1, -1)]
        while bounds[-1] < L:
            bounds.append(min(2.0 * bounds[-1], L))
        bounds = np.array(sorted(set(bounds) | {b for b in breakpoints if a < b < L}))
        lo, half = bounds[:-1], 0.5 * np.diff(bounds)
        graded = ((lo + half)[:, None] + half[:, None] * gl_nodes).ravel()
        zs.append(np.concatenate([a * v**q, graded]))
        w.append(np.concatenate([a * q * v ** (q - 1.0) * wv,
                                 (half[:, None] * gl_weights).ravel()]))
        stop = start + zs[-1].size
        cuts.append((start, start + int(np.searchsorted(zs[-1], z_switch)), stop))
        start = stop
    zs = np.concatenate(zs)
    weights = block_diag(*(row[None, :] for row in w))
    z2 = zs**2
    with np.errstate(over="ignore"):
        powers = np.column_stack([np.ones_like(z2), z2, z2 * z2])
    large = np.concatenate([zs[switch:stop] for _, switch, stop in cuts])
    cos_large = np.outer(large, np.pi * np.arange(n_modes) / L)
    np.cos(cos_large, out=cos_large)
    return zs, weights, tuple(cuts), cos_large, powers


def pv_fold(u, xs, kbar, breakpoints, s: float) -> np.ndarray:
    """nonlocper.operator._pv_fold, recursing over blocks of EVAL_BLOCK
    points and evaluating kbar once per block."""
    from nonlocper.errors import IntegrationError
    from nonlocper.grids import EVAL_BLOCK
    from nonlocper.operator import PV_STABILITY_TOL

    L = u.grid.half_period
    xs = np.asarray(xs, dtype=float)
    if xs.size > EVAL_BLOCK:
        return np.concatenate([pv_fold(u, xs[i:i + EVAL_BLOCK], kbar, breakpoints, s)
                               for i in range(0, xs.size, EVAL_BLOCK)])
    omega = u.grid.frequencies()
    zs, weights, cuts, cos_large, powers = pv_rule(L, omega.size, tuple(breakpoints), s)
    small = np.concatenate([np.arange(start, switch) for start, switch, _ in cuts])
    direct = np.concatenate([np.arange(switch, stop) for _, switch, stop in cuts])
    wk = weights * kbar(zs)
    # in C order, as the library's weights: BLAS rounds a transposed
    # operand, which wk[:, idx] is, differently
    wd, ws = (np.ascontiguousarray(wk[:, idx]) for idx in (direct, small))
    moments = (ws * zs[small] ** 2) @ powers[small]
    ux = u.eval(xs)
    modes = u.modes(xs)
    diff = 2.0 * (ux - cos_large @ modes.T)
    d2 = -omega**2
    derivs = modes @ np.column_stack([d2, d2**2 / 12.0, d2**3 / 360.0])
    vals = wd @ diff - moments @ derivs.T
    spread = np.max(np.abs(np.diff(vals, axis=0)), axis=0, initial=0.0)
    bad = np.flatnonzero(spread > PV_STABILITY_TOL * np.maximum(1.0, np.abs(vals[-1])))
    if bad.size:
        raise IntegrationError(f"principal value unstable across PV_EPS_SEQ at "
                               f"x={xs[bad[0]]:g}: {vals[:, bad[0]].tolist()}")
    return vals[-1]


def pv_rule_graded120(L: float, n_modes: int, breakpoints: tuple) -> tuple:
    """(zs, w, cuts, cos_large) of the retired principal-value plan: 120
    halvings of the 12-point Gauss-Legendre panels below each eps, and the
    sliver [0, eps 2^-120] dropped."""
    from nonlocper.operator import PV_EPS_SEQ

    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(12)
    z_switch = 1e-3 * L
    zs, w, cuts, start = [], [], [], 0
    for eps in PV_EPS_SEQ:
        bounds = [eps * 2.0 ** j for j in range(-120, 1)]
        while bounds[-1] < L:
            bounds.append(min(2.0 * bounds[-1], L))
        bounds = np.array(sorted(set(bounds) | {b for b in breakpoints if bounds[0] < b < L}))
        lo, half = bounds[:-1], 0.5 * np.diff(bounds)
        zs.append(((lo + half)[:, None] + half[:, None] * gl_nodes).ravel())
        w.append((half[:, None] * gl_weights).ravel())
        stop = start + zs[-1].size
        cuts.append((start, start + int(np.searchsorted(zs[-1], z_switch)), stop))
        start = stop
    zs, w = np.concatenate(zs), np.concatenate(w)
    large = np.concatenate([zs[switch:stop] for _, switch, stop in cuts])
    cos_large = np.outer(large, np.pi * np.arange(n_modes) / L)
    np.cos(cos_large, out=cos_large)
    return zs, w, tuple(cuts), cos_large


def pv_fold_graded120(u, xs, kbar, breakpoints) -> np.ndarray:
    """The retired principal-value fold on pv_rule_graded120, its nine
    moments taken as nine sums, recursing over blocks of EVAL_BLOCK points."""
    from nonlocper.errors import IntegrationError
    from nonlocper.grids import EVAL_BLOCK
    from nonlocper.operator import PV_STABILITY_TOL

    L = u.grid.half_period
    xs = np.asarray(xs, dtype=float)
    if xs.size > EVAL_BLOCK:
        return np.concatenate([pv_fold_graded120(u, xs[i:i + EVAL_BLOCK], kbar, breakpoints)
                               for i in range(0, xs.size, EVAL_BLOCK)])
    omega = u.grid.frequencies()
    zs, w, cuts, cos_large = pv_rule_graded120(L, omega.size, tuple(breakpoints))
    wk = w * kbar(zs)
    ux = u.eval(xs)
    modes = u.modes(xs)
    diff = 2.0 * (ux - cos_large @ modes.T)
    d2, d4, d6 = (modes @ (-omega**2) ** m for m in (1, 2, 3))
    vals, row = [], 0
    for start, switch, stop in cuts:
        z2 = zs[start:switch] ** 2
        wz2 = wk[start:switch] * z2
        wz4 = wz2 * z2
        m2, m4, m6 = np.sum(wz2), np.sum(wz4), np.sum(wz4 * z2)
        vals.append(wk[switch:stop] @ diff[row:row + stop - switch]
                    - (d2 * m2 + d4 * m4 / 12.0 + d6 * m6 / 360.0))
        row += stop - switch
    spread = np.max(np.abs(np.diff(vals, axis=0)), axis=0, initial=0.0)
    bad = np.flatnonzero(spread > PV_STABILITY_TOL * np.maximum(1.0, np.abs(vals[-1])))
    if bad.size:
        raise IntegrationError(f"principal value unstable across PV_EPS_SEQ at "
                               f"x={xs[bad[0]]:g}: {[float(v[bad[0]]) for v in vals]}")
    return vals[-1]


def sinetail_panels(xi_max: float) -> tuple:
    """nonlocper.kernels._sinetail_panels."""
    from nonlocper.kernels import _SYMBOL_CUT

    t0 = 8.0 / max(8.0, xi_max)
    edges = [0.0] + [t0 * 2.0**-j for j in range(30, -1, -1)]
    while edges[-1] < _SYMBOL_CUT:
        t = edges[-1]
        nxt = min(t + min(0.5, 8.0 / (2.0 * t + xi_max)), _SYMBOL_CUT)
        edges.append(10.0 if t < 10.0 < nxt else nxt)
    edges = np.array(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)
    return (mid[:, None] + half[:, None] * gl_nodes).ravel(), (half[:, None] * gl_weights).ravel()


def diagonal_cell(wk, h: float) -> float:
    """nonlocper.energy._diagonal_cell."""
    from nonlocper.energy import _CELL_HALVINGS, _CELL_NODES

    edges = sorted({h * 2.0 ** -j for j in range(_CELL_HALVINGS + 1)}
                   | {b for b in wk.breakpoints if 0.0 < b < h})
    x, w = np.polynomial.legendre.leggauss(_CELL_NODES)
    lo, half = np.array(edges[:-1]), 0.5 * np.diff(edges)
    z = np.append(((lo + half)[:, None] + half[:, None] * x).ravel(), edges[0])
    g = z * z * wk(z)
    return float((half[:, None] * w).ravel() @ g[:-1]
                 + g[-1] * edges[0] / (2.0 - 2.0 * wk.kernel.s))


def energy_identity_check(u) -> dict:
    """nonlocper.energy_identity_check, its radial rule from leggauss(64)."""
    import math

    from nonlocper.energy import seminorm_sq_offdiag
    from nonlocper.grids import _half_to_samples
    from nonlocper.operator import bilinear_fourier, symbol_from_values

    grid = u.grid
    n = grid.size
    c = u.half_spectrum()
    k = np.arange(n // 2 + 1.0)
    e_line = 0.5 * bilinear_fourier(symbol_from_values(grid, k), u, u)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    rr = 0.5 * (nodes + 1.0)
    ww = 0.5 * weights
    radial = rr[:, None] ** np.maximum(k - 1.0, 0.0)
    dr = _half_to_samples(c * k * radial, n)
    dtheta_over_r = _half_to_samples(c * 1j * k * radial, n)
    terms = ww * rr * (2.0 * math.pi / n) * np.sum(dr**2 + dtheta_over_r**2, axis=1)
    e_disk = 0.5 * float(np.cumsum(terms)[-1])
    h = grid.spacing
    chord_sq = 2.0 - 2.0 * np.cos(h * np.arange(1, n))
    diagonal = h * h * float(np.sum(u.derivative().samples ** 2))
    e_circle = (2.0 * seminorm_sq_offdiag(1.0 / chord_sq, u) + diagonal) / (4.0 * math.pi)
    return {"E_line": e_line, "E_disk": e_disk, "E_circle": e_circle}


def sinetail_profile(s: float, t) -> np.ndarray:
    """nonlocper.SineTailKernel(s).profile as it stood before the near
    branch (a = t^2 < 100) read a table: there the steepest-descent
    trapezoid sum ran at every point, and raised on its step-2h estimate."""
    from nonlocper.errors import IntegrationError
    from nonlocper.kernels import _DESCENT_TOL, _descent_weights

    p = s + 2.5
    a = np.asarray(t, dtype=float) ** 2
    out = 2.0 * a ** (2.0 - p) / ((p - 1.0) * (p - 2.0))
    far = a >= 100.0
    af = a[far]
    out[far] += af ** (-p) * (2.0 * p * np.cos(af) / af - np.sin(af))
    near = ~far & (a > 0.0)
    an = a[near]
    u, weights = _descent_weights(p)
    cut = np.searchsorted(u, 80.0 / an)
    cut = np.minimum(-(-cut // 16) * 16, u.size)  # each node cut rounded up to 16
    sums = np.array([weights[:, :n] @ np.exp(x * -u[:n]) for x, n in zip(an, cut)])
    fine = sums[:, 0] + 1j * sums[:, 1]
    coarse = sums[:, 2] + 1j * sums[:, 3]
    scale = an ** (2.0 - p)
    if np.any(scale * np.abs(fine - coarse) > _DESCENT_TOL * out[near]):
        raise IntegrationError("sine-part quadrature error")
    out[near] += -scale * np.imag(np.exp(1j * an) * fine)
    return out

def exact_remainder(kernel, L: float, t) -> np.ndarray:
    """The image sum sum_{k != 0} K(|t + 2kL|) of nonlocper.kernels._exact_remainder
    at t in [0, L], with the Euler-Maclaurin stencil of its tail taken as
    four profile calls, one per offset."""
    from numpy.polynomial.chebyshev import chebval

    from nonlocper.kernels import (_BLOCK, K_DIRECT, _TAIL_POINTS, _cheb_coeffs,
                                   _cheb_points, _safe_profile)

    sup = kernel.support
    flat = np.asarray(t, dtype=float).ravel()
    k = np.repeat(np.arange(1, K_DIRECT + 1), 2) * np.tile([1, -1], K_DIRECT)
    if sup is not None:
        shifts = 2.0 * L * np.abs(k)
        k = k[np.where(k > 0, shifts, shifts - L) < sup]
        if k.size == 0:
            return np.zeros(flat.size)
    out = np.empty(flat.size)
    step = max(1, _BLOCK // k.size)
    for i in range(0, flat.size, step):
        out[i:i + step] = np.cumsum(kernel.image_profile(flat[i:i + step], L, k), axis=1)[:, -1]
    edge = 2.0 * (K_DIRECT + 0.5) * L
    lo, hi = edge - L, edge + L
    if sup is None or sup > lo:
        fit = _cheb_coeffs(np.array([kernel.tail_integral(x)
                                     for x in _cheb_points(lo, hi, _TAIL_POINTS)]))
        a = np.concatenate([edge + flat, edge - flat])
        h, d = 2.0 * L, 0.002 * a
        k2, k1, m1, m2 = (_safe_profile(kernel, a + j * d) for j in (2.0, 1.0, -1.0, -2.0))
        dK = (8.0 * (k1 - m1) - (k2 - m2)) / (12.0 * d)
        d3K = ((k2 - m2) - 2.0 * (k1 - m1)) / (2.0 * d**3)
        tail_int = chebval((2.0 * a - lo - hi) / (hi - lo), fit)
        tail = tail_int / h + h * dK / 24.0 - 7.0 * h**3 * d3K / 5760.0
        out = out + tail[:flat.size] + tail[flat.size:]
    return out


def grid_values(wk, distances) -> np.ndarray:
    """nonlocper.WrappedKernel.grid_values with exact_remainder's image sum."""
    from nonlocper.kernels import _safe_profile

    kernel, L = wk.kernel, wk.half_period
    tf = np.atleast_1d(wk.fold(distances))
    rest = exact_remainder(kernel, L, tf)
    if kernel.support is not None:
        return _safe_profile(kernel, np.where(tf == 0.0, 1e-12 * L, tf)) + rest
    return np.where(tf > 0, _safe_profile(kernel, tf), np.inf) + rest



# The tail integrals one start a at a time, as Kernel.tail_integral and the
# overrides of CompactKernel, LaplaceKernel and SineTailKernel took them
# before they accepted arrays, when _fixed_rule and the wrap's tail fit
# called them once per start in a Python loop.

def de_tail_integral(kernel, a: float) -> float:
    """nonlocper.Kernel.tail_integral: tanh-sinh on [a, support], or exp-sinh
    from a > 0, or tanh-sinh on [0, 1] plus exp-sinh from 1 at a = 0."""
    import math

    from nonlocper.kernels import _DE_STEP, _exp_sinh_rule, _safe_profile

    def tanh_sinh(lo, hi):
        tau = np.arange(-4.0, 4.0 + _DE_STEP / 2, _DE_STEP)
        e = np.exp(-math.pi * np.sinh(tau))
        y = 1.0 / (1.0 + e)
        w = _DE_STEP * math.pi * np.cosh(tau) * e * y**2
        return (hi - lo) * float(_safe_profile(kernel, lo + (hi - lo) * y) @ w)

    if kernel.support is not None:
        return tanh_sinh(a, kernel.support) if a < kernel.support else 0.0
    if a == 0.0:
        return tanh_sinh(0.0, 1.0) + de_tail_integral(kernel, 1.0)
    x, w, rest = _exp_sinh_rule(kernel.s)
    n = int(np.searchsorted(x, 1e300 / a))
    k = _safe_profile(kernel, a * x[:n])
    val = a * float(k @ w[:n])
    if 0 < n < rest.size:
        xn = x[n - 1]
        val += a * float(k[-1] * xn * xn ** (2.0 * kernel.s) * rest[n])
    return val


def compact_tail_integral(kernel, a: float) -> float:
    """nonlocper.CompactKernel.tail_integral: the trapezoid rule on the knots
    beyond a."""
    if a >= kernel.support:
        return 0.0
    ts = np.concatenate([[a], kernel.t_table[kernel.t_table > a]])
    return float(np.trapezoid(np.interp(ts, kernel.t_table, kernel.k_table), ts))


def laplace_tail_integral(kernel, a: float) -> float:
    """nonlocper.LaplaceKernel.tail_integral: the Gaussian tails
    sqrt(pi/r) erfc(a sqrt(r))/2 on the trapezoid weights in log r."""
    import math

    r = kernel.r_grid
    dw = np.diff(np.log(r))
    trap = 0.5 * (np.concatenate([dw, [0.0]]) + np.concatenate([[0.0], dw]))
    x = a * np.sqrt(r)
    erfc = np.zeros_like(x)
    live = x < 27.25
    erfc[live] = list(map(math.erfc, x[live].tolist()))
    return float(np.sum(trap * kernel.density * 0.5 * np.sqrt(math.pi * r) * erfc))


def sinetail_tail_integral(kernel, a: float) -> float:
    """nonlocper.SineTailKernel.tail_integral: three power integrals and the
    sine part along x = a^2 (1 + iu), checked against its step-2h sum."""
    from nonlocper.errors import IntegrationError
    from nonlocper.kernels import _DESCENT_STEP, _DESCENT_TOL, _DESCENT_V

    s, p = kernel.s, kernel.s + 2.5
    b = a * a
    scale = a ** (-2.0 * s)
    power = 2.0 * scale * (2.0 / (3.0 * s) - 1.0 / (s + 0.5) + 1.0 / (3.0 * (s + 1.5)))
    bu = np.exp(_DESCENT_V)
    z = 1j * bu / b
    w = np.sqrt(1.0 + z)
    f = (bu / b) * (1.0 + z) ** (-p) * (z / (w + 1.0)) ** 2 * (2.0 * w + 1.0) / 3.0
    f = f * np.exp(-bu)
    fine = _DESCENT_STEP * f.sum()
    coarse = 2.0 * _DESCENT_STEP * f[::2].sum()
    if scale * abs(fine - coarse) > _DESCENT_TOL * power:
        raise IntegrationError(f"sine-part tail quadrature error {scale * abs(fine - coarse):g}")
    return float(power + scale * np.real(np.exp(1j * b) * fine))


def sine_square_sums(xi, t, w, starts=(0,), pairwise=False) -> np.ndarray:
    """sum_j w_j 4 sin^2(xi_k t_j / 2) for every xi_k and every run of nodes
    from starts[c], one sin per entry, in the row blocks of
    nonlocper.kernels._row_blocks.  Each run is summed by a matrix product,
    as nonlocper.kernels._sine_square_sums does off the frequency ladder
    and the symbol rules did before it; with pairwise, by np.add.reduceat,
    the more accurate reference that the ladder is held to."""
    from nonlocper.kernels import _row_blocks

    out = np.empty((np.size(xi), len(starts)))
    ends = (*starts[1:], np.size(t))
    for blk in _row_blocks(out.shape[0], np.size(t)):
        square = 4.0 * np.sin(0.5 * np.outer(xi[blk], t)) ** 2
        if pairwise:
            out[blk] = np.add.reduceat(square * w, starts, axis=1)
        else:
            for c, (a, b) in enumerate(zip(starts, ends)):
                out[blk, c] = square[:, a:b] @ w[a:b]
    return out

# The full-spectrum forms that PeriodicFunction, apply_spectral,
# bilinear_fourier and the circle routes used before the library kept one
# real half spectrum: N coefficients in fft order from a complex FFT, the
# Nyquist coefficient forced real and, off the nodes, split evenly between
# +-N/2.

def full_coeffs(u) -> np.ndarray:
    """The N coefficients of u in fft order, by one complex FFT."""
    n = u.grid.size
    c = np.fft.fft(u.samples) / n * np.power(-1.0, u.grid.wavenumbers)
    c[n // 2] = c[n // 2].real
    return c


def full_samples(grid, c) -> np.ndarray:
    """The samples of the real function with coefficients c in fft order
    (one row per function), by one complex inverse FFT per row."""
    return np.real(np.fft.ifft(c * np.power(-1.0, grid.wavenumbers) * grid.size))


def full_multiplier(sym) -> np.ndarray:
    """The symbol in fft order: mode -k reads the entry of k."""
    return sym.values[np.abs(sym.grid.wavenumbers)]


def full_modes(u, x) -> np.ndarray:
    """nonlocper.PeriodicFunction.modes, the +-k terms folded by bincount."""
    k, c = u.grid.wavenumbers, full_coeffs(u)
    re = np.bincount(np.abs(k), weights=c.real)
    im = np.bincount(np.abs(k), weights=np.sign(k) * c.imag)
    phase = np.outer(x, u.grid.frequencies())
    return np.cos(phase) * re - np.sin(phase) * im


def full_refine(u, m: int) -> np.ndarray:
    """The samples of u.refine(m): the full spectrum zero-padded to m modes,
    the Nyquist cosine split between +-N/2, one complex inverse FFT."""
    n = u.grid.size
    c = full_coeffs(u)
    padded = np.zeros(m, dtype=complex)
    padded[: n // 2] = c[: n // 2]
    padded[m - n // 2 + 1:] = c[n // 2 + 1:]
    padded[n // 2] = padded[m - n // 2] = 0.5 * c[n // 2]
    k = np.fft.fftfreq(m, d=1.0 / m)
    return np.real(np.fft.ifft(padded * np.power(-1.0, k) * m))


def full_shift(u, z: float) -> np.ndarray:
    """The samples of u.shift(z); the Nyquist cosine keeps its cosine part."""
    L, n = u.grid.half_period, u.grid.size
    c = full_coeffs(u)
    shifted = c * np.exp(-1j * np.pi * u.grid.wavenumbers * z / L)
    shifted[n // 2] = c[n // 2].real * np.cos(np.pi * (n // 2) * z / L)
    return full_samples(u.grid, shifted)


def full_derivative(u, order: int) -> np.ndarray:
    """The samples of u.derivative(order); an odd one drops the Nyquist mode."""
    k = u.grid.wavenumbers.astype(float)
    c = full_coeffs(u) * (1j * np.pi * k / u.grid.half_period) ** order
    if order % 2:
        c[u.grid.size // 2] = 0.0
    return full_samples(u.grid, c)


def full_apply_spectral(sym, u) -> np.ndarray:
    """The samples of nonlocper.apply_spectral(sym, u)."""
    return full_samples(u.grid, full_coeffs(u) * full_multiplier(sym))


def full_bilinear_fourier(sym, u, psi) -> float:
    """nonlocper.bilinear_fourier: 2L sum over all N modes."""
    val = 2.0 * sym.grid.half_period * np.sum(
        full_multiplier(sym) * full_coeffs(u) * np.conj(full_coeffs(psi)))
    return float(np.real(val))


def full_dtn_multiplier(u) -> np.ndarray:
    """The samples of nonlocper.dtn_multiplier(u), the |k| multiplier."""
    return full_samples(u.grid, full_coeffs(u) * np.abs(u.grid.wavenumbers))


def full_energy_identity(u) -> dict:
    """nonlocper.energy_identity_check with E_line and E_disk from the full
    coefficients and E_circle's autocorrelation by complex FFTs."""
    import math

    grid, n, h = u.grid, u.grid.size, u.grid.spacing
    c, k = full_coeffs(u), grid.wavenumbers
    absk = np.abs(k).astype(float)
    e_line = math.pi * float(np.sum(absk * np.abs(c) ** 2))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    rr, ww = 0.5 * (nodes + 1.0), 0.5 * weights
    radial = rr[:, None] ** np.maximum(absk - 1.0, 0.0)
    dr = full_samples(grid, c * absk * radial)
    dth = full_samples(grid, c * 1j * k * radial)
    e_disk = 0.5 * float(np.sum(ww * rr * (2.0 * math.pi / n) * np.sum(dr**2 + dth**2, axis=1)))
    acf = np.real(np.fft.ifft(np.abs(np.fft.fft(u.samples)) ** 2))
    kbar = 1.0 / (2.0 - 2.0 * np.cos(h * np.arange(1, n)))
    off = h * h * (float(np.sum(u.samples**2)) * float(np.sum(kbar)) - float(np.sum(kbar * acf[1:])))
    diagonal = h * h * float(np.sum(full_derivative(u, 1) ** 2))
    return {"E_line": e_line, "E_disk": e_disk,
            "E_circle": (2.0 * off + diagonal) / (4.0 * math.pi)}
