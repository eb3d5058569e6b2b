"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the library at its stated
tolerance and prints a single PASS/FAIL line (visible with pytest -s / -v).
"""

import math
import time

import numpy as np
import pytest

import nonlocper as nl
from _oracles import cosine_normalization

S_SET = (0.2, 0.5, 0.8)


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d} {name}: {detail}"
    print(line)
    assert ok, line


def band_limited(grid, rng, k_max=8):
    c = np.zeros(grid.size, complex)
    for k in range(1, k_max + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        c[k], c[-k] = z, np.conj(z)
    return nl.PeriodicFunction.from_coeffs(grid, c)


def test_01_symbol_exactness():
    t0 = time.time()
    g = nl.PeriodicGrid(math.pi, 128)  # 64 nonzero frequencies
    worst = 0.0
    for s in S_SET:
        sym = nl.symbol_of_kernel(nl.FractionalKernel(s), g,
                                  force_quadrature=True)
        exact = np.abs(g.frequencies()) ** (2 * s)
        worst = max(worst, float(np.max(
            np.abs(sym.values[1:] - exact[1:]) / exact[1:])))
    elapsed = time.time() - t0
    report(1, "symbol exactness", worst < 1e-6 and elapsed < 10.0,
           f"worst rel {worst:.2e}, {elapsed:.1f}s")


def test_02_normalization():
    worst = max(abs(cosine_normalization(s) * nl.frac_lap_constant(s) - 1.0)
                for s in S_SET)
    report(2, "normalization identity", worst < 1e-8, f"worst rel {worst:.2e}")


def test_03_pv_spectral_agreement():
    t0 = time.time()
    g = nl.PeriodicGrid(math.pi, 64)
    kernels = (nl.FractionalKernel(0.5), nl.FractionalKernel(0.2),
               nl.DelaunayKernel(2, 0.5, 1.0))
    wraps = [nl.wrap_kernel(k, g.half_period, tol=1e-12) for k in kernels]
    syms = [nl.symbol_of_kernel(k, g) for k in kernels]
    rng = np.random.default_rng(0)
    probes = np.linspace(-math.pi, math.pi, 17)[:-1]
    worst = 0.0
    for _ in range(10):
        u = band_limited(g, rng)
        for kern, wk, sym in zip(kernels, wraps, syms):
            spec = nl.apply_spectral(sym, u)
            scale = max(1.0, float(np.max(np.abs(spec.samples))))
            for x in probes:
                pv = nl.apply_pv(kern, u, float(x), wrapped=wk)
                worst = max(worst, abs(pv - float(spec.eval(x))) / scale)
    elapsed = time.time() - t0
    report(3, "PV vs spectral", worst < 1e-4 and elapsed < 60.0,
           f"worst {worst:.2e}, {elapsed:.1f}s")


def test_04_energy_dual_consistency():
    g = nl.PeriodicGrid(math.pi, 1024)
    kern = nl.FractionalKernel(0.5)
    sym = nl.symbol_of_kernel(kern, g)
    wk = nl.wrap_kernel(kern, g.half_period, tol=1e-12)
    worst = 0.0
    for fn in (np.cos,
               lambda x: np.cos(x) + 0.5 * np.sin(2 * x),
               lambda x: np.exp(np.cos(x)),
               lambda x: 1.0 / (2.0 + np.sin(x))):
        u = nl.PeriodicFunction.from_callable(g, fn)
        four = nl.seminorm_sq_fourier(sym, u)
        real = nl.seminorm_sq_realspace(wk, u)
        worst = max(worst, abs(real - four) / four)
    u = nl.PeriodicFunction.from_callable(g, np.cos)
    hand = abs(nl.seminorm_sq_fourier(sym, u) - math.pi) / math.pi
    report(4, "energy dual + hand value", worst < 1e-2 and hand < 1e-2,
           f"worst dual rel {worst:.2e}, [cos]^2 vs pi rel {hand:.2e}")


def test_05_polya_szego_suite():
    t0 = time.time()
    g = nl.PeriodicGrid(math.pi, 64)
    L = g.half_period
    tt = np.linspace(1e-3, 0.6 * L, 64)
    suites = {
        "convex": nl.FractionalKernel(0.5),
        "completely-monotone-sqrt": nl.DelaunayKernel(2, 0.5, 1.0),
        "compact-monotone": nl.CompactKernel(tt, 1.0 - tt / (0.6 * L), s=0.5),
    }
    worst_gap = 0.0
    for kern in suites.values():
        wk = nl.wrap_kernel(kern, L, tol=1e-12)
        rng = np.random.default_rng(2024)
        for _ in range(100):
            u = nl.PeriodicFunction(g, rng.standard_normal(g.size))
            rep = nl.polya_szego_check(kern, u, wrapped=wk)
            worst_gap = min(worst_gap, rep.relative_gap)
    holds = worst_gap >= -1e-9

    # bounded-kernel counterexample: two bumps at distance L, indicator of
    # [0, L + eps]; the inequality reverses for every (a, b)
    gc = nl.PeriodicGrid(math.pi, 128)
    reversed_all = True
    for eps in (0.1 * L, 0.3 * L):
        kern = nl.indicator_kernel(L + eps)
        wk = nl.wrap_kernel(kern, L, tol=1e-12)
        delta = 2 * gc.spacing
        for a in (0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                bump = (a * (np.abs(gc.nodes + L / 2) < delta)
                        + b * (np.abs(gc.nodes - L / 2) < delta))
                rep = nl.polya_szego_check(kern, nl.PeriodicFunction(gc, bump),
                                           wrapped=wk)
                reversed_all &= (rep.relative_gap < 0)
    elapsed = time.time() - t0
    report(5, "Polya-Szego suite", holds and reversed_all and elapsed < 300.0,
           f"worst gap {worst_gap:.2e}, counterexample reversed={reversed_all}, "
           f"{elapsed:.0f}s")


def test_06_equality_case_recovery():
    g = nl.PeriodicGrid(math.pi, 64)
    kern = nl.FractionalKernel(0.5)  # strictly convex
    wk = nl.wrap_kernel(kern, g.half_period, tol=1e-12)
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(50):
        base = nl.rearrange_periodic(
            nl.PeriodicFunction(g, rng.random(g.size)))
        m = int(rng.integers(0, g.size))
        u = nl.PeriodicFunction(g, np.roll(base.samples, m))
        rep = nl.polya_szego_check(kern, u, wrapped=wk)
        if rep.equality_case is None:
            continue
        # the detected shift must reproduce the input exactly on the grid
        if np.allclose(u.samples, base.eval(g.nodes + rep.equality_case),
                       atol=1e-9):
            hits += 1
    report(6, "equality-case recovery", hits == 50, f"{hits}/50 shifts recovered")


def test_07_riesz_circle():
    g = nl.PeriodicGrid(math.pi, 64)
    weight = nl.PeriodicFunction.from_callable(
        g, lambda x: 1.0 + np.cos(math.pi * x / g.half_period))
    rng = np.random.default_rng(11)
    ok = 0
    for _ in range(200):
        f = nl.PeriodicFunction(g, rng.uniform(0, 1, g.size))
        h = nl.PeriodicFunction(g, rng.uniform(0, 1, g.size))
        if nl.riesz_circle_check(f, weight, h)["holds"]:
            ok += 1
    eq = 0
    for _ in range(10):
        f = nl.PeriodicFunction(g, np.full(g.size, float(rng.uniform(0.5, 2))))
        h = nl.PeriodicFunction(g, rng.uniform(0, 1, g.size))
        if nl.riesz_circle_check(f, weight, h)["equality"]:
            eq += 1
    report(7, "Riesz circle inequality", ok == 200 and eq == 10,
           f"{ok}/200 hold, {eq}/10 constant-factor equalities")


def test_08_minimizer_symmetry():
    t0 = time.time()
    g = nl.PeriodicGrid(4 * math.pi, 256)
    sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
    nlty = nl.benjamin_ono_type(2.0)
    base = 1.0 + np.cos(math.pi * g.nodes / g.half_period)
    multipliers = []
    all_ok = True
    details = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u0 = nl.PeriodicFunction(g, base + 0.1 * rng.standard_normal(g.size))
        res = nl.minimize(nl.MinimizeConfig(sym=sym, nl=nlty, initial=u0,
                                            c=5.0))
        d = nl.symmetry_diagnostics(res.u)
        el = np.max(np.abs(
            nl.apply_spectral(sym, res.u).samples
            - np.asarray(nlty.g(res.u.samples))
            - res.multiplier * np.asarray(nlty.gt(res.u.samples))))
        ok = (res.converged and not d.degenerate
              and d.evenness_defect < 1e-6 and d.monotonicity_defect < 1e-6
              and d.critical_points == 2 and el < 1e-6)
        all_ok &= ok
        multipliers.append(res.multiplier)
        if not ok:
            details.append(f"seed {seed}: even {d.evenness_defect:.1e} "
                           f"mono {d.monotonicity_defect:.1e} "
                           f"crit {d.critical_points} el {el:.1e}")
    stable = float(np.ptp(multipliers)) < 1e-6
    elapsed = time.time() - t0
    report(8, "minimizer symmetry", all_ok and stable and elapsed < 600.0,
           f"20 seeds, multiplier spread {np.ptp(multipliers):.1e}, "
           f"{elapsed:.0f}s" + ("; " + "; ".join(details) if details else ""))


def test_09_constant_attractor():
    g = nl.PeriodicGrid(math.pi, 128)
    sym = nl.symbol_of_kernel(nl.FractionalKernel(0.5), g)
    nlty = nl.double_well()
    ok = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        u0 = nl.PeriodicFunction(g, 1.0 + 0.2 * rng.standard_normal(g.size))
        res = nl.minimize(nl.MinimizeConfig(sym=sym, nl=nlty, initial=u0,
                                            grad_tol=1e-11))
        grad = nl.energy(res.u, sym, nlty).gradient.l2_norm()
        if res.converged and np.ptp(res.u.samples) < 1e-6 and grad < 1e-8:
            ok += 1
    report(9, "constant attractor", ok == 10, f"{ok}/10 runs reached constants")


def test_10_max_principle():
    kernels = (nl.FractionalKernel(0.2), nl.FractionalKernel(0.5),
               nl.FractionalKernel(0.8), nl.DelaunayKernel(2, 0.5, 1.0),
               nl.DelaunayKernel(3, 0.3, 0.5))
    ok = 0
    total = 0
    for L in (math.pi, 2.0, 5.0, 0.7):
        g = nl.PeriodicGrid(L, 128)
        v = nl.PeriodicFunction.from_callable(
            g, lambda x: -np.sin(2 * np.pi * x / L) ** 2 * np.sin(np.pi * x / L))
        for kern in kernels:
            total += 1
            if nl.max_principle_probe(kern, v, L / 2) > 0:
                ok += 1
    report(10, "max principle probe", ok == total == 20, f"{ok}/{total} positive")


def test_11_moser_scalar():
    rng = np.random.default_rng(0)
    n = 10**6
    res = nl.moser_scalar_check(
        rng.standard_normal(n) * 10, rng.standard_normal(n) * 10,
        np.abs(rng.standard_normal(n)) * 5, rng.uniform(0, 5, n))
    violations = int(np.count_nonzero(~res["holds"]))
    report(11, "Moser scalar inequality", violations == 0,
           f"{violations} violations in 10^6 tuples")


def test_12_regularity_verdicts():
    v1 = nl.regularity_verdict(0.2, 0.4)
    v2 = nl.regularity_verdict(0.3, 0.5)
    ok = (v1.case == nl.analysis.CASE_SUBCRITICAL
          and abs(v1.exponent_family - 2.0 / 3.0) < 1e-12
          and v2.case == nl.analysis.CASE_SUPERCRITICAL
          and abs(v2.exponent_family - 1.1) < 1e-12)
    for s in (0.2, 0.5, 0.8):
        for beta in (1.0, 1.7):
            ok &= (nl.regularity_verdict(s, beta).case
                   == nl.analysis.CASE_SUPERCRITICAL)
    # trace entries are 2s*beta_k with beta_k = sum_j beta^j -> 1/(1-beta)
    for s, beta in ((0.2, 0.4), (0.1, 0.3), (0.15, 0.6)):
        trace = nl.bootstrap_exponents(s, beta)
        ok &= abs(trace[-1] / (2 * s) - 1.0 / (1.0 - beta)) < 1e-6
    report(12, "regularity verdicts", ok,
           f"(0.2,0.4)->{v1.exponent_family:.4f}, (0.3,0.5)->{v2.exponent_family}")


def test_13_circle_identities():
    t0 = time.time()
    g = nl.circle_grid(64)
    u = nl.PeriodicFunction.from_callable(g, lambda x: np.cos(x) + 0.5 * np.sin(2 * x))
    mult = nl.dtn_multiplier(u)
    poisson_defect = float(np.max(np.abs(nl.dtn_poisson(u).samples - mult.samples)))
    pv_defect = max(abs(nl.half_lap_pv_circle(u, float(x)) - float(mult.eval(x)))
                    for x in np.linspace(-math.pi, math.pi, 9)[:-1])
    wrap_gap = max(nl.wrapped_identity_check(float(t))["gap"]
                   for t in np.linspace(0.1, 2 * math.pi - 0.1, 16))
    eid = nl.energy_identity_check(u)
    spread = max(eid.values()) - min(eid.values())
    ucos = nl.PeriodicFunction.from_callable(g, np.cos)
    hand = abs(nl.energy_identity_check(ucos)["E_disk"] - math.pi / 2)
    elapsed = time.time() - t0
    ok = (poisson_defect < 1e-6 and pv_defect < 1e-5 and wrap_gap < 1e-10
          and spread < 1e-4 and hand < 1e-4 and elapsed < 60.0)
    report(13, "circle half-Laplacian identities", ok,
           f"poisson {poisson_defect:.1e}, pv {pv_defect:.1e}, "
           f"wrap {wrap_gap:.1e}, energy spread {spread:.1e}, "
           f"cos hand defect {hand:.1e}, {elapsed:.0f}s")


def test_14_kernel_classification():
    rep = nl.classify_kernel(nl.SineTailKernel(0.5))
    tau = np.linspace(1.0, 100.0, 4000)
    signs = np.sign(nl.SineTailKernel(0.5).sqrt_profile_third_derivative(tau))
    flips = int(np.count_nonzero(np.diff(signs) != 0))
    ok = rep.convex and rep.sqrt_profile_cm is False and flips >= 2
    worst = 0.0
    for kern in (nl.FractionalKernel(0.2), nl.FractionalKernel(0.5),
                 nl.FractionalKernel(0.8), nl.DelaunayKernel(2, 0.5, 1.0)):
        lk = nl.laplace_measure_of(kern)
        ts = np.geomspace(1e-2, 10.0, 40)
        rec = np.array([lk(t) for t in ts])
        ref = np.array([kern(t) for t in ts])
        worst = max(worst, float(np.max(np.abs(rec - ref) / np.abs(ref))))
    ok &= worst < 1e-6
    report(14, "kernel classification", ok,
           f"convex={rep.convex}, cm={rep.sqrt_profile_cm}, "
           f"{flips} sign flips, Laplace worst rel {worst:.2e}")
