"""The benchmark's four workloads.

Each workload function takes the seed and a scratch directory, generates
every input from the seed, and returns a fixed task list.  A task's `run`
is the timed call into the library; its `check` compares the result with
an oracle outside the timed region and returns accuracy digits, raising
`GateMiss` when the result misses its accuracy gate.  Library functions
are looked up on the package at call time (`nl.apply_pv`, ...), so the
tracer's patches are seen.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import nonlocper as nl
import oracles as o

BENCH_DIR = Path(__file__).resolve().parent
CLI_CHILD = BENCH_DIR / "cli_child.py"


class GateMiss(Exception):
    """A result missed its accuracy or correctness gate."""


def gate(ok: bool, msg: str) -> None:
    if not ok:
        raise GateMiss(msg)


@dataclass
class Task:
    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], list]


@dataclass
class Workload:
    name: str
    tasks: list
    # traced span name -> calls per pass (None: at least one)
    expected: dict
    # tasks run in child processes, which take the reference times and hand
    # them back in ctx.child_refs (before, after, seconds spent on them);
    # peak memory is theirs too
    in_children: bool = False


def band_limited(n: int, L: float, rng, k_max: int = 6) -> np.ndarray:
    """Samples at x_j = -L + 2Lj/n of a random real trigonometric
    polynomial with modes 1..k_max, amplitudes decaying like 1/k."""
    x = -L + 2.0 * L * np.arange(n) / n
    out = np.full(n, rng.standard_normal())
    for k in range(1, k_max + 1):
        a, b = rng.standard_normal(2) / k
        out += a * np.cos(np.pi * k * x / L) + b * np.sin(np.pi * k * x / L)
    return out


def _max_rel(values, exact) -> float:
    values, exact = np.asarray(values), np.asarray(exact)
    pos = exact != 0
    return float(np.max(np.abs(values[pos] - exact[pos]) / np.abs(exact[pos])))


# --------------------------------------------------------------------------
# pv-crossval: principal value at off-grid points vs the spectral route

def pv_crossval(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    L = math.pi
    tt = np.linspace(1e-3, 0.6 * L, 64)
    kk = 1.0 - tt / (0.6 * L)
    cutoff = 1.3 * L
    kernels = {
        "fraclap-0.2": (nl.FractionalKernel(0.2), lambda xi: o.fraclap_symbol(0.2, xi)),
        "fraclap-0.5": (nl.FractionalKernel(0.5), lambda xi: o.fraclap_symbol(0.5, xi)),
        "delaunay": (nl.DelaunayKernel(2, 0.5, 1.0),
                     lambda xi: o.delaunay_symbol(2, 0.5, 1.0, xi)),
        "compact": (nl.CompactKernel(tt, kk, s=0.5),
                    lambda xi: o.piecewise_linear_symbol(tt, kk, xi)),
        "indicator": (nl.indicator_kernel(cutoff),
                      lambda xi: o.indicator_symbol(cutoff, xi)),
    }
    wrapped = {name: nl.wrap_kernel(k, L, tol=1e-12) for name, (k, _) in kernels.items()}
    probes = rng.uniform(-L, L, 16)
    tasks = []
    for n, n_probes in ((64, 16), (256, 4)):
        grid = nl.PeriodicGrid(L, n)
        u = nl.PeriodicFunction(grid, band_limited(n, L, rng))
        for name, (kern, symbol) in kernels.items():
            table = symbol(grid.frequencies())
            sym = nl.symbol_from_values(grid, table)
            scale = float(np.max(np.abs(o.apply_multiplier(u.samples, table))))
            for j, x in enumerate(probes[:n_probes]):
                tasks.append(_pv_task(f"{name}/N{n}/x{j}", kern, wrapped[name],
                                      sym, u, float(x), scale))
    return Workload("pv-crossval", tasks, expected={
        "operator.apply_pv": len(tasks), "operator.apply_spectral": len(tasks),
        "grids.eval": None, "kernels.profile": None})


def _pv_task(name, kern, wk, sym, u, x, scale) -> Task:
    def run(ctx):
        pv = nl.apply_pv(kern, u, x, wrapped=wk)
        return pv, nl.apply_spectral(sym, u).eval(x)

    def check(out):
        err = abs(out[0] - out[1])
        gate(err <= 1e-7 * scale, f"PV vs spectral {err:.3g} (scale {scale:.3g})")
        return [o.digits(err, scale)]

    return Task(name, run, check)


# --------------------------------------------------------------------------
# symbol-tables: per-frequency quadrature and kernel profiles

def symbol_tables(seed: int, workdir: Path) -> Workload:
    # no input here is drawn from the seed: the quadrature effort varies with
    # L and the kernel parameters, and the spline check's error with where
    # its points fall between knots, so both are fixed
    L = math.pi
    tt = np.linspace(1e-3, 0.6 * L, 64)
    kk = 1.0 - tt / (0.6 * L)
    dk = nl.DelaunayKernel(2, 0.5, 1.0)
    ck = nl.CompactKernel(tt, kk, s=0.5)
    fk = nl.FractionalKernel(0.5)
    sk = nl.SineTailKernel(0.5)
    wrap_probes = np.linspace(0.02 * L, L, 32)

    def grid(n):
        return nl.PeriodicGrid(L, n)

    def symbol_check(exact_fn, n):
        exact = exact_fn(grid(n).frequencies())

        def check(sym):
            rel = _max_rel(sym.values, exact)
            gate(rel < 1e-8, f"symbol relative error {rel:.3g}")
            return [o.digits(rel, 1.0)]

        return check

    def sinetail_check(sym):
        xi = grid(16).frequencies()[1:]
        env = xi ** (2.0 * sk.s) / nl.frac_lap_constant(sk.s)
        v = sym.values[1:]
        gate(bool(np.all(v >= sk.lambda_lo * env * (1 - 1e-8))
                  and np.all(v <= sk.Lambda_hi * env * (1 + 1e-8))),
             "SineTail symbol outside its growth bounds")
        gate(bool(np.all(np.diff(v) > 0)), "SineTail symbol not increasing")
        return []

    def wrap_check(wk):
        exact = wk.grid_values(wrap_probes)
        rel = _max_rel(wk(wrap_probes), exact)
        gate(rel < 1e-6, f"wrapped kernel spline vs exact sum {rel:.3g}")
        return [o.digits(rel, 1.0)]

    def classify_sinetail_check(rep):
        gate(rep.sqrt_profile_cm is False, "SineTail sqrt-profile reported CM")
        gate(rep.convex and rep.wrapped_monotone, "SineTail reported non-convex/non-monotone")
        return []

    def classify_delaunay_check(rep):
        gate(rep.laplace_consistent and rep.sqrt_profile_cm,
             "Delaunay Laplace reconstruction inconsistent")
        return [o.digits(rep.laplace_error, 1.0)]

    tasks = [
        Task("symbol/delaunay/N256", lambda ctx: nl.symbol_of_kernel(dk, grid(256)),
             symbol_check(lambda xi: o.delaunay_symbol(2, 0.5, 1.0, xi), 256)),
        Task("symbol/compact/N128", lambda ctx: nl.symbol_of_kernel(ck, grid(128)),
             symbol_check(lambda xi: o.piecewise_linear_symbol(tt, kk, xi), 128)),
        Task("symbol/laplace-of-delaunay/N32",
             lambda ctx: nl.symbol_of_kernel(nl.laplace_measure_of(dk), grid(32)),
             symbol_check(lambda xi: o.delaunay_symbol(2, 0.5, 1.0, xi), 32)),
        Task("symbol/fraclap-quadrature/N64",
             lambda ctx: nl.symbol_of_kernel(fk, grid(64), force_quadrature=True),
             symbol_check(lambda xi: o.fraclap_symbol(0.5, xi), 64)),
        Task("symbol/sinetail/N16", lambda ctx: nl.symbol_of_kernel(sk, grid(16)),
             sinetail_check),
        Task("wrap/sinetail", lambda ctx: nl.wrap_kernel(sk, L, tol=1e-10), wrap_check),
        Task("wrap/delaunay", lambda ctx: nl.wrap_kernel(dk, L, tol=1e-10), wrap_check),
        Task("classify/sinetail", lambda ctx: nl.classify_kernel(sk, L=L),
             classify_sinetail_check),
        Task("classify/delaunay", lambda ctx: nl.classify_kernel(dk, L=L),
             classify_delaunay_check),
    ]
    return Workload("symbol-tables", tasks, expected={
        "operator.symbol_of_kernel": 5, "kernels.classify_kernel": 2,
        "kernels.wrap_kernel": None, "operator.symbol_value": None,
        "kernels.profile": None, "kernels.tail_integral": None})


# --------------------------------------------------------------------------
# variational: minimizer, rearrangement checks, seminorms, circle identities

def variational(seed: int, workdir: Path) -> Workload:
    # 12 tasks, the three Benjamin-Ono starts being one: task_p90_ms sits at
    # 0.9 * 11 = 9.9, nearly all on that task, and a start that happens to
    # need extra iterations moves it by its share of three
    rng = np.random.default_rng([seed, 3])
    tasks = []
    frac = nl.FractionalKernel(0.5)

    # Benjamin-Ono type constrained minimizer, several seeded starts
    g_bo = nl.PeriodicGrid(4.0 * math.pi, 256)
    sym_bo = nl.symbol_of_kernel(frac, g_bo)
    bo = nl.benjamin_ono_type(2.0)
    base = 1.0 + np.cos(np.pi * g_bo.nodes / g_bo.half_period)
    starts = [nl.PeriodicFunction(g_bo, base + 0.1 * rng.standard_normal(g_bo.size))
              for _ in range(3)]
    bo_check = _minimize_check(constrained=True)
    tasks.append(Task(
        "minimize/benjamin-ono/N256/3-starts",
        lambda ctx: [nl.minimize(nl.MinimizeConfig(sym=sym_bo, nl=bo, initial=u0, c=5.0))
                     for u0 in starts],
        lambda results: [d for res in results for d in bo_check(res)]))

    # unconstrained double well: descends to the constant well u = 1
    g_dw = nl.PeriodicGrid(math.pi, 128)
    sym_dw = nl.symbol_of_kernel(frac, g_dw)
    u_dw = nl.PeriodicFunction(g_dw, 0.5 + 0.3 * np.cos(g_dw.nodes)
                               + 0.05 * rng.standard_normal(g_dw.size))
    tasks.append(Task(
        "minimize/double-well/N128",
        lambda ctx: nl.minimize(nl.MinimizeConfig(sym=sym_dw, nl=nl.double_well(),
                                                  initial=u_dw)),
        _minimize_check(constrained=False)))

    # Polya-Szego: strict inequality on random u, equality on rolled u*
    wk = nl.wrap_kernel(frac, math.pi, tol=1e-12)
    for n in (64, 256, 1024):
        g = nl.PeriodicGrid(math.pi, n)
        u = nl.PeriodicFunction(g, rng.standard_normal(n))
        ustar = nl.rearrange_periodic(u)
        rolled = nl.PeriodicFunction(g, np.roll(ustar.samples, int(rng.integers(1, n))))
        tasks.append(Task(f"polya-szego/random/N{n}",
                          lambda ctx, u=u: nl.polya_szego_check(frac, u, wrapped=wk),
                          _ps_random_check))
        tasks.append(Task(f"polya-szego/rolled/N{n}",
                          lambda ctx, u=rolled: nl.polya_szego_check(frac, u, wrapped=wk),
                          _ps_rolled_check(rolled, ustar)))

    # Riesz on the circle, equality case: f and h are rearrangements rolled
    # by a common shift, which the checker must find
    g = nl.PeriodicGrid(math.pi, 256)
    weight = nl.PeriodicFunction.from_callable(g, lambda x: 1.0 + np.cos(x))
    m = int(rng.integers(1, g.size))
    f, h = (nl.PeriodicFunction(g, np.roll(nl.rearrange_periodic(nl.PeriodicFunction(
        g, rng.uniform(0.0, 1.0, g.size))).samples, m)) for _ in range(2))
    tasks.append(Task("riesz/aligned/N256",
                      lambda ctx: nl.riesz_circle_check(f, weight, h), _riesz_check))

    # Fourier vs real-space seminorm at N = 1024
    g = nl.PeriodicGrid(math.pi, 1024)
    u = nl.PeriodicFunction(g, band_limited(g.size, math.pi, rng, k_max=8))
    sym = nl.symbol_of_kernel(frac, g)
    exact = o.seminorm_sq(u.samples, math.pi, o.fraclap_symbol(0.5, g.frequencies()))

    def seminorm_check(out):
        real, fourier = out
        gate(abs(fourier - exact) <= 1e-12 * exact, "Fourier seminorm off the oracle")
        err = abs(real - fourier)
        gate(err <= 1e-6 * fourier, f"real-space vs Fourier seminorm {err / fourier:.3g}")
        return [o.digits(err, fourier)]

    tasks.append(Task("seminorm/fourier-vs-realspace/N1024",
                      lambda ctx: (nl.seminorm_sq_realspace(wk, u),
                                   nl.seminorm_sq_fourier(sym, u)),
                      seminorm_check))

    # half-Laplacian on the circle: Poisson DtN vs multiplier, energy identity
    gc = nl.circle_grid(128)
    uc = nl.PeriodicFunction(gc, band_limited(gc.size, math.pi, rng, k_max=4))
    k_table = np.arange(gc.size // 2 + 1, dtype=float)
    dtn_exact = o.apply_multiplier(uc.samples, k_table)
    e_line = 0.5 * o.seminorm_sq(uc.samples, math.pi, k_table)  # pi sum |k| |u_k|^2

    def dtn_check(out):
        scale = float(np.max(np.abs(dtn_exact)))
        err = float(np.max(np.abs(out.samples - dtn_exact)))
        gate(err <= 1e-5 * scale, f"Poisson DtN vs |k| multiplier {err / scale:.3g}")
        return [o.digits(err, scale)]

    def identity_check(out):
        err = max(abs(v - e_line) for v in out.values())
        gate(err <= 1e-8 * e_line, f"energy identity spread {err / e_line:.3g}")
        return [o.digits(err, e_line)]

    tasks.append(Task("circle/dtn-poisson/N128", lambda ctx: nl.dtn_poisson(uc), dtn_check))
    tasks.append(Task("circle/energy-identity/N128",
                      lambda ctx: nl.energy_identity_check(uc), identity_check))
    return Workload("variational", tasks, expected={
        "minimize.minimize": 4, "rearrange.polya_szego_check": 6,
        "rearrange.riesz_circle_check": 1, "energy.seminorm_sq_realspace": 1,
        "circle_dtn.dtn_poisson": 1, "circle_dtn.energy_identity_check": 1,
        "grids.eval": None, "energy.energy": None,
        "rearrange.detect_translate": None, "minimize.symmetry_diagnostics": None})


def _minimize_check(constrained: bool):
    def check(res):
        gate(res.converged, "minimize did not converge")
        norm = res.u.l2_norm()
        gate(res.residual_norm <= 1e-5 * max(norm, 1.0),
             f"Euler-Lagrange residual {res.residual_norm:.3g}")
        if constrained:
            gate(res.constraint_defect < 1e-10, f"constraint defect {res.constraint_defect:.3g}")
            gate(res.diagnostics.critical_points == 2, "minimizer not unimodal")
            return [o.digits(res.residual_norm, norm)]
        err = float(np.max(np.abs(res.u.samples - 1.0)))
        gate(err < 1e-6, f"double well ended {err:.3g} from u = 1")
        return [o.digits(err, 1.0)]

    return check


def _ps_random_check(rep):
    gate(rep.inequality_holds and rep.relative_gap > 1e-6,
         f"Polya-Szego gap {rep.relative_gap:.3g} on random input")
    return []


def _ps_rolled_check(u, ustar):
    def check(rep):
        gate(rep.equality_case is not None, "equality case not detected")
        m = int(round(rep.equality_case / u.grid.spacing))
        gate(np.array_equal(np.roll(ustar.samples, -m), u.samples),
             f"detected shift {rep.equality_case:.6g} does not align u with u*")
        return [o.digits(rep.relative_gap, 1.0)]

    return check


def _riesz_check(rep):
    gate(rep["holds"] and rep["aligned_shift"] is not None,
         "aligned equality case not detected")
    return [o.digits(rep["lhs"] - rep["rhs"], rep["rhs"])]


# --------------------------------------------------------------------------
# cli-batch: the README's CLI invocations, each in a fresh process

def cli_batch(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    root = Path.cwd()
    workdir.mkdir(parents=True, exist_ok=True)
    L = 3.14159  # the README's half period
    csv = {}
    for n in (64, 128):
        x = -L + 2.0 * L * np.arange(n) / n
        samples = band_limited(n, L, rng)
        csv[n] = samples
        np.savetxt(workdir / f"u{n}.csv", np.column_stack([x, samples]),
                   delimiter=",", header="x,u", comments="")
    riesz_seed, min_seed = (int(v) for v in rng.integers(0, 2**31 - 1, 2))
    grid = ["--L", str(L)]
    frac = ["--kernel", "fraclap", "--s", "0.5"]
    u64, u128 = str(workdir / "u64.csv"), str(workdir / "u128.csv")

    def report(out_dir, cmd):
        return json.loads((out_dir / f"{cmd}_report.json").read_text())["result"]

    def load_csv(path):
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

    def chk_symbol(d):
        r = report(d, "symbol")
        gate(r["bounds_hold"], "symbol bounds do not hold")
        t = load_csv(d / "symbol.csv")
        exact = o.fraclap_symbol(0.5, t[:, 1])
        err = float(np.max(np.abs(t[:, 2] - exact)))
        gate(err <= 1e-12 * np.max(exact), f"symbol.csv off |xi| by {err:.3g}")
        return [o.digits(err, np.max(exact))]

    def chk_apply(d):
        got = load_csv(d / "applied.csv")[:, 1]
        exact = o.apply_multiplier(csv[64], o.fraclap_symbol(0.5, o.frequencies(L, 64)))
        scale = float(np.max(np.abs(exact)))
        err = float(np.max(np.abs(got - exact)))
        gate(err <= 1e-7 * scale, f"apply --mode pv off the spectral oracle by {err:.3g}")
        return [o.digits(err, scale)]

    def chk_energy(d):
        r = report(d, "energy")
        symbol = o.delaunay_symbol(2, 0.5, 1.0, o.frequencies(L, 128))
        exact = 0.5 * o.seminorm_sq(csv[128], L, symbol)
        err = abs(r["kinetic"] - exact)
        gate(err <= 1e-8 * exact, f"kinetic energy off the Basset oracle by {err:.3g}")
        gate(abs(r["total"] - (r["kinetic"] - r["potential"])) <= 1e-12 * max(1, abs(r["total"])),
             "total != kinetic - potential")
        return [o.digits(err, exact)]

    def chk_rearrange(d):
        got = load_csv(d / "rearranged.csv")[:, 1]
        gate(np.array_equal(np.sort(got), np.sort(np.abs(csv[64]))),
             "rearrangement is not equimeasurable")
        return []

    def chk_polya(d):
        r = report(d, "polya-szego")
        gate(r["inequality_holds"] and r["relative_gap"] > 0, "Polya-Szego gap not positive")
        return []

    def chk_riesz(d):
        gate(report(d, "riesz")["holds"], "Riesz inequality reported violated")
        return []

    def chk_minimize(d):
        r = report(d, "minimize")
        gate(r["converged"] and r["constraint_defect"] < 1e-10, "minimize not converged")
        gate(r["diagnostics"]["critical_points"] == 2, "minimizer not unimodal")
        u = load_csv(d / "minimizer.csv")[:, 1]
        norm = math.sqrt(2.0 * 12.566 / u.size * float(np.sum(u * u)))
        gate(r["residual_norm"] <= 1e-5 * norm, f"residual {r['residual_norm']:.3g}")
        return [o.digits(r["residual_norm"], norm)]

    def chk_maxprinciple(d):
        r = report(d, "maxprinciple")
        gate(r["strictly_positive"], "operator value at the zero is not positive")
        x = -L + 2.0 * L * np.arange(64) / 64
        v = -np.sin(2 * np.pi * x / L) ** 2 * np.sin(np.pi * x / L)
        exact = float(o.eval_band_limited(
            o.apply_multiplier(v, o.fraclap_symbol(0.5, o.frequencies(L, 64))), L, r["x0"])[0])
        err = abs(r["value"] - exact)
        gate(err <= 1e-7 * abs(exact), f"maxprinciple value off by {err:.3g}")
        return [o.digits(err, exact)]

    def chk_kernel_class(d):
        r = report(d, "kernel-class")
        gate(r["sqrt_profile_cm"] is False and r["convex"] and r["wrapped_monotone"],
             "SineTail classification changed")
        return []

    def chk_regularity(d):
        r = report(d, "regularity")
        gate(r["case"] == "subcritical_i"
             and abs(r["exponent_family"] - 0.4 / 0.6) < 1e-12,
             "regularity verdict changed")
        return []

    def chk_dtn(d):
        r = report(d, "dtn-check")
        gate(r["pv_vs_multiplier"] < 1e-8 and r["wrapped_identity_worst_gap"] < 1e-9,
             "circle identities off")
        gate(r["poisson_vs_multiplier"] < 1e-5, "Poisson DtN off")
        e = r["energy_identity"]["E_line"]
        return [o.digits(r["poisson_vs_multiplier"], 1.0),
                o.digits(r["energy_spread"], e)]

    # the slowest commands go first: task_p90_ms is the second slowest, and
    # what is left of the run after one pass repeats the start of the list
    commands = [
        ("apply", frac + grid + ["--N", "64", "--function", u64, "--mode", "pv"], chk_apply),
        ("kernel-class", ["--kernel", "sinetail", "--s", "0.5"], chk_kernel_class),
        ("dtn-check", ["--N", "128"], chk_dtn),
        ("symbol", frac + grid + ["--N", "128"], chk_symbol),
        ("energy", ["--kernel", "delaunay", "--n", "2", "--s", "0.5", "--a", "1.0"] + grid
         + ["--N", "128", "--function", u128], chk_energy),
        ("rearrange", grid + ["--N", "64", "--function", u64], chk_rearrange),
        ("polya-szego", frac + grid + ["--N", "64", "--function", u64], chk_polya),
        ("riesz", grid + ["--N", "64", "--seed", str(riesz_seed)], chk_riesz),
        ("minimize", frac + ["--L", "12.566", "--N", "256", "--constraint", "5",
                             "--seed", str(min_seed)], chk_minimize),
        ("maxprinciple", frac + grid + ["--N", "64"], chk_maxprinciple),
        ("regularity", ["--s", "0.2", "--beta", "0.4"], chk_regularity),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    tasks = [_cli_task(cmd, args, chk, workdir, env) for cmd, args, chk in commands]
    return Workload("cli-batch", tasks, in_children=True, expected={
        "cli.run": len(tasks), "cli.validate_config": len(tasks),
        "operator.symbol_of_kernel": None, "kernels.classify_kernel": 1,
        "minimize.minimize": 1, "circle_dtn.dtn_poisson": 1, "grids.eval": None})


def _cli_task(cmd, args, chk, workdir, env) -> Task:
    out_dir = workdir / cmd
    dump_file = workdir / f"{cmd}.child.json"

    def run(ctx):
        traced = ctx.tracer is not None
        proc = subprocess.run(
            [sys.executable, str(CLI_CHILD), str(dump_file), str(int(traced)),
             cmd, *args, "--out", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        dump = json.loads(dump_file.read_text())
        ctx.child_refs = (*dump["refs"], dump["ref_s"])
        if traced:
            ctx.tracer.merge(dump["spans"], dump["counts"])
        return proc

    return Task(cmd, run, lambda proc: chk(out_dir))


WORKLOADS = {
    "pv-crossval": pv_crossval,
    "symbol-tables": symbol_tables,
    "variational": variational,
    "cli-batch": cli_batch,
}
