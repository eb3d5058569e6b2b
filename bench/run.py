"""nonlocper benchmark: one command, four seeded closed-loop workloads.

    python3 bench/run.py --workload pv-crossval --seed 1 --seconds 10 --trace 0

Run it from the repository root; the library is imported from ./src.  One
client process issues the workload's tasks one after another (a closed
loop) and adds no threads of its own; the cli-batch tasks each run the CLI
in a child process and wait for it.  Before the loop, set-up is measured in
fresh processes.  Every result is checked against an oracle outside the
timed region.

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced and
traced passes alternately and prints the per-layer metrics, which come
from spans recorded around the library's public functions (tracing.py).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Metric names, units and directions must match
BENCHMARK.json, or the run stops before measuring.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
from reference import REF_NOMINAL_S, reference_s, scaled, settled_reference_s  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
# setup_s is the median of this many fresh processes that only set up
SETUP_PROBES = 3
IMPORT_PROBES = 3

# (name, unit, better) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = [
    ("tasks_per_s", "1/s", "higher"),
    ("task_p50_ms", "ms", "lower"),
    ("task_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("accuracy_digits", "digits", "higher"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the library, build the inputs and exit")
    return p.parse_args(argv)


def check_spec(path, workload_names, layer_metrics) -> None:
    """BENCHMARK.json must list exactly the workloads and metrics this
    script prints, with the same units and directions."""
    spec = json.loads(Path(path).read_text())

    def triples(key):
        return [(m["name"], m["unit"], m["better"]) for m in spec[key]]

    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workload_names):
        problems.append("workloads differ")
    if triples("end_to_end") != END_TO_END:
        problems.append("end_to_end metrics differ")
    if triples("per_layer") != [tuple(m) for m in layer_metrics]:
        problems.append("per_layer metrics differ")
    if problems:
        raise SystemExit("BENCHMARK.json does not match bench/run.py: " + "; ".join(problems))


class Recorder:
    """Times, accuracy digits, failures and warnings of executed tasks."""

    def __init__(self, in_children: bool):
        self.in_children = in_children
        self.times = defaultdict(list)  # task name -> reference-scaled seconds
        self.raw = defaultdict(list)  # task name -> wall seconds
        self.refs = []  # reference kernel times
        self.digits = []
        self.failures = []
        self.attempted = 0
        self.warnings = Counter()

    def execute(self, task, ctx) -> None:
        from tracing import is_kernel_integration_warning

        if ctx.tracer is not None:
            ctx.tracer.task = (ctx.tracer.pass_no, task.name)
        if not self.in_children and not self.refs:
            self.refs.append(reference_s())
        ctx.child_refs = None
        error = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = perf_counter()
            try:
                out = task.run(ctx)
            except Exception as exc:  # a failing task is counted; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t
        self.attempted += 1
        self.raw[task.name].append(elapsed)
        if not self.in_children:
            # consecutive tasks share the reference run between them
            self.refs.append(reference_s())
            elapsed = scaled(elapsed, *self.refs[-2:])
        elif ctx.child_refs is not None:
            before, after, spent = ctx.child_refs
            self.refs += [before, after]
            elapsed = scaled(elapsed - spent, before, after)
        self.times[task.name].append(elapsed)
        for w in caught:
            self.warnings[(w.category.__name__, Path(w.filename).name)] += 1
        if ctx.tracer is not None:
            ctx.tracer.counts[ctx.tracer.pass_no]["kernels.integration_warnings"] += sum(
                1 for w in caught if is_kernel_integration_warning(w))
        if error is None:
            try:
                self.digits.extend(task.check(out))
            except Exception as exc:  # missed gate, or a result the check cannot read
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append((task.name, error))

    def medians(self, tasks, raw: bool = False) -> list:
        times = self.raw if raw else self.times
        return [statistics.median(times[t.name]) for t in tasks]


def run_pass(tasks, rec, ctx) -> None:
    for task in tasks:
        rec.execute(task, ctx)


def untraced_run(workload, seconds):
    rec = Recorder(workload.in_children)
    ctx = SimpleNamespace(tracer=None)
    deadline = perf_counter() + seconds
    n = len(workload.tasks)
    k = 0
    # one full pass at least, then keep cycling until the time is up
    while k < n or perf_counter() < deadline:
        rec.execute(workload.tasks[k % n], ctx)
        k += 1
    return rec


def traced_run(workload, seconds):
    import tracing

    tracer = tracing.Tracer()
    plain, traced = Recorder(workload.in_children), Recorder(workload.in_children)
    deadline = perf_counter() + seconds
    while True:
        run_pass(workload.tasks, plain, SimpleNamespace(tracer=None))
        tracer.pass_no += 1
        tracer.install()
        try:
            run_pass(workload.tasks, traced, SimpleNamespace(tracer=tracer))
        finally:
            tracer.uninstall()
        tracing.check_fired(tracing.summarize(tracer.spans, tracer.pass_no),
                            workload.expected)
        if perf_counter() >= deadline:
            break
    return tracer, plain, traced


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def timed_child(argv, **kw) -> float:
    t = perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=170, **kw)
    return perf_counter() - t


def setup_probe(args) -> tuple:
    """(wall seconds, reference-scaled seconds) of a fresh process that
    imports the library, builds the workload's inputs and exits.  The
    probe takes its reference times itself and prints them."""
    t = perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                           args.workload, "--seed", str(args.seed), "--setup-only"],
                          check=True, capture_output=True, text=True, timeout=170)
    wall = perf_counter() - t
    before, after, spent = json.loads(proc.stdout.strip().splitlines()[-1])
    return wall - spent, scaled(wall - spent, before, after)


def import_cost() -> tuple:
    """(fresh `import nonlocper` minus a bare interpreter, the part of the
    import spent in scipy according to -X importtime), in seconds."""
    env = child_env()
    bare = statistics.median(timed_child([sys.executable, "-c", "pass"], env=env)
                             for _ in range(IMPORT_PROBES))
    full = statistics.median(timed_child([sys.executable, "-c", "import nonlocper"], env=env)
                             for _ in range(IMPORT_PROBES))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nonlocper"],
                          env=env, capture_output=True, text=True, timeout=170, check=True)
    return full - bare, scipy_import_s(proc.stderr)


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the scipy modules imported from outside
    scipy.  -X importtime prints children before their parent, indented two
    spaces per level, so in reverse order a parent precedes its children."""
    rows = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2]
        depth = (len(field) - len(field.lstrip())) // 2
        rows.append((depth, field.strip(), int(parts[1])))
    open_at = {}
    total_us = 0
    for depth, name, cumulative in reversed(rows):
        open_at[depth] = name
        parent = open_at.get(depth - 1, "")
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total_us += cumulative
    return total_us * 1e-6


def environment(args) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    git = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            git["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                           capture_output=True, timeout=30).stdout.strip()
            git["dirty"] = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                text=True, capture_output=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git": git,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timing(meds) -> dict:
    """Throughput and percentiles over the per-task medians of one pass."""
    return {
        "tasks_per_s": len(meds) / sum(meds),
        "task_p50_ms": 1e3 * statistics.median(meds),
        "task_p90_ms": 1e3 * float(np.percentile(meds, 90)),
    }


def end_to_end(workload, rec, setup) -> dict:
    return {**timing(rec.medians(workload.tasks)),
            "setup_s": statistics.median(s for _, s in setup),
            "peak_rss_mb": peak_rss_mb(workload.in_children),
            # no task passing its check leaves no accurate digit
            "accuracy_digits": min(rec.digits, default=0.0)}


def layer_metrics(workload, tracer, plain, traced) -> dict:
    import tracing

    per_pass = [tracing.pass_metrics(tracing.summarize(tracer.spans, p), tracer.counts[p])
                for p in range(1, tracer.pass_no + 1)]
    out = {}
    for name in per_pass[0]:
        vals = [pp[name] for pp in per_pass]
        # counts repeat exactly from pass to pass; times are averaged
        out[name] = vals[0] if all(v == vals[0] for v in vals) else statistics.fmean(vals)
    out["cli.import_s"], out["cli.import.scipy_s"] = import_cost()
    for cmd in tracing.CLI_COMMANDS:
        t = plain.times.get(cmd) if workload.name == "cli-batch" else None
        out[f"cli.{cmd}.s"] = statistics.median(t) if t else 0.0
    out["bench.trace_overhead"] = (sum(traced.medians(workload.tasks))
                                   / sum(plain.medians(workload.tasks)) - 1.0)
    return out


def write_spans(args, env, tracer) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump({"env": env, "fields": ["name", "start", "end", "parent", "pass_task", "tag"],
                   "spans": tracer.spans,
                   "counts": {str(p): dict(c) for p, c in tracer.counts.items()}}, fh)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    ref_before = settled_reference_s() if args.setup_only else None
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import nonlocper from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    import tracing

    check_spec(ROOT / "BENCHMARK.json", workloads.WORKLOADS, tracing.LAYER_METRICS)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup = []
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_here = perf_counter() - T0
        if args.setup_only:
            ref_after = settled_reference_s()
            print(json.dumps([ref_before[0], ref_after[0], ref_before[1] + ref_after[1]]))
            return 0
        if args.trace:
            tracer, plain, traced = traced_run(workload, args.seconds)
            recs = (plain, traced)
            metrics = layer_metrics(workload, tracer, plain, traced)
            spec = tracing.LAYER_METRICS
        else:
            setup = [setup_probe(args) for _ in range(SETUP_PROBES)]
            rec = untraced_run(workload, args.seconds)
            recs = (rec,)
            metrics = end_to_end(workload, rec, setup)
            spec = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    attempted = sum(r.attempted for r in recs)
    failures = [f for r in recs for f in r.failures]
    warned = sum((r.warnings for r in recs), Counter())
    print(f"# nonlocper benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}")
    print("# env " + json.dumps(env))
    print(f"# {len(workload.tasks)} tasks per pass, {attempted} executed; "
          f"set-up in this process {setup_here:.3f} s"
          + "".join(f", probe {w:.3f} s (scaled {s:.3f})" for w, s in setup))
    refs = [r for rec in recs for r in rec.refs]
    raw = timing(recs[0].medians(workload.tasks, raw=True))
    print(f"# timings are reference-scaled (bench/reference.py); reference median "
          f"{1e3 * statistics.median(refs):.3f} ms over {len(refs)} runs, nominal "
          f"{1e3 * REF_NOMINAL_S:g} ms; wall time: "
          + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    if args.trace:
        print(f"# spans: {len(tracer.spans)} in {tracer.pass_no} traced passes, written to "
              f"{write_spans(args, env, tracer).relative_to(ROOT)}")
    print(f"# failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for (category, filename), n in sorted(warned.items()):
        print(f"# warning {category} from {filename}: {n}")
    for name, msg in failures[:20]:
        print(f"# FAILED {name}: {msg}", file=sys.stderr)
    if set(metrics) != {name for name, _, _ in spec}:
        raise SystemExit("metric set does not match BENCHMARK.json")
    for name, unit, _ in spec:
        print(f"{name:<44} {metrics[name]:>16.6g}  {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
