"""Benchmark of trinion: time to verdict end to end, traced calls per layer.

Run from the repository root:

    python3 perfbench/run.py --workload goldman --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --summary

Each invocation runs one workload (see ``workloads.py``) in this process,
with BLAS/OpenMP pinned to one thread before numpy is imported.  Passes run
in a closed loop (each call is issued after the previous one returned) until
``--seconds`` have elapsed, and every output is checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics, measured with tracing off;
* ``--trace 1``: the per-layer metrics.  Each pass runs twice on the same
  inputs, untraced and traced (order alternating); the residuals of the two
  must be identical, and ``trace.overhead`` compares their wall times.

Every result is also appended to ``perfbench/results/runs.jsonl`` together
with the environment; ``--summary`` prints one row per workload and metric
with the median, the quartiles and the run count.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_THREADS_BEFORE = {v: os.environ.get(v) for v in THREAD_VARS}
for _v in THREAD_VARS:
    os.environ[_v] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results" / "runs.jsonl"

SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
TAIL_BEYOND = 10


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "trinion" / "__init__.py").is_file():
        _fail(f"no trinion sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ----------------------------------------------------------------------------
# set-up time, measured in fresh interpreters
# ----------------------------------------------------------------------------

def setup_probe():
    t0 = time.perf_counter()
    import trinion
    trinion.build_algebra(2)
    trinion.build_algebra(3)
    trinion.builtin_catalogue()
    trinion.figure_three()
    print(repr(time.perf_counter() - t0))


def measure_setup():
    """Set-up time of one fresh interpreter, as the probe reports it."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                         capture_output=True, text=True, timeout=120, cwd=ROOT)
    if out.returncode != 0:
        _fail("set-up probe failed:\n" + out.stderr)
    return float(out.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------------

def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, cwd=ROOT)
    except OSError:
        return "unknown (git not found)"
    return out.stdout.strip() or "unknown"


def environment(seed):
    import numpy
    import scipy
    loc = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "trinion").glob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "threads_before": _THREADS_BEFORE,
            "commit": _commit(), "seed": seed, "src_loc": loc}


# ----------------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------------

def run_pass(calls, tracer=None):
    """Issue the calls one after another; time each and check its records."""
    out = {"records": [], "failed": 0, "attempted": 0, "errors": [],
           "solve": [], "infeasible": []}
    w0, c0 = time.perf_counter(), time.process_time()
    for call in calls:
        t0 = time.perf_counter()
        try:
            recs = call.fn() if tracer is None else tracer.span(call.fn)
        except Exception as exc:  # a raising call is a failed operation
            out["attempted"] += 1
            out["failed"] += 1
            out["errors"].append(f"{call.label}: {type(exc).__name__}: {exc}")
            out["records"].append((call.label, "raised"))
            continue
        dt = time.perf_counter() - t0
        if call.kind in ("solve", "infeasible"):
            out[call.kind].append(dt)
        for r in recs:
            out["attempted"] += 1
            out["records"].append((r.name, r.residual))
            if not r.status:
                out["failed"] += 1
                out["errors"].append(f"{r.name}: residual {r.residual:.3e} > {r.tolerance:.1e}")
    out["wall"] = time.perf_counter() - w0
    out["cpu"] = time.process_time() - c0
    return out


def tail(samples):
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it."""
    xs = sorted(samples)
    if len(xs) <= TAIL_BEYOND:
        return None, None
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def _room(start, seconds, durations, minimum):
    """Start another unit if the minimum is not met or the median one still fits."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def run_untraced(workload, env, seed, seconds):
    """Passes until the time is up, with a set-up probe before each one.

    The machine's speed drifts over seconds; spreading the probes over the
    run lets their median see the same drift as the passes.
    """
    passes, setup = [], []
    start = time.perf_counter()
    while _room(start, seconds, [p["wall"] for p in passes], MIN_PASSES):
        setup.append(measure_setup())
        passes.append(run_pass(workload.make_pass(env, seed, len(passes))))
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup())
    return passes, setup


def run_traced(workload, env, seed, seconds):
    from tracing import Tracer

    tracer = Tracer()
    plain, traced, mismatches = [], [], []
    start = time.perf_counter()
    i = 0
    while _room(start, seconds, [a["wall"] + b["wall"] for a, b in zip(plain, traced)],
                MIN_TRACED_PAIRS):
        pair = {}
        for mode in ((0, 1) if i % 2 == 0 else (1, 0)):
            calls = workload.make_pass(env, seed, i)
            if mode:
                with tracer:
                    pair[mode] = run_pass(calls, tracer)
            else:
                pair[mode] = run_pass(calls)
        if tracer.installed_count():
            raise RuntimeError("tracer bindings were not restored")
        if pair[0]["records"] != pair[1]["records"]:
            mismatches.append(i)
        plain.append(pair[0])
        traced.append(pair[1])
        i += 1
    return plain, traced, tracer.stats, mismatches


# ----------------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------------

def end_to_end(passes, setup):
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def report_only(passes, attempted, failed):
    """Printed and saved with the result, but not part of the gated set."""
    solves = [t for p in passes for t in p["solve"]]
    infeasible = [t for p in passes for t in p["infeasible"]]
    out = {"fail_ratio": (failed / attempted, "ratio")}
    if solves:
        out["solve_p50_s"] = (statistics.median(solves), "s")
        value, pct = tail(solves)
        if value is not None:
            out["solve_tail_s"] = (value, "s")
            out["solve_tail_pct"] = (pct, "%")
        out["solve_count"] = (len(solves), "count")
    if infeasible:
        out["infeasible_solve_s"] = (statistics.median(infeasible), "s")
        out["infeasible_count"] = (len(infeasible), "count")
    return out


def per_layer(stats, traced, plain):
    from tracing import CALLS, EXTRA_A, EXTRA_B, SELF, layer_self

    npass = len(traced)

    def get(name, slot):
        s = stats.get(name)
        return s[slot] / npass if s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    calls, self_s = get("holonomy.holonomy", CALLS), get("holonomy.holonomy", SELF)
    m["holonomy.holonomy.calls"] = (calls, "1/pass")
    m["holonomy.holonomy.self_s"] = (self_s, "s/pass")
    m["holonomy.holonomy.ms_per_call"] = (1e3 * ratio(self_s, calls), "ms")
    calls, mats = get("holonomy.holonomy_batch", CALLS), get("holonomy.holonomy_batch", EXTRA_A)
    self_s = get("holonomy.holonomy_batch", SELF)
    m["holonomy.holonomy_batch.calls"] = (calls, "1/pass")
    m["holonomy.holonomy_batch.matrices"] = (mats, "1/pass")
    m["holonomy.holonomy_batch.self_s"] = (self_s, "s/pass")
    m["holonomy.holonomy_batch.ms_per_matrix"] = (1e3 * ratio(self_s, mats), "ms")
    m["holonomy.self_s"] = (layer_self(stats, "holonomy") / npass, "s/pass")
    for fn in ("solve_moment_zero", "solve_moment_kstar"):
        name = f"orbits.{fn}"
        calls = get(name, CALLS)
        m[f"{name}.calls"] = (calls, "1/pass")
        m[f"{name}.self_s"] = (get(name, SELF), "s/pass")
        m[f"{name}.solved_ratio"] = (ratio(get(name, EXTRA_A), calls), "ratio")
        m[f"{name}.trials_per_solve"] = (ratio(get(name, EXTRA_B), calls), "trials")
    for fn in ("gauge_fix", "tangent_rank", "kk_bracket"):
        m[f"orbits.{fn}.calls"] = (get(f"orbits.{fn}", CALLS), "1/pass")
    m["orbits.self_s"] = (layer_self(stats, "orbits") / npass, "s/pass")
    groups = {
        "decompositions": ("iwasawa", "iwasawa_dual", "f_inverse", "e_map", "dressing_action",
                           "group_gradients", "sklyanin_eval"),
        "graph_poisson": ("goldman_rhs", "fr_bracket", "fr_vs_kstar", "chi_map"),
        "lie_core": ("build_algebra", "r_matrix", "cybe_residual"),
    }
    for layer, fns in groups.items():
        for fn in fns:
            m[f"{layer}.{fn}.calls"] = (get(f"{layer}.{fn}", CALLS), "1/pass")
            m[f"{layer}.{fn}.self_s"] = (get(f"{layer}.{fn}", SELF), "s/pass")
        if layer != "lie_core":
            m[f"{layer}.expm.calls"] = (get(f"{layer}.expm", CALLS), "1/pass")
        m[f"{layer}.self_s"] = (layer_self(stats, layer) / npass, "s/pass")
    m["verify.self_s"] = (layer_self(stats, "verify") / npass, "s/pass")
    wall_plain = statistics.median(p["wall"] for p in plain)
    wall_traced = statistics.median(p["wall"] for p in traced)
    m["trace.overhead"] = (wall_traced / wall_plain - 1.0, "ratio")
    return m


def _fmt(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _save(record):
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    with RESULTS.open("a") as fh:
        fh.write(json.dumps(record) + "\n")


def run_one(args):
    _import_library()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    env = workloads.build_context()
    seed = args.seed % 2**64  # numpy's seed sequences take non-negative integers
    if args.trace:
        plain, traced, stats, mismatches = run_traced(workload, env, seed, args.seconds)
        passes, setup = plain + traced, []
    else:
        passes, setup = run_untraced(workload, env, seed, args.seconds)
        mismatches = []
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + len(mismatches)
    errors = [e for p in passes for e in p["errors"]]
    errors += [f"pass {i}: traced and untraced residuals differ" for i in mismatches]
    if args.trace:
        metrics = per_layer(stats, traced, plain)
        extra = {}
    else:
        metrics = end_to_end(passes, setup)
        extra = report_only(passes, attempted, failed)
    info = environment(args.seed)
    print(f"workload {workload.name}: {workload.why}")
    print("environment " + json.dumps(info))
    print(f"passes {len(passes)} (closed loop, one caller), setup probes {len(setup)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    if "solve_tail_s" in extra:
        print(f"  solve_tail_s is the p{extra['solve_tail_pct'][0]:.1f} of "
              f"{extra['solve_count'][0]} feasible solves")
    for e in errors[:20]:
        print(f"  FAIL {e}")
        print(f"perfbench: FAIL {e}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": _fmt(metrics)}
    _save({"workload": workload.name, "why": workload.why, "trace": args.trace,
           "seconds": args.seconds, "passes": len(passes), "env": info,
           "pass_walls": [p["wall"] for p in passes],
           "setup_probes": setup, "result": result, "report": _fmt(extra)})
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """One process per workload, one after another; exit 0 only if all pass."""
    _import_library()
    import workloads

    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def summary():
    """One row per workload, trace mode and metric: median, quartiles, runs."""
    if not RESULTS.is_file():
        _fail(f"no results in {RESULTS}")
    rows = {}
    for line in RESULTS.read_text().splitlines():
        rec = json.loads(line)
        key = (rec["workload"], rec["trace"])
        metrics = {**rec["result"]["metrics"], **rec.get("report", {})}
        for name, m in metrics.items():
            rows.setdefault(key, {}).setdefault(name, ([], m["unit"]))[0].append(m["value"])
    print(f"{'workload':<10} {'trace':>5} {'metric':<44} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'runs':>5} unit")
    for (wl, tr), metrics in sorted(rows.items()):
        for name, (vals, unit) in metrics.items():
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            print(f"{wl:<10} {tr:>5} {name:<44} {q[1]:>12.6g} {q[0]:>12.6g} {q[2]:>12.6g} "
                  f"{len(vals):>5} {unit}")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--summary", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        _import_library()
        setup_probe()
        return 0
    if args.summary:
        return summary()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
