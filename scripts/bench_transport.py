"""Layer numbers of the holonomy transport, written to ``BENCH_transport.json``.

Run from the repository root:

    python3 scripts/bench_transport.py --label change
    python3 scripts/bench_transport.py --src /path/to/other/checkout/src --label parent

Each run measures the trinion sources under ``--src`` (this checkout's
``src`` by default) and stores them as one column of the output file, named
by ``--label``; the other columns already in the file are kept, so two runs
give a before/after table.  Four sets of figures are measured, with BLAS and OpenMP
pinned to one thread:

* ``expm_us_per_matrix``: ``lie_core._expm`` on stacks of 1, 21, 99 and 768
  complex matrices at n = 2, 3 and 4, with 1-norms log-uniform over
  [0.003, 0.15]: the 1st to 99th percentile of the panel exponents that the
  ``goldman`` workload's transport evaluates.  The figure is the best of
  five repeats, divided by the stack size.
* ``goldman_per_pass``: work counters of the transport over passes 0-2 of
  the benchmark's ``goldman`` workload at seed 9100
  (``perfbench/workloads.py`` of this checkout): ``_step_doubling`` calls, matrices exponentiated by the
  transport, and panels accepted (step-doubling error within the tolerance
  of the enclosing transport call).  The counters are exact and repeat from
  run to run; they are read by wrapping the private functions, so a call
  to them must keep the widths as its fourth argument and return the
  errors last, and ``_expm_stack`` must take the stack first.  Beside them,
  ``minor_faults`` and ``system_s``: the process's minor page faults and
  system CPU seconds per pass (``resource.getrusage``) over passes 1-3, after
  pass 0 has warmed the process up.  They depend on the host's allocator.
  ``transport_digest``: a SHA-256 of the bytes of every ``_transport``
  result over the counted passes, equal on two trees whose transports agree
  bit for bit.
* ``peak_traced_bytes``: the peak of the memory ``tracemalloc`` traces
  during one ``_transport`` call, above what was traced before it: a
  33-connection stack along ``double_wind`` (the goldman stack at n = 3)
  and ten contours of one connection at n = 3, both at tol 1e-10.
* ``round_us``: the best of five repeats of one ``_step_doubling`` round at
  n = 3, in microseconds: one fresh panel of one connection, and 15 fresh
  panels of 33 connections (the goldman stack's round) along ``double_wind``.

A failed check, or a private function whose signature no longer fits the
wrappers, ends the run with a non-zero exit status.
"""

from __future__ import annotations

import os

for _v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_v] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_transport.json"
SIZES = (1, 21, 99, 768)
NS = (2, 3, 4)
SEED, PASSES = 9100, 3


def expm_timings(lie_core):
    import numpy as np

    rng = np.random.default_rng(0)
    out = {}
    for n in NS:
        row = {}
        for m in SIZES:
            z = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
            norm = np.exp(rng.uniform(np.log(0.003), np.log(0.15), m))
            z *= (norm / np.abs(z).sum(axis=-2).max(axis=-1))[:, None, None]
            reps = max(3, 3000 // m)
            lie_core._expm(z)
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(reps):
                    lie_core._expm(z)
                best = min(best, (time.perf_counter() - t0) / reps)
            row[str(m)] = round(1e6 * best / m, 3)
        out[f"n{n}"] = row
    return out


def goldman_counts(holonomy, seed, passes):
    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    counts = {"step_doubling_calls": 0, "expm_matrices": 0, "accepted_panels": 0}
    tols, digest = [], hashlib.sha256()
    # the transport exponentiates (n, n, M) stacks through _expm_stack
    transport, step_doubling, expm = (holonomy._transport, holonomy._step_doubling,
                                      holonomy._expm_stack)

    def counted_transport(*args):
        tols.append(args[-1])
        try:
            out = transport(*args)
        finally:
            tols.pop()
        digest.update(np.ascontiguousarray(out).tobytes())
        return out

    def counted_step_doubling(*args):
        out = step_doubling(*args)
        counts["step_doubling_calls"] += 1
        goal = np.maximum(tols[-1] * args[3], holonomy._ROUNDOFF)
        counts["accepted_panels"] += int(np.sum(out[-1] <= goal))
        return out

    def counted_expm(a, *workspace):
        counts["expm_matrices"] += a.size // a.shape[0] ** 2
        return expm(a, *workspace)

    holonomy._transport = counted_transport
    holonomy._step_doubling = counted_step_doubling
    holonomy._expm_stack = counted_expm
    faults, system = 0, 0.0
    try:
        env = workloads.build_context()
        for i in range(passes + 1):  # counted over passes 0 to passes - 1, faults over 1 to passes
            if i == passes:
                counted = dict(counts)
                counted_digest = digest.hexdigest()
            before = resource.getrusage(resource.RUSAGE_SELF)
            for call in workloads.WORKLOADS["goldman"].make_pass(env, seed, i):
                if not all(r.residual <= r.tolerance for r in call.fn()):
                    raise SystemExit(f"bench_transport: a check of {call.label} failed")
            after = resource.getrusage(resource.RUSAGE_SELF)
            if i:
                faults += after.ru_minflt - before.ru_minflt
                system += after.ru_stime - before.ru_stime
    finally:
        holonomy._transport, holonomy._step_doubling = transport, step_doubling
        holonomy._expm_stack = expm
    return ({k: v / passes for k, v in counted.items()} | {"passes": passes, "seed": seed}
            | {"transport_digest": counted_digest}
            | {"minor_faults": faults / passes, "system_s": round(system / passes, 4),
               "fault_passes": list(range(1, passes + 1))})


def goldman_residues(lie_core):
    """33 residue pairs at n = 3, the size of the goldman workload's stack."""
    import numpy as np

    ctx = lie_core.build_algebra(3)
    rng = np.random.default_rng(SEED)
    return tuple(np.array([ctx.random_compact(rng, 0.12) for _ in range(33)]) for _ in range(2))


def peak_traced_bytes(holonomy, lie_core):
    cat = holonomy.builtin_catalogue()
    x1s, x2s = goldman_residues(lie_core)
    jobs = {"double_wind_b33_n3": (x1s, x2s, [cat.contours["double_wind"]]),
            "ten_paths_b1_n3": (x1s[:1], x2s[:1], list(cat.contours.values())[:10])}
    out = {}
    for name, (a, b, paths) in jobs.items():
        holonomy._transport(a, b, 1.0, paths, 1e-10)
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        holonomy._transport(a, b, 1.0, paths, 1e-10)
        out[name] = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.stop()
    return out


def round_us(holonomy, lie_core):
    import numpy as np

    segs = holonomy.builtin_catalogue().contours["double_wind"].segments
    x1s, x2s = goldman_residues(lie_core)
    table, ws = holonomy._segment_table(segs), lie_core._workspace()
    out = {}
    for name, stack, panels in (("b1_p1_n3", 1, 1), ("b33_p15_n3", 33, 15)):
        basis = holonomy._bracket_basis(x1s[:stack], x2s[:stack])
        s0 = np.arange(panels) / (4 * panels)  # the first quarter of the first arc
        args = (table, np.zeros(panels, int), s0, np.full(panels, 0.25 / panels),
                np.zeros(panels, bool), np.empty((3, 3, stack, 0), complex), basis, 1.0, ws)
        reps = 3000 // (stack * panels) + 20
        holonomy._step_doubling(*args)
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                holonomy._step_doubling(*args)
            best = min(best, (time.perf_counter() - t0) / reps)
        out[name] = round(1e6 * best, 2)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="column name in the output file")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the trinion package")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    # the package namespace re-exports the function ``holonomy``; the module is in sys.modules
    lie_core = importlib.import_module("trinion.lie_core")
    holonomy = importlib.import_module("trinion.holonomy")
    loc = sum(len(p.read_text().splitlines()) for p in sorted((src / "trinion").glob("*.py")))
    column = {
        "src_loc": loc,
        "expm_us_per_matrix": expm_timings(lie_core),
        "goldman_per_pass": goldman_counts(holonomy, SEED, PASSES),
        "peak_traced_bytes": peak_traced_bytes(holonomy, lie_core),
        "round_us": round_us(holonomy, lie_core),
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count(),
                        "blas_threads": 1},
    }
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data.setdefault("description", __doc__.split("\n\n")[0])
    data.setdefault("columns", {})[args.label] = column
    OUT.write_text(json.dumps(data, indent=2) + "\n")
    print(json.dumps({args.label: column}, indent=2))


if __name__ == "__main__":
    main()
