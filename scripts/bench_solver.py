"""Layer numbers of the zero-level moment solver, written to ``BENCH_solver.json``.

Run from the repository root:

    python3 scripts/bench_solver.py --label change
    python3 scripts/bench_solver.py --src /path/to/other/checkout/src --label parent

Each run measures the trinion sources under ``--src`` (this checkout's
``src`` by default) and stores them as one column of the output file, named
by ``--label``; the other columns already in the file are kept, so two runs
give a before/after table.  Two sets of figures are measured, with BLAS and
OpenMP pinned to one thread:

* ``algebra_per_pass``: work counters of the Levenberg-Marquardt driver over
  passes 0-2 of the benchmark's ``algebra`` workload at seed 9100
  (``perfbench/workloads.py`` of this checkout): ``_levenberg_marquardt``
  calls, stack iterations (the largest iteration count of a call's rows,
  summed over calls) and row-iterations (every row's iteration count,
  summed).  The counters are exact and repeat from run to run; they are
  read by wrapping ``orbits._levenberg_marquardt``, so it must take the
  starts fourth and return the iteration counts last.  ``solver_digest``: a
  SHA-256 of the bytes of every ``_levenberg_marquardt`` result over the
  counted passes, equal on two trees whose solvers agree bit for bit.
* ``iteration_us``: the time of one driver iteration, in microseconds, on
  the stack of ``T`` trial-0 rows that ``_solve_zero`` builds for ``T``
  copies of an infeasible triple at rank ``n``: (n, T) = (2, 1), (2, 31)
  (the workload's restart stack) and (3, 8).  It is the best of five
  repeats of a driver call capped at one iteration (``orbits._MAX_ITER``),
  less the best of five of the same call capped at none, which evaluates
  only the starting residual; the repeats of the two alternate.

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
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_solver.json"
SEED, PASSES = 9100, 3
STACKS = ((2, 1), (2, 31), (3, 8))


def algebra_counts(orbits, seed, passes):
    import numpy as np

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    counts = {"lm_calls": 0, "stack_iterations": 0, "row_iterations": 0}
    digest = hashlib.sha256()
    driver = orbits._levenberg_marquardt

    def counted_driver(*args):
        out = driver(*args)
        iters = np.asarray(out[-1])
        if len(iters) != len(args[3]) or iters.dtype.kind not in "iu":
            raise SystemExit("bench_solver: _levenberg_marquardt no longer returns one "
                             "iteration count per start last")
        counts["lm_calls"] += 1
        counts["stack_iterations"] += int(np.max(iters, initial=0))
        counts["row_iterations"] += int(np.sum(iters))
        for part in out:
            digest.update(np.ascontiguousarray(part).tobytes())
        return out

    orbits._levenberg_marquardt = counted_driver
    try:
        env = workloads.build_context()
        for i in range(passes):
            for call in workloads.WORKLOADS["algebra"].make_pass(env, seed, i):
                if not all(r.residual <= r.tolerance for r in call.fn()):
                    raise SystemExit(f"bench_solver: a check of {call.label} failed")
    finally:
        orbits._levenberg_marquardt = driver
    return ({k: v / passes for k, v in counts.items()} | {"passes": passes, "seed": seed}
            | {"solver_digest": digest.hexdigest()})


class _Captured(Exception):
    pass


def driver_args(orbits, lie_core, n, rows):
    """The arguments of the driver call that ``_solve_zero`` makes for ``rows`` copies of an
    infeasible triple (the first spectrum outweighs the other two), one restart each."""
    import numpy as np

    ctx = lie_core.build_algebra(n)
    hs = [lie_core.weyl_normalize(np.linspace(x, -x, n)) for x in (1.0, 0.2, 0.2)]
    driver, seen = orbits._levenberg_marquardt, []

    def capture(*args):
        seen.append(args)
        raise _Captured

    orbits._levenberg_marquardt = capture
    try:
        orbits._solve_zero(ctx, [hs] * rows, list(range(rows)), 1e-10, 1)
    except _Captured:
        pass
    finally:
        orbits._levenberg_marquardt = driver
    if len(seen) != 1 or len(seen[0][3]) != rows:
        raise SystemExit("bench_solver: _solve_zero no longer makes one driver call of "
                         "one row per problem")
    return seen[0]


def iteration_us(orbits, lie_core):
    out = {}
    cap = orbits._MAX_ITER
    try:
        for n, rows in STACKS:
            args = driver_args(orbits, lie_core, n, rows)
            reps = 3000 // rows + 20
            best = [float("inf")] * 2
            for _ in range(5):  # the two caps alternate, so both see the same host
                for iterations in (0, 1):
                    orbits._MAX_ITER = iterations
                    if orbits._levenberg_marquardt(*args)[-1].max(initial=0) != iterations:
                        raise SystemExit("bench_solver: a row stopped before its iteration cap")
                    t0 = time.perf_counter()
                    for _ in range(reps):
                        orbits._levenberg_marquardt(*args)
                    best[iterations] = min(best[iterations], (time.perf_counter() - t0) / reps)
            out[f"n{n}_T{rows}"] = round(1e6 * (best[1] - best[0]), 2)
    finally:
        orbits._MAX_ITER = cap
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

    lie_core = importlib.import_module("trinion.lie_core")
    orbits = importlib.import_module("trinion.orbits")
    loc = sum(len(p.read_text().splitlines()) for p in sorted((src / "trinion").glob("*.py")))
    column = {
        "src_loc": loc,
        "algebra_per_pass": algebra_counts(orbits, SEED, PASSES),
        "iteration_us": iteration_us(orbits, lie_core),
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
