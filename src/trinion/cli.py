"""Command line front end: verification suites, solvers, maps, and brackets.

The verify command runs the suites at the config's matrix size with the
"quick" sampling profile by default; set ``"profile": "full"`` in the
config for the acceptance-scale sample counts.

Exit codes: 0 all checks passed / operation succeeded, 1 a check failed or
no solution was found, 2 configuration or schema errors.  All output is
JSON (reports additionally get a CSV summary next to them) and is a pure
function of (config, seed).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from . import _serialize
from .decompositions import BracketSpace, sklyanin_eval
from .errors import (BoundaryOrbit, ConstraintViolated, InvalidSpectrum, MissingIntersectionData,
                     SchemaError, ToleranceTooLoose, TrinionError)
from .graph_poisson import chi_map, figure_three, fr_vs_kstar, goldman_rhs
from .holonomy import builtin_catalogue, holonomy, load_catalogue, xi_map
from .lie_core import build_algebra, r_matrix, weyl_normalize
from .orbits import NoSolution, kk_bracket, solve_moment_kstar, solve_moment_zero
from .verify import PROFILES, SUITES, _random_sl, run_suites

DEFAULT_CONFIG = {
    "n": 2,
    "t": np.pi,
    "u": None,
    "thetas": [[0.3, -0.3], [0.3, -0.3], [0.3, -0.3]],
    "tolerances": {"ode": 1e-10, "fd": 1e-5, "constraint": 1e-10},
    "seed": 0,
    "suite": "all",
    "profile": "quick",
    "out": None,
}


def load_config(path):
    cfg = dict(DEFAULT_CONFIG)
    if path:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SchemaError(f"cannot read config: {exc}") from exc
        if not isinstance(user, dict):
            raise SchemaError("config must be a JSON object")
        tolerances = user.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise SchemaError("tolerances must be a JSON object")
        cfg.update(user)
        cfg["tolerances"] = {**DEFAULT_CONFIG["tolerances"], **tolerances}
    return cfg


def _is_rows(val):
    return isinstance(val, list) and all(
        isinstance(row, list) and all(_serialize.is_number(x) for x in row) for row in val)


def validate_config(cfg):
    unknown = sorted(set(cfg) - set(DEFAULT_CONFIG)) + sorted(
        f"tolerances.{key}" for key in set(cfg["tolerances"]) - set(DEFAULT_CONFIG["tolerances"]))
    if unknown:
        raise SchemaError(f"unknown config keys: {', '.join(unknown)}")
    n = cfg["n"]
    if not isinstance(n, int) or n < 2:
        raise SchemaError("n must be an integer >= 2")
    if not _serialize.is_number(cfg["t"]):
        raise SchemaError("t must be a finite number")
    if not _serialize.is_number(cfg["seed"], int) or cfg["seed"] < 0:
        raise SchemaError("seed must be a nonnegative integer")
    if cfg["suite"] not in (None, "all", *SUITES):
        raise SchemaError(f"unknown suite {cfg['suite']!r}; choose from {sorted(SUITES)}")
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise SchemaError("out must be a path")
    if not isinstance(cfg["profile"], str) or cfg["profile"] not in PROFILES:
        raise SchemaError(f"profile must be one of {', '.join(sorted(PROFILES))}")
    for key, val in cfg["tolerances"].items():
        if not _serialize.is_number(val):
            raise SchemaError(f"tolerance {key} must be a finite number")
        if not val > 0:
            raise SchemaError(f"tolerance {key} must be positive")
    thetas = cfg["thetas"]
    if not _is_rows(thetas):
        raise SchemaError("thetas must be a list of spectra, each a list of numbers")
    for th in thetas:
        try:
            weyl_normalize(th)
        except (InvalidSpectrum, BoundaryOrbit) as exc:
            raise SchemaError(f"thetas: {exc}") from None
    u = cfg["u"]
    square = _is_rows(u) and len(u) == n - 1 and all(len(row) == n - 1 for row in u)
    if u is not None and not (square and np.max(np.abs(np.add(u, np.transpose(u)))) <= 1e-12):
        raise SchemaError("u must be an antisymmetric (n-1) x (n-1) matrix of numbers")


def _write(payload, path):
    text = json.dumps(payload, indent=2, default=_json_default)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)}")


def _report_csv(rows, path):
    lines = ["name,status,residual,tolerance,wall_time"]
    for r in rows:
        lines.append(f'{r["name"]},{r["status"]},{r["residual"]:.6e},'
                     f'{r["tolerance"]:.6e},{r["wall_time"]}')
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_verify(cfg):
    names = list(SUITES) if cfg["suite"] in (None, "all") else [cfg["suite"]]
    if cfg["n"] not in (2, 3):
        raise SchemaError(f"verify runs at n = 2 or n = 3, not n = {cfg['n']}")
    t0 = time.perf_counter()
    records = run_suites(names, seed=cfg["seed"], ns=(cfg["n"],), profile=cfg["profile"],
                         progress=lambda nm, recs, el: print(
                             f"[{nm}] {sum(r.status for r in recs)}/{len(recs)} "
                             f"in {el:.1f}s", file=sys.stderr))
    rows = [r.row() for r in records]
    report = {
        "environment": {"python": platform.python_version(),
                        "numpy": np.__version__, "platform": platform.platform()},
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "suites": names,
        "checks": rows,
        "passed": all(r.status for r in records),
        "wall_time": round(time.perf_counter() - t0, 2),
    }
    _write(report, cfg["out"])
    if cfg["out"]:
        _report_csv(rows, cfg["out"] + ".csv")
    return 0 if report["passed"] else 1


def cmd_solve(cfg, level):
    if len(cfg["thetas"]) != 3 or any(len(th) != cfg["n"] for th in cfg["thetas"]):
        raise SchemaError(f"thetas must be three spectra of length n = {cfg['n']}")
    ctx = build_algebra(cfg["n"])
    hs = [weyl_normalize(th) for th in cfg["thetas"]]
    tol = cfg["tolerances"]["constraint"]
    if level == "zero":
        sol = solve_moment_zero(ctx, *hs, seed=cfg["seed"], tol=tol)
    else:
        u = None if cfg["u"] is None else np.asarray(cfg["u"])
        sol = solve_moment_kstar(ctx, *hs, t=cfg["t"], u=u, seed=cfg["seed"], tol=tol)
    if isinstance(sol, NoSolution):
        _write({"status": "no_solution", "best_residual": sol.best_residual,
                "trials": sol.trials}, cfg["out"])
        return 1
    _write(_serialize.solution_to_json(sol), cfg["out"])
    return 0


def cmd_map(cfg, which, inputs):
    need = 3 if which == "chi" else 2
    if not isinstance(inputs, list) or len(inputs) < need:
        raise SchemaError(f"map {which} needs a list of at least {need} matrices")
    ctx = build_algebra(cfg["n"])
    mats = _serialize.matrices_from_json(inputs)
    if which == "xi":
        conn = _connection(mats[0], mats[1], mats[2] if len(mats) > 2 else None, cfg["t"])
        payload = {"X1": _serialize.matrix_to_json(conn.X1),
                   "X2": _serialize.matrix_to_json(conn.X2),
                   "X3": _serialize.matrix_to_json(conn.X3),
                   "scale": conn.scale}
    else:
        if len(mats[0]) != cfg["n"]:
            raise SchemaError(f"map chi needs matrices of size n = {cfg['n']}")
        if any(np.linalg.matrix_rank(m) < len(m) for m in mats[:3]):
            raise SchemaError("map chi needs invertible matrices")
        u = None if cfg["u"] is None else np.asarray(cfg["u"])
        ks = chi_map(ctx, mats[0], mats[1], mats[2], u=u)
        payload = {f"kstar{i+1}": _serialize.matrix_to_json(k.matrix)
                   for i, k in enumerate(ks)}
    _write(payload, cfg["out"])
    return 0


def cmd_bracket(cfg, kind, args):
    ctx = build_algebra(cfg["n"])
    u = None if cfg["u"] is None else np.asarray(cfg["u"])
    rng = np.random.default_rng(cfg["seed"])
    rm = r_matrix(ctx, cfg["t"], u)
    fd = cfg["tolerances"]["fd"]

    def entry_fn(i, j, part):
        return lambda m: getattr(m[..., i, j], part)

    if kind == "goldman":
        cat = load_catalogue(args.catalogue) if args.catalogue else builtin_catalogue()
        ca, cb = (_contour(cat, name) for name in args.contours)
        x1, x2 = _default_residues(cfg)
        conn = xi_map(x1, x2, -(x1 + x2), t=cfg["t"])
        try:
            rep = goldman_rhs(ctx, conn, ca, cb, cfg["tolerances"]["ode"])
        except MissingIntersectionData as exc:
            if any(d.other == cb.name for d in ca.intersections):
                raise  # records without crossing parameters: the bracket has no value
            raise SchemaError(str(exc)) from exc  # no records of this pair, in this order
        payload = {"casimir_form": rep["casimir_form"], "trace_form": rep["trace_form"],
                   "points": len(rep["points"])}
    elif kind == "kk":
        p = ctx.random_compact(rng, 0.5)
        f1, f2 = entry_fn(0, 0, "imag"), entry_fn(0, 1, "real")
        payload = {"value": kk_bracket(ctx, f1, f2, p, fd_step=fd)}
    elif kind == "sklyanin":
        space = {"compact": BracketSpace.CompactGroup, "dual": BracketSpace.DualGroup,
                 "double": BracketSpace.HeisenbergDouble}[args.space]
        g = _random_sl(ctx, rng, 0.5)
        f1, f2 = entry_fn(0, 0, "real"), entry_fn(0, 1, "imag")
        payload = {"value": sklyanin_eval(ctx, space, f1, f2, g, rm, fd_step=fd)}
    else:  # fr
        fig = figure_three()
        gs = [_random_sl(ctx, rng, 0.4) for _ in range(3)]
        f1, f2 = entry_fn(0, 0, "real"), entry_fn(0, 1, "imag")
        payload = fr_vs_kstar(ctx, fig, [(0, f1, 0, f2)], gs, rm, u=u)[0]
    _write(payload, cfg["out"])
    return 0


def _default_residues(cfg):
    """The residues ``X1``, ``X2`` a command draws when it is given none."""
    ctx, rng = build_algebra(cfg["n"]), np.random.default_rng(cfg["seed"])
    return ctx.random_compact(rng, 0.3), ctx.random_compact(rng, 0.3)


def _connection(x1, x2, x3, t):
    """``xi_map`` for the commands: residues that break its constraints are a schema error."""
    try:
        return xi_map(x1, x2, x3, t=t)
    except ConstraintViolated as exc:
        raise SchemaError(str(exc)) from exc


def _contour(cat, name):
    if name not in cat.contours:
        raise SchemaError(f"unknown contour {name!r}; "
                          f"the catalogue has {', '.join(sorted(cat.contours))}")
    return cat.contours[name]


def cmd_holonomy(cfg, args):
    cat = load_catalogue(args.catalogue) if args.catalogue else builtin_catalogue()
    contour = _contour(cat, args.contour)
    if args.residues:
        try:
            with open(args.residues) as fh:
                data = json.load(fh)
            x1, x2 = _serialize.matrices_from_json([data["X1"], data["X2"]])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SchemaError(f"cannot read residues {args.residues}: {exc!r}") from exc
    else:
        x1, x2 = _default_residues(cfg)
    conn = _connection(x1, x2, None, cfg["t"])
    h = holonomy(conn, contour, cfg["tolerances"]["ode"])
    _write({"contour": args.contour, "holonomy": _serialize.matrix_to_json(h),
            "trace": complex(np.trace(h))}, cfg["out"])
    return 0


def main(argv=None):
    # global options, before or after the subcommand; an absent one is not set
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, help="override config seed")
    common.add_argument("--n", type=int, help="override matrix size")
    common.add_argument("--t", type=float, help="override deformation scale")
    common.add_argument("--out", help="output path (default stdout)")
    parser = argparse.ArgumentParser(
        prog="trinion", parents=[common],
        description="verification suites and solvers for su(n) multiplicity spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run verification suites")
    p_verify.add_argument("--suite", default=None, help="suite name or 'all'")

    p_solve = sub.add_parser("solve", parents=[common], help="solve a moment constraint")
    p_solve.add_argument("level", choices=["zero", "kstar"])

    p_map = sub.add_parser("map", parents=[common], help="apply the connection or dual-group map")
    p_map.add_argument("which", choices=["xi", "chi"])
    p_map.add_argument("--input", help="JSON file with matrices list")

    p_br = sub.add_parser("bracket", parents=[common], help="evaluate a bracket")
    p_br.add_argument("kind", choices=["kk", "goldman", "fr", "sklyanin"])
    p_br.add_argument("--space", default="dual",
                      choices=["compact", "dual", "double"])
    p_br.add_argument("--contours", nargs=2, default=["eight_narrow", "eight_wide_rev"])
    p_br.add_argument("--catalogue", default=None)

    p_h = sub.add_parser("holonomy", parents=[common], help="holonomy along a catalogue contour")
    p_h.add_argument("contour")
    p_h.add_argument("--residues", help="JSON file with X1, X2 matrices")
    p_h.add_argument("--catalogue", default=None)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(getattr(args, "config", None))
        for key in ("seed", "n", "t", "out"):
            val = getattr(args, key, None)
            if val is not None:
                cfg[key] = val
        if args.command == "verify" and args.suite is not None:
            cfg["suite"] = args.suite
        validate_config(cfg)

        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "solve":
            return cmd_solve(cfg, args.level)
        if args.command == "map":
            if args.input:
                try:
                    with open(args.input) as fh:
                        inputs = json.load(fh)["matrices"]
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    raise SchemaError(f"cannot read matrices {args.input}: {exc!r}") from exc
            else:
                inputs = [_serialize.matrix_to_json(x) for x in _default_residues(cfg)]
            return cmd_map(cfg, args.which, inputs)
        if args.command == "bracket":
            return cmd_bracket(cfg, args.kind, args)
        if args.command == "holonomy":
            return cmd_holonomy(cfg, args)
    except (SchemaError, ToleranceTooLoose) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrinionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
