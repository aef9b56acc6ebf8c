"""The benchmark's four workloads: seeded, closed-loop lists of library calls.

A workload is run as a sequence of passes.  Pass ``i`` of a run with seed
``seed`` draws all of its inputs from ``(seed, i)``, so a seed fixes every
input of the run.  A pass is a list of calls; each call goes into one of
trinion's public functions (or one of its verification suites), and returns
``CheckRecord`` values that pass when the residual is at or below the
tolerance.  All calls go through the ``trinion`` package namespace and the
``SUITES`` table, so wrappers installed by the tracer see them.

Sizes are cut from the library's quick verification profile so that one pass
takes a few seconds on a 2-core machine; tolerances are the suites' own.
One ``SUITES["goldman"]`` call takes 12-21 s per n even at one point, so the
goldman workload issues the suite's per-point calls itself (``goldman_point``,
``goldman_forms``).  It follows ``suite_goldman`` as of this benchmark: a
change that makes the suite compute its gradients another way is not seen
here until the benchmark follows it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import trinion as tn
from trinion.verify import SUITES, CheckRecord

# ----------------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------------


def _subseed(seed, i):
    """A 32-bit integer seed for the suites, distinct for every (seed, pass)."""
    return int(np.random.SeedSequence((seed, i)).generate_state(1)[0])


@dataclass
class Call:
    """One closed-loop call: ``fn()`` returns a list of ``CheckRecord``."""

    label: str
    fn: object
    kind: str = "call"


@dataclass
class Context:
    """Objects the benchmark's own calls reuse across passes."""

    ctxs: dict
    catalogue: object


def build_context():
    return Context(ctxs={n: tn.build_algebra(n) for n in (2, 3)},
                   catalogue=tn.builtin_catalogue())


# ----------------------------------------------------------------------------
# goldman: batched, checkpointed transport of finite-difference stacks
# ----------------------------------------------------------------------------

GOLDMAN_PAIRS = 5          # the suite brackets the first five catalogue pairs
GOLDMAN_FD_STEP = 1e-5
GOLDMAN_ODE_TOL = 1e-10
GOLDMAN_FORMS_TOL = 1e-12  # the forms_agree check integrates at this tolerance
# forms_agree costs 0.6-1.3 s on (circle_plus, circle_minus) but 2-9 s on the
# other pairs (2 cores); a pass checks that one pair so passes stay short and alike
GOLDMAN_FORMS_PAIR = 4


def _kk_from_gradients(ctx, x1, x2, ga, gb):
    out = 0j
    for point, g1, g2 in ((x1, ga[0], gb[0]), (x2, ga[1], gb[1])):
        m1 = np.einsum("a,aij->ij", g1, ctx.compact_basis)
        m2 = np.einsum("a,aij->ij", g2, ctx.compact_basis)
        out += -np.trace(point @ (m1 @ m2 - m2 @ m1))
    return out


def goldman_point(ctx, cat, x1, x2):
    """One residue point of ``suite_goldman``: kk_match and zero_sector.

    Every contour of the bracketed pairs is transported once, batched over
    the central-difference stack of ``1 + 4 (n^2 - 1)`` connections; the
    orbit bracket of the traces is then compared with the signed crossing
    sum of each pair, exactly as the suite does.
    """
    n, nb, h = ctx.n, ctx.dim_compact, GOLDMAN_FD_STEP
    pair_list = cat.pair_names[:GOLDMAN_PAIRS]
    names = sorted({nm for pr in pair_list for nm in pr})
    conn = tn.xi_map(x1, x2, -(x1 + x2), t=np.pi)
    stack1, stack2 = [x1], [x2]
    for b in ctx.compact_basis:
        stack1 += [x1 + h * b, x1 - h * b]
        stack2 += [x2, x2]
    for b in ctx.compact_basis:
        stack1 += [x1, x1]
        stack2 += [x2 + h * b, x2 - h * b]
    s1, s2 = np.array(stack1), np.array(stack2)
    grads, trace_scale = {}, 1.0
    for nm in names:
        hol = tn.holonomy_batch(s1, s2, 1.0, cat.contours[nm], GOLDMAN_ODE_TOL)
        tr = np.trace(hol, axis1=-2, axis2=-1)
        trace_scale = max(trace_scale, float(np.max(np.abs(tr))))
        g = [(tr[1 + 2 * a] - tr[2 + 2 * a]) / (2 * h) for a in range(2 * nb)]
        grads[nm] = (np.array(g[:nb]), np.array(g[nb:]))
    noise = 100.0 * trace_scale * GOLDMAN_ODE_TOL / h
    worst_rel, worst_zero = 0.0, 0.0
    for pa, pb in pair_list:
        kk = _kk_from_gradients(ctx, x1, x2, grads[pa], grads[pb])
        rep = tn.goldman_rhs(ctx, conn, cat.contours[pa], cat.contours[pb],
                             GOLDMAN_ODE_TOL, geometric=False)
        cas = rep["casimir_form"]
        if max(abs(kk), abs(cas)) > 20.0 * noise:
            worst_rel = max(worst_rel, abs(kk - cas) / max(abs(kk), abs(cas)))
        else:
            worst_zero = max(worst_zero, abs(kk - cas) / max(noise, 1e-12))
    return [CheckRecord(f"goldman.kk_match.n{n}", worst_rel, 1e-4, 0.0),
            CheckRecord(f"goldman.zero_sector.n{n}", worst_zero, 1.0, 0.0)]


def goldman_forms(ctx, cat, pair, y1, y2):
    """One pair of the suite's forms_agree check: trace form vs Casimir form."""
    conn = tn.xi_map(y1, y2, -(y1 + y2), t=np.pi)
    pa, pb = pair
    geo = tn.goldman_rhs(ctx, conn, cat.contours[pa], cat.contours[pb], GOLDMAN_FORMS_TOL)
    err = abs(geo["trace_form"] - geo["casimir_form"]) / max(1.0, abs(geo["casimir_form"]))
    return [CheckRecord(f"goldman.forms_agree.n{ctx.n}", err, 1e-8, 0.0)]


def _typical_residue(ctx, rng, scale):
    """A residue of the suite's typical norm, ``scale * sqrt(n^2 - 1)``, in a random direction.

    The suite draws Gaussian coordinates; at n = 2 their norm (chi with three
    degrees of freedom) varies by about 40% and sets most of a point's cost.
    """
    c = rng.normal(size=ctx.dim_compact)
    c *= scale * np.sqrt(ctx.dim_compact) / np.linalg.norm(c)
    return np.einsum("a,aij->ij", c, ctx.compact_basis)


def goldman_pass(env, seed, i):
    rng = np.random.default_rng((seed, i, 4))
    pair = env.catalogue.pair_names[GOLDMAN_FORMS_PAIR]
    calls = []
    for n, scale in ((2, 0.18), (3, 0.12)):
        ctx = env.ctxs[n]
        x1, x2 = _typical_residue(ctx, rng, scale), _typical_residue(ctx, rng, scale)
        y1, y2 = _typical_residue(ctx, rng, 0.08), _typical_residue(ctx, rng, 0.08)
        calls.append(Call(f"goldman.point.n{n}",
                          lambda c=ctx, a=x1, b=x2: goldman_point(c, env.catalogue, a, b)))
        calls.append(Call(f"goldman.forms.n{n}",
                          lambda c=ctx, a=y1, b=y2: goldman_forms(c, env.catalogue, pair, a, b)))
    return calls


# ----------------------------------------------------------------------------
# geometry: single transports on short contours, the chi map, zero-level solves
# ----------------------------------------------------------------------------

def geometry_pass(env, seed, i):
    s = _subseed(seed, i)
    calls = []
    for n in (2, 3):
        calls.append(Call(f"xi_geometry.n{n}",
                          lambda n=n: SUITES["xi_geometry"](seed=s, ns=(n,), count=1)))
        calls.append(Call(f"chi_side.n{n}",
                          lambda n=n: SUITES["chi_side"](seed=s, ns=(n,), count=1)))
        calls.append(Call(f"dimension.n{n}",
                          lambda n=n: SUITES["dimension"](seed=s, ns=(n,))))
    return calls


# ----------------------------------------------------------------------------
# algebra: zero-level solver against the feasibility oracle, bracket axioms
# ----------------------------------------------------------------------------

ORACLE_GRID = np.linspace(0.1, 1.0, 10)   # the moment_oracle suite's grid
ORACLE_TOL = 1e-10
# grid points per pass, feasible and not, in the grid's own 640 : 360 ratio.
# The solver runs with its default restart budget, as ``trinion solve zero``
# does.  The quick profile's 4 restarts are not enough on the flat-triangle
# spectra of the grid's boundary: on (0.1, 0.1, 0.2) a third of the trials
# stall at a residual of about 1.2e-10, so about 1% of those solves report
# NoSolution.  With the default budget an infeasible point costs about 0.15 s.
ORACLE_FEASIBLE, ORACLE_INFEASIBLE = 24, 13


def _oracle_feasible(thetas):
    return 2 * max(thetas) <= sum(thetas) + 1e-12


_GRID = [tuple(ORACLE_GRID[[a, b, c]]) for a in range(10) for b in range(10) for c in range(10)]
ORACLE_POINTS = {True: [g for g in _GRID if _oracle_feasible(g)],
                 False: [g for g in _GRID if not _oracle_feasible(g)]}


def oracle_solve(ctx, thetas, seed):
    """One ``moment_oracle`` grid point: the solver must agree with the rule."""
    feasible = _oracle_feasible(thetas)
    hs = [tn.weyl_normalize([x, -x]) for x in thetas]
    sol = tn.solve_moment_zero(ctx, *hs, seed=seed, tol=ORACLE_TOL)
    got = not isinstance(sol, tn.NoSolution)
    out = [CheckRecord("moment.oracle_agreement", float(got != feasible), 0.0, 0.0)]
    if got and feasible:
        out.append(CheckRecord("moment.feasible_residual", sol.residual, ORACLE_TOL, 0.0))
    return out


def algebra_pass(env, seed, i):
    rng = np.random.default_rng((seed, i, 9))
    s = _subseed(seed, i)
    ctx = env.ctxs[2]
    picks = []
    for feasible, count in ((True, ORACLE_FEASIBLE), (False, ORACLE_INFEASIBLE)):
        pool = ORACLE_POINTS[feasible]
        picks += [pool[j] for j in rng.choice(len(pool), count, replace=False)]
    picks = [picks[j] for j in rng.permutation(len(picks))]
    calls = [Call("moment_oracle", lambda th=th, k=k: oracle_solve(ctx, th, (s, k)))
             for k, th in enumerate(picks)]
    calls.append(Call("bracket_axioms", lambda: SUITES["bracket_axioms"](seed=s, triples=1)))
    calls.append(Call("iwasawa", lambda: SUITES["iwasawa"](seed=s, samples=40)))
    calls.append(Call("emap", lambda: SUITES["emap"](seed=s, trials=8)))
    calls.append(Call("rmatrix", lambda: SUITES["rmatrix"](seed=s, trials=2)))
    return calls


# ----------------------------------------------------------------------------
# dual: the dual-group (k*) solver, feasible and infeasible spectra
# ----------------------------------------------------------------------------

DUAL_T = 1.0
DUAL_TOL = 1e-9             # the tolerance ``trinion solve kstar`` uses
# uneven, so the median feasible solve falls inside the n = 2 cluster rather
# than in the gap between the n = 2 and n = 3 solve times
DUAL_FEASIBLE = {2: 7, 3: 3}
DUAL_INFEASIBLE = 1         # n = 2 spectra breaking the triangle inequality
# A NoSolution verdict runs every restart to its iteration limit (about 1.7 s
# each at n = 2); the default 32 restarts take longer than a whole run, so the
# infeasible inputs get a one-restart budget.  Feasible inputs keep the default.
DUAL_INFEASIBLE_RESTARTS = 1


def _spectrum(x):
    return tn.weyl_normalize(np.sort(np.linalg.eigvalsh(-1j * x))[::-1])


def kstar_feasible(ctx, hs, seed):
    """Solve, then check the output without the solver's own residual."""
    sol = tn.solve_moment_kstar(ctx, *hs, t=DUAL_T, seed=seed, tol=DUAL_TOL)
    if isinstance(sol, tn.NoSolution):
        return [CheckRecord(f"kstar.solved.n{ctx.n}", 1.0, 0.0, 0.0)]
    mats = [p.kstar.matrix for p in sol.points]
    prod = float(np.linalg.norm(mats[0] @ mats[1] @ mats[2] - np.eye(ctx.n)))
    spec = 0.0
    for p, h in zip(sol.points, hs):
        ev = np.sort(np.linalg.eigvalsh(tn.f_map(p.kstar).matrix))
        want = np.sort(np.exp(-2.0 * DUAL_T * np.array(h.theta)))
        spec = max(spec, float(np.max(np.abs(ev - want) / want)))
    return [CheckRecord(f"kstar.solved.n{ctx.n}", 0.0, 0.0, 0.0),
            CheckRecord(f"kstar.product.n{ctx.n}", prod, 10 * DUAL_TOL, 0.0),
            CheckRecord(f"kstar.orbit_spectra.n{ctx.n}", spec, 1e-7, 0.0)]


def kstar_infeasible(ctx, hs, seed):
    sol = tn.solve_moment_kstar(ctx, *hs, t=DUAL_T, seed=seed, tol=DUAL_TOL,
                                restarts=DUAL_INFEASIBLE_RESTARTS)
    found = not isinstance(sol, tn.NoSolution)
    return [CheckRecord("kstar.no_solution", float(found), 0.0, 0.0)]


def dual_pass(env, seed, i):
    rng = np.random.default_rng((seed, i, 7))
    calls = []
    k = 0
    for n, count in DUAL_FEASIBLE.items():
        ctx = env.ctxs[n]
        for _ in range(count):
            # spectra read off a random zero-sum triple are feasible
            x1, x2 = ctx.random_compact(rng, 0.3), ctx.random_compact(rng, 0.3)
            hs = [_spectrum(x) for x in (x1, x2, -(x1 + x2))]
            calls.append(Call(f"kstar.feasible.n{n}",
                              lambda c=ctx, h=hs, k=k: kstar_feasible(c, h, (seed, i, k)),
                              kind="solve"))
            k += 1
    for _ in range(DUAL_INFEASIBLE):
        big = rng.uniform(0.45, 0.6)
        small = rng.uniform(0.1, 0.18, 2)
        hs = [tn.weyl_normalize([x, -x]) for x in (big, *small)]
        calls.append(Call("kstar.infeasible.n2",
                          lambda h=hs, k=k: kstar_infeasible(env.ctxs[2], h, (seed, i, k)),
                          kind="infeasible"))
        k += 1
    return calls


@dataclass
class Workload:
    name: str
    why: str
    make_pass: object


WORKLOADS = {w.name: w for w in (
    Workload("goldman", "batched, checkpointed transport: holonomy_batch over 13/33-connection "
             "FD stacks, plus forms_agree single transports at tol 1e-12", goldman_pass),
    Workload("geometry", "single transports (batch of one) at tol 1e-10/1e-11 on short contours "
             "with no holonomy_batch; chi map and zero-level solves", geometry_pass),
    Workload("algebra", "no holonomy: zero-level LM solves against the feasibility oracle, a "
             "third infeasible, plus the finite-difference bracket evaluators", algebra_pass),
    Workload("dual", "the trinion solve kstar path, feasible and infeasible spectra: the only "
             "workload where decompositions does most of the work", dual_pass),
)}
