"""Verification suites: each function checks one acceptance property batch.

Suites return lists of ``CheckRecord``; a record passes when its measured
residual is at or below its tolerance.  All randomness is drawn from seeded
generators so a (config, seed) pair reproduces byte-identical reports.

Zero-valued bracket comparisons (the rank-zero cases, where both sides
vanish identically) are checked against an explicit noise budget derived
from the integrator tolerance and the finite-difference step, instead of a
meaningless relative error of two zeros.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .decompositions import (BracketSpace, dressing_action, e_map, f_inverse, f_map,
                             iwasawa, kstar_from_matrix, sklyanin_eval)
from .errors import SpectralMismatch
from .graph_poisson import (chi_map, figure_three, fr_bracket, fr_vs_kstar,
                            goldman_rhs, GraphConnection)
from .holonomy import (builtin_catalogue, hole_conjugacy_check, holonomy,
                       holonomy_batch, sigma_check, xi_map)
from .lie_core import build_algebra, cybe_residual, r_matrix, weyl_normalize
from .orbits import (NoSolution, gauge_fix, kk_bracket, solve_moment_zero,
                     tangent_rank)

__all__ = ["CheckRecord", "SUITES", "run_suites"]


@dataclass
class CheckRecord:
    name: str
    residual: float
    tolerance: float
    wall_time: float

    @property
    def status(self):
        return bool(self.residual <= self.tolerance)

    def row(self):
        return {"name": self.name, "status": "pass" if self.status else "FAIL",
                "residual": self.residual, "tolerance": self.tolerance,
                "wall_time": round(self.wall_time, 3)}


def _random_twist(ctx, rng):
    m = ctx.n - 1
    u = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            u[i, j] = rng.normal(0, 0.4)
            u[j, i] = -u[i, j]
    return u


def _random_sl(ctx, rng, scale=0.6):
    n = ctx.n
    x = rng.normal(0, scale, (n, n)) + 1j * rng.normal(0, scale, (n, n))
    x -= np.trace(x) / n * np.eye(n)
    return expm(x)


def _random_kstar(ctx, rng, u=None):
    n = ctx.n
    theta = rng.normal(0, 0.4, n)
    theta -= theta.mean()
    from .decompositions import _theta_twist

    diag = np.exp(-theta + 1j * _theta_twist(ctx, u, theta))
    m = np.diag(diag).astype(complex)
    for i in range(n):
        for j in range(i + 1, n):
            m[i, j] = rng.normal(0, 0.5) + 1j * rng.normal(0, 0.5)
    return kstar_from_matrix(ctx, m)


# ---------------------------------------------------------------------------
# 1. Iwasawa round trip
# ---------------------------------------------------------------------------

def suite_iwasawa(seed=0, ns=(2, 3), samples=1000):
    rec = []
    for n in ns:
        ctx = build_algebra(n)
        rng = np.random.default_rng((seed, n))
        worst_rt, worst_un, worst_ph = 0.0, 0.0, 0.0
        for _ in range(samples):
            u = _random_twist(ctx, rng)
            rng.uniform(0.3, 2.0)  # scale t: unused by the factorization, drawn to keep the samples
            g = _random_sl(ctx, rng)
            k, ks = iwasawa(ctx, g, u)
            worst_rt = max(worst_rt, np.linalg.norm(k @ ks.matrix - g) / np.linalg.norm(g))
            worst_un = max(worst_un, np.linalg.norm(k.conj().T @ k - np.eye(n)))
            worst_ph = max(worst_ph, ks.phase_residual(ctx, u))
        rec.append(CheckRecord(f"iwasawa.roundtrip.n{n}", worst_rt, 1e-11, 0.0))
        rec.append(CheckRecord(f"iwasawa.unitarity.n{n}", worst_un, 1e-12, 0.0))
        rec.append(CheckRecord(f"iwasawa.phase.n{n}", worst_ph, 1e-10, 0.0))
    return rec


# ---------------------------------------------------------------------------
# 2. r-matrix: Yang-Baxter and reality
# ---------------------------------------------------------------------------

def suite_rmatrix(seed=0, ns=(2, 3), trials=10):
    rec = []
    for n in ns:
        ctx = build_algebra(n)
        rng = np.random.default_rng((seed, n, 1))
        worst_cybe, worst_real, worst_flip = 0.0, 0.0, 0.0
        for _ in range(trials):
            t = rng.uniform(0.2, 1.5)
            u = _random_twist(ctx, rng)
            rm = r_matrix(ctx, t, u)
            worst_cybe = max(worst_cybe, cybe_residual(ctx, rm.tensor))
            op_p = rm.operator_form(ctx, "plus")
            op_m = rm.operator_form(ctx, "minus")
            worst_real = max(worst_real, float(np.max(np.abs(op_p.conj().T - op_m))))
            worst_flip = max(worst_flip, float(np.max(np.abs(rm.minus_tensor + rm.tensor.T))))
        rec.append(CheckRecord(f"rmatrix.cybe.n{n}", worst_cybe, 1e-12, 0.0))
        rec.append(CheckRecord(f"rmatrix.reality.n{n}", worst_real, 1e-12, 0.0))
        rec.append(CheckRecord(f"rmatrix.flip.n{n}", worst_flip, 0.0, 0.0))
    return rec


# ---------------------------------------------------------------------------
# 3. e-map equivariance and f round trips
# ---------------------------------------------------------------------------

def suite_emap(seed=0, ns=(2, 3), trials=200):
    rec = []
    for n in ns:
        ctx = build_algebra(n)
        rng = np.random.default_rng((seed, n, 2))
        worst_eq, worst_rt = 0.0, 0.0
        for _ in range(trials):
            u = _random_twist(ctx, rng)
            t = rng.uniform(0.2, 1.5)
            x = ctx.random_compact(rng, 0.5)
            k = ctx.random_unitary(rng)
            ex = e_map(ctx, x, t, u)
            _, dressed = dressing_action(ctx, k, ex, u)
            target = e_map(ctx, k @ x @ k.conj().T, t, u)
            worst_eq = max(worst_eq, float(np.linalg.norm(dressed.matrix - target.matrix)))
            ks = _random_kstar(ctx, rng, u)
            back = f_inverse(ctx, f_map(ks), u)
            worst_rt = max(worst_rt, float(np.linalg.norm(back.matrix - ks.matrix)))
        rec.append(CheckRecord(f"emap.equivariance.n{n}", worst_eq, 1e-9, 0.0))
        rec.append(CheckRecord(f"emap.f_roundtrip.n{n}", worst_rt, 1e-11, 0.0))
    return rec


# ---------------------------------------------------------------------------
# solution sampling shared by the geometric suites
# ---------------------------------------------------------------------------

def _solvable_spectra(ctx, rng, lo=0.15, hi=0.6):
    n = ctx.n
    if n == 2:
        while True:
            th = rng.uniform(lo, hi, 3)
            if 2 * th.max() < th.sum() - 0.2 * lo:
                return [weyl_normalize([x, -x]) for x in th]
    gap = 0.25 * lo
    while True:
        hs = []
        for _ in range(3):
            v = np.sort(rng.uniform(lo / 2, hi, n))[::-1]
            v -= v.mean()
            if np.min(np.abs(np.diff(v))) < gap:
                break
            hs.append(weyl_normalize(v))
        if len(hs) == 3:
            return hs


def _gauge_fixed_solutions(ctx, seed, count, lo=0.15, hi=0.6):
    out = []
    rng = np.random.default_rng((seed, ctx.n, 3))
    attempt = 0
    while len(out) < count:
        hs = _solvable_spectra(ctx, rng, lo, hi)
        sol = solve_moment_zero(ctx, *hs, seed=(seed, attempt), restarts=8)
        attempt += 1
        if isinstance(sol, NoSolution):
            continue
        out.append(gauge_fix(ctx, sol))
    return out


# ---------------------------------------------------------------------------
# 4. geometry of the connection image
# ---------------------------------------------------------------------------

def suite_xi_geometry(seed=0, ns=(2, 3), count=20, t=np.pi):
    rec = []
    cat = builtin_catalogue()
    sigma_names = ["gamma1", "gamma2", "gamma3", "eight_narrow", "circle_both"]
    for n in ns:
        ctx = build_algebra(n)
        sols = _gauge_fixed_solutions(ctx, seed, count, lo=0.12, hi=0.35)
        worst_sigma, worst_spec, worst_prod = 0.0, 0.0, 0.0
        hyper_ok = True
        for sol in sols:
            conn = xi_map(*sol.points, t=t)
            for name in sigma_names:
                worst_sigma = max(worst_sigma, sigma_check(conn, cat.contours[name], 1e-11))
            hols = []
            for j, p in enumerate(sol.points, start=1):
                try:
                    rep = hole_conjugacy_check(conn, j, p.H, t, tol=1e-7,
                                               ode_tol=1e-10, catalogue=cat)
                    worst_spec = max(worst_spec, rep["max_rel_err"])
                    hyper_ok = hyper_ok and rep["hyperbolic"]
                except SpectralMismatch:
                    hyper_ok = False
                    worst_spec = np.inf
                hols.append(holonomy(conn, cat.contours[f"gamma{j}"], 1e-10))
            prod = hols[2] @ hols[1] @ hols[0]
            worst_prod = max(worst_prod, float(np.linalg.norm(prod - np.eye(n))))
        rec.append(CheckRecord(f"xi.sigma.n{n}", worst_sigma, 1e-9, 0.0))
        rec.append(CheckRecord(f"xi.hole_spectra.n{n}", worst_spec, 1e-7, 0.0))
        rec.append(CheckRecord(f"xi.loop_product.n{n}", worst_prod, 1e-8, 0.0))
        rec.append(CheckRecord(f"xi.hyperbolic.n{n}", 0.0 if hyper_ok else 1.0, 0.0, 0.0))
    return rec


# ---------------------------------------------------------------------------
# 5. main identity, connection side
# ---------------------------------------------------------------------------

def _kk_from_gradients(ctx, x1, x2, ga, gb):
    out = 0j
    for point, g1, g2 in ((x1, ga[0], gb[0]), (x2, ga[1], gb[1])):
        m1 = np.einsum("a,aij->ij", g1, ctx.compact_basis)
        m2 = np.einsum("a,aij->ij", g2, ctx.compact_basis)
        out += -np.trace(point @ (m1 @ m2 - m2 @ m1))
    return out


def suite_goldman(seed=0, ns=(2, 3), points=20, fd_step=1e-5, ode_tol=1e-10):
    """Orbit bracket of two holonomy traces against the signed crossing sum.

    Each random residue point is shared by all catalogue pairs, so every
    distinct contour is integrated once per point (batched over the
    finite-difference stack).  Bracket pairs whose value is resolvable above
    the integration noise are compared relatively; the identically vanishing
    pairs are compared against the noise budget.
    """
    rec = []
    cat = builtin_catalogue()
    pair_list = cat.pair_names[:5]
    names = sorted({nm for pr in pair_list for nm in pr})
    for n, scale in [(2, 0.18), (3, 0.12)]:
        if n not in ns:
            continue
        ctx = build_algebra(n)
        nb = ctx.dim_compact
        rng = np.random.default_rng((seed, n, 4))
        worst_rel, worst_zero, worst_forms = 0.0, 0.0, 0.0
        for ipt in range(points):
            x1 = ctx.random_compact(rng, scale)
            x2 = ctx.random_compact(rng, scale)
            conn = xi_map(x1, x2, -(x1 + x2), t=np.pi)
            stack1, stack2 = [x1], [x2]
            for b in ctx.compact_basis:
                stack1 += [x1 + fd_step * b, x1 - fd_step * b]
                stack2 += [x2, x2]
            for b in ctx.compact_basis:
                stack1 += [x1, x1]
                stack2 += [x2 + fd_step * b, x2 - fd_step * b]
            s1, s2 = np.array(stack1), np.array(stack2)
            grads = {}
            trace_scale = 1.0
            for nm in names:
                tr = np.trace(holonomy_batch(s1, s2, 1.0, cat.contours[nm], ode_tol),
                              axis1=-2, axis2=-1)
                trace_scale = max(trace_scale, float(np.max(np.abs(tr))))
                g = [(tr[1 + 2 * a] - tr[2 + 2 * a]) / (2 * fd_step) for a in range(2 * nb)]
                grads[nm] = (np.array(g[:nb]), np.array(g[nb:]))
            noise = 100.0 * trace_scale * ode_tol / fd_step
            for pa, pb in pair_list:
                kk = _kk_from_gradients(ctx, x1, x2, grads[pa], grads[pb])
                rep = goldman_rhs(ctx, conn, cat.contours[pa], cat.contours[pb],
                                  ode_tol, geometric=False)
                cas = rep["casimir_form"]
                if max(abs(kk), abs(cas)) > 20.0 * noise:
                    worst_rel = max(worst_rel, abs(kk - cas) / max(abs(kk), abs(cas)))
                else:
                    worst_zero = max(worst_zero, abs(kk - cas) / max(noise, 1e-12))
        # trace-resolution form vs Casimir form, on well-conditioned points
        rngf = np.random.default_rng((seed, n, 44))
        for pa, pb in pair_list:
            y1 = ctx.random_compact(rngf, 0.08)
            y2 = ctx.random_compact(rngf, 0.08)
            connf = xi_map(y1, y2, -(y1 + y2), t=np.pi)
            geo = goldman_rhs(ctx, connf, cat.contours[pa], cat.contours[pb], 1e-12)
            worst_forms = max(worst_forms, abs(geo["trace_form"] - geo["casimir_form"])
                              / max(1.0, abs(geo["casimir_form"])))
        rec.append(CheckRecord(f"goldman.kk_match.n{n}", worst_rel, 1e-4, 0.0))
        rec.append(CheckRecord(f"goldman.zero_sector.n{n}", worst_zero, 1.0, 0.0))
        rec.append(CheckRecord(f"goldman.forms_agree.n{n}", worst_forms, 1e-8, 0.0))
    return rec


# ---------------------------------------------------------------------------
# 6. main identity, dual-group side
# ---------------------------------------------------------------------------

def suite_chi(seed=0, ns=(2, 3), count=20, t=np.pi):
    rec = []
    fig = figure_three()
    for n in ns:
        ctx = build_algebra(n)
        rng = np.random.default_rng((seed, n, 5))
        rm = r_matrix(ctx, 1.0)
        sols = _gauge_fixed_solutions(ctx, seed + 1, count)
        worst_prod, worst_spec = 0.0, 0.0
        for sol in sols:
            conn = xi_map(*sol.points, t=t)
            gs = [holonomy(conn, fig.arc_segments[e], 1e-11) for e in ("e1", "e2", "e3")]
            ks = chi_map(ctx, *gs, t=t)
            mats = [k.matrix for k in ks]
            worst_prod = max(worst_prod, float(np.linalg.norm(
                mats[0] @ mats[1] @ mats[2] - np.eye(n))))
            for k, p in zip(ks, sol.points):
                ev = np.sort(np.linalg.eigvalsh(f_map(k).matrix))
                want = np.sort(np.exp(-2.0 * t * np.array(p.H.theta)))
                worst_spec = max(worst_spec, float(np.max(np.abs(ev - want) / want)))
        worst_fr = 0.0
        sol = sols[0]
        conn = xi_map(*sol.points, t=t)
        gs = [holonomy(conn, fig.arc_segments[e], 1e-11) for e in ("e1", "e2", "e3")]
        slot_pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]
        reports = []
        for s1, s2 in slot_pairs:
            c1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            c2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            f1 = lambda M, c=c1: float(np.real(np.trace(c @ M)))
            f2 = lambda M, c=c2: float(np.imag(np.trace(c @ M)))
            reports.append(fr_vs_kstar(ctx, fig, s1, f1, s2, f2, gs, rm, t=1.0))
        # cross-slot values vanish identically; score them on the scale of
        # the nonzero same-slot brackets rather than against zero
        scale = max(1.0, max(abs(r["plb_value"]) for r in reports))
        for rep in reports:
            if max(abs(rep["fr_value"]), abs(rep["plb_value"])) > 1e-4 * scale:
                worst_fr = max(worst_fr, rep["rel_err"])
            else:
                worst_fr = max(worst_fr,
                               abs(rep["fr_value"] - rep["plb_value"]) / scale)
        rec.append(CheckRecord(f"chi.product.n{n}", worst_prod, 1e-8, 0.0))
        rec.append(CheckRecord(f"chi.orbit_spectra.n{n}", worst_spec, 1e-7, 0.0))
        rec.append(CheckRecord(f"chi.fr_vs_kstar.n{n}", worst_fr, 1e-4, 0.0))
    return rec


# ---------------------------------------------------------------------------
# 7. dimension formula
# ---------------------------------------------------------------------------

def suite_dimension(seed=0, ns=(2, 3)):
    rec = []
    for n, expect in ((2, 0), (3, 2)):
        if n not in ns:
            continue
        ctx = build_algebra(n)
        sols = _gauge_fixed_solutions(ctx, seed + 2, 2)
        worst = 0
        for sol in sols:
            worst = max(worst, abs(tangent_rank(ctx, sol, threshold=1e-8) - expect))
        rec.append(CheckRecord(f"dimension.n{n}", float(worst), 0.0, 0.0))
    return rec


# ---------------------------------------------------------------------------
# 8. bracket axioms
# ---------------------------------------------------------------------------

def _entry_function(rng, n):
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    part = rng.integers(2)
    if part == 0:
        return lambda m, c=c: float(np.real(np.trace(c @ m)))
    return lambda m, c=c: float(np.imag(np.trace(c @ m)))


def suite_bracket_axioms(seed=0, ns=(2,), triples=10):
    rec = []
    ctx = build_algebra(2)
    rng = np.random.default_rng((seed, 6))
    rm = r_matrix(ctx, 1.0)

    # orbit bracket
    worst_anti, worst_jac = 0.0, 0.0
    for _ in range(triples):
        p = ctx.random_compact(rng, 0.6)
        fs = [_entry_function(rng, 2) for _ in range(3)]
        v12 = kk_bracket(ctx, fs[0], fs[1], p)
        v21 = kk_bracket(ctx, fs[1], fs[0], p)
        worst_anti = max(worst_anti, abs(v12 + v21) / max(1.0, abs(v12)))
        jac = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            inner = lambda q, a=j, b=k: kk_bracket(ctx, fs[a], fs[b], q, fd_step=1e-5)
            jac += kk_bracket(ctx, fs[i], inner, p, fd_step=1e-4)
        worst_jac = max(worst_jac, abs(jac))
    rec.append(CheckRecord("axioms.kk.antisym", worst_anti, 1e-8, 0.0))
    rec.append(CheckRecord("axioms.kk.jacobi", worst_jac, 1e-3, 0.0))

    # group-space brackets
    for space, label in ((BracketSpace.CompactGroup, "compact"),
                         (BracketSpace.DualGroup, "dual"),
                         (BracketSpace.HeisenbergDouble, "double")):
        worst_anti, worst_jac = 0.0, 0.0
        for _ in range(triples):
            if space is BracketSpace.CompactGroup:
                g = ctx.random_unitary(rng)
            elif space is BracketSpace.DualGroup:
                g = _random_kstar(ctx, rng).matrix
            else:
                g = _random_sl(ctx, rng, 0.5)
            fs = [_entry_function(rng, 2) for _ in range(3)]
            v12 = sklyanin_eval(ctx, space, fs[0], fs[1], g, rm)
            v21 = sklyanin_eval(ctx, space, fs[1], fs[0], g, rm)
            worst_anti = max(worst_anti, abs(v12 + v21) / max(1.0, abs(v12)))
            jac = 0.0
            for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                inner = lambda q, a=j, b=k: sklyanin_eval(ctx, space, fs[a], fs[b], q, rm,
                                                          fd_step=1e-5)
                jac += sklyanin_eval(ctx, space, fs[i], inner, g, rm, fd_step=1e-4)
            worst_jac = max(worst_jac, abs(jac))
        rec.append(CheckRecord(f"axioms.{label}.antisym", worst_anti, 1e-7, 0.0))
        rec.append(CheckRecord(f"axioms.{label}.jacobi", worst_jac, 1e-3, 0.0))

    # graph bracket on the shipped graph
    fig = figure_three()
    worst_anti, worst_jac = 0.0, 0.0
    for _ in range(triples):
        conn = GraphConnection({e: _random_sl(ctx, rng, 0.45) for e in ("e1", "e2", "e3")})
        fs = []
        for _k in range(3):
            edge = ("e1", "e2", "e3")[rng.integers(3)]
            f = _entry_function(rng, 2)
            fs.append(lambda a, f=f, e=edge: f(a[e]))
        v12 = fr_bracket(ctx, fig.bracket_graph, fs[0], fs[1], conn, rm)
        v21 = fr_bracket(ctx, fig.bracket_graph, fs[1], fs[0], conn, rm)
        worst_anti = max(worst_anti, abs(v12 + v21) / max(1.0, abs(v12)))
        jac = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            inner = lambda a, x=j, y=k: fr_bracket(ctx, fig.bracket_graph, fs[x], fs[y],
                                                   a, rm, fd_step=1e-6)
            jac += fr_bracket(ctx, fig.bracket_graph, fs[i], inner, conn, rm, fd_step=1e-4)
        worst_jac = max(worst_jac, abs(jac))
    rec.append(CheckRecord("axioms.graph.antisym", worst_anti, 1e-7, 0.0))
    rec.append(CheckRecord("axioms.graph.jacobi", worst_jac, 1e-3, 0.0))
    return rec


# ---------------------------------------------------------------------------
# 9. solver against the closed-form feasibility rule
# ---------------------------------------------------------------------------

def suite_moment_oracle(seed=0, ns=(2,), grid=10, tol=1e-10, restarts=6):
    ctx = build_algebra(2)
    values = np.linspace(0.1, 1.0, grid)
    mismatches = 0
    worst_feasible = 0.0
    total = 0
    for t1 in values:
        for t2 in values:
            for t3 in values:
                total += 1
                feasible = 2 * max(t1, t2, t3) <= t1 + t2 + t3 + 1e-12
                hs = [weyl_normalize([x, -x]) for x in (t1, t2, t3)]
                sol = solve_moment_zero(ctx, *hs, seed=(seed, total), tol=tol,
                                        restarts=restarts)
                got = not isinstance(sol, NoSolution)
                if got != feasible:
                    mismatches += 1
                elif got:
                    worst_feasible = max(worst_feasible, sol.residual)
    return [CheckRecord("moment.oracle_agreement", float(mismatches), 0.0, 0.0),
            CheckRecord("moment.feasible_residual", worst_feasible, tol, 0.0)]


SUITES = {
    "iwasawa": suite_iwasawa,
    "rmatrix": suite_rmatrix,
    "emap": suite_emap,
    "xi_geometry": suite_xi_geometry,
    "goldman": suite_goldman,
    "chi_side": suite_chi,
    "dimension": suite_dimension,
    "bracket_axioms": suite_bracket_axioms,
    "moment_oracle": suite_moment_oracle,
}


PROFILES = {
    "full": {},
    "quick": {"iwasawa": {"samples": 300}, "emap": {"trials": 60},
              "xi_geometry": {"count": 6}, "goldman": {"points": 6},
              "chi_side": {"count": 6}, "bracket_axioms": {"triples": 4},
              "moment_oracle": {"restarts": 4}},
}


def run_suites(names, seed=0, ns=(2, 3), profile="full", progress=None):
    """Run the named suites (or all) and return the records."""
    out = []
    overrides = PROFILES.get(profile, {})
    for name in names:
        fn = SUITES[name]
        kw = dict(overrides.get(name, {}))
        if name not in ("bracket_axioms", "moment_oracle"):
            kw["ns"] = ns
        t0 = time.perf_counter()
        records = fn(seed=seed, **kw)
        elapsed = time.perf_counter() - t0
        for r in records:
            if r.wall_time == 0.0:
                r.wall_time = elapsed / len(records)
        out.extend(records)
        if progress:
            progress(name, records, elapsed)
    return out
