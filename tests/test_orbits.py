import dataclasses
import importlib
import itertools
from functools import partial

import numpy as np
import pytest
from scipy.linalg import expm

from trinion.decompositions import _iwasawa_dual, e_map
from trinion.errors import EvaluationError, ToleranceNotMet
from trinion.graph_poisson import chi_map, figure_three
from trinion.holonomy import holonomy, xi_map
from trinion.lie_core import build_algebra, pair, weyl_normalize
from trinion.orbits import (DressingOrbitPoint, MomentSolution, NoSolution, OrbitPoint,
                            _commutator_coords, _damped_steps, _dressing_jacobian,
                            _kstar_residual, _levenberg_marquardt, _solve, _solve_zero,
                            _zero_residual, diag_coadjoint, diag_dressing, gauge_fix, kk_bracket,
                            solve_moment_kstar, solve_moment_zero, tangent_rank)

RNG = np.random.default_rng(11)
CTX2 = build_algebra(2)
CTX3 = build_algebra(3)
H03 = weyl_normalize([0.3, -0.3])


def test_orbit_spectrum_preserved():
    h = weyl_normalize([0.5, 0.1, -0.6])
    for _ in range(100):
        k = CTX3.random_unitary(RNG)
        p = OrbitPoint(X=k @ h.matrix @ k.conj().T, H=h, witness=k)
        assert p.spectrum_residual() < 1e-12


def test_kk_linear_functions_exact():
    """Linear functions have constant gradients, so the bracket is forced."""
    y1 = CTX2.random_compact(RNG)
    y2 = CTX2.random_compact(RNG)
    p = CTX2.random_compact(RNG)
    f1 = lambda x: pair(x, y1).real
    f2 = lambda x: pair(x, y2).real
    want = pair(p, y1 @ y2 - y2 @ y1).real
    assert abs(kk_bracket(CTX2, f1, f2, p) - want) < 1e-9


def test_kk_casimir_central():
    p = CTX2.random_compact(RNG)
    cas = lambda x: pair(x, x).real
    f = lambda x: np.real(x[..., 0, 1])
    assert abs(kk_bracket(CTX2, cas, f, p)) < 1e-9


def test_kk_quadratic_closed_form():
    """Gradient of <x,y>^2 is 2<x,y> y; compare against the closed form."""
    y1 = CTX3.random_compact(RNG)
    y2 = CTX3.random_compact(RNG)
    p = CTX3.random_compact(RNG)
    f1 = lambda x: pair(x, y1).real ** 2
    f2 = lambda x: pair(x, y2).real ** 2
    g1 = 2 * pair(p, y1).real * y1
    g2 = 2 * pair(p, y2).real * y2
    want = pair(p, g1 @ g2 - g2 @ g1).real
    got = kk_bracket(CTX3, f1, f2, p)
    assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def _entry(rng, n):
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return lambda x, c=c: np.imag(np.trace(c @ x, axis1=-2, axis2=-1))


@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_kk_bracket_stack_bit_equal_to_single_points(ctx):
    """A stack of points gives the single-point values, also with a bracket as test function."""
    rng = np.random.default_rng(12)
    f1, f2, f3 = (_entry(rng, ctx.n) for _ in range(3))
    ps = np.array([[ctx.random_compact(rng, 0.6) for _ in range(3)] for _ in range(2)])
    inner = lambda y: kk_bracket(ctx, f2, f3, y)
    for psi1, psi2, fd in ((f1, f2, 1e-5), (f1, inner, 1e-4)):
        got = kk_bracket(ctx, psi1, psi2, ps, fd_step=fd)
        want = [[kk_bracket(ctx, psi1, psi2, p, fd_step=fd) for p in row] for row in ps]
        assert got.shape == (2, 3) and np.array_equal(got, np.array(want))
        assert all(type(v) is float for row in want for v in row)


def test_kk_nonfinite():
    with pytest.raises(EvaluationError):
        kk_bracket(CTX2, lambda x: np.full(x.shape[:-2], np.inf),
                   lambda x: np.zeros(x.shape[:-2]), CTX2.random_compact(RNG))


# ---------------------------------------------------------------------------
# zero-level solver
# ---------------------------------------------------------------------------

def test_solver_equilateral():
    sol = solve_moment_zero(CTX2, H03, H03, H03, seed=0)
    assert isinstance(sol, MomentSolution)
    assert sol.residual <= 1e-10
    total = sum(p.X for p in sol.points)
    assert np.linalg.norm(total) <= 2e-10


def test_solver_infeasible_triangle():
    h1 = weyl_normalize([1.0, -1.0])
    h2 = weyl_normalize([0.2, -0.2])
    sol = solve_moment_zero(CTX2, h1, h2, h2, seed=0, restarts=6)
    assert isinstance(sol, NoSolution)
    assert sol.best_residual > 0.1


def test_solver_flat_triangle_single_trial():
    """(0.1, 0.1, 0.2) is feasible but degenerate: the flat triangle.  Its
    trials creep to tol with a tiny gradient, so one trial must suffice."""
    hs = [weyl_normalize([x, -x]) for x in (0.1, 0.1, 0.2)]
    for seed in range(40):
        sol = solve_moment_zero(CTX2, *hs, seed=seed, restarts=1)
        assert isinstance(sol, MomentSolution), seed
        assert sol.residual <= 1e-10


@pytest.mark.parametrize("theta, t", [(0.3, 20.0), (3.0, np.pi)])
def test_dual_solver_singular_normal_matrix(theta, t):
    """At large ``t theta`` the damped normal matrix of some trials is singular
    (the gauge null space of ``J^T J`` outweighs the damping); such a trial's
    step is rejected instead of ending the solve with ``LinAlgError``."""
    h = weyl_normalize([theta, -theta])
    sol = solve_moment_kstar(CTX2, h, h, h, t=t, seed=0, restarts=3)
    assert isinstance(sol, (MomentSolution, NoSolution))


def test_damped_steps_singular_matrix_leaves_the_stack_unchanged():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 9, 9)), rng.normal(size=(3, 9, 1))
    a[1, :, 0] = 0.0
    steps, singular = _damped_steps(a, b)
    assert singular.tolist() == [False, True, False] and not steps[1].any()
    assert np.array_equal(steps[[0, 2]], np.linalg.solve(a[[0, 2]], b[[0, 2]])[..., 0])


def test_solver_reported_residual_consistent():
    sol = solve_moment_zero(CTX2, H03, H03, H03, seed=3)
    recomputed = np.linalg.norm(CTX2.compact_coords(sum(p.X for p in sol.points)))
    assert abs(recomputed - sol.residual) < 1e-14


def test_solver_deterministic():
    for solve in (lambda: solve_moment_zero(CTX2, H03, H03, H03, seed=9),
                  lambda: solve_moment_kstar(CTX2, H03, H03, H03, t=0.6, seed=9)):
        a, b = solve(), solve()
        assert isinstance(a, MomentSolution)
        assert a.residual == b.residual and a.trial == b.trial
        for pa, pb in zip(a.points, b.points):
            if a.kind == "zero":
                assert np.array_equal(pa.X, pb.X)
            else:
                assert np.array_equal(pa.kstar.matrix, pb.kstar.matrix)
            assert np.array_equal(pa.witness, pb.witness)


# ---------------------------------------------------------------------------
# dual-level solver
# ---------------------------------------------------------------------------

def test_dual_solver_small_t_continuation():
    sol = solve_moment_kstar(CTX2, H03, H03, H03, t=0.05, seed=1)
    assert isinstance(sol, MomentSolution)
    assert sol.residual <= 1e-9
    for p in sol.points:
        assert p.spectrum_residual() < 1e-9


def test_dual_direct_construction_via_projection():
    """Dual points built by projecting arc holonomies satisfy the unit-product
    constraint without any optimization."""
    t = 0.8
    sol = solve_moment_zero(CTX2, H03, H03, H03, seed=2)
    conn = xi_map(*sol.points, t=t)
    fig = figure_three()
    gs = [holonomy(conn, fig.arc_segments[e], 1e-11) for e in ("e1", "e2", "e3")]
    ks = chi_map(CTX2, *gs)
    prod = ks[0].matrix @ ks[1].matrix @ ks[2].matrix
    assert np.linalg.norm(prod - np.eye(2)) <= 1e-8
    for k, p in zip(ks, sol.points):
        dp = DressingOrbitPoint(kstar=k, H=p.H, t=t)
        assert dp.spectrum_residual() <= 1e-8


def test_dual_solver_infeasible():
    h1 = weyl_normalize([1.0, -1.0])
    h2 = weyl_normalize([0.2, -0.2])
    sol = solve_moment_kstar(CTX2, h1, h2, h2, t=0.1, seed=1, restarts=4)
    assert isinstance(sol, NoSolution)


# ---------------------------------------------------------------------------
# diagonal actions
# ---------------------------------------------------------------------------

def test_diag_coadjoint_preserves_spectra_and_constraint():
    sol = solve_moment_zero(CTX2, H03, H03, H03, seed=4)
    k = CTX2.random_unitary(RNG)
    moved = diag_coadjoint(k, sol.points)
    for p in moved:
        assert p.spectrum_residual() < 1e-12
    assert np.linalg.norm(sum(p.X for p in moved)) < 1e-9


def test_diag_dressing_preserves_unit_level():
    t = 0.7
    sol = solve_moment_kstar(CTX2, H03, H03, H03, t=t, seed=5)
    pts = sol.points
    for _ in range(100):
        k = CTX2.random_unitary(RNG)
        pts = diag_dressing(CTX2, k, pts)
        prod = pts[0].kstar.matrix @ pts[1].kstar.matrix @ pts[2].kstar.matrix
        assert np.linalg.norm(prod - np.eye(2)) <= 1e-9


# ---------------------------------------------------------------------------
# gauge fixing and the reduced dimension
# ---------------------------------------------------------------------------

def test_gauge_fix_idempotent_and_aligned():
    sol = solve_moment_zero(CTX2, H03, H03, H03, seed=6)
    g = gauge_fix(CTX2, sol)
    assert np.max(np.abs(g.points[0].X - H03.matrix)) == 0.0
    assert g.points[1].X[0, 1].real >= 0
    assert abs(g.points[1].X[0, 1].imag) < 1e-12
    g2 = gauge_fix(CTX2, g)
    for a, b in zip(g.points, g2.points):
        assert np.max(np.abs(a.X - b.X)) < 1e-12


def test_gauge_fix_normal_form_unique():
    sol = solve_moment_zero(CTX2, H03, H03, H03, seed=7)
    g = gauge_fix(CTX2, sol)
    for _ in range(5):
        k = CTX2.random_unitary(RNG)
        moved = MomentSolution(kind="zero", points=diag_coadjoint(k, sol.points),
                               residual=sol.residual,
                               regularity_rank=sol.regularity_rank)
        gk = gauge_fix(CTX2, moved)
        for a, b in zip(g.points, gk.points):
            assert np.max(np.abs(a.X - b.X)) < 1e-9


def test_gauge_fix_dual():
    t = 0.9
    sol = solve_moment_kstar(CTX2, H03, H03, H03, t=t, seed=8)
    g = gauge_fix(CTX2, sol)
    want = e_map(CTX2, H03.matrix, t)
    assert np.max(np.abs(g.points[0].kstar.matrix - want.matrix)) < 1e-12
    g2 = gauge_fix(CTX2, g)
    for a, b in zip(g.points, g2.points):
        assert np.max(np.abs(a.kstar.matrix - b.kstar.matrix)) < 1e-10
    assert g.residual < 1e-8


def test_tangent_rank_dimensions():
    sol2 = solve_moment_zero(CTX2, H03, H03, H03, seed=10)
    assert tangent_rank(CTX2, sol2) == 0
    hs = [weyl_normalize(v) for v in ([0.5, 0.1, -0.6], [0.4, -0.1, -0.3],
                                      [0.45, 0.05, -0.5])]
    sol3 = solve_moment_zero(CTX3, *hs, seed=10)
    assert tangent_rank(CTX3, sol3) == 2


def test_tangent_rank_gauge_invariant():
    hs = [weyl_normalize(v) for v in ([0.5, 0.1, -0.6], [0.4, -0.1, -0.3],
                                      [0.45, 0.05, -0.5])]
    sol = solve_moment_zero(CTX3, *hs, seed=12)
    assert tangent_rank(CTX3, sol) == tangent_rank(CTX3, gauge_fix(CTX3, sol))


def test_tangent_rank_dual_level():
    sol = solve_moment_kstar(CTX2, H03, H03, H03, t=0.6, seed=13)
    assert tangent_rank(CTX2, sol) == 0


@pytest.mark.parametrize("t", [0.3, 0.7, 1.0, 2.0])
def test_tangent_rank_dual_level_n3(t):
    """The unit-product level has the zero level's dimension at n = 3, in every gauge;
    the count reads only the dual-group points, not the witnesses."""
    hs = [weyl_normalize(v) for v in ([0.5, 0.1, -0.6], [0.4, -0.1, -0.3],
                                      [0.45, 0.05, -0.5])]
    sol = solve_moment_kstar(CTX3, *hs, t=t, seed=13)
    bare = dataclasses.replace(sol, points=[dataclasses.replace(p, witness=None)
                                            for p in sol.points])
    assert [tangent_rank(CTX3, s) for s in (sol, gauge_fix(CTX3, sol), bare)] == [2, 2, 2]


@pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_dressing_jacobian_matches_central_differences(n, twisted, t):
    """The closed-form Jacobian and slot derivatives against central differences
    of the dressed triples under ``k_i -> exp(±h t_b) k_i``, h = 1e-6."""
    ctx, rng, h = build_algebra(n), np.random.default_rng((n, twisted)), 1e-6
    u = None
    if twisted:
        a = rng.normal(size=(n - 1, n - 1))
        u = np.triu(a, 1) - np.triu(a, 1).T
    hs = [weyl_normalize(v - v.mean()) for v in rng.normal(0.0, 0.3, (3, n))]
    bases = np.array([e_map(ctx, hh.matrix, t, u).matrix for hh in hs])
    ks = ctx.random_unitary(rng, (2, 3))
    mats = _iwasawa_dual(ctx, ks @ bases, u)[0]
    jac, slots = _dressing_jacobian(ctx, mats, u)
    steps = np.array([[expm(s * h * tb) for tb in ctx.compact_basis] for s in (1, -1)])
    ref = np.zeros((2, 3, ctx.dim_compact, n, n), complex)
    for i in range(3):  # move slot i of each stacked triple, both signs and every t_b at once
        moved = _iwasawa_dual(ctx, steps @ ks[:, None, None, i] @ bases[i], u)[0]
        ref[:, i] = (moved[:, 0] - moved[:, 1]) / (2 * h)
    prods = [ref[:, 0] @ mats[:, None, 1] @ mats[:, None, 2],
             mats[:, None, 0] @ ref[:, 1] @ mats[:, None, 2],
             mats[:, None, 0] @ mats[:, None, 1] @ ref[:, 2]]
    ref_jac = np.concatenate([p.reshape(2, ctx.dim_compact, -1).view(float) for p in prods],
                             axis=1).swapaxes(-1, -2)
    assert np.max(np.abs(slots - ref)) <= 1e-7 * np.max(np.abs(ref))
    assert np.max(np.abs(jac - ref_jac)) <= 1e-7 * np.max(np.abs(ref_jac))


@pytest.mark.parametrize("n", [2, 3])
def test_zero_level_jacobian_matches_central_differences(n):
    """The table Jacobian against central differences of the zero-level residual under
    ``k_i -> exp(±h t_a) k_i``, h = 1e-6; a stack's rows equal their single-row Jacobians
    bit for bit."""
    ctx, rng, h = build_algebra(n), np.random.default_rng((n, 31)), 1e-6
    diags = 1j * np.array([weyl_normalize(v - v.mean()).theta
                           for v in rng.normal(0.0, 0.5, (3, n))])
    ks = ctx.random_unitary(rng, (3,))
    jac = _commutator_coords(ctx, _zero_residual(ctx, ks, diags)[0])
    ref = np.zeros_like(jac)
    nb = ctx.dim_compact
    for i in range(3):
        for a, ta in enumerate(ctx.compact_basis):
            moved = [ks.copy(), ks.copy()]
            moved[0][i], moved[1][i] = expm(h * ta) @ ks[i], expm(-h * ta) @ ks[i]
            plus, minus = (_zero_residual(ctx, m, diags)[1] for m in moved)
            ref[:, i * nb + a] = (plus - minus) / (2 * h)
    assert np.max(np.abs(jac - ref)) <= 1e-7 * np.max(np.abs(ref))
    for rows in (1, 2, 31, 100):
        xs = _zero_residual(ctx, ctx.random_unitary(rng, (rows, 3)), diags)[0]
        stack = _commutator_coords(ctx, xs)
        assert stack.shape == (rows, nb, 3 * nb)
        assert all(np.array_equal(stack[r], _commutator_coords(ctx, xs[r])) for r in range(rows))


@pytest.mark.parametrize("n", [2, 3])
def test_solve_starts_equal_single_haar_draws(n, monkeypatch):
    """``_solve`` draws every row's normals from its own generator and turns the whole stack
    into unitaries at once; each start is bit-equal to that generator's own Haar draw."""
    ctx, seeds, starts = (CTX2 if n == 2 else CTX3), [7, (9100, 3)], []

    def record(ctx, residual, jacobian, ks, labels, tol):
        starts.append(ks)
        return ks, np.ones(len(ks)), np.zeros(len(ks), int)

    monkeypatch.setattr(importlib.import_module("trinion.orbits"), "_levenberg_marquardt", record)
    found = _solve(ctx, None, None, np.zeros((2, 3, n)), seeds, 1e-10, 32)
    assert all(isinstance(sol, NoSolution) for sol in found)
    trial0, restarts = starts
    got = [[trial0[p]] + list(restarts[31 * p:31 * (p + 1)]) for p in range(2)]
    for p, seed in enumerate(seeds):
        for j in range(32):
            want = ctx.random_unitary(np.random.default_rng((seed, j)), (3,))
            assert np.array_equal(got[p][j], want), (seed, j)


# ---------------------------------------------------------------------------
# the stacked restarts
# ---------------------------------------------------------------------------

def _zero_sum_spectra(ctx, rng, scale=0.3):
    """Labels read off a random zero-sum triple: always feasible."""
    x1, x2 = ctx.random_compact(rng, scale), ctx.random_compact(rng, scale)
    return [weyl_normalize(np.sort(np.linalg.eigvalsh(-1j * x))[::-1])
            for x in (x1, x2, -(x1 + x2))]


@pytest.mark.parametrize("feasible", [True, False])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("level", ["zero", "kstar"])
def test_stacked_trials_do_not_couple(level, n, feasible):
    """Each trial of a stack ends as it does alone: same residual, iteration and point.

    On feasible labels the identity triple stalls (every point is aligned,
    so the Gauss-Newton step is about zero) while the random starts
    converge; on infeasible ones every trial ends on its own damping or
    stall.  Either way trials leave the stack at different iterations.
    """
    ctx = CTX2 if n == 2 else CTX3
    if feasible:
        hs = _zero_sum_spectra(ctx, np.random.default_rng((n, 21)))
    else:  # the first spectrum outweighs the other two
        hs = [weyl_normalize(np.linspace(x, -x, n)) for x in (1.0, 0.2, 0.2)]
    if level == "zero":
        residual, jacobian = partial(_zero_residual, ctx), partial(_commutator_coords, ctx)
        labels, tol = 1j * np.array([h.theta for h in hs]), 1e-10
    else:
        residual = partial(_kstar_residual, ctx)
        jacobian = lambda mats: _dressing_jacobian(ctx, mats, None)[0]
        labels, tol = np.array([e_map(ctx, h.matrix, 0.7).matrix for h in hs]), 1e-9
    starts = np.array([ctx.random_unitary(np.random.default_rng((n, i)), (3,))
                       for i in range(6)])
    starts[2] = np.eye(n)
    rows = np.array([labels] * len(starts))
    ks, best, iters = _levenberg_marquardt(ctx, residual, jacobian, starts, rows, tol)
    assert len(set(iters)) > 1
    for i in range(len(starts)):
        ks1, best1, iters1 = _levenberg_marquardt(ctx, residual, jacobian, starts[i:i + 1],
                                                  rows[:1], tol)
        assert best1[0] == best[i] and iters1[0] == iters[i], i
        assert np.array_equal(ks1[0], ks[i])


def test_lowest_converging_trial_wins():
    """The winner is the lowest-index trial that converges when run alone."""
    residual, jacobian = partial(_zero_residual, CTX3), partial(_commutator_coords, CTX3)

    def first_alone(labels, starts, tol):
        for i, ks in enumerate(starts):
            if _levenberg_marquardt(CTX3, residual, jacobian, ks[None], labels, tol)[1][0] <= tol:
                return i
        return None

    # a start at the maximum of |X1 + X2 + X3| stalls, so trial 0 fails
    labels = 1j * np.array([[weyl_normalize(v).theta for v in ([0.5, 0.1, -0.6], [0.4, -0.1, -0.3],
                                                               [0.45, 0.05, -0.5])]])
    aligned = np.array([np.eye(3, dtype=complex)] * 3)
    starts = np.array([aligned] + [CTX3.random_unitary(np.random.default_rng((3, i)), (3,))
                                   for i in range(1, 8)])
    (trial, _, _), = _solve(CTX3, residual, jacobian, labels, [3], 1e-10, 8, first=aligned[None])
    assert trial == first_alone(labels, starts, 1e-10) > 0
    # near rounding level, the first random trials of some inputs fail too
    rng = np.random.default_rng(5)
    winners = []
    for seed in range(12):
        hs = _zero_sum_spectra(CTX3, rng, 0.5)
        sol = solve_moment_zero(CTX3, *hs, seed=seed, tol=1e-15, restarts=6)
        starts = np.array([CTX3.random_unitary(np.random.default_rng((seed, i)), (3,))
                           for i in range(6)])
        got = None if isinstance(sol, NoSolution) else sol.trial
        assert got == first_alone(1j * np.array([[h.theta for h in hs]]), starts, 1e-15), seed
        winners.append(got)
    assert any(w not in (0, None) for w in winners)


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_problems_do_not_couple(n):
    """Every problem of a batch ends as it does alone: same trial, points, residual and best
    residual.  The batch mixes feasible and infeasible triples, and at tol 1e-15 some feasible
    ones are won by a trial above 0 or not at all."""
    ctx, scale = (CTX2, 4.0) if n == 2 else (CTX3, 0.5)
    rng = np.random.default_rng((n, 41))
    problems = [_zero_sum_spectra(ctx, rng, scale) for _ in range(8)]
    problems += [[weyl_normalize(np.linspace(x, -x, n)) for x in (1.0, y, 0.2)]
                 for y in (0.2, 0.3, 0.5)]  # the first spectrum outweighs the other two
    batch = _solve_zero(ctx, problems, list(range(len(problems))), 1e-15, 6)
    alone = [solve_moment_zero(ctx, *hs, seed=seed, tol=1e-15, restarts=6)
             for seed, hs in enumerate(problems)]
    assert all(isinstance(sol, NoSolution) for sol in alone[8:])
    assert any(isinstance(sol, MomentSolution) and sol.trial > 0 for sol in alone[:8])
    for a, b in zip(batch, alone, strict=True):
        if isinstance(b, NoSolution):
            assert a == b  # the same best residual, bit for bit, and trial count
            continue
        assert (a.trial, a.residual, a.regularity_rank) == (b.trial, b.residual, b.regularity_rank)
        for p, q in zip(a.points, b.points, strict=True):
            assert np.array_equal(p.X, q.X) and np.array_equal(p.witness, q.witness)
    huge = [weyl_normalize(np.linspace(1e300, -1e300, n))] * 3  # overflows the state at once
    for solve in (lambda: solve_moment_zero(ctx, *huge),
                  lambda: _solve_zero(ctx, problems[:2] + [huge], [0, 1, 2], 1e-10, 4)):
        with pytest.raises(ToleranceNotMet, match="non-finite"):
            solve()


# ---------------------------------------------------------------------------
# Horn's inequalities: the zero level's feasibility oracle
# ---------------------------------------------------------------------------

def test_horn_margin_is_the_triangle_rule_at_n2():
    from trinion.verify import _horn_margin

    values = np.linspace(0.1, 1.0, 10)
    verdicts = set()
    for th in itertools.product(values, repeat=3):
        thetas = [[x, -x] for x in th]
        rule = 2 * max(th) <= sum(th) + 1e-12
        assert (_horn_margin(thetas) >= -1e-12) == rule, th
        verdicts.add(rule)
    assert verdicts == {True, False}


def test_horn_margin_matches_the_solver_at_n3():
    """Away from the faces the solver finds a zero sum exactly when Horn allows one."""
    from trinion.verify import _horn_margin, _sampled_spectra

    rng = np.random.default_rng(31)
    counts = {True: 0, False: 0}
    while sum(counts.values()) < 48:
        hs = _sampled_spectra(CTX3, rng, 0.1, 1.0)
        margin = _horn_margin([h.theta for h in hs])
        if abs(margin) < 0.01:
            continue
        sol = solve_moment_zero(CTX3, *hs, seed=sum(counts.values()), restarts=32)
        assert isinstance(sol, MomentSolution) == (margin > 0), [h.theta for h in hs]
        counts[margin > 0] += 1
    assert min(counts.values()) >= 10


def test_infeasible_distance_record_fails_a_driver_that_gives_up(monkeypatch):
    """A driver capped at 5 iterations still returns ``NoSolution`` where Horn says so, but its
    best residual misses the closed-form distance, and the n = 2 record fails."""
    verify = importlib.import_module("trinion.verify")
    orbits = importlib.import_module("trinion.orbits")
    names = ["moment.oracle_agreement.n2", "moment.infeasible_distance.n2"]
    records = {r.name: r for r in verify.suite_moment_oracle(grid=3)}
    assert all(records[name].status for name in names)
    monkeypatch.setattr(orbits, "_MAX_ITER", 5)
    records = {r.name: r for r in verify.suite_moment_oracle(grid=3)}
    assert records[names[0]].status and not records[names[1]].status


def test_feasible_residual_record_reads_the_returned_points(monkeypatch):
    """The n = 2 feasible-residual record fails when a returned point misses the zero sum."""
    verify = importlib.import_module("trinion.verify")
    solve = verify._solve_zero

    def perturbed(*args):
        sols = solve(*args)
        for sol in sols:
            if isinstance(sol, MomentSolution):
                sol.points[0].X = sol.points[0].X + 1e-6 * CTX2.compact_basis[0]
        return sols

    record = {r.name: r for r in verify.suite_moment_oracle(grid=2)}["moment.feasible_residual.n2"]
    assert record.status and record.residual > 0.0
    monkeypatch.setattr(verify, "_solve_zero", perturbed)
    record = {r.name: r for r in verify.suite_moment_oracle(grid=2)}["moment.feasible_residual.n2"]
    assert not record.status


# (seed, count, lo, hi) of the xi_geometry, chi_side and dimension suites at seed 0
SAMPLER_CALLS = [(0, 20, 0.12, 0.35), (1, 20, 0.15, 0.6), (2, 2, 0.15, 0.6)]


@pytest.mark.parametrize("seed, count, lo, hi", SAMPLER_CALLS)
def test_horn_skip_keeps_the_sampled_solutions(seed, count, lo, hi, monkeypatch):
    """Skipping the solves Horn rules out changes no solution, and every solve succeeds."""
    verify = importlib.import_module("trinion.verify")
    outcomes = []
    solve = verify._solve_zero

    def recorded(*args):
        outcomes.extend(sols := solve(*args))
        return sols

    monkeypatch.setattr(verify, "_solve_zero", recorded)
    skipped = verify._gauge_fixed_solutions(CTX3, seed, count, lo, hi)
    assert outcomes and not any(isinstance(o, NoSolution) for o in outcomes)
    monkeypatch.setattr(verify, "_horn_margin", lambda thetas: 1.0)
    solved = verify._gauge_fixed_solutions(CTX3, seed, count, lo, hi)
    for a, b in zip(skipped, solved, strict=True):
        for p, q in zip(a.points, b.points, strict=True):
            assert np.array_equal(p.X, q.X) and np.array_equal(p.witness, q.witness)
