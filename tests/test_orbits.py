import numpy as np
import pytest

from trinion.decompositions import e_map
from trinion.errors import EvaluationError
from trinion.graph_poisson import chi_map, figure_three
from trinion.holonomy import holonomy, xi_map
from trinion.lie_core import build_algebra, pair, weyl_normalize
from trinion.orbits import (DressingOrbitPoint, MomentSolution, NoSolution,
                            diag_coadjoint, diag_dressing, gauge_fix, kk_bracket,
                            orbit_point, sample_orbit, solve_moment_kstar,
                            solve_moment_zero, tangent_rank)

RNG = np.random.default_rng(11)
CTX2 = build_algebra(2)
CTX3 = build_algebra(3)
H03 = weyl_normalize([0.3, -0.3])


def test_orbit_point_identity_witness():
    p = orbit_point(CTX3, weyl_normalize([0.5, 0.1, -0.6]), np.eye(3))
    assert np.max(np.abs(p.X - p.H.matrix)) == 0.0


def test_orbit_spectrum_preserved():
    h = weyl_normalize([0.5, 0.1, -0.6])
    for _ in range(100):
        p = orbit_point(CTX3, h, CTX3.random_unitary(RNG))
        assert p.spectrum_residual() < 1e-12


def test_sample_orbit_deterministic():
    a = sample_orbit(CTX2, H03, seed=123)
    b = sample_orbit(CTX2, H03, seed=123)
    assert np.array_equal(a.X, b.X)


def test_kk_linear_functions_exact():
    """Linear functions have constant gradients, so the bracket is forced."""
    y1 = CTX2.random_compact(RNG)
    y2 = CTX2.random_compact(RNG)
    p = CTX2.random_compact(RNG)
    f1 = lambda x: float(pair(x, y1).real)
    f2 = lambda x: float(pair(x, y2).real)
    want = pair(p, y1 @ y2 - y2 @ y1).real
    assert abs(kk_bracket(CTX2, f1, f2, p) - want) < 1e-9


def test_kk_casimir_central():
    p = CTX2.random_compact(RNG)
    cas = lambda x: float(pair(x, x).real)
    f = lambda x: float(np.real(x[0, 1]))
    assert abs(kk_bracket(CTX2, cas, f, p)) < 1e-9


def test_kk_quadratic_closed_form():
    """Gradient of <x,y>^2 is 2<x,y> y; compare against the closed form."""
    y1 = CTX3.random_compact(RNG)
    y2 = CTX3.random_compact(RNG)
    p = CTX3.random_compact(RNG)
    f1 = lambda x: float(pair(x, y1).real ** 2)
    f2 = lambda x: float(pair(x, y2).real ** 2)
    g1 = 2 * pair(p, y1).real * y1
    g2 = 2 * pair(p, y2).real * y2
    want = pair(p, g1 @ g2 - g2 @ g1).real
    got = kk_bracket(CTX3, f1, f2, p)
    assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


def test_kk_nonfinite():
    with pytest.raises(EvaluationError):
        kk_bracket(CTX2, lambda x: float("inf"), lambda x: 0.0, CTX2.random_compact(RNG))


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
    ks = chi_map(CTX2, *gs, t=t)
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
