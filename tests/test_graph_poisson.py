import numpy as np
import pytest
from scipy.linalg import expm

from trinion.decompositions import f_map, group_gradients
from trinion.errors import MissingIntersectionData, SchemaError
from trinion.graph_poisson import (CiliatedGraph, GraphConnection, _end_covector, chi_map,
                                   figure_three, fr_bracket, fr_vs_kstar,
                                   goldman_rhs, graph_gauge, reality_project)
from trinion.holonomy import builtin_catalogue, holonomy, xi_map
from trinion.lie_core import bar, build_algebra, r_matrix, weyl_normalize
from trinion.orbits import diag_dressing, DressingOrbitPoint, solve_moment_zero

RNG = np.random.default_rng(29)
CTX2 = build_algebra(2)
CTX3 = build_algebra(3)
FIG = figure_three()


def random_sl(ctx, scale=0.4, rng=RNG):
    n = ctx.n
    x = rng.normal(0, scale, (n, n)) + 1j * rng.normal(0, scale, (n, n))
    x -= np.trace(x) / n * np.eye(n)
    return expm(x)


def entry(rng, n):
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return lambda m, c=c: float(np.real(np.trace(c @ m)))


# ---------------------------------------------------------------------------
# graph structure
# ---------------------------------------------------------------------------

def test_graphs_validate():
    FIG.bracket_graph.validate()
    FIG.reality_graph.validate()


def test_tau_reverses_orders():
    g = FIG.reality_graph
    for v, vt in g.tau_vertices.items():
        mirrored = [(g.tau_edges[e], w) for (e, w) in reversed(g.orders[vt])]
        assert mirrored == g.orders[v]


def test_bad_order_rejected():
    with pytest.raises(SchemaError):
        CiliatedGraph(vertices=["a", "b"], edges={"e": ("a", "b")},
                      orders={"a": [("e", "tgt")], "b": [("e", "src")]}).validate()


def test_face_words_flat_for_arc_holonomies():
    """Arc holonomies of a rational connection are flat on the shipped graph:
    the empty faces are trivial and the hole faces land in the right class."""
    h = weyl_normalize([0.3, -0.3])
    sol = solve_moment_zero(CTX2, h, h, h, seed=21)
    t = 0.8
    conn_rat = xi_map(*sol.points, t=t)
    a = GraphConnection({e: holonomy(conn_rat, FIG.arc_segments[e], 1e-11)
                         for e in FIG.reality_graph.edges})
    assert a.reality_residual(FIG.reality_graph) < 1e-9
    for face in FIG.reality_graph.faces:
        hol = FIG.reality_graph.face_holonomy(a, face["word"])
        if face["kind"] == "empty":
            assert np.linalg.norm(hol - np.eye(2)) < 1e-9
        else:
            ev = np.sort(np.linalg.eigvals(hol).real)
            want = np.sort(np.exp(-2 * t * np.array(h.theta)))
            assert np.max(np.abs(ev - want) / want) < 1e-8


# ---------------------------------------------------------------------------
# graph bracket
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ctx", [CTX2, CTX3])
def test_end_covectors_are_group_gradients(ctx):
    """A target end carries the left gradient, a source end minus the right one."""
    rng = np.random.default_rng(31)
    f = entry(rng, ctx.n)
    conn = GraphConnection({e: random_sl(ctx, rng=rng) for e in ("e1", "e2", "e3")})
    grad_l, grad_r = group_gradients(ctx, f, conn["e1"], fd_step=1e-6)

    def psi(a):
        return f(a["e1"])

    assert np.array_equal(_end_covector(ctx, psi, conn, "e1", "tgt", 1e-6), grad_l)
    assert np.array_equal(_end_covector(ctx, psi, conn, "e1", "src", 1e-6), -grad_r)
    assert not np.any(_end_covector(ctx, psi, conn, "e2", "tgt", 1e-6))


def test_fr_vertex_disjoint_functions_commute():
    graph = CiliatedGraph(
        vertices=["a", "b", "c", "d"],
        edges={"e1": ("a", "b"), "e2": ("c", "d")},
        orders={"a": [("e1", "src")], "b": [("e1", "tgt")],
                "c": [("e2", "src")], "d": [("e2", "tgt")]},
    ).validate()
    conn = GraphConnection({"e1": random_sl(CTX2), "e2": random_sl(CTX2)})
    rm = r_matrix(CTX2, 1.0)
    f1 = lambda a: float(np.real(a["e1"][0, 1]))
    f2 = lambda a: float(np.imag(a["e2"][0, 0]))
    assert abs(fr_bracket(CTX2, graph, f1, f2, conn, rm)) < 1e-12


def test_fr_self_bracket_vanishes():
    conn = GraphConnection({e: random_sl(CTX2) for e in ("e1", "e2", "e3")})
    rm = r_matrix(CTX2, 1.0)
    f = lambda a: float(np.real(np.trace(a["e1"] @ a["e2"])))
    assert abs(fr_bracket(CTX2, FIG.bracket_graph, f, f, conn, rm)) < 1e-9


def test_fr_gauge_descent():
    """Brackets of gauge-invariant functions are constant on gauge orbits."""
    rng = np.random.default_rng(4)
    ctx = CTX3
    rm = r_matrix(ctx, 1.0)
    conn = GraphConnection({e: random_sl(ctx, rng=rng) for e in FIG.reality_graph.edges})

    def hole1(a):
        return np.linalg.inv(a["e1_bar"]) @ a["e1"]

    def hole2(a):
        return a["e2"] @ np.linalg.inv(a["e2_bar"])

    psi1 = lambda a: float(np.real(np.trace(hole1(a) @ hole2(a))))
    psi2 = lambda a: float(np.real(np.trace(hole1(a) @ np.linalg.inv(hole2(a)))))
    base = fr_bracket(ctx, FIG.reality_graph, psi1, psi2, conn, rm)
    worst = 0.0
    for _ in range(20):
        ks = {v: ctx.random_unitary(rng) for v in FIG.reality_graph.vertices}
        moved = graph_gauge(FIG.reality_graph, conn, ks)
        worst = max(worst, abs(fr_bracket(ctx, FIG.reality_graph, psi1, psi2, moved, rm)
                               - base))
    assert worst <= 1e-4 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# reality structure
# ---------------------------------------------------------------------------

def test_reality_project_idempotent_and_fixing():
    for _ in range(100):
        conn = GraphConnection({e: random_sl(CTX2) for e in FIG.reality_graph.edges})
        proj = reality_project(FIG.reality_graph, conn)
        assert proj.reality_residual(FIG.reality_graph) < 1e-12
        proj2 = reality_project(FIG.reality_graph, proj)
        for e in proj:
            assert np.array_equal(proj[e], proj2[e])
        for e in ("e1", "e2", "e3"):
            assert np.array_equal(proj[e], conn[e])


def test_reality_bracket_real_on_invariants_and_extension_independent():
    """On compliant connections, brackets of real gauge-invariant functions
    are real and do not depend on how the functions are written through the
    reflection constraint (the bracket descends to the reduced algebra)."""
    rng = np.random.default_rng(6)
    for ctx in (CTX2, CTX3):
        rm = r_matrix(ctx, 1.0)
        conn = reality_project(FIG.reality_graph,
                               GraphConnection({e: random_sl(ctx, rng=rng)
                                                for e in FIG.reality_graph.edges}))

        def h1_mixed(a):
            return np.linalg.inv(a["e1_bar"]) @ a["e1"]

        def h1_plain(a):
            return bar(a["e1"]) @ a["e1"]

        def h2(a):
            return a["e2"] @ np.linalg.inv(a["e2_bar"])

        f_mixed = lambda a: float(np.real(np.trace(h1_mixed(a) @ h2(a))))
        f_plain = lambda a: float(np.real(np.trace(h1_plain(a) @ h2(a))))
        psi = lambda a: float(np.real(np.trace(h1_mixed(a) @ np.linalg.inv(h2(a)))))
        v_mixed = fr_bracket(ctx, FIG.reality_graph, f_mixed, psi, conn, rm)
        v_plain = fr_bracket(ctx, FIG.reality_graph, f_plain, psi, conn, rm)
        assert abs(v_mixed - v_plain) <= 1e-8 * max(1.0, abs(v_mixed))


def test_reality_project_rejects_fixed_edges():
    g = CiliatedGraph(vertices=["a"], edges={"e": ("a", "a")},
                      orders={"a": [("e", "src"), ("e", "tgt")]},
                      tau_edges={"e": "e"})
    with pytest.raises(SchemaError):
        reality_project(g, GraphConnection({"e": np.eye(2)}))


# ---------------------------------------------------------------------------
# chi map
# ---------------------------------------------------------------------------

def test_chi_trivial():
    ks = chi_map(CTX2, np.eye(2), np.eye(2), np.eye(2))
    for k in ks:
        assert np.max(np.abs(k.matrix - np.eye(2))) < 1e-14


def test_chi_equivariance_diagonal_dressing():
    for _ in range(50):
        gs = [random_sl(CTX2) for _ in range(3)]
        k = CTX2.random_unitary(RNG)
        lhs = chi_map(CTX2, k @ gs[0], gs[1], gs[2])
        base = chi_map(CTX2, *gs)
        pts = [DressingOrbitPoint(kstar=ki, H=None, t=1.0) for ki in base]
        rhs = diag_dressing(CTX2, k, pts)
        for a, b in zip(lhs, rhs):
            assert np.linalg.norm(a.matrix - b.kstar.matrix) < 1e-10


def test_chi_product_condition():
    gs = [random_sl(CTX3) for _ in range(2)]
    gs.append(np.linalg.inv(gs[0] @ gs[1]))
    ks = chi_map(CTX3, *gs)
    prod = ks[0].matrix @ ks[1].matrix @ ks[2].matrix
    assert np.linalg.norm(prod - np.eye(3)) < 1e-9


def test_chi_hole_classes_from_bar_product():
    """f(k*_1) equals g1 bar(g1) exactly; later factors are conjugate to it."""
    g1 = random_sl(CTX2)
    ks = chi_map(CTX2, g1, np.eye(2), np.linalg.inv(g1))
    assert np.linalg.norm(f_map(ks[0]).matrix - g1 @ bar(g1)) < 1e-11


# ---------------------------------------------------------------------------
# crossing sums
# ---------------------------------------------------------------------------

def test_goldman_rhs_disjoint_zero():
    cat = builtin_catalogue()
    x1 = CTX2.random_compact(RNG, 0.3)
    conn = xi_map(x1, -x1, None)
    rep = goldman_rhs(CTX2, conn, cat.contours["gamma1"], cat.contours["gamma2"])
    assert rep["casimir_form"] == 0j and rep["trace_form"] == 0j


def test_goldman_rhs_missing_data():
    cat = builtin_catalogue()
    x1 = CTX2.random_compact(RNG, 0.3)
    conn = xi_map(x1, -x1, None)
    with pytest.raises(MissingIntersectionData):
        goldman_rhs(CTX2, conn, cat.contours["eight_wide_rev"], cat.contours["eight_narrow"])


def test_fr_vs_kstar_cross_slot_zero():
    gs = [random_sl(CTX2) for _ in range(3)]
    rm = r_matrix(CTX2, 1.0)
    rng = np.random.default_rng(8)
    rep = fr_vs_kstar(CTX2, FIG, 0, entry(rng, 2), 1, entry(rng, 2), gs, rm)
    assert abs(rep["fr_value"]) < 1e-6 and abs(rep["plb_value"]) < 1e-12


def test_fr_vs_kstar_same_slot_matches():
    rng = np.random.default_rng(9)
    for ctx in (CTX2, CTX3):
        gs = [random_sl(ctx, rng=rng) for _ in range(3)]
        rm = r_matrix(ctx, 1.0)
        for slot in (0, 1, 2):
            rep = fr_vs_kstar(ctx, FIG, slot, entry(rng, ctx.n), slot, entry(rng, ctx.n),
                              gs, rm)
            assert rep["rel_err"] < 1e-6


def test_fr_vs_kstar_with_twist_and_scale():
    ctx = CTX3
    rng = np.random.default_rng(10)
    u = np.array([[0.0, 0.31], [-0.31, 0.0]])
    t = 0.75
    rm = r_matrix(ctx, t, u)
    gs = [random_sl(ctx, rng=rng) for _ in range(3)]
    rep = fr_vs_kstar(ctx, FIG, 1, entry(rng, 3), 1, entry(rng, 3), gs, rm, t=t, u=u)
    assert rep["rel_err"] < 1e-5
