import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from trinion.errors import (ConstraintViolated, GeometryError, PoleTooClose,
                            SchemaError, ToleranceNotMet)
from trinion.holonomy import (_SIGMA_ODE_TOL, ArcSegment, Contour, LineSegment,
                              RationalConnection, _cut, _holonomies, _rebased, _sigma_residual,
                              _transport,
                              builtin_catalogue, hole_conjugacy_check, holonomy, holonomy_batch,
                              load_catalogue, resolved_segments, word_segments, xi_map)
from trinion.lie_core import _expm, build_algebra, weyl_normalize
from trinion.orbits import solve_moment_zero

from rk45_reference import dp_holonomy

RNG = np.random.default_rng(17)
CTX2 = build_algebra(2)
CTX3 = build_algebra(3)
CAT = builtin_catalogue()


def su2_triple(theta=0.3, seed=0):
    h = weyl_normalize([theta, -theta])
    sol = solve_moment_zero(CTX2, h, h, h, seed=seed)
    return sol, h


# ---------------------------------------------------------------------------
# xi map
# ---------------------------------------------------------------------------

def test_xi_zero_residues():
    conn = xi_map(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    for name in ("gamma1", "gamma2", "gamma3"):
        h = holonomy(conn, CAT.contours[name])
        assert np.max(np.abs(h - np.eye(2))) < 1e-12


def test_xi_sigma_condition_pointwise():
    x1 = CTX3.random_compact(RNG, 0.4)
    x2 = CTX3.random_compact(RNG, 0.4)
    conn = xi_map(x1, x2, -(x1 + x2), t=1.3)
    zs = RNG.normal(size=50) + 1j * RNG.normal(size=50)
    assert conn.sigma_residual(zs) < 1e-12


def test_xi_rejects_bad_inputs():
    x = CTX2.random_compact(RNG)
    with pytest.raises(ConstraintViolated):
        xi_map(x, x, x)  # sum not zero
    with pytest.raises(ConstraintViolated):
        xi_map(np.diag([1.0, -1.0]), x, None)  # not anti-Hermitian


def test_xi_equivariance_conjugates_holonomies():
    x1 = CTX2.random_compact(RNG, 0.3)
    x2 = CTX2.random_compact(RNG, 0.3)
    k = CTX2.random_unitary(RNG)
    conn = xi_map(x1, x2, None)
    moved = xi_map(k @ x1 @ k.conj().T, k @ x2 @ k.conj().T, None)
    for name in ("gamma1", "eight_narrow"):
        h = holonomy(conn, CAT.contours[name], 1e-11)
        hk = holonomy(moved, CAT.contours[name], 1e-11)
        assert np.linalg.norm(hk - k @ h @ k.conj().T) < 1e-8


# ---------------------------------------------------------------------------
# transport basics
# ---------------------------------------------------------------------------

def test_single_pole_exact_exponential():
    x = CTX2.random_compact(RNG, 0.4)
    conn = RationalConnection(X1=x, X2=np.zeros((2, 2)), scale=1.0)
    cw = holonomy(conn, CAT.contours["gamma1"], 1e-11)
    assert np.linalg.norm(cw - expm(2j * np.pi * x)) < 1e-9
    ccw = holonomy(conn, CAT.contours["gamma1_inv"], 1e-11)
    assert np.linalg.norm(ccw - expm(-2j * np.pi * x)) < 1e-9


def test_reversal_and_concatenation_and_det():
    x1 = CTX3.random_compact(RNG, 0.08)
    x2 = CTX3.random_compact(RNG, 0.08)
    conn = xi_map(x1, x2, None)
    c = CAT.contours["eight_narrow"]
    h = holonomy(conn, c, 1e-11)
    hinv = holonomy(conn, c.reversed(), 1e-11)
    assert np.linalg.norm(hinv - np.linalg.inv(h)) < 1e-10
    assert abs(np.linalg.det(h) - 1.0) < 1e-10
    two = holonomy(conn, list(c.segments) + list(c.segments), 1e-11)
    assert np.linalg.norm(two - h @ h) < 1e-8


def test_word_product_identity():
    sol, _ = su2_triple()
    conn = xi_map(*sol.points)
    segs = word_segments(CAT, ("gamma1", "gamma2", "gamma3"))
    h = holonomy(conn, segs, 1e-11)
    assert np.linalg.norm(h - np.eye(2)) <= 1e-8


def test_integrator_order():
    """Commuting case: exact. Non-commuting case: sixth order, converging to RK45.

    On a single-pole loop A(s) commutes with itself, so every Magnus panel is
    exact and the error is rounding noise at any tolerance.  On eight_narrow
    at n = 3 the error must fall as tol tightens and stay below 2 tol relative
    to the holonomy (tol per unit parameter length, two unit segments).
    """
    x = CTX2.random_compact(RNG, 0.5)
    conn = RationalConnection(X1=x, X2=np.zeros((2, 2)), scale=1.0)
    exact = expm(2j * np.pi * x)
    for tol in (1e-6, 1e-8, 1e-10):
        assert np.linalg.norm(holonomy(conn, CAT.contours["gamma1"], tol) - exact) < 1e-8

    rng = np.random.default_rng(3)
    conn = RationalConnection(X1=CTX3.random_compact(rng, 0.2),
                              X2=CTX3.random_compact(rng, 0.2), scale=1.0)
    eight = CAT.contours["eight_narrow"]
    ref = dp_holonomy(conn, eight, 1e-12)
    errs = []
    for tol in (1e-6, 1e-8, 1e-10):
        err = np.linalg.norm(holonomy(conn, eight, tol) - ref) / np.linalg.norm(ref)
        assert err < 2 * tol
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]

    # the panel rule itself is sixth order: doubling uniform panels cuts the
    # error by about 2^6 (adaptive refinement would hide a lower order)
    from trinion.holonomy import _bracket_basis, _magnus_propagators, _segment_table
    from trinion.lie_core import _workspace

    basis = _bracket_basis(conn.X1[None], conn.X2[None])

    def uniform(m):
        psi = np.eye(3, dtype=complex)
        for seg in eight.segments:
            e = _magnus_propagators(_segment_table([seg]), np.zeros(m, int), np.arange(m) / m,
                                    np.full(m, 1.0 / m), basis, conn.scale, _workspace())
            for j in range(m):  # the propagators come as (n, n, B, panels)
                psi = e[:, :, 0, j] @ psi
        return psi

    coarse, fine = (np.linalg.norm(uniform(m) - ref) for m in (32, 64))
    assert coarse / fine > 40


def test_omega_coefficients_match_the_magnus_formula():
    """The ten coefficients on the bracket basis give the sixth-order exponent of Blanes,
    Casas and Ros, built here from explicit commutators of a_k = p_k X1 + q_k X2:
    a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240, C1 = [a1, a2], C2 = -[a1, 2 a3 + C1]/60."""
    from trinion.holonomy import _bracket_basis, _omega_coefficients

    def br(a, b):
        return a @ b - b @ a

    rng = np.random.default_rng(41)
    for ctx in (CTX2, CTX3):
        x1, x2 = ctx.random_compact(rng, 0.5), ctx.random_compact(rng, 0.5)
        pq = rng.normal(size=(2, 3, 9)) + 1j * rng.normal(size=(2, 3, 9))
        basis = _bracket_basis(x1[None], x2[None])[:, :, 0]  # (n, n, 10)
        got = np.einsum("ijc,cp->pij", basis, _omega_coefficients(pq))
        for p, q, omega in zip(pq[0].T, pq[1].T, got, strict=True):
            a1, a2, a3 = (pk * x1 + qk * x2 for pk, qk in zip(p, q))
            c1 = br(a1, a2)
            c2 = -br(a1, 2 * a3 + c1) / 60
            want = a1 + a3 / 12 + br(-20 * a1 - a3 + c1, a2 + c2) / 240
            assert np.linalg.norm(omega - want) <= 1e-13 * np.linalg.norm(want)


def test_segment_table_is_each_segments_own_z_and_dz():
    """One evaluation over a table of mixed segments gives each segment's own values."""
    from trinion.holonomy import _segment_table, _table_points

    segs = []
    for c in CAT.contours.values():
        segs += c.segments + c.reflected().segments + c.reversed().segments
        for d in c.intersections:
            pieces = _cut(c.segments, [d.seg_param]) + _cut(CAT.contours[d.other].segments,
                                                             [d.other_seg_param])
            segs += [seg for piece in pieces for seg in piece]
            segs += resolved_segments(c, d, CAT.contours[d.other])
    segs += [seg.reflect() for piece in _cut(CAT.contours["gamma3"].segments,
                                             [(1, 0.25), (1, 0.5), (2, 0.9)]) for seg in piece]
    assert {type(seg) for seg in segs} == {LineSegment, ArcSegment}
    rng = np.random.default_rng(6)
    g = np.concatenate([np.arange(len(segs)), rng.integers(len(segs), size=300)])
    s = np.concatenate([rng.uniform(0.0, 1.0, (len(g) - 2, 3)), [[0.0, 0.5, 1.0]] * 2])
    z, dz = _table_points(_segment_table(segs), g, s)
    for k, sk, zk, dzk in zip(g, s, z, dz, strict=True):
        assert np.array_equal(zk, segs[k].z(sk)), segs[k]
        assert np.array_equal(dzk, np.broadcast_to(segs[k].dz(sk), sk.shape)), segs[k]


def test_tree_product_matches_left_fold():
    """The pairwise product tree equals the path-ordered product, first factor rightmost."""
    from trinion.holonomy import _tree_product
    from trinion.lie_core import _workspace

    rng = np.random.default_rng(23)

    def left_fold(mats):  # (m, 2, n, n), first factor applied first
        out = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape[1:]).astype(complex)
        for m in mats:
            out = m @ out
        return out

    for n in (2, 3):
        for m in list(range(1, 10)) + [31, 32, 33, 64, 69, 70]:
            z = rng.normal(size=(m, 2, n, n)) + 1j * rng.normal(size=(m, 2, n, n))
            mats = np.eye(n) + 0.05 * z
            got = _tree_product(mats.transpose(2, 3, 1, 0).copy(), np.arange(m), np.zeros(m, int),
                                _workspace())
            want = left_fold(mats)
            assert got.shape == (n, n, 2, 1)
            err = np.linalg.norm(got[..., 0].transpose(2, 0, 1) - want)
            assert err <= 1e-14 * np.linalg.norm(want)
        # runs of equal labels multiply separately
        sizes = [1, 2, 5, 8, 1, 13, 4]
        mats = np.eye(n) + 0.05 * (rng.normal(size=(sum(sizes), 2, n, n))
                                   + 1j * rng.normal(size=(sum(sizes), 2, n, n)))
        got = _tree_product(mats.transpose(2, 3, 1, 0).copy(), np.arange(sum(sizes)),
                            np.repeat(np.arange(7), sizes), _workspace())
        bounds = np.cumsum([0] + sizes)
        for r, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            want = left_fold(mats[a:b])
            err = np.linalg.norm(got[..., r].transpose(2, 0, 1) - want)
            assert err <= 1e-14 * np.linalg.norm(want)


def test_round_budget_invariance(monkeypatch):
    """Rounds of a few panels, folded every few panels, give the default transports.

    With a budget of 18 matrices a transport of one connection refines three
    or four panels a round, so resolved panels wait behind rejected ones,
    and folds every eighteen resolved panels; a 33-connection stack refines
    one panel a round and folds after each round that resolves one.
    """
    module = importlib.import_module("trinion.holonomy")
    rng = np.random.default_rng(31)
    conns = {n: RationalConnection(X1=ctx.random_compact(rng, 0.3),
                                   X2=ctx.random_compact(rng, 0.3), scale=1.0)
             for n, ctx in ((2, CTX2), (3, CTX3))}
    x1s = np.array([CTX3.random_compact(rng, 0.12) for _ in range(33)])
    x2s = np.array([CTX3.random_compact(rng, 0.12) for _ in range(33)])
    contours = list(CAT.contours.values())
    assert len(contours) == 13

    def transports():
        hols = [holonomy(conns[n], c, tol) for n in (2, 3) for tol in (1e-10, 1e-12)
                for c in contours]
        return hols + list(holonomy_batch(x1s, x2s, 1.0, CAT.contours["double_wind"], 1e-10))

    default = transports()
    monkeypatch.setattr(module, "_CHUNK", 18)
    for got, want in zip(transports(), default):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _stacks(ctx, rng, count):
    return (np.array([ctx.random_compact(rng, 0.12) for _ in range(count)]),
            np.array([ctx.random_compact(rng, 0.12) for _ in range(count)]))


def test_expm_results_outlive_the_workspace():
    """``_expm`` returns new arrays: later kernel calls, on another stack or in a transport,
    leave earlier results and the cached finite-difference exponentials as they were."""
    rng = np.random.default_rng(43)
    z = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    first = _expm(z)
    kept = first.copy()
    for other in (2.0 * z[::-1], z[:1], 4.0 * rng.normal(size=(40, 3, 3)) + 0j):
        _expm(other)
        assert np.array_equal(first, kept)
    plus, minus = CTX3.fd_exponentials(1e-5)
    kept = plus.copy(), minus.copy()
    _transport(*_stacks(CTX3, rng, 33), 1.0, [CAT.contours["double_wind"]], 1e-10)
    assert np.array_equal(plus, kept[0]) and np.array_equal(minus, kept[1])


def test_workspace_growth_keeps_transports(monkeypatch):
    """Transports whose stacks grow and shrink, n = 2 -> 3 -> 2 with 33 -> 1 -> 33 connections,
    give the holonomies that each gives alone on a fresh workspace, and in reverse order."""
    lie_core = importlib.import_module("trinion.lie_core")
    rng = np.random.default_rng(47)
    some = [CAT.contours[name] for name in ("double_wind", "eight_narrow", "gamma1")]
    jobs = [(*_stacks(CTX2, rng, 33), some), (*_stacks(CTX3, rng, 1), list(CAT.contours.values())),
            (*_stacks(CTX2, rng, 33), some)]

    def run(order):
        monkeypatch.setattr(lie_core._LOCAL, "workspace", lie_core._Workspace(), raising=False)
        return {i: _transport(jobs[i][0], jobs[i][1], 1.0, jobs[i][2], 1e-10) for i in order}

    in_turn, backwards = run([0, 1, 2]), run([2, 1, 0])
    for i in range(3):
        alone = run([i])[i]
        assert in_turn[i].tobytes() == alone.tobytes() == backwards[i].tobytes()


def test_warm_transport_allocates_no_stacks():
    """Once the workspace has grown, a 33-connection transport at n = 3 traces only small
    arrays: every (n, n, M) stack of the kernel, about 0.2 MB here, is a workspace view.
    Measured peak 0.31 MB (numpy 2.4; 2.0 MB with the stacks allocated per round)."""
    call = (*_stacks(CTX3, np.random.default_rng(9100), 33), 1.0, [CAT.contours["double_wind"]],
            1e-10)
    _transport(*call)
    tracemalloc.start()
    try:
        _transport(*call)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 512 * 1024


def test_su2_trace_oracle():
    """Fricke identities at n = 2, independent of any ODE solver.

    With c_j = 2 cosh(2 pi lambda_j), lambda_j the spectral radius of X_j,
    the hole relation gives tr Hol(eight_narrow) = c1 c2 - c3 and
    tr Hol(double_wind) = c2 c3 - c1.
    """
    rng = np.random.default_rng(11)
    for _ in range(3):
        x1, x2 = CTX2.random_compact(rng, 0.3), CTX2.random_compact(rng, 0.3)
        c1, c2, c3 = (2.0 * np.cosh(2.0 * np.pi * np.max(np.abs(np.linalg.eigvals(x))))
                      for x in (x1, x2, -(x1 + x2)))
        conn = RationalConnection(X1=x1, X2=x2, scale=1.0)
        for tol in (1e-10, 1e-12):
            for name, want in (("eight_narrow", c1 * c2 - c3), ("double_wind", c2 * c3 - c1)):
                got = np.trace(holonomy(conn, CAT.contours[name], tol))
                assert abs(got - want) <= 1e-9 * abs(want)


def test_batch_matches_single_and_rebased_pieces():
    x1 = CTX2.random_compact(RNG, 0.3)
    x2 = CTX2.random_compact(RNG, 0.3)
    conn = RationalConnection(X1=x1, X2=x2, scale=1.0)
    c = CAT.contours["circle_plus"]
    single = holonomy(conn, c, 1e-11)
    batch = holonomy_batch(x1[None], x2[None], 1.0, c, 1e-11)
    assert np.linalg.norm(batch[0] - single) < 1e-10
    # each re-based loop equals transporting the rotated piece list as one path,
    # and the product of the ``_cut`` pieces transported one at a time; gamma1
    # is cut on a line segment, each bracketed pair at its crossings
    eight = CAT.contours["eight_narrow"]
    crossings = [d.seg_param for d in eight.intersections if d.other == "double_wind"]
    assert len(crossings) == 6
    cut_sets = [(CAT.contours["gamma1"].segments, [(0, 0.4)])]
    for a, b in CAT.pair_names[:-1]:
        data = [d for d in CAT.contours[a].intersections if d.other == b]
        cut_sets += [(CAT.contours[a].segments, [d.seg_param for d in data]),
                     (CAT.contours[b].segments, [d.other_seg_param for d in data])]
    conn3 = RationalConnection(X1=CTX3.random_compact(RNG, 0.3),
                               X2=CTX3.random_compact(RNG, 0.3), scale=1.0)
    # one transport of several paths (contours, reflections and a bare segment
    # list) gives each path's own holonomy; only the Taylor degree of the shared
    # exponential stacks can differ, which moves the last bits
    paths = [CAT.contours[nm] for nm in ("gamma1", "gamma3", "eight_narrow", "double_wind")]
    paths += [CAT.contours["circle_both"].reflected(), CAT.contours["gamma2"].segments]
    for cn in (conn, conn3):
        for path, hol in zip(paths, _holonomies(cn, paths, 1e-11)):
            want = holonomy(cn, path, 1e-11)
            assert np.linalg.norm(hol - want) <= 1e-13 * np.linalg.norm(want)
        for segs, cuts in cut_sets:
            pieces, marks = _cut(segs, cuts), sorted(cuts)
            alone = [holonomy(cn, piece, 1e-11) for piece in pieces]
            rebased = _rebased(_holonomies(cn, pieces, 1e-11), cuts)
            for cut, reb in zip(cuts, rebased):
                j = marks.index(cut) + 1
                rotated = [s for piece in pieces[j:] + pieces[:j] for s in piece]
                assert np.linalg.norm(reb - holonomy(cn, rotated, 1e-11)) < 1e-9
                want = alone[j]
                for m in alone[j + 1:] + alone[:j]:
                    want = m @ want
                assert np.linalg.norm(reb - want) <= 1e-12 * np.linalg.norm(want)


def test_one_transport_per_connection(monkeypatch):
    """xi_geometry transports a solution's loops in one call, goldman_rhs its pieces and
    splices, and suite_goldman a point's finite-difference stack along every contour."""
    from trinion.graph_poisson import goldman_rhs
    from trinion.verify import suite_goldman, suite_xi_geometry

    module = importlib.import_module("trinion.holonomy")
    transport, calls = module._transport, []

    def counted(x1s, x2s, scale, paths, tol):
        calls.append((len(paths), len(x1s)))
        return transport(x1s, x2s, scale, paths, tol)

    monkeypatch.setattr(module, "_transport", counted)
    monkeypatch.setattr(importlib.import_module("trinion.verify"), "_transport", counted)
    for n in (2, 3):
        calls.clear()
        assert all(r.status for r in suite_xi_geometry(ns=(n,), count=1))
        assert calls == [(10, 1)]
    a, b = CAT.contours["circle_plus"], CAT.contours["circle_minus"]
    k = len([d for d in a.intersections if d.other == b.name])
    conn = xi_map(CTX2.random_compact(RNG, 0.1), CTX2.random_compact(RNG, 0.1))
    # the k + 1 pieces of each contour, then every splice
    for geometric, paths in ((True, 2 * (k + 1) + k), (False, 2 * (k + 1))):
        calls.clear()
        goldman_rhs(CTX2, conn, a, b, geometric=geometric)
        assert calls == [(paths, 1)]
    pairs = [(CAT.contours[pa], CAT.contours[pb]) for pa, pb in CAT.pair_names[:5]]
    ks = [len([d for d in pa.intersections if d.other == pb.name]) for pa, pb in pairs]
    names = {c.name for pair in pairs for c in pair}
    for n in (2, 3):
        calls.clear()
        assert all(r.status for r in suite_goldman(ns=(n,), points=1))
        # one point: its stack, one call per crossing sum; then forms_agree's crossing sums
        assert calls == ([(len(names), 4 * (n * n - 1))] + [(2 * (m + 1), 1) for m in ks]
                         + [(2 * (m + 1) + m, 1) for m in ks])


def test_pole_too_close(monkeypatch):
    x = CTX2.random_compact(RNG)
    conn = RationalConnection(X1=x, X2=np.zeros((2, 2)), scale=1.0)

    def no_panels(*args):
        raise AssertionError("a panel was evaluated before the pole check")

    monkeypatch.setattr(importlib.import_module("trinion.holonomy"), "_step_doubling", no_panels)
    # the error names the path: a Contour by its name, a segment list by its place in the call
    with pytest.raises(PoleTooClose, match="^path 0: segment from 1.0500"):
        holonomy(conn, [LineSegment(1.05, 2.0)])
    # starts 0.98 from the poles but passes 0.02 from +1 halfway along
    with pytest.raises(PoleTooClose, match="^path 0: segment from "):
        holonomy(conn, [ArcSegment(0.0, 0.98, np.pi / 2, -np.pi / 2)])
    with pytest.raises(PoleTooClose, match="^path 0: segment from "):
        holonomy_batch(x[None], np.zeros((1, 2, 2)), 1.0,
                       [ArcSegment(0.0, 0.98, np.pi / 2, -np.pi / 2)])
    # only the last segment of the path is too close
    close = [LineSegment(0.0, 0.5), LineSegment(0.5, 0.95)]
    with pytest.raises(PoleTooClose, match="^path 0: segment from 0.5000"):
        holonomy(conn, close)
    # the second of the two pieces holds the close segment
    with pytest.raises(PoleTooClose, match="^path 1: segment from 0.5000"):
        _holonomies(conn, _cut(close, [(0, 0.5)]), 1e-10)
    with pytest.raises(PoleTooClose, match="^close: segment from 0.5000"):
        sigma_residual(conn, Contour(name="close", word=(), segments=close))


def test_unreachable_tolerance_raises():
    """Inputs the transport cannot resolve raise instead of running on."""
    nan = RationalConnection(X1=np.full((2, 2), np.nan), X2=np.zeros((2, 2)), scale=1.0)
    with pytest.raises(ToleranceNotMet, match="^gamma1: non-finite transport state$"):
        holonomy(nan, CAT.contours["gamma1"])
    rng = np.random.default_rng(0)
    huge = RationalConnection(X1=CTX2.random_compact(rng, 1e6),
                              X2=CTX2.random_compact(rng, 1e6), scale=1.0)
    with pytest.raises(ToleranceNotMet):
        holonomy(huge, CAT.contours["eight_narrow"])
    # the first segment of gamma1 is transported by a unitary; the turn
    # around +1 then grows by exp(400 pi) and overflows
    steep = RationalConnection(X1=np.diag([200j, -200j]), X2=np.zeros((2, 2)), scale=1.0)
    with pytest.raises(ToleranceNotMet, match="^gamma1: holonomy overflows$"):
        holonomy(steep, CAT.contours["gamma1"])
    # 1e13 turns around +1: no panel wider than 1e-12 resolves the second segment
    conn = RationalConnection(X1=CTX2.random_compact(rng, 0.3),
                              X2=CTX2.random_compact(rng, 0.3), scale=1.0)
    with pytest.raises(ToleranceNotMet, match="^path 0: adaptive panel width underflow$"):
        holonomy(conn, [LineSegment(0.0, 0.5), ArcSegment(1.0, 0.5, np.pi, np.pi - 2e13 * np.pi)])


# ---------------------------------------------------------------------------
# spectral and reflection checks
# ---------------------------------------------------------------------------

def sigma_residual(conn, contour):
    """Residual of ``Hol(tau(c)) = bar(Hol(c))^{-1}``, as ``suite_xi_geometry`` takes it."""
    return _sigma_residual(*_holonomies(conn, [contour, contour.reflected()], _SIGMA_ODE_TOL))


def test_hole_conjugacy_trivial_and_su2():
    conn = xi_map(np.zeros((2, 2)), np.zeros((2, 2)), None)
    hol = holonomy(conn, CAT.contours["gamma1"])
    rel, hyperbolic = hole_conjugacy_check(hol, weyl_normalize([0.0 + 1e-9, -1e-9]), 0.0)
    assert np.max(np.abs(np.sort(np.linalg.eigvals(hol).real) - 1.0)) < 1e-9
    assert rel < 1e-9 and hyperbolic

    sol, h = su2_triple()
    conn = xi_map(*sol.points, t=np.pi)
    hol = holonomy(conn, CAT.contours["gamma1"])
    rel, hyperbolic = hole_conjugacy_check(hol, h, np.pi)
    want = np.sort([np.exp(-0.6 * np.pi), np.exp(0.6 * np.pi)])
    assert np.max(np.abs(np.sort(np.linalg.eigvals(hol).real) - want)) < 1e-7
    assert rel < 1e-7
    assert hyperbolic


def test_hole_conjugacy_mismatch_raises():
    """A wrong class shows in the returned error; the spectrum stays hyperbolic."""
    sol, h = su2_triple()
    conn = xi_map(*sol.points, t=np.pi)
    wrong = weyl_normalize([0.5, -0.5])
    rel, hyperbolic = hole_conjugacy_check(holonomy(conn, CAT.contours["gamma1"]), wrong, np.pi)
    assert rel > 1e-7
    assert hyperbolic


def test_xi_records_split_spectrum_and_hyperbolicity(monkeypatch):
    """A spectrum off its class fails only xi.hole_spectra, a non-hyperbolic one only
    xi.hyperbolic."""
    verify = importlib.import_module("trinion.verify")
    for result, failing in (((0.5, True), "xi.hole_spectra.n2"),
                            ((0.0, False), "xi.hyperbolic.n2")):
        monkeypatch.setattr(verify, "hole_conjugacy_check", lambda hol, H, t, out=result: out)
        records = verify.suite_xi_geometry(ns=(2,), count=1)
        assert [r.name for r in records if not r.status] == [failing]


def test_sigma_check_and_negative_control():
    sol, _ = su2_triple(seed=3)
    conn = xi_map(*sol.points, t=np.pi)
    for name in ("gamma1", "gamma2", "gamma3", "eight_narrow", "circle_both"):
        assert sigma_residual(conn, CAT.contours[name]) <= 1e-9
    broken = RationalConnection(X1=np.diag([0.3, -0.3]).astype(complex),
                                X2=sol.points[1].X, scale=1.0)
    assert sigma_residual(broken, CAT.contours["gamma1"]) > 1e-3


def test_goldman_function_invariance():
    """The trace of a holonomy, a Goldman function, is invariant under constant gauge."""
    x1 = CTX3.random_compact(RNG, 0.3)
    x2 = CTX3.random_compact(RNG, 0.3)
    conn = xi_map(x1, x2, None)
    flat = xi_map(np.zeros((3, 3)), np.zeros((3, 3)), None)
    assert abs(np.trace(holonomy(flat, CAT.contours["gamma1"])) - 3.0) < 1e-10
    base = np.trace(holonomy(conn, CAT.contours["eight_narrow"], 1e-11))
    for _ in range(5):
        k = CTX3.random_unitary(RNG)
        moved = xi_map(k @ x1 @ k.conj().T, k @ x2 @ k.conj().T, None)
        assert abs(np.trace(holonomy(moved, CAT.contours["eight_narrow"], 1e-11))
                   - base) < 1e-8 * max(1.0, abs(base))


def test_goldman_homotopy_invariance():
    """Two geometric realizations of the same free word have equal traces."""
    x1 = CTX2.random_compact(RNG, 0.25)
    x2 = CTX2.random_compact(RNG, 0.25)
    conn = xi_map(x1, x2, None)
    circle = np.trace(holonomy(conn, CAT.contours["circle_plus"], 1e-11))
    loop = np.trace(holonomy(conn, CAT.contours["gamma1"], 1e-11))
    assert abs(circle - loop) < 1e-8 * max(1.0, abs(circle))


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

def test_catalogue_validates_and_holes_disjoint():
    cat = builtin_catalogue()
    cat.validate()
    g1 = cat.contours["gamma1"]
    assert not [d for d in g1.intersections if d.other == "gamma2"]
    from trinion.holonomy import arc_crossings

    assert not arc_crossings(g1, cat.contours["gamma2"])


def test_catalogue_tau_pairing():
    g1 = CAT.contours["gamma1"]
    refl = g1.reflected()
    inv = CAT.contours[g1.tau_image]
    x = CTX2.random_compact(RNG, 0.3)
    conn = RationalConnection(X1=x, X2=np.zeros((2, 2)), scale=1.0)
    assert np.linalg.norm(holonomy(conn, refl, 1e-11) - holonomy(conn, inv, 1e-11)) < 1e-9


def test_resolution_words_realize_geometrically():
    rng = np.random.default_rng(5)
    x1 = CTX3.random_compact(rng, 0.1)
    x2 = CTX3.random_compact(rng, 0.1)
    conn = RationalConnection(X1=x1, X2=x2, scale=1.0)
    for pa, pb in CAT.pair_names[:-1]:
        ca, cb = CAT.contours[pa], CAT.contours[pb]
        for d in [i for i in ca.intersections if i.other == pb]:
            geo = np.trace(holonomy(conn, resolved_segments(ca, d, cb), 1e-12))
            if d.resolution_word:
                word = np.trace(holonomy(conn, word_segments(CAT, d.resolution_word), 1e-12))
            else:
                word = complex(CTX3.n)
            assert abs(geo - word) <= 1e-8 * max(1.0, abs(geo))


def test_catalogue_roundtrip_json(tmp_path):
    import json

    path = tmp_path / "cat.json"
    with open(path, "w") as fh:
        json.dump(builtin_catalogue().to_dict(), fh)
    cat = load_catalogue(str(path))
    assert set(cat.contours) == set(CAT.contours)
    x = CTX2.random_compact(RNG, 0.3)
    conn = RationalConnection(X1=x, X2=np.zeros((2, 2)), scale=1.0)
    a = holonomy(conn, cat.contours["gamma1"], 1e-11)
    b = holonomy(conn, CAT.contours["gamma1"], 1e-11)
    assert np.linalg.norm(a - b) < 1e-12


def test_catalogue_in_older_format_loads(tmp_path):
    """Files written with the dropped "holes" and "orientation" keys load as without them.

    Both transport bit for bit as the built-in catalogue: a saved point on
    the real axis loads as a real number, as the built-in one is.
    """
    import json

    payload = builtin_catalogue().to_dict()
    current = tmp_path / "current.json"
    current.write_text(json.dumps(payload))
    payload["holes"] = ["gamma1", "gamma2", "gamma3"]
    for contour in payload["contours"]:
        contour["orientation"] = "cw"
    older = tmp_path / "older.json"
    older.write_text(json.dumps(payload))
    old_cat, cat = load_catalogue(str(older)), load_catalogue(str(current))
    assert len(old_cat.contours) == 13
    conn = xi_map(CTX2.random_compact(RNG, 0.3), CTX2.random_compact(RNG, 0.3), None)
    for name, contour in cat.contours.items():
        hol = holonomy(conn, contour)
        assert np.array_equal(holonomy(conn, old_cat.contours[name]), hol)
        assert np.array_equal(hol, holonomy(conn, CAT.contours[name]))


def test_load_catalogue_schema_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"contours": [{"name": "x"}]}')
    with pytest.raises(SchemaError):
        load_catalogue(str(path))


def test_geometry_margin_error():
    c = Contour(name="bad", word=("gamma1",),
                segments=[LineSegment(0, 0.95), ArcSegment(1.0, 0.05, np.pi, -np.pi),
                          LineSegment(0.95, 0)])
    with pytest.raises(GeometryError):
        c.validate()
