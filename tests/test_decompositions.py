import numpy as np
import pytest
from scipy.linalg import expm

from trinion.decompositions import (BracketSpace, dressing_action, e_map, f_inverse,
                                    f_map, group_gradients, iwasawa, iwasawa_dual,
                                    kstar_from_matrix, moment_maps, pi_star_L,
                                    sklyanin_eval)
from trinion.errors import EvaluationError, InvalidSK
from trinion.lie_core import build_algebra, r_matrix, weyl_normalize

RNG = np.random.default_rng(7)


def random_sl(ctx, scale=0.6, rng=RNG):
    n = ctx.n
    x = rng.normal(0, scale, (n, n)) + 1j * rng.normal(0, scale, (n, n))
    x -= np.trace(x) / n * np.eye(n)
    return expm(x)


def random_twist(ctx, rng=RNG):
    m = ctx.n - 1
    u = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            u[i, j] = rng.normal(0, 0.4)
            u[j, i] = -u[i, j]
    return u


# ---------------------------------------------------------------------------
# Iwasawa
# ---------------------------------------------------------------------------

def test_iwasawa_identity():
    ctx = build_algebra(2)
    k, ks = iwasawa(ctx, np.eye(2))
    assert np.max(np.abs(k - np.eye(2))) < 1e-14
    assert np.max(np.abs(ks.matrix - np.eye(2))) < 1e-14


def test_iwasawa_factor_already_in_leg():
    ctx = build_algebra(3)
    g = ctx.random_unitary(RNG)
    k, ks = iwasawa(ctx, g)
    assert np.max(np.abs(k - g)) < 1e-13
    assert np.max(np.abs(ks.matrix - np.eye(3))) < 1e-13
    up = np.triu(RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3)), 1) + np.diag(
        np.exp([-0.2, 0.5, -0.3]))
    up /= np.linalg.det(up) ** (1 / 3)
    k, ks = iwasawa(ctx, up)
    assert np.max(np.abs(k - np.eye(3))) < 1e-12
    assert np.max(np.abs(ks.matrix - up)) < 1e-12


def test_iwasawa_roundtrip_and_uniqueness():
    for n in (2, 3):
        ctx = build_algebra(n)
        rng = np.random.default_rng(n * 11)
        for _ in range(200):
            u = random_twist(ctx, rng)
            g = random_sl(ctx, rng=rng)
            k, ks = iwasawa(ctx, g, u=u)
            assert np.linalg.norm(k @ ks.matrix - g) <= 1e-12 * np.linalg.norm(g)
            assert np.linalg.norm(k.conj().T @ k - np.eye(n)) < 1e-12
            assert ks.phase_residual(ctx, u) < 1e-12
            k2, ks2 = iwasawa(ctx, k @ ks.matrix, u=u)
            assert np.max(np.abs(k2 - k)) < 1e-12
            assert np.max(np.abs(ks2.matrix - ks.matrix)) < 1e-12


def test_iwasawa_dual_order():
    ctx = build_algebra(3)
    u = random_twist(ctx)
    g = random_sl(ctx)
    ks, k = iwasawa_dual(ctx, g, u=u)
    assert np.linalg.norm(ks.matrix @ k - g) < 1e-11 * np.linalg.norm(g)
    assert np.max(np.abs(np.tril(ks.matrix, -1))) < 1e-12
    assert ks.phase_residual(ctx, u) < 1e-11


# ---------------------------------------------------------------------------
# f and e maps
# ---------------------------------------------------------------------------

def test_f_map_identity_and_diag():
    ctx = build_algebra(2)
    ident = kstar_from_matrix(ctx, np.eye(2))
    assert np.max(np.abs(f_map(ident).matrix - np.eye(2))) == 0.0
    d = 1.7
    ks = kstar_from_matrix(ctx, np.diag([d, 1 / d]).astype(complex))
    s = f_map(ks)
    assert np.max(np.abs(s.matrix - np.diag([d ** 2, 1 / d ** 2]))) < 1e-14


def test_f_roundtrip_random():
    ctx = build_algebra(3)
    rng = np.random.default_rng(5)
    u = random_twist(ctx, rng)
    for _ in range(100):
        theta = rng.normal(0, 0.5, 3)
        theta -= theta.mean()
        from trinion.decompositions import _theta_twist

        m = np.diag(np.exp(-theta + 1j * _theta_twist(ctx, u, theta))).astype(complex)
        m[np.triu_indices(3, 1)] = rng.normal(0, 0.6, 3) + 1j * rng.normal(0, 0.6, 3)
        ks = kstar_from_matrix(ctx, m)
        back = f_inverse(ctx, f_map(ks), u)
        assert np.linalg.norm(back.matrix - ks.matrix) < 1e-11


def test_f_inverse_rejects_non_positive():
    ctx = build_algebra(2)
    with pytest.raises(InvalidSK):
        f_inverse(ctx, np.diag([1.0, -1.0]))
    with pytest.raises(InvalidSK):
        f_inverse(ctx, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_e_map_trivial_cases():
    ctx = build_algebra(2)
    assert np.max(np.abs(e_map(ctx, np.zeros((2, 2)), 0.8).matrix - np.eye(2))) < 1e-14
    x = ctx.random_compact(RNG)
    assert np.max(np.abs(e_map(ctx, x, 0.0).matrix - np.eye(2))) < 1e-14


def test_e_map_diagonal_example():
    ctx = build_algebra(2)
    th = 0.43
    t = 0.9
    h = weyl_normalize([th, -th])
    ks = e_map(ctx, h, t)
    want = np.diag([np.exp(-t * th), np.exp(t * th)])
    assert np.max(np.abs(ks.matrix - want)) < 1e-13


def test_e_map_value():
    ctx = build_algebra(3)
    u = random_twist(ctx)
    t = 0.7
    x = ctx.random_compact(RNG)
    ks = e_map(ctx, x, t, u)
    assert np.linalg.norm(f_map(ks).matrix - expm(2j * t * x)) < 1e-12


# ---------------------------------------------------------------------------
# dressing and moment maps
# ---------------------------------------------------------------------------

def test_dressing_trivial():
    ctx = build_algebra(3)
    ks = e_map(ctx, ctx.random_compact(RNG), 0.6)
    rho, rho_star = dressing_action(ctx, np.eye(3), ks)
    assert np.max(np.abs(rho - np.eye(3))) < 1e-13
    assert np.max(np.abs(rho_star.matrix - ks.matrix)) < 1e-13
    k = ctx.random_unitary(RNG)
    rho, rho_star = dressing_action(ctx, k, kstar_from_matrix(ctx, np.eye(3)))
    assert np.max(np.abs(rho - k)) < 1e-12
    assert np.max(np.abs(rho_star.matrix - np.eye(3))) < 1e-12


def test_dressing_equivariance():
    for n in (2, 3):
        ctx = build_algebra(n)
        rng = np.random.default_rng(n * 17)
        u = random_twist(ctx, rng)
        for _ in range(100):
            t = rng.uniform(0.2, 1.4)
            x = ctx.random_compact(rng, 0.5)
            k = ctx.random_unitary(rng)
            _, dressed = dressing_action(ctx, k, e_map(ctx, x, t, u), u)
            target = e_map(ctx, k @ x @ k.conj().T, t, u)
            assert np.linalg.norm(dressed.matrix - target.matrix) < 1e-9


def test_moment_maps_trivial():
    ctx = build_algebra(3)
    g = ctx.random_unitary(RNG)
    ml, mr = moment_maps(ctx, g)
    assert np.max(np.abs(ml.matrix - np.eye(3))) < 1e-12
    assert np.max(np.abs(mr.matrix - np.eye(3))) < 1e-12
    ks = e_map(ctx, ctx.random_compact(RNG), 0.5)
    ml, mr = moment_maps(ctx, ks.matrix)
    assert np.max(np.abs(ml.matrix - ks.matrix)) < 1e-12


def test_lu_weinstein_moment_property():
    """Directional derivative of the left action equals the double-bracket
    pairing with the dual-valued moment differential, across (t, u)."""
    ctx = build_algebra(2)
    rng = np.random.default_rng(23)
    h = 1e-5
    worst = 0.0
    for trial in range(20):
        t = rng.uniform(0.4, 1.4)
        u = random_twist(ctx, rng)
        rm = r_matrix(ctx, t, u)
        g = random_sl(ctx, rng=rng)
        x = ctx.random_compact(rng)
        m0 = pi_star_L(ctx, g, u=u).matrix

        def omega(direction, frame):
            gp = g @ expm(h * direction) if frame == "right" else expm(h * direction) @ g
            gm = g @ expm(-h * direction) if frame == "right" else expm(-h * direction) @ g
            dm = (pi_star_L(ctx, gp, u=u).matrix - pi_star_L(ctx, gm, u=u).matrix) / (2 * h)
            return np.imag(np.trace(dm @ np.linalg.inv(m0) @ x)) / t

        om_right = np.array([omega(b, "right") for b in ctx.real_basis])
        om_left = np.array([omega(b, "left") for b in ctx.real_basis])
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        psi = lambda m: float(np.real(np.trace(c @ m)))
        v_x = (psi(expm(h * x) @ g) - psi(expm(-h * x) @ g)) / (2 * h)
        gl, gr = group_gradients(ctx, psi, g, h)
        # bracket of the moment 1-form against d psi, double wiring
        rhs = om_right @ rm.tensor @ gr - om_left @ rm.tensor.T @ gl
        worst = max(worst, abs(v_x - rhs) / max(1.0, abs(v_x)))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# bracket evaluator
# ---------------------------------------------------------------------------

def test_sklyanin_constant_and_antisymmetry():
    ctx = build_algebra(2)
    rm = r_matrix(ctx, 1.0)
    g = random_sl(ctx)
    const = lambda m: 1.0
    f = lambda m: float(np.real(m[0, 1]))
    for space in BracketSpace:
        assert abs(sklyanin_eval(ctx, space, const, f, g, rm)) < 1e-10
        v = sklyanin_eval(ctx, space, f, f, g, rm)
        assert abs(v) < 1e-10


def test_sklyanin_dual_matches_dense_contraction():
    """Second implementation: dense loop over basis pairs, forward differences."""
    ctx = build_algebra(2)
    rm = r_matrix(ctx, 0.8)
    rng = np.random.default_rng(3)
    ks = e_map(ctx, ctx.random_compact(rng, 0.5), 0.8).matrix
    f1 = lambda m: float(np.real(m[0, 0]))
    f2 = lambda m: float(np.real(m[0, 1]))
    got = sklyanin_eval(ctx, BracketSpace.DualGroup, f1, f2, ks, rm)

    h = 1e-6
    total = 0.0
    for a, ta in enumerate(ctx.real_basis):
        for b, tb in enumerate(ctx.real_basis):
            if rm.tensor[a, b] == 0.0:
                continue
            dl1 = (f1(expm(h * ta) @ ks) - f1(expm(-h * ta) @ ks)) / (2 * h)
            dl2 = (f2(expm(h * tb) @ ks) - f2(expm(-h * tb) @ ks)) / (2 * h)
            dr1 = (f1(ks @ expm(h * ta)) - f1(ks @ expm(-h * ta))) / (2 * h)
            dr2 = (f2(ks @ expm(h * tb)) - f2(ks @ expm(-h * tb))) / (2 * h)
            total += rm.tensor[a, b] * (dl1 * dl2 - dr1 * dr2)
    assert abs(got - total) < 1e-7


def test_sklyanin_nonfinite_raises():
    ctx = build_algebra(2)
    rm = r_matrix(ctx, 1.0)
    bad = lambda m: float("nan")
    ok = lambda m: float(np.real(m[0, 0]))
    with pytest.raises(EvaluationError):
        sklyanin_eval(ctx, BracketSpace.DualGroup, bad, ok, np.eye(2), rm)
