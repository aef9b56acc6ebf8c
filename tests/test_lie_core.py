import numpy as np
import pytest
from scipy.linalg import expm

from trinion.errors import BoundaryOrbit, InvalidRank, InvalidSpectrum, InvalidTwist
from trinion.lie_core import (bar, build_algebra, cybe_residual, pair, r_matrix,
                              weyl_normalize)

RNG = np.random.default_rng(42)


def test_structure_counts_su2():
    ctx = build_algebra(2)
    assert len(ctx.compact_basis) == 3
    assert len(ctx.cartan_basis) == 1
    assert len(ctx.positive_roots) == 1


def test_structure_counts_su3():
    ctx = build_algebra(3)
    assert len(ctx.compact_basis) == 8
    assert len(ctx.positive_roots) == 3
    assert len(ctx.simple_roots) == 2


def test_fd_exponentials_cached_per_step():
    ctx = build_algebra(2)
    plus, minus = ctx.fd_exponentials(1e-5)
    assert ctx.fd_exponentials(1e-5)[0] is plus
    for t, ep, em in zip(ctx.real_basis, plus, minus):
        assert np.array_equal(ep, expm(1e-5 * t))
        assert np.array_equal(em, expm(-1e-5 * t))
    assert len(ctx.fd_exponentials(1e-4)[0]) == 2 * ctx.dim_compact


def test_invalid_rank():
    with pytest.raises(InvalidRank):
        build_algebra(1)


def test_compact_basis_antihermitian_orthonormal():
    for n in (2, 3):
        ctx = build_algebra(n)
        for x in ctx.compact_basis:
            assert np.max(np.abs(bar(x) + x)) < 1e-14
        gram = np.array([[pair(a, b) for b in ctx.compact_basis]
                         for a in ctx.compact_basis])
        assert np.max(np.abs(gram - np.eye(ctx.dim_compact))) < 1e-13


def test_bar_is_involution_and_antihomomorphism():
    ctx = build_algebra(3)
    for _ in range(20):
        x = ctx.random_compact(RNG) + 1j * ctx.random_compact(RNG)
        y = ctx.random_compact(RNG) + 1j * ctx.random_compact(RNG)
        assert np.max(np.abs(bar(bar(x)) - x)) < 1e-15
        comm = x @ y - y @ x
        assert np.max(np.abs(bar(comm) + (bar(x) @ bar(y) - bar(y) @ bar(x)))) < 1e-13


def test_bar_on_unitary_is_inverse():
    ctx = build_algebra(3)
    g = ctx.random_unitary(RNG)
    assert np.max(np.abs(bar(g) - np.linalg.inv(g))) < 1e-12


def test_pair_positive_on_cartan():
    h = 1j * np.diag([1.0, -1.0])
    assert pair(h, h).real > 0


def test_pair_invariance():
    ctx = build_algebra(3)
    worst = 0.0
    for _ in range(30):
        x, y, z = (ctx.random_compact(RNG) + 1j * ctx.random_compact(RNG) for _ in range(3))
        worst = max(worst, abs(pair(z @ x - x @ z, y) + pair(x, z @ y - y @ z)))
    assert worst < 1e-13


def test_pair_conjugation_symmetry():
    ctx = build_algebra(2)
    for _ in range(10):
        x = ctx.random_compact(RNG) + 1j * ctx.random_compact(RNG)
        y = ctx.random_compact(RNG) + 1j * ctx.random_compact(RNG)
        assert abs(pair(bar(x), bar(y)) - np.conj(pair(x, y))) < 1e-13


def test_root_generator_duality():
    ctx = build_algebra(3)
    e12 = ctx.root_generator(0, 1)
    e21 = ctx.root_generator(1, 0)
    assert pair(e12, e21) == -1.0  # -Tr(E12 E21)


def test_casimir_completeness():
    for n in (2, 3):
        ctx = build_algebra(n)
        worst = 0.0
        for _ in range(100):
            x = ctx.random_compact(RNG)
            rebuilt = sum(pair(t, x).real * t for t in ctx.compact_basis)
            worst = max(worst, np.max(np.abs(rebuilt - x)))
        assert worst < 1e-12


def test_dual_cartan():
    ctx = build_algebra(3)
    for i, h in enumerate(ctx.simple_cartan):
        for j, hd in enumerate(ctx.dual_cartan):
            assert abs(pair(h, hd) - (1.0 if i == j else 0.0)) < 1e-13


def test_weyl_normalize_sorted():
    assert weyl_normalize([0.3, -0.3]).theta == (0.3, -0.3)
    assert weyl_normalize([-0.3, 0.3]).theta == (0.3, -0.3)


def test_weyl_normalize_errors():
    with pytest.raises(InvalidSpectrum):
        weyl_normalize([0.3, 0.3])
    with pytest.raises(BoundaryOrbit):
        weyl_normalize([0.1, 0.1, -0.2])


def test_cartan_vector_matrix():
    h = weyl_normalize([0.5, 0.1, -0.6])
    m = h.matrix
    assert np.max(np.abs(m - 1j * np.diag([0.5, 0.1, -0.6]))) == 0.0
    assert np.max(np.abs(bar(m) + m)) == 0.0


def test_rmatrix_cybe_and_reality():
    for n in (2, 3):
        ctx = build_algebra(n)
        rng = np.random.default_rng(n)
        for _ in range(5):
            t = rng.uniform(0.2, 1.5)
            u = np.zeros((n - 1, n - 1))
            if n == 3:
                u[0, 1] = rng.normal(0, 0.4)
                u[1, 0] = -u[0, 1]
            rm = r_matrix(ctx, t, u)
            assert cybe_residual(ctx, rm.tensor) < 1e-12
            assert np.array_equal(rm.minus_tensor, -rm.tensor.T)
            op_p = rm.operator_form(ctx, "plus")
            op_m = rm.operator_form(ctx, "minus")
            assert np.max(np.abs(op_p.conj().T - op_m)) < 1e-12


def test_rmatrix_zero_scale():
    ctx = build_algebra(2)
    rm = r_matrix(ctx, 0.0)
    assert np.max(np.abs(rm.tensor)) == 0.0


def test_rmatrix_invalid_twist():
    ctx = build_algebra(3)
    with pytest.raises(InvalidTwist):
        r_matrix(ctx, 1.0, np.array([[0.0, 0.3], [0.3, 0.0]]))
    with pytest.raises(InvalidTwist):
        r_matrix(ctx, 1.0, np.zeros((3, 3)))
