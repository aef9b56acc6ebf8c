from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from trinion.errors import BoundaryOrbit, InvalidRank, InvalidSpectrum, InvalidTwist
from trinion.lie_core import (_TAYLOR, _expm, bar, build_algebra, cybe_residual, pair, r_matrix,
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_constants_match_elementwise_loop(n):
    """Coordinates over leading axes and the stacked commutator are bit-equal to the
    per-element loop they replace."""
    ctx = build_algebra(n)

    def coords(x):
        a, b = (x - x.conj().T) / 2, -1j * (x + x.conj().T) / 2
        return np.array([pair(t, y).real for y in (a, b) for t in ctx.compact_basis])

    rb = ctx.real_basis
    want = np.array([[coords(a @ c - c @ a) for c in rb] for a in rb])
    assert np.array_equal(ctx.structure_constants(), want)
    x = RNG.normal(size=(4, n, n)) + 1j * RNG.normal(size=(4, n, n))
    assert np.array_equal(ctx.real_coords(x), np.array([coords(m) for m in x]))
    assert np.array_equal(ctx.real_coords(x[0]), coords(x[0]))


def _rounded_expm(m, terms=14):
    """The correctly rounded exponential of the float matrix ``m``: its Taylor sum to ``terms``
    terms in exact rational arithmetic, on the real form ``[[re, -im], [im, re]]``, each part of
    each entry rounded once by ``float(Fraction)``."""
    n = len(m)
    x = np.array([[Fraction(v) for v in row] for row in np.block([[m.real, -m.imag],
                                                                   [m.imag, m.real]])])
    term = np.array([[Fraction(int(i == j)) for j in range(2 * n)] for i in range(2 * n)])
    total = term
    for k in range(1, terms):
        term = term.dot(x) / k
        total = total + term
    return np.array([[complex(float(total[i, j]), float(total[n + i, j])) for j in range(n)]
                     for i in range(n)])


def test_fd_exponentials_cached_per_step():
    """The step exponentials are built once per step, in one stacked call, and each entry is
    the correctly rounded exponential of the float matrix ``±h t_a`` exponentiated."""
    ctx = build_algebra(2)
    plus, minus = ctx.fd_exponentials(1e-5)
    assert ctx.fd_exponentials(1e-5)[0] is plus
    stack = _expm(np.array([1e-5, -1e-5])[:, None, None, None] * ctx.real_basis)
    assert np.array_equal(plus, stack[0]) and np.array_equal(minus, stack[1])
    for n in (2, 3):
        ctx = build_algebra(n)
        for h in (1e-6, 1e-5, 1e-4):
            steps = np.array([h, -h])[:, None, None, None] * ctx.real_basis
            for got, m in zip(np.concatenate(ctx.fd_exponentials(h)), steps.reshape(-1, n, n)):
                assert np.array_equal(got, _rounded_expm(m))
    assert len(ctx.fd_exponentials(1e-4)[0]) == 2 * ctx.dim_compact


def test_expm_matches_scipy():
    # norms through every Taylor degree and scaling and squaring, with 1-norms just below and
    # just above each degree's bound
    norms = [1e-9, 0.01, 0.2, 0.9, 2.0, 5.0, 20.0, 35.0, 50.0]
    norms += [theta * f for _, theta in _TAYLOR for f in (1 - 1e-6, 1 + 1e-6)]
    stacks = []
    for n in (2, 3, 4, 5):
        z = RNG.normal(size=(len(norms), n, n)) + 1j * RNG.normal(size=(len(norms), n, n))
        stacks.append(z * (np.array(norms) / np.abs(z).sum(axis=-2).max(axis=-1))[:, None, None])
    # ``pi J``, ``J`` the rotation generator, whose exponential ``-I`` has off-diagonal entries
    # that cancel to rounding, and a rotation in the (0, 2) plane coupled to the middle row
    c = 3.1626644752930404
    rot = np.pi * np.array([[0.0, 1.0], [-1.0, 0.0]])
    coupled = np.array([[0.0, 0.4, c], [0.3, 0.5, 0.2], [-c, 0.1, 0.0]])
    z = RNG.normal(size=(2, 3, 3)) + 1j * RNG.normal(size=(2, 3, 3))
    stacks += [np.array([rot, -rot, 1j * rot, 0.5 * rot]),
               np.array([coupled, coupled.T, *(3.0 * z / np.abs(z).sum(axis=-2).max())])]
    for mats in stacks:
        stacked = _expm(mats)
        for m, e in zip(mats, stacked):
            ref = expm(m)
            for got in (_expm(m[None])[0], e):
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    # a stack with leading axes, (P, B, n, n), as the transport passes it
    z = RNG.normal(size=(3, 4, 3, 3)) + 1j * RNG.normal(size=(3, 4, 3, 3))
    norms = RNG.uniform(0.05, 8.0, (3, 4))
    mats = z * (norms / np.abs(z).sum(axis=-2).max(axis=-1))[..., None, None]
    stacked = _expm(mats)
    assert stacked.shape == mats.shape
    for idx in np.ndindex(3, 4):
        ref = expm(mats[idx])
        assert np.linalg.norm(stacked[idx] - ref) <= 1e-13 * np.linalg.norm(ref)


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


def test_random_unitary_stack_matches_single_draws():
    """A stack of Haar draws is bit-equal to successive single draws, and lies in SU(n)."""
    for n in (2, 3, 4):
        ctx = build_algebra(n)
        stack = ctx.random_unitary(np.random.default_rng((n, 1)), (2, 3))
        rng = np.random.default_rng((n, 1))
        singles = np.array([[ctx.random_unitary(rng) for _ in range(3)] for _ in range(2)])
        assert stack.shape == (2, 3, n, n) and np.array_equal(stack, singles)
        assert np.max(np.abs(stack @ stack.conj().swapaxes(-1, -2) - np.eye(n))) < 1e-13
        assert np.max(np.abs(np.linalg.det(stack) - 1)) < 1e-13


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


def test_cybe_residual_matches_the_three_operand_contraction():
    """The two-step contractions give the three-operand einsum's value on random tensors, which
    break the CYBE; the structure constants are built once per context and read-only."""
    for n in (2, 3):
        ctx = build_algebra(n)
        f = ctx.structure_constants()
        assert ctx.structure_constants() is f and not f.flags.writeable
        coeff = np.random.default_rng(n).normal(size=(2 * ctx.dim_compact,) * 2)
        want = np.max(np.abs(np.einsum("ab,cd,ace->ebd", coeff, coeff, f)
                             + np.einsum("ab,cd,bce->aed", coeff, coeff, f)
                             + np.einsum("ab,cd,bde->ace", coeff, coeff, f)))
        assert want > 1.0 and abs(cybe_residual(ctx, coeff) - want) <= 1e-12 * want


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
