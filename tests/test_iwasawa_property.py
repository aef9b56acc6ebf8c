"""Property tests of the stacked Iwasawa kernel and its splitting; need ``hypothesis``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

import hypothesis.extra.numpy as hnp  # noqa: E402
import hypothesis.strategies as st  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from trinion.decompositions import (KStarElement, _dual_part, _iwasawa,  # noqa: E402
                                    _iwasawa_dual, _theta_twist, iwasawa, iwasawa_dual)
from trinion.lie_core import build_algebra  # noqa: E402

_COEFFS = st.floats(-0.8, 0.8, allow_nan=False)
_CTXS = {n: build_algebra(n) for n in (2, 3, 4)}


@st.composite
def _sl_stacks(draw):
    n = draw(st.sampled_from((2, 3, 4)))
    size = draw(st.integers(1, 5))
    x = (draw(hnp.arrays(float, (size, n, n), elements=_COEFFS))
         + 1j * draw(hnp.arrays(float, (size, n, n), elements=_COEFFS)))
    x -= np.trace(x, axis1=-2, axis2=-1)[:, None, None] / n * np.eye(n)
    u = None
    if draw(st.booleans()):
        a = draw(hnp.arrays(float, (n - 1, n - 1), elements=_COEFFS))
        u = np.triu(a, 1) - np.triu(a, 1).T
    return _CTXS[n], x, u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_sl_stacks())
def test_stacked_iwasawa_kernel(case):
    """The kernel over a stack is ``iwasawa`` / ``iwasawa_dual`` matrix by matrix,
    with a unitary k, a triangular k* on the twisted diagonal, and k k* = g."""
    ctx, x, u = case
    gs = expm(x)
    k, ks = _iwasawa(ctx, gs, u)
    ks_d, k_d = _iwasawa_dual(ctx, gs, u)
    eye = np.eye(ctx.n)
    for i, g in enumerate(gs):
        k1, ks1 = iwasawa(ctx, g, u=u)
        ks1_d, k1_d = iwasawa_dual(ctx, g, u=u)
        assert np.array_equal(k[i], k1) and np.array_equal(ks[i], ks1.matrix)
        assert np.array_equal(k_d[i], k1_d) and np.array_equal(ks_d[i], ks1_d.matrix)
        for unit, tri, prod in ((k[i], ks[i], k[i] @ ks[i]), (k_d[i], ks_d[i], ks_d[i] @ k_d[i])):
            assert np.linalg.norm(unit.conj().T @ unit - eye) < 1e-12
            assert np.max(np.abs(np.tril(tri, -1))) <= 1e-12 * np.max(np.abs(tri))
            assert KStarElement(tri).phase_residual(ctx, u) < 1e-11
            assert np.linalg.norm(prod - g) <= 1e-11 * np.linalg.norm(g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_sl_stacks())
def test_dual_part_is_the_splitting_along_su_n(case):
    """``_dual_part`` projects onto the twisted dual algebra along su(n), and
    ``b _dual_part(b^-1 x b)`` is the derivative of the k* factor of ``exp(s x) g``."""
    ctx, x, u = case
    y = _dual_part(ctx, x, u)
    tol = 1e-14 * max(1.0, np.max(np.abs(x)))
    re = np.diagonal(x, axis1=-2, axis2=-1).real
    assert not np.tril(y, -1).any()
    twist = _theta_twist(ctx, u, -re)
    assert np.max(np.abs(np.diagonal(y, axis1=-2, axis2=-1).imag - twist)) <= tol
    a = x - y
    assert np.max(np.abs(a + a.conj().swapaxes(-1, -2))) <= tol
    assert np.max(np.abs(_dual_part(ctx, y, u) - y)) <= tol
    assert not _dual_part(ctx, x - x.conj().swapaxes(-1, -2), u).any()
    g, h = expm(x), 1e-6
    b = _iwasawa_dual(ctx, g, u)[0]
    plus, minus = (_iwasawa_dual(ctx, expm(s * h * x) @ g, u)[0] for s in (1, -1))
    ref = (plus - minus) / (2 * h)
    got = b @ _dual_part(ctx, np.linalg.inv(b) @ x @ b, u)
    assert np.max(np.abs(got - ref)) <= 1e-7 * max(1.0, np.max(np.abs(ref)))
