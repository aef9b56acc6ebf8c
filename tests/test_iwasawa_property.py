"""Property test of the stacked Iwasawa kernel; needs the optional ``hypothesis``."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

import hypothesis.extra.numpy as hnp  # noqa: E402
import hypothesis.strategies as st  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from trinion.decompositions import (KStarElement, _iwasawa, _iwasawa_dual, iwasawa,  # noqa: E402
                                    iwasawa_dual)
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
    return _CTXS[n], expm(x), u


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_sl_stacks())
def test_stacked_iwasawa_kernel(case):
    """The kernel over a stack is ``iwasawa`` / ``iwasawa_dual`` matrix by matrix,
    with a unitary k, a triangular k* on the twisted diagonal, and k k* = g."""
    ctx, gs, u = case
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
