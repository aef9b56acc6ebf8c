"""Dormand-Prince 5(4) transport: the reference the Magnus panels are tested against.

This is the adaptive Runge-Kutta loop the library used before its transport
moved to Magnus panels.  It is independent of the panel code (explicit
stages, no matrix exponentials) and slow, so tests use it only on a few
contours.
"""

import numpy as np

from trinion.holonomy import Contour

_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0])
_DP_B4 = np.array([5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40])
_DP_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1])


def dp_transport(rhs, psi, tol):
    """Advance Psi' = rhs(s) @ Psi over s in [0, 1]; error per unit length <= tol."""
    s, h = 0.0, 0.1
    while s < 1.0 - 1e-13:
        h = min(h, 1.0 - s)
        ks = []
        for i in range(7):
            y = psi
            for j, a in enumerate(_DP_A[i]):
                if a:
                    y = y + (h * a) * ks[j]
            ks.append(rhs(s + _DP_C[i] * h) @ y)
        p5 = psi + h * sum(b * k for b, k in zip(_DP_B5, ks) if b)
        p4 = psi + h * sum(b * k for b, k in zip(_DP_B4, ks) if b)
        err = np.max(np.abs(p5 - p4)) / max(1.0, np.max(np.abs(p5)))
        target = tol * h
        if not np.isfinite(err):
            raise FloatingPointError("non-finite transport state")
        if err <= target:
            s += h
            psi = p5
        fac = 0.9 * (target / err) ** 0.2 if err > 0 else 4.0
        h *= min(4.0, max(0.2, fac))
        if h < 1e-12:
            raise FloatingPointError("adaptive step size underflow")
    return psi


def dp_holonomy(conn, contour, tol):
    """Reference holonomy: Dormand-Prince transport segment by segment."""
    segs = contour.segments if isinstance(contour, Contour) else contour
    psi = np.eye(conn.n, dtype=complex)
    for seg in segs:
        def rhs(s, seg=seg):
            return -conn(seg.z(s)) * seg.dz(s)

        psi = dp_transport(rhs, psi, tol)
    return psi
