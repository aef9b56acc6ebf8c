"""Twisted Iwasawa factorization, dual-group maps, dressing, and Sklyanin brackets.

The complex group SL(n,C) factors globally and uniquely as ``g = k k*`` with
``k`` in SU(n) and ``k*`` in the twisted triangular dual group: upper
triangular, determinant one, with diagonal ``exp(-theta_j - i (U theta)_j)``
for a real zero-sum vector ``theta``.  ``U`` is the antisymmetric twist in
Cartan coordinates; ``U = 0`` recovers the positive-diagonal factor of plain
QR.  The mirrored order ``g = k* k`` defines the starred-left projections.

Derivative conventions for the bracket evaluators: ``grad_L psi(g)[v] =
d/ds psi(exp(s v) g)`` and ``grad_R psi(g)[v] = d/ds psi(g exp(s v))``,
computed by central differences over the real basis with the step
exponentials cached on the algebra context.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSK
from .lie_core import _central_differences, _point_value, _r_contract, bar

__all__ = [
    "KStarElement",
    "SKElement",
    "BracketSpace",
    "iwasawa",
    "iwasawa_dual",
    "f_map",
    "f_inverse",
    "e_map",
    "dressing_action",
    "moment_maps",
    "sklyanin_eval",
    "group_gradients",
]

_TRI_TOL = 1e-12


def _theta_twist(ctx, u, theta):
    """Slaved diagonal phases -(U theta) from the twist in Cartan coordinates."""
    if u is None:
        return np.zeros_like(theta)
    b = ctx.cartan_frame
    return -(b.T @ (np.asarray(u) @ (b @ theta[..., None])))[..., 0]


@dataclass
class KStarElement:
    """Element of the twisted dual group, or a stack of them: upper triangular, det 1, complex."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        low = np.max(np.abs(np.tril(m, -1)), axis=(-2, -1))  # per matrix; fmax ignores NaN like max()
        if np.any(low > _TRI_TOL * np.fmax(1.0, np.max(np.abs(m), axis=(-2, -1)))):
            raise InvalidSK("matrix has entries below the diagonal")
        self.matrix = m

    def inverse(self):
        return KStarElement(np.linalg.inv(self.matrix))

    def phase_residual(self, ctx, u=None):
        """Deviation of the diagonal phases from the twisted phase condition."""
        d = np.diagonal(self.matrix)
        want = _theta_twist(ctx, u, -np.log(np.abs(d)))
        have = np.angle(d)
        return float(np.max(np.abs((have - want + np.pi) % (2 * np.pi) - np.pi)))


@dataclass
class SKElement:
    """Hermitian positive definite matrix of determinant one (the bar-fixed slice)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
            raise InvalidSK("matrix is not Hermitian")
        if np.min(np.linalg.eigvalsh(m)) <= 0:
            raise InvalidSK("matrix is not positive definite")
        self.matrix = m


class BracketSpace(enum.Enum):
    """Which displayed Poisson bracket the evaluator applies."""

    CompactGroup = "compact"
    DualGroup = "dual"
    HeisenbergDouble = "double"


# ---------------------------------------------------------------------------
# factorizations
# ---------------------------------------------------------------------------

def _iwasawa(ctx, g, u=None):
    """``g = k k*`` over leading axes: the one factorization kernel.

    QR on the columns gives the positive-diagonal triangular factor; the
    twist is applied as a commuting diagonal phase split so the dual-group
    diagonal condition holds.  Returns the stacks ``(k, k*)`` as arrays.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    ph = d / np.abs(d)
    q = q * ph[..., None, :]
    r = r * (1.0 / ph)[..., :, None]
    theta = -np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))
    dphase = np.exp(1j * _theta_twist(ctx, u, theta))
    return q * (1.0 / dphase)[..., None, :], r * dphase[..., :, None]


def _iwasawa_dual(ctx, g, u=None):
    """``g = k* k`` over leading axes, from the kernel applied to ``g^{-1}``."""
    k_inv, ks_inv = _iwasawa(ctx, np.linalg.inv(g), u)
    return np.linalg.inv(ks_inv), np.linalg.inv(k_inv)


def _dual_part(ctx, x, u=None):
    """The component ``y`` of ``x`` in ``b_u`` along ``sl(n,C) = su(n) + b_u``, over leading axes.

    ``b_u``, the twisted dual algebra, is upper triangular with diagonal
    ``-theta - i (U theta)`` for real ``theta``; ``x - y`` is anti-Hermitian.
    """
    re = np.diagonal(x, axis1=-2, axis2=-1).real
    diag = re + 1j * _theta_twist(ctx, u, -re)
    return np.triu(x, 1) + bar(np.tril(x, -1)) + diag[..., None] * np.eye(ctx.n)


def iwasawa(ctx, g, u=None):
    """Factor ``g = k * kstar`` with k unitary and kstar in the twisted dual group."""
    k, kstar = _iwasawa(ctx, np.asarray(g, dtype=complex), u)
    return k, KStarElement(kstar)


def iwasawa_dual(ctx, g, u=None):
    """Mirrored factorization ``g = kstar * k``."""
    kstar, k = _iwasawa_dual(ctx, np.asarray(g, dtype=complex), u)
    return KStarElement(kstar), k


# ---------------------------------------------------------------------------
# the maps f and e
# ---------------------------------------------------------------------------

def f_map(kstar):
    """``f(k*) = k* bar(k*)``, a Hermitian positive definite matrix."""
    m = kstar.matrix if isinstance(kstar, KStarElement) else np.asarray(kstar)
    return SKElement(matrix=m @ bar(m))


def f_inverse(ctx, s, u=None):
    """Invert f by reverse Cholesky (UL factorization) plus the phase twist.

    Raises ``InvalidSK`` when ``s`` is not Hermitian positive definite.
    """
    m = s.matrix if isinstance(s, SKElement) else np.asarray(s)
    if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
        raise InvalidSK("matrix is not Hermitian")
    n = ctx.n
    j = np.eye(n)[::-1]
    try:
        low = np.linalg.cholesky(j @ m @ j)
    except np.linalg.LinAlgError as exc:
        raise InvalidSK("matrix is not positive definite") from exc
    upper = j @ low @ j
    theta = -np.log(np.abs(np.diagonal(upper)))
    phase = _theta_twist(ctx, u, theta)
    return KStarElement(upper * np.exp(1j * phase)[None, :])


def e_map(ctx, x, t=1.0, u=None):
    """Orbit parametrization ``e(X) = f^{-1}(exp(2 i t X))`` for X in su(n)."""
    w, v = np.linalg.eigh(1j * np.asarray(x))
    s = (v * np.exp(2.0 * t * w)) @ v.conj().T
    return f_inverse(ctx, SKElement(matrix=s), u)


# ---------------------------------------------------------------------------
# dressing and moment maps
# ---------------------------------------------------------------------------

def dressing_action(ctx, k, kstar, u=None):
    """Dressing of kstar by the unitary k: re-factor ``k kstar`` in the mirrored order.

    Returns ``(rho, rho_star)`` with ``rho_star rho = k kstar``; ``rho_star``
    is the dressed dual-group element.
    """
    m = kstar.matrix if isinstance(kstar, KStarElement) else np.asarray(kstar)
    rho_star, rho = iwasawa_dual(ctx, np.asarray(k) @ m, u=u)
    return rho, rho_star


def moment_maps(ctx, g, u=None):
    """Dual-group moment values of the left and right translation actions.

    ``m_L(g)`` is the starred-left factor of g and ``m_R(g)`` the inverse of
    the starred-right factor.
    """
    return iwasawa_dual(ctx, g, u=u)[0], iwasawa(ctx, g, u=u)[1].inverse()


# ---------------------------------------------------------------------------
# Sklyanin-type bracket evaluators
# ---------------------------------------------------------------------------

def group_gradients(ctx, psi, g, fd_step=1e-5):
    """Left/right derivative components of psi at g over the real basis.

    Returns ``(grad_L, grad_R)`` with ``grad_L[a] = d/ds psi(exp(s t_a) g)``
    and ``grad_R[a] = d/ds psi(g exp(s t_a))``, each of shape ``lead + (2N,)``
    for a point ``g`` with leading axes ``lead``.  ``psi`` is called once, on
    the step points ``lead + (2, 2, 2N, n, n)`` (left then right, plus then
    minus), and must return values over those axes.
    """
    lead = np.ndim(g) - 2
    g = np.asarray(g)[..., None, None, :, :]
    steps = np.stack(ctx.fd_exponentials(fd_step))
    values = psi(np.stack([steps @ g, g @ steps], axis=-5))
    grads = _central_differences(values, lead + 1, fd_step)
    return grads[..., 0, :], grads[..., 1, :]


def sklyanin_eval(ctx, space, psi1, psi2, point, rmat, fd_step=1e-5):
    """Evaluate the displayed bracket of two scalar functions at a group point.

    Wiring by space: the compact group and the dual group both use
    ``<r+, L x L> - <r+, R x R>``; the Heisenberg double uses
    ``<r+, L x L> + <r-, R x R>``.  Contractions are over the real basis
    components of the left/right derivatives.  A point with leading axes
    gives the values over them (a float at a single point), so a bracket
    is itself a test function.
    """
    g = point.matrix if isinstance(point, KStarElement) else np.asarray(point)
    gl1, gr1 = group_gradients(ctx, psi1, g, fd_step)
    gl2, gr2 = group_gradients(ctx, psi2, g, fd_step)
    rp = rmat.tensor
    rm = rmat.minus_tensor
    if space in (BracketSpace.CompactGroup, BracketSpace.DualGroup):
        return _point_value(_r_contract(gl1, rp, gl2) - _r_contract(gr1, rp, gr2))
    if space is BracketSpace.HeisenbergDouble:
        return _point_value(_r_contract(gl1, rp, gl2) + _r_contract(gr1, rm, gr2))
    raise ValueError(f"unknown bracket space {space!r}")
