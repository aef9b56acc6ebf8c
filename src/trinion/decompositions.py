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
from .lie_core import _central_differences, bar

__all__ = [
    "KStarElement",
    "SKElement",
    "BracketSpace",
    "iwasawa",
    "iwasawa_dual",
    "pi_L",
    "pi_R",
    "pi_star_L",
    "pi_star_R",
    "f_map",
    "f_inverse",
    "e_map",
    "dressing_action",
    "moment_maps",
    "sklyanin_eval",
    "group_gradients",
    "kstar_from_matrix",
]

_TRI_TOL = 1e-12


def _theta_twist(ctx, u, theta):
    """Slaved diagonal phases -(U theta) from the twist in Cartan coordinates."""
    if u is None:
        return np.zeros_like(theta)
    b = ctx.cartan_frame
    return -(b.T @ (np.asarray(u) @ (b @ theta)))


@dataclass
class KStarElement:
    """Element of the twisted dual group: upper triangular, det 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if np.max(np.abs(np.tril(m, -1))) > _TRI_TOL * max(1.0, np.max(np.abs(m))):
            raise InvalidSK("matrix has entries below the diagonal")
        self.matrix = m

    @property
    def theta(self):
        """Spectrum vector of the diagonal moduli, exp(-theta_j) = |diag_j|."""
        return -np.log(np.abs(np.diagonal(self.matrix)))

    def inverse(self, ctx):
        return kstar_from_matrix(ctx, np.linalg.inv(self.matrix))

    def phase_residual(self, ctx, u=None):
        """Deviation of the diagonal phases from the twisted phase condition."""
        d = np.diagonal(self.matrix)
        want = _theta_twist(ctx, u, -np.log(np.abs(d)))
        have = np.angle(d)
        return float(np.max(np.abs((have - want + np.pi) % (2 * np.pi) - np.pi)))


def kstar_from_matrix(ctx, m):
    """Wrap an upper triangular matrix as a dual-group element."""
    return KStarElement(matrix=np.asarray(m, dtype=complex))


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

def iwasawa(ctx, g, u=None):
    """Factor ``g = k * kstar`` with k unitary and kstar in the twisted dual group.

    QR on the columns gives the positive-diagonal triangular factor; the
    twist is applied as a commuting diagonal phase split so the dual-group
    diagonal condition holds.
    """
    g = np.asarray(g, dtype=complex)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    q = q * ph
    r = r * (1.0 / ph)[:, None]
    theta = -np.log(np.abs(np.diagonal(r)))
    phase = _theta_twist(ctx, u, theta)
    dphase = np.exp(1j * phase)
    k = q * (1.0 / dphase)[None, :]
    kstar = r * dphase[:, None]
    return k, kstar_from_matrix(ctx, kstar)


def iwasawa_dual(ctx, g, u=None):
    """Mirrored factorization ``g = kstar * k``."""
    g = np.asarray(g, dtype=complex)
    k_inv, ks_inv = iwasawa(ctx, np.linalg.inv(g), u)
    kstar = np.linalg.inv(ks_inv.matrix)
    k = np.linalg.inv(k_inv)
    return kstar_from_matrix(ctx, kstar), k


def pi_L(ctx, g, u=None):
    return iwasawa(ctx, g, u=u)[0]


def pi_star_R(ctx, g, u=None):
    return iwasawa(ctx, g, u=u)[1]


def pi_star_L(ctx, g, u=None):
    return iwasawa_dual(ctx, g, u=u)[0]


def pi_R(ctx, g, u=None):
    return iwasawa_dual(ctx, g, u=u)[1]


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
    return kstar_from_matrix(ctx, upper * np.exp(1j * phase)[None, :])


def e_map(ctx, x, t=1.0, u=None):
    """Orbit parametrization ``e(X) = f^{-1}(exp(2 i t X))`` for X in su(n)."""
    from .lie_core import CartanVector

    if isinstance(x, CartanVector):
        x = x.matrix
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
    m_left = pi_star_L(ctx, g, u=u)
    m_right = pi_star_R(ctx, g, u=u)
    return m_left, m_right.inverse(ctx)


# ---------------------------------------------------------------------------
# Sklyanin-type bracket evaluators
# ---------------------------------------------------------------------------

def group_gradients(ctx, psi, g, fd_step=1e-5):
    """Left/right derivative components of psi at g over the real basis.

    Returns ``(grad_L, grad_R)`` with ``grad_L[a] = d/ds psi(exp(s t_a) g)``
    and ``grad_R[a] = d/ds psi(g exp(s t_a))``.
    """
    eps, ems = ctx.fd_exponentials(fd_step)
    gl = _central_differences(psi, [e @ g for e in eps], [e @ g for e in ems], fd_step)
    gr = _central_differences(psi, [g @ e for e in eps], [g @ e for e in ems], fd_step)
    return gl, gr


def sklyanin_eval(ctx, space, psi1, psi2, point, rmat, fd_step=1e-5):
    """Evaluate the displayed bracket of two scalar functions at a group point.

    Wiring by space: the compact group and the dual group both use
    ``<r+, L x L> - <r+, R x R>``; the Heisenberg double uses
    ``<r+, L x L> + <r-, R x R>``.  Contractions are over the real basis
    components of the left/right derivatives.
    """
    g = point.matrix if isinstance(point, KStarElement) else np.asarray(point)
    gl1, gr1 = group_gradients(ctx, psi1, g, fd_step)
    gl2, gr2 = group_gradients(ctx, psi2, g, fd_step)
    rp = rmat.tensor
    rm = rmat.minus_tensor
    if space in (BracketSpace.CompactGroup, BracketSpace.DualGroup):
        return float(gl1 @ rp @ gl2 - gr1 @ rp @ gr2)
    if space is BracketSpace.HeisenbergDouble:
        return float(gl1 @ rp @ gl2 + gr1 @ rm @ gr2)
    raise ValueError(f"unknown bracket space {space!r}")
