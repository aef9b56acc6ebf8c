"""Concrete realization of sl(n,C) as a real Lie algebra with compact form su(n).

Conventions used throughout the library:

* ``bar(X) = X†`` (conjugate transpose) on both the algebra and the group.
  The compact form is the anti-fixed set ``su(n) = {X : bar(X) = -X}`` and
  the unitary group satisfies ``bar(g) = g^{-1}``.
* The invariant form is ``pair(X, Y) = -Tr(XY)``.  It is complex bilinear,
  positive definite on su(n), and the compact basis below is orthonormal
  with respect to it.
* ``sl(n,C)`` is treated as a real Lie algebra of dimension ``2(n^2-1)``
  with ordered basis ``[t_1..t_N, i t_1..i t_N]`` where ``t_a`` runs over
  the compact basis and ``N = n^2 - 1``.

The classical r-matrices live in the real tensor square and are stored as
``2N x 2N`` real coefficient arrays over that basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import (BoundaryOrbit, EvaluationError, InvalidRank, InvalidSpectrum,
                     InvalidTwist)

__all__ = [
    "AlgebraContext",
    "CartanVector",
    "RMatrix",
    "build_algebra",
    "bar",
    "pair",
    "r_matrix",
    "weyl_normalize",
    "cybe_residual",
]


def bar(x):
    """Anti-involution singling out the compact form: conjugate transpose.

    On the algebra ``bar([X, Y]) = -[bar X, bar Y]``; on the group it is the
    inverse for unitary elements.
    """
    return np.asarray(x).conj().T


def pair(x, y):
    """Invariant bilinear form ``-Tr(XY)``, positive definite on su(n)."""
    return -np.trace(np.asarray(x) @ np.asarray(y))


def _sum_zero_frame(n):
    """Orthonormal rows spanning {v in R^n : sum v = 0}, from simple coroots."""
    rows = []
    for i in range(n - 1):
        v = np.zeros(n)
        v[i], v[i + 1] = 1.0, -1.0
        for w in rows:
            v = v - (v @ w) * w
        rows.append(v / np.linalg.norm(v))
    return np.array(rows)


class AlgebraContext:
    """Realized root and basis data for sl(n,C) over R with compact form su(n).

    Attributes
    ----------
    n : int
        Matrix size.
    compact_basis : ndarray, shape (N, n, n)
        Orthonormal basis of su(n) under ``pair``; Cartan elements first,
        then the antisymmetric/symmetric pair for each root position (j, k)
        in lexicographic order.
    real_basis : ndarray, shape (2N, n, n)
        ``compact_basis`` followed by ``i * compact_basis``; spans sl(n,C)
        over the reals.
    cartan_basis : ndarray, shape (n-1, n, n)
        The orthonormal Cartan elements ``i diag(v_m)``.
    simple_cartan : ndarray, shape (n-1, n, n)
        Simple coroot generators ``h_i = i (E_ii - E_{i+1,i+1})``.
    dual_cartan : ndarray, shape (n-1, n, n)
        Basis dual to ``simple_cartan`` under ``pair``.
    positive_roots : list of (j, k)
        Index pairs with j < k; the root generator is ``E_jk``.
    simple_roots : list of int
        Positions of the simple roots inside ``positive_roots``.
    casimir : ndarray, shape (N, N)
        Coefficients of the tensor Casimir over the compact basis (the
        identity matrix, since the basis is orthonormal).
    cartan_frame : ndarray, shape (n-1, n)
        Rows ``v_m`` realizing ``cartan_basis[m] = i diag(v_m)``; maps
        diagonal spectra to Cartan coordinates.
    """

    def __init__(self, n):
        if n < 2:
            raise InvalidRank(f"need n >= 2, got {n}")
        self.n = int(n)
        self.cartan_frame = _sum_zero_frame(n)
        cart = np.array([1j * np.diag(v) for v in self.cartan_frame])

        offs = []
        mats = list(cart)
        for j in range(n):
            for k in range(j + 1, n):
                e = np.zeros((n, n), dtype=complex)
                e[j, k] = 1.0
                mats.append((e - e.T) / np.sqrt(2))
                mats.append(1j * (e + e.T) / np.sqrt(2))
                offs.append((j, k))
        self.compact_basis = np.array(mats)
        self.cartan_basis = cart
        self.real_basis = np.concatenate([self.compact_basis, 1j * self.compact_basis])
        self.positive_roots = offs
        self.simple_roots = [offs.index((j, j + 1)) for j in range(n - 1)]

        self.simple_cartan = np.array(
            [1j * (np.diag(np.eye(n)[i]) - np.diag(np.eye(n)[i + 1])) for i in range(n - 1)]
        )
        gram = np.array(
            [[pair(a, b).real for b in self.simple_cartan] for a in self.simple_cartan]
        )
        self.dual_cartan = np.einsum("ij,jkl->ikl", np.linalg.inv(gram), self.simple_cartan)

        self.dim_compact = n * n - 1
        self.casimir = np.eye(self.dim_compact)
        self._structure = None
        self._fd_exponentials = {}

    def root_generator(self, j, k):
        """Elementary matrix E_jk (j < k gives a positive root generator)."""
        e = np.zeros((self.n, self.n), dtype=complex)
        e[j, k] = 1.0
        return e

    # ---- coordinates over the real basis -------------------------------

    def compact_coords(self, x):
        """Coordinates of x in su(n) over the compact basis (x must be in su(n))."""
        return np.array([pair(t, x).real for t in self.compact_basis])

    def real_coords(self, x):
        """Coordinates of a traceless matrix over the real basis."""
        x = np.asarray(x)
        a = (x - x.conj().T) / 2
        b = -1j * (x + x.conj().T) / 2
        return np.concatenate([self.compact_coords(a), self.compact_coords(b)])

    def structure_constants(self):
        """f[a, c, e] with [t_a, t_c] = sum_e f[a,c,e] t_e over the real basis."""
        if self._structure is None:
            rb = self.real_basis
            m = len(rb)
            f = np.zeros((m, m, m))
            for a in range(m):
                for c in range(m):
                    f[a, c, :] = self.real_coords(rb[a] @ rb[c] - rb[c] @ rb[a])
            self._structure = f
        return self._structure

    def fd_exponentials(self, h):
        """``(expm(h t_a), expm(-h t_a))`` over the real basis, built once per step."""
        if h not in self._fd_exponentials:
            rb = self.real_basis
            self._fd_exponentials[h] = ([expm(h * t) for t in rb], [expm(-h * t) for t in rb])
        return self._fd_exponentials[h]

    def random_compact(self, rng, scale=1.0):
        """Random element of su(n) with N(0, scale) coordinates."""
        return np.einsum(
            "a,aij->ij", rng.normal(0.0, scale, self.dim_compact), self.compact_basis
        )

    def random_unitary(self, rng):
        """Haar-distributed SU(n) element (QR of a Ginibre matrix, phase fixed)."""
        z = rng.normal(size=(self.n, self.n)) + 1j * rng.normal(size=(self.n, self.n))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        q = q * (d / np.abs(d))
        return q / np.linalg.det(q) ** (1.0 / self.n)

    def casimir_contract(self, m1, m2):
        """Sum_a Tr(t_a M) Tr(t_a N) over the compact basis."""
        return sum(np.trace(t @ m1) * np.trace(t @ m2) for t in self.compact_basis)


def _central_differences(fn, plus, minus, h):
    """``(fn(plus[a]) - fn(minus[a])) / 2h`` over a basis; non-finite values raise."""
    out = np.empty(len(plus))
    for a, (p, m) in enumerate(zip(plus, minus)):
        out[a] = (fn(p) - fn(m)) / (2 * h)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("test function returned a non-finite value")
    return out


def build_algebra(n):
    """Construct the realized algebra context for su(n) inside sl(n,C).

    Raises
    ------
    InvalidRank
        If ``n < 2``.
    """
    return AlgebraContext(n)


@dataclass(frozen=True)
class CartanVector:
    """Point of the open positive Weyl chamber, stored as a real spectrum.

    The housed algebra element is ``H = i diag(theta)`` with the entries of
    ``theta`` strictly decreasing and summing to zero.
    """

    theta: tuple

    @property
    def matrix(self):
        return 1j * np.diag(np.array(self.theta))

    @property
    def n(self):
        return len(self.theta)


def weyl_normalize(theta, tol=1e-12):
    """Map a spectrum vector into the closed chamber and validate genericity.

    Sorts the entries in decreasing order.  Raises ``InvalidSpectrum`` when
    the entries do not sum to zero within ``tol`` and ``BoundaryOrbit`` when
    two entries collide (the orbit would not have maximal dimension).
    """
    theta = np.asarray(theta, dtype=float)
    if abs(theta.sum()) > tol:
        raise InvalidSpectrum(f"entries sum to {theta.sum():.3e}, expected 0")
    s = np.sort(theta)[::-1]
    if np.min(np.abs(np.diff(s))) <= tol:
        raise BoundaryOrbit("repeated spectrum entries: boundary of the Weyl chamber")
    return CartanVector(tuple(float(x) for x in s))


@dataclass
class RMatrix:
    """Pair of classical r-matrices for the (t, u) family, over the real basis.

    ``tensor`` holds the coefficients of the plus matrix; the minus matrix is
    ``-P(plus)`` (``P`` = slot flip), i.e. minus the transposed array.  ``u``
    is the antisymmetric twist acting on Cartan coordinates.
    """

    t: float
    u: np.ndarray
    sign: str
    tensor: np.ndarray
    minus_tensor: np.ndarray = field(repr=False, default=None)

    def operator_form(self, ctx, which="plus"):
        """Realize the tensor as an n^2 x n^2 matrix (Kronecker products).

        This is the complex-bilinear image of the real tensor; slot scalars
        commute with the tensor product here, unlike in the coefficient
        array.
        """
        coeff = self.tensor if which == "plus" else self.minus_tensor
        rb = ctx.real_basis
        n = ctx.n
        out = np.zeros((n * n, n * n), dtype=complex)
        for a in range(len(rb)):
            for b in range(len(rb)):
                if coeff[a, b] != 0.0:
                    out += coeff[a, b] * np.kron(rb[a], rb[b])
        return out


def _twist_action(ctx, u):
    """u as a map on the orthonormal Cartan basis: u(c_m) = sum U[m', m] c_m'."""
    u = np.asarray(u, dtype=float)
    nm = ctx.n - 1
    if u.shape != (nm, nm):
        raise InvalidTwist(f"twist must be {(nm, nm)}, got {u.shape}")
    if np.max(np.abs(u + u.T)) > 1e-12:
        raise InvalidTwist("twist matrix is not antisymmetric")
    return u


def r_matrix(ctx, t, u=None, sign="plus"):
    """Classical r-matrix of the (t, u) family as a real coefficient array.

    The plus tensor is ``t`` times the canonical element pairing the twisted
    triangular half with the compact half under the imaginary-trace form:
    Cartan part ``sum_m (-i c_m + u(c_m)) (x) c_m`` over the orthonormal
    Cartan basis plus, for every positive root position (j, k),
    ``E_jk (x) (i E_jk + i E_kj) + i E_jk (x) (E_kj - E_jk)``.

    Satisfies the classical Yang-Baxter equation in the real tensor cube and
    the reality condition ``(bar (x) bar)(r+) = r-`` in operator form.
    """
    n = ctx.n
    if u is None:
        u = np.zeros((n - 1, n - 1))
    u = _twist_action(ctx, u)

    pairs = []
    for m, c in enumerate(ctx.cartan_basis):
        first = -1j * c + np.einsum("m,mij->ij", u[:, m], ctx.cartan_basis)
        pairs.append((first, c))
    for (j, k) in ctx.positive_roots:
        e = ctx.root_generator(j, k)
        f = e.T.copy()
        pairs.append((e, 1j * e + 1j * f))
        pairs.append((1j * e, f - e))

    coeff = np.zeros((2 * ctx.dim_compact, 2 * ctx.dim_compact))
    for a, b in pairs:
        coeff += np.outer(ctx.real_coords(a), ctx.real_coords(b))
    coeff *= t
    rm = RMatrix(t=float(t), u=u, sign=sign, tensor=coeff, minus_tensor=-coeff.T)
    if sign == "minus":
        rm.tensor, rm.minus_tensor = rm.minus_tensor, rm.tensor
    return rm


def cybe_residual(ctx, coeff):
    """Max-norm of [r12,r13] + [r12,r23] + [r13,r23] in the real tensor cube."""
    f = ctx.structure_constants()
    t1 = np.einsum("ab,cd,ace->ebd", coeff, coeff, f)
    t2 = np.einsum("ab,cd,bce->aed", coeff, coeff, f)
    t3 = np.einsum("ab,cd,bde->ace", coeff, coeff, f)
    return float(np.max(np.abs(t1 + t2 + t3)))
