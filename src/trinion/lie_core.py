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

import math
import threading
from dataclasses import dataclass, field

import numpy as np

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
    inverse for unitary elements.  Works over leading axes.
    """
    return np.swapaxes(np.asarray(x).conj(), -1, -2)


def pair(x, y):
    """Invariant bilinear form ``-Tr(XY)``, positive definite on su(n); over leading axes."""
    return -np.trace(np.asarray(x) @ np.asarray(y), axis1=-2, axis2=-1)


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


# Taylor degrees m with the 1-norm bounds up to which T_m(X) = sum_k X^k / k! has a backward
# error of at most 2^-53 (Al-Mohy and Higham, SIAM J. Sci. Comput. 33 (2011)), largest degree
# last; each is the highest degree that Paterson-Stockmeyer reaches with 1 to 6 products
_TAYLOR = ((2, 2.5809568029717672e-8), (4, 3.3971688399769619e-4), (6, 9.0656564075951024e-3),
           (9, 8.9577602032233427e-2), (12, 0.29961589138115805), (16, 0.78028742566265743))
# the coefficients 1 / k! up to k = 16, quotients the compiler folds
_INV_FACTORIAL = (1.0, 1.0, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 720, 1 / 5040, 1 / 40320,
                  1 / 362880, 1 / 3628800, 1 / 39916800, 1 / 479001600, 1 / 6227020800,
                  1 / 87178291200, 1 / 1307674368000, 1 / 20922789888000)


class _Workspace:
    """Scratch stacks of the transport kernel, kept across calls.

    A slot is a flat buffer, made on its first request and remade whenever a
    request needs more bytes than it has; it never shrinks.  ``take`` returns
    the buffer's first bytes as a C-contiguous array of the requested shape and
    dtype, so a view stays valid until the next request for its slot.

    ``_expm_stack`` overwrites the slots ``x`` (its input), ``t``, ``x2``,
    ``p0``, ``p1``, ``r0`` and ``r1`` (its result is one of the last two); its
    callers use the same slots between its calls, and give what they keep
    across calls other names.
    """

    def __init__(self):
        self.slots = {}

    def take(self, slot, shape, dtype=complex):
        try:
            return np.ndarray(shape, dtype, self.slots[slot])
        except (KeyError, TypeError):  # a first request, or one larger than any before
            self.slots[slot] = np.empty(math.prod(shape), dtype)
            return np.ndarray(shape, dtype, self.slots[slot])

    def columns(self, slot, lead, need, used):
        """The slot as a complex ``lead + (cap,)`` with ``cap >= need``; when it has to grow,
        its first ``used`` columns in that layout move to the new buffer."""
        old = self.slots.get(slot, np.empty(0))
        cap = old.nbytes // (16 * math.prod(lead))
        if cap < need:
            new = self.slots[slot] = np.empty(lead + (need,), complex)
            new[..., :used] = np.ndarray(lead + (cap,), complex, old)[..., :used]
            return new
        return np.ndarray(lead + (cap,), complex, old)


_LOCAL = threading.local()


def _workspace():
    """This thread's workspace, made on first use (the kernels are not re-entrant)."""
    if not hasattr(_LOCAL, "workspace"):
        _LOCAL.workspace = _Workspace()
    return _LOCAL.workspace


def _stack_product(x, y, tmp, out):
    """Products over stacks held as ``(n, n, M)``, written to ``out``; ``tmp`` is scratch of
    the product's shape."""
    np.multiply(x[:, 0, None], y[0], out=out)
    for k in range(1, len(x)):
        out += np.multiply(x[:, k, None], y[k], out=tmp)
    return out


def _expm(a):
    """Matrix exponential of every matrix of a complex stack ``(..., n, n)``, a new array.

    Uses the Taylor polynomial of lowest degree whose bound covers the largest
    1-norm in the stack, and scaling and squaring beyond the degree-16 bound
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33 (2011)).  The stack is held as
    ``(n, n, M)``, so every matrix product is a few array operations over all
    ``M`` matrices, and no linear system is solved.
    """
    shape, n = np.shape(a), np.shape(a)[-1]
    ws = _workspace()
    x = ws.take("x", (n, n, math.prod(shape[:-2])))
    x[...] = np.reshape(a, (-1, n, n)).transpose(1, 2, 0)
    return _expm_stack(x, ws).transpose(2, 0, 1).copy().reshape(shape)


def _expm_stack(x, ws):
    """``_expm`` of a contiguous ``(n, n, M)`` stack, scaled in place, in the layout.

    The polynomial is evaluated by Paterson and Stockmeyer (SIAM J. Comput. 2
    (1973)): the powers up to ``X^q``, ``q = ceil(sqrt(m))``, then Horner steps
    in ``X^q`` over blocks of ``q`` coefficients, the top block taking ``X^q``
    itself.  Each block adds its power terms first and its identity term last,
    so for a tiny ``X`` each diagonal entry is rounded once.

    Its stacks are slots of the workspace ``ws``, kept across calls and sized
    lazily: a slot grows only for a stack larger than any before it, so a warm
    call allocates nothing of the stack's size.  ``x`` may be the ``"x"`` slot.
    The result is a contiguous view of the ``"r0"`` or ``"r1"`` slot, valid
    until the next kernel call.  A non-finite 1-norm raises ``FloatingPointError``.
    """
    n = len(x)
    cols = np.abs(x, out=ws.take("p1", x.shape, float))
    cols = cols.sum(axis=0, out=ws.take("x2", x.shape[1:], float))  # column sums, (n, M)
    if not math.isfinite(top := cols.max(initial=0.0)):
        raise FloatingPointError("non-finite matrix")
    m, theta = next((d for d in _TAYLOR if top <= d[1]), _TAYLOR[-1])
    s = np.zeros(0, int)  # squarings: past the degree-16 bound, each matrix by its own norm
    if top > theta:
        s = np.ceil(np.log2(np.maximum(cols.max(axis=0), theta) / theta)).astype(int)
        x *= 0.5 ** s
    q, tmp = math.isqrt(m - 1) + 1, ws.take("t", x.shape)
    powers = [x]  # X^1 .. X^q
    for slot in ("x2", "p0", "p1")[:q - 1]:
        powers.append(_stack_product(powers[-1], x, tmp, ws.take(slot, x.shape)))
    r = None
    for i, j in enumerate(range((m - 1) // q * q, -1, -q)):  # each block's lowest degree
        out = ws.take(("r0", "r1")[i % 2], x.shape)
        if r is None:  # the top block, up to degree m
            np.multiply(x, _INV_FACTORIAL[j + 1], out=out)
            terms = range(2, m - j + 1)
        else:
            terms = range(1, q)
            _stack_product(powers[-1], r, tmp, out)
        for k in terms:
            out += np.multiply(powers[k - 1], _INV_FACTORIAL[j + k], out=tmp)
        out.reshape(n * n, -1)[::n + 1] += _INV_FACTORIAL[j]  # the diagonal
        r = out
    for k in range(s.max(initial=0)):
        sq = np.flatnonzero(s > k)
        rs = np.take(r, sq, axis=-1, out=ws.take("p0", (n, n, len(sq))), mode="clip")
        r[..., sq] = _stack_product(rs, rs, ws.take("t", rs.shape), ws.take("p1", rs.shape))
    return r


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
    positive_roots : list of (j, k)
        Index pairs with j < k; the root generator is ``E_jk``.
    cartan_frame : ndarray, shape (n-1, n)
        Rows ``v_m`` realizing ``cartan_basis[m] = i diag(v_m)``; maps
        diagonal spectra to Cartan coordinates.
    bracket_table : ndarray, shape (2n^2, N^2)
        Column ``b*N + a`` holds ``-Re`` and ``+Im`` of the transposed
        entries of ``[t_b, t_a]``, interleaved, so that ``x.view(float)`` of
        a flattened complex ``x`` times the table is ``-Re tr([t_b, t_a] x)``.
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
                e = self.root_generator(j, k)
                mats.append((e - e.T) / np.sqrt(2))
                mats.append(1j * (e + e.T) / np.sqrt(2))
                offs.append((j, k))
        self.compact_basis = np.array(mats)
        self.cartan_basis = cart
        self.real_basis = np.concatenate([self.compact_basis, 1j * self.compact_basis])
        self.positive_roots = offs
        self.dim_compact = n * n - 1
        basis, nb = self.compact_basis, self.dim_compact
        comms = (basis[:, None] @ basis - basis @ basis[:, None]).swapaxes(-1, -2)
        comms = comms.reshape(nb * nb, n * n)
        self.bracket_table = np.stack([-comms.real, comms.imag], -1).reshape(nb * nb, -1).T.copy()
        self._fd_exponentials = {}

    def root_generator(self, j, k):
        """Elementary matrix E_jk (j < k gives a positive root generator)."""
        e = np.zeros((self.n, self.n), dtype=complex)
        e[j, k] = 1.0
        return e

    # ---- coordinates over the real basis -------------------------------

    def compact_coords(self, x):
        """Coordinates over the compact basis of elements of su(n), over leading axes."""
        return pair(self.compact_basis, np.asarray(x)[..., None, :, :]).real

    def real_coords(self, x):
        """Coordinates over the real basis of traceless matrices, over leading axes."""
        x = np.asarray(x)
        a = (x - bar(x)) / 2
        b = -1j * (x + bar(x)) / 2
        return np.concatenate([self.compact_coords(a), self.compact_coords(b)], axis=-1)

    def structure_constants(self):
        """f[a, c, e] with [t_a, t_c] = sum_e f[a,c,e] t_e over the real basis."""
        rb = self.real_basis
        return self.real_coords(rb[:, None] @ rb - rb @ rb[:, None])

    def fd_exponentials(self, h):
        """``(exp(h t_a), exp(-h t_a))`` over the real basis, built once per step."""
        if h not in self._fd_exponentials:
            steps = np.array([h, -h])[:, None, None, None]
            self._fd_exponentials[h] = tuple(_expm(steps * self.real_basis))
        return self._fd_exponentials[h]

    def random_compact(self, rng, scale=1.0):
        """Random element of su(n) with N(0, scale) coordinates."""
        return np.einsum(
            "a,aij->ij", rng.normal(0.0, scale, self.dim_compact), self.compact_basis
        )

    def random_unitary(self, rng, shape=()):
        """Haar-distributed SU(n) elements of shape ``shape + (n, n)``.

        QR of a Ginibre matrix with the phases fixed.  A stack draws the same
        numbers as successive single calls and gives bit-equal matrices.
        """
        return self.unitary_from_normals(rng.normal(size=tuple(shape) + (2, self.n, self.n)))

    def unitary_from_normals(self, z):
        """``random_unitary``'s SU(n) elements from its standard normals ``z``, shape
        ``(..., 2, n, n)`` (real then imaginary parts); each matrix depends only on its own
        normals, so one call over draws from several generators is bit-equal to a call per draw.
        """
        q, r = np.linalg.qr(z[..., 0, :, :] + 1j * z[..., 1, :, :])
        d = np.diagonal(r, axis1=-2, axis2=-1)
        q = q * (d / np.abs(d))[..., None, :]
        # the scalar power, matrix by matrix: the array power differs in the last bit
        root = np.array([det ** (1.0 / self.n) for det in np.ravel(np.linalg.det(q))])
        return q / root.reshape(np.shape(q)[:-2] + (1, 1))

    def casimir_contract(self, m1, m2):
        """Sum_a Tr(t_a M) Tr(t_a N) over the compact basis."""
        return sum(np.trace(t @ m1) * np.trace(t @ m2) for t in self.compact_basis)


def _central_differences(values, axis, h):
    """``(plus - minus) / 2h`` from the values at the plus and the minus steps.

    ``values`` holds them at index 0 and 1 of ``axis``, which the quotient
    drops; every other axis (a point's leading axes, a basis, a stack of
    bases) passes through in order.  Non-finite values raise.
    """
    values = np.asarray(values)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite values raise below
        out = (values.take(0, axis) - values.take(1, axis)) / (2 * h)
    if not np.all(np.isfinite(out)):
        raise EvaluationError("test function returned a non-finite value")
    return out


def _r_contract(x, r, y):
    """``x @ r @ y`` for covectors ``x``, ``y`` with leading axes, bit for bit per pair.

    Each pair takes the row-by-matrix and the dot product that ``x @ r @ y``
    takes for single covectors; ``np.sum((x @ r) * y, -1)`` would not.
    """
    return (x[..., None, :] @ r @ y[..., :, None])[..., 0, 0]


def _point_value(v):
    """A bracket's value: a float at a single point, the array over a stack's leading axes."""
    return float(v) if np.ndim(v) == 0 else v


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


def weyl_normalize(theta):
    """Map a spectrum vector into the closed chamber and validate genericity.

    Sorts the entries in decreasing order.  Raises ``InvalidSpectrum`` when
    there are fewer than two entries or they do not sum to zero within 1e-12,
    and ``BoundaryOrbit`` when two entries come within 1e-12 (the orbit would
    not have maximal dimension).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size < 2:
        raise InvalidSpectrum(f"a spectrum needs at least two entries, got {theta.size}")
    if abs(theta.sum()) > 1e-12:
        raise InvalidSpectrum(f"entries sum to {theta.sum():.3e}, expected 0")
    s = np.sort(theta)[::-1]
    if np.min(np.abs(np.diff(s))) <= 1e-12:
        raise BoundaryOrbit("repeated spectrum entries: boundary of the Weyl chamber")
    return CartanVector(tuple(float(x) for x in s))


@dataclass
class RMatrix:
    """Pair of classical r-matrices for the (t, u) family, over the real basis.

    ``tensor`` holds the coefficients of the plus matrix; the minus matrix is
    ``-P(plus)`` (``P`` = slot flip), i.e. minus the transposed array.
    """

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


def r_matrix(ctx, t, u=None):
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
    return RMatrix(tensor=coeff, minus_tensor=-coeff.T)


def cybe_residual(ctx, coeff):
    """Max-norm of [r12,r13] + [r12,r23] + [r13,r23] in the real tensor cube."""
    f = ctx.structure_constants()
    t1 = np.einsum("ab,cd,ace->ebd", coeff, coeff, f)
    t2 = np.einsum("ab,cd,bce->aed", coeff, coeff, f)
    t3 = np.einsum("ab,cd,bde->ace", coeff, coeff, f)
    return float(np.max(np.abs(t1 + t2 + t3)))
