"""Coadjoint and dressing orbits, the linear orbit bracket, and moment solvers.

Orbit points are stored as realized matrices: a coadjoint orbit point is an
anti-Hermitian ``X = k I(H) k^{-1}``; a dressing orbit point is a dual-group
element ``AD*_k e(I(H))``.  The zero-level solver finds triples with
``X1 + X2 + X3 = 0``; the dual-level solver finds ``k*1 k*2 k*3 = e``.  Both
run damped Gauss-Newton on SU(n)^3 with exponential retractions and seeded
random restarts, so identical inputs and seed give identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .decompositions import (KStarElement, _dual_part, _iwasawa_dual, _theta_twist,
                             dressing_action, e_map, f_map)
from .errors import IllConditioned, NonRegular, ToleranceNotMet, ToleranceTooLoose
from .lie_core import CartanVector, _central_differences, _point_value, pair

__all__ = [
    "OrbitPoint",
    "DressingOrbitPoint",
    "MomentSolution",
    "NoSolution",
    "kk_bracket",
    "diag_coadjoint",
    "diag_dressing",
    "solve_moment_zero",
    "solve_moment_kstar",
    "gauge_fix",
    "tangent_rank",
]


@dataclass
class OrbitPoint:
    """Point of a coadjoint orbit with its chamber label and unitary witness."""

    X: np.ndarray
    H: CartanVector
    witness: np.ndarray = None

    def spectrum_residual(self):
        """Mismatch between spec(-iX) and the orbit label, as multisets."""
        ev = np.sort(np.linalg.eigvalsh(-1j * self.X))[::-1]
        return float(np.max(np.abs(ev - np.array(self.H.theta))))


@dataclass
class DressingOrbitPoint:
    """Dual-group orbit point with its chamber label and deformation scale."""

    kstar: KStarElement
    H: CartanVector
    t: float
    witness: np.ndarray = None

    def spectrum_residual(self):
        """Mismatch of spec f(k*) against exp(2 t theta)-type targets."""
        ev = np.sort(np.linalg.eigvalsh(f_map(self.kstar).matrix))
        want = np.sort(np.exp(-2.0 * self.t * np.array(self.H.theta)))
        return float(np.max(np.abs(ev - want) / want))


@dataclass
class NoSolution:
    """Returned when the restart budget is exhausted above the threshold."""

    best_residual: float
    trials: int


@dataclass
class MomentSolution:
    """Solution of a moment-level constraint on a triple orbit product."""

    kind: str  # "zero" or "dual"
    points: list
    residual: float
    regularity_rank: int
    t: float = 0.0
    u: np.ndarray = None
    trial: int = field(default=0, repr=False)


def kk_bracket(ctx, psi1, psi2, P, fd_step=1e-5):
    """Linear (orbit) bracket ``<P, [grad psi1, grad psi2]>`` at P in su(n).

    Gradients are central differences over the orthonormal compact basis,
    realized as su(n) elements; the pairing is the invariant form.  Each
    test function is called once, on the step points ``lead + (2, N, n, n)``
    of a ``P`` with leading axes ``lead``; the value is an array over
    ``lead`` (a float at a single point), so a bracket is a test function.
    """
    P = np.asarray(P)
    lead = P.ndim - 2
    points = _step_points(ctx, P, fd_step)
    g1 = _central_differences(psi1(points), lead, fd_step)
    g2 = _central_differences(psi2(points), lead, fd_step)
    return _point_value(_orbit_pairing(ctx, P, g1, g2).real)


def _step_points(ctx, P, fd_step):
    """The points ``P ± h t_a`` of ``P`` with leading axes ``lead``: ``lead + (2, N, n, n)``."""
    steps = np.array([fd_step, -fd_step])[:, None, None, None] * ctx.compact_basis
    return P[..., None, None, :, :] + steps


def _orbit_pairing(ctx, P, g1, g2):
    """``<P, [grad1, grad2]>`` from the gradients' (real or complex) compact-basis coordinates."""
    grad1 = np.einsum("...a,aij->...ij", g1, ctx.compact_basis)
    grad2 = np.einsum("...a,aij->...ij", g2, ctx.compact_basis)
    return pair(P, grad1 @ grad2 - grad2 @ grad1)


def diag_coadjoint(k, points):
    """Diagonal conjugation action on a triple of coadjoint orbit points."""
    return [OrbitPoint(X=k @ p.X @ k.conj().T, H=p.H,
                       witness=None if p.witness is None else k @ p.witness)
            for p in points]


def diag_dressing(ctx, k, points, u=None):
    """Diagonal dressing action: each factor is dressed by the running unitary."""
    out = []
    run = np.asarray(k)
    for p in points:
        rho, rho_star = dressing_action(ctx, run, p.kstar, u=u)
        out.append(DressingOrbitPoint(kstar=rho_star, H=p.H, t=p.t,
                                      witness=None if p.witness is None else run @ p.witness))
        run = rho
    return out


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _exp_su(ctx, w):
    """Exponential of anti-Hermitian matrices (over leading axes) via eigendecomposition."""
    # not lie_core._expm: its Taylor degree follows the stack's largest norm, coupling the rows
    vals, vecs = np.linalg.eigh(1j * w)
    return (vecs * np.exp(-1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


_MAX_ITER = 200
_RANK_THRESHOLD = 1e-8  # relative singular-value cutoff of the dimension count


def _norms(f):
    """Euclidean norm of each row, bit-equal to ``np.linalg.norm`` of that row.

    A row times a column is one dot product, the arithmetic of ``np.linalg.norm``.
    """
    return np.sqrt(f[..., None, :] @ f[..., :, None])[..., 0, 0]


def _damped_steps(normal, rhs):
    """Steps ``normal^-1 rhs`` over a stack, zero where ``normal`` is singular, and that mask;
    only a stack with a singular matrix is solved matrix by matrix, as the stacked solve does."""
    try:
        return np.linalg.solve(normal, rhs)[..., 0], np.zeros(len(normal), bool)
    except np.linalg.LinAlgError:
        if len(normal) == 1:
            return np.zeros(rhs.shape[:-1]), np.ones(1, bool)
        steps, singular = zip(*(_damped_steps(a[None], b[None]) for a, b in zip(normal, rhs)))
        return np.concatenate(steps), np.concatenate(singular)


def _levenberg_marquardt(ctx, residual, jacobian, ks, labels, tol):
    """Damped Gauss-Newton on SU(n)^3 with exponential retractions, over a stack of rows.

    ``ks`` has shape ``(T, 3, n, n)`` and ``labels`` holds one label row per
    row of ``ks``; ``residual(ks, labels)`` returns ``(state, f)`` stacked the
    same way, and ``jacobian(state)`` the derivative of each f along
    ``k_i -> exp(s t_b) k_i``.  Every row keeps its own damping, best
    residual and stall reference, and only rows still running are evaluated,
    so a row's result does not depend on the rest of the stack.  A row
    stops at ``tol``, after ``_MAX_ITER`` iterations, when its damping passes
    1e8, or on a residual far above ``tol`` that 12 iterations cut by under
    10%.  Returns the final ``ks``, the best residual and the iteration count
    of each row.
    """
    nb = ctx.dim_compact
    ks = np.array(ks)
    lam = np.full(len(ks), 1e-3)
    state, f = residual(ks, labels)
    best = _norms(f)
    stall_ref = best.copy()
    iters = np.zeros(len(ks), dtype=int)
    running = np.isfinite(best) & (best > tol)  # a non-finite start has no Jacobian
    eye = np.eye(3 * nb)
    for it in range(1, _MAX_ITER + 1):
        live = np.flatnonzero(running)
        if live.size == 0:
            break
        iters[live] = it
        jac = jacobian(state[live])
        jt = jac.swapaxes(-1, -2)
        rhs = -(jt @ f[live][..., None])
        step, singular = _damped_steps(jt @ jac + lam[live, None, None] * eye, rhs)
        turn = _exp_su(ctx, np.einsum("...a,aij->...ij", step.reshape(-1, 3, nb),
                                      ctx.compact_basis))
        new_ks = turn @ ks[live]
        new_state, f_new = residual(new_ks, labels[live])
        new_best = _norms(f_new)
        better = new_best < best[live]
        # the damping can vanish against the gauge null space of J^T J at large t theta:
        better[singular] = False  # a trial with a singular matrix has no step, so it is rejected
        up, down = live[better], live[~better]
        ks[up], state[up], f[up], best[up] = (new_ks[better], new_state[better],
                                              f_new[better], new_best[better])
        lam[up] = np.maximum(lam[up] * 0.3, 1e-12)
        lam[down] *= 8.0
        running[down[lam[down] > 1e8]] = False
        if it % 12 == 0:
            live = live[running[live]]
            stalled = (best[live] > 1e3 * tol) & (best[live] > 0.9 * stall_ref[live])
            running[live[stalled]] = False
            stall_ref[live] = best[live]
        running &= best > tol
    return ks, best, iters


def _solve(ctx, residual, jacobian, labels, seeds, tol, restarts, first=None):
    """Seeded restarts of the problems ``p`` with labels ``labels[p]`` and seeds ``seeds[p]``.

    Trial ``j`` of ``p`` starts from a ``default_rng((seeds[p], j))`` draw, or from ``first[p]``
    at trial 0.  Trial 0 of every problem runs as one stack, then trials ``1..restarts-1`` of
    the unsolved ones.  Per problem, the lowest-index trial reaching ``tol`` wins: returns
    ``(trial, ks, residual)``, else ``NoSolution``; raises when no trial of an unsolved
    problem reaches a finite residual.
    """
    found, best = [None] * len(seeds), np.full(len(seeds), np.inf)
    for trials in (range(min(1, restarts)), range(1, restarts)):
        rows = [(p, trial) for p, won in enumerate(found) if won is None for trial in trials]
        if not rows:
            break
        probs = [p for p, _ in rows]
        starts = first if trials[0] == 0 and first is not None else ctx.unitary_from_normals(
            np.array([np.random.default_rng((seeds[p], j)).normal(size=(3, 2, ctx.n, ctx.n))
                      for p, j in rows]))
        ks, res, _ = _levenberg_marquardt(ctx, residual, jacobian, starts, labels[probs], tol)
        for (p, trial), k, r in zip(rows, ks, res):
            if found[p] is None and r <= tol:
                found[p] = trial, k, r
        np.fmin.at(best, probs, res)  # fmin skips NaN
    if any(won is None and not np.isfinite(b) for won, b in zip(found, best)):
        raise ToleranceNotMet("non-finite solver state: no trial reached a finite residual")
    return [NoSolution(best_residual=float(b), trials=restarts) if won is None else won
            for won, b in zip(found, best)]


def _zero_residual(ctx, ks, diags):
    """The triple ``k_i I(H_i) k_i^{-1}`` and the coordinates ``-Re tr(t_b m)`` of its sum m.

    ``diags`` holds the diagonals ``i theta_i`` of the ``I(H_i)``; scaling
    the columns of ``k_i`` by them gives the bits of ``k_i @ I(H_i)``, since
    the product's zero terms add exactly.  The coordinates are summed in a
    fixed order, so a row's residual does not depend on the stack it is
    evaluated in.
    """
    xs = (ks * diags[..., None, :]) @ ks.conj().swapaxes(-1, -2)
    m = (xs[..., 0, :, :] + xs[..., 1, :, :] + xs[..., 2, :, :]).swapaxes(-1, -2)[..., None, :, :]
    basis = ctx.compact_basis
    return xs, -(basis.real * m.real - basis.imag * m.imag).sum(-1).sum(-1)


def _commutator_coords(ctx, xs):
    """Coordinates of ``[t_a, x_i]``: entry ``(b, i*nb + a)`` is the b-th one.

    This is the derivative of ``sum_i x_i`` along ``k_i -> exp(s t_a) k_i``.
    The form is ad-invariant, so each ``nb x nb`` block is antisymmetric and
    the matrix is also minus that of the diagonal infinitesimal action; the
    entry is ``-Re tr([t_b, t_a] x_i)``, read off ``ctx.bracket_table`` by
    one real product per matrix.  Leading axes of ``xs`` (shape
    ``(..., 3, n, n)``) are kept.
    """
    xs, nb = np.ascontiguousarray(xs, complex), ctx.dim_compact
    lead, m = xs.shape[:-3], xs.shape[-3]
    coords = xs.reshape(lead + (m, ctx.n ** 2)).view(float) @ ctx.bracket_table
    return coords.reshape(lead + (m, nb, nb)).swapaxes(-2, -3).reshape(lead + (nb, m * nb))


def _regularity(ctx, xs):
    """Rank(s) of the diagonal-action differential; detects continuous stabilizers."""
    sv = np.linalg.svd(_commutator_coords(ctx, xs), compute_uv=False)
    return np.sum(sv > 1e-6, axis=-1).tolist()


def solve_moment_zero(ctx, h1, h2, h3, seed=0, tol=1e-10, restarts=32):
    """Find orbit points with ``X1 + X2 + X3 = 0`` or report failure.

    Runs seeded Gauss-Newton restarts; returns a ``MomentSolution`` on the
    lowest-index trial reaching ``tol`` and ``NoSolution`` with the best
    residual otherwise.  Identical inputs and seed give identical output.
    """
    return _solve_zero(ctx, [[h1, h2, h3]], [seed], tol, restarts)[0]


def _solve_zero(ctx, problems, seeds, tol, restarts):
    """``solve_moment_zero`` of each triple ``problems[p]`` with seed ``seeds[p]``, as one batch."""
    diags = 1j * np.array([[h.theta for h in hs] for hs in problems]).reshape(-1, 3, ctx.n)
    with np.errstate(all="ignore"):  # huge spectra overflow the state, and _solve raises
        found = _solve(ctx, partial(_zero_residual, ctx), partial(_commutator_coords, ctx), diags,
                       seeds, tol, restarts)
    solved = [p for p, won in enumerate(found) if not isinstance(won, NoSolution)]
    ks = np.array([found[p][1] for p in solved]).reshape(-1, 3, ctx.n, ctx.n)
    xs, _ = _zero_residual(ctx, ks, diags[solved])
    for p, k, x, rank in zip(solved, ks, xs, _regularity(ctx, xs)):
        pts = [OrbitPoint(X=xi, H=h, witness=ki) for xi, h, ki in zip(x, problems[p], k)]
        found[p] = MomentSolution(kind="zero", points=pts, residual=float(found[p][2]),
                                  regularity_rank=rank, trial=found[p][0])
    return found


def _dressing_jacobian(ctx, mats, u):
    """Derivatives of the dressed triples ``mats`` along ``k_i -> exp(s t_b) k_i``.

    If ``k_i e(H_i) = b k'``, then ``exp(s t_b) b = b(s) k'(s)`` splits
    ``b^-1 t_b b`` along ``sl(n,C) = b_u + su(n)``, so the dressed factor
    moves by ``b _dual_part(b^-1 t_b b)``.  For ``mats`` of shape
    ``(..., 3, n, n)``, returns the Jacobian of the product residual, shape
    ``(..., 2n², 3nb)`` with column ``i*nb + b``, and the derivative of each
    slot, ``(..., 3, nb, n, n)``.
    """
    b = mats[..., None, :, :]
    moved = b @ _dual_part(ctx, np.linalg.inv(b) @ ctx.compact_basis @ b, u)
    m0, m1, m2 = (mats[..., None, i, :, :] for i in range(3))
    cols = np.stack([moved[..., 0, :, :, :] @ m1 @ m2, m0 @ moved[..., 1, :, :, :] @ m2,
                     m0 @ m1 @ moved[..., 2, :, :, :]], axis=-4)
    return cols.reshape(cols.shape[:-4] + (-1, ctx.n ** 2)).view(float).swapaxes(-1, -2), moved


def _kstar_residual(ctx, ks, bases, u=None):
    """The dressed triples ``AD*_{k_i} e(H_i)`` from the bases ``e(H_i)``, and the entries of
    ``k*1 k*2 k*3 - e`` as interleaved real and imaginary parts."""
    mats = _iwasawa_dual(ctx, ks @ bases, u)[0]
    prod = mats[..., 0, :, :] @ mats[..., 1, :, :] @ mats[..., 2, :, :] - np.eye(ctx.n)
    return mats, prod.reshape(prod.shape[:-2] + (-1,)).view(float)


def solve_moment_kstar(ctx, h1, h2, h3, t, u=None, seed=0, tol=1e-9, restarts=32):
    """Find dressing orbit points with ``k*1 k*2 k*3 = e`` or report failure.

    Same restart contract as the zero-level solver; the Jacobian is the closed-form derivative
    of the dressing action, from the Iwasawa splitting of sl(n,C) into su(n) and the dual
    algebra.  Trial 0 starts from the zero-level solution's witnesses when there is one.
    Raises ``ToleranceTooLoose`` when ``tol >= B = |t| sum_i (sqrt(2) |theta_i| + |phi_i|)``,
    ``phi_i`` the twist phases: to first order in ``t`` every residual is at most ``B``.
    """
    hs = [h1, h2, h3]
    with np.errstate(all="ignore"):  # at large t the state overflows, and _solve raises
        bound = abs(t) * sum(np.sqrt(2) * np.linalg.norm(h.theta)
                             + np.linalg.norm(_theta_twist(ctx, u, np.array(h.theta))) for h in hs)
        if tol >= bound:
            raise ToleranceTooLoose(f"t = {t} is too small for tol = {tol}: to first order, "
                                    f"every triple's residual is at most B = {bound:.3g}")
        bases = np.array([[e_map(ctx, h.matrix, t, u).matrix for h in hs]])
        zero = solve_moment_zero(ctx, h1, h2, h3, seed=seed, restarts=8)
        first = None if isinstance(zero, NoSolution) else [[p.witness for p in zero.points]]
        found, = _solve(ctx, partial(_kstar_residual, ctx, u=u),
                        lambda mats: _dressing_jacobian(ctx, mats, u)[0], bases, [seed], tol,
                        restarts, first)
    if isinstance(found, NoSolution):
        return found
    trial, ks, res = found
    pts = [KStarElement(m) for m in _kstar_residual(ctx, ks, bases[0], u)[0]]
    rank = _regularity(ctx, [_dual_log(ctx, p, t) for p in pts])
    out = [DressingOrbitPoint(kstar=p, H=h, t=t, witness=k)
           for p, h, k in zip(pts, hs, ks)]
    return MomentSolution(kind="dual", points=out, residual=float(res),
                          regularity_rank=rank, t=float(t), u=u, trial=trial)


def _dual_log(ctx, kstar, t):
    """Recover the anti-Hermitian orbit realization from f(k*) = exp(2 i t X)."""
    w, v = np.linalg.eigh(f_map(kstar).matrix)
    return -1j * (v * (np.log(w) / (2.0 * t))) @ v.conj().T


# ---------------------------------------------------------------------------
# gauge fixing and the reduced dimension
# ---------------------------------------------------------------------------

def _align_first(ctx, x1):
    """Unitary v with v^† x1 v = I(H1); columns ordered by decreasing theta."""
    _, vecs = np.linalg.eigh(1j * x1)  # ascending -theta = descending theta
    return vecs / np.linalg.det(vecs) ** (1.0 / ctx.n)


def _torus_phases(ctx, x2):
    """Diagonal phases making the superdiagonal of x2 real nonnegative."""
    n = ctx.n
    sup = np.array([x2[m, m + 1] for m in range(n - 1)])
    if np.min(np.abs(sup)) < 1e-10:
        raise NonRegular("vanishing superdiagonal entry: residual torus not fixable")
    delta = np.angle(sup)  # phi_m - phi_{m+1}; conjugation scales entry by e^{-i delta}
    phi = np.zeros(n)
    for m in range(n - 2, -1, -1):
        phi[m] = phi[m + 1] + delta[m]
    phi -= phi.mean()
    return np.exp(1j * phi)


def gauge_fix(ctx, solution):
    """Canonical representative of the quotient by the diagonal action.

    The first point is rotated exactly onto ``I(H1)``; the residual torus is
    fixed by making the superdiagonal of the second point real nonnegative.
    Both moves go through the level's diagonal action.  Idempotent; raises
    ``NonRegular`` when a continuous stabilizer or a vanishing superdiagonal
    blocks the normal form.
    """
    t, u = solution.t, solution.u
    if solution.kind == "zero":
        realize, act = (lambda p: p.X), diag_coadjoint
    else:
        realize = lambda p: _dual_log(ctx, p.kstar, t)
        act = lambda k, pts: diag_dressing(ctx, k, pts, u=u)
    ys = [realize(p) for p in solution.points]
    rank = _regularity(ctx, ys)
    if rank < ctx.dim_compact:
        raise NonRegular("positive-dimensional stabilizer at the solution")
    pts = act(_align_first(ctx, ys[0]).conj().T, solution.points)
    pts = act(np.diag(_torus_phases(ctx, realize(pts[1]))).conj().T, pts)
    h = pts[0].H
    if solution.kind == "zero":
        pts[0] = OrbitPoint(X=h.matrix, H=h, witness=pts[0].witness)
        res = float(np.linalg.norm(ctx.compact_coords(pts[0].X + pts[1].X + pts[2].X)))
    else:
        pts[0] = DressingOrbitPoint(kstar=e_map(ctx, h.matrix, t, u), H=h, t=t,
                                    witness=pts[0].witness)
        mats = [p.kstar.matrix for p in pts]
        res = float(np.linalg.norm(mats[0] @ mats[1] @ mats[2] - np.eye(ctx.n)))
    return MomentSolution(kind=solution.kind, points=pts, residual=res, regularity_rank=rank,
                          t=t, u=u, trial=solution.trial)


def tangent_rank(ctx, solution):
    """Dimension of the reduced multiplicity space at a regular solution.

    Computed as dim ker(constraint differential on orbit tangents) minus the
    dimension of the diagonal-action orbit; a singular value counts as nonzero
    above ``1e-8 * max(1, sigma_max)``.  Raises ``IllConditioned`` when
    singular values cluster at the threshold and ``NonRegular`` when the
    diagonal action has a continuous stabilizer.
    """
    nb = ctx.dim_compact
    if solution.kind == "zero":
        xs = [p.X for p in solution.points]
        jac = _commutator_coords(ctx, xs)
        blocks = np.hsplit(jac, 3)
    else:  # closed-form differentials of the dressing at the solution's dual-group points
        jac, moved = _dressing_jacobian(ctx, np.array([p.kstar.matrix for p in solution.points]),
                                        solution.u)
        blocks = [d.reshape(nb, -1).view(float).T for d in moved]
        xs = [_dual_log(ctx, p.kstar, solution.t) for p in solution.points]
    rank_j = _rank(jac)
    slot_nullity = sum(nb - _rank(block) for block in blocks)
    reg_rank = _regularity(ctx, xs)
    if reg_rank < nb:
        raise NonRegular("continuous stabilizer: reduced space is singular here")
    return (3 * nb - rank_j) - slot_nullity - reg_rank


def _rank(m):
    """Number of singular values above ``_RANK_THRESHOLD * max(1, sigma_max)``.

    Raises ``IllConditioned`` for a singular value within a factor of 10 of
    ``_RANK_THRESHOLD``.
    """
    sv = np.linalg.svd(m, compute_uv=False)
    if np.any((sv > 0.1 * _RANK_THRESHOLD) & (sv < 10.0 * _RANK_THRESHOLD)):
        raise IllConditioned("singular values cluster at the rank threshold")
    return int(np.sum(sv > _RANK_THRESHOLD * max(1.0, sv[0])))
