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

import numpy as np

from .decompositions import KStarElement, dressing_action, e_map, f_map
from .errors import IllConditioned, NonRegular
from .lie_core import CartanVector, _central_differences, pair

__all__ = [
    "OrbitPoint",
    "DressingOrbitPoint",
    "MomentSolution",
    "NoSolution",
    "orbit_point",
    "sample_orbit",
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


def orbit_point(ctx, H, k):
    """Realize ``Ad_k I(H)`` as an orbit point with witness k."""
    x = k @ H.matrix @ k.conj().T
    return OrbitPoint(X=x, H=H, witness=np.asarray(k))


def sample_orbit(ctx, H, seed):
    """Haar-uniform orbit point, deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    return orbit_point(ctx, H, ctx.random_unitary(rng))


def kk_bracket(ctx, psi1, psi2, P, fd_step=1e-5):
    """Linear (orbit) bracket ``<P, [grad psi1, grad psi2]>`` at P in su(n).

    Gradients are central differences over the orthonormal compact basis,
    realized as su(n) elements; the pairing is the invariant form.
    """
    P = np.asarray(P)
    plus = [P + fd_step * t for t in ctx.compact_basis]
    minus = [P - fd_step * t for t in ctx.compact_basis]
    g1 = _central_differences(psi1, plus, minus, fd_step)
    g2 = _central_differences(psi2, plus, minus, fd_step)
    grad1 = np.einsum("a,aij->ij", g1, ctx.compact_basis)
    grad2 = np.einsum("a,aij->ij", g2, ctx.compact_basis)
    return float(pair(P, grad1 @ grad2 - grad2 @ grad1).real)


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
    """Exponential of an anti-Hermitian matrix via eigendecomposition."""
    vals, vecs = np.linalg.eigh(1j * w)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def _levenberg_marquardt(ctx, residual, jacobian, ks, tol, max_iter, grad_floor, stall):
    """Damped Gauss-Newton on SU(n)^3 with exponential retractions.

    ``residual(ks)`` returns ``(state, f)`` and ``jacobian(ks, state)`` the
    derivative of f along ``k_i -> exp(s t_b) k_i``.  With ``stall`` it gives
    up on residuals far above ``tol`` that 12 iterations cut by under 10%.
    """
    nb = ctx.dim_compact
    lam = 1e-3
    state, f = residual(ks)
    best = np.linalg.norm(f)
    stall_ref, stall_count = best, 0
    for _ in range(max_iter):
        if best <= tol:
            break
        jac = jacobian(ks, state)
        g = jac.T @ f
        if np.linalg.norm(g) < grad_floor:
            break
        step = np.linalg.solve(jac.T @ jac + lam * np.eye(3 * nb), -g)
        new_ks = [
            _exp_su(ctx, np.einsum("a,aij->ij", step[i * nb:(i + 1) * nb], ctx.compact_basis)) @ ks[i]
            for i in range(3)
        ]
        new_state, f_new = residual(new_ks)
        if np.linalg.norm(f_new) < best:
            ks, state, f = new_ks, new_state, f_new
            best = np.linalg.norm(f)
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 8.0
            if lam > 1e8:
                break
        if stall:
            stall_count += 1
            if stall_count >= 12:
                if best > 1e3 * tol and best > 0.9 * stall_ref:
                    break
                stall_ref, stall_count = best, 0
    return ks, best


def _solve(ctx, residual, jacobian, seed, tol, restarts, max_iter, grad_floor, stall,
           start=None):
    """Restarts from ``default_rng((seed, trial))`` draws, or ``start(rng)`` at trial 0.

    The first trial reaching ``tol`` wins: returns ``(trial, ks, residual)``,
    else ``NoSolution``.
    """
    best = np.inf
    for trial in range(restarts):
        rng = np.random.default_rng((seed, trial))
        if trial == 0 and start is not None:
            ks = start(rng)
        else:
            ks = [ctx.random_unitary(rng) for _ in range(3)]
        ks, res = _levenberg_marquardt(ctx, residual, jacobian, ks, tol, max_iter,
                                       grad_floor, stall)
        best = min(best, res)
        if res <= tol:
            return trial, ks, res
    return NoSolution(best_residual=float(best), trials=restarts)


def _zero_residual(ctx, hs, ks):
    xs = [k @ h.matrix @ k.conj().T for k, h in zip(ks, hs)]
    m = xs[0] + xs[1] + xs[2]
    return xs, -np.real(np.einsum("bij,ji->b", ctx.compact_basis, m))


def _zero_jacobian(ctx, xs):
    """Analytic derivative of the zero-level residual: commutators with the basis."""
    comms = np.concatenate(
        [np.einsum("aij,jk->aik", ctx.compact_basis, x)
         - np.einsum("ij,ajk->aik", x, ctx.compact_basis) for x in xs])
    return -np.real(np.einsum("bij,aji->ba", ctx.compact_basis, comms))


def _regularity(ctx, xs, threshold=1e-6):
    """Rank of the diagonal-action differential; detects continuous stabilizers."""
    rows = []
    for t in ctx.compact_basis:
        rows.append(np.concatenate([ctx.compact_coords(t @ x - x @ t) for x in xs]))
    sv = np.linalg.svd(np.array(rows), compute_uv=False)
    rank = int(np.sum(sv > threshold))
    return rank, sv


def solve_moment_zero(ctx, h1, h2, h3, seed=0, tol=1e-10, restarts=32, max_iter=200):
    """Find orbit points with ``X1 + X2 + X3 = 0`` or report failure.

    Runs seeded Gauss-Newton restarts; returns a ``MomentSolution`` on the
    first trial reaching ``tol`` and ``NoSolution`` with the best residual
    otherwise.  Identical inputs and seed give identical output.
    """
    hs = [h1, h2, h3]
    found = _solve(ctx, lambda ks: _zero_residual(ctx, hs, ks),
                   lambda ks, xs: _zero_jacobian(ctx, xs),
                   seed, tol, restarts, max_iter, grad_floor=1e-15, stall=True)
    if isinstance(found, NoSolution):
        return found
    trial, ks, res = found
    xs, _ = _zero_residual(ctx, hs, ks)
    rank, _ = _regularity(ctx, xs)
    pts = [OrbitPoint(X=x, H=h, witness=k) for x, h, k in zip(xs, hs, ks)]
    return MomentSolution(kind="zero", points=pts, residual=float(res),
                          regularity_rank=rank, trial=trial)


_DRESSING_FD = 1e-6


def _dressing_inputs(ctx, hs, t, u):
    """Orbit base points ``e(H_i)`` and the step unitaries ``exp(fd t_b)``."""
    bases = [e_map(ctx, h.matrix, t, u) for h in hs]
    steps = [_exp_su(ctx, _DRESSING_FD * tb) for tb in ctx.compact_basis]
    return bases, steps


def _dressed(ctx, bases, ks, u):
    """The dressed triple ``AD*_{k_i} e(H_i)`` as dual-group elements."""
    return [dressing_action(ctx, k, b, u=u)[1] for k, b in zip(ks, bases)]


def _product_residual(ctx, mats):
    m = mats[0] @ mats[1] @ mats[2] - np.eye(ctx.n)
    return np.concatenate([m.real.ravel(), m.imag.ravel()])


def _dressing_jacobian(ctx, bases, steps, ks, mats, u):
    """Central differences under ``k_i -> exp(±fd t_b) k_i`` through the dressing.

    ``mats`` is the dressed triple at ``ks``; a column re-dresses only the
    moved slot.  Returns the Jacobian of the product residual and, per slot,
    the Jacobian of the dressed triple.
    """
    fd = _DRESSING_FD
    cols, slots = [], []
    for i in range(3):
        block = []
        for ep in steps:
            mp, mm = list(mats), list(mats)
            mp[i] = dressing_action(ctx, ep @ ks[i], bases[i], u=u)[1].matrix
            mm[i] = dressing_action(ctx, ep.conj().T @ ks[i], bases[i], u=u)[1].matrix
            cols.append((_product_residual(ctx, mp) - _product_residual(ctx, mm)) / (2 * fd))
            block.append(
                np.concatenate([(a - b).ravel().view(float) for a, b in zip(mp, mm)]) / (2 * fd))
        slots.append(np.array(block).T)
    return np.array(cols).T, slots


def solve_moment_kstar(ctx, h1, h2, h3, t, u=None, seed=0, tol=1e-9, restarts=32,
                       max_iter=120, warm_start=True):
    """Find dressing orbit points with ``k*1 k*2 k*3 = e`` or report failure.

    Same restart contract as the zero-level solver; the Jacobian is built by
    central differences through the dressing pipeline.  When ``warm_start``
    is set, trial 0 seeds from the zero-level solution's witnesses.
    """
    hs = [h1, h2, h3]
    bases, steps = _dressing_inputs(ctx, hs, t, u)

    def residual(ks):
        mats = [p.matrix for p in _dressed(ctx, bases, ks, u)]
        return mats, _product_residual(ctx, mats)

    def start(rng):
        zero = solve_moment_zero(ctx, h1, h2, h3, seed=seed, restarts=8)
        if isinstance(zero, NoSolution):
            return [ctx.random_unitary(rng) for _ in range(3)]
        return [p.witness for p in zero.points]

    found = _solve(ctx, residual,
                   lambda ks, mats: _dressing_jacobian(ctx, bases, steps, ks, mats, u)[0],
                   seed, tol, restarts, max_iter, grad_floor=1e-14, stall=False,
                   start=start if warm_start else None)
    if isinstance(found, NoSolution):
        return found
    trial, ks, res = found
    pts = _dressed(ctx, bases, ks, u)
    xs = [_dual_log(ctx, p, t) for p in pts]
    rank, _ = _regularity(ctx, xs)
    out = [DressingOrbitPoint(kstar=p, H=h, t=t, witness=k)
           for p, h, k in zip(pts, hs, ks)]
    return MomentSolution(kind="dual", points=out, residual=float(res),
                          regularity_rank=rank, t=float(t), u=u, trial=trial)


def _dual_log(ctx, p, t):
    """Recover the anti-Hermitian orbit realization from f(k*) = exp(2 i t X)."""
    kstar = p.kstar if isinstance(p, DressingOrbitPoint) else p
    w, v = np.linalg.eigh(f_map(kstar).matrix)
    return -1j * (v * (np.log(w) / (2.0 * t))) @ v.conj().T


# ---------------------------------------------------------------------------
# gauge fixing and the reduced dimension
# ---------------------------------------------------------------------------

def _align_first(ctx, x1, h1):
    """Unitary v with v^† x1 v = I(H1); columns ordered by decreasing theta."""
    vals, vecs = np.linalg.eigh(1j * x1)  # ascending -theta = descending theta
    v = vecs / np.linalg.det(vecs) ** (1.0 / ctx.n)
    return v


def _torus_phases(ctx, x2, tol=1e-10):
    """Diagonal phases making the superdiagonal of x2 real nonnegative."""
    n = ctx.n
    sup = np.array([x2[m, m + 1] for m in range(n - 1)])
    if np.min(np.abs(sup)) < tol:
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
    Idempotent; raises ``NonRegular`` when a continuous stabilizer or a
    vanishing superdiagonal blocks the normal form.
    """
    if solution.kind == "zero":
        xs = [p.X for p in solution.points]
        rank, _ = _regularity(ctx, xs)
        if rank < ctx.dim_compact:
            raise NonRegular("positive-dimensional stabilizer at the solution")
        v = _align_first(ctx, xs[0], solution.points[0].H)
        xs = [v.conj().T @ x @ v for x in xs]
        d = _torus_phases(ctx, xs[1])
        dm = np.diag(d)
        xs = [dm.conj().T @ x @ dm for x in xs]
        xs[0] = solution.points[0].H.matrix
        move = v @ dm
        pts = [OrbitPoint(X=x, H=p.H,
                          witness=None if p.witness is None else move.conj().T @ p.witness)
               for x, p in zip(xs, solution.points)]
        res = float(np.linalg.norm(ctx.compact_coords(xs[0] + xs[1] + xs[2])))
        return MomentSolution(kind="zero", points=pts, residual=res,
                              regularity_rank=rank, trial=solution.trial)

    t = solution.t
    u = solution.u
    ys = [_dual_log(ctx, p, t) for p in solution.points]
    rank, _ = _regularity(ctx, ys)
    if rank < ctx.dim_compact:
        raise NonRegular("positive-dimensional stabilizer at the solution")
    v = _align_first(ctx, ys[0], solution.points[0].H)
    pts = diag_dressing(ctx, v.conj().T, solution.points, u=u)
    d = np.diag(_torus_phases(ctx, _dual_log(ctx, pts[1], t)))
    pts = diag_dressing(ctx, d.conj().T, pts, u=u)
    pts[0] = DressingOrbitPoint(kstar=e_map(ctx, pts[0].H.matrix, t, u), H=pts[0].H, t=t,
                                witness=pts[0].witness)
    mats = [p.kstar.matrix for p in pts]
    res = float(np.linalg.norm(mats[0] @ mats[1] @ mats[2] - np.eye(ctx.n)))
    return MomentSolution(kind="dual", points=pts, residual=res,
                          regularity_rank=rank, t=t, u=u, trial=solution.trial)


def tangent_rank(ctx, solution, threshold=1e-8):
    """Dimension of the reduced multiplicity space at a regular solution.

    Computed as dim ker(constraint differential on orbit tangents) minus the
    dimension of the diagonal-action orbit.  Raises ``IllConditioned`` when
    singular values cluster at the threshold and ``NonRegular`` when the
    diagonal action has a continuous stabilizer.
    """
    nb = ctx.dim_compact
    relative = solution.kind != "zero"
    if not relative:
        xs = [p.X for p in solution.points]
        blocks = [np.array([ctx.compact_coords(t @ x - x @ t) for t in ctx.compact_basis]).T
                  for x in xs]
        jac = np.hstack(blocks)
    else:  # finite-difference differentials through the dressing pipeline
        t, u = solution.t, solution.u
        ks = [p.witness for p in solution.points]
        bases, steps = _dressing_inputs(ctx, [p.H for p in solution.points], t, u)
        mats = [p.matrix for p in _dressed(ctx, bases, ks, u)]
        jac, blocks = _dressing_jacobian(ctx, bases, steps, ks, mats, u)
        xs = [_dual_log(ctx, p, t) for p in solution.points]
    sv = np.linalg.svd(jac, compute_uv=False)
    _check_gap(sv, threshold)
    rank_j = int(np.sum(sv > threshold * (max(1.0, sv[0]) if relative else 1.0)))
    slot_nullity = 0
    for block in blocks:
        svb = np.linalg.svd(block, compute_uv=False)
        _check_gap(svb, threshold)
        slot_nullity += int(np.sum(svb <= threshold * (max(1.0, svb[0]) if relative else 1.0)))
    reg_rank, _ = _regularity(ctx, xs)
    if reg_rank < nb:
        raise NonRegular("continuous stabilizer: reduced space is singular here")
    return (3 * nb - rank_j) - slot_nullity - reg_rank


def _check_gap(sv, threshold):
    if np.any((sv > 0.1 * threshold) & (sv < 10.0 * threshold)):
        raise IllConditioned("singular values cluster at the rank threshold")
