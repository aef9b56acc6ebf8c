"""Rational flat connections on the three-holed sphere and their holonomy.

The surface is the plane with holes at +1, -1 and infinity, basepoint 0.
Connections have the form ``A(z) = s (X1/(z-1) + X2/(z+1)) dz`` with
anti-Hermitian residues and ``s = t/pi``; the residue at infinity is
``X3 = -(X1+X2)``.  Transport solves ``dPsi = -A(z(s)) z'(s) Psi`` along each
segment by adaptive panels: a panel's propagator is ``expm(Omega)`` with
``Omega`` the sixth-order Magnus exponent from three Gauss-Legendre nodes, a
combination of ten fixed brackets of the residues.  Panels are refined by step
doubling until the error per unit parameter length is at most ``tol``, in one
loop over every segment of every path of a call whose rounds each exponentiate
a budget of matrices in one stack; each path's resolved panels are folded in as
product trees.  Every stack of the kernel (exponents, propagators, products and
the panels held between rounds) lives in a workspace kept across calls, one per
thread (``lie_core._workspace``): its buffers grow lazily to the largest round
seen and are reused after that, and the kernel's results are views of them that
stay valid until the next kernel call.  ``Omega`` is traceless, so holonomies
have unit determinant up to rounding, and constant gauge transformations
conjugate them.

Orientation conventions, fixed by the spectral targets: the catalogue hole
loops around +1 and -1 run clockwise and the outer loop counterclockwise,
which places ``Hol(A, Gamma_j)`` in the conjugacy class of ``exp(2 i t H_j)``
and makes the catalogue-order word ``gamma1 gamma2 gamma3`` contractible.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import reduce

import numpy as np

from ._serialize import is_number
from .errors import ConstraintViolated, GeometryError, PoleTooClose, SchemaError, ToleranceNotMet
from .lie_core import _expm_stack, _stack_product, _workspace

__all__ = [
    "LineSegment",
    "ArcSegment",
    "Contour",
    "IntersectionDatum",
    "RationalConnection",
    "xi_map",
    "holonomy",
    "holonomy_batch",
    "hole_conjugacy_check",
    "builtin_catalogue",
    "load_catalogue",
    "word_segments",
    "resolved_segments",
]

POLES = (1.0, -1.0)
POLE_MARGIN = 0.1
_SIGMA_ODE_TOL = 1e-11  # transport tolerance of the reflection check
_HOLE_SPECTRUM_TOL = 1e-7  # hyperbolicity bound of hole_conjugacy_check


# ---------------------------------------------------------------------------
# geometric segments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineSegment:
    start: complex
    end: complex

    def z(self, s):
        return self.start + s * (self.end - self.start)

    def dz(self, s):
        return self.end - self.start

    def reflect(self):
        return LineSegment(np.conj(self.start), np.conj(self.end))

    def reverse(self):
        return LineSegment(self.end, self.start)

    def pole_distance(self):
        d = self.end - self.start
        if abs(d) < 1e-14:
            return min(abs(self.start - p) for p in POLES)
        ss = [np.clip(((p - self.start) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0) for p in POLES]
        return min(abs(self.z(s) - p) for s, p in zip(ss, POLES))

    def to_dict(self):
        return {"type": "line", "start": [self.start.real, self.start.imag],
                "end": [self.end.real, self.end.imag]}


@dataclass(frozen=True)
class ArcSegment:
    """Circular arc ``center + radius exp(i angle)``, angle from a0 to a1."""

    center: complex
    radius: float
    a0: float
    a1: float

    def z(self, s):
        return self.center + self.radius * self._turn(s)

    def dz(self, s):
        return 1j * (self.a1 - self.a0) * self.radius * self._turn(s)

    def _turn(self, s):
        return np.exp(1j * (self.a0 + s * (self.a1 - self.a0)))

    def reflect(self):
        return ArcSegment(np.conj(self.center), self.radius, -self.a0, -self.a1)

    def reverse(self):
        return ArcSegment(self.center, self.radius, self.a1, self.a0)

    def pole_distance(self):
        out = []
        lo, hi = min(self.a0, self.a1), max(self.a0, self.a1)
        for p in POLES:
            ang = np.angle(p - self.center)
            radial = abs(abs(p - self.center) - self.radius)
            hits = any(lo - 1e-12 <= ang + 2 * np.pi * k <= hi + 1e-12
                       for k in range(int(np.floor((lo - ang) / (2 * np.pi))) - 1,
                                      int(np.ceil((hi - ang) / (2 * np.pi))) + 2))
            out.append(radial if hits else min(abs(self.z(0.0) - p), abs(self.z(1.0) - p)))
        return min(out)

    def to_dict(self):
        return {"type": "arc", "center": [self.center.real, self.center.imag],
                "radius": self.radius, "a0": self.a0, "a1": self.a1}


def _point_from_pair(xy):
    """A saved ``[re, im]`` point, real when ``im`` is 0 as in the built-in segments.

    A complex point there would round ``z``/``dz``, and so a transport, differently.
    """
    re, im = xy
    return float(re) if im == 0 else complex(re, im)


def _segment_from_dict(d):
    if d["type"] == "line":
        seg = LineSegment(_point_from_pair(d["start"]), _point_from_pair(d["end"]))
    elif d["type"] == "arc":
        seg = ArcSegment(_point_from_pair(d["center"]), float(d["radius"]),
                         float(d["a0"]), float(d["a1"]))
    else:
        raise SchemaError(f"unknown segment type {d.get('type')!r}")
    if not np.isfinite(astuple(seg)).all():
        raise SchemaError(f"{d['type']} segment has non-finite entries")
    return seg


@dataclass
class IntersectionDatum:
    """One transversal crossing with another contour.

    ``sign`` is +1 for a right-handed crossing (the partner tangent lies
    counterclockwise from ours) and -1 otherwise.  ``resolution_word`` is the
    free-homotopy word of the contour obtained by inserting the partner loop
    at the crossing; ``seg_param`` / ``other_seg_param`` locate the crossing
    on each contour as (segment index, parameter).
    """

    other: str
    point: complex
    sign: int
    resolution_word: tuple
    seg_param: tuple = None
    other_seg_param: tuple = None

    def to_dict(self):
        return {"with": self.other, "point": [self.point.real, self.point.imag],
                "sign": self.sign, "resolution_word": list(self.resolution_word),
                "seg_param": self.seg_param, "other_seg_param": self.other_seg_param}


@dataclass
class Contour:
    """Named piecewise path avoiding the poles, with curated crossing data."""

    name: str
    word: tuple
    segments: list
    tau_image: str = None
    intersections: list = field(default_factory=list)

    def reversed(self):
        return Contour(name=self.name + "_inv",
                       word=tuple(_invert_letter(w) for w in reversed(self.word)),
                       segments=[s.reverse() for s in reversed(self.segments)])

    def reflected(self):
        """Pointwise complex conjugate of the path (same parameter order)."""
        return Contour(name=self.name + "_tau", word=self.word,
                       segments=[s.reflect() for s in self.segments], tau_image=self.name)

    def validate(self):
        for a, b in zip(self.segments[:-1], self.segments[1:]):
            if abs(a.z(1.0) - b.z(0.0)) > 1e-10:
                raise GeometryError(f"{self.name}: segments do not concatenate")
        bad = min(s.pole_distance() for s in self.segments)
        if bad < POLE_MARGIN - 1e-12:
            raise GeometryError(f"{self.name}: pole margin {bad:.3f} < {POLE_MARGIN}")
        return self

    def to_dict(self):
        return {"name": self.name, "word": list(self.word),
                "segments": [s.to_dict() for s in self.segments],
                "tau_image": self.tau_image,
                "intersections": [i.to_dict() for i in self.intersections]}


def _invert_letter(w):
    return w[:-4] if w.endswith("_inv") else w + "_inv"


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------

@dataclass
class RationalConnection:
    """Residue data for ``A(z) = scale (X1/(z-1) + X2/(z+1)) dz``."""

    X1: np.ndarray
    X2: np.ndarray
    scale: float = 1.0

    @property
    def X3(self):
        return -(self.X1 + self.X2)

    @property
    def n(self):
        return self.X1.shape[0]

    def __call__(self, z):
        return self.scale * (self.X1 / (z - 1.0) + self.X2 / (z + 1.0))

    def sigma_residual(self, zs):
        """Max of ``|A(conj z) + bar(A(z))|`` over the sample points."""
        return max([0.0] + [float(np.max(np.abs(self(np.conj(z)) + self(z).conj().T)))
                            for z in np.atleast_1d(zs)])


def xi_map(x1, x2, x3=None, t=np.pi):
    """Build the rational connection attached to a zero-sum orbit triple.

    ``scale = t/pi``; the default ``t = pi`` gives the bare residue form.
    Raises ``ConstraintViolated`` when the residues do not sum to zero
    within 1e-8 or are not anti-Hermitian.
    """
    x1 = x1.X if hasattr(x1, "X") else np.asarray(x1)
    x2 = x2.X if hasattr(x2, "X") else np.asarray(x2)
    if x3 is not None:
        x3 = x3.X if hasattr(x3, "X") else np.asarray(x3)
        if np.linalg.norm(x1 + x2 + x3) > 1e-8:
            raise ConstraintViolated("residues do not sum to zero")
    for x in (x1, x2):
        if np.max(np.abs(x + x.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(x))):
            raise ConstraintViolated("residues must be anti-Hermitian")
    return RationalConnection(X1=x1, X2=x2, scale=t / np.pi)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------

# Sixth-order Magnus step from three Gauss-Legendre nodes (Blanes, Casas and
# Ros, BIT 40 (2000)).  With A_i = h M(s0 + c_i h) and a_k = sum_i W[k, i] A_i,
#   Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2] / 240,
#   C1 = [a1, a2],  C2 = -[a1, 2 a3 + C1] / 60.
# Every a_k is p_k X1 + q_k X2 with scalar p_k, q_k, so Omega is a scalar
# combination of the ten fixed brackets of _bracket_basis.
_GL_NODES = 0.5 + np.sqrt(15.0) / 10.0 * np.array([-1.0, 0.0, 1.0])
_MAGNUS_W = np.array([[0.0, 1.0, 0.0],
                      [-np.sqrt(15.0) / 3.0, 0.0, np.sqrt(15.0) / 3.0],
                      [10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0]])

# a step-doubling estimate at or below this is rounding noise: the panel is resolved
_ROUNDOFF = 64.0 * np.finfo(float).eps
_MIN_PANEL = 1e-12
# matrices per round, plus one per panel for its Magnus data, and propagators held unfolded
_CHUNK = 1536


def _bracket_basis(x1s, x2s):
    """``X1, X2`` and the eight brackets that span every panel exponent, ``(n, n, B, 10)``."""
    def br(a, b):
        return a @ b - b @ a

    k = br(x1s, x2s)
    l1, l2 = br(x1s, k), br(x2s, k)
    return np.stack([x1s, x2s, k, l1, l2, br(x1s, l1), br(x1s, l2), br(x2s, l2),
                     br(k, l1), br(k, l2)], axis=-1).transpose(1, 2, 0, 3).copy()


def _omega_coefficients(pq):
    """Coefficients of Omega on ``_bracket_basis``, ``(10, P)``, from a_k = p_k X1 + q_k X2
    given as ``pq`` ``(2, 3, P)``, the ``p_k`` then the ``q_k``; each step below is one call."""
    ((p1, p2, p3), (q1, q2, q3)), out = pq, np.empty((10, pq.shape[-1]), complex)
    np.add(pq[:, 0], pq[:, 2] / 12.0, out=out[:2])
    d, e = p1 * q2 - q1 * p2, (q1 * p3 - p1 * q3) / 30.0  # C1 = d K, C2 = e K + f1 L1 + f2 L2
    f, u = -d * pq[:, 0] / 60.0, -20.0 * pq[:, 0] - pq[:, 2]  # -20 a1 - a3 + C1 = u X + d K
    np.subtract(u[0] * q2, u[1] * p2, out=out[2])
    np.subtract(u * e, d * pq[:, 1], out=out[3:5])
    np.multiply(u[0], f, out=out[5:7])
    out[6] += u[1] * f[0]
    np.multiply((u[1], d, d), (f[1], f[0], f[1]), out=out[7:])
    out[2:] /= 240.0
    return out


def _segment_table(segs):
    """The constants of the segments' ``z`` and ``dz``: arc flags, and complex rows (start,
    end - start, center, i (a1 - a0) radius, radius, a0, a1 - a0), zero in the other kind's."""
    arc = np.array([isinstance(seg, ArcSegment) for seg in segs])
    start, end, center, radius, a0, a1 = np.array(
        [(0, 0, seg.center, seg.radius, seg.a0, seg.a1) if a else (seg.start, seg.end, 0, 0, 0, 0)
         for seg, a in zip(segs, arc)], dtype=complex).reshape(-1, 6).T
    return arc, np.array([start, end - start, center, 1j * (a1 - a0) * radius, radius, a0, a1 - a0])


def _table_points(table, g, s):
    """``z`` and ``dz`` (``(P, 1)`` if every row is a line) at parameters ``s``, ``(P, k)``, on the
    rows ``g`` of a segment table: the segments' own formulas for the kinds present, on ``s.T``."""
    (arc, cols), s = table, s.T
    if lines := not (on := arc[g]).all():
        start, step = cols[:2].take(g, axis=1)
        z, dz = start + s * step, step[None]
    if on.any():
        center, lead, radius, a0, da = cols[2:].take(g, axis=1)
        turn = np.exp(1j * (a0.real + s * da.real))
        za, dza = center + radius * turn, lead * turn
        z, dz = (np.where(on, za, z), np.where(on, dza, dz)) if lines else (za, dza)
    return z.T, dz.T


def _magnus_propagators(table, g, s0, h, basis, scale, ws):
    """Magnus propagators of panels ``[s0_i, s0_i + h_i]`` of segment table rows ``g_i``,
    ``(n, n, B, P)``, from the ``_bracket_basis``; a view of the workspace ``ws``."""
    s = s0 + h * _GL_NODES[:, None]  # the nodes, (3, P)
    z, dz = (a.T for a in _table_points(table, g, s.T))
    w, y = (-scale) * dz * h, np.stack((z - 1.0, z + 1.0))
    coef = _omega_coefficients(_MAGNUS_W @ np.divide(w, y, out=y))
    lead = basis.shape[:3]
    omega = np.matmul(basis.reshape(-1, basis.shape[-1]), coef,
                      out=ws.take("x", (math.prod(lead), len(s0))))
    try:
        return _expm_stack(omega.reshape(lead[:2] + (-1,)), ws).reshape(lead + (len(s0),))
    except FloatingPointError:  # the segment goes with the error
        raise ToleranceNotMet("non-finite transport state", g[np.isfinite(omega).all(0).argmin()])


def _step_doubling(table, g, s0, h, known, prior, basis, scale, ws):
    """Products of the panels' halves ``(n, n, B, P)``, the propagators ``(n, n, B, 3P - K)``
    whose first ``2P`` are the halves, both views of the workspace ``ws``, and the errors: the
    largest entry of |two-half - one-panel| over the batch over the larger of the two, at most
    2.  The ``K`` panels marked ``known`` take their one-panel propagators from ``prior``."""
    m, half, fresh = len(s0), h / 2, (~known).nonzero()[0]
    with np.errstate(over="ignore", invalid="ignore"):
        e = _magnus_propagators(table, np.concatenate((g, g, g[fresh])),
                                np.concatenate((s0, s0 + half, s0[fresh])),
                                np.concatenate((half, half, h[fresh])), basis, scale, ws)
        shape = e.shape[:3] + (m,)
        one = ws.take("x", shape)  # the fresh propagators, then the prior ones, in panel order
        src = np.concatenate((e[..., 2 * m:], prior), axis=-1, out=ws.take("t", shape))
        src.take(np.argsort(np.argsort(known, kind="stable")), axis=-1, out=one, mode="clip")
        tmp, mag = ws.take("t", shape), ws.take("p1", shape, float)
        prod = _stack_product(e[..., m:2 * m], e[..., :m], tmp, ws.take("p0", shape))
        size = np.maximum(np.abs(prod, out=mag).max(axis=(0, 1, 2)),
                          np.abs(one, out=mag).max(axis=(0, 1, 2)))
        err = np.abs(np.subtract(prod, one, out=tmp), out=mag).max(axis=(0, 1, 2))
        err /= np.maximum(1.0, size)
    # a panel too coarse for its exponential to be finite is as unresolved as can be
    return prod, e, np.where(np.isfinite(err), err, 2.0)


def _tree_product(props, at, runs, ws):
    """Product of each run of equal adjacent ``runs`` (nondecreasing) of the factors
    ``props[..., at]``, from a contiguous stack ``(n, n, ..., m)``, as a pairwise product tree,
    the run's first matrix rightmost: ``(n, n, ..., runs)``, a view of the workspace ``ws``.  A
    product overwrites its right factor in ``props``."""
    off = np.arange(len(runs)) - runs.searchsorted(runs)  # each factor's place in its run
    # pair each even place with its successor in the run, which has an odd place
    while len(pair := (odd := (off & 1).astype(bool))[1:].nonzero()[0]):
        left, shape = at[pair], props.shape[:-1] + (len(pair),)
        a = props.take(left, axis=-1, out=ws.take("p0", shape), mode="clip")
        b = props.take(at[pair + 1], axis=-1, out=ws.take("p1", shape), mode="clip")
        props[..., left] = _stack_product(b, a, ws.take("t", shape), ws.take("x2", shape))
        at, off = at[~odd], off[~odd] >> 1
    return props.take(at, axis=-1, out=ws.take("x2", props.shape[:-1] + (len(at),)), mode="clip")


def _transport(x1s, x2s, scale, paths, tol):
    """Transports of the residue stacks ``(B, n, n)`` along each path, ``(len(paths), B, n, n)``.

    A path is a ``Contour`` (errors name it so) or a segment list (``path i``).  One table
    holds every unresolved panel of every path as a (segment, start, width) column in path
    order.  Each round compares its next panels, up to ``_CHUNK`` matrices (one more per
    panel for its Magnus data), with their two halves; the error is the maximum over the
    stack.  A panel whose error exceeds ``tol * h`` is split into ``ceil((err / (tol h))^(1/6))``
    parts (the local error scales as ``h^7``); parts of a panel split in two reuse its
    halves.  Resolved panels are held until they make ``_CHUNK`` matrices or the table
    empties, then each path's resolved prefix is folded in as one product tree.  Overflow
    at a fold ends the transport, which bounds the work any input can cause.  Every stack,
    held panel and stored propagator lives in the thread's workspace, fetched once per call.
    """
    names = [p.name if isinstance(p, Contour) else f"path {i}" for i, p in enumerate(paths)]
    paths = [p.segments if isinstance(p, Contour) else list(p) for p in paths]
    segs = [seg for path in paths for seg in path]
    owner = np.array([i for i, path in enumerate(paths) for _ in path], dtype=int)
    for q, seg in enumerate(segs):
        if (d := seg.pole_distance()) < 0.9 * POLE_MARGIN:
            raise PoleTooClose(f"{names[owner[q]]}: segment from {seg.z(0.0):.4f} passes "
                               f"{d:.4f} from a pole (margin {POLE_MARGIN})")
    table = _segment_table(segs)
    basis = _bracket_basis(np.asarray(x1s, dtype=complex), np.asarray(x2s, dtype=complex))
    lead = basis.shape[:3]
    n, stack, ws = lead[0], lead[2], _workspace()
    psi = np.tile(np.eye(n, dtype=complex)[:, :, None, None], (1, 1, stack, len(paths)))
    # the unresolved panels, columns (segment, start, width, holds its one-panel propagator);
    # those propagators are the first ``stored`` columns of "store", the first panel's last
    tab = np.zeros((4, len(segs)))
    tab[0], tab[2], stored, store = np.arange(len(segs)), 1.0, 0, ws.columns("store", lead, 0, 0)
    # resolved panels not yet folded, columns (segment, start), their propagators in "held"
    held, hp = np.zeros((2, 0)), ws.columns("held", lead, 0, 0)
    while tab.shape[1]:  # a round takes the next panels whose matrices fit the budget
        k = max(1, (cost := (3 - tab[3]).cumsum()).searchsorted(_CHUNK // (stack + 1), "right"))
        (s0, h, has), g, c = tab[1:, :k], tab[0, :k].astype(int), 3 * k - int(cost[k - 1])
        try:
            props, halves, err = _step_doubling(table, g, s0, h, has > 0,
                                                store[..., stored - c:stored][..., ::-1],
                                                basis, scale, ws)
        except ToleranceNotMet as exc:
            raise ToleranceNotMet(f"{names[owner[exc.args[1]]]}: {exc.args[0]}") from None
        ok = err <= (goal := np.maximum(tol * h, _ROUNDOFF))
        acc, h0 = ok.nonzero()[0], held.shape[1]
        hp = ws.columns("held", lead, h0 + len(acc), h0)
        hp[..., h0:h0 + len(acc)] = props if len(acc) == k else props.take(
            acc, axis=-1, mode="clip", out=ws.take("x", lead + (len(acc),)))
        held = np.concatenate((held, tab[:2, acc]), axis=1)
        stored -= c
        # a rejected panel is replaced by its parts, a resolved one leaves the table
        parts = np.where(ok, 0, np.maximum(2, np.ceil((err / goal) ** (1.0 / 6.0)))).astype(int)
        w = h / np.maximum(parts, 1)
        if (thin := w < _MIN_PANEL).any():  # a resolved panel keeps its width
            raise ToleranceNotMet(names[owner[g[thin.argmax()]]] + ": adaptive panel width underflow")
        j = np.arange((ends := parts.cumsum())[-1]) - (ends - parts).repeat(parts)
        two = parts == 2  # the halves of a panel split in two go to its parts
        top = (two.nonzero()[0][::-1, None] + [k, 0]).ravel()
        store = ws.columns("store", lead, stored + len(top), stored)
        store[..., stored:stored + len(top)] = halves.take(top, axis=-1, mode="clip",
                                                           out=ws.take("x", lead + (len(top),)))
        stored += len(top)
        tab[2, :k], tab[3, :k] = w, two
        new = tab[:, :k].repeat(parts, axis=1)
        new[1] += j * new[2]
        tab = np.concatenate((new, tab[:, k:]), axis=1)
        if tab.shape[1] and held.shape[1] * stack < _CHUNK:
            continue
        # fold the held panels before their path's front, its first table row (past the end if none)
        o, (hg, hs), ho = owner[tab[0].astype(int)], held, owner[held[0].astype(int)]
        first = (o != np.concatenate(([-1], o[:-1]))).nonzero()[0]
        front = np.zeros((2, len(paths)))
        front[0], front[:, o[first]] = len(segs), tab[:2, first]
        ready = (hg < front[0, ho]) | ((hg == front[0, ho]) & (hs < front[1, ho]))
        order = ready.nonzero()[0][np.lexsort((hs[ready], hg[ready]))]
        runs, keep = ho[order], (~ready).nonzero()[0]
        on = runs[runs != np.concatenate(([-1], runs[:-1]))]
        with np.errstate(over="ignore", invalid="ignore"):
            tree = _tree_product(hp, order, runs, ws)
            start = psi.take(on, axis=-1, mode="clip", out=ws.take("p0", tree.shape))
            psi[..., on] = end = _stack_product(tree, start, ws.take("t", tree.shape),
                                                ws.take("p1", tree.shape))
        if not (finite := np.isfinite(end).all(axis=(0, 1, 2))).all():
            raise ToleranceNotMet(f"{names[on[np.argmin(finite)]]}: holonomy overflows")
        hp[..., :len(keep)] = hp.take(keep, axis=-1, mode="clip",
                                      out=ws.take("p0", lead + (len(keep),)))
        held = held[:, keep]
    return np.ascontiguousarray(psi.transpose(3, 2, 0, 1))


def _holonomies(conn, paths, tol):
    """Holonomies of one connection along each path, ``(len(paths), n, n)``, in one transport."""
    return _transport(conn.X1[None], conn.X2[None], conn.scale, paths, tol)[:, 0]


def holonomy(conn, contour, tol=1e-10):
    """Path-ordered transport of the connection along the contour.

    ``contour`` may be a ``Contour`` or a bare segment list.  The result has
    unit determinant; reversing the contour inverts it and concatenation
    composes as ``Hol(c2 o c1) = Hol(c2) Hol(c1)``.
    """
    return _holonomies(conn, [contour], tol)[0]


def holonomy_batch(x1s, x2s, scale, contour, tol=1e-10):
    """Transport a stack of connections along a shared contour.

    ``x1s`` and ``x2s`` are ``(B, n, n)`` residue stacks.  The panels are
    shared by the stack (refined until every connection meets ``tol``), so
    the transports of nearby connections see one discretisation.
    """
    return _transport(x1s, x2s, scale, [contour], tol)[0]


def _slice_segment(seg, sa, sb):
    if isinstance(seg, LineSegment):
        return LineSegment(seg.z(sa), seg.z(sb))
    return ArcSegment(seg.center, seg.radius,
                      seg.a0 + sa * (seg.a1 - seg.a0), seg.a0 + sb * (seg.a1 - seg.a0))


def _cut(segments, cuts):
    """Pieces of a path between consecutive cuts, in path order.

    ``cuts`` are ``(segment index, parameter)`` pairs in any order; ``k`` cuts
    give ``k + 1`` segment lists, the first from the start of the path and the
    last to its end.  Segments that no cut falls on are kept unchanged.
    """
    marks = sorted(cuts)
    pieces, piece = [], []
    for idx, seg in enumerate(segments):
        prev = 0.0
        for s in [t for i, t in marks if i == idx]:
            pieces.append(piece + [_slice_segment(seg, prev, s)])
            piece, prev = [], s
        piece.append(seg if prev == 0.0 else _slice_segment(seg, prev, 1.0))
    return pieces + [piece]


def _rebased(pieces, cuts):
    """The loop re-based at each cut from the holonomies of the pieces ``_cut`` gives."""
    hols, marks = list(pieces), sorted(cuts)
    rotations = [hols[j:] + hols[:j] for j in (marks.index(c) + 1 for c in cuts)]
    return [reduce(lambda h, m: m @ h, loop) for loop in rotations]


# ---------------------------------------------------------------------------
# checks and observables
# ---------------------------------------------------------------------------

def _sigma_residual(h, h_tau):
    """Residual of ``Hol(tau(c)) = bar(Hol(c))^{-1}`` from ``Hol(c)`` and ``Hol(tau(c))``."""
    return float(np.linalg.norm(h_tau - np.linalg.inv(h.conj().T)))


def hole_conjugacy_check(hol, H, t):
    """Spectrum of a hole holonomy against ``exp(2 i t H)``: ``(relative error, hyperbolic)``.

    The error is the largest relative distance of the sorted real parts of the
    eigenvalues from the sorted targets.  Hyperbolic means a positive real
    spectrum: imaginary parts below ``_HOLE_SPECTRUM_TOL`` times the largest modulus.
    """
    ev = np.linalg.eigvals(hol)
    target = np.sort(np.exp(-2.0 * t * np.array(H.theta)))
    hyperbolic = bool(np.all(ev.real > 0) and np.max(np.abs(ev.imag))
                      < _HOLE_SPECTRUM_TOL * np.max(np.abs(ev)))
    return float(np.max(np.abs(np.sort(ev.real) - target) / target)), hyperbolic


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

class Catalogue:
    """Named contours plus curated intersection data for bracket evaluation."""

    def __init__(self, contours, pair_names):
        self.contours = contours
        self.pair_names = pair_names

    def validate(self):
        """Check the geometry, the crossing locations and the pairs; raise ``SchemaError``."""
        for c in self.contours.values():
            if not c.segments:
                raise SchemaError(f"{c.name}: contour has no segments")
            try:
                c.validate()
            except GeometryError as exc:
                raise SchemaError(str(exc)) from exc
        for c in self.contours.values():
            for d in c.intersections:
                if d.other not in self.contours:
                    raise SchemaError(f"{c.name}: crossing with unknown contour {d.other!r}")
                for where, on in ((d.seg_param, c), (d.other_seg_param, self.contours[d.other])):
                    if where is not None and not (0 <= where[0] < len(on.segments)
                                                  and 0.0 <= where[1] <= 1.0):
                        raise SchemaError(f"{c.name}: crossing location {list(where)} "
                                          f"is not on {on.name}")
        for pair in self.pair_names:
            if len(pair) != 2:
                raise SchemaError(f"pair {list(pair)} does not name two contours")
            a, b = pair
            if a not in self.contours or b not in self.contours:
                raise SchemaError(f"pair ({a}, {b}) names an unknown contour")
            ca = self.contours[a]
            if not any(i.other == b for i in ca.intersections) and ca.intersections:
                raise SchemaError(f"pair ({a}, {b}) missing intersection records")
        return self

    def to_dict(self):
        return {"contours": [c.to_dict() for c in self.contours.values()],
                "pairs": [list(p) for p in self.pair_names]}


def word_segments(catalogue, word):
    """Concatenate catalogue loops (based at 0) realizing a word."""
    loops = [catalogue.contours[w[:-4]].reversed() if w.endswith("_inv")
             else catalogue.contours[w] for w in word]
    return [s for loop in loops for s in loop.segments]


def resolved_segments(contour_a, datum, contour_b):
    """Geometric resolution at a crossing: follow A from p, then B from p."""
    a0, a1 = _cut(contour_a.segments, [datum.seg_param])
    b0, b1 = _cut(contour_b.segments, [datum.other_seg_param])
    return a1 + a0 + b1 + b0


def _arc_params_at(seg, p):
    """All parameters s in (0,1) with seg.z(s) = p, for full or multiple turns."""
    ang = np.angle(p - seg.center)
    da = seg.a1 - seg.a0
    out = []
    k0 = int(np.floor((min(seg.a0, seg.a1) - ang) / (2 * np.pi))) - 1
    for k in range(k0, k0 + int(abs(da) / (2 * np.pi)) + 3):
        s = (ang + 2 * np.pi * k - seg.a0) / da
        if 1e-9 < s < 1 - 1e-9:
            out.append(float(s))
    return out


def arc_crossings(contour_a, contour_b):
    """Exact transversal crossings between two all-arc contours.

    Returns tuples ``(point, (ia, sa), (ib, sb), sign)`` with the sign of
    ``Im(conj(za') zb')`` at the crossing.
    """
    out = []
    for ia, a in enumerate(contour_a.segments):
        for ib, b in enumerate(contour_b.segments):
            if not (isinstance(a, ArcSegment) and isinstance(b, ArcSegment)):
                continue
            d = abs(b.center - a.center)
            if d < 1e-12 or d > a.radius + b.radius - 1e-12 or d < abs(a.radius - b.radius) + 1e-12:
                continue
            al = (a.radius ** 2 - b.radius ** 2 + d ** 2) / (2 * d)
            hh = np.sqrt(max(a.radius ** 2 - al ** 2, 0.0))
            base = a.center + al * (b.center - a.center) / d
            offs = 1j * (b.center - a.center) / d * hh
            for pt in (base + offs, base - offs):
                for sa in _arc_params_at(a, pt):
                    for sb in _arc_params_at(b, pt):
                        sign = int(np.sign(np.imag(np.conj(a.dz(sa)) * b.dz(sb))))
                        out.append((pt, (ia, sa), (ib, sb), sign))
    return out


def _hole_loop(j):
    if j == 1:
        return [LineSegment(0, 0.5), ArcSegment(1.0, 0.5, np.pi, -np.pi),
                LineSegment(0.5, 0)]
    if j == 2:
        return [LineSegment(0, -0.5), ArcSegment(-1.0, 0.5, 0.0, -2 * np.pi),
                LineSegment(-0.5, 0)]
    return [LineSegment(0, 1.8j), ArcSegment(0.0, 1.8, np.pi / 2, np.pi / 2 + 2 * np.pi),
            LineSegment(1.8j, 0)]


def _eight(radius, senses, winds=(1, 1)):
    """Closed two-arc contour through i sqrt(r^2-1): around +1 then around -1.

    ``senses`` gives the traversal sense around (+1, -1) as +1 = ccw,
    -1 = cw; ``winds`` the number of turns.
    """
    p0 = 1j * np.sqrt(radius ** 2 - 1.0)
    a1 = float(np.angle(p0 - 1.0))
    a2 = float(np.angle(p0 + 1.0))
    return [ArcSegment(1.0, radius, a1, a1 + senses[0] * winds[0] * 2 * np.pi),
            ArcSegment(-1.0, radius, a2, a2 + senses[1] * winds[1] * 2 * np.pi)]


# Free-homotopy words of the spliced contours at each curated crossing,
# indexed by (contour, partner, crossing index in discovery order).  Verified
# against the geometric splices by trace comparison; empty tuple = trivial.
_RESOLUTION_WORDS = {
    ("eight_narrow", "eight_wide_rev", 0): ("gamma2_inv", "gamma1", "gamma2", "gamma1_inv"),
    ("eight_narrow", "eight_wide_rev", 1): (),
    ("eight_narrow", "eight_wide_rev", 2): (),
    ("eight_narrow", "eight_wide_rev", 3): ("gamma2_inv", "gamma1_inv", "gamma2", "gamma1"),
    ("eight_narrow", "double_wind", 0): ("gamma1", "gamma1", "gamma2"),
    ("eight_narrow", "double_wind", 1): ("gamma2_inv", "gamma1", "gamma2", "gamma2", "gamma1"),
    ("eight_narrow", "double_wind", 2): ("gamma1", "gamma2", "gamma1"),
    ("eight_narrow", "double_wind", 3): ("gamma1", "gamma1", "gamma2"),
    ("eight_narrow", "double_wind", 4): ("gamma2_inv", "gamma1", "gamma2", "gamma2", "gamma1"),
    ("eight_narrow", "double_wind", 5): ("gamma2", "gamma1", "gamma1"),
    ("eight_wide_rev", "double_wind", 0): ("gamma2", "gamma2", "gamma2"),
    ("eight_wide_rev", "double_wind", 1): ("gamma1_inv", "gamma2", "gamma2", "gamma1", "gamma2"),
    ("eight_wide_rev", "double_wind", 2): ("gamma1_inv", "gamma2", "gamma2", "gamma1", "gamma2"),
    ("eight_wide_rev", "double_wind", 3): ("gamma2", "gamma2", "gamma2"),
    ("eight_wide_rev", "double_wind", 4): ("gamma1_inv", "gamma2", "gamma1", "gamma2", "gamma2"),
    ("eight_wide_rev", "double_wind", 5): ("gamma2", "gamma1_inv", "gamma2", "gamma2", "gamma1"),
    ("eight_wide", "circle_both", 0): ("gamma2_inv", "gamma1", "gamma2", "gamma1"),
    ("eight_wide", "circle_both", 1): ("gamma1", "gamma2", "gamma1", "gamma2_inv"),
    ("eight_wide", "circle_both", 2): ("gamma1", "gamma1"),
    ("eight_wide", "circle_both", 3): ("gamma1", "gamma1"),
    ("circle_plus", "circle_minus", 0): ("gamma2", "gamma1"),
    ("circle_plus", "circle_minus", 1): ("gamma2", "gamma1"),
}


def builtin_catalogue():
    """The shipped contour set: hole loops, products, and crossing pairs."""
    cont = {}
    for j in (1, 2, 3):
        cont[f"gamma{j}"] = Contour(name=f"gamma{j}", word=(f"gamma{j}",),
                                    segments=_hole_loop(j), tau_image=f"gamma{j}_inv")
    for j in (1, 2, 3):
        cont[f"gamma{j}_inv"] = cont[f"gamma{j}"].reversed()
        cont[f"gamma{j}_inv"].tau_image = f"gamma{j}"

    cont["eight_narrow"] = Contour(
        name="eight_narrow", word=("gamma1", "gamma2_inv"),
        segments=_eight(1.0, (-1, +1)))
    cont["eight_wide_rev"] = Contour(
        name="eight_wide_rev", word=("gamma2", "gamma1_inv"),
        segments=[s.reverse() for s in reversed(_eight(1.25, (-1, +1)))])
    cont["eight_wide"] = Contour(
        name="eight_wide", word=("gamma1", "gamma2_inv"),
        segments=_eight(1.25, (-1, +1)))
    cont["double_wind"] = Contour(
        name="double_wind", word=("gamma1", "gamma2", "gamma2"),
        segments=_eight(1.45, (-1, -1), winds=(1, 2)))
    cont["circle_both"] = Contour(
        name="circle_both", word=("gamma1", "gamma2"),
        segments=[ArcSegment(0.0, 1.5, np.pi / 2, np.pi / 2 - 2 * np.pi)])
    cont["circle_plus"] = Contour(
        name="circle_plus", word=("gamma1",),
        segments=[ArcSegment(1.0, 1.3, np.pi / 2, np.pi / 2 - 2 * np.pi)])
    cont["circle_minus"] = Contour(
        name="circle_minus", word=("gamma2",),
        segments=[ArcSegment(-1.0, 1.3, np.pi / 2, np.pi / 2 - 2 * np.pi)])

    pair_names = [("eight_narrow", "eight_wide_rev"),
                  ("eight_narrow", "double_wind"),
                  ("eight_wide_rev", "double_wind"),
                  ("eight_wide", "circle_both"),
                  ("circle_plus", "circle_minus"),
                  ("gamma1", "gamma2")]

    for a, b in pair_names[:-1]:
        ca, cb = cont[a], cont[b]
        found = arc_crossings(ca, cb)
        for idx, (pt, spa, spb, sign) in enumerate(found):
            word = _RESOLUTION_WORDS.get((a, b, idx), ca.word + cb.word)
            ca.intersections.append(IntersectionDatum(
                other=b, point=pt, sign=sign, resolution_word=tuple(word),
                seg_param=spa, other_seg_param=spb))
    return Catalogue(cont, pair_names).validate()


def _seg_param(pair):
    if pair is None:
        return None
    if len(pair) != 2 or not is_number(pair[0], int) or not is_number(pair[1]):
        raise SchemaError(f"crossing location {pair!r} is not [segment index, parameter]")
    return (pair[0], float(pair[1]))


def load_catalogue(path):
    """Load a contour catalogue from a JSON file."""
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
        contours = {}
        for cd in data["contours"]:
            c = Contour(name=cd["name"], word=tuple(cd["word"]),
                        segments=[_segment_from_dict(s) for s in cd["segments"]],
                        tau_image=cd.get("tau_image"))
            for idt in cd.get("intersections", []):
                if not is_number(idt["sign"], int) or idt["sign"] not in (1, -1):
                    raise SchemaError(f"crossing sign {idt['sign']!r} is not 1 or -1")
                c.intersections.append(IntersectionDatum(
                    other=idt["with"], point=complex(*idt["point"]),
                    sign=idt["sign"],
                    resolution_word=tuple(idt["resolution_word"]),
                    seg_param=_seg_param(idt.get("seg_param")),
                    other_seg_param=_seg_param(idt.get("other_seg_param"))))
            contours[c.name] = c
        pairs = [tuple(p) for p in data.get("pairs", [])]
        cat = Catalogue(contours, pairs)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed catalogue file: {exc}") from exc
    return cat.validate()
