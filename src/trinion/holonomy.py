"""Rational flat connections on the three-holed sphere and their holonomy.

The surface is the plane with holes at +1, -1 and infinity, basepoint 0.
Connections have the form ``A(z) = s (X1/(z-1) + X2/(z+1)) dz`` with
anti-Hermitian residues and ``s = t/pi``; the residue at infinity is
``X3 = -(X1+X2)``.  Transport solves ``dPsi = -A(z(s)) z'(s) Psi`` along each
segment by adaptive panels: a panel's propagator is ``expm(Omega)`` with
``Omega`` the sixth-order Magnus exponent from three Gauss-Legendre nodes.
Since ``A`` is a scalar combination of ``X1`` and ``X2``, every ``Omega`` is a
combination of ten fixed brackets of the residues, and the exponentials of a
whole stack of panels and connections are evaluated together.  Panels are
refined by step doubling until the error per unit parameter length is at most
``tol``.  ``Omega`` is traceless, so holonomies have unit determinant up to
rounding, and constant gauge transformations conjugate them.

Orientation conventions, fixed by the spectral targets: the catalogue hole
loops around +1 and -1 run clockwise and the outer loop counterclockwise,
which places ``Hol(A, Gamma_j)`` in the conjugacy class of ``exp(2 i t H_j)``
and makes the catalogue-order word ``gamma1 gamma2 gamma3`` contractible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstraintViolated, GeometryError, PoleTooClose,
                     SchemaError, SpectralMismatch, ToleranceNotMet)

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
    "sigma_check",
    "goldman_function",
    "builtin_catalogue",
    "load_catalogue",
    "word_segments",
    "resolved_segments",
]

POLES = (1.0, -1.0)
POLE_MARGIN = 0.1


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
        out = []
        for p in POLES:
            if abs(d) < 1e-14:
                out.append(abs(self.start - p))
                continue
            s = np.clip(((p - self.start) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
            out.append(abs(self.z(s) - p))
        return min(out)

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
        return self.center + self.radius * np.exp(1j * (self.a0 + s * (self.a1 - self.a0)))

    def dz(self, s):
        return 1j * (self.a1 - self.a0) * self.radius * np.exp(
            1j * (self.a0 + s * (self.a1 - self.a0)))

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
            if hits:
                out.append(radial)
            else:
                out.append(min(abs(self.z(0.0) - p), abs(self.z(1.0) - p)))
        return min(out)

    def to_dict(self):
        return {"type": "arc", "center": [self.center.real, self.center.imag],
                "radius": self.radius, "a0": self.a0, "a1": self.a1}


def _segment_from_dict(d):
    if d["type"] == "line":
        return LineSegment(complex(*d["start"]), complex(*d["end"]))
    if d["type"] == "arc":
        return ArcSegment(complex(*d["center"]), float(d["radius"]),
                          float(d["a0"]), float(d["a1"]))
    raise SchemaError(f"unknown segment type {d.get('type')!r}")


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
    orientation: str = "ccw"
    tau_image: str = None
    intersections: list = field(default_factory=list)

    def reversed(self, name=None):
        return Contour(name=name or self.name + "_inv",
                       word=tuple(_invert_letter(w) for w in reversed(self.word)),
                       segments=[s.reverse() for s in reversed(self.segments)],
                       orientation={"cw": "ccw", "ccw": "cw"}.get(self.orientation, self.orientation),
                       tau_image=None)

    def reflected(self):
        """Pointwise complex conjugate of the path (same parameter order)."""
        return Contour(name=self.name + "_tau", word=self.word,
                       segments=[s.reflect() for s in self.segments],
                       orientation=self.orientation, tau_image=self.name)

    def validate(self, margin=POLE_MARGIN):
        for a, b in zip(self.segments[:-1], self.segments[1:]):
            if abs(a.z(1.0) - b.z(0.0)) > 1e-10:
                raise GeometryError(f"{self.name}: segments do not concatenate")
        bad = min(s.pole_distance() for s in self.segments)
        if bad < margin - 1e-12:
            raise GeometryError(f"{self.name}: pole margin {bad:.3f} < {margin}")
        return self

    def to_dict(self):
        return {"name": self.name, "word": list(self.word),
                "segments": [s.to_dict() for s in self.segments],
                "orientation": self.orientation, "tau_image": self.tau_image,
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
        worst = 0.0
        for z in np.atleast_1d(zs):
            worst = max(worst, float(np.max(np.abs(self(np.conj(z)) + self(z).conj().T))))
        return worst


def xi_map(x1, x2, x3=None, t=np.pi, tol=1e-8):
    """Build the rational connection attached to a zero-sum orbit triple.

    ``scale = t/pi``; the default ``t = pi`` gives the bare residue form.
    Raises ``ConstraintViolated`` when the residues do not sum to zero
    within ``tol`` or are not anti-Hermitian.
    """
    x1 = x1.X if hasattr(x1, "X") else np.asarray(x1)
    x2 = x2.X if hasattr(x2, "X") else np.asarray(x2)
    if x3 is not None:
        x3 = x3.X if hasattr(x3, "X") else np.asarray(x3)
        if np.linalg.norm(x1 + x2 + x3) > tol:
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

# Pade approximants of degree 3, 5, 7, 9 and 13 with the 1-norm bounds up to
# which each is accurate to double precision, largest degree last
_PADE = [
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                            1512.0, 56.0, 1.0)),
    (2.097847961257068, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                         30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (5.371920351148152, (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                         1187353796428800.0, 129060195264000.0, 10559470521600.0,
                         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                         960960.0, 16380.0, 182.0, 1.0)),
]

# a step-doubling estimate at or below this is rounding noise: the panel is resolved
_ROUNDOFF = 64.0 * np.finfo(float).eps
_MIN_PANEL = 1e-12
# matrices per exponential stack; bounds the memory of one evaluation
_CHUNK = 768


def _expm(a):
    """Matrix exponential of every matrix of a stack ``(..., n, n)``.

    Uses the Pade approximant of lowest degree whose bound covers the largest
    1-norm in the stack, and scaling and squaring beyond the degree-13 bound
    (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)).
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    top = norm.max(initial=0.0)
    theta, b = next((p for p in _PADE if top <= p[0]), _PADE[-1])
    s = np.ceil(np.log2(np.maximum(norm, theta) / theta)).astype(int)
    if s.any():
        a = a * (0.5 ** s)[..., None, None]
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    even, odd = b[0] * ident + b[2] * a2, b[1] * ident + b[3] * a2
    power = a2
    for j in range(4, len(b), 2):
        power = power @ a2
        even = even + b[j] * power
        odd = odd + b[j + 1] * power
    u = a @ odd
    r = np.linalg.solve(even - u, even + u)
    for k in range(int(s.max(initial=0))):
        sq = s > k
        r[sq] = r[sq] @ r[sq]
    return r


def _bracket_basis(x1s, x2s):
    """``X1, X2`` and the eight brackets that span every panel exponent, ``(10, B, n, n)``."""
    def br(a, b):
        return a @ b - b @ a

    k = br(x1s, x2s)
    l1, l2 = br(x1s, k), br(x2s, k)
    return np.stack([x1s, x2s, k, l1, l2, br(x1s, l1), br(x1s, l2), br(x2s, l2),
                     br(k, l1), br(k, l2)])


def _omega_coefficients(p, q):
    """Coefficients of Omega on ``_bracket_basis`` from a_k = p_k X1 + q_k X2, ``(P, 10)``."""
    (p1, p2, p3), (q1, q2, q3) = p.T, q.T
    d = p1 * q2 - q1 * p2                     # C1 = d K
    e = (q1 * p3 - p1 * q3) / 30.0            # C2 = e K + f1 L1 + f2 L2
    f1, f2 = -d * p1 / 60.0, -d * q1 / 60.0
    u1, u2 = -20.0 * p1 - p3, -20.0 * q1 - q3  # -20 a1 - a3 + C1 = u1 X1 + u2 X2 + d K
    return np.stack([p1 + p3 / 12.0, q1 + q3 / 12.0,
                     (u1 * q2 - u2 * p2) / 240.0, (u1 * e - d * p2) / 240.0,
                     (u2 * e - d * q2) / 240.0, u1 * f1 / 240.0,
                     (u1 * f2 + u2 * f1) / 240.0, u2 * f2 / 240.0,
                     d * f1 / 240.0, d * f2 / 240.0], axis=1)


def _magnus_propagators(seg, s0, h, basis, scale):
    """Magnus propagators of the panels ``[s0_i, s0_i + h_i]``, shape ``(P, B, n, n)``."""
    s = s0[:, None] + h[:, None] * _GL_NODES
    w = (-scale) * seg.dz(s) * h[:, None]
    z = seg.z(s)
    coef = _omega_coefficients((w / (z - 1.0)) @ _MAGNUS_W.T, (w / (z + 1.0)) @ _MAGNUS_W.T)
    omega = (coef @ basis.reshape(len(basis), -1)).reshape((len(s0),) + basis.shape[1:])
    if not np.isfinite(omega).all():
        raise ToleranceNotMet("non-finite transport state")
    return _expm(omega)


def _step_doubling(seg, s0, h, basis, scale):
    """Propagators of the panels as the product of their halves, and their errors.

    The error of a panel is the largest entry of the difference between the
    one-panel and the two-half propagator over the batch, relative to the
    larger of the two, so it is at most 2.
    """
    m = len(s0)
    with np.errstate(over="ignore", invalid="ignore"):
        e = _magnus_propagators(seg, np.concatenate([s0, s0, s0 + h / 2]),
                                np.concatenate([h, h / 2, h / 2]), basis, scale)
        half = e[2 * m:] @ e[m:2 * m]
        size = np.maximum(np.abs(half).max(axis=(1, 2, 3)), np.abs(e[:m]).max(axis=(1, 2, 3)))
        err = np.abs(half - e[:m]).max(axis=(1, 2, 3)) / np.maximum(1.0, size)
    # a panel too coarse for its exponential to be finite is as unresolved as can be
    return half, np.where(np.isfinite(err), err, 2.0)


def _transport_segment(seg, psi, basis, scale, tol):
    """Advance the transports ``psi`` over one segment by adaptive Magnus panels.

    Each panel is compared with its two halves (step doubling) and the halves
    are kept.  Panels are shared by the whole batch, so the error is the
    maximum over the stack.  A panel whose error exceeds ``tol * h`` is split
    into ``ceil((err / (tol h))^(1/6))`` pieces, since the local error of the
    sixth-order step scales as ``h^7``.  Resolved panels are folded into
    ``psi`` in path order as soon as every panel before them is resolved, so
    only a few chunks of propagators are held at a time.  Overflow of ``psi``
    ends the transport, which bounds the work any input can cause.
    """
    per_call = max(1, _CHUNK // (3 * basis.shape[1]))
    todo = [[0.0, 1.0, None]]      # [start, width, propagator]; todo[-1] is next on the path
    while todo:
        with np.errstate(over="ignore", invalid="ignore"):
            while todo and todo[-1][2] is not None:
                psi = todo.pop()[2] @ psi
        if not np.isfinite(psi).all():
            raise ToleranceNotMet("holonomy overflows")
        cut, pending = len(todo), []
        while cut and len(pending) < per_call:
            cut -= 1
            if todo[cut][2] is None:
                pending.append(todo[cut])
        if not pending:
            break
        s0, h = np.array([t[:2] for t in pending]).T
        props, err = _step_doubling(seg, s0, h, basis, scale)
        target = np.maximum(tol * h, _ROUNDOFF)
        pieces = {}
        for t, p, e, goal in zip(pending, props, err, target):
            if e <= goal:
                t[2] = p
                continue
            k = max(2, int(np.ceil((e / goal) ** (1.0 / 6.0))))
            w = t[1] / k
            if w < _MIN_PANEL:
                raise ToleranceNotMet("adaptive panel width underflow")
            pieces[id(t)] = [[t[0] + j * w, w, None] for j in reversed(range(k))]
        todo[cut:] = [u for t in todo[cut:] for u in pieces.get(id(t), (t,))]
    return psi


def _check_path(segs):
    for seg in segs:
        d = seg.pole_distance()
        if d < 0.9 * POLE_MARGIN:
            raise PoleTooClose(f"segment from {seg.z(0.0):.4f} passes {d:.4f} "
                               f"from a pole (margin {POLE_MARGIN})")


def holonomy(conn, contour, tol=1e-10):
    """Path-ordered transport of the connection along the contour.

    ``contour`` may be a ``Contour`` or a bare segment list.  The result has
    unit determinant; reversing the contour inverts it and concatenation
    composes as ``Hol(c2 o c1) = Hol(c2) Hol(c1)``.  This is
    ``holonomy_batch`` on a batch of one.
    """
    return holonomy_batch(conn.X1[None], conn.X2[None], conn.scale, contour, tol)[0]


def _slice_segment(seg, sa, sb):
    if isinstance(seg, LineSegment):
        return LineSegment(seg.z(sa), seg.z(sb))
    return ArcSegment(seg.center, seg.radius,
                      seg.a0 + sa * (seg.a1 - seg.a0), seg.a0 + sb * (seg.a1 - seg.a0))


def _split_at_checkpoints(segs, checkpoints):
    """Expand the segment list so every checkpoint is a segment boundary.

    Returns the refined list plus, per checkpoint (in input order), the
    number of refined segments before its location.
    """
    marks = {}
    for i, (idx, s) in enumerate(checkpoints):
        marks.setdefault(idx, []).append((s, i))
    refined = []
    positions = [0] * len(checkpoints)
    for idx, seg in enumerate(segs):
        cuts = sorted(marks.get(idx, []))
        prev = 0.0
        for s, which in cuts:
            refined.append(_slice_segment(seg, prev, s))
            positions[which] = len(refined)
            prev = s
        refined.append(_slice_segment(seg, prev, 1.0))
    return refined, positions


def holonomy_batch(x1s, x2s, scale, contour, tol=1e-10, checkpoints=None):
    """Transport a stack of connections along a shared contour.

    ``x1s`` and ``x2s`` are ``(B, n, n)`` residue stacks.  The panels are
    shared by the stack (refined until every connection meets ``tol``), so
    the transports of nearby connections see one discretisation.  With
    ``checkpoints`` (a list of ``(segment index, parameter)`` pairs) the
    prefix transports up to each checkpoint are returned as well, so one pass
    provides the holonomy re-based at every marked point.
    """
    segs = contour.segments if isinstance(contour, Contour) else list(contour)
    _check_path(segs)
    x1s = np.asarray(x1s, dtype=complex)
    x2s = np.asarray(x2s, dtype=complex)
    if checkpoints:
        segs, positions = _split_at_checkpoints(segs, checkpoints)
    basis = _bracket_basis(x1s, x2s)
    psi = np.broadcast_to(np.eye(x1s.shape[-1], dtype=complex), x1s.shape)
    prefixes = {}
    for si, seg in enumerate(segs):
        psi = _transport_segment(seg, psi, basis, scale, tol)
        if checkpoints:
            for which, pos in enumerate(positions):
                if pos == si + 1:
                    prefixes[which] = psi
    if checkpoints:
        return psi, [prefixes[i] for i in range(len(checkpoints))]
    return psi


def rebased_from_prefix(full, prefix):
    """Holonomy re-based at a checkpoint: ``T Hol T^{-1}`` with T the prefix."""
    return prefix @ full @ np.linalg.inv(prefix)


# ---------------------------------------------------------------------------
# checks and observables
# ---------------------------------------------------------------------------

def sigma_check(conn, contour, tol=1e-10):
    """Residual of ``Hol(tau(c)) = bar(Hol(c))^{-1}`` for the reflected path."""
    h = holonomy(conn, contour, tol)
    href = holonomy(conn, contour.reflected() if isinstance(contour, Contour)
                    else [s.reflect() for s in contour], tol)
    return float(np.linalg.norm(href - np.linalg.inv(h.conj().T)))


def hole_conjugacy_check(conn, j, H, t, tol=1e-7, ode_tol=1e-10, catalogue=None):
    """Compare the spectrum of the j-th hole holonomy with ``exp(2 i t H)``.

    Returns a report dict with the sorted eigenvalues, targets, and maximum
    relative error; raises ``SpectralMismatch`` beyond ``tol``.  Also checks
    hyperbolicity (positive real spectrum).
    """
    cat = catalogue or builtin_catalogue()
    loop = cat.contours[f"gamma{j}"]
    ev = np.linalg.eigvals(holonomy(conn, loop, ode_tol))
    target = np.sort(np.exp(-2.0 * t * np.array(H.theta)))
    ev_sorted = np.sort(ev.real)
    hyperbolic = bool(np.all(ev.real > 0) and np.max(np.abs(ev.imag)) < tol * np.max(np.abs(ev)))
    rel = float(np.max(np.abs(ev_sorted - target) / target))
    report = {"hole": j, "eigenvalues": ev_sorted, "target": target,
              "max_rel_err": rel, "hyperbolic": hyperbolic}
    if rel > tol or not hyperbolic:
        raise SpectralMismatch(f"hole {j}: relative error {rel:.2e}, "
                               f"hyperbolic={hyperbolic}")
    return report


def goldman_function(conn, contour, tol=1e-10):
    """Trace of the holonomy in the defining representation (gauge invariant)."""
    return complex(np.trace(holonomy(conn, contour, tol)))


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

class Catalogue:
    """Named contours plus curated intersection data for bracket evaluation."""

    def __init__(self, contours, pair_names, hole_names=("gamma1", "gamma2", "gamma3")):
        self.contours = contours
        self.pair_names = pair_names
        self.hole_names = hole_names

    def validate(self):
        for c in self.contours.values():
            c.validate()
        for a, b in self.pair_names:
            ca = self.contours[a]
            if not any(i.other == b for i in ca.intersections) and ca.intersections:
                raise SchemaError(f"pair ({a}, {b}) missing intersection records")
        return self

    def to_dict(self):
        return {"contours": [c.to_dict() for c in self.contours.values()],
                "pairs": [list(p) for p in self.pair_names],
                "holes": list(self.hole_names)}


def word_segments(catalogue, word):
    """Concatenate catalogue loops (based at 0) realizing a word."""
    segs = []
    for w in word:
        if w.endswith("_inv"):
            base = catalogue.contours[w[:-4]]
            segs.extend(s.reverse() for s in reversed(base.segments))
        else:
            segs.extend(catalogue.contours[w].segments)
    return segs


def _rebase(segments, idx, s_split):
    """Closed all-arc contour re-based at parameter s_split of segment idx."""
    seg = segments[idx]
    if not isinstance(seg, ArcSegment):
        raise GeometryError("re-basing is supported on arc segments only")
    mid = seg.a0 + s_split * (seg.a1 - seg.a0)
    head = ArcSegment(seg.center, seg.radius, mid, seg.a1)
    tail = ArcSegment(seg.center, seg.radius, seg.a0, mid)
    return [head] + list(segments[idx + 1:]) + list(segments[:idx]) + [tail]


def resolved_segments(contour_a, datum, contour_b):
    """Geometric resolution at a crossing: follow A from p, then B from p."""
    ia, sa = datum.seg_param
    ib, sb = datum.other_seg_param
    return _rebase(contour_a.segments, ia, sa) + _rebase(contour_b.segments, ib, sb)


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
    for j, word, orient in ((1, ("gamma1",), "cw"), (2, ("gamma2",), "cw"),
                            (3, ("gamma3",), "ccw")):
        cont[f"gamma{j}"] = Contour(name=f"gamma{j}", word=(f"gamma{j}",),
                                    segments=_hole_loop(j), orientation=orient,
                                    tau_image=f"gamma{j}_inv")
    for j in (1, 2, 3):
        cont[f"gamma{j}_inv"] = cont[f"gamma{j}"].reversed()
        cont[f"gamma{j}_inv"].tau_image = f"gamma{j}"

    cont["eight_narrow"] = Contour(
        name="eight_narrow", word=("gamma1", "gamma2_inv"),
        segments=_eight(1.0, (-1, +1)), orientation="mixed")
    cont["eight_wide_rev"] = Contour(
        name="eight_wide_rev", word=("gamma2", "gamma1_inv"),
        segments=[s.reverse() for s in reversed(_eight(1.25, (-1, +1)))],
        orientation="mixed")
    cont["eight_wide"] = Contour(
        name="eight_wide", word=("gamma1", "gamma2_inv"),
        segments=_eight(1.25, (-1, +1)), orientation="mixed")
    cont["double_wind"] = Contour(
        name="double_wind", word=("gamma1", "gamma2", "gamma2"),
        segments=_eight(1.45, (-1, -1), winds=(1, 2)), orientation="cw")
    cont["circle_both"] = Contour(
        name="circle_both", word=("gamma1", "gamma2"),
        segments=[ArcSegment(0.0, 1.5, np.pi / 2, np.pi / 2 - 2 * np.pi)],
        orientation="cw")
    cont["circle_plus"] = Contour(
        name="circle_plus", word=("gamma1",),
        segments=[ArcSegment(1.0, 1.3, np.pi / 2, np.pi / 2 - 2 * np.pi)],
        orientation="cw")
    cont["circle_minus"] = Contour(
        name="circle_minus", word=("gamma2",),
        segments=[ArcSegment(-1.0, 1.3, np.pi / 2, np.pi / 2 - 2 * np.pi)],
        orientation="cw")

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
    return None if pair is None else (int(pair[0]), float(pair[1]))


def load_catalogue(path=None):
    """Load a contour catalogue from JSON, or the built-in set when no path."""
    if path is None:
        return builtin_catalogue()
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
        contours = {}
        for cd in data["contours"]:
            c = Contour(name=cd["name"], word=tuple(cd["word"]),
                        segments=[_segment_from_dict(s) for s in cd["segments"]],
                        orientation=cd.get("orientation", "ccw"),
                        tau_image=cd.get("tau_image"))
            for idt in cd.get("intersections", []):
                c.intersections.append(IntersectionDatum(
                    other=idt["with"], point=complex(*idt["point"]),
                    sign=int(idt["sign"]),
                    resolution_word=tuple(idt["resolution_word"]),
                    seg_param=_seg_param(idt.get("seg_param")),
                    other_seg_param=_seg_param(idt.get("other_seg_param"))))
            contours[c.name] = c
        pairs = [tuple(p) for p in data.get("pairs", [])]
        cat = Catalogue(contours, pairs, tuple(data.get("holes", ("gamma1", "gamma2", "gamma3"))))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed catalogue file: {exc}") from exc
    return cat.validate()
