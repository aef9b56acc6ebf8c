"""Ciliated fat graphs, the vertex-ordered graph bracket, and the dual-group map.

The graph bracket of two functions of a graph connection sums over vertices
and ordered pairs of edge ends.  With ``xi_e`` / ``eta_e`` the end variation
covectors of the two functions (left multiplication at a target end, inverse
right multiplication at a source end), the value is::

    sum_vertex [ sum_{a<b} (xi_a R eta_b - eta_a R xi_b)
                 + 1/2 sum_a (xi_a R eta_a - eta_a R xi_a) ]

with R the plus r-matrix coefficients.  Antisymmetrizing over the function
pair (not the tensor slots) keeps the symmetric part of R active: the terms
above the diagonal carry the plus matrix and those below it the minus one.

The three-holed-sphere graph shipped here has vertices ``Q0 = 2.5``,
``Q1 = 0``, ``Q2 = -2.5`` on the real axis, upper-arc edges
``e1: Q1 -> Q0`` (over +1), ``e2: Q2 -> Q1`` (over -1), ``e3: Q0 -> Q2``
(over both), and their reflected partners.  Holonomies of the upper arcs
satisfy ``g1 g2 g3 = e`` and ``g_j bar(g_j)`` lies in the j-th hole class.
A constant unitary gauge at the basepoint acts on ``g1`` alone by left
multiplication and maps through the projection below to the diagonal
dressing action on the dual-group triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decompositions import BracketSpace, iwasawa_dual, sklyanin_eval
from .errors import MissingIntersectionData, SchemaError
from .holonomy import (ArcSegment, _cut, _holonomies, _rebased, arc_crossings,
                       resolved_segments)
from .lie_core import _central_differences, _point_value, _r_contract, bar

__all__ = [
    "CiliatedGraph",
    "GraphConnection",
    "Figure3Data",
    "figure_three",
    "fr_bracket",
    "reality_project",
    "chi_map",
    "goldman_rhs",
    "fr_vs_kstar",
    "graph_gauge",
]

CROSSING_WEIGHT = 2j * np.pi  # per-crossing weight matching the orbit bracket


@dataclass
class CiliatedGraph:
    """Oriented fat graph with a linear order of edge ends at each vertex.

    ``edges`` maps a name to ``(source, target)``; ``orders`` lists, per
    vertex, the incident ends as ``(edge, 'src'|'tgt')`` in cilium order.
    ``tau_edges``/``tau_vertices`` record the reflection pairing; ``faces``
    hold boundary words as ``(edge, +1|-1)`` sequences in path order.
    """

    vertices: list
    edges: dict
    orders: dict
    tau_edges: dict = field(default_factory=dict)
    tau_vertices: dict = field(default_factory=dict)
    faces: list = field(default_factory=list)

    def validate(self):
        seen = set()
        for v, ends in self.orders.items():
            for e, w in ends:
                if e not in self.edges:
                    raise SchemaError(f"order at {v} references unknown edge {e}")
                s, t = self.edges[e]
                if (w == "src" and s != v) or (w == "tgt" and t != v):
                    raise SchemaError(f"end ({e}, {w}) not incident to {v}")
                if (e, w) in seen:
                    raise SchemaError(f"duplicate end ({e}, {w})")
                seen.add((e, w))
        for e in self.edges:
            for w in ("src", "tgt"):
                if (e, w) not in seen:
                    raise SchemaError(f"missing end ({e}, {w}) in vertex orders")
        for v, vt in self.tau_vertices.items():
            ends = self.orders[v]
            mirrored = [(self.tau_edges[e], w) for (e, w) in reversed(self.orders[vt])]
            if mirrored != ends:
                raise SchemaError(f"linear order at {v} does not reverse under tau")
        return self

    def face_holonomy(self, conn, word):
        h = np.eye(conn[word[0][0]].shape[0], dtype=complex)
        for e, sgn in word:
            m = conn[e] if sgn > 0 else np.linalg.inv(conn[e])
            h = m @ h
        return h


class GraphConnection(dict):
    """Assignment of a group element to each edge (a plain mapping)."""

    def reality_residual(self, graph):
        worst = 0.0
        for e, te in graph.tau_edges.items():
            worst = max(worst, float(np.max(np.abs(
                self[e] - np.linalg.inv(bar(self[te]))))))
        return worst


def graph_gauge(graph, conn, assignment):
    """Apply a vertex gauge: ``a_e -> k_tgt a_e k_src^{-1}``."""
    out = GraphConnection()
    for e, (s, t) in graph.edges.items():
        out[e] = assignment[t] @ conn[e] @ np.linalg.inv(assignment[s])
    return out


def reality_project(graph, conn):
    """Project onto connections with ``a_e = bar(a_{tau(e)})^{-1}``.

    The representative is taken from the lexicographically smaller edge of
    each reflection pair; idempotent, and compliant connections are fixed.
    Raises ``SchemaError`` for reflection-fixed edges.
    """
    out = GraphConnection(conn)
    for e, te in graph.tau_edges.items():
        if e == te:
            raise SchemaError("reflection-fixed edges are not supported")
        if e < te:
            out[te] = np.linalg.inv(bar(conn[e]))
    return out


def fr_bracket(ctx, graph, psi1, psi2, conn, rmat, fd_step=1e-6):
    """Vertex-ordered graph bracket of two functions of a connection.

    Each function maps a connection whose edge values carry leading axes to
    values over those axes, and is called once.  ``conn`` may carry leading
    axes too: the value is a float for a single connection and an array
    over ``lead`` otherwise, so a bracket is itself a test function.
    """
    return _fr_brackets(ctx, graph, lambda c: (psi1(c), psi2(c)), conn, rmat, fd_step)[0]


def _stacked_covectors(ctx, graph, psi, conn, fd_step):
    """End covectors of each value of ``psi``, each ``lead + (ends, dim)``, ends in cilium order.

    Each step sign, end and real direction is one row of a stacked connection
    ``lead + (2, ends, dim)``, which ``psi`` maps to the values of all its
    functions over those axes in one call.  A target end carries the left
    gradient, a source end minus the right one.
    """
    ends = [end for v_ends in graph.orders.values() for end in v_ends]
    eps, ems = ctx.fd_exponentials(fd_step)
    conn = {e: np.asarray(a) for e, a in conn.items()}
    lead = np.broadcast_shapes(*(a.shape[:-2] for a in conn.values()))
    rows = lead + (2, len(ends), len(eps))
    stack = {e: np.broadcast_to(a[..., None, None, None, :, :], rows + a.shape[-2:])
             .astype(complex) for e, a in conn.items()}
    for i, (e, w) in enumerate(ends):
        a = conn[e][..., None, :, :]
        plus, minus = (eps @ a, ems @ a) if w == "tgt" else (a @ ems, a @ eps)
        stack[e][..., 0, i, :, :, :] = plus
        stack[e][..., 1, i, :, :, :] = minus
    return [_central_differences(v, len(lead), fd_step) for v in psi(GraphConnection(stack))]


def _fr_brackets(ctx, graph, psi, conn, rmat, fd_step):
    """Graph brackets of consecutive pairs of the values of the stack function ``psi``.

    ``psi`` returns ``2m`` values; the result lists the brackets of values
    ``(0, 1)``, ``(2, 3)``, ..., ``(2m - 2, 2m - 1)``.
    """
    rp = rmat.tensor
    covs = _stacked_covectors(ctx, graph, psi, conn, fd_step)
    out = []
    for xi, eta in zip(covs[::2], covs[1::2]):
        total = 0.0
        first = 0
        for ends in graph.orders.values():
            last = first + len(ends)
            for i in range(first, last):
                x, y = xi[..., i, :], eta[..., i, :]
                total += 0.5 * (_r_contract(x, rp, y) - _r_contract(y, rp, x))
                for j in range(i + 1, last):
                    total += (_r_contract(x, rp, eta[..., j, :])
                              - _r_contract(y, rp, xi[..., j, :]))
            first = last
        out.append(_point_value(total))
    return out


# ---------------------------------------------------------------------------
# the three-holed-sphere graph
# ---------------------------------------------------------------------------

@dataclass
class Figure3Data:
    """Shipped realization of the three-arc graph and its reflection double.

    ``bracket_graph`` carries the three upper arcs only (connection space
    G^3, used for the dual-group comparison); ``reality_graph`` adds the
    reflected partners with the reflection pairing.  ``arc_segments`` maps
    edge names to geometric paths for holonomy extraction; the two outer
    figure vertices coincide at ``Q0`` in this realization (the outer arc
    absorbs the degree-two vertex).
    """

    bracket_graph: CiliatedGraph
    reality_graph: CiliatedGraph
    arc_segments: dict


def figure_three():
    edges3 = {"e1": ("Q1", "Q0"), "e2": ("Q2", "Q1"), "e3": ("Q0", "Q2")}
    orders3 = {
        "Q0": [("e1", "tgt"), ("e3", "src")],
        "Q1": [("e1", "src"), ("e2", "tgt")],
        "Q2": [("e2", "src"), ("e3", "tgt")],
    }
    bracket_graph = CiliatedGraph(
        vertices=["Q0", "Q1", "Q2"], edges=edges3, orders=orders3,
        faces=[{"kind": "empty", "word": [("e3", 1), ("e2", 1), ("e1", 1)]}],
    ).validate()

    edges6 = dict(edges3)
    edges6.update({"e1_bar": ("Q1", "Q0"), "e2_bar": ("Q2", "Q1"),
                   "e3_bar": ("Q0", "Q2")})
    orders6 = {
        "Q0": [("e3", "src"), ("e1", "tgt"), ("e1_bar", "tgt"), ("e3_bar", "src")],
        "Q1": [("e2_bar", "tgt"), ("e1_bar", "src"), ("e1", "src"), ("e2", "tgt")],
        "Q2": [("e3_bar", "tgt"), ("e2_bar", "src"), ("e2", "src"), ("e3", "tgt")],
    }
    tau_edges = {"e1": "e1_bar", "e2": "e2_bar", "e3": "e3_bar",
                 "e1_bar": "e1", "e2_bar": "e2", "e3_bar": "e3"}
    reality_graph = CiliatedGraph(
        vertices=["Q0", "Q1", "Q2"], edges=edges6, orders=orders6,
        tau_edges=tau_edges,
        tau_vertices={"Q0": "Q0", "Q1": "Q1", "Q2": "Q2"},
        faces=[
            {"kind": "hole", "hole": 1, "word": [("e1", 1), ("e1_bar", -1)]},
            {"kind": "hole", "hole": 2, "word": [("e2", 1), ("e2_bar", -1)]},
            {"kind": "empty", "word": [("e3", 1), ("e2", 1), ("e1", 1)]},
            {"kind": "empty", "word": [("e3_bar", 1), ("e2_bar", 1), ("e1_bar", 1)]},
            {"kind": "hole", "hole": 3, "word": [("e3", 1), ("e3_bar", -1)]},
        ],
    ).validate()

    arcs = {
        "e1": [ArcSegment(1.25, 1.25, np.pi, 0.0)],
        "e2": [ArcSegment(-1.25, 1.25, np.pi, 0.0)],
        "e3": [ArcSegment(0.0, 2.5, 0.0, np.pi)],
    }
    for e in ("e1", "e2", "e3"):
        arcs[e + "_bar"] = [s.reflect() for s in arcs[e]]
    return Figure3Data(bracket_graph=bracket_graph, reality_graph=reality_graph,
                       arc_segments=arcs)


def chi_map(ctx, g1, g2, g3, u=None):
    """Project a holonomy triple to the dual-group triple.

    ``k*_1`` is the starred-left factor of ``g1``; each later factor first
    pushes the accumulated unitary remainder into the next holonomy.  Left
    multiplication of ``g1`` by a unitary maps to the diagonal dressing
    action on the output, and ``g1 g2 g3 = e`` forces the product of the
    outputs to be the identity.  Each factor is one ``iwasawa_dual`` over
    leading axes, so stacked holonomies give stacked outputs.  There is no
    ``t`` here: it reaches the holonomies through the connection's scale.
    """
    k1, r1 = iwasawa_dual(ctx, g1, u=u)
    k2, r2 = iwasawa_dual(ctx, r1 @ g2, u=u)
    k3, _ = iwasawa_dual(ctx, r2 @ g3, u=u)
    return k1, k2, k3


# ---------------------------------------------------------------------------
# signed crossing sums
# ---------------------------------------------------------------------------

def goldman_rhs(ctx, conn, contour_a, contour_b, ode_tol=1e-10, geometric=True):
    """Signed crossing sum for a curated contour pair.

    Returns a report with two computations of the same quantity: the
    Casimir contraction ``-W sum_p sign(p) sum_a Tr(t_a M_p) Tr(t_a N_p)``
    and the trace-resolution form ``W sum_p sign(p) (phi_resolved -
    phi_a phi_b / n)``; ``W = 2 pi i`` is the crossing weight.  With
    ``geometric`` the resolved traces come from the spliced contours,
    otherwise from products of the re-based holonomies, themselves products
    of the pieces between the crossings.  The pieces of both contours and the
    splices take one transport call.  Raises ``MissingIntersectionData`` when
    the contours cross but carry no data.
    """
    data = [d for d in contour_a.intersections if d.other == contour_b.name]
    if not data:
        if arc_crossings(contour_a, contour_b):
            raise MissingIntersectionData(
                f"pair ({contour_a.name}, {contour_b.name}) has crossings but no records")
        return {"casimir_form": 0j, "trace_form": 0j, "points": []}
    if any(d.seg_param is None or d.other_seg_param is None for d in data):
        raise MissingIntersectionData(
            f"pair ({contour_a.name}, {contour_b.name}) has records without crossing parameters")

    cuts_a, cuts_b = [d.seg_param for d in data], [d.other_seg_param for d in data]
    splices = [resolved_segments(contour_a, d, contour_b) for d in data] if geometric else []
    k = len(data) + 1
    hols = _holonomies(conn, _cut(contour_a.segments, cuts_a) + _cut(contour_b.segments, cuts_b)
                       + splices, ode_tol)
    ms, ns = _rebased(hols[:k], cuts_a), _rebased(hols[k:2 * k], cuts_b)
    resolved = hols[2 * k:] if geometric else [m @ nmat for m, nmat in zip(ms, ns)]
    cas, tr, points = 0j, 0j, []
    for d, m, nmat, res in zip(data, ms, ns, resolved):
        res_tr = np.trace(res)
        c = ctx.casimir_contract(m, nmat)
        g = res_tr - np.trace(m) * np.trace(nmat) / ctx.n
        cas += -CROSSING_WEIGHT * d.sign * c
        tr += CROSSING_WEIGHT * d.sign * g
        points.append({"point": d.point, "sign": d.sign,
                       "casimir": c, "resolved_trace": complex(res_tr)})
    return {"casimir_form": cas, "trace_form": tr, "points": points}


def fr_vs_kstar(ctx, fig3, pairs, gs, rmat, u=None):
    """Compare graph brackets of dual-group pullbacks with the direct brackets.

    ``pairs`` lists ``(slot1, f1, slot2, f2)``: test functions on dual-group
    factors (slots 0..2) that map matrices with leading axes to values over
    those axes.  All perturbed connections of the bracket take one stacked
    projection, shared by every pair, and each function is called once on
    its factors; the pullbacks are bracketed on the three-edge graph at
    ``gs`` and compared against the dual-group bracket at the projection of
    ``gs`` (zero across distinct slots).  Returns one report per pair.
    """
    conn = GraphConnection({"e1": gs[0], "e2": gs[1], "e3": gs[2]})

    def pulled(a):
        ks = chi_map(ctx, a["e1"], a["e2"], a["e3"], u)
        return [f(ks[slot].matrix) for s1, f1, s2, f2 in pairs
                for slot, f in ((s1, f1), (s2, f2))]

    frs = _fr_brackets(ctx, fig3.bracket_graph, pulled, conn, rmat, 1e-6)
    point = chi_map(ctx, gs[0], gs[1], gs[2], u)
    reports = []
    for (slot1, f1, slot2, f2), fr in zip(pairs, frs):
        plb = (sklyanin_eval(ctx, BracketSpace.DualGroup, f1, f2, point[slot1], rmat,
                             fd_step=1e-5) if slot1 == slot2 else 0.0)
        scale = max(abs(fr), abs(plb), 1e-6)
        reports.append({"fr_value": fr, "plb_value": plb, "rel_err": abs(fr - plb) / scale})
    return reports
