"""Per-perturbation graph bracket: the reference the stacked evaluation is tested against.

This is the graph bracket as the library evaluated it before it stacked the
perturbed connections: one connection per edge end, step and real basis
direction, each pulled back through its own ``chi_map``.  It shares no
stacking code with the library, and it is slow, so tests use it on a few
points.
"""

import numpy as np

from trinion.decompositions import BracketSpace, sklyanin_eval
from trinion.graph_poisson import GraphConnection, chi_map


def end_covector(ctx, psi, conn, edge, which, h):
    """Left gradient of psi in ``edge`` at a target end, minus the right one at a source end."""
    base = conn[edge]
    eps, ems = ctx.fd_exponentials(h)

    def tweak(m):
        return GraphConnection(conn, **{edge: m})

    if which == "tgt":
        plus, minus = [tweak(e @ base) for e in eps], [tweak(e @ base) for e in ems]
    else:
        plus, minus = [tweak(base @ e) for e in ems], [tweak(base @ e) for e in eps]
    pairs = np.array([(psi(p), psi(m)) for p, m in zip(plus, minus)])
    return (pairs[:, 0] - pairs[:, 1]) / (2 * h)


def fr_bracket_pair(ctx, graph, psi12, conn, rmat, h):
    """Graph bracket of the two components of ``psi12``, a function of one connection."""
    rp = rmat.tensor
    total = 0.0
    for ends in graph.orders.values():
        covs = np.array([end_covector(ctx, psi12, conn, e, w, h).T for e, w in ends])
        xi, eta = covs[:, 0], covs[:, 1]
        for i in range(len(ends)):
            total += 0.5 * (xi[i] @ rp @ eta[i] - eta[i] @ rp @ xi[i])
            for j in range(i + 1, len(ends)):
                total += xi[i] @ rp @ eta[j] - eta[i] @ rp @ xi[j]
    return float(total)


def fr_vs_kstar(ctx, fig3, slot1, f1, slot2, f2, gs, rmat, u=None):
    """``graph_poisson.fr_vs_kstar`` with one ``chi_map`` per perturbed connection."""
    conn = GraphConnection({"e1": gs[0], "e2": gs[1], "e3": gs[2]})

    def pulled(a):
        ks = chi_map(ctx, a["e1"], a["e2"], a["e3"], u)
        return f1(ks[slot1].matrix), f2(ks[slot2].matrix)

    fr = fr_bracket_pair(ctx, fig3.bracket_graph, pulled, conn, rmat, 1e-6)
    if slot1 == slot2:
        point = chi_map(ctx, gs[0], gs[1], gs[2], u)[slot1]
        plb = sklyanin_eval(ctx, BracketSpace.DualGroup, f1, f2, point, rmat, fd_step=1e-5)
    else:
        plb = 0.0
    scale = max(abs(fr), abs(plb), 1e-6)
    return {"fr_value": fr, "plb_value": plb, "rel_err": abs(fr - plb) / scale}
