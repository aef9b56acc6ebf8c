"""JSON helpers: complex matrices as row-major arrays of [re, im] pairs."""

from __future__ import annotations

import math

import numpy as np

from .errors import SchemaError


def is_number(val, kinds=(int, float)):
    """A finite JSON number of the given types; ``true`` and ``false`` are not numbers."""
    return (isinstance(val, kinds) and not isinstance(val, bool)
            and (isinstance(val, int) or math.isfinite(val)))


def matrix_to_json(m):
    m = np.asarray(m)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(rows):
    """Square matrix of finite entries from rows of [re, im] pairs."""
    try:
        m = np.array([[complex(a, b) for a, b in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"malformed matrix payload: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise SchemaError(f"matrix payload must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise SchemaError("matrix payload has non-finite entries")
    return m


def matrices_from_json(payloads):
    """Matrices of one size, each read by ``matrix_from_json``."""
    mats = [matrix_from_json(rows) for rows in payloads]
    sizes = sorted({len(m) for m in mats})
    if len(sizes) > 1:
        raise SchemaError(f"matrices must have one size, got sizes {sizes}")
    return mats


def solution_to_json(sol):
    """MomentSolution payload: labels, points, residual, rank, winning trial."""
    out = {
        "kind": sol.kind,
        "theta": [list(p.H.theta) for p in sol.points],
        "t": sol.t,
        "u": None if sol.u is None else np.asarray(sol.u).tolist(),
        "residual": sol.residual,
        "regularity_rank": sol.regularity_rank,
        "trial": sol.trial,
    }
    pts = []
    for p in sol.points:
        if sol.kind == "zero":
            pts.append({"X": matrix_to_json(p.X)})
        else:
            pts.append({"kstar": matrix_to_json(p.kstar.matrix)})
    out["points"] = pts
    return out
