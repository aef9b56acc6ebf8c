"""Per-layer call tracing installed from outside the library.

``Tracer.install()`` replaces every binding of each layer's public functions
with a timing wrapper: the defining module's global, the package re-export,
and every name another ``trinion`` module imported (``verify``, ``orbits``
and ``graph_poisson`` import functions by name, and intra-module calls go
through module globals).  The ``expm`` names bound in ``decompositions``,
``graph_poisson`` and ``verify`` get one wrapper each, so their call counts
stay apart.  ``Tracer.restore()`` puts every original binding back.

Spans are aggregated as they close instead of being stored: a workload makes
millions of calls.  A span's self time is its duration minus the durations of
the spans it directly encloses; a layer's self time is the sum over its
functions.  The benchmark opens a root span (layer ``verify``) around each of
its own calls, so ``verify.self_s`` is the glue outside every layer.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("lie_core", "decompositions", "orbits", "holonomy", "graph_poisson")
EXPM_BINDERS = ("decompositions", "graph_poisson", "verify")
ROOT = "verify.call"

# stat slots: calls, self seconds, then two per-function extras
CALLS, SELF, EXTRA_A, EXTRA_B = range(4)


def _batch_size(stat, args, kwargs, out):
    x1s = args[0] if args else kwargs["x1s"]
    stat[EXTRA_A] += len(x1s)


def _solver_outcome(stat, args, kwargs, out):
    trials = getattr(out, "trials", None)
    if trials is None:  # MomentSolution: the winning trial is zero-based
        stat[EXTRA_A] += 1
        stat[EXTRA_B] += out.trial + 1
    else:               # NoSolution
        stat[EXTRA_B] += trials


EXTRAS = {
    "holonomy.holonomy_batch": _batch_size,
    "orbits.solve_moment_zero": _solver_outcome,
    "orbits.solve_moment_kstar": _solver_outcome,
}


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = [0.0]
        self._bindings = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stat[CALLS] += 1
                stat[SELF] += dur - child
            if extra is not None:
                extra(stat, args, kwargs, out)
            return out

        return wrapper

    def span(self, fn, *args, **kwargs):
        """Run ``fn`` inside a root span of the benchmark's own glue."""
        return self._wrap(ROOT, fn)(*args, **kwargs)

    def install(self):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        pkg = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "trinion" or name.startswith("trinion."))]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"trinion.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in pkg:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._bind(mod, attr, hit[1])
        for layer in EXPM_BINDERS:
            mod = sys.modules[f"trinion.{layer}"]
            if hasattr(mod, "expm"):  # a module that stops importing expm counts 0 calls
                self._bind(mod, "expm", self._wrap(f"{layer}.expm", mod.expm))

    def _bind(self, mod, attr, wrapper):
        self._bindings.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def restore(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def installed_count(self):
        return len(self._bindings)


def layer_self(stats, layer):
    """Self seconds of every span whose name starts with ``layer.``."""
    return sum(s[SELF] for name, s in stats.items() if name.startswith(layer + "."))
