"""Span tracer for the benchmark's traced run.

The tracer wraps the functions of each ottobounds layer at every place
they are bound (``engine.sech`` and ``cycle.coth`` as well as
``special.sech``), so intra-package calls are seen too.  Modules imported
later, for instance through a lazy import, are instrumented as they load,
and nothing is imported on the tracer's behalf, so the set of modules a
process loads is unchanged.

Spans are (name, start, end, parent) rows kept in flat arrays; a layer's
self time is the summed span time minus the time of its direct children.
Counters that need a call's arguments or result (COUNTERS) are taken at
the same boundaries.  Only the standard library is used here.
"""

import importlib.abc
import sys
import time
from array import array

PACKAGE = "ottobounds"

# Layer modules, their private functions that the per-layer metrics name,
# and the classes whose methods are wrapped.
LAYERS = ("init", "cli", "verify", "oracle", "engine", "fridge", "cycle", "special")
_EXTRA = {"verify": ("_engine_feasible",), "cli": ("_emit",)}
_METHODS = ("__post_init__", "lambda_for", "points", "to_csv", "to_json")


def self_times(name_idx, parent, start, end):
    """Self time of each span: its duration minus its direct children's.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it and their durations add up.
    """
    n = len(start)
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(n)]


class _ImportHook(importlib.abc.MetaPathFinder, importlib.abc.Loader):
    """Instruments each package module right after it executes."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.loading = set()
        self.real = {}

    def find_spec(self, fullname, path, target=None):
        if (fullname.partition(".")[0] != PACKAGE or fullname.endswith("__main__")
                or fullname in self.loading):
            return None
        self.loading.add(fullname)
        try:
            for finder in sys.meta_path:
                if finder is self:
                    continue
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    break
            else:
                return None
        finally:
            self.loading.discard(fullname)
        if spec.loader is None:
            return spec
        self.real[fullname] = spec.loader
        spec.loader = self
        return spec

    def create_module(self, spec):
        return self.real[spec.name].create_module(spec)

    def exec_module(self, module):
        self.real[module.__name__].exec_module(module)
        self.tracer.instrument()


class Tracer:
    """Records spans and counters; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self.name_ids = {}
        self.wrappers = {}       # original function -> wrapper
        self.patches = []        # (owner, attribute, original)
        self.instrumented = set()
        self.hooks = dict(COUNTERS)  # span name -> callable(tracer, args, result)
        self.finder = None
        self.stack = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; the wrappers stay in place."""
        self.stack.clear()
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.counts = {}

    # -- recording ---------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name):
        """Whether a span called ``name`` is open on the current stack."""
        nid = self.name_ids.get(name)
        return nid is not None and any(self.name_idx[i] == nid for i in self.stack)

    def _id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        nid = self._id(name)
        stack = self.stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            tr = self
            i = len(tr.start)
            tr.name_idx.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.raised.append(0)
            tr.end.append(0)
            stack.append(i)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # 1 marks the package's own typed errors, 2 anything else.
                tr.raised[i] = 1 if type(exc).__module__.startswith(PACKAGE) else 2
                raise
            finally:
                tr.end[i] = clock()
                stack.pop()
            hook = tr.hooks.get(name)
            if hook is not None:
                hook(tr, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- instrumentation ---------------------------------------------------

    def install(self):
        """Wrap every loaded package module and watch for later imports."""
        self.finder = _ImportHook(self)
        sys.meta_path.insert(0, self.finder)
        self.instrument()

    def uninstall(self):
        if self.finder in sys.meta_path:
            sys.meta_path.remove(self.finder)
        self.finder = None
        for owner, attr, original in reversed(self.patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self.patches = []
        self.wrappers = {}
        self.instrumented = set()

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def instrument(self):
        """Create wrappers for newly loaded layers, then rebind everywhere."""
        modules = {name: m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for name, mod in modules.items():
            layer = name.rpartition(".")[2]
            if layer == "__main__":
                layer = "cli"
            if layer not in LAYERS or name in self.instrumented:
                continue
            self.instrumented.add(name)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for meth in _METHODS:
                        fn = obj.__dict__.get(meth)
                        if callable(fn) and fn not in self.wrappers:
                            w = self._wrap(f"{layer}.{attr}.{meth}", fn)
                            self.wrappers[fn] = w
                            self._patch(obj, meth, w)
                elif callable(obj) and (not attr.startswith("_") or attr in _EXTRA.get(layer, ())):
                    if obj not in self.wrappers:
                        self.wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, dict):   # dispatch tables such as cli._COMMANDS
                    for key, val in list(obj.items()):
                        if callable(val) and val in self.wrappers:
                            self.patches.append((obj, key, val))
                            obj[key] = self.wrappers[val]
                    continue
                try:
                    w = self.wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if w is not None:
                    self._patch(mod, attr, w)

    # -- summaries ---------------------------------------------------------

    def layer_summary(self):
        """Per-layer span count and self time (ns), plus per-name totals."""
        selfs = self_times(self.name_idx, self.parent, self.start, self.end)
        layers = {layer: {"calls": 0, "self_ns": 0, "raised": 0} for layer in LAYERS}
        by_name = {}
        for i, nid in enumerate(self.name_idx):
            name = self.names[nid]
            agg = layers.setdefault(name.partition(".")[0], {"calls": 0, "self_ns": 0, "raised": 0})
            agg["calls"] += 1
            agg["self_ns"] += selfs[i]
            agg["raised"] += self.raised[i] == 1
            row = by_name.setdefault(name, [0, 0])
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
        return layers, by_name

    def rows(self):
        """Spans as (name, start_ns, end_ns, parent_index, raised) tuples."""
        return [(self.names[self.name_idx[i]], self.start[i], self.end[i],
                 self.parent[i], self.raised[i]) for i in range(len(self.start))]

    def dump(self):
        """Spans and counters as a JSON-ready dict (see ``absorb``)."""
        return {"names": self.names, "name_idx": list(self.name_idx),
                "parent": list(self.parent), "start": list(self.start),
                "end": list(self.end), "raised": list(self.raised),
                "counts": self.counts}

    def absorb(self, data):
        """Append the spans and counters of another tracer's ``dump``."""
        offset = len(self.start)
        ids = [self._id(name) for name in data["names"]]
        self.name_idx.extend(ids[k] for k in data["name_idx"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in data["parent"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.raised.extend(data["raised"])
        for key, n in data["counts"].items():
            self.count(key, n)


def _nonfinite(tr, args, perf):
    if not all(abs(x) < float("inf") for x in (perf.q2, perf.q4, perf.w_ext)):
        tr.count("cycle.nonfinite_results")


def _grid_points(tr, args, mask):
    if tr.inside("oracle.sup_constrained_grid"):
        tr.count("oracle.grid_points", getattr(args[0], "size", 1))


def _bisect_eval(tr, args, value):
    if tr.stack and tr.name_idx[tr.stack[-1]] == tr.name_ids.get("oracle.find_root_scalar"):
        tr.count("oracle.bisect_evals")


COUNTERS = {
    "cycle.heats_work": _nonfinite,
    "verify._engine_feasible": _grid_points,
    "fridge.cooling_heat_ht": _bisect_eval,
    "oracle.sup_constrained_grid":
        lambda tr, args, rep: tr.count("oracle.grid_feasible", rep.evaluations),
    "oracle.maximize_scalar":
        lambda tr, args, rep: tr.count("oracle.golden_evals", rep.evaluations),
    "verify.run_suite":
        lambda tr, args, checks: tr.count("verify.evaluations", sum(c.evaluations for c in checks)),
}
