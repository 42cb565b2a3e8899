"""Outside-in span tracer for the xprod layers.

The tracer wraps public module-level functions of the six layers (``cli``,
``twosided``, ``crossed``, ``constructions``, ``algebra``, ``exactla``) and
rebinds each wrapper in every ``xprod`` namespace that imported the function,
so a call from ``twosided`` into ``exactla.compose`` becomes a child span of
the ``twosided`` span that made it.  Calls inside the defining module keep the
original function, so a layer's internal helpers (``compose`` calling
``matmul``, ``new_algebra`` calling ``associativity_witness``) count as the
self time of the span that entered the layer.  Three kinds of call are also
traced inside their own module, because their metrics must see every call: the
CLI's public functions (its parse/run/serialise phases),
``twosided.check_twosided`` and ``algebra.new_algebra``.

Self time is a span's duration minus the durations of its child spans.
Counters are read from a traced call's arguments, return value or raised
exception, never from inside the package.  Spans are kept in memory and written
out once, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "twosided", "crossed", "constructions", "algebra", "exactla")
TRACED_INSIDE_OWN_MODULE = ("twosided.check_twosided", "algebra.new_algebra")


# -- tuples scanned by one check_twosided call ---------------------------------

def _scan_dims(na, nv, nc):
    """Basis-tuple ranges of each elementwise scan, in its quantifier order."""
    return {
        "twR32": (nc, na, na), "twR33": (nc, nc, na),
        "equiv1": (nv, na, na), "equiv2": (nc, nc, nv), "equiv3": (nc, nv, na),
        "equiv4": (nv, nv, na), "equiv5": (nc, nv, nv), "equiv6": (nv, nv, nv),
    }


def _unit_families(na, nv, nc):
    """Unit scans as (identity of the first family, size of the first family,
    size of the second); each family is scanned in basis order."""
    return {
        "twR31": ("R3(c⊗1_A)=1_A⊗c", nc, na),
        "unit-R1": ("R1(1_V⊗a)=a⊗1_V", na, nv),
        "unit-R2": ("R2(c⊗1_V)=1_V⊗c", nc, nv),
    }


def _rank(indices, dims):
    flat = 0
    for i, d in zip(indices, dims):
        flat = flat * d + i
    return flat


def tuples_scanned(dims, report):
    """Basis tuples a condition report accounts for: every tuple of a passing
    condition, and up to the witness (its lexicographic rank + 1) of a failing one."""
    na, nv, nc = dims
    scans = _scan_dims(na, nv, nc)
    units = _unit_families(na, nv, nc)
    total = 0
    for entry in report.entries:
        w = entry.witness
        if entry.name in scans:
            d = scans[entry.name]
            total += d[0] * d[1] * d[2] if entry.passed else _rank(w.indices, d) + 1
        elif entry.name in units:
            first_text, first, second = units[entry.name]
            if entry.passed:
                total += first + second
            else:
                total += w.indices[0] + 1 + (0 if w.identity == first_text else first)
        elif entry.name == "unit-E":
            # two identities per basis vector of V, E(1_V⊗v) before E(v⊗1_V)
            if entry.passed:
                total += 2 * nv
            else:
                total += 2 * w.indices[0] + (1 if w.identity.startswith("E(1_V") else 2)
        else:
            raise KeyError(f"unknown two-sided condition {entry.name!r}")
    return total


# -- the tracer ------------------------------------------------------------------------

class Tracer:
    """Span recorder plus per-name and per-layer aggregates and counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counters = defaultdict(int)
        self._bindings: list[tuple[object, str, object]] = []

    # recording

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name, hook):
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(0)
            self.span_end.append(0)
            self.stack.append(idx)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                self.stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
                if hook is not None:
                    hook(self, args, kwargs, result, exc, parent)

        return wrapper

    def install(self, modules):
        """Wrap the public functions of the layer modules and rebind the wrappers.

        ``modules`` maps every loaded ``xprod`` module name to its module object.
        """
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"xprod.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = (fn, layer, name,
                                        self._wrap(fn, name, HOOKS.get(name)))
        for mod_name, mod in modules.items():
            own = mod_name.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                fn, layer, name, wrapper = hit
                if layer == own and layer != "cli" and name not in TRACED_INSIDE_OWN_MODULE:
                    continue
                self._bindings.append((mod, attr, fn))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self._bindings):
            setattr(mod, attr, fn)
        self._bindings.clear()

    # results

    def _self_ns(self):
        """Each span's duration minus the durations of its child spans."""
        self_ns = [end - start for start, end in zip(self.span_start, self.span_end)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                self_ns[parent] -= self.span_end[i] - self.span_start[i]
        return self_ns

    def metrics(self):
        """Self time per layer and per traced function, call counts, counters."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for nid, ns in zip(self.span_name, self._self_ns()):
            name = self.names[nid]
            out[f"{name.split('.')[0]}.self_s"] += ns / 1e9
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + ns / 1e9
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out.update(self.counters)
        out["trace.spans"] = len(self.span_start)
        return out

    def self_by_root(self):
        """Self seconds per layer under each top-level span, in call order."""
        root = []
        roots = []
        for parent in self.span_parent:  # a parent span is recorded before its children
            if parent < 0:
                root.append(len(roots))
                roots.append(defaultdict(float))
            else:
                root.append(root[parent])
        for i, ns in enumerate(self._self_ns()):
            roots[root[i]][self.names[self.span_name[i]].split(".")[0]] += ns / 1e9
        return roots

    def dump(self, path):
        """Write every span: name table, then parallel arrays (ns clock)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start_ns": self.span_start.tolist(),
                       "end_ns": self.span_end.tolist()}, fh)


# -- counter hooks: (tracer, args, kwargs, result, exception, parent span) -----

def _dense_entries(tr, args, kwargs, result, exc, parent):
    if result is not None:
        tr.counters["exactla.dense_entries"] += result.codomain.total * result.domain.total


def _check_twosided(tr, args, kwargs, result, exc, parent):
    if result is None:
        return
    d = args[0] if args else kwargs["d"]
    tr.counters["twosided.tuples_scanned"] += tuples_scanned(
        (d.A.dim, d.V.dim, d.C.dim), result)
    if parent >= 0 and tr.names[tr.span_name[parent]] == "constructions.search_fp":
        tr.counters["constructions.candidates"] += 1
        tr.counters["constructions.accepted"] += int(result.all_pass)


def _new_algebra(tr, args, kwargs, result, exc, parent):
    # new_algebra(field, dim, mul, unit, validate=True)
    validate = args[4] if len(args) > 4 else kwargs.get("validate", True)
    if not validate:
        return
    dim = args[1] if len(args) > 1 else kwargs["dim"]
    if type(exc).__name__ == "NotAssociative":
        tr.counters["algebra.assoc_triples"] += _rank(exc.witness, (dim, dim, dim)) + 1
    elif result is not None or type(exc).__name__ == "NotUnital":
        tr.counters["algebra.assoc_triples"] += dim ** 3


HOOKS = {
    "exactla.compose": _dense_entries,
    "exactla.tensor": _dense_entries,
    "twosided.check_twosided": _check_twosided,
    "algebra.new_algebra": _new_algebra,
}


def xprod_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "xprod" or name.startswith("xprod.")}
