"""Outside-in tracing: wrap lattik functions from the benchmark's side.

A traced pass installs a wrapper wherever a lattik module binds one of the
listed functions, as a module global or as a value of a module-level dict
(``support`` looks the spectra up in such a dict).  Each wrapped call records
a span (name, start, end, parent span, item id) in in-memory arrays; a
method that runs millions of times only counts its calls.  After the pass
the originals are restored and self time is derived from the spans.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

# Functions that get a span per call, as "<module>.<function>".
SPANNED = (
    "order.enumerate_morphisms",
    "order.canonical_key",
    "order.as_bounded_lattice",
    "ideals.ideal_masks",
    "topology.enumerate_continuous",
    "topology.sp_space",
    "topology.spc_space",
    "topology.hochster_dual",
    "support.check_adjunction",
    "support.validate_support_datum",
    "support.sigma_of_map",
    "support.map_of_sigma",
    "frames.id_vs_omega_dual",
    "tensor.radical_closure",
    "tensor.quotient_lattice",
    "tensor.all_radical_tensor_ideals",
    "tensor.validate_tensor_axioms",
    "tensor.random_tensor_lattice",
    "corpus.all_posets",
    "jsonio.lattice_to_json",
)

# Methods that only count calls: a span each would dominate what it measures
# (``SupportDatum.__eq__`` runs about 1.7M times in one adjunction sweep).
COUNTED = ("support.SupportDatum.__eq__",)

ITEM = "bench.item"


def _hook_morphisms(args, ret, extra):
    extra["order.enumerate_morphisms.results"] += len(ret)


def _hook_continuous(args, ret, extra):
    x, y = args[0], args[1]
    extra["continuous.found"] += len(ret)
    extra["continuous.candidates"] += y.n ** x.n


def _hook_posets(args, ret, extra):
    # level 1 is the seed poset; every later level was deduplicated by key
    extra["posets.kept"] += sum(len(level) for level in ret[1:])


def _hook_ideals(args, ret, extra):
    extra["ideals.found"] += len(ret)
    extra["ideals.subsets"] += 1 << args[0].n


def _hook_tensor_draw(args, ret, extra):
    extra["tensor.accepted"] += ret is not None


# Result counters taken from a call's arguments and return value.
HOOKS = {
    "order.enumerate_morphisms": _hook_morphisms,
    "topology.enumerate_continuous": _hook_continuous,
    "corpus.all_posets": _hook_posets,
    "ideals.ideal_masks": _hook_ideals,
    "tensor.random_tensor_lattice": _hook_tensor_draw,
}


def _ratio(num, den):
    return num / den if den else 0.0


def _resolve(modules, key):
    """The module and attribute path of "<module>.<name>[.<attr>]"."""
    modname, _, path = key.partition(".")
    return modules["lattik." + modname], path.split(".")


class Tracer:
    """Spans and counters of one traced pass; install before it, restore after."""

    def __init__(self):
        self.names = list(SPANNED) + [ITEM]
        self._name_id = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_item = array("q")
        self.counts = {}
        self.extra = Counter()
        self._stack = [-1]
        self._item = -1
        self._restore = []

    # -- spans -------------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1])
        self.span_item.append(self._item)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_item(self, item_id):
        self._item = item_id
        return self._open(self._name_id[ITEM])

    def end_item(self, idx):
        self._close(idx)
        self._item = -1

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, orig):
        name_id = self._name_id[name]
        hook = HOOKS.get(name)
        extra = self.extra
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                ret = orig(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                hook(args, ret, extra)
            return ret

        return wrapper

    def _counted(self, name, orig):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return orig(*args, **kwargs)

        return wrapper

    def install(self, modules):
        """Wrap every binding of the listed functions in the given lattik modules.

        ``modules`` maps full module names ("lattik.order", ...) to modules.
        """
        for name in SPANNED:
            module, path = _resolve(modules, name)
            orig = getattr(module, path[0])
            wrapper = self._spanned(name, orig)
            wrapper.__bench_wrapped__ = orig
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper, setattr)
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                self._patch(value, dkey, orig, wrapper, dict.__setitem__)
        for name in COUNTED:
            module, path = _resolve(modules, name)
            owner = getattr(module, path[0])
            orig = vars(owner)[path[1]]
            wrapper = self._counted(name, orig)
            wrapper.__bench_wrapped__ = orig
            self._patch(owner, path[1], orig, wrapper, setattr)

    def _patch(self, container, key, orig, wrapper, setter):
        setter(container, key, wrapper)
        self._restore.append((container, key, orig, setter))

    def restore(self):
        while self._restore:
            container, key, orig, setter = self._restore.pop()
            setter(container, key, orig)

    # -- derived metrics ---------------------------------------------------

    def self_seconds(self, to_clock):
        """Self seconds per span name: duration minus that of direct children.

        ``to_clock`` maps the recorded ``perf_counter`` values to the clock
        the durations are read on.
        """
        n = len(self.span_name)
        dur = [to_clock(self.span_end[i]) - to_clock(self.span_start[i]) for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        self_s = dict.fromkeys(self.names, 0.0)
        for i, name_id in enumerate(self.span_name):
            self_s[self.names[name_id]] += dur[i] - child[i]
        return self_s

    def counters(self):
        """Exact call counts and result counts; identical across passes of one input."""
        calls = Counter(self.names[k] for k in self.span_name)
        out = {f"{name}.calls": calls[name] for name in SPANNED}
        for name in COUNTED:
            out[f"{name}.calls"] = self.counts[name][0]
        e = self.extra
        out["order.enumerate_morphisms.results"] = e["order.enumerate_morphisms.results"]
        out["topology.enumerate_continuous.yield"] = _ratio(
            e["continuous.found"], e["continuous.candidates"]
        )
        out["corpus.dedup_yield"] = _ratio(
            e["posets.kept"], calls["order.canonical_key"]
        )
        out["ideals.ideal_masks.yield"] = _ratio(e["ideals.found"], e["ideals.subsets"])
        out["tensor.random_tensor_lattice.accept_ratio"] = _ratio(
            e["tensor.accepted"], calls["tensor.random_tensor_lattice"]
        )
        return out

    def write_spans(self, path, to_clock):
        """Write the spans as gzipped CSV: name, start_s, end_s, parent, item.

        Times are on ``to_clock``, relative to the first span's start.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,item\n")
            t0 = to_clock(self.span_start[0]) if self.span_start else 0.0
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.names[self.span_name[i]]},"
                    f"{to_clock(self.span_start[i]) - t0:.9f},"
                    f"{to_clock(self.span_end[i]) - t0:.9f},"
                    f"{self.span_parent[i]},{self.span_item[i]}\n"
                )


def leftover_wrappers(modules):
    """Bindings in the lattik modules that still hold a benchmark wrapper."""
    found = []
    for modname, mod in modules.items():
        for key, value in vars(mod).items():
            if hasattr(value, "__bench_wrapped__"):
                found.append(f"{modname}.{key}")
            elif type(value) is dict:
                found.extend(
                    f"{modname}.{key}[{dkey!r}]"
                    for dkey, dvalue in value.items()
                    if hasattr(dvalue, "__bench_wrapped__")
                )
            elif isinstance(value, type) and value.__module__ == modname:
                found.extend(
                    f"{modname}.{key}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, "__bench_wrapped__")
                )
    return found
