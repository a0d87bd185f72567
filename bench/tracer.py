"""In-memory span tracer for the traced benchmark round.

The tracer wraps public functions of germclosure from the outside: it
rebinds each name in every loaded germclosure module, so calls between
modules pass through the wrapper while the source stays untouched. Each
call records a span (name, start, end, parent) kept in memory until the
round ends; ``summary`` then folds the spans into per-function call
counts, inclusive seconds, self seconds and per-module shares of the
round's wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; "Class.method" names a
# classmethod. Span names are "<module>.<function>".
TRACED = [
    ("enumeration", "corpus"),
    ("enumeration", "canonical_key"),
    ("poset", "isomorphisms"),
    ("poset", "automorphism_count"),
    ("poset", "Poset.from_relations"),
    ("closure", "aut_transport"),
    ("closure", "germ_closure"),
    ("closure", "lambda_sets"),
    ("closure", "reconstruct_from_lattice"),
    ("closure", "canonical_embed"),
    ("lattice", "Lattice.from_poset"),
    ("embed", "is_germ_extensible"),
    ("embed", "unique_base"),
    ("embed", "verify_partition"),
    ("embed", "g_t"),
    ("germs", "grm"),
    ("documents", "load_document"),
    ("documents", "parse_poset"),
    ("cli", "main"),
]

MODULES = [
    "enumeration", "poset", "germs", "closure", "lattice",
    "embed", "documents", "harness", "cli",
]


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rpartition('.')[2]}"


class Tracer:
    def __init__(self):
        # spans[i] = (name, start, end, parent index or -1,
        #             outermost of its name, outermost of its module)
        self.spans: list = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._module_depth: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.grm_cache = None
        self.predicate_names: tuple[str, ...] = ()
        # names of the functions and counters install() could attach to
        self.installed: set[str] = set()

    def wrap(self, name: str, fn, on_result=None):
        module = name.partition(".")[0]
        spans, stack = self.spans, self._stack
        depth, module_depth = self._depth, self._module_depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            d, md = depth[name], module_depth[module]
            depth[name], module_depth[module] = d + 1, md + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name], module_depth[module] = d, md
                stack.pop()
                spans[idx] = (name, start, end, parent, d == 0, md == 0)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics: <fn>.calls/.s/.self_s for every traced
        function, harness.<predicate>.s/.instances, the exact counters and
        <module>.share, the module's outermost span time over wall_s."""
        n = len(self.spans)
        child = [0.0] * n
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        share: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, outer, module_outer) in enumerate(self.spans):
            dur = end - start
            calls[name] += 1
            own[name] += dur - child[i]
            if outer:
                total[name] += dur
            if module_outer:
                share[name.partition(".")[0]] += dur
        out: dict[str, float] = {}
        for module, attr in TRACED:
            name = span_name(module, attr)
            if name in self.installed:
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.s"] = total[name]
                out[f"{name}.self_s"] = own[name]
        for name in sorted(self.predicate_names):
            out[f"harness.{name}.s"] = total[f"harness.{name}"]
            out[f"harness.{name}.instances"] = self.counts[f"harness.{name}.instances"]
        for key in ("enumeration.labelled_posets", "closure.elements", "lattice.cells"):
            if key in self.installed:
                out[key] = self.counts[key]
        info = getattr(self.grm_cache, "cache_info", None)
        if info is not None:
            ci = info()
            out["germs.grm.hits"] = ci.hits
            out["germs.grm.misses"] = ci.misses
            looked = ci.hits + ci.misses
            out["germs.grm.hit_ratio"] = ci.hits / looked if looked else 0.0
        for module in MODULES:
            out[f"{module}.share"] = share[module] / wall_s if wall_s > 0 else 0.0
        out["trace.spans"] = n
        return out


def _rebind(old, new) -> None:
    """Point every germclosure module attribute bound to old at new."""
    for modname, mod in list(sys.modules.items()):
        if modname != "germclosure" and not modname.startswith("germclosure."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _lookup(module: str, attr: str):
    """(owner, name, function) for a TRACED entry, or None when the package
    no longer has it; its metrics are then reported as absent."""
    try:
        owner = importlib.import_module(f"germclosure.{module}")
    except ImportError:
        return None
    cls_name, _, fn_name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name, None)
        raw = vars(owner).get(fn_name) if isinstance(owner, type) else None
        return (owner, fn_name, raw.__func__) if isinstance(raw, classmethod) else None
    fn = getattr(owner, fn_name, None)
    return (owner, fn_name, fn) if callable(fn) else None


# counters derived from a traced function's result: (counter, power of .n)
_RESULT_COUNTERS = {
    "closure.germ_closure": ("closure.elements", 1),
    "lattice.from_poset": ("lattice.cells", 2),
}


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function, count labelled posets, and time each
    harness predicate as one span over all of its instances."""
    for module, attr in TRACED:
        name = span_name(module, attr)
        found = _lookup(module, attr)
        if found is None:
            continue
        owner, fn_name, fn = found
        on_result = None
        if name in _RESULT_COUNTERS:
            key, power = _RESULT_COUNTERS[name]
            on_result = functools.partial(_add_size, tracer.counts, key, power)
            tracer.installed.add(key)
        tracer.installed.add(name)
        if isinstance(owner, type):
            setattr(owner, fn_name, classmethod(tracer.wrap(name, fn, on_result)))
            continue
        if name == "germs.grm":
            tracer.grm_cache = fn
        _rebind(fn, tracer.wrap(name, fn, on_result))

    labelled = _lookup("enumeration", "labelled_posets_by_extension")
    if labelled is not None:
        generate = labelled[2]
        counts = tracer.counts

        def counted(n):
            for up in generate(n):
                counts["enumeration.labelled_posets"] += 1
                yield up

        _rebind(generate, counted)
        tracer.installed.add("enumeration.labelled_posets")

    harness = importlib.import_module("germclosure.harness")
    tracer.predicate_names = tuple(harness.PREDICATES)
    for name, pred in list(harness.PREDICATES.items()):
        harness.PREDICATES[name] = dataclasses.replace(
            pred, fn=_materialized(tracer, name, pred.fn)
        )


def _add_size(counts, key: str, power: int, result) -> None:
    counts[key] += result.n ** power


def _materialized(tracer: Tracer, name: str, fn):
    """A predicate run to completion inside one span, then replayed, so
    the span covers exactly the predicate's own work."""
    run = tracer.wrap(f"harness.{name}", lambda ctx: list(fn(ctx)))

    def replay(ctx):
        results = run(ctx)
        tracer.counts[f"harness.{name}.instances"] += len(results)
        yield from results

    return replay
