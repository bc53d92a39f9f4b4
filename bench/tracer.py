"""Per-layer timing and counts for a traced run, from the benchmark's side.

The tracer replaces module attributes of the package with wrappers that
time each call and count what it did.  Call sites inside the package look
their callees up as module globals at call time, so wrapping the binding
in the calling module is enough.  Each wrapper keeps a stack of open
spans; a span's self time is its duration minus the spans it encloses,
so the per-layer ``.s`` figures add up without double counting.

A hook whose attribute no longer exists is reported as absent and its
metrics read 0; the run goes on.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, layer, observer); one layer may take several hooks
HOOKS = [
    ("hurwitz.catalog", "run_catalog", "catalog", None),
    ("hurwitz.catalog", "enumerate_compatible", "catalog.enumerate", "iter"),
    ("hurwitz.catalog", "check_compatibility", "core.compat", None),
    ("hurwitz.catalog", "format_datum", "core.codec", None),
    ("hurwitz.catalog", "parse_datum", "core.codec", None),
    ("hurwitz.catalog", "format_cycles", "core.codec", None),
    ("hurwitz.catalog", "classify", "criteria", None),
    ("hurwitz.criteria", "classify", "criteria", None),
    ("hurwitz.criteria", "check_compatibility", "core.compat", None),
    ("hurwitz.criteria", "run_predicates", "criteria.rules", "rules"),
    ("hurwitz.criteria", "search", "realizer.search", "search"),
    ("hurwitz.realizer", "check_compatibility", "core.compat", None),
    ("hurwitz.realizer", "_random_hunt", "realizer.hunt", "hunt"),
    ("hurwitz.realizer", "_build_class_list", "realizer.class_list", "class_list"),
    ("hurwitz.realizer", "_orbit_firsts_vectorized", "realizer.orbit", "orbit"),
    ("hurwitz.realizer", "_orbit_firsts_hashed", "realizer.orbit", "orbit"),
    ("hurwitz.realizer", "_scan_numpy", "realizer.scan_numpy", "scan"),
    ("hurwitz.realizer", "_scan_python", "realizer.scan_python", "scan"),
    ("hurwitz.realizer", "class_iterator", "perms.stream", "iter"),
    ("hurwitz.dessin", "dessin_from_permutations", "dessin.build", "darts"),
    ("hurwitz.dessin", "permutations_from_dessin", "dessin.inverse", None),
    ("hurwitz.dessin", "canonical_form", "dessin.canonical", None),
    ("hurwitz.dessin", "validate_against_datum", "dessin.validate", None),
    ("hurwitz.dessin", "checkerboard_coloring", "dessin.coloring", None),
    ("hurwitz.blocks", "find_block_decomposition", "blocks.systems", "found"),
    ("hurwitz.blocks", "factor_covering", "blocks.factor", None),
]


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname, attr, layer, observer in HOOKS:
            module = importlib.import_module(modname)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            if observer == "iter":
                wrapper = self._iter_wrapper(layer, fn)
            else:
                wrapper = self._wrapper(layer, fn, observer)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def outside(self, fn):
        """fn wrapped so that its time counts in no layer, nor in the self
        time of the span that encloses the call."""
        return self._wrapper("untraced", fn, None)

    def _close(self, layer: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        stack = self._stack
        self.self_s[layer] += dt - stack.pop()
        if stack:
            stack[-1] += dt

    def _wrapper(self, layer, fn, observer):
        stack, counts, calls = self._stack, self.counts, self.calls
        clock = time.perf_counter
        close = self._close

        def wrapper(*args, **kwargs):
            before = _budget_nodes(args) if observer in ("hunt", "scan") else 0
            result = None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(layer, t0)
                calls[layer] += 1
                if observer is not None:
                    _observe(counts, observer, args, result, before)

        return wrapper

    def _iter_wrapper(self, layer, fn):
        stack, counts, calls = self._stack, self.counts, self.calls
        clock = time.perf_counter
        close = self._close

        def timed(it):
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(layer, t0)
                counts[layer + ".items"] += 1
                yield item

        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return timed(iter(fn(*args, **kwargs)))

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric by name (see BENCHMARK.json)."""
        s, c, k = self.self_s, self.calls, self.counts

        def frac(num, den):
            return num / den if den else 0.0

        scan_np, scan_py = s["realizer.scan_numpy"], s["realizer.scan_python"]
        return {
            "realizer.orbit.s": s["realizer.orbit"],
            "realizer.orbit.built": c["realizer.orbit"],
            "realizer.orbit.reps_frac": frac(k["orbit.reps"], k["orbit.class"]),
            "realizer.class_list.s": s["realizer.class_list"],
            "realizer.class_list.built": c["realizer.class_list"],
            "realizer.class_list.perms": k["class_list.perms"],
            "realizer.hunt.s": s["realizer.hunt"],
            "realizer.hunt.calls": c["realizer.hunt"],
            "realizer.hunt.attempts": k["hunt.attempts"],
            "realizer.hunt.hit_frac": frac(k["hunt.hits"], c["realizer.hunt"]),
            "realizer.scan.s": scan_np + scan_py,
            "realizer.scan.numpy_s": scan_np,
            "realizer.scan.python_s": scan_py,
            "realizer.scan.candidates": k["scan.candidates"],
            "perms.stream.s": s["perms.stream"],
            "perms.stream.perms": k["perms.stream.items"],
            "realizer.walk.self_s": s["realizer.search"],
            "realizer.nodes": k["search.nodes"],
            "realizer.search.calls": c["realizer.search"],
            "criteria.rules.s": s["criteria.rules"],
            "criteria.rules.decided_frac": frac(k["rules.decided"], c["criteria.rules"]),
            "criteria.self_s": s["criteria"],
            "core.compat.s": s["core.compat"],
            "core.codec.s": s["core.codec"],
            "catalog.enumerate.s": s["catalog.enumerate"],
            "catalog.self_s": s["catalog"],
            "dessin.build.s": s["dessin.build"],
            "dessin.inverse.s": s["dessin.inverse"],
            "dessin.canonical.s": s["dessin.canonical"],
            "dessin.validate.s": s["dessin.validate"],
            "dessin.coloring.s": s["dessin.coloring"],
            "dessin.darts": k["dessin.darts"],
            "blocks.systems.s": s["blocks.systems"],
            "blocks.found_frac": frac(k["blocks.found"], c["blocks.systems"]),
            "blocks.factor.s": s["blocks.factor"],
            "trace.absent": len(self.absent),
        }


def _observe(counts, observer, args, result, before) -> None:
    if observer == "search":
        if result is not None:
            counts["search.nodes"] += result.nodes
    elif observer == "rules":
        counts["rules.decided"] += bool(result)
    elif observer == "hunt":
        # _random_hunt(d, tau1, middle, target, budget, attempts): one
        # attempt spends len(middle) nodes
        counts["hunt.attempts"] += (_budget_nodes(args) - before) // max(1, len(args[2]))
        counts["hunt.hits"] += result is not None
    elif observer == "scan":
        # _scan_*(stream, pi, target, parent, budget, gens, d)
        counts["scan.candidates"] += _budget_nodes(args) - before
    elif observer == "class_list":
        counts["class_list.perms"] += len(result or ())
    elif observer == "orbit":
        counts["orbit.class"] += len(args[0])
        counts["orbit.reps"] += len(result or ())
    elif observer == "darts":
        if result is not None:
            counts["dessin.darts"] += 2 * result.edge_count
    elif observer == "found":
        counts["blocks.found"] += result is not None


def _budget_nodes(args) -> int:
    # the budget object is the fifth positional argument of the hunt and
    # the scans; a changed signature yields 0 rather than an error
    return getattr(args[4], "nodes", 0) if len(args) > 4 else 0
