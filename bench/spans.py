"""Span recorders for the traced run.

`Tracer.install` replaces the public functions and methods of each layer
module, at their module or class attribute (and at every other sosforms
module attribute bound to the same function), with recorders.  The program's files are not
touched.  Span statistics stay in memory: the engines workload makes more
than 10^5 spans per pass, so spans are aggregated per (caller, callee) edge as
calls, total time and self time, and written out once at the end.

Two kinds of recorder:

- a span times its call.  Its self time is its duration minus the time its
  child spans cover.  A span also belongs to at most one *group* (one
  per-layer metric); a group's inclusive time counts only its outermost
  spans, so recursion and nesting are not counted twice.
- a counter only counts calls.  Ring element operations, ``M2Poly.__mul__``
  and ``hopf_admissible`` are counted, not timed, because their calls are too
  fine to time without distorting the run; their time lands in the self time
  of the span that called them.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

LAYERS = ("rings", "poly", "formulas", "hopf", "motivic", "chow", "search", "cli")

# Called per element operation or per inner-loop step: counted, not timed.
COUNTED = {
    "rings": {"add", "mul", "neg", "sub", "coerce"},
    "motivic": {"M2Poly.__mul__"},
    "hopf": {"hopf_admissible"},
}
# Trivial accessors called inside inner loops: neither counted nor timed.
SKIPPED = {"SosFormula.x_var", "SosFormula.y_var"}
# Dunder methods that are operations of the layer's algebra.
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__"}
# Classes whose methods are spans (M2Poly and the rings are counted only).
SPAN_CLASSES = {"SparsePoly", "SosFormula", "HurwitzSystem", "DQClass", "TensorClass", "ChowClass"}
# Span name -> group (a per-layer metric measured as inclusive time and calls).
GROUPS = {
    "formulas.SosFormula.verify_by_hurwitz": "formulas.hurwitz",
    "formulas.HurwitzSystem.verify": "formulas.hurwitz",
    "formulas.SosFormula.verify_by_expansion": "formulas.expansion",
    "formulas.SosFormula.expansion_defect": "formulas.expansion",
    "formulas.construct_trivial": "formulas.build",
    "formulas.construct_classical": "formulas.build",
    "formulas.construct_hurwitz_radon": "formulas.build",
    "formulas.SosFormula.__init__": "formulas.build",
    "formulas.SosFormula.restrict": "formulas.build",
    "formulas.SosFormula.change_ring": "formulas.build",
    "formulas.SosFormula.from_json": "formulas.build",
    "formulas.SosFormula.from_json_dict": "formulas.build",
    "formulas.SosFormula.from_hurwitz": "formulas.build",
    "hopf.hopf_lower_bound": "hopf.lower_bound",
    "hopf.bound_table": "hopf.bound_table",
    "motivic.TensorClass.__mul__": "motivic.tensor_mul",
    "motivic.DQClass.__mul__": "motivic.dq_mul",
    "chow.ChowClass.__mul__": "chow.mul",
    "search.search": "search.search",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list = []  # one [name, child time] frame per open span
        self.edges: dict = {}  # (caller, callee) -> [calls, total s, self s]
        self.groups: dict = {}  # group -> [outermost calls, inclusive s]
        self.depth: Counter = Counter()  # open spans per group
        self.counts: Counter = Counter()
        self.search_nodes = 0
        self.search_solutions = 0

    # -- recorders ----------------------------------------------------------------------

    def span(self, name: str, fn):
        group = GROUPS.get(name)
        stack, edges, groups, depth = self.stack, self.edges, self.groups, self.depth
        clock = self.clock
        tracer = self

        def recorder(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            if group:
                depth[group] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                caller = stack[-1][0] if stack else "bench"
                edge = edges.get((caller, name))
                if edge is None:
                    edge = edges[(caller, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += took
                edge[2] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if group:
                    depth[group] -= 1
                    if not depth[group]:
                        g = groups.setdefault(group, [0, 0.0])
                        g[0] += 1
                        g[1] += took
            if name == "search.search":
                tracer.search_nodes += out.nodes
                tracer.search_solutions += len(out.formulas)
            return out

        recorder.__wrapped__ = fn
        return recorder

    def counter(self, name: str, fn):
        counts = self.counts

        def recorder(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        recorder.__wrapped__ = fn
        return recorder

    # -- installation -------------------------------------------------------------------

    def install(self, rings: bool) -> None:
        """Wrap the layer modules: with ``rings`` only the ring element
        operations, with counters; otherwise every other public function and
        method.  Counting ring operations alone costs several times the run
        (10^7 calls on verify-sparse), so they get a pass of their own and
        do not distort the spans."""
        layers = ("rings",) if rings else LAYERS[1:]
        replaced: dict = {}  # id(original) -> recorder
        for layer in layers:
            module = sys.modules[f"sosforms.{layer}"]
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    if layer in ("cli", "rings") and attr != "main":
                        continue
                    replaced[id(value)] = self._recorder(layer, attr, value)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    self._install_class(layer, value, replaced)
        for module in [m for n, m in sys.modules.items() if n == "sosforms" or n.startswith("sosforms.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    setattr(module, attr, replaced[id(value)])

    def _install_class(self, layer: str, cls, replaced: dict) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            qual = f"{cls.__name__}.{attr}"
            if layer == "rings":
                if attr not in COUNTED["rings"] or not inspect.isfunction(value):
                    continue
                wrapped = replaced.get(id(value)) or self.counter("rings.ops", value)
            elif cls.__name__ not in SPAN_CLASSES and qual not in COUNTED.get(layer, ()):
                continue
            elif qual in SKIPPED:
                continue
            elif isinstance(value, classmethod):
                wrapped = classmethod(self._recorder(layer, qual, value.__func__))
            elif inspect.isfunction(value):
                wrapped = replaced.get(id(value)) or self._recorder(layer, qual, value)
            else:
                continue
            replaced[id(value)] = wrapped
            setattr(cls, attr, wrapped)

    def _recorder(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if attr in COUNTED.get(layer, ()):
            return self.counter(name, fn)
        return self.span(name, fn)

    # -- results ------------------------------------------------------------------------------

    def layer_self(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for (_, callee), (_, _, self_s) in self.edges.items():
            out[callee.split(".", 1)[0]] += self_s
        return out

    def top_level_s(self) -> float:
        return sum(total for (caller, _), (_, total, _) in self.edges.items() if caller == "bench")

    def calls(self, name: str) -> int:
        return sum(c for (_, callee), (c, _, _) in self.edges.items() if callee == name)

    def group(self, group: str) -> tuple:
        """(outermost calls, inclusive seconds) of a group."""
        return tuple(self.groups.get(group, (0, 0.0)))

    def dump(self) -> dict:
        return {
            "edges": [
                {"caller": a, "callee": b, "calls": c, "total_s": t, "self_s": s}
                for (a, b), (c, t, s) in sorted(self.edges.items(), key=lambda kv: -kv[1][2])
            ],
            "groups": {g: {"calls": c, "inclusive_s": t} for g, (c, t) in sorted(self.groups.items())},
            "counts": dict(self.counts),
            "search": {"nodes": self.search_nodes, "solutions": self.search_solutions},
        }

    def metrics(self, pass_s: float, top_level_before_pass: float) -> dict:
        """The per-layer metrics: spans of set-up and pass together, except
        ``bench.self_s``, the pass time spent outside the program."""
        selfs = self.layer_self()
        search_self = selfs["search"]
        nodes = self.search_nodes
        program_s = self.top_level_s() - top_level_before_pass
        return {
            "poly.self_s": (selfs["poly"], "s"),
            "poly.mul_calls": (self.calls("poly.SparsePoly.__mul__"), "count"),
            "poly.add_calls": (self.calls("poly.SparsePoly.__add__"), "count"),
            "formulas.self_s": (selfs["formulas"], "s"),
            "formulas.hurwitz_s": (self.group("formulas.hurwitz")[1], "s"),
            "formulas.hurwitz_calls": (self.group("formulas.hurwitz")[0], "count"),
            "formulas.expansion_s": (self.group("formulas.expansion")[1], "s"),
            "formulas.expansion_calls": (self.group("formulas.expansion")[0], "count"),
            "formulas.build_s": (self.group("formulas.build")[1], "s"),
            "hopf.self_s": (selfs["hopf"], "s"),
            "hopf.lower_bound_s": (self.group("hopf.lower_bound")[1], "s"),
            "hopf.lower_bound_calls": (self.group("hopf.lower_bound")[0], "count"),
            "hopf.admissible_calls": (self.counts["hopf.hopf_admissible"], "count"),
            "hopf.bound_table_s": (self.group("hopf.bound_table")[1], "s"),
            "motivic.self_s": (selfs["motivic"], "s"),
            "motivic.tensor_mul_s": (self.group("motivic.tensor_mul")[1], "s"),
            "motivic.tensor_mul_calls": (self.group("motivic.tensor_mul")[0], "count"),
            "motivic.dq_mul_s": (self.group("motivic.dq_mul")[1], "s"),
            "motivic.dq_mul_calls": (self.group("motivic.dq_mul")[0], "count"),
            "motivic.m2_mul_calls": (self.counts["motivic.M2Poly.__mul__"], "count"),
            "chow.self_s": (selfs["chow"], "s"),
            "chow.mul_calls": (self.calls("chow.ChowClass.__mul__"), "count"),
            "search.self_s": (search_self, "s"),
            "search.calls": (self.group("search.search")[0], "count"),
            "search.nodes": (nodes, "count"),
            "search.nodes_per_s": (nodes / search_self if search_self else 0.0, "1/s"),
            "search.solutions": (self.search_solutions, "count"),
            "search.solutions_per_knode": (1000 * self.search_solutions / nodes if nodes else 0.0, "ratio"),
            "cli.self_s": (selfs["cli"], "s"),
            "bench.self_s": (max(pass_s - program_s, 0.0), "s"),
        }
