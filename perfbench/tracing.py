"""Spans around the calls into distmagic's layers, recorded from outside.

`Tracer.install` replaces every public function of each layer module by a
wrapper that records one span (name, start, end, parent span, op id) in
memory.  A name is replaced in every distmagic module that binds it, so
calls made through a name imported elsewhere (`cli` imports `product` and the
generators, `rearrange` and `constructors` import `verify_balanced`) are
traced too.  Methods are not wrapped: lazy adjacency (`Graph._adjacency`) is
charged to whichever layer first calls `neighbors()`.

Counts are taken from what the public calls return (`SearchStats`,
`CoupleOutcome.swaps`, `len(p.base.edges)`, text lengths).  No layer waits on
a queue or another thread, so busy time and counts are all there is.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter
from functools import wraps
from time import perf_counter

LAYERS = ("graphs", "products", "magic", "constructors", "rearrange", "search", "cli")
VERIFY = {"magic.verify_distance_magic", "magic.verify_balanced"}
IO = {
    "graphs": {"graphs.parse_edge_list", "graphs.format_edge_list"},
    "magic": {"magic.parse_labeling", "magic.format_labeling", "magic.report_kv",
              "magic.report_text", "magic.format_eit"},
}
COUPLE = "rearrange.couple_layers"
# today's SearchStats.prunes keys; any other key is summed into "other"
PRUNE_REASONS = ("odd_regular", "k_not_integral", "k_range_empty", "closed_neighborhood",
                 "forced_unavailable", "sum_too_high", "sum_too_low")

METRICS = (
    ("search.self_s", "s"), ("search.nodes_per_s", "1/s"), ("search.nodes", "count"),
    ("search.steps", "count"), ("search.prune_ratio", "ratio"),
    ("search.decided_ratio", "ratio"),
    *((f"search.prunes.{r}", "count") for r in (*PRUNE_REASONS, "other")),
    ("products.self_s", "s"), ("products.edges", "count"), ("products.edges_per_s", "1/s"),
    ("graphs.self_s", "s"), ("graphs.calls", "count"), ("graphs.edges_built", "count"),
    ("graphs.io_bytes", "count"), ("graphs.io_mb_per_s", "MB/s"),
    ("magic.self_s", "s"), ("magic.verify_calls", "count"),
    ("magic.verify_edges_per_s", "1/s"), ("magic.io_self_s", "s"),
    ("constructors.self_s", "s"), ("constructors.labels_per_s", "1/s"),
    ("rearrange.self_s", "s"), ("rearrange.swaps", "count"),
    ("rearrange.verify_calls_per_swap", "ratio"), ("rearrange.verify_share", "ratio"),
    ("cli.self_s", "s"), ("cli.commands", "count"), ("cli.nonzero_exits", "count"),
    ("trace.spans", "count"), ("trace.overhead_ratio", "ratio"),
)


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.verify_edges: dict[int, int] = {}  # span index -> edges of the graph verified
        self.op = None
        self.paused = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"distmagic.{layer}")
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
        for name, module in list(sys.modules.items()):
            if name == "distmagic" or name.startswith("distmagic."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._patched.append((module, attr, obj))
                        setattr(module, attr, wrapped[obj])

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, self._count

        @wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            count(name, index, args, result)
            return result

        return traced

    def _count(self, name, index, args, result):
        c = self.counts
        if name.startswith("graphs.") and hasattr(result, "edges"):
            c["graphs.edges_built"] += len(result.edges)
        if name == "graphs.parse_edge_list":
            c["graphs.io_bytes"] += len(args[0])
        elif name == "graphs.format_edge_list":
            c["graphs.io_bytes"] += len(result)
        elif name == "products.product":
            c["products.edges"] += len(result.base.edges)
        elif name in VERIFY:
            self.verify_edges[index] = len(args[0].edges)
        elif name.startswith("constructors.label_"):
            c["constructors.labels"] += (result.rows * result.cols if hasattr(result, "rows")
                                         else len(result.values))
        elif name == COUPLE:
            c["rearrange.swaps"] += result[1].swaps
        elif name == "search.find_distance_magic":
            c["search.searches"] += 1
            c["search.decided"] += result.tag != "budget_exceeded"
            c["search.nodes"] += result.stats.nodes
            c["search.steps"] += result.stats.steps
            for reason, hits in result.stats.prunes.items():
                c[f"search.prunes.{reason if reason in PRUNE_REASONS else 'other'}"] += hits
        elif name == "cli.main":
            c["cli.commands"] += 1
            c["cli.nonzero_exits"] += result != 0

    def _under(self, index, ancestor_name):
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor_name:
                return True
            parent = self.spans[parent][3]
        return False

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics; counts and times are per pass over the op list."""
        spans, c = self.spans, self.counts
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        own, calls, io_own = Counter(), Counter(), Counter()
        label_own = couple_s = 0.0
        verify = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            duration = end - start
            own[layer] += duration - child[i]
            calls[layer] += 1
            if name in IO.get(layer, ()):
                io_own[layer] += duration - child[i]
            if name.startswith("constructors.label_"):
                label_own += duration - child[i]
            if name == COUPLE:
                couple_s += duration
            if name in VERIFY and (parent < 0 or spans[parent][0] not in VERIFY):
                verify["calls"] += 1
                verify["s"] += duration
                verify["edges"] += self.verify_edges[i]
                if self._under(i, COUPLE):
                    verify["coupling_calls"] += 1
                    verify["coupling_s"] += duration
        prunes = sum(v for k, v in c.items() if k.startswith("search.prunes."))
        out = {
            "search.self_s": own["search"],
            "search.nodes_per_s": _ratio(c["search.nodes"], own["search"]),
            "search.nodes": c["search.nodes"],
            "search.steps": c["search.steps"],
            "search.prune_ratio": _ratio(prunes, c["search.steps"]),
            "search.decided_ratio": _ratio(c["search.decided"], c["search.searches"]),
            **{f"search.prunes.{r}": c[f"search.prunes.{r}"] for r in (*PRUNE_REASONS, "other")},
            "products.self_s": own["products"],
            "products.edges": c["products.edges"],
            "products.edges_per_s": _ratio(c["products.edges"], own["products"]),
            "graphs.self_s": own["graphs"],
            "graphs.calls": calls["graphs"],
            "graphs.edges_built": c["graphs.edges_built"],
            "graphs.io_bytes": c["graphs.io_bytes"],
            "graphs.io_mb_per_s": _ratio(c["graphs.io_bytes"] / 1e6, io_own["graphs"]),
            "magic.self_s": own["magic"],
            "magic.verify_calls": verify["calls"],
            "magic.verify_edges_per_s": _ratio(verify["edges"], verify["s"]),
            "magic.io_self_s": io_own["magic"],
            "constructors.self_s": own["constructors"],
            "constructors.labels_per_s": _ratio(c["constructors.labels"], label_own),
            "rearrange.self_s": own["rearrange"],
            "rearrange.swaps": c["rearrange.swaps"],
            "rearrange.verify_calls_per_swap": _ratio(verify["coupling_calls"],
                                                      c["rearrange.swaps"]),
            "rearrange.verify_share": _ratio(verify["coupling_s"], couple_s),
            "cli.self_s": own["cli"],
            "cli.commands": c["cli.commands"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
            "trace.spans": len(spans),
            "trace.overhead_ratio": overhead_ratio,
        }
        per_pass = {name for name, unit in METRICS if unit in ("s", "count")}
        return {k: (v / passes if k in per_pass else v) for k, v in out.items()}

    def dump(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
