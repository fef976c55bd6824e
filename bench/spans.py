"""Per-module spans recorded from outside the package.

``Tracer.install`` wraps every public function and public method of the
traced modules and rebinds each name that refers to one of them, so calls
between modules (``from .flower import canonical_locator``) go through the
wrappers too.  No library code changes.

A verify run makes millions of calls, so spans are merged by call path: all
calls of one function from one parent span within one op form one span
record, with the first start, the last end, the call count and the summed
busy time.  Self time is busy time minus the busy time of the child spans,
measured on the same clock, so the self times of every span of an op, its
root included, add up to the op's root span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("cli", "graphs", "oracle", "flower", "complete", "cycle", "exact")

ROOT = "bench.op"

# Span names whose outermost calls make up one per-layer metric.
GROUPS = {
    "graphs.laplacian": ("graphs.laplacian",),
    "flower.locator": ("flower.locator", "flower.canonical_locator", "flower.Flower.locator_of"),
    "flower.build_flower": ("flower.build_flower",),
    "flower.index_sum": ("flower.flower_kirchhoff_exact", "flower.flower_kemeny_exact"),
    "flower.max_search": ("flower.max_resistance_search",),
    "flower.base_table": ("flower.base_resistance_table",),
    "oracle.resistance_matrix": ("oracle.resistance_matrix",),
    "complete.pair": ("complete.cf_pair_resistance", "complete.cf_resistance"),
    "cycle.pair": ("cycle.gs_pair_resistance", "cycle.gs_resistance"),
    "flower.pair": (
        "flower.flower_resistance",
        "flower.flower_resistance_same",
        "flower.flower_resistance_cross",
    ),
}
# A closed-form pair evaluation is the outermost call into any of these.
CLOSED_PAIR = GROUPS["complete.pair"] + GROUPS["cycle.pair"] + GROUPS["flower.pair"]


class Tracer:
    """Wrappers, the span store and the per-layer metrics derived from it."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        # span record: [name id, parent span, op, first start, last end, calls, busy, self]
        self.spans: list[list] = []
        self._children: dict[tuple[int, int], int] = {}
        # Each frame is [span id, busy time of its children so far].
        self._stack: list[list] = [[0, 0.0]]
        self._restore: list[tuple[object, str, object]] = []
        self.matrix_sizes: list[int] = []
        self.cache_infos: dict[str, object] = {}
        # Span 0 catches calls made outside any op; its op id is -1.
        self._new_span(-1, self._name_id("bench.outside"), -1)
        self._root = self._name_id(ROOT)

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _new_span(self, parent: int, name_id: int, op: int) -> int:
        self.spans.append([name_id, parent, op, 0.0, 0.0, 0, 0.0, 0.0])
        return len(self.spans) - 1

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        stack, children, spans, clock = self._stack, self._children, self.spans, self.clock
        new_span = self._new_span
        sizes = self.matrix_sizes if name == "oracle.resistance_matrix" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            key = (parent[0], name_id)
            span = children.get(key)
            if span is None:
                span = children[key] = new_span(parent[0], name_id, spans[parent[0]][2])
            if sizes is not None:
                sizes.append(args[0].vertex_count)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                parent[1] += busy
                record = spans[span]
                if not record[5]:
                    record[3] = start
                record[4] = end
                record[5] += 1
                record[6] += busy
                record[7] += busy - frame[1]

        return traced

    def install(self, package) -> None:
        """Wrap the public callables of the traced modules of ``package``."""
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}"))
                    if hasattr(obj, "cache_info"):
                        self.cache_infos[f"{short}.{name}"] = obj.cache_info
                elif inspect.isclass(obj):
                    for attr, value in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(value):
                            self._restore.append((obj, attr, value))
                            setattr(obj, attr, self._wrap(value, f"{short}.{name}.{attr}"))
        prefix = package.__name__ + "."
        for module_name, module in list(sys.modules.items()):
            inside = module_name == package.__name__ or module_name.startswith(prefix)
            if module is None or not inside:
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, entry[1])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def begin_op(self, op: int, start: float) -> None:
        span = self._new_span(-1, self._root, op)
        self.spans[span][3] = start
        self._stack.append([span, 0.0])

    def end_op(self, end: float) -> None:
        span, children_busy = self._stack.pop()
        record = self.spans[span]
        record[4] = end
        record[5] = 1
        record[6] = end - record[3]
        record[7] = record[6] - children_busy

    # --- derived metrics -------------------------------------------------

    def _outermost(self, names, ops=None, within=()) -> tuple[int, float]:
        """Calls and busy time of spans in ``names`` with no ancestor in ``names`` or ``within``."""
        ids = {i for i, name in enumerate(self.names) if name in names}
        blocking = ids | {i for i, name in enumerate(self.names) if name in within}
        inside = [False] * len(self.spans)
        calls, busy = 0, 0.0
        for index, (name_id, parent, op, _, _, count, span_busy, _) in enumerate(self.spans):
            if parent >= 0:
                inside[index] = inside[parent] or self.spans[parent][0] in blocking
            if name_id in ids and not inside[index] and (ops is None or op in ops):
                calls += count
                busy += span_busy
        return calls, busy

    def _calls(self, name: str) -> int:
        return sum(s[5] for s in self.spans if self.names[s[0]] == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: the module of each span, ``bench`` for roots."""
        layers: dict[str, float] = {}
        for name_id, _, op, *_, self_time in self.spans:
            if op >= 0:
                layer = self.names[name_id].split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + self_time
        return layers

    def layer_metrics(self, wall_s: float, verify_ops: set[int], verify_pairs: int) -> dict:
        """Every per-layer metric, as ``{name: (value, unit)}``."""
        layers = self.self_times()
        group = {key: self._outermost(names) for key, names in GROUPS.items()}
        # Pairs the index sums evaluate are not pairs checked against the oracle.
        closed_calls, _ = self._outermost(
            CLOSED_PAIR, verify_ops, GROUPS["flower.index_sum"] + GROUPS["flower.max_search"])
        info = self.cache_infos["flower.base_resistance_table"]()
        lookups = info.hits + info.misses
        sizes = self.matrix_sizes
        metrics = {
            "cli.self_s": (layers.get("cli", 0.0), "s"),
            "cli.closed_evals_per_pair": (
                closed_calls / verify_pairs if verify_pairs else 0.0, "ratio"),
            "graphs.self_s": (layers.get("graphs", 0.0), "s"),
            "graphs.graph_builds": (self._calls("graphs.graph_from_edge_list"), "count"),
            "graphs.laplacian_s": (group["graphs.laplacian"][1], "s"),
            "complete.pair_evals": (group["complete.pair"][0], "count"),
            "complete.self_s": (layers.get("complete", 0.0), "s"),
            "cycle.pair_evals": (group["cycle.pair"][0], "count"),
            "cycle.self_s": (layers.get("cycle", 0.0), "s"),
            "flower.locator_s": (group["flower.locator"][1], "s"),
            "oracle.resistance_matrix_s": (group["oracle.resistance_matrix"][1], "s"),
            "oracle.resistance_matrix_calls": (len(sizes), "count"),
            # Computed, not measured: the Cholesky factorisation plus the
            # identity right-hand-side solve of the grounded (N-1)x(N-1) system.
            "oracle.solve_flops": (sum((k - 1) ** 3 / 3 + 2 * (k - 1) ** 3 for k in sizes), "flop"),
            # Computed, not measured: per call, the seed allocates seven NxN
            # 8-byte arrays (the integer Laplacian and six in resistance_matrix)
            # and six (N-1)x(N-1) float64 arrays in the grounded solve.
            "oracle.dense_bytes": (sum(8 * (7 * k * k + 6 * (k - 1) ** 2) for k in sizes), "B"),
            "oracle.values_close_calls": (self._calls("oracle.values_close"), "count"),
            "oracle.self_s": (layers.get("oracle", 0.0), "s"),
            "flower.build_flower_s": (group["flower.build_flower"][1], "s"),
            "flower.index_sum_s": (group["flower.index_sum"][1], "s"),
            "flower.max_search_s": (group["flower.max_search"][1], "s"),
            "flower.pair_evals": (group["flower.pair"][0], "count"),
            "flower.self_s": (layers.get("flower", 0.0), "s"),
            "flower.base_table_s": (group["flower.base_table"][1], "s"),
            "flower.base_table_hit_ratio": (info.hits / lookups if lookups else 0.0, "ratio"),
            "exact.rationalize_calls": (self._calls("exact.rationalize"), "count"),
            "exact.self_s": (layers.get("exact", 0.0), "s"),
            "bench.self_s": (layers.get("bench", 0.0), "s"),
            "trace.wall_s": (wall_s, "s"),
        }
        return metrics

    def write(self, path, origin: float, extra: dict) -> None:
        """Write every span, with times relative to ``origin``, as JSON."""
        spans = [
            {
                "id": index,
                "name": self.names[name_id],
                "parent": parent,
                "op": op,
                "start": first - origin,
                "end": last - origin,
                "calls": calls,
                "busy_s": busy,
                "self_s": self_time,
            }
            for index, (name_id, parent, op, first, last, calls, busy, self_time)
            in enumerate(self.spans)
            if calls
        ]
        with open(path, "w") as handle:
            json.dump({**extra, "spans": spans}, handle)
