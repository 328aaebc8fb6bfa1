"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps the public functions and methods of each hankelmod2
module (plus the arithmetic operators of its classes, which is where the
exact-ring work happens) and rebinds every module namespace that imported
them by name, for example ``hankel``'s own ``sign_s``.  Each wrapper records
a span (name, start, end, parent) in memory.  After each operation the
benchmark folds that operation's spans into per-layer totals, outside the
timed interval; the spans of the first operations are kept and written out
as JSON lines at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__pow__", "__neg__",
)
KEEP_SPANS = 20000


class Tracer:
    def __init__(self):
        self.names: list[str] = []  # span name id -> "layer.qualname"
        self.layer_of: list[str] = []
        self.spans: list[list] = []  # [name id, start, end, parent index, matrix order]
        self._stack: list[int] = []
        self.enabled = False
        self.ops_folded = 0
        self.kept: list[tuple[int, list]] = []
        self.totals: dict[str, float] = {}

    # -- installation -----------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(f"{layer}.{qualname}")
        self.layer_of.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        is_det = qualname == "det_oracle"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            order = args[0].n if is_det else 0
            span = [name_id, clock(), 0, stack[-1] if stack else -1, order]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return wrapper

    def install(self, modules: dict, extra_namespaces=()) -> None:
        """Wrap ``modules`` ({layer: module}); rebind names in them and in
        ``extra_namespaces`` (such as the package's own re-exports)."""
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(layer, attr, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for ns in list(modules.values()) + list(extra_namespaces):
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, attr, replaced[id(obj)])
        self._ids = {name: i for i, name in enumerate(self.names)}

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self._wrap(layer, name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(layer, name, raw))

    # -- folding ----------------------------------------------------------

    def fold(self) -> None:
        """Add the spans recorded since the last fold to the layer totals.

        Times are summed in raw milliseconds (the caller applies the run's
        calibration factor).  Self time is a span's duration minus the time
        its child spans cover.
        """
        scale = 1e-6
        spans, layer_of = self.spans, self.layer_of
        det_id = self._ids.get("hankel.det_oracle")
        rows_id = self._ids.get("hankel.HankelMatrix.rows")
        build_id = self._ids.get("hankel.build_matrix")
        child = [0] * len(spans)
        rows_child = [0] * len(spans)
        under_cf = [False] * len(spans)
        for i, (nid, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                if nid == rows_id:
                    rows_child[parent] += end - start
                under_cf[i] = under_cf[parent] or layer_of[spans[parent][0]] == "closedform"
        t = self.totals

        def add(key, value):
            t[key] = t.get(key, 0) + value

        for i, (nid, start, end, parent, order) in enumerate(spans):
            layer = layer_of[nid]
            dur = end - start
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_ms", (dur - child[i]) * scale)
            if nid == det_id:
                add("hankel.det_calls", 1)
                add("hankel.det_order_sum", order)
                add("hankel.elim_ms", (dur - rows_child[i]) * scale)
                if under_cf[i]:
                    add("closedform.oracle_calls", 1)
            elif nid == build_id:
                add("hankel.build_ms", dur * scale)
            elif nid == rows_id:
                add("hankel.rows_ms", dur * scale)
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend((self.ops_folded, s) for s in spans[:room])
        self.ops_folded += 1
        spans.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for op, (nid, start, end, parent, _) in self.kept:
                fh.write(json.dumps({"op": op, "name": self.names[nid], "start_ns": start,
                                     "end_ns": end, "parent": parent}) + "\n")
