"""Per-layer attribution from outside the program.

Spans: every public function of the five layer modules is wrapped where it
is bound, in every ``chainstab`` module that imported it, so calls between
modules go through the wrapper.  A wrapper records its call's duration and
charges it to its parent span, so each layer's *self* time is its spans'
time less that of the spans they caused.  Spans are aggregated as they end;
the first ``SPAN_LOG_LIMIT`` are also kept with their op, id and parent.

Counts: ``cProfile`` gives exact call counts of chosen functions, private
ones and ``Fraction.__new__`` included.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import os
import time

LAYERS = ("cli", "curve_model", "feasibility", "stability", "oracle")

# Called once per element from inside their own layer (per printed rational,
# per destabilizer check): a wrapper there would add overhead but move no
# time between layers.
NOT_WRAPPED = {("cli", "frac_str"), ("oracle", "destabilizer_witness")}

RULES = ("strongly_unstable_endpoint", "strongly_unstable_middle",
         "strongly_unstable_all_twists", "strongly_unstable_two_component",
         "strongly_unstable_genus_bound", "certify_w_semistable")

# (file suffix, function name) -> count name; counted by cProfile
PROFILED = {
    (os.path.join("chainstab", "feasibility.py"), "_sweep"): "sweep",
    ("fractions.py", "__new__"): "fraction_new",
    (os.path.join("chainstab", "curve_model.py"), "validate_pair"): "validate_pair",
    (os.path.join("chainstab", "curve_model.py"), "kernel_numerics"): "kernel_numerics",
    (os.path.join("chainstab", "feasibility.py"),
     "prove_infeasible_with_certificate"): "certificate",
}

SPAN_LOG_LIMIT = 20000


class Tracer:
    """Wraps the layer functions while installed and aggregates their spans."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"chainstab.{name}") for name in LAYERS}
        # "layer.function" -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.op_id = 0
        self._stack: list[list] = [[0.0, 0]]
        self._next_span = 0
        self._patched: list[tuple] = []

    def _wrap(self, key: str, fn):
        totals = self.totals.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_span += 1
            frame = [0.0, self._next_span]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - start
                parent[0] += took
                totals[0] += 1
                totals[1] += took
                totals[2] += took - frame[0]
                if len(spans) < SPAN_LOG_LIMIT:
                    spans.append((self.op_id, frame[1], parent[1], key, start, end))
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = {}
        for layer, module in self.modules.items():
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and (layer, name) not in NOT_WRAPPED):
                    originals[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in self.modules.values():
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    self._patched.append((module, name, value))
                    setattr(module, name, originals[value])

    def uninstall(self) -> None:
        for module, name, fn in self._patched:
            setattr(module, name, fn)
        self._patched.clear()

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._stack[:] = [[0.0, 0]]

    def layer_self_seconds(self) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for key, (_, _, own) in self.totals.items():
            out[key.split(".", 1)[0]] += own
        return out

    def calls(self, key: str) -> int:
        return self.totals.get(key, [0])[0]

    def inclusive(self, key: str) -> float:
        return self.totals.get(key, [0, 0.0])[1]

    def own(self, key: str) -> float:
        return self.totals.get(key, [0, 0.0, 0.0])[2]


def profile_counts(run) -> dict:
    """Exact call counts of the ``PROFILED`` functions while ``run()`` executes."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        run()
    finally:
        prof.disable()
    counts = {name: 0 for name in PROFILED.values()}
    for entry in prof.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        name = PROFILED.get((_suffix(code.co_filename), code.co_name))
        if name is not None:
            counts[name] += entry.callcount
    return counts


def _suffix(filename: str) -> str:
    head, tail = os.path.split(filename)
    if tail == "fractions.py":
        return tail
    return os.path.join(os.path.basename(head), tail)
