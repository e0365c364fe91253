"""In-memory span recorder that times the public functions of uadi from
outside the package.

A span is ``(name, start, end, parent, size)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``size`` an optional number taken
from the call's arguments (the order k of a small solve).  Spans are kept in
a list and written out once, when the job ends.  The package itself is not
edited: each public name is replaced, where the caller looks it up, by a
wrapper that records a span around the original.
"""

import functools
import json
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, size=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1,
                          size(*args) if size else None])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return traced

    def patch(self, owner, attr, name, size=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), size))

    def install(self):
        """Wrap the layer boundaries of the uadi package."""
        from uadi import cli, linalg, mor, shiftgen, uadi as engine

        self.patch(cli, "build_system", "systems.build")
        self.patch(cli, "uadi_init", "uadi.init")
        self.patch(cli, "uadi_step", "uadi.step")
        self.patch(engine.UadiState, "residual_norm", "uadi.residual")
        self.patch(engine.UadiState, "extract", "uadi.extract")
        self.patch(linalg.ShiftedFactorization, "__init__", "linalg.lu")
        self.patch(linalg.ShiftedFactorization, "solve", "linalg.solve")
        self.patch(engine, "solve_small_sylvester", "linalg.small_sylv",
                   size=lambda F, *rest: len(F))
        self.patch(engine, "solve_small_lyapunov", "linalg.small_lyap")
        self.patch(engine, "gram_norm2", "linalg.gram_norm")
        # The self-generating oracles; the static list has no observe step
        # and generates nothing.
        for cls in (shiftgen.ProjectionShiftOracle,
                    shiftgen.SubspaceShiftOracle,
                    shiftgen.PetrovBtShiftOracle,
                    shiftgen.SylvesterAlternatingOracle):
            self.patch(cls, "next_unit", "shiftgen.next")
            self.patch(cls, "observe", "shiftgen.observe")
        self.patch(mor, "bt_square_root", "mor.bt")
        self.patch(mor, "build_rom", "mor.rom")

    def summary(self):
        """Per span name: calls, total seconds, self seconds, largest size.

        Self time is a span's duration minus the durations of its direct
        children; the job runs on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _, size), covered in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "size_max": 0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
            if size is not None:
                agg["size_max"] = max(agg["size_max"], size)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "size"],
                       "spans": self.spans}, fh)
