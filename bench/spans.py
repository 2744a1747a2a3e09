"""Per-call spans around ceerlab's public functions, patched from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
place that binds it: the defining class for methods, and every ceerlab
module namespace for functions (so names imported with ``from .x import f``
are caught as well).  While ``enabled`` is true each call records one span
(name, start, end, parent) in memory; counts and self times are folded in as
spans close, so the in-memory span list can be capped without losing the
totals.  A span's self time is its duration minus the time its child spans
cover, and both exclude time the meter spent in its reference loop.
"""
from __future__ import annotations

import functools
import json
import sys
from array import array

from meter import Meter, clock

# (module, attribute path, span name).  The first part of a span name is
# its layer.
TRACED = (
    ("ceerlab.algebra", "HomogeneousIdeal.member", "algebra.member"),
    ("ceerlab.algebra", "HomogeneousIdeal.reduce_component", "algebra.reduce_component"),
    ("ceerlab.algebra", "HomogeneousIdeal.quotient_reduce", "algebra.quotient_reduce"),
    ("ceerlab.algebra", "HomogeneousIdeal.add_generator", "algebra.add_generator"),
    ("ceerlab.algebra", "gs_audit", "algebra.gs_audit"),
    ("ceerlab.ceers", "CeerTable.related", "ceers.related"),
    ("ceerlab.ceers", "CeerTable.roots_at", "ceers.roots_at"),
    ("ceerlab.ceers", "CeerTable.assert_pair", "ceers.assert_pair"),
    ("ceerlab.ceers", "CeerTable.classes_at", "ceers.classes_at"),
    ("ceerlab.ceers", "CeerTable.dumps", "ceers.dumps"),
    ("ceerlab.ceers", "CeerTable.loads", "ceers.loads"),
    ("ceerlab.ceers", "StageSet.count_at", "ceers.stageset.count_at"),
    ("ceerlab.ceers", "StageSet.at_stage", "ceers.stageset.at_stage"),
    ("ceerlab.ceers", "product", "ceers.product"),
    ("ceerlab.ceers", "pullback", "ceers.pullback"),
    ("ceerlab.ceers", "verify_reduction", "ceers.verify_reduction"),
    ("ceerlab.groups", "staged_abelian_wp", "groups.staged_abelian_wp"),
    ("ceerlab.groups", "fp_reduce", "groups.fp_reduce"),
    ("ceerlab.groups", "validate_relation_stream", "groups.validate_relation_stream"),
    ("ceerlab.engine", "PriorityEngine.run_stage", "engine.run_stage"),
    ("ceerlab.engine", "RunLog.dumps", "log.dumps"),
    ("ceerlab.engine", "RunLog.loads", "log.loads"),
    ("ceerlab.scenario", "parse_scenario", "scenario.parse"),
    ("ceerlab.scenario", "Scenario.run", "scenario.run"),
    ("ceerlab.cli", "cmd_verify", "cli.verify"),
)

LAYERS = ("algebra", "ceers", "groups", "engine", "log", "scenario", "cli")
# spans kept for the spans file; counts and times cover every call anyway
SPAN_CAP = 1_000_000


class Tracer:
    def __init__(self, meter: Meter):
        self.meter = meter
        self.enabled = False
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.dropped = 0
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        # open spans: [name id, start, paused at start, child time, span index]
        self._stack: list[list] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        meter = self.meter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = -1
            if len(self._start) < SPAN_CAP:
                idx = len(self._start)
                self._name.append(nid)
                self._start.append(0.0)
                self._end.append(0.0)
                self._parent.append(stack[-1][4] if stack else -1)
            else:
                self.dropped += 1
            frame = [nid, 0.0, meter.paused, 0.0, idx]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = (end - frame[1]) - (meter.paused - frame[2])
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_time[nid] += dur - frame[3]
                if stack:
                    stack[-1][3] += dur
                if idx >= 0:
                    self._start[idx] = frame[1]
                    self._end[idx] = end

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in loaded ceerlab modules."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "ceerlab" or k.startswith("ceerlab."))]
        for modname, path, name in TRACED:
            owner = sys.modules[modname]
            parts = path.split(".")
            if len(parts) == 2:
                cls = getattr(owner, parts[0])
                raw = cls.__dict__[parts[1]]
                if isinstance(raw, classmethod):
                    setattr(cls, parts[1], classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, parts[1], self._wrap(name, raw))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        for i in range(len(self.names)):
            self.calls[i] = 0
            self.total[i] = 0.0
            self.self_time[i] = 0.0

    def summary(self) -> dict[str, dict[str, float]]:
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": self.calls[i], "total_s": self.total[i],
                         "self_s": self.self_time[i]}
        return out

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            out[name.split(".")[0]] += self.self_time[i]
        return out

    def write(self, path: str) -> int:
        """Write recorded spans as JSON lines; return how many were written."""
        n = len(self._start)
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "dropped": self.dropped,
                                 "fields": ["id", "name", "start_s", "end_s", "parent"]}))
            fh.write("\n")
            for i in range(n):
                fh.write(f"[{i},{self._name[i]},{self._start[i]:.9f},"
                         f"{self._end[i]:.9f},{self._parent[i]}]\n")
        return n
