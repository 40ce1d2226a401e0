"""Timing spans around the package's public functions.

The tracer replaces every module binding of a wrapped function object,
so calls made through names imported elsewhere in the package (for
example `lqr` importing `reduce_model`) are recorded too.  Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    # Inner calls folded into this span: name -> [calls, seconds].
    agg: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Target:
    """One traced function: `<module>.<qualname>` under mjsreduce."""

    module: str
    qualname: str
    # Calls made directly under a span with one of these names are
    # folded into the parent instead of getting spans of their own.
    aggregate_under: tuple[str, ...] = ()
    # count(counters, bound_arguments, result) adds per-call counts.
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"


class Tracer:
    def __init__(self, targets, clock=time.perf_counter) -> None:
        self.targets = list(targets)
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------

    def wrap(self, target: Target, fn):
        sig = inspect.signature(fn) if target.count else None
        name = target.name

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            if parent is not None and parent.name in target.aggregate_under:
                t0 = self.clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec = parent.agg.setdefault(name, [0, 0.0])
                    rec[0] += 1
                    rec[1] += self.clock() - t0
            span = Span(
                id=len(self.spans) + len(self.stack),
                name=name,
                start=self.clock(),
                end=float("nan"),
                parent=None if parent is None else parent.id,
                op=self.op,
            )
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self.stack.pop()
                self.spans.append(span)
            if target.count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                target.count(self.counters, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ------------------------------------------------

    def install(self) -> None:
        """Swap every binding of each target for its traced wrapper."""
        if self._restore:
            return
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "mjsreduce" or key.startswith("mjsreduce."))
        ]
        for target in self.targets:
            owner = sys.modules[f"mjsreduce.{target.module}"]
            head, _, attr = target.qualname.rpartition(".")
            if head:
                # A classmethod such as BoundInputs.from_model.
                cls = getattr(owner, head)
                raw = cls.__dict__[attr]
                traced = classmethod(self.wrap(target, raw.__func__))
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, traced)
                continue
            fn = getattr(owner, attr)
            traced = self.wrap(target, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, traced)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore = []


# -- arithmetic over recorded spans ----------------------------------


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover.

    Children run inside their parent on one thread and do not overlap,
    so the covered time is the sum of their durations plus the calls
    folded into the parent.
    """
    covered: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            covered[sp.parent] += sp.duration
    out = {}
    for sp in spans:
        folded = sum(sec for _, sec in sp.agg.values())
        out[sp.id] = sp.duration - covered[sp.id] - folded
    return out


def per_function(spans) -> dict[str, dict[str, float]]:
    """name -> {calls, busy_s, self_s} over the given spans.

    busy_s counts a span only when no ancestor has the same name, so a
    function that re-enters itself is not counted twice.  Folded calls
    count as leaves: their busy and self time are equal.
    """
    by_id = {sp.id: sp for sp in spans}
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for sp in spans:
        rec = out[sp.name]
        rec["calls"] += 1
        rec["self_s"] += selfs[sp.id]
        anc = by_id.get(sp.parent)
        while anc is not None and anc.name != sp.name:
            anc = by_id.get(anc.parent)
        if anc is None:
            rec["busy_s"] += sp.duration
        for name, (calls, sec) in sp.agg.items():
            inner = out[name]
            inner["calls"] += calls
            inner["busy_s"] += sec
            inner["self_s"] += sec
    return dict(out)


def root_time(spans) -> float:
    """Time covered by spans that have no traced parent."""
    return sum(sp.duration for sp in spans if sp.parent is None)
