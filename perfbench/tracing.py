"""In-memory spans around the calls into each zonewatch layer.

``Tracer.install`` replaces each public layer function by a wrapper wherever
a ``zonewatch`` module holds it, so calls between layers (``belief_advance``
calling ``validate``, an observer session falling back to ``belief_query``)
are recorded too.  A span is ``[name, start, end, parent, tag]``; ``tag`` is
the op id during the op phase and a negative phase marker otherwise.  Spans
stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time

# Span name -> public name in the zonewatch package.  The layer is the part
# of the span name before the dot.
FUNCTIONS = {
    "model.load": "model_from_dict",
    "model.validate": "validate",
    "zones.za_build": "build_zone_automaton",
    "estimation.advance": "belief_advance",
    "estimation.query": "belief_query",
    "estimation.estimate": "estimate",
    "estimation.reach": "t_reachable",
    "observer.build": "build_offline_observer",
}
METHODS = {
    "observer.advance": ("ObserverSession", "advance"),
    "observer.query": ("ObserverSession", "query"),
}

LAYERS = ("bench", "model", "zones", "estimation", "observer")

CLI_TAG = -100


def setup_tag(repeat: int) -> int:
    return -1 - repeat


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tag = 0
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self.stack[-1] if self.stack else -1, self.tag])

    def install(self, zw) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "zonewatch" or k.startswith("zonewatch.")]
        for name, public in FUNCTIONS.items():
            orig = getattr(zw, public, None)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        for name, (cls_name, method) in METHODS.items():
            cls = getattr(zw, cls_name, None)
            orig = cls and cls.__dict__.get(method)
            if orig is None:
                continue
            self._patches.append((cls, method, orig))
            setattr(cls, method, self.wrap(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def call(self, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.tag])
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx][1] = start
            spans[idx][2] = end

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tag"], "spans": self.spans}, fh)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def has_descendant(spans: list, layer: str) -> set[int]:
    """Indices of spans with a descendant span in ``layer``."""
    marked: set[int] = set()
    for s in spans:
        if s[0].startswith(layer + "."):
            p = s[3]
            while p >= 0 and p not in marked:
                marked.add(p)
                p = spans[p][3]
    return marked
