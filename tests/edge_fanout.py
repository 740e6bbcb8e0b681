"""Reference fan-out of the zone automaton's edges, one edge at a time.

``build_zone_automaton`` stores one entry per source zone and transition,
and a clock-resetting transition's entry holds the whole run of its target
zones.  This is the eager construction it replaced, kept as the reference
of the differential tests: every edge is fanned out from
``model.transitions`` and the zones ``za.zones(x)`` alone, with no reading
of ``za.index``.
"""

from zonewatch.intervals import subset
from zonewatch.model import TAU
from zonewatch.zones import Edge, ExtendedState


def fanout_edges(model, za) -> set[Edge]:
    """Every time-elapse and event edge over the zones of ``za``."""
    edges = set()
    for x in model.states:
        zs = za.zones(x)
        for z1, z2 in zip(zs, zs[1:]):
            edges.add(Edge(ExtendedState(x, z1), TAU, ExtendedState(x, z2), None))
    for t in model.transitions:
        for z in za.zones(t.source):
            if not subset(z, t.guard):
                continue
            if t.resets_clock:
                targets = [z2 for z2 in za.zones(t.target) if subset(z2, t.reset)]
            else:
                targets = [z2 for z2 in za.zones(t.target) if z2 == z]
            for z2 in targets:
                edges.add(Edge(ExtendedState(t.source, z), t.event, ExtendedState(t.target, z2), t))
    return edges


def fanout_successor(edges: set[Edge], reached, event: str) -> frozenset:
    """The extended states one ``event`` edge leads to from ``reached``."""
    return frozenset(e.target for e in edges if e.label == event and e.source in reached)
