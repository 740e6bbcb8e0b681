"""Clock regions, zones and the zone automaton of a timed finite automaton.

The clock axis at each state is first cut into unit regions (integer points
and open unit segments).  Consecutive regions whose enabled input/output
transitions coincide, and involve no clock-preserving transition, merge into
zones; together with the unbounded tail the zones partition ``[0, inf)``.
The zone automaton is an NFA over (state, zone) pairs whose ``tau`` edges
model time elapsing into the next zone and whose event edges follow the
guards and reset policies of the underlying model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .intervals import Interval, distance, subset
from .model import TAU, TFA, Transition, require_valid


class ExtendedState(NamedTuple):
    state: str
    zone: Interval

    def __str__(self) -> str:
        return f"({self.state},{self.zone})"


def ext_sort_key(v: ExtendedState) -> tuple:
    """Zone order: by state, then by zone; natural tuple order is not it."""
    return (v.state,) + v.zone.sort_key()


@dataclass(frozen=True, slots=True)
class Edge:
    source: ExtendedState
    label: str  # an event name, or TAU for time elapse
    target: ExtendedState
    transition: Optional[Transition]  # None exactly for TAU edges


def regions(model: TFA, state: str) -> list[Interval]:
    """The ordered unit regions of a state, from ``[0,0]`` to ``[M,M]``.

    ``M`` is the largest integer endpoint among the guards of output
    transitions, the guards of clock-preserving input transitions and the
    reset ranges of clock-resetting input transitions.  The low end is
    clamped to 0 so the regions always start at the initial clock value.
    """
    if state not in model.states:
        raise ValueError(f"unknown state {state!r}")
    high = 0
    for t in model.outgoing(state):
        high = max(high, int(t.guard.hi))
    for t in model.incoming(state):
        relevant = t.reset if t.resets_clock else t.guard
        high = max(high, int(relevant.hi))
    out: list[Interval] = [Interval.point(0)]
    for k in range(high):
        out.append(Interval.open(k, k + 1))
        out.append(Interval.point(k + 1))
    return out


def output_transitions_at(model: TFA, state: str, r: Interval) -> set[Transition]:
    """Transitions that can fire from ``state`` with any clock value in ``r``."""
    return {t for t in model.outgoing(state) if subset(r, t.guard)}


def input_transitions_at(model: TFA, state: str, r: Interval) -> set[Transition]:
    """Transitions that can land in ``state`` with any clock value in ``r``.

    A clock-resetting transition reaches ``(state, r)`` when ``r`` lies in its
    reset range; a clock-preserving one when ``r`` lies in its guard.
    """
    out = set()
    for t in model.incoming(state):
        relevant = t.reset if t.resets_clock else t.guard
        if subset(r, relevant):
            out.add(t)
    return out


def build_zones(model: TFA, state: str) -> list[Interval]:
    """Merge regions into the ordered zone partition of ``[0, inf)``.

    Consecutive regions merge while their input and output transition sets
    are equal and none of those transitions preserves the clock.  The
    unbounded tail zone is appended last.  For initial states the point zone
    ``[0,0]`` is always kept separate: the clock starts at exactly 0, and the
    initial extended state must carry that information.
    """
    regs = regions(model, state)
    zones: list[Interval] = []
    cur = regs[0]
    cur_out = output_transitions_at(model, state, regs[0])
    cur_in = input_transitions_at(model, state, regs[0])
    for nxt in regs[1:]:
        nxt_out = output_transitions_at(model, state, nxt)
        nxt_in = input_transitions_at(model, state, nxt)
        mergeable = (
            cur_out == nxt_out
            and cur_in == nxt_in
            and all(t.resets_clock for t in nxt_out | nxt_in)
        )
        if mergeable:
            cur = Interval(cur.lo, cur.lo_closed, nxt.hi, nxt.hi_closed)
        else:
            zones.append(cur)
            cur = nxt
        cur_out, cur_in = nxt_out, nxt_in
    zones.append(cur)
    zones.append(Interval.above(regs[-1].hi))
    if state in model.initial and not zones[0].is_point:
        first = zones[0]
        zones[0:1] = [Interval.point(0), Interval(0, False, first.hi, first.hi_closed)]
    return zones


class ZoneIndex:
    """The zone automaton numbered for the duration search.

    Extended states get ids ``0..n-1`` in ``ext_sort_key`` order, each
    state's zones consecutive and ascending; distinct zones get zone ids.
    Every table is a list indexed by id:

    - ``ext``: the ExtendedState of each id; ``id_of`` maps it back;
    - ``zone``: its zone id, and ``ranges``: each zone id's Interval;
    - ``tau``: the id of the time-elapse successor, -1 for the unbounded zone;
    - ``events``: event edges ``(label, target id, resets_clock,
      Transition)``, grouped by label in order of first appearance, and
      ``silent``: those whose label is unobservable.

    ``ids`` maps each state to the range of its ids.

    ``stretches`` holds the stretch table of each root id, over silent moves
    (``stretches[False]``) and over all events (``stretches[True]``); each
    is filled on first use by ``stretch``.  A reset-free stretch entered at
    root ``r`` reaches the ids linked to ``r`` by ``tau`` steps and
    clock-preserving edges.  Its table has one entry ``(s, d_lo, d_lo_closed,
    d_hi, d_hi_closed, resets, pred, edge)`` per such id ``s``: the distance
    range from ``r``'s zone to ``s``'s zone, the clock-resetting edges out
    of ``s``, and the id ``s`` was first reached from with the edge taken
    (``None`` for ``tau``; ``pred`` is -1 at the root).  Entries are sorted
    by the lower end of the distance, open after closed, which only grows
    along a stretch; the root is entry 0.

    ``rows``, ``cells`` and ``supports`` are the estimation memo, filled on
    first use by ``zonewatch.estimation``: ``rows`` maps a belief support to
    what it reaches in each unit cell of elapsed time, ``cells`` maps each
    set of reached ids to its one shared cell, and ``supports`` maps each
    support met to its one shared frozenset, so that lookups of equal
    supports are identity hits.
    """

    __slots__ = (
        "ext", "id_of", "ids", "zone", "ranges", "tau", "events", "silent", "stretches", "rows", "cells",
        "supports",
    )

    def __init__(self) -> None:
        self.ext: list[ExtendedState] = []
        self.id_of: dict[ExtendedState, int] = {}
        self.ids: dict[str, range] = {}
        self.zone: list[int] = []
        self.ranges: list[Interval] = []
        self.tau: list[int] = []
        self.events: list[tuple] = []
        self.silent: list[tuple] = []
        self.stretches: tuple[list, list] = ([], [])
        self.rows: dict = {}
        self.cells: dict = {}
        self.supports: dict = {}

    def stretch(self, r: int, all_events: bool) -> tuple:
        """The stretch table of root ``r`` (see the class docstring)."""
        tables = self.stretches[all_events]
        table = tables[r]
        if table is None:
            table = tables[r] = self._fill(r, self.events if all_events else self.silent)
        return table

    def _fill(self, r: int, moves: list) -> tuple:
        zone, ranges, tau = self.zone, self.ranges, self.tau
        entry = ranges[zone[r]]
        link = {r: (-1, None)}  # id -> (id it was reached from, edge)
        order = [r]
        for s in order:  # breadth first; ``order`` grows as it is walked
            nxt = tau[s]
            if nxt >= 0 and nxt not in link:
                link[nxt] = (s, None)
                order.append(nxt)
            for edge in moves[s]:
                if not edge[2] and edge[1] not in link:
                    link[edge[1]] = (s, edge)
                    order.append(edge[1])
        table = [
            (s, *distance(entry, ranges[zone[s]]), tuple([e for e in moves[s] if e[2]]), *link[s])
            for s in order
        ]
        table.sort(key=lambda row: (row[1], not row[2]))  # stable: the root stays first
        return tuple(table)


@dataclass(frozen=True)
class ZoneAutomaton:
    """NFA over extended states with time-elapse and event edges."""

    states: frozenset[ExtendedState]
    edges: tuple[Edge, ...]
    initial: frozenset[ExtendedState]
    zones_by_state: dict[str, tuple[Interval, ...]]
    diagnostics: tuple[str, ...] = ()
    index: ZoneIndex = field(default_factory=ZoneIndex, repr=False, compare=False)

    def zones(self, state: str) -> tuple[Interval, ...]:
        return self.zones_by_state[state]

    def tau_successor(self, v: ExtendedState) -> Optional[ExtendedState]:
        i = self.index.id_of.get(v)
        if i is None or self.index.tau[i] < 0:
            return None
        return self.index.ext[self.index.tau[i]]

    def zone_of(self, state: str, clock) -> Interval:
        for z in self.zones_by_state[state]:
            if clock in z:
                return z
        raise ValueError(f"no zone of {state!r} contains {clock}")  # unreachable: zones partition


def build_zone_automaton(model: TFA) -> ZoneAutomaton:
    """Construct the zone automaton of a well-formed model, with its index.

    Event edges follow each transition from every source zone inside its
    guard: a clock-resetting transition fans out to every target zone inside
    its reset range, while a clock-preserving one keeps the zone unchanged.
    A clock-preserving edge whose zone is missing at the target state is
    dropped and reported as a diagnostic.
    """
    require_valid(model)
    zones_by_state = {x: tuple(build_zones(model, x)) for x in model.states}
    ix = ZoneIndex()
    zone_ids: dict[Interval, int] = {}
    edges: list[Edge] = []
    for x in sorted(zones_by_state):
        zs = zones_by_state[x]
        first = len(ix.ext)
        ix.ids[x] = range(first, first + len(zs))
        for k, z in enumerate(zs):
            v = ExtendedState(x, z)
            if k:
                edges.append(Edge(ix.ext[-1], TAU, v, None))
            ix.id_of[v] = len(ix.ext)
            ix.ext.append(v)
            zid = zone_ids.setdefault(z, len(zone_ids))
            if zid == len(ix.ranges):
                ix.ranges.append(z)
            ix.zone.append(zid)
            ix.tau.append(len(ix.ext) if k + 1 < len(zs) else -1)
    # Per source id, event edges grouped by label in order of first appearance.
    out: list[dict[str, list]] = [{} for _ in ix.ext]
    diagnostics: list[str] = []
    for t in model.transitions:
        resets = t.resets_clock
        target_ids = ix.ids[t.target]
        if resets:
            reset_targets = [
                i for i, z2 in zip(target_ids, zones_by_state[t.target]) if subset(z2, t.reset)
            ]
        for src, z in zip(ix.ids[t.source], zones_by_state[t.source]):
            if not subset(z, t.guard):
                continue
            if resets:
                targets = reset_targets
            else:
                zid = ix.zone[src]
                targets = [i for i in target_ids if ix.zone[i] == zid]
                if not targets:
                    diagnostics.append(
                        f"clock-preserving transition {t}: source zone {z} is not a zone of {t.target!r}"
                    )
                    continue
            per = out[src].setdefault(t.event, [])
            for i in targets:
                edges.append(Edge(ix.ext[src], t.event, ix.ext[i], t))
                per.append((t.event, i, resets, t))
    for per in out:
        ix.events.append(tuple(e for group in per.values() for e in group))
        ix.silent.append(tuple(e for e in ix.events[-1] if e[0] not in model.observable))
    ix.stretches = ([None] * len(ix.ext), [None] * len(ix.ext))
    return ZoneAutomaton(
        states=frozenset(ix.id_of),
        edges=tuple(edges),
        initial=frozenset(ix.ext[ix.ids[x][0]] for x in model.initial),
        zones_by_state=zones_by_state,
        diagnostics=tuple(diagnostics),
        index=ix,
    )


def to_dot(za: ZoneAutomaton) -> str:
    """Render the zone automaton as Graphviz DOT with deterministic ordering."""

    def node_id(v: ExtendedState) -> str:
        return f"{v.state} {v.zone}"

    lines = ["digraph zone_automaton {", "  rankdir=LR;"]
    for v in sorted(za.states, key=ext_sort_key):
        attrs = ' shape=doublecircle' if v in za.initial else ""
        lines.append(f'  "{node_id(v)}"{attrs};')
    def edge_key(e: Edge) -> tuple:
        return ext_sort_key(e.source) + (e.label,) + ext_sort_key(e.target)

    for e in sorted(za.edges, key=edge_key):
        if e.label == TAU:
            lines.append(f'  "{node_id(e.source)}" -> "{node_id(e.target)}" [style=dashed];')
        else:
            lines.append(
                f'  "{node_id(e.source)}" -> "{node_id(e.target)}" [label="{e.label}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
