"""Zones and the zone automaton of a timed finite automaton.

The zones of a state are the maximal runs of clock values at which the same
input and output transitions are enabled, except that a clock-preserving
transition keeps each unit region (integer point or open unit segment) it
covers a zone of its own; together with the unbounded tail the zones
partition ``[0, inf)``.  They are read off one sweep over the state's sorted
guard and reset endpoints, so their cost grows with the number of endpoints,
not with the size of the constants.  The zone automaton is an NFA over
(state, zone) pairs whose ``tau`` edges model time elapsing into the next
zone and whose event edges follow the guards and reset policies of the
underlying model.  It is stored as the integer tables of ``ZoneIndex``;
``ZoneAutomaton.edges`` derives ``Edge`` objects from them on first use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

from .intervals import Interval, distance
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


def build_zones(model: TFA, state: str) -> list[Interval]:
    """The ordered zone partition of ``[0, inf)`` at a state.

    The zones are the maximal runs of clock values with the same enabled
    input and output transitions, in which no clock-preserving transition
    is enabled at more than one unit region.  The ranges that matter at the
    state are the guards of its output transitions, the guards of its
    clock-preserving input transitions and the reset ranges of its
    clock-resetting input transitions.  On the cell axis (``[k,k]`` is cell
    ``2k``, ``(k,k+1)`` is cell ``2k+1``) a closed range ``[a,b]`` covers
    cells ``2a..2b``, so a zone starts only at cell 0, at ``2a`` or
    ``2b+1`` of a range, and at every cell covered by a clock-preserving
    transition, where each unit region is a zone of its own.  The zones are
    read off the sorted starts up to ``[M,M]`` (``M`` the largest endpoint
    of the ranges), and the unbounded tail ``(M,inf)`` is appended.  For
    initial states the point zone ``[0,0]`` is always kept separate, by a
    start at cell 1: the clock starts at exactly 0, and the initial
    extended state must carry that information.  The cost is ``O(k log k)`` in the number ``k`` of
    starts, whatever the size of the constants; ``validate`` bounds the
    starts a clock-preserving guard adds (``MAX_ID_REGIONS``).
    """
    if state not in model.states:
        raise ValueError(f"unknown state {state!r}")
    ranges = [(t.guard, t.resets_clock) for t in model.outgoing(state)]
    ranges += [(t.reset, True) if t.resets_clock else (t.guard, False) for t in model.incoming(state)]
    high = max((r.hi for r, _ in ranges), default=0)
    starts = {1} if state in model.initial else set()
    for (lo, _, hi, _), resets in ranges:
        if resets:
            starts.add(2 * lo)
            starts.add(2 * hi + 1)
        else:
            starts.update(range(2 * lo, 2 * hi + 2))
    bounds = [c for c in sorted(starts) if 0 < c <= 2 * high]
    bounds.append(2 * high + 1)
    zones: list[Interval] = []
    first = 0
    for nxt in bounds:  # the zone of cells first..nxt-1
        zones.append(Interval(first >> 1, not first & 1, nxt >> 1, bool(nxt & 1)))
        first = nxt
    zones.append(Interval.above(high))
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

    These tables are the only stored form of the edges: ``ZoneAutomaton.edges``
    is derived from ``tau`` and ``events``.

    ``ids`` maps each state to the range of its ids.

    ``stretches`` holds the stretch table of each root, over silent moves
    (``stretches[False]``) and over all events (``stretches[True]``); each
    is filled on first use by ``stretch``.  A root is a run ``(a, b)`` of
    consecutive ids of one state: a stretch beginning with the clock
    anywhere in the zones of ``a..b``.  Resets enter runs, since a
    clock-resetting transition fans out to every zone of its reset range,
    and a belief support starts one run per maximal block of consecutive
    ids of a state; a single id ``j`` is the run ``(j, j)``.  A run is
    keyed by the int ``a + n*(b - a)`` (``n`` ids), so the key of ``(j,
    j)`` is ``j``; ``run`` maps a key back.

    A reset-free stretch reaches the ids linked to a member by ``tau``
    steps and clock-preserving edges.  Its table has one entry ``(s, d_lo,
    d_lo_closed, d_hi, d_hi_closed, resets, pred, edge)`` per such id
    ``s``: the durations from the run to ``s``, the reset runs out of
    ``s``, and the id ``s`` was first reached from with the edge taken
    (``None`` for ``tau``; ``pred`` is -1 at the members).  The members
    that reach ``s`` are a prefix ``a..top`` (the clock only rises within a
    stretch, and a member reaches the next one by ``tau``), so the
    durations are the distance range from the hull of the zones of
    ``a..top`` to ``s``'s zone, which is the union of the members' own
    ranges.  Entries are sorted by the lower end of the distance, open
    after closed, which only grows along a stretch.  A reset run has the
    shape of an edge, ``(label, key, True, Transition)``: the targets of
    one resetting transition out of ``s`` are consecutive ids of its
    target state, one run.  ``resets`` keeps the reset runs of each id
    met, per mode.

    ``rows``, ``cells`` and ``supports`` are the estimation memo, filled on
    first use by ``zonewatch.estimation``: ``rows`` maps a belief support to
    what it reaches in each unit cell of elapsed time, ``cells`` maps each
    set of reached ids to its one shared cell, and ``supports`` maps each
    support met to its one shared frozenset, so that lookups of equal
    supports are identity hits.  ``width`` is the cells' dependency width,
    set on first use (0 until then).

    ``cell_tables`` and ``fixpoints`` are the caches of the cell-mask
    fixpoint, also filled on first use by ``zonewatch.estimation``:
    ``cell_tables`` maps a root to its silent stretch table in cell form
    (each distinct window as cell shifts, with the reset runs and the ids it
    reaches), and ``fixpoints`` maps a start run to ``(cut, root masks, hit
    masks)``, its fixpoint at the largest cut computed so far.
    """

    __slots__ = (
        "ext", "id_of", "ids", "zone", "ranges", "tau", "events", "silent", "stretches", "resets", "rows",
        "cells", "supports", "width", "cell_tables", "fixpoints",
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
        self.stretches: tuple[dict, dict] = ({}, {})
        self.resets: tuple[dict, dict] = ({}, {})
        self.rows: dict = {}
        self.cells: dict = {}
        self.supports: dict = {}
        self.width = 0
        self.cell_tables: dict = {}
        self.fixpoints: dict = {}

    def run(self, key: int) -> tuple[int, int]:
        """The run ``(a, b)`` of a key."""
        span, a = divmod(key, len(self.ext))
        return a, a + span

    def start_runs(self, ids) -> list[int]:
        """The keys of the maximal runs of consecutive ids of one state
        among ``ids``, ascending."""
        tau, n = self.tau, len(self.ext)
        keys: list[int] = []
        prev = -1
        for i in sorted(set(ids)):
            if keys and tau[prev] == i:
                keys[-1] += n
            else:
                keys.append(i)
            prev = i
        return keys

    def stretch(self, key: int, all_events: bool) -> tuple:
        """The stretch table of the run ``key`` (see the class docstring)."""
        tables = self.stretches[all_events]
        table = tables.get(key)
        if table is None:
            table = tables[key] = self._fill(key, all_events)
        return table

    def _fill(self, key: int, all_events: bool) -> tuple:
        zone, ranges, tau = self.zone, self.ranges, self.tau
        moves = self.events if all_events else self.silent
        resets = self.resets[all_events]
        a, b = self.run(key)
        lo, lo_closed = ranges[zone[a]][:2]
        link: dict = {}  # id -> (id it was reached from, edge)
        table = []
        # Breadth first from each member, the highest first: an id that a
        # lower member meets again, and all it leads to, was reached by a
        # higher one, and ``j`` is the largest member reaching what it
        # reaches first.
        for j in range(b, a - 1, -1):
            link[j] = (-1, None)
            order = [j]
            for s in order:  # ``order`` grows as it is walked
                nxt = tau[s]
                if nxt >= 0 and nxt not in link:
                    link[nxt] = (s, None)
                    order.append(nxt)
                for edge in moves[s]:
                    if not edge[2] and edge[1] not in link:
                        link[edge[1]] = (s, edge)
                        order.append(edge[1])
            high = ranges[zone[j]]
            hull = (lo, lo_closed, high[2], high[3])
            for s in order:
                runs = resets.get(s)
                if runs is None:
                    runs = resets[s] = self._reset_runs(moves[s])
                table.append((s, *distance(hull, ranges[zone[s]]), runs, *link[s]))
        table.sort(key=lambda row: (row[1], not row[2]))
        return tuple(table)

    def _reset_runs(self, moves: tuple) -> tuple:
        """The reset runs of ``moves``: one per resetting transition, over
        its consecutive target ids."""
        runs: list = []
        n = len(self.ext)
        last = -1
        for label, t, resets, tr in moves:
            if not resets:
                continue
            if runs and t == last + 1 and runs[-1][3] is tr:
                runs[-1][1] += n
            else:
                runs.append([label, t, True, tr])
            last = t
        return tuple([tuple(r) for r in runs])


@dataclass(frozen=True)
class ZoneAutomaton:
    """NFA over extended states with time-elapse and event edges."""

    states: frozenset[ExtendedState]
    initial: frozenset[ExtendedState]
    zones_by_state: dict[str, tuple[Interval, ...]]
    diagnostics: tuple[str, ...] = ()
    index: ZoneIndex = field(default_factory=ZoneIndex, repr=False, compare=False)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every time-elapse and event edge, derived from ``index`` on first
        use; the order is unspecified."""
        ix = self.index
        ext = ix.ext
        out = [Edge(ext[i], TAU, ext[j], None) for i, j in enumerate(ix.tau) if j >= 0]
        for i, moves in enumerate(ix.events):
            out += [Edge(ext[i], label, ext[j], t) for label, j, _, t in moves]
        return tuple(out)

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
    dropped and reported as a diagnostic.  Edges are stored only in the
    index tables; no ``Edge`` object is made until ``edges`` is read.
    """
    require_valid(model)
    zones_by_state = {x: tuple(build_zones(model, x)) for x in model.states}
    ix = ZoneIndex()
    zone_ids: dict[Interval, int] = {}
    for x in sorted(zones_by_state):
        zs = zones_by_state[x]
        first = len(ix.ext)
        ix.ids[x] = range(first, first + len(zs))
        for k, z in enumerate(zs):
            v = ExtendedState(x, z)
            ix.id_of[v] = len(ix.ext)
            ix.ext.append(v)
            zid = zone_ids.setdefault(z, len(zone_ids))
            if zid == len(ix.ranges):
                ix.ranges.append(z)
            ix.zone.append(zid)
            ix.tau.append(len(ix.ext) if k + 1 < len(zs) else -1)
    # Each zone's first cell.  A guard is cut into zones at its source state
    # and a reset range at its target state, so the zones inside either are
    # those whose first cell lies in the range: one bisection per end.
    firsts = {x: [2 * z.lo + (not z.lo_closed) for z in zs] for x, zs in zones_by_state.items()}

    def inside(x: str, r: Interval) -> range:
        ids, cells = ix.ids[x], firsts[x]
        return ids[bisect_left(cells, 2 * r.lo) : bisect_right(cells, 2 * r.hi)]

    # Per source id, event edges grouped by label in order of first appearance.
    out: list[dict[str, list]] = [{} for _ in ix.ext]
    diagnostics: list[str] = []
    for t in model.transitions:
        resets = t.resets_clock
        if resets:
            targets = inside(t.target, t.reset)
        for src in inside(t.source, t.guard):
            if not resets:
                i = ix.id_of.get(ExtendedState(t.target, ix.ext[src].zone))
                if i is None:
                    diagnostics.append(
                        f"clock-preserving transition {t}: source zone {ix.ext[src].zone} "
                        f"is not a zone of {t.target!r}"
                    )
                    continue
                targets = (i,)
            per = out[src].setdefault(t.event, [])
            per += [(t.event, i, resets, t) for i in targets]
    observable = model.observable
    for per in out:
        moves = tuple([e for group in per.values() for e in group]) if per else ()
        ix.events.append(moves)
        ix.silent.append(tuple([e for e in moves if e[0] not in observable]) if moves else ())
    return ZoneAutomaton(
        states=frozenset(ix.id_of),
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
