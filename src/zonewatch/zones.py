"""Zones and the zone automaton of a timed finite automaton.

The zones of a state are the maximal runs of clock values at which the same
input and output transitions are enabled, except that a clock-preserving
transition keeps each unit region (integer point or open unit segment) it
covers a zone of its own; together with the unbounded tail the zones
partition ``[0, inf)``.  They are read off one sweep over the state's sorted
guard and reset endpoints, so their cost grows with the number of endpoints,
not with the size of the constants.  Each zone is made from its cells, the
first cell of its run and the first of the next, which make a valid
``Interval`` by construction, so no zone is checked again.  The zone
automaton is an NFA over (state, zone) pairs whose ``tau`` edges model time
elapsing into the next zone and whose event edges follow the guards and
reset policies of the underlying model.  It is stored as the integer tables
of ``ZoneIndex``, where a clock-resetting transition out of a zone is one
entry holding the run of its target zones.  The build writes each zone's
entries straight into its list in one pass over the transitions, so they
keep the order of the model's transitions.  ``ZoneAutomaton.edges``
expands them into ``Edge`` objects, ``ZoneAutomaton.states`` collects the
extended states and ``ZoneIndex.id_of`` maps them back to ids, each on
first use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .intervals import INF, Interval
from .model import ID_RESET, TAU, TFA, Transition, require_valid


class ExtendedState(NamedTuple):
    state: str
    zone: Interval

    def __str__(self) -> str:
        return f"({self.state},{self.zone})"


def ext_sort_key(v: ExtendedState) -> tuple:
    """Zone order: by state, then by zone; natural tuple order is not it."""
    return (v.state,) + v.zone.sort_key()


def ext_json(states: Iterable[ExtendedState]) -> list[list[str]]:
    """``[state, zone text]`` pairs in ``ext_sort_key`` order, as JSON output
    lists extended states."""
    return [[v.state, str(v.zone)] for v in sorted(states, key=ext_sort_key)]


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
    is enabled at more than one unit region.  They are read off the
    state's ``_zone_starts``: the zone of cells ``first..nxt-1`` for each
    pair of consecutive starts, then the unbounded tail from the last one.
    """
    if state not in model.states:
        raise ValueError(f"unknown state {state!r}")
    starts = _zone_starts(model)[state]
    return [_zone(first, nxt) for first, nxt in zip(starts, starts[1:] + [None])]


def _zone_starts(model: TFA) -> dict[str, list[int]]:
    """The first cell of each zone of each state, ascending.

    The ranges that matter at a state are the guards of its output
    transitions, the guards of its clock-preserving input transitions and
    the reset ranges of its clock-resetting input transitions.  On the cell
    axis (``[k,k]`` is cell ``2k``, ``(k,k+1)`` is cell ``2k+1``) a closed
    range ``[a,b]`` covers cells ``2a..2b``, so a zone starts only at cell
    0, at ``2a`` or ``2b+1`` of a range, and at every cell covered by a
    clock-preserving transition, where each unit region is a zone of its
    own.  The last start, ``2M+1`` (``M`` the largest endpoint of the
    state's ranges, 0 without any), is that of the unbounded tail
    ``(M,inf)``; every range adds its ``2b+1``, so it is the largest cell
    met.  For initial states the point zone ``[0,0]`` is always kept
    separate, by a start at cell 1: the clock starts at exactly 0, and the
    initial extended state must carry that information.  One pass over the
    transitions; the cost is ``O(k log k)`` in the number ``k`` of starts,
    whatever the size of the constants, and ``validate`` bounds the starts
    a clock-preserving guard adds (``MAX_ID_REGIONS``).
    """
    cuts: dict[str, set] = {x: set() for x in model.states}
    cells_at = cuts.get  # None at an unknown state, which ``validate`` reports
    for x in model.initial:
        cells = cells_at(x)
        if cells is not None:
            cells.add(1)
    for source, _, target, (lo, _, hi, _), reset in model.transitions:
        if reset == ID_RESET:
            span = range(2 * lo, 2 * hi + 2)
            cells = cells_at(source)
            if cells is not None:
                cells.update(span)
            cells = cells_at(target)
            if cells is not None:
                cells.update(span)
            continue
        cells = cells_at(source)
        if cells is not None:
            cells.add(2 * lo)
            cells.add(2 * hi + 1)
        cells = cells_at(target)
        if cells is not None:
            lo, _, hi, _ = reset
            cells.add(2 * lo)
            cells.add(2 * hi + 1)
    starts = {}
    for x, cells in cuts.items():
        cells.discard(0)
        starts[x] = [0, *sorted(cells)] if cells else [0, 1]
    return starts


_new = tuple.__new__
_resets_clock = itemgetter(2)  # of an ``events`` entry: whether it resets the clock


def _zone(first: int, nxt: Optional[int]) -> Interval:
    """The zone of cells ``first..nxt-1``, or of every cell from ``first``
    on when ``nxt`` is None.  Made with ``tuple.__new__``: the cells of
    ``_zone_starts`` make a valid ``Interval``, so its checks are skipped."""
    if nxt is None:
        return _new(Interval, (first >> 1, False, INF, False))
    return _new(Interval, (first >> 1, not first & 1, nxt >> 1, nxt & 1 == 1))


class ZoneIndex:
    """The zone automaton numbered for the duration search.

    Extended states get ids ``0..n-1`` in ``ext_sort_key`` order, each
    state's zones consecutive and ascending.  Every table is a list indexed
    by id:

    - ``ext``: the ExtendedState of each id, the only stored form of its
      zone (equal zones are one ``Interval`` object); ``id_of`` maps it
      back, built on first read (the build interns the initial support
      with its ids, so serving it needs no map);
    - ``tau``: the id of the time-elapse successor, -1 for the unbounded zone;
    - ``events``: one entry ``(label, key, resets_clock, Transition)`` per
      transition enabled in the zone, in the order of the model's
      transitions, and ``silent``: those whose label is unobservable, in
      the same order; an id with no entry holds the empty tuple.  The
      ``key`` is that of the run of target ids (see below): a
      clock-resetting transition leads to every zone of its reset range,
      which are consecutive ids of its target state, and a clock-preserving
      one to the single id of the same zone there, its own key.

    These tables are the only stored form of the edges, so their size
    follows the transitions, not the product of guard and reset zones:
    ``ZoneAutomaton.edges`` expands them into ``Edge`` objects.

    ``ids`` maps each state to the range of its ids.

    ``stretches`` holds the stretch table of each root, over silent moves
    (``stretches[False]``, read by the estimation memo's search and
    fixpoint) and over all events (``stretches[True]``, read only by
    ``t_reachable``'s search); each is filled on first use by ``stretch``.
    A root is a run ``(a, b)`` of consecutive ids of one state: a stretch
    beginning with the clock anywhere in the zones of ``a..b``.  Resets
    enter runs, and a belief support starts one run per maximal block of
    consecutive ids of a state; a single id ``j`` is the run ``(j, j)``.
    A run is keyed by the int ``a + n*(b - a)`` (``n`` ids), so the key of
    ``(j, j)`` is ``j``; ``run`` maps a key back.

    A reset-free stretch reaches the ids linked to a member by ``tau``
    steps and clock-preserving edges.  Its table, silent or all-events, has
    one entry ``(s, d_lo, d_lo_closed, d_hi, d_hi_closed, resets)`` per
    such id ``s``: the durations from the run to ``s`` and the reset runs
    out of ``s``.  No table records how ``s`` was reached: a witness
    traces its own path (``estimation._path``).  The members that reach
    ``s`` are a prefix ``a..top`` (the clock only rises within a
    stretch, and a member reaches the next one by ``tau``), so the
    durations are the distance range from the hull of the zones of
    ``a..top`` to ``s``'s zone, which is the union of the members' own
    ranges.  Entries are sorted by the lower end of the distance, open
    after closed, which only grows along a stretch.  The reset runs out of
    ``s`` are its ``events`` (or ``silent``) entries that reset the clock;
    ``resets`` keeps them per id met, per mode.

    ``walk`` builds a table's entries in one pass, one loop for either move
    set.  It goes breadth first from each member, the highest first, marks
    the ids met in a set, and skips the scan for clock-preserving edges at
    an id whose moves all reset the clock.  Each entry's distance is
    written out, not asked of ``intervals.distance``, and it is exact
    because the clock only rises within a stretch.  The zone of an id met
    from member ``j`` is ``j``'s own, or follows it by ``tau`` steps (a
    clock-preserving edge keeps the zone), so it never lies below the hull
    ``lo..top`` of the members ``a..j``.  So the lower end is a closed 0
    when the zone meets the hull, else the gap from ``top`` to the zone,
    closed when both ends are.  The upper end is the zone's far end minus
    ``lo``, closed when both of those are, since that difference is never
    below ``top`` minus the zone's near end.

    ``rows``, ``cells``, ``supports``, ``masks`` and ``targets`` are the
    estimation memo, filled on first use by ``zonewatch.estimation``.  Id
    sets are int bit masks over the ids (bit ``i`` for id ``i``).  ``rows``
    maps a belief support to what it reaches in each unit cell of elapsed
    time; ``cells`` maps each id mask a row fill met, and each id set a
    search met, to its one shared cell; ``supports`` maps each support met
    to ``(its one shared frozenset, its ids ascending)`` and ``masks`` each
    one's id mask to that frozenset, so that lookups of equal supports are
    identity hits, a successor met before builds no frozenset, and a
    support's row reads its ids without hashing its extended states again;
    ``targets`` maps an observable event to a list, per id, of the id mask
    that event leads to, each computed on first use (None until then).
    ``width`` is the cells' dependency width, set on first use (0 until
    then).

    ``cell_tables`` and ``shifts`` are the caches of the cell-mask
    fixpoint, also filled on first use by ``zonewatch.estimation``:
    ``cell_tables`` maps a root to its silent stretch table in cell form
    (each distinct window as cell shifts, with the reset runs and the ids
    it reaches), made from the rows of its silent ``walk`` in the order
    met, and ``shifts`` maps a window to its cell shifts.  The fixpoint
    itself runs once per support and cut, over all of the support's start
    runs at once, and keeps nothing else: a filled row holds its answer.
    """

    __slots__ = (
        "ext", "_id_of", "ids", "tau", "events", "silent", "stretches", "resets", "rows",
        "cells", "supports", "masks", "targets", "width", "cell_tables", "shifts",
    )

    def __init__(self) -> None:
        self.ext: list[ExtendedState] = []
        self._id_of: Optional[dict[ExtendedState, int]] = None
        self.ids: dict[str, range] = {}
        self.tau: list[int] = []
        self.events: list = []
        self.silent: list = []
        self.stretches: tuple[dict, dict] = ({}, {})
        self.resets: tuple[dict, dict] = ({}, {})
        self.rows: dict = {}
        self.cells: dict = {}
        self.supports: dict = {}
        self.masks: dict = {}
        self.targets: dict = {}
        self.width = 0
        self.cell_tables: dict = {}
        self.shifts: dict = {}

    @property
    def id_of(self) -> dict[ExtendedState, int]:
        """The id of each extended state, the inverse of ``ext``, built on
        first read."""
        id_of = self._id_of
        if id_of is None:
            id_of = self._id_of = dict(zip(self.ext, range(len(self.ext))))
        return id_of

    def run(self, key: int) -> tuple[int, int]:
        """The run ``(a, b)`` of a key."""
        span, a = divmod(key, len(self.ext))
        return a, a + span

    def start_runs(self, ids) -> list[int]:
        """The keys of the maximal runs of consecutive ids of one state
        among ``ids``, ascending."""
        return self.runs_of(sorted(set(ids)))

    def runs_of(self, ids: list[int]) -> list[int]:
        """``start_runs`` of ids that are ascending and distinct already, as
        a support's ids are: one pass, no sort."""
        tau, n = self.tau, len(self.ext)
        keys: list[int] = []
        prev = -1
        for i in ids:
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

    def walk(self, key: int, all_events: bool) -> list[tuple]:
        """The rows of the run ``key``'s stretch table (see the class
        docstring), in the order the walk meets their ids: what ``_fill``
        sorts, and what the estimation memo's cell-form table reads."""
        ext, tau = self.ext, self.tau
        moves = self.events if all_events else self.silent
        resets = self.resets[all_events]
        a, b = self.run(key)
        lo, lo_closed = ext[a][1][:2]
        seen: set = set()
        rows = []
        # Breadth first from each member, the highest first: an id that a
        # lower member meets again, and all it leads to, was reached by a
        # higher one, and ``j`` is the largest member reaching what it
        # reaches first.  The hull of the members ``a..j`` is ``lo..top``,
        # and each row's distance from it is written out, as the class
        # docstring explains.
        for j in range(b, a - 1, -1):
            top, top_closed = ext[j][1][2:]
            seen.add(j)
            order = [j]
            for s in order:  # ``order`` grows as it is walked
                out = moves[s]
                runs = resets.get(s)
                if runs is None:
                    runs = resets[s] = tuple(filter(_resets_clock, out))
                z_lo, z_lc, z_hi, z_hc = ext[s][1]
                if z_lo > top or (z_lo == top and not (top_closed and z_lc)):
                    rows.append((s, z_lo - top, top_closed and z_lc, z_hi - lo, z_hc and lo_closed, runs))
                else:
                    rows.append((s, 0, True, z_hi - lo, z_hc and lo_closed, runs))
                nxt = tau[s]
                if nxt >= 0 and nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
                if len(runs) != len(out):  # else every move resets the clock
                    for edge in out:
                        if not edge[2] and edge[1] not in seen:
                            seen.add(edge[1])
                            order.append(edge[1])
        return rows

    def _fill(self, key: int, all_events: bool) -> tuple:
        table = self.walk(key, all_events)
        # By ``2*lo + (lo open)``, closed before open at one ``lo``; the
        # sort is stable, so rows of one key keep the order they were met in.
        table.sort(key=lambda row: 2 * row[1] + (not row[2]))
        return tuple(table)


@dataclass(frozen=True)
class ZoneAutomaton:
    """NFA over extended states with time-elapse and event edges."""

    initial: frozenset[ExtendedState]
    diagnostics: tuple[str, ...] = ()
    index: ZoneIndex = field(default_factory=ZoneIndex, repr=False, compare=False)

    @cached_property
    def states(self) -> frozenset[ExtendedState]:
        """Every extended state, made from ``index.ext`` on first use."""
        return frozenset(self.index.ext)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """Every time-elapse and event edge, expanded from ``index`` on first
        use; the order is unspecified."""
        ix = self.index
        ext = ix.ext
        out = [Edge(ext[i], TAU, ext[j], None) for i, j in enumerate(ix.tau) if j >= 0]
        for i, moves in enumerate(ix.events):
            for label, key, _, t in moves:
                a, b = ix.run(key)
                out += [Edge(ext[i], label, ext[j], t) for j in range(a, b + 1)]
        return tuple(out)

    def zones(self, state: str) -> tuple[Interval, ...]:
        """The zones of a state, ascending: its slice of ``index.ext``."""
        ids = self.index.ids[state]
        return tuple([v.zone for v in self.index.ext[ids.start : ids.stop]])

    def zone_of(self, state: str, clock) -> Interval:
        for z in self.zones(state):
            if clock in z:
                return z
        raise ValueError(f"no zone of {state!r} contains {clock}")  # unreachable: zones partition


def build_zone_automaton(model: TFA) -> ZoneAutomaton:
    """Construct the zone automaton of a well-formed model, with its index.

    Event edges follow each transition from every source zone inside its
    guard: a clock-resetting transition leads to every target zone inside
    its reset range, while a clock-preserving one keeps the zone unchanged.
    Each source zone stores one entry per transition, and a resetting
    transition's entry holds the run key of its target zones, so the build
    does not fan out the product of guard and reset zones.  One pass over
    the transitions appends each entry to its source id's ``events`` list,
    and to its ``silent`` list when the label is unobservable, so both keep
    the order of ``model.transitions``; an id with no entry keeps the shared
    empty tuple.  A clock-preserving edge whose zone is missing at the
    target state is dropped and reported as a diagnostic.  Each distinct
    zone ``Interval`` is made once from its cells and stored only in the
    ``ExtendedState`` objects of ``ZoneIndex.ext``, and no ``Edge`` object
    and no reverse map ``ZoneIndex.id_of`` is made until it is read: the
    initial support is interned in the estimation memo with its ids, the
    first id of each initial state.  The model is validated first, so the
    build reads each transition once, by unpacking, and checks nothing
    again.
    """
    require_valid(model)
    starts = _zone_starts(model)
    ix = ZoneIndex()
    ext, tau, ids = ix.ext, ix.tau, ix.ids
    made: dict[tuple, Interval] = {}  # (first cell, next zone's first cell or None) -> zone
    at: dict[str, tuple[int, list[int]]] = {}  # state -> (its first id, its zone starts)
    for x in sorted(starts):
        cells = starts[x]
        first = len(ext)
        at[x] = (first, cells)
        for key in zip(cells, cells[1:] + [None]):
            z = made.get(key)
            if z is None:
                z = made[key] = _zone(*key)
            ext.append(_new(ExtendedState, (x, z)))
        ids[x] = range(first, len(ext))
        tau += range(first + 1, len(ext))
        tau.append(-1)
    n = len(ext)

    # A guard is cut into zones at its source state and a reset range at its
    # target state, so the zones inside either are those whose first cell
    # lies in the range: one bisection per end.
    events: list = [()] * n
    silent: list = [()] * n
    observable = model.observable
    by_zone: dict[str, dict[Interval, int]] = {}  # state -> zone -> id
    diagnostics: list[str] = []
    for t in model.transitions:
        source, event, target, (lo, _, hi, _), reset = t
        first, cells = at[source]
        a = first + bisect_left(cells, 2 * lo)
        b = first + bisect_right(cells, 2 * hi)
        tables = (events,) if event in observable else (events, silent)
        if reset != ID_RESET:
            first, cells = at[target]
            lo, _, hi, _ = reset
            c = first + bisect_left(cells, 2 * lo)
            entry = (event, c + n * (first + bisect_right(cells, 2 * hi) - c - 1), True, t)
            for table in tables:
                for src in range(a, b):
                    moves = table[src]
                    if moves:
                        moves.append(entry)
                    else:
                        table[src] = [entry]
            continue
        same = by_zone.get(target)
        if same is None:
            same = by_zone[target] = {ext[i].zone: i for i in ids[target]}
        for src in range(a, b):
            i = same.get(ext[src].zone)
            if i is None:
                diagnostics.append(
                    f"clock-preserving transition {t}: source zone {ext[src].zone} "
                    f"is not a zone of {target!r}"
                )
                continue
            entry = (event, i, False, t)
            for table in tables:
                moves = table[src]
                if moves:
                    moves.append(entry)
                else:
                    table[src] = [entry]
    ix.events, ix.silent = events, silent
    start = sorted(ids[x].start for x in model.initial)
    initial = frozenset([ext[i] for i in start])
    ix.supports[initial] = (initial, start)
    ix.masks[sum(1 << i for i in start)] = initial
    return ZoneAutomaton(
        initial=initial,
        diagnostics=tuple(diagnostics),
        index=ix,
    )


def _dot_string(text: str) -> str:
    """``text`` as a DOT quoted string: a backslash or a double quote in a
    state or event name would otherwise end the string or escape its
    closing quote."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(za: ZoneAutomaton) -> str:
    """Render the zone automaton as Graphviz DOT with deterministic ordering:
    nodes and edges in id order, which is ``ext_sort_key`` order, edges by
    source, label and target."""
    ix = za.index
    names = [_dot_string(f"{v.state} {v.zone}") for v in ix.ext]
    lines = ["digraph zone_automaton {", "  rankdir=LR;"]
    for i, v in enumerate(ix.ext):
        attrs = " shape=doublecircle" if v in za.initial else ""
        lines.append(f"  {names[i]}{attrs};")
    edges = [(i, TAU, j) for i, j in enumerate(ix.tau) if j >= 0]
    for i, moves in enumerate(ix.events):
        for label, key, _, _ in moves:
            a, b = ix.run(key)
            edges += [(i, label, j) for j in range(a, b + 1)]
    edges.sort()
    for i, label, j in edges:
        if label == TAU:
            lines.append(f"  {names[i]} -> {names[j]} [style=dashed];")
        else:
            lines.append(f"  {names[i]} -> {names[j]} [label={_dot_string(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
