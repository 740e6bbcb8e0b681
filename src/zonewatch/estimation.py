"""State estimation over the zone automaton.

The central routine explores runs of the zone automaton while tracking the
exact window of total elapsed times each run can realize.  A run alternates
time elapse inside a state (``tau`` steps) with event steps.  Clock-resetting
events decouple the clock from the past, so durations compose by interval
addition across them.  Clock-preserving events do not: the clock keeps
running through them, so the whole stretch between two resets contributes a
single distance range from the interval where the stretch began to the
interval where it ends.  Collapsing each stretch to one distance is what
keeps the windows exact; summing per-segment (or per-edge) distances would
over-approximate.

The search runs over stretches, not single steps.  Everything a stretch
can reach depends only on the id where it starts (its root), so the integer
index the zone automaton carries (``ZoneIndex``) keeps one table per root,
filled on first use: each id the stretch reaches, its distance range from
the root's zone and the resetting edges out of it.  A queue item is a root
with the range sum of the stretches completed before it; expanding it scans
the root's table, and each resetting edge out of a reached id queues a new
root.  Windows are range tuples (see ``intervals``).  Ids are mapped back to
extended states only for answers and witness paths.

Every window has integer endpoints, so between two observations the answer
depends only on the belief support and on the unit cell of the elapsed time
(the point ``[k,k]`` or the segment ``(k,k+1)``).  ``estimate``, the belief
functions, ``lambda_estimation`` and the offline observer all read one memo
kept on the index: per support a row of cells (``Cell``), each holding the
ids reached and, computed on first use, their ``Estimate`` and the successor
support per observable event.  An op finds its cell with ``_gap_cell``, in
integer arithmetic on the numerators and denominators of its time and the
anchor, so a warm op makes, subtracts and compares no ``Fraction`` between
its timestamp and the memo read.  A miss at a small elapsed time runs the
search for that one cell.  A miss past twice the first cut of
``_duration_cells``, a fixpoint over bit masks of unit cells on the same
stretch tables, fills the support's whole row up to its certified periodic
tail, after which every elapsed time of that support is a row read.  So the
memo holds at most ``max(8w, start + period)`` cells per support (``w`` the
fixpoint's dependency width), whatever the stream's length.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .intervals import (
    INF,
    Interval,
    Rational,
    add,
    distance,
    format_time,
    intersect,
    pick,
    shift,
    sub_from,
)
from .model import TAU, TFA, TimedObservation, TimedRun, RunStep, require_valid
from .zones import ExtendedState, ZoneAutomaton, ext_sort_key


class InvariantError(RuntimeError):
    """An internal invariant of the estimator or the oracle failed; the
    answer is not trusted."""


@dataclass(frozen=True)
class Estimate:
    """The extended states consistent with an observation, and their states."""

    extended: frozenset[ExtendedState]
    discrete: frozenset[str]

    @staticmethod
    def from_extended(extended: Iterable[ExtendedState]) -> "Estimate":
        ext = frozenset(extended)
        return Estimate(extended=ext, discrete=frozenset(v.state for v in ext))

    @property
    def empty(self) -> bool:
        return not self.extended

    def to_json_dict(self, anchor: Rational = 0) -> dict:
        return {
            "discrete": sorted(self.discrete),
            "extended": [[v.state, str(v.zone)] for v in sorted(self.extended, key=ext_sort_key)],
            "anchor": format_time(anchor),
        }


# -- duration-tracking search -------------------------------------------------

# A queue item: the root id of a reset-free stretch, then the (capped) range
# sum ``lo, lo_closed, hi, hi_closed`` of the stretches completed before it.
_Item = tuple[int, int, bool, int, bool]

_ZERO = (0, True, 0, True)


@dataclass
class _SearchOutcome:
    hits: set  # ids of the extended states where dt is realizable
    # _Item -> (parent _Item, position of the exit entry in the parent's
    # stretch table, reset edge), or None at a start.
    parents: dict
    goal: Optional[tuple[_Item, int]]  # the goal hit: item and table position
    # Counters: distinct roots queued; table entries expanded (they passed
    # the lower-bound test); table scans cut by that test; reset steps whose
    # sum was capped; the largest queue.
    pushed: int
    expanded: int
    pruned: int
    capped: int
    max_queue: int


def _duration_reach(
    za: ZoneAutomaton,
    starts: Iterable[int],
    dt: Fraction,
    all_events: bool = False,
    goal_ids: Sequence[int] = (),
) -> _SearchOutcome:
    """All extended-state ids reachable from ``starts`` by a run of duration
    ``dt`` over silent events (over every event with ``all_events``).  The
    search stops at the first entry realizing ``dt`` at an id in ``goal_ids``.

    A queue item is a stretch root ``r`` with the sum ``acc`` of the
    completed stretches; the window of an entry ``(s, d)`` of ``r``'s
    stretch table (``ZoneIndex.stretch``) is ``acc (+) d``.  Windows whose
    lower bound already exceeds ``dt`` can never recover, and the table is
    sorted by the lower end of ``d``, so the scan stops at the first such
    entry.  Each clock-resetting edge out of an expanded entry queues its
    target with the entry's window as the new sum, capped just above
    ``ceil(dt)``, which preserves membership of ``dt`` and makes the item
    space finite even under unobservable cycles.  Window endpoints are
    integers (or an infinite upper end), since zones have integer endpoints,
    so they are compared with ``floor(dt)`` and whether ``dt`` is an integer.
    """
    ix = za.index
    tables = ix.stretches[all_events]
    p, q = dt.numerator, dt.denominator
    floor, exact = p // q, q == 1
    ceiling = -(-p // q)
    seen: dict = {}
    queue: deque = deque()
    for s in starts:
        item = (s, 0, True, 0, True)
        if item not in seen:
            seen[item] = None
            queue.append(item)

    hits: set = set()
    goal: Optional[tuple[_Item, int]] = None
    expanded = pruned = capped = max_queue = 0
    while queue and goal is None:
        if len(queue) > max_queue:
            max_queue = len(queue)
        item = queue.popleft()
        r, a_lo, a_lc, a_hi, a_hc = item
        table = tables[r] or ix.stretch(r, all_events)
        for k, (s, d_lo, d_lc, d_hi, d_hc, resets, _, _) in enumerate(table):
            lo = a_lo + d_lo
            lo_c = a_lc and d_lc
            if lo > floor or (lo == floor and exact and not lo_c):
                pruned += 1
                break
            expanded += 1
            hi = a_hi + d_hi
            hi_c = a_hc and d_hc
            if hi > floor or (hi == floor and exact and hi_c):
                hits.add(s)
                if s in goal_ids:
                    goal = (item, k)
                    break
            if resets:
                if hi > ceiling:
                    capped += len(resets)
                    hi, hi_c = ceiling + 1, True
                for edge in resets:
                    child = (edge[1], lo, lo_c, hi, hi_c)
                    if child not in seen:
                        seen[child] = (item, k, edge)
                        queue.append(child)
    return _SearchOutcome(hits, seen, goal, len(seen), expanded, pruned, capped, max_queue)


# -- duration cells -------------------------------------------------------------
#
# Every window has integer endpoints (or an infinite upper end), so the
# durations at which an id is reachable form a union of unit cells: the point
# ``[k,k]`` is cell ``2k`` and the segment ``(k,k+1)`` cell ``2k+1``.  A set
# of cells is a Python int bit mask.  Adding a window ``d`` to cell ``2k``
# gives the cells ``2k + 2*d_lo + (d_lo open)`` through ``2k + 2*d_hi - (d_hi
# open)``, and to cell ``2k+1`` the cells ``2k+1 + 2*d_lo`` through ``2k+1 +
# 2*d_hi``, so adding a window to a mask is two shift-and-smears.


def _smear(mask: int, lo: int, hi: Optional[int], full: int) -> int:
    """The cells ``c + j`` for each cell ``c`` of ``mask`` and ``lo <= j <=
    hi`` (every ``j >= lo`` when ``hi`` is None), cut to the cells of
    ``full``; in O(log(hi - lo)) big-int operations."""
    if not mask:
        return 0
    if hi is None:
        first = (mask & -mask).bit_length() - 1 + lo
        return full >> first << first
    mask = (mask << lo) & full
    width, n = 1, hi - lo + 1
    while width < n:
        step = min(width, n - width)
        mask = (mask | mask << step) & full
        width += step
    return mask


def _add_window(mask: int, d: Sequence, even: int, full: int) -> int:
    """The cells of ``mask`` plus the window ``d``, cut to the cells of
    ``full``; ``even`` has the even cells of ``full``."""
    d_lo, d_lc, d_hi, d_hc = d
    if not isinstance(d_lo, int) or not (d_hi == INF or isinstance(d_hi, int)):
        raise InvariantError(f"duration window ({d_lo}, {d_hi}) has a non-integer endpoint")
    if d_hi == INF:
        e_hi = o_hi = None
    else:
        e_hi, o_hi = 2 * d_hi - (not d_hc), 2 * d_hi
    e_lo, o_lo = 2 * d_lo + (not d_lc), 2 * d_lo
    if e_lo == o_lo and e_hi == o_hi:  # a closed window shifts both parities alike
        return _smear(mask, e_lo, e_hi, full)
    return _smear(mask & even, e_lo, e_hi, full) | _smear(mask & ~even, o_lo, o_hi, full)


def _reach_cells(ix, starts: Iterable[int], limit: int) -> tuple[dict, dict]:
    """The cells ``0..limit`` of every silent duration from ``starts``: the
    mask of each stretch root (the durations at which a stretch can begin
    there) and of each reached id, both keyed by id.

    A worklist fixpoint over root masks: start roots hold cell 0, and
    expanding a root adds each entry's window to the bits the root gained
    since its last expansion, into the mask of each reset target.  A target
    is queued again only when its mask gains bits.  Cutting at ``limit`` is
    exact for every cell up to ``limit``, since durations only grow.
    """
    full = (2 << limit) - 1
    even = ((1 << 2 * (limit // 2 + 1)) - 1) // 3  # 0b0101...01
    tables = ix.stretches[False]
    roots = dict.fromkeys(starts, 1)
    pending = dict(roots)  # root -> bits not yet expanded
    while pending:
        r, delta = pending.popitem()
        for _, *d, resets, _, _ in tables[r] or ix.stretch(r, False):
            if not resets:
                continue
            cells = _add_window(delta, d, even, full)
            for edge in resets:
                old = roots.get(edge[1], 0)
                gain = cells & ~old
                if gain:
                    roots[edge[1]] = old | gain
                    pending[edge[1]] = pending.get(edge[1], 0) | gain
    hits: dict = {}
    for r, mask in roots.items():
        for s, *d, _, _, _ in tables[r]:
            cells = _add_window(mask, d, even, full)
            if cells:
                hits[s] = hits.get(s, 0) | cells
    return roots, hits


def _root_period(roots: dict, w: int, limit: int) -> Optional[tuple[int, int]]:
    """A cell ``a`` and an even period ``p`` with ``m(c) = m(c + p)`` for
    every root mask ``m`` and every cell ``c >= a``, certified from the cells
    ``0..limit``; None when no ``p`` up to half the slack certifies.

    Cell ``c`` of every root mask is fixed by the cells ``c-w..c-1`` of all
    root masks, whether each root has a bit below ``c-w``, and the parity of
    ``c``: finite windows are at most ``(w-2)/2`` long, and an unbounded
    window starts at most ``w-1`` cells on.  So if that state is the same at
    ``a + w`` and ``a + w + p``, with ``p`` even, it is the same ``p`` cells
    apart from then on.  Every root's lowest bit must lie below ``a``, or
    the has-a-bit-below flags would differ.
    """
    low = max(((m & -m).bit_length() for m in roots.values()), default=0)
    for p in range(2, (limit - w) // 2 + 1, 2):
        last = limit + 1 - w - p  # the largest ``a`` the cut can certify
        if low > last:
            break
        diff = 0
        for m in roots.values():
            diff |= (m ^ (m >> p)) & ((1 << (limit + 1 - p)) - 1)
            if diff >> last:
                break
        else:
            return max(low, diff.bit_length()), p
    return None


# The fixpoint gives up when the cut would pass this many cells (or 16 times
# the dependency width, for large constants): the cost of a cut grows with
# its square in the worst case, and only silent cycles of exact, mutually
# prime durations push the period this far.
_MAX_CUT = 1 << 16


def _width(ix) -> int:
    """The dependency width of the cells, ``2M + 2`` for the largest finite
    zone endpoint ``M``, which is at most the largest lower end."""
    return 2 * max(z.lo for z in ix.ranges) + 2


def _duration_cells(za: ZoneAutomaton, starts: Iterable[int]) -> tuple[dict, int, int]:
    """Every silent duration from ``starts`` at once, as ``(hits, start,
    period)``: ``hits`` maps each reachable id to the mask of the cells
    ``0..start+period-1`` at which it is reachable, and cell ``c >= start``
    answers as cell ``start + (c - start) % period``.

    Runs the fixpoint of ``_reach_cells`` to a cut, doubling the cut until
    the root masks certify a periodic tail (they must: the state behind a
    cell takes finitely many values).  A reached id's cell depends on the
    root masks the same way a root's does, so the hit masks repeat from
    ``w`` cells after the roots do.  The period is then cut to the smallest
    divisor of ``p`` and the start moved back as far as the hit masks allow.
    Raises ``InvariantError`` on a window with a non-integer endpoint.
    """
    ix = za.index
    starts = list(starts)
    w = _width(ix)
    limit = 4 * w
    while True:
        roots, hits = _reach_cells(ix, starts, limit)
        tail = _root_period(roots, w, limit)
        if tail is not None:
            break
        limit *= 2
        if limit > max(_MAX_CUT, 16 * w):
            raise ValueError(
                f"no periodic tail of the silent durations within {limit // 2} cells: "
                "exact-duration silent cycles make the period too long to tabulate"
            )
    start, p = tail[0] + w, tail[1]
    period = next(
        q
        for q in range(1, p + 1)
        if p % q == 0
        and not any((h ^ (h >> q)) >> start & ((1 << (p - q)) - 1) for h in hits.values())
    )
    diff = 0
    for h in hits.values():
        diff |= (h ^ (h >> period)) & ((1 << start) - 1)
    start = diff.bit_length()
    cut = (1 << (start + period)) - 1
    return {s: h & cut for s, h in hits.items() if h & cut}, start, period


def _ids(za: ZoneAutomaton, support: Iterable[ExtendedState]) -> list[int]:
    """Ids of extended states, ascending (which is ``ext_sort_key`` order)."""
    id_of = za.index.id_of
    try:
        return sorted(id_of[v] for v in support)
    except KeyError as exc:
        raise ValueError(f"unknown extended state {exc.args[0]}") from None


# -- the cell memo ---------------------------------------------------------------


class Cell:
    """What a belief support reaches in one unit cell of elapsed time: the
    ids ``reached`` and, each computed on first use, their ``estimate`` and
    the support after each observable event (``successor``, cached in
    ``successors``).  Equal reached sets share one cell, and equal
    successor supports one frozenset (``ZoneIndex.supports``)."""

    def __init__(self, reached: frozenset[int], ix):
        self.reached = reached
        self.successors: dict = {}  # event -> support
        self._ext, self._events, self._supports = ix.ext, ix.events, ix.supports

    @cached_property
    def estimate(self) -> Estimate:
        return Estimate.from_extended(self._ext[i] for i in self.reached)

    def successor(self, event: str) -> frozenset[ExtendedState]:
        """The support just after observing ``event`` in this cell."""
        nxt = self.successors.get(event)
        if nxt is None:
            ext, events = self._ext, self._events
            nxt = frozenset(ext[e[1]] for i in self.reached for e in events[i] if e[0] == event)
            nxt = self.successors[event] = self._supports.setdefault(nxt, nxt)
        return nxt


class _Row:
    """The memo of one belief support.  ``tail`` is None while ``cells`` is
    a dict of the cells met so far by index; ``(start, period)`` once the row
    is total and ``cells`` the tuple of its first ``start + period`` cells;
    False when the fixpoint found no tail it could tabulate."""

    __slots__ = ("ids", "cells", "tail")

    def __init__(self, ids: list[int]):
        self.ids = ids
        self.cells: dict | tuple = {}
        self.tail: Optional[tuple[int, int]] | bool = None


def _cell_index(t: Fraction) -> int:
    """The unit cell holding time ``t``: ``[k,k]`` is cell ``2k``, ``(k,k+1)``
    cell ``2k+1``.  The tests' reference for ``_gap_cell``."""
    return 2 * (t.numerator // t.denominator) + (t.denominator != 1)


def _exact(t: Rational) -> Rational:
    """``t`` itself when it is a ``Fraction`` or an ``int``, else ``Fraction(t)``."""
    return t if isinstance(t, (Fraction, int)) else Fraction(t)


def _gap_cell(time: Rational, anchor: Rational, message: str = "elapsed time must be non-negative") -> int:
    """The unit cell of ``time - anchor`` (both a ``Fraction`` or an
    ``int``), in integer arithmetic: no ``Fraction`` is made or compared.
    Raises ``ValueError(message)`` when ``time`` precedes ``anchor``."""
    p, q = time.numerator, time.denominator
    r, s = anchor.numerator, anchor.denominator
    if q == s:
        n, d = p - r, q
    else:
        n, d = p * s - r * q, q * s
    if n < 0:
        raise ValueError(message)
    k, m = divmod(n, d)
    return 2 * k + (m != 0)


def _intern(ix, reached: Iterable[int]) -> Cell:
    reached = frozenset(reached)
    cell = ix.cells.get(reached)
    if cell is None:
        cell = ix.cells[reached] = Cell(reached, ix)
    return cell


def _row(za: ZoneAutomaton, support: frozenset[ExtendedState]) -> _Row:
    rows = za.index.rows
    row = rows.get(support)
    if row is None:
        row = rows[support] = _Row(_ids(za, support))
        za.index.supports.setdefault(support, support)
    return row


def _fill(za: ZoneAutomaton, row: _Row) -> None:
    """Make ``row`` total from one ``_duration_cells``; raises ``ValueError``
    when the durations have no tail it can tabulate."""
    hits, start, period = _duration_cells(za, row.ids)
    ix = za.index
    row.cells = tuple(
        _intern(ix, [s for s, mask in hits.items() if mask >> i & 1]) for i in range(start + period)
    )
    row.tail = (start, period)


def _cell(za: ZoneAutomaton, support: frozenset[ExtendedState], i: int) -> Cell:
    """The cell answering every elapsed time in unit cell ``i`` (see
    ``_gap_cell``) after ``support`` was formed.

    A miss runs the search at ``i/2``, which lies in cell ``i``; the search
    reads only the floor, the ceiling and the integrality of the time, which
    are the same for every time in the cell.  A miss below cell ``8w``
    (``4w`` time units, twice the fixpoint's first cut; ``w`` is the
    dependency width) runs the duration search for that one cell and stores
    it: a short gap costs one search, never a fixpoint.
    A miss at or past it fills the whole row, since the search grows with
    ``dt`` and the fixpoint does not.  If the fixpoint refuses,
    the search answers and the cell is not stored, so a row never holds more
    than ``max(8w, start + period)`` cells.
    """
    row = _row(za, support)
    if not row.tail:
        cell = row.cells.get(i)
        if cell is not None:
            return cell
        below = i < 8 * _width(za.index)
        if not below and row.tail is None:
            try:
                _fill(za, row)
            except ValueError:
                row.tail = False
        if not row.tail:
            cell = _intern(za.index, _duration_reach(za, row.ids, Fraction(i, 2)).hits)
            if below:
                row.cells[i] = cell
            return cell
    start, period = row.tail
    return row.cells[i if i < start else start + (i - start) % period]


def _total_row(za: ZoneAutomaton, support: frozenset[ExtendedState]) -> tuple[tuple, tuple[int, int]]:
    """The total row of ``support``, filling it if need be: its first
    ``start + period`` cells and ``(start, period)``.  Raises ``ValueError``
    when the durations have no tail the fixpoint can tabulate."""
    row = _row(za, support)
    if not row.tail:
        _fill(za, row)
    return row.cells, row.tail


# -- lambda-estimation -------------------------------------------------------


def lambda_estimation(
    za: ZoneAutomaton, model: TFA, v: ExtendedState, dt: Rational
) -> frozenset[ExtendedState]:
    """Extended states reachable from ``v`` in exactly ``dt`` time units while
    producing no observation."""
    i = _gap_cell(_exact(dt), 0)
    if v not in za.states:
        raise ValueError(f"unknown extended state {v}")
    return _cell(za, frozenset((v,)), i).estimate.extended


# -- T-reachability with witnesses --------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A zone-automaton run witnessing T-reachability, plus a concrete replay.

    ``steps`` lists the labels along the run; ``run`` is a legal timed run of
    the underlying model realizing the duration (``run`` ends at the last
    event; ``trailing_dwell`` is the remaining wait at the final state)."""

    start: ExtendedState
    steps: tuple[tuple[str, ExtendedState], ...]
    duration: Fraction
    run: TimedRun
    trailing_dwell: Fraction
    final_zone: Interval

    def describe(self) -> str:
        bits = [str(self.start)]
        for label, v in self.steps:
            bits.append(f"-{label}-> {v}")
        lines = ["zone run: " + " ".join(bits)]
        lines.append(f"timed run: {self.run}")
        lines.append(
            f"then wait {format_time(self.trailing_dwell)} "
            f"(total duration {format_time(self.duration)})"
        )
        return "\n".join(lines)


def t_reachable(
    za: ZoneAutomaton,
    model: TFA,
    source: str,
    target: str,
    duration: Rational,
) -> tuple[bool, Optional[Witness]]:
    """Decide whether ``target`` can be reached from ``source`` (starting at
    any clock value) by an evolution of exactly the given duration, over any
    events.  On success, also return a witness with a concrete legal run."""
    duration = Fraction(duration)
    if duration < 0:
        raise ValueError("duration must be non-negative")
    for x in (source, target):
        if x not in model.states:
            raise ValueError(f"unknown state {x!r}")
    ix = za.index
    outcome = _duration_reach(
        za, ix.ids[source], duration, all_events=True, goal_ids=ix.ids[target]
    )
    if outcome.goal is None:
        return False, None
    return True, _realize(_unwind(za, outcome.parents, outcome.goal), duration)


def _unwind(
    za: ZoneAutomaton, parents: dict, goal: tuple[_Item, int]
) -> list[tuple[ExtendedState, Optional[tuple]]]:
    """The zone path of an all-events search ending at table entry ``goal``:
    each extended state with the ``(label, Transition or None)`` step that
    entered it (None at the start).  Follows the entry predecessors back to
    each stretch root and the parent links from root to root."""
    ix = za.index
    ext = ix.ext
    chain: list[tuple[ExtendedState, Optional[tuple]]] = []
    item, k = goal
    while True:
        table = ix.stretch(item[0], True)
        row_of = {row[0]: row for row in table}
        s, *_, pred, edge = table[k]
        while pred >= 0:
            chain.append((ext[s], (TAU, None) if edge is None else (edge[0], edge[3])))
            s, *_, pred, edge = row_of[pred]
        link = parents[item]
        if link is None:
            chain.append((ext[s], None))
            break
        item, k, edge = link
        chain.append((ext[s], (edge[0], edge[3])))
    chain.reverse()
    return chain


def _realize(path: Sequence[tuple[ExtendedState, Optional[tuple]]], total: Fraction) -> Witness:
    """Extract a concrete legal timed run from a zone-run search path.

    First splits the path into reset-free stretches and fixes each stretch's
    duration so they sum to ``total`` (always feasible: the search certified
    ``total`` is in the interval sum of the stretch windows).  Then picks the
    entry clock of each stretch and monotone firing clocks for the
    clock-preserving events inside it.  Raises ``InvariantError`` when a
    choice is infeasible, which means the path was not certified for ``total``.
    """
    start = path[0][0]
    steps_out = tuple((action[0], v) for v, action in path[1:])

    # Split into stretches: (entry zone, [(event, firing zone, target state)...],
    # exit zone, terminal reset transition or None).
    stretches: list[dict] = []
    cur = {"entry": start.zone, "events": [], "exit": start.zone, "state0": start.state}
    for (v, action), (prev, _) in zip(path[1:], path[:-1]):
        label, tr = action
        if label == TAU:
            cur["exit"] = v.zone
        elif tr is not None and tr.resets_clock:
            cur["exit"] = prev.zone
            cur["terminal"] = (label, v.state)
            stretches.append(cur)
            cur = {"entry": v.zone, "events": [], "exit": v.zone, "state0": v.state}
        else:
            cur["events"].append((label, prev.zone, v.state))
            cur["exit"] = v.zone
    stretches.append(cur)

    windows = [distance(s["entry"], s["exit"]) for s in stretches]
    suffix: list[tuple] = [_ZERO] * len(windows)
    for i in range(len(windows) - 1, 0, -1):
        suffix[i - 1] = add(windows[i], suffix[i])

    durations: list[Fraction] = []
    remaining = total
    for w, rest in zip(windows, suffix):
        feasible = intersect(w, sub_from(remaining, rest))
        if feasible is None:
            raise InvariantError("search certified an unrealizable duration split")
        d = pick(feasible)
        durations.append(d)
        remaining -= d

    run_steps: list[RunStep] = []
    entry_clocks: list[Fraction] = []
    stretch_start_time = Fraction(0)
    for s, d in zip(stretches, durations):
        feas = intersect(s["entry"], shift(s["exit"], -d))
        if feas is None:
            raise InvariantError("stretch duration outside its distance window")
        entry_clock = pick(feas)
        if entry_clocks:
            # Rewrite the pending reset step with the clock actually chosen.
            last = run_steps[-1]
            run_steps[-1] = RunStep(last.event, last.time, last.state, entry_clock)
        entry_clocks.append(entry_clock)
        exit_clock = entry_clock + d
        c_prev = entry_clock
        for event, firing_zone, tgt in s["events"]:
            feas_c = intersect(firing_zone, (c_prev, True, exit_clock, True))
            if feas_c is None:
                raise InvariantError("no firing clock inside the stretch")
            c = pick(feas_c)
            run_steps.append(RunStep(event, stretch_start_time + (c - entry_clock), tgt, c))
            c_prev = c
        if "terminal" in s:
            event, tgt = s["terminal"]
            # Clock placeholder; the next iteration fills in the reset value.
            run_steps.append(RunStep(event, stretch_start_time + d, tgt, Fraction(0)))
        stretch_start_time += d

    run = TimedRun(
        start_state=stretches[0]["state0"],
        start_clock=entry_clocks[0],
        start_time=Fraction(0),
        steps=tuple(run_steps),
    )
    return Witness(
        start=start,
        steps=steps_out,
        duration=total,
        run=run,
        trailing_dwell=total - run.end_time,
        final_zone=stretches[-1]["exit"],
    )


# -- observation-driven estimation (batch and incremental) ---------------------


def _check_observation(model: TFA, obs: TimedObservation) -> None:
    for name, _ in obs.events:
        if name not in model.observable:
            raise ValueError(f"event {name!r} is not observable")


def estimate(za: ZoneAutomaton, model: TFA, obs: TimedObservation) -> Estimate:
    """The discrete states (with clock zones) consistent with an observation.

    Alternates no-observation estimation over each inter-observation gap with
    an event step over every matching observable edge.  Requires the model to
    reset its clock on observable events; an inconsistent observation yields
    an empty estimate rather than an error.
    """
    require_valid(model, require_ro=True)
    _check_observation(model, obs)
    support = za.initial
    anchor = 0
    for event, ts in obs.events:
        ts = _exact(ts)
        support = _cell(za, support, _gap_cell(ts, anchor)).successor(event)
        anchor = ts
        if not support:
            return Estimate.from_extended(())
    return _cell(za, support, _gap_cell(_exact(obs.query_time), anchor)).estimate


@dataclass(frozen=True)
class BeliefState:
    """Everything the online estimator remembers: the extended states
    consistent with the observations so far, and the time of the last one."""

    support: frozenset[ExtendedState]
    anchor_time: Fraction


def belief_init(za: ZoneAutomaton) -> BeliefState:
    return BeliefState(support=za.initial, anchor_time=Fraction(0))


def belief_advance(
    za: ZoneAutomaton, model: TFA, belief: BeliefState, event: str, time: Rational
) -> BeliefState:
    """Consume one observed event, returning the belief just after it."""
    time = _exact(time)
    i = _gap_cell(time, belief.anchor_time, "observation time precedes the belief anchor")
    if event not in model.observable:
        raise ValueError(f"event {event!r} is not observable")
    require_valid(model, require_ro=True)
    return BeliefState(support=_cell(za, belief.support, i).successor(event), anchor_time=time)


def belief_query(
    za: ZoneAutomaton, model: TFA, belief: BeliefState, time: Rational
) -> Estimate:
    """The estimate at ``time`` given the belief, without consuming anything."""
    i = _gap_cell(_exact(time), belief.anchor_time, "query time precedes the belief anchor")
    return _cell(za, belief.support, i).estimate
