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

Both searches below run over stretches, not single steps.  Everything a
stretch can reach depends only on where it starts (its root), so the integer
index the zone automaton carries (``ZoneIndex``) keeps one table per root,
filled on first use: each id the stretch reaches, its distance range from
the root and the resets out of it.  A root is a run of consecutive zones of
one state, not a single zone: a clock-resetting transition enters every zone
of its reset range at once, with the same window, and a belief support
starts one run per block of consecutive zones it holds.  The run's table
gives each reached id the distance from the hull of the members that reach
it, which is the union of their own distances, so one root and one table
stand for the whole range, and the cost grows with the reset ranges, not
with the square of the zones they span.  Windows are range tuples (see
``intervals``), and ids are mapped back to extended states only for answers
and witness paths, where each stretch is re-rooted at a single zone.

``t_reachable`` needs only the earliest arrival at its target, since a
reached state can be held, so it expands each all-events root once, at a
cost that does not depend on the duration.  A memo miss (below) needs every
id reached at exactly its elapsed time, and ``_duration_reach`` finds them
at a cost linear in it.  It is handed the cell of the elapsed time (below)
and the support's start runs, kept on the support's row, and returns its
hits and counters as one plain tuple.  The rest of a miss's cost is mostly
filling the silent stretch tables of the roots it meets first: one lean
``ZoneIndex.walk`` pass and one sort per table, a pass that the fixpoint's
cell-form tables (below) read as well.  In the cold ``watch`` lines of
``monitor`` seed 4 (a fresh zone automaton per session), the fills take
about a quarter of a line's library time; the search itself and the
cells' successors and estimates take most of the rest.

Every window has integer endpoints, so between two observations the answer
depends only on the belief support and on the unit cell of the elapsed time
(the point ``[k,k]`` or the segment ``(k,k+1)``).  ``estimate``, the belief
functions, ``lambda_estimation`` and the offline observer all read one memo
kept on the index: per support a row of cells (``Cell``), each holding the
ids reached and, computed on first use, their ``Estimate`` and the successor
support per observable event.  Id sets are int bit masks over the ids: a
filled row's cells are interned by their masks, a search's by the ids it
found, and a successor support is the OR of its ids' target masks,
interned by that mask.  An op finds its cell with the cell step of
``_gap_cell``, in integer arithmetic on the numerator and denominator of
its time and of the anchor, so it makes, subtracts and compares no
``Fraction`` between its timestamp and the memo read, and reads the memo as
``_cell`` does: one lookup of the support's row and one read of it, and
``_miss`` only when the memo lacks the cell.  ``estimate``,
``lambda_estimation`` and the observer's ``lookup`` and ``successor`` call
those two helpers.  The warm ops, ``belief_advance``, ``belief_query`` and
``ObserverSession.advance`` and ``.query``, do both inline, so a warm op
runs in one Python frame: a helper frame costs more than the read it
serves.  They read a ``Fraction``'s ratio from its slots (``_numerator``,
``_denominator``, what its ``numerator`` property returns), because
``Fraction.as_integer_ratio`` is a Python-level method on every Python this
package supports (3.10-3.13); an ``int`` or a ``Fraction`` subclass gives
``as_integer_ratio()``, and anything else, a time or an anchor stored from
outside, goes through ``Fraction(...)`` first, so malformed text raises
``ValueError``.  Their type test puts ``int`` first:
``isinstance(t, Fraction)`` on an ``int`` runs
``ABCMeta.__instancecheck__``, a Python frame too.  An
advance then reads the cell's successors.  A warm op's model check is one
read of the verdict the model keeps (``TFA.ro_valid``), set by the model's
one diagnose pass; only a model that is unchecked or invalid goes on to
``require_valid``, so an invalid one raises the same ``ModelError`` on
every call.  A new ``BeliefState``, a named tuple, is made by
``tuple.__new__``.  A miss at a small elapsed time
runs the search for that one cell.  A miss past twice the first cut of
``_duration_cells``, a fixpoint over bit masks of unit cells on the same
stretch tables, fills the support's whole row up to its certified periodic
tail, after which every elapsed time of that support is a row read.  The
fixpoint reads each root's table in cell form (each distinct window as cell
shifts, made once per root from the root's stretch walk), closes a root's
exits back to itself by doubling, and runs once per support and cut with
every start run of the support seeded at once: a root that several start
runs reach is expanded in one worklist, not in one whole fixpoint per start
run.  The row is filled one run of equal cells at a time: one pass
over the hit masks collects the id masks that flip at each cell, and one
sweep over those cells toggles a running id mask, looking each run's cell
up by that int.  So the memo holds at most ``min(8w, _ROW_CELLS)`` searched cells, or
the ``start + period`` cells of a total row, per support (``w`` the
fixpoint's dependency width), whatever the stream's length.  When the
fixpoint refuses (a period too long, or constants too large for its bit
masks), every miss runs the search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Optional, Sequence

from .intervals import (
    INF,
    Interval,
    Rational,
    add,
    contains,
    distance,
    format_time,
    intersect,
    pick,
    shift,
    sub_from,
)
from .model import TAU, TFA, TimedObservation, TimedRun, RunStep, require_valid
from .zones import ExtendedState, ZoneAutomaton, ext_json


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
            "extended": ext_json(self.extended),
            "anchor": format_time(anchor),
        }


# -- duration-tracking search -------------------------------------------------

# A queue item: the root (run key) of a reset-free stretch, then the (capped)
# range sum ``lo, lo_closed, hi, hi_closed`` of the stretches completed before
# it.
_Item = tuple[int, int, bool, int, bool]

_ZERO = (0, True, 0, True)
_START = (None, None, None)  # the link of a start root: no parent, no reset


def _duration_reach(za: ZoneAutomaton, runs: Sequence[int], i: int, budget: Optional[int] = None) -> tuple:
    """All extended-state ids reachable from the start runs ``runs`` (run
    keys, as ``ZoneIndex.start_runs`` gives them) by a run over silent
    events whose duration ``dt`` lies in the unit cell ``i`` (``[k,k]`` is
    cell ``2k``, ``(k,k+1)`` cell ``2k+1``): the search behind a memo miss
    that the fixpoint does not answer.  Raises ``ValueError`` once it has
    queued more than ``budget`` items.

    Returns one plain tuple ``(hits, pushed, expanded, pruned, capped,
    max_queue, covered)``: the set of ids reached, then the counters: items
    queued; table entries that passed the lower-bound test; table scans cut
    by that test; reset steps whose sum was capped; the largest frontier,
    items queued minus the position popped; and windows not queued because
    their root had queued all their cells already.

    A queue item is a stretch root ``r``, a run of zones (``ZoneIndex``),
    with the sum ``acc`` of the completed stretches.  The window of an entry
    ``(s, d)`` of ``r``'s silent stretch table (``ZoneIndex.stretch``) is
    ``acc (+) d``.  Windows whose lower bound already exceeds ``dt`` can
    never recover, and the table is sorted by the lower end of ``d``, so the
    scan stops at the first such entry.  Each reset run out of an expanded
    entry queues that run with the entry's window as the new sum, capped
    just above ``ceil(dt)``, which preserves membership of ``dt``.  Window
    endpoints are integers (or an infinite upper end), since zones have
    integer endpoints, so they are compared with ``floor(dt)``, which is
    ``i >> 1``, and whether ``dt`` is an integer, which is whether ``i`` is
    even; ``ceil(dt)`` is ``(i + 1) >> 1``.  Every time in the cell gives
    the same answer, and no ``Fraction`` is made, except for the text of the
    budget's error.

    Each root keeps the unit cells of every window queued there (``[k,k]``
    is cell ``2k``, ``(k,k+1)`` cell ``2k+1``) as a flat ascending list of
    merged half-open cell ranges ``f0, e0, f1, e1, ...``.  A window inside
    one range is dropped (``covered``): a Minkowski sum distributes over a
    union, so its entries reach nothing the queued windows do not.  Any
    other window is queued whole and merged in.  Every queued item so adds
    a cell to its root, and the cap leaves a root at most ``2*ceil(dt) + 3``
    cells, so the queue grows linearly with ``dt``.
    """
    ix = za.index
    tables = ix.stretches[False]
    floor, exact, ceiling = i >> 1, not i & 1, (i + 1) >> 1
    cells: dict = {r: [0, 1] for r in runs}  # root -> its queued cells as merged ranges
    queue: list[_Item] = [(r, 0, True, 0, True) for r in runs]

    hits: set = set()
    pos = expanded = pruned = capped = max_queue = covered = 0
    while pos < len(queue):
        if len(queue) - pos > max_queue:
            max_queue = len(queue) - pos
        if budget is not None and len(queue) > budget:
            raise ValueError(
                f"no answer at an elapsed time of {format_time(Fraction(i, 2))}: the silent durations "
                f"have no tail that can be tabulated, and the search passed {budget} items"
            )
        r, a_lo, a_lc, a_hi, a_hc = queue[pos]
        for s, d_lo, d_lc, d_hi, d_hc, resets in tables.get(r) or ix.stretch(r, False):
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
            if resets:
                if hi > ceiling:
                    capped += len(resets)
                    hi, hi_c = ceiling + 1, True
                first, end = 2 * lo + (not lo_c), 2 * hi + hi_c  # cells first..end-1
                for run in resets:
                    t = run[1]
                    ranges = cells.get(t)
                    if ranges is None:
                        cells[t] = [first, end]
                    elif len(ranges) == 2 and first <= ranges[1] and ranges[0] <= end:
                        # The usual case, decided without a bisect: the
                        # window meets the root's one range.
                        f, e = ranges
                        if f <= first and end <= e:
                            covered += 1
                            continue
                        ranges[0] = f if f < first else first
                        ranges[1] = e if e > end else end
                    else:
                        k = bisect_left(ranges, first) & -2
                        if k < len(ranges) and ranges[k] <= first and end <= ranges[k + 1]:
                            covered += 1
                            continue
                        m = bisect_right(ranges, end, k)
                        m += m & 1
                        if k < m:
                            ranges[k:m] = (min(first, ranges[k]), max(end, ranges[m - 1]))
                        else:
                            ranges[k:k] = (first, end)
                    queue.append((t, lo, lo_c, hi, hi_c))
        pos += 1
    return hits, len(queue), expanded, pruned, capped, max_queue, covered


# -- duration cells -------------------------------------------------------------
#
# Every window has integer endpoints (or an infinite upper end), so the
# durations at which an id is reachable form a union of unit cells: the point
# ``[k,k]`` is cell ``2k`` and the segment ``(k,k+1)`` cell ``2k+1``.  A set
# of cells is a Python int bit mask.  Adding a window ``d`` to cell ``2k``
# gives the cells ``2k + 2*d_lo + (d_lo open)`` through ``2k + 2*d_hi - (d_hi
# open)``, and to cell ``2k+1`` the cells ``2k+1 + 2*d_lo`` through ``2k+1 +
# 2*d_hi``, so adding a window to a mask is two shift-and-smears.


def _spread(mask: int, lo: int, steps: Optional[tuple], full: int) -> int:
    """The cells ``c + j`` for each cell ``c`` of ``mask`` and each ``j``
    from ``lo`` over the run that ``steps`` doubles one cell into (every
    ``j >= lo`` when ``steps`` is None), cut to the cells of ``full``.  Bits
    only move up, so the cut is made once, at the end."""
    if steps is None:
        if not mask:
            return 0
        first = (mask & -mask).bit_length() - 1 + lo
        return full >> first << first
    mask <<= lo
    for step in steps:
        mask |= mask << step
    return mask & full


def _shifts(d: tuple) -> tuple:
    """The cell shifts of the window ``d``: ``(lo, steps, odd)``, where even
    cells move by ``lo`` plus the run of ``steps`` (see ``_spread``) and
    odd cells by ``odd``, a pair of the same form, or by the same when
    ``odd`` is None, as for a closed window.  Raises ``InvariantError`` on a
    non-integer endpoint, since the cells would then not be exact."""
    d_lo, d_lc, d_hi, d_hc = d
    if not isinstance(d_lo, int) or not (d_hi == INF or isinstance(d_hi, int)):
        raise InvariantError(f"duration window ({d_lo}, {d_hi}) has a non-integer endpoint")
    lo = 2 * d_lo + (not d_lc)  # even cells: an open lower end skips the point
    if d_hi == INF:
        return lo, None, None if d_lc else (lo - 1, None)
    hi = 2 * d_hi - (not d_hc)
    if d_lc and d_hc:
        return lo, _steps(hi - lo + 1), None
    return lo, _steps(hi - lo + 1), (2 * d_lo, _steps(2 * d_hi - 2 * d_lo + 1))


def _steps(n: int) -> tuple:
    """The shifts that double one cell into a run of ``n`` cells: ``1, 2,
    4, ...``, the last cut to what is left."""
    steps = []
    width = 1
    while width < n:
        step = width if 2 * width <= n else n - width
        steps.append(step)
        width += step
    return tuple(steps)


def _shift(mask: int, shifts: tuple, even: int, full: int) -> int:
    """The cells of ``mask`` plus the window of ``shifts`` (see ``_shifts``),
    cut to the cells of ``full``; ``even`` has the even cells of ``full``."""
    lo, steps, odd = shifts
    if odd is None:
        return _spread(mask, lo, steps, full)
    return _spread(mask & even, lo, steps, full) | _spread(mask & ~even, *odd, full)


def _cell_table(ix, r: int) -> tuple[tuple, tuple, tuple]:
    """The silent stretch table of root ``r`` in cell form, ``(loops, exits,
    hits)``, made on first use from the rows of the silent stretch walk
    (``ZoneIndex.walk``), in the order it meets them, and kept in
    ``ix.cell_tables``: ``exits`` holds ``(shifts, reset run
    keys)`` (the keys as dict keys) and ``hits`` holds ``(shifts, ids)``,
    one pair per distinct window, and ``loops`` the windows of the exits
    that lead back to ``r`` itself."""
    exits: dict = {}  # window -> reset run keys, as dict keys
    hits: dict = {}  # window -> ids
    known = ix.shifts
    for row in ix.walk(r, False):
        s, d, runs = row[0], row[1:5], row[5]
        ids = hits.get(d)
        if ids is None:
            hits[d] = [s]
        else:
            ids.append(s)
        if runs:
            keys = exits.get(d)
            if keys is None:
                keys = exits[d] = {}
            for run in runs:
                keys[run[1]] = None
    for d in hits:
        if d not in known:
            known[d] = _shifts(d)
    table = ix.cell_tables[r] = (
        [d for d, keys in exits.items() if r in keys],
        [(known[d], keys) for d, keys in exits.items()],
        [(known[d], ids) for d, ids in hits.items()],
    )
    return table


def _close(ix, mask: int, d: tuple, even: int, full: int) -> int:
    """The cells of ``mask`` plus any number of windows ``d``, cut to the
    cells of ``full``, by doubling: ``X``, then ``X | X+d``, then that plus
    ``d+d``, and so on, one shift per doubling, until a doubling adds
    nothing (then the set is closed under ``d``)."""
    known = ix.shifts
    while True:
        shifts = known.get(d)
        if shifts is None:
            shifts = known[d] = _shifts(d)
        grown = mask | _shift(mask, shifts, even, full)
        if grown == mask:
            return mask
        mask = grown
        d = (2 * d[0], d[1], 2 * d[2], d[3])


def _reach_cells(ix, runs: Iterable[int], limit: int) -> tuple[dict, dict]:
    """The cells ``0..limit`` of every silent duration from the start runs
    ``runs``: the mask of each stretch root (the durations at which a
    stretch can begin there), keyed by run key, and of each reached id,
    keyed by id.

    A worklist fixpoint over root masks: every start run holds cell 0, and
    expanding a root shifts the bits it gained since its last expansion by
    each exit window of its cell table, into the mask of each reset run.  A
    target is queued again only when its mask gains bits.  An exit back to
    the root itself is closed at once by doubling (``_close``), one pass per
    such window, since closures under additions compose, so a silent loop of
    an exact duration costs a shift per doubling, not one expansion per cell
    it adds.  Cutting at ``limit`` is exact for every cell up to ``limit``,
    since durations only grow.
    """
    full = (2 << limit) - 1
    even = ((1 << 2 * (limit // 2 + 1)) - 1) // 3  # 0b0101...01
    tables = ix.cell_tables
    roots = dict.fromkeys(runs, 1)
    pending = dict(roots)  # root -> bits not yet expanded
    while pending:
        q, delta = pending.popitem()
        loops, exits, _ = tables.get(q) or _cell_table(ix, q)
        if loops:
            # The bits expanded before are closed already.
            done = roots[q] & ~delta
            for d in loops:
                delta = _close(ix, delta, d, even, full)
            delta &= ~done
            roots[q] |= delta
        for shifts, keys in exits:
            cells = _shift(delta, shifts, even, full)
            if not cells:
                continue
            for t in keys:
                old = roots.get(t, 0)
                gain = cells & ~old
                if gain:
                    roots[t] = old | gain
                    pending[t] = pending.get(t, 0) | gain
    hits: dict = {}
    for q, mask in roots.items():
        for shifts, ids in tables[q][2]:
            cells = _shift(mask, shifts, even, full)
            if cells:
                for s in ids:
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

    The smallest such ``p`` is the smallest even one at which every mask's
    top ``w`` cells, ``limit-w+1..limit``, recur ``p`` cells lower.  The
    OR of the masks recurs wherever they all do, so the candidates are the
    places its top cells recur, found by a substring search in its binary
    text (``_recurrences``), and only those are checked mask by mask.
    """
    low = max(((m & -m).bit_length() for m in roots.values()), default=0)
    top = limit + 1 - w  # the lowest of the top ``w`` cells
    last_p = min((limit - w) // 2, top - low)  # ``a`` is at most ``top - p``
    window = (1 << w) - 1
    joint = 0
    for m in roots.values():
        joint |= m
    for p in _recurrences(joint & ((2 << limit) - 1), limit, w, last_p):
        if p & 1:
            continue
        for m in roots.values():
            if (m >> (top - p) ^ m >> top) & window:
                break
        else:
            diff = 0
            for m in roots.values():
                diff |= (m ^ (m >> p)) & ((1 << (limit + 1 - p)) - 1)
            return max(low, diff.bit_length()), p
    return None


def _recurrences(mask: int, limit: int, w: int, last: int) -> Iterable[int]:
    """Each ``p`` in ``1..last``, ascending, at which the cells
    ``limit-w+1..limit`` of ``mask`` equal the cells ``p`` lower: the places
    where the first ``w`` characters of its binary text, highest cell
    first, recur."""
    text = format(mask, f"0{limit + 1}b")
    head = text[:w]
    p = text.find(head, 1, last + w)
    while p > 0:
        yield p
        p = text.find(head, p + 1, last + w)


# The fixpoint gives up when the cut would pass this many cells (or 16 times
# the dependency width, for large constants): the cost of a cut grows with
# its square in the worst case, and only silent cycles of exact, mutually
# prime durations push the period this far.
_MAX_CUT = 1 << 16
# No cut passes this many cells, whatever the width: a mask of them is
# 128 KiB, and filling a row from such masks takes tens of seconds.  Larger
# constants are refused before any mask is built.
_MAX_CELLS = 1 << 20
# A search for a cell past ``_MAX_CELLS`` on a row with no tabulated tail
# queues at most this many items (about 16 MB of queue), so a long gap ends
# in an error instead of running for hours.
_MAX_ITEMS = 1 << 16
# A row that is not total stores at most this many searched cells, whatever
# the constants: ``8w`` alone would let a row of a huge constant keep one
# cell per distinct cell queried.
_ROW_CELLS = 1 << 12


def _width(ix) -> int:
    """The dependency width of the cells, ``2M + 2`` for the largest finite
    zone endpoint ``M``, which is at most the largest lower end; computed on
    first use and kept on the index."""
    if not ix.width:
        ix.width = 2 * max(v.zone.lo for v in ix.ext) + 2
    return ix.width


def _duration_cells(
    za: ZoneAutomaton, starts: Iterable[int], runs: Optional[list[int]] = None
) -> tuple[dict, int, int]:
    """Every silent duration from ``starts`` (whose start runs a caller
    that has them passes as ``runs``) at once, as ``(hits, start,
    period)``: ``hits`` maps each reachable id to a mask of the cells at
    which it is reachable, exact for the cells ``0..start+period-1`` (bits
    past them may be set, and are to be ignored), and cell ``c >= start``
    answers as cell ``start + (c - start) % period``.

    Runs the fixpoint of ``_reach_cells`` to a cut, doubling the cut until
    the root masks certify a periodic tail (they must: the state behind a
    cell takes finitely many values).  A reached id's cell depends on the
    root masks the same way a root's does, so the hit masks repeat from
    ``w`` cells after the roots do.  The period is then cut to the smallest
    divisor ``q`` of ``p`` the hit masks allow and the start moved back as
    far as they allow, both read off one OR of ``h ^ (h >> q)`` over the
    hit masks per divisor tried; the first, ``q = 1``, is the usual period.
    Raises ``ValueError`` when the first cut ``4w`` passes ``_MAX_CELLS``,
    before any mask is built, or when no cut within the bound certifies a
    tail; ``InvariantError`` on a window with a non-integer endpoint.
    """
    ix = za.index
    if runs is None:
        runs = ix.start_runs(starts)
    w = _width(ix)
    bound = min(max(_MAX_CUT, 16 * w), _MAX_CELLS)
    limit = 4 * w
    if limit > bound:
        raise ValueError(
            f"a constant of {w // 2 - 1} needs {limit} cells of silent durations, "
            f"more than the {_MAX_CELLS} that are tabulated"
        )
    while True:
        roots, hits = _reach_cells(ix, runs, limit)
        tail = _root_period(roots, w, limit)
        if tail is not None:
            break
        limit *= 2
        if limit > bound:
            raise ValueError(
                f"no periodic tail of the silent durations within {limit // 2} cells: "
                "exact-duration silent cycles make the period too long to tabulate"
            )
    start, p = tail[0] + w, tail[1]
    # ``q = p`` always holds: the hit masks are ``p``-periodic from ``start``.
    for q in range(1, p + 1):
        if p % q:
            continue
        diff = 0
        for h in hits.values():
            diff |= h ^ (h >> q)
        if not diff >> start & ((1 << (p - q)) - 1):
            break
    return hits, (diff & ((1 << start) - 1)).bit_length(), q


def _ids(za: ZoneAutomaton, support: Iterable[ExtendedState]) -> list[int]:
    """Ids of extended states, ascending (which is ``ext_sort_key`` order)."""
    id_of = za.index.id_of
    try:
        return sorted(id_of[v] for v in support)
    except KeyError as exc:
        raise ValueError(f"unknown extended state {exc.args[0]}") from None


# -- the cell memo ---------------------------------------------------------------


class _first_read:
    """A ``cached_property`` without its lock: the first read computes the
    value and stores it in the instance dict, where every later read finds
    it before this (non-data) descriptor."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending.  Each step of the bit-by-bit
    loop costs the length of the mask, so a long mask is read off its
    binary text instead."""
    out = []
    if mask >> 1024:
        text = bin(mask)[:1:-1]  # character i is bit i
        i = text.find("1")
        while i >= 0:
            out.append(i)
            i = text.find("1", i + 1)
        return out
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Cell:
    """What a belief support reaches in one unit cell of elapsed time: its
    ids, as the bit mask ``mask`` (bit ``i`` for id ``i``) of a row fill,
    or as the id set of a search (``mask`` None), and, each computed on
    first use, the ids ``reached``, their ``estimate`` and the support after
    each observable event (``successor``, cached in ``successors``).
    ``ZoneIndex.cells`` keeps one cell per mask a fill met and one per id
    set a search met, so a search makes no mask.  Equal successor masks
    share one support frozenset (``ZoneIndex.masks``).  A cell holds the
    index's tables, not the index, so the memo makes no reference cycle."""

    def __init__(self, mask: Optional[int], ix, ids: Optional[frozenset[int]] = None):
        self.mask = mask
        self._ids = ids
        self.successors: dict = {}  # event -> support
        self._ext, self._events, self._targets, self._supports, self._masks = (
            ix.ext, ix.events, ix.targets, ix.supports, ix.masks
        )

    @_first_read
    def reached(self) -> frozenset[int]:
        return frozenset(_bits(self.mask)) if self._ids is None else self._ids

    @_first_read
    def estimate(self) -> Estimate:
        ext = self._ext
        extended = frozenset([ext[i] for i in (_bits(self.mask) if self._ids is None else self._ids)])
        return Estimate(extended, frozenset([v[0] for v in extended]))

    def successor(self, event: str) -> frozenset[ExtendedState]:
        """The support just after observing ``event`` in this cell: the OR
        of each reached id's target mask, interned by its mask with its ids.
        An id's target mask ORs the target run ``(a, a + span)`` of each of
        its ``event`` entries (``ZoneIndex.run``) as the bit range ``((2 <<
        span) - 1) << a``; it is computed on first use and kept in
        ``ZoneIndex.targets``."""
        nxt = self.successors.get(event)
        if nxt is None:
            ext = self._ext
            n = len(ext)
            table = self._targets.get(event)
            if table is None:
                table = self._targets[event] = [None] * n
            out = 0
            for i in _bits(self.mask) if self._ids is None else self._ids:
                t = table[i]
                if t is None:
                    t = 0
                    for e in self._events[i]:
                        if e[0] == event:
                            span, a = divmod(e[1], n)
                            t |= ((2 << span) - 1) << a
                    table[i] = t
                out |= t
            nxt = self._masks.get(out)
            if nxt is None:
                ids = _bits(out)
                nxt = self._masks[out] = frozenset([ext[j] for j in ids])
                self._supports[nxt] = (nxt, ids)
            self.successors[event] = nxt
        return nxt


class _Row:
    """The memo of one belief support: its ids, ascending, and their start
    runs (``ZoneIndex.runs_of``), which its searches and its fixpoint
    both read.  ``tail`` is None while ``cells`` is a dict of the cells met
    so far by index; ``(start, period)`` once the row is total and ``cells``
    the tuple of its first ``start + period`` cells; False when the fixpoint
    found no tail it could tabulate."""

    __slots__ = ("ids", "runs", "cells", "tail")

    def __init__(self, ids: list[int], runs: list[int]):
        self.ids = ids
        self.runs = runs
        self.cells: dict | tuple = {}
        self.tail: Optional[tuple[int, int]] | bool = None


def _exact(t: Rational) -> Rational:
    """``t`` itself when it is a ``Fraction`` or an ``int``, else ``Fraction(t)``."""
    return t if isinstance(t, (int, Fraction)) else Fraction(t)  # int first: see the module notes


def _gap_cell(time: Rational, anchor: Rational, message: str = "elapsed time must be non-negative") -> int:
    """The unit cell of ``time - anchor`` (both a ``Fraction`` or an
    ``int``), in integer arithmetic: no ``Fraction`` is made or compared.
    Raises ``ValueError(message)`` when ``time`` precedes ``anchor``.  The
    warm ops (``belief_advance`` and the others named in the module notes)
    run the same step inline."""
    p, q = time.as_integer_ratio()
    r, s = anchor.as_integer_ratio()
    if q == s:
        n, d = p - r, q
    else:
        n, d = p * s - r * q, q * s
    if n < 0:
        raise ValueError(message)
    # 2k for n = kd, and 2k + 1 for kd < n < (k+1)d: the floor of n/d plus
    # its ceiling, two integer divisions and no call.
    return n // d - (-n // d)


def _intern(ix, mask: int) -> Cell:
    cell = ix.cells.get(mask)
    if cell is None:
        cell = ix.cells[mask] = Cell(mask, ix)
    return cell


def _row(za: ZoneAutomaton, support: frozenset[ExtendedState]) -> _Row:
    """The row of ``support``, made on first use from the ids interned with
    it, or from ``_ids`` for a support the memo has not met (``za.initial``,
    or one a caller made), which is then interned by its mask as well.  The
    ids are ascending, so their start runs are read off in one pass
    (``ZoneIndex.runs_of``)."""
    ix = za.index
    row = ix.rows.get(support)
    if row is None:
        interned = ix.supports.get(support)
        if interned is None:
            ids = _ids(za, support)
            mask = 0
            for i in ids:
                mask |= 1 << i
            ix.masks[mask] = support
            interned = ix.supports[support] = (support, ids)
        ids = interned[1]
        row = ix.rows[support] = _Row(ids, ix.runs_of(ids))
    return row


def _fill(za: ZoneAutomaton, row: _Row) -> None:
    """Make ``row`` total from one ``_duration_cells``; raises ``ValueError``
    when the durations have no tail it can tabulate.

    The row is a run of equal cells wherever no id's mask changes.  An id
    enters or leaves the reached set at its flip cells, the bits of ``h ^
    (h << 1)`` below ``start + period``, so one pass over the hit masks
    XORs each id's bit into the id-set toggled at each of its flip cells,
    and one sweep over the flip cells in order toggles one running id-set
    and interns one ``Cell`` per run, by its mask: the cost follows the
    runs and the flips, not the runs times the ids.  The row stays a dense
    tuple, one entry per cell, so a read is one index."""
    hits, start, period = _duration_cells(za, row.ids, row.runs)
    ix = za.index
    n = start + period
    below = (1 << n) - 1
    toggles: dict[int, int] = {}  # flip cell -> the id-set that flips there
    get = toggles.get
    for s, h in hits.items():
        f = (h ^ (h << 1)) & below
        bit = 1 << s
        if f >> 1024:
            # Each step of the loop below costs the length of the mask, so
            # a long one is read off its binary text instead.
            for c in _bits(f):
                toggles[c] = get(c, 0) ^ bit
            continue
        while f:
            low = f & -f
            c = low.bit_length() - 1
            toggles[c] = get(c, 0) ^ bit
            f ^= low
    cells: list = []
    memo = ix.cells
    mask = i = 0
    for j in sorted(toggles):
        if j > i:
            cell = memo.get(mask) or _intern(ix, mask)
            cells += [cell] * (j - i)
            i = j
        mask ^= toggles[j]
    cells += [memo.get(mask) or _intern(ix, mask)] * (n - i)
    row.cells = tuple(cells)
    row.tail = (start, period)


def _cell(za: ZoneAutomaton, support: frozenset[ExtendedState], i: int) -> Cell:
    """The cell answering every elapsed time in unit cell ``i`` (see
    ``_gap_cell``) after ``support`` was formed: one row lookup and one read
    of the row when the memo has it, else ``_miss``.  The warm ops read the
    memo the same way, inline."""
    row = za.index.rows.get(support)
    if row is not None:
        tail = row.tail
        if tail:
            start, period = tail
            return row.cells[i if i < start else start + (i - start) % period]
        cell = row.cells.get(i)
        if cell is not None:
            return cell
    return _miss(za, support, i)


def _miss(za: ZoneAutomaton, support: frozenset[ExtendedState], i: int) -> Cell:
    """``_cell`` when the memo lacks cell ``i`` of ``support``.

    A search is handed the cell ``i`` itself and the row's start runs: it
    reads only the floor, the ceiling and the integrality of the time, which
    are the same for every time in the cell.  A miss below cell ``8w``
    (``4w`` time units, twice the fixpoint's first cut; ``w`` is the
    dependency width) runs the duration search for that one cell and stores
    it while the row holds fewer than ``_ROW_CELLS`` cells: a short gap
    costs one search, never a fixpoint.
    A miss at or past it, or past ``_MAX_CELLS``, fills the whole row, since
    the search grows with ``dt`` and the fixpoint does not.  If the fixpoint
    refuses, the search answers, and a cell at or past ``8w`` is not stored,
    so a row never holds more than ``min(8w, _ROW_CELLS)`` searched cells,
    or its ``start + period`` cells once total.  Past ``_MAX_CELLS``
    that search may queue only ``_MAX_ITEMS`` items, and raises
    ``ValueError`` beyond them: wide windows still answer any gap at once,
    but a gap crossed in exact silent steps would cost time linear in it.
    """
    row = _row(za, support)
    ix = za.index
    below = i < 8 * _width(ix)
    far = i >= _MAX_CELLS
    if row.tail is None and (far or not below):
        try:
            _fill(za, row)
        except ValueError:
            row.tail = False
        else:
            return _cell(za, support, i)
    ids = frozenset(_duration_reach(za, row.runs, i, _MAX_ITEMS if far else None)[0])
    cells = ix.cells
    cell = cells.get(ids)
    if cell is None:
        cell = cells[ids] = Cell(None, ix, ids)
    if below and len(row.cells) < _ROW_CELLS:
        row.cells[i] = cell
    return cell


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
    events.  On success, also return a witness with a concrete legal run.

    The model has no state invariants, so a reached state can be held: the
    answer is yes exactly from the earliest arrival on.  A Dijkstra pass
    over the all-events stretch roots pops them by the lower end of their
    window sum, closed before open, and expands each once; a root's window
    is its parent's exit window, which the chain of parents realizes.  No
    window that starts past ``duration`` is queued; the answer is yes at
    the first entry at ``target`` whose window holds it, else no.  The root
    of the earliest arrival has one: its entries at the target's zones from
    the arrival on follow each other by ``tau`` up to the unbounded one, so
    their windows join into one interval from the arrival.
    """
    duration = Fraction(duration)
    if duration < 0:
        raise ValueError("duration must be non-negative")
    for x in (source, target):
        if x not in model.states:
            raise ValueError(f"unknown state {x!r}")
    ix = za.index
    goal = ix.ids[target]
    # (lower end, lower end open, push order, run key, window sum, link)
    heap = [(0, False, i, key, _ZERO, _START) for i, key in enumerate(ix.start_runs(ix.ids[source]))]
    pushes = len(heap)
    links: dict = {}  # expanded run key -> (parent key, exit entry, reset run entering it)
    while heap:
        *_, key, acc, link = heappop(heap)
        if key in links:
            continue
        links[key] = link
        for entry in ix.stretch(key, True):
            window = add(acc, entry[1:5])
            if window[0] > duration or (window[0] == duration and not window[1]):
                break
            if entry[0] in goal and contains(window, duration):
                stretches = [(key, entry, link[2])]  # goal first
                while link is not _START:
                    key, entry, _ = link
                    link = links[key]
                    stretches.append((key, entry, link[2]))
                return True, _witness(za, stretches[::-1], duration)
            for run in entry[5]:
                if run[1] not in links:
                    heappush(heap, (window[0], not window[1], pushes, run[1], window, (key, entry, run)))
                    pushes += 1
    return False, None


def _split(windows: Sequence[tuple], total: Fraction) -> list[Fraction]:
    """A duration in each window, the earliest the later windows allow,
    summing to ``total``; raises ``InvariantError`` when ``total`` is not in
    the sum of the windows."""
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
    return durations


def _path(ix, j: int, goal: int) -> Optional[list[tuple]]:
    """The zone path of a reset-free stretch from id ``j`` to id ``goal``,
    ``[(id, edge or None for tau), ...]`` from ``(j, None)``, or None when
    the stretch does not reach ``goal``.  Breadth first over ``tau`` and
    then the clock-preserving ``events`` entries in order, which is the
    order in which ``ZoneIndex.walk`` meets ids."""
    tau, events = ix.tau, ix.events
    link = {j: (-1, None)}  # id -> (id it was first reached from, edge)
    order = [j]
    for s in order:  # ``order`` grows as it is walked
        if s == goal:
            path = []
            while s >= 0:
                pred, edge = link[s]
                path.append((s, edge))
                s = pred
            return path[::-1]
        nxt = tau[s]
        if nxt >= 0 and nxt not in link:
            link[nxt] = (s, None)
            order.append(nxt)
        for edge in events[s]:
            if not edge[2] and edge[1] not in link:
                link[edge[1]] = (s, edge)
                order.append(edge[1])
    return None


def _witness(za: ZoneAutomaton, stretches: list, total: Fraction) -> Witness:
    """The witness of a run of duration ``total`` through ``stretches``,
    each ``(run key, exit entry of its all-events stretch table, reset run
    entering it)``, from a start (reset None) to the goal entry.

    Splits ``total`` over the stretches' exit windows.  A run's window is
    the union of its members' windows, so some member ``j`` reaching the
    exit id has the stretch's duration ``d`` in its own window, the
    distance from its zone to the exit zone; the stretch is re-rooted at
    the first such ``j`` and its zone path traced by ``_path``.  Each
    member of a reset run is a target of the reset, and each member of a
    start run a start, so the steps are a run of the zone automaton.  The
    entry clock is picked in ``j``'s zone so that the clock ends in the exit
    zone after ``d``, which also fixes the clock of the reset step entering
    ``j``, and each clock-preserving event fires at the earliest clock its
    zone allows after the previous one.  Raises ``InvariantError`` when a
    choice is infeasible, which means the search did not certify ``total``.
    """
    ix = za.index
    ext = ix.ext
    durations = _split([entry[1:5] for _, entry, _ in stretches], total)
    steps: list[tuple[str, ExtendedState]] = []
    run_steps: list[RunStep] = []
    elapsed = Fraction(0)  # when the stretch begins
    for (key, exit_entry, reset), d in zip(stretches, durations):
        a, b = ix.run(key)
        goal = exit_entry[0]
        for j in range(a, b + 1):
            if contains(distance(ext[j].zone, ext[goal].zone), d):
                path = _path(ix, j, goal)
                if path is not None:
                    break
        else:
            raise InvariantError("no member of a stretch's run realizes its duration")
        feasible = intersect(ext[j].zone, shift(ext[goal].zone, -d))
        if feasible is None:
            raise InvariantError("stretch duration outside its distance window")
        entry_clock = clock = pick(feasible)
        exit_clock = entry_clock + d
        if reset is None:
            start, start_clock = ext[j], entry_clock
        else:
            steps.append((reset[0], ext[j]))
            run_steps.append(RunStep(reset[0], elapsed, ext[j].state, entry_clock))
        for s, edge in path[1:]:
            v = ext[s]
            if edge is None:
                steps.append((TAU, v))
                continue
            steps.append((edge[0], v))
            # A clock-preserving edge keeps the zone: ``v.zone`` is the
            # zone it fires in.
            feasible = intersect(v.zone, (clock, True, exit_clock, True))
            if feasible is None:
                raise InvariantError("no firing clock inside the stretch")
            clock = pick(feasible)
            run_steps.append(RunStep(edge[0], elapsed + (clock - entry_clock), v.state, clock))
        elapsed += d
    run = TimedRun(
        start_state=start.state, start_clock=start_clock, start_time=Fraction(0), steps=tuple(run_steps)
    )
    return Witness(
        start=start,
        steps=tuple(steps),
        duration=total,
        run=run,
        trailing_dwell=total - run.end_time,
        final_zone=ext[goal].zone,
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
    if not model.ro_valid:
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


class BeliefState(NamedTuple):
    """Everything the online estimator remembers: the extended states
    consistent with the observations so far, and the time of the last one.
    An immutable named tuple; the library makes it with ``tuple.__new__``."""

    support: frozenset[ExtendedState]
    anchor_time: Rational


_new = tuple.__new__


def belief_init(za: ZoneAutomaton) -> BeliefState:
    return _new(BeliefState, (za.initial, Fraction(0)))


def belief_advance(
    za: ZoneAutomaton, model: TFA, belief: BeliefState, event: str, time: Rational
) -> BeliefState:
    """Consume one observed event, returning the belief just after it."""
    # ``_exact``, the cell step of ``_gap_cell`` and the read of ``_cell``,
    # inline, so a warm op is one frame: see the module notes.
    if type(time) is Fraction:
        p, q = time._numerator, time._denominator
    else:
        if not isinstance(time, (int, Fraction)):
            time = Fraction(time)
        p, q = time.as_integer_ratio()
    a = belief.anchor_time
    if type(a) is Fraction:
        r, s = a._numerator, a._denominator
    else:
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        r, s = a.as_integer_ratio()
    if q == s:
        n, d = p - r, q
    else:
        n, d = p * s - r * q, q * s
    if n < 0:
        raise ValueError("observation time precedes the belief anchor")
    if event not in model.observable:
        raise ValueError(f"event {event!r} is not observable")
    if not model.ro_valid:
        require_valid(model, require_ro=True)
    i = n // d - (-n // d)  # as in ``_gap_cell``
    support = belief.support
    row = za.index.rows.get(support)
    if row is None:
        cell = _miss(za, support, i)
    elif row.tail:
        start, period = row.tail
        cell = row.cells[i if i < start else start + (i - start) % period]
    else:
        cell = row.cells.get(i) or _miss(za, support, i)
    nxt = cell.successors.get(event)
    if nxt is None:
        nxt = cell.successor(event)
    return _new(BeliefState, (nxt, time))


def belief_query(
    za: ZoneAutomaton, model: TFA, belief: BeliefState, time: Rational
) -> Estimate:
    """The estimate at ``time`` given the belief, without consuming anything."""
    # As ``belief_advance``: the cell step and the memo read, inline.
    if type(time) is Fraction:
        p, q = time._numerator, time._denominator
    else:
        if not isinstance(time, (int, Fraction)):
            time = Fraction(time)
        p, q = time.as_integer_ratio()
    a = belief.anchor_time
    if type(a) is Fraction:
        r, s = a._numerator, a._denominator
    else:
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        r, s = a.as_integer_ratio()
    if q == s:
        n, d = p - r, q
    else:
        n, d = p * s - r * q, q * s
    if n < 0:
        raise ValueError("query time precedes the belief anchor")
    i = n // d - (-n // d)  # as in ``_gap_cell``
    support = belief.support
    row = za.index.rows.get(support)
    if row is None:
        return _miss(za, support, i).estimate
    tail = row.tail
    if tail:
        start, period = tail
        return row.cells[i if i < start else start + (i - start) % period].estimate
    return (row.cells.get(i) or _miss(za, support, i)).estimate
