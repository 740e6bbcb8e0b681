"""Precomputed observer: estimation answers tabulated over elapsed-time cells.

Between observations the estimate only depends on which unit cell the
elapsed time falls in: the integer point ``[k,k]`` (cell ``2k``) or the open
segment ``(k,k+1)`` (cell ``2k+1``), because every duration window in the
search has integer endpoints and so holds each cell whole or not at all.
The online functions in ``estimation`` fill a memo of such cells on the zone
automaton's index lazily; the observer is that same memo filled up front.
For every reachable belief support the builder makes the support's row
total with one cell-mask fixpoint (``_duration_cells``), which gives the
cells at which each extended state is reachable for every elapsed time at
once: a prefix of ``start`` cells, then a tail of ``period`` cells that
repeats forever, certified by the fixpoint.  Underneath, the fixpoint runs
once per start run of the support and is memoised on the index, so
supports that share a start run share that work.  So each row holds ``start +
period`` cells.  Cells that reach the same extended states are one object,
holding the estimate and the successor support per observable event; the
builder computes the successors of every cell, which is how it finds the
next supports.  Every read, a session op's included, maps its time to the
cell index with the integer arithmetic of ``estimation._gap_cell`` and reads
the memo with ``estimation._cell``, the reader of the belief API: a
tabulated support is one table read at any elapsed time, and any other
support, the empty one included, is answered as the belief API answers it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import Interval, Rational
from .model import TFA, require_valid
from .zones import ZoneAutomaton, ext_json, ext_sort_key
from .estimation import Estimate, _cell, _exact, _gap_cell, _total_row

Support = frozenset


def _support_key(support: Support) -> tuple:
    return tuple(sorted(map(ext_sort_key, support)))


def _cell_span(i: int) -> Interval:
    k = i // 2
    return Interval.open(k, k + 1) if i % 2 else Interval.point(k)


@dataclass
class OfflineObserver:
    model: TFA
    za: ZoneAutomaton
    tables: dict  # Support -> tuple[Cell, ...], the first start + period cells
    tails: dict  # Support -> (start, period) of its row, in cells
    initial_support: Support

    def lookup(self, support: Support, dt: Rational) -> Estimate:
        """Estimate after ``dt`` has elapsed since the support was formed."""
        return _cell(self.za, support, _gap_cell(_exact(dt), 0)).estimate

    def successor(self, support: Support, event: str, dt: Rational) -> Support:
        """Belief support after observing ``event`` at elapsed time ``dt``."""
        i = _gap_cell(_exact(dt), 0)
        if event not in self.model.observable:
            raise ValueError(f"event {event!r} is not observable")
        return _cell(self.za, support, i).successor(event)

    def session(self) -> "ObserverSession":
        return ObserverSession(self.za, self.model.observable, self.initial_support, Fraction(0))

    def to_json_dict(self) -> dict:
        order = sorted(self.tables, key=_support_key)
        ids = {s: i for i, s in enumerate(order)}
        supports = []
        for s in order:
            cells = []
            for i, cell in enumerate(self.tables[s]):
                cells.append(
                    {
                        "span": str(_cell_span(i)),
                        "discrete": sorted(cell.estimate.discrete),
                        "extended": ext_json(cell.estimate.extended),
                        "next": {
                            e: (ids[n] if n in ids else None)
                            for e, n in sorted(cell.successors.items())
                        },
                    }
                )
            start, period = self.tails[s]
            supports.append(
                {
                    "id": ids[s],
                    "support": ext_json(s),
                    "cells": cells,
                    "tail": {"from": start, "period": period},
                }
            )
        return {"initial": ids[self.initial_support], "supports": supports}


@dataclass
class ObserverSession:
    """An online session served from the observer's memo.  Each op maps
    ``time - anchor_time`` to its unit cell in integer arithmetic and reads
    that cell with ``estimation._cell``.  Times may be any rational: one
    that is not a ``Fraction`` or an ``int`` goes through ``Fraction(...)``
    first."""

    za: ZoneAutomaton
    observable: frozenset
    support: Support
    anchor_time: Fraction

    def query(self, time: Rational) -> Estimate:
        i = _gap_cell(_exact(time), self.anchor_time, "query time precedes the last observation")
        return _cell(self.za, self.support, i).estimate

    def advance(self, event: str, time: Rational) -> None:
        time = _exact(time)
        i = _gap_cell(time, self.anchor_time, "observation time precedes the last observation")
        if event not in self.observable:
            raise ValueError(f"event {event!r} is not observable")
        cell = _cell(self.za, self.support, i)
        nxt = cell.successors.get(event)
        self.support = cell.successor(event) if nxt is None else nxt
        self.anchor_time = time


def build_offline_observer(
    za: ZoneAutomaton, model: TFA, horizon: Optional[int] = None
) -> OfflineObserver:
    """Tabulate estimates and belief successors for every reachable support
    and every elapsed time: make each support's memo row total, one
    cell-mask fixpoint per support not yet total (its masks ORed from one
    memoised fixpoint per start run), and compute the successors of every
    cell.

    ``horizon`` is ignored: every row ends at its certified tail.  It is
    still accepted because existing callers pass it.  Raises ``ValueError``
    when a support's durations have no periodic tail within the fixpoint's
    largest cut, and ``InvariantError`` when a duration window has a
    non-integer endpoint, since the cells would then not be exact.
    """
    require_valid(model, require_ro=True)
    events = sorted(model.observable)
    tables: dict = {}
    tails: dict = {}
    initial = za.initial
    queue = [initial]
    while queue:
        support = queue.pop()
        if support in tables or not support:
            continue
        row, tails[support] = _total_row(za, support)
        tables[support] = row
        for cell in dict.fromkeys(row):  # each distinct cell once, in row order
            for e in events:
                queue.append(cell.successor(e))
    return OfflineObserver(model=model, za=za, tables=tables, tails=tails, initial_support=initial)
