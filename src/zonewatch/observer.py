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
repeats forever, certified by the fixpoint.  So each row holds ``start +
period`` cells, and any elapsed time is answered by one table read.  Cells
that reach the same extended states are one object, holding the estimate
and the successor support per observable event; the builder computes the
successors of every cell, which is how it finds the next supports.  A
session op maps its time to the cell index with the integer arithmetic of
``estimation._gap_cell`` and reads the row at that index (``_cell_at``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import Interval, Rational
from .model import TFA, require_valid
from .zones import ZoneAutomaton, ZoneIndex, ext_sort_key
from .estimation import Cell, Estimate, _exact, _gap_cell, _total_row

Support = frozenset


def _support_key(support: Support) -> tuple:
    return tuple(sorted(map(ext_sort_key, support)))


def _cell_span(i: int) -> Interval:
    k = i // 2
    return Interval.open(k, k + 1) if i % 2 else Interval.point(k)


# The answer for the empty support, which a session reaches after an
# inconsistent observation and which has no row.
_EMPTY_CELL = Cell(frozenset(), ZoneIndex())


@dataclass
class OfflineObserver:
    model: TFA
    horizon: Optional[int]  # accepted for compatibility; it sizes nothing
    tables: dict  # Support -> tuple[Cell, ...], the first start + period cells
    tails: dict  # Support -> (start, period) of its row, in cells
    initial_support: Support

    def _cell_at(self, support: Support, i: int) -> Cell:
        """The cell answering every elapsed time in unit cell ``i`` after the
        support was formed."""
        if not support:
            return _EMPTY_CELL
        row = self.tables.get(support)
        if row is None:
            raise ValueError("support is not reachable in this observer")
        start, period = self.tails[support]
        return row[i if i < start else start + (i - start) % period]

    def _successor_at(self, support: Support, event: str, i: int) -> Support:
        if event not in self.model.observable:
            raise ValueError(f"event {event!r} is not observable")
        # The builder computed every row cell's successors; the empty cell has none.
        return self._cell_at(support, i).successors.get(event, frozenset())

    def cell_for(self, support: Support, dt: Rational) -> Cell:
        """The cell answering ``dt`` after the support was formed."""
        return self._cell_at(support, _gap_cell(_exact(dt), 0))

    def lookup(self, support: Support, dt: Rational) -> Estimate:
        """Estimate after ``dt`` has elapsed since the support was formed."""
        return self.cell_for(support, dt).estimate

    def successor(self, support: Support, event: str, dt: Rational) -> Support:
        """Belief support after observing ``event`` at elapsed time ``dt``."""
        return self._successor_at(support, event, _gap_cell(_exact(dt), 0))

    def session(self) -> "ObserverSession":
        return ObserverSession(self, self.initial_support, Fraction(0))

    def to_json_dict(self) -> dict:
        order = sorted(self.tables, key=_support_key)
        ids = {s: i for i, s in enumerate(order)}

        def support_json(s: Support) -> list:
            return [[v.state, str(v.zone)] for v in sorted(s, key=ext_sort_key)]

        supports = []
        for s in order:
            cells = []
            for i, cell in enumerate(self.tables[s]):
                cells.append(
                    {
                        "span": str(_cell_span(i)),
                        "discrete": sorted(cell.estimate.discrete),
                        "extended": [
                            [v.state, str(v.zone)]
                            for v in sorted(cell.estimate.extended, key=ext_sort_key)
                        ],
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
                    "support": support_json(s),
                    "cells": cells,
                    "tail": {"from": start, "period": period},
                }
            )
        return {
            "horizon": self.horizon,
            "initial": ids[self.initial_support],
            "supports": supports,
        }


@dataclass
class ObserverSession:
    """An online session served from the precomputed tables.  Each op maps
    ``time - anchor_time`` to its unit cell in integer arithmetic and reads
    one table entry.  Times may be any rational: one that is not a
    ``Fraction`` or an ``int`` goes through ``Fraction(...)`` first."""

    observer: OfflineObserver
    support: Support
    anchor_time: Fraction

    def query(self, time: Rational) -> Estimate:
        i = _gap_cell(_exact(time), self.anchor_time, "query time precedes the last observation")
        return self.observer._cell_at(self.support, i).estimate

    def advance(self, event: str, time: Rational) -> None:
        time = _exact(time)
        i = _gap_cell(time, self.anchor_time, "observation time precedes the last observation")
        self.support = self.observer._successor_at(self.support, event, i)
        self.anchor_time = time


def build_offline_observer(
    za: ZoneAutomaton, model: TFA, horizon: Optional[int] = None
) -> OfflineObserver:
    """Tabulate estimates and belief successors for every reachable support
    and every elapsed time: make each support's memo row total, one
    cell-mask fixpoint per support not yet total, and compute the successors
    of every cell.

    ``horizon`` is checked (at least 1) and kept, but sizes nothing: every
    row ends at its certified tail.  Raises ``ValueError`` when a support's
    durations have no periodic tail within the fixpoint's largest cut, and
    ``InvariantError`` when a duration window has a non-integer endpoint,
    since the cells would then not be exact.
    """
    require_valid(model, require_ro=True)
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be at least 1")
    events = sorted(model.observable)
    tables: dict = {}
    tails: dict = {}
    initial = za.initial
    queue = [initial]
    while queue:
        support = queue.pop()
        if support in tables or not support:
            continue
        tables[support], tails[support] = _total_row(za, support)
        for cell in set(tables[support]):
            queue.extend(cell.successor(e) for e in events)
    return OfflineObserver(
        model=model, horizon=horizon, tables=tables, tails=tails, initial_support=initial
    )
