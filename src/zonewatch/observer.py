"""Precomputed observer: estimation answers tabulated over elapsed-time cells.

Between observations the estimate only depends on which unit cell the
elapsed time falls in: the integer point ``[k,k]`` (cell ``2k``) or the open
segment ``(k,k+1)`` (cell ``2k+1``), because every duration window in the
search has integer endpoints and so holds each cell whole or not at all.  For
every reachable belief support the builder runs one duration search at the
horizon and reads each cell's extended states off its windows.  Cells that
reach the same extended states are one object, holding the estimate and the
successor support per observable event, computed once per build; queries
beyond the horizon fall back to the online path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import INF, Interval, Rational, add
from .model import TFA, require_valid
from .zones import ZoneAutomaton, ext_sort_key
from .estimation import (
    BeliefState,
    Estimate,
    InvariantError,
    _duration_reach,
    _event_step,
    _ext,
    _ids,
    belief_advance,
    belief_query,
)

Support = frozenset


def _support_key(support: Support) -> tuple:
    return tuple(sorted(map(ext_sort_key, support)))


def _cell_index(t: Rational) -> int:
    """The unit cell holding time ``t``: ``[k,k]`` is cell ``2k``, ``(k,k+1)``
    cell ``2k+1``."""
    return 2 * (t.numerator // t.denominator) + (t.denominator != 1)


def _cell_span(i: int) -> Interval:
    k = i // 2
    return Interval.open(k, k + 1) if i % 2 else Interval.point(k)


def _reach_by_cell(za: ZoneAutomaton, ids: list[int], horizon: int) -> list[frozenset[int]]:
    """The ids reachable from ``ids`` with no observable event, per unit cell
    up to ``horizon``, read off the windows of one search at ``horizon``.

    That search expands every table entry whose window starts at or below
    the horizon, and its cap on accumulated sums keeps, for every ``dt`` up
    to the horizon, exactly the durations up to ``dt``; so an id is
    reachable in a cell when one of its entry windows covers the cell.
    """
    ix = za.index
    last = 2 * horizon
    cover: dict[int, int] = {}  # id -> bit mask of the cells its windows cover
    for r, *acc in _duration_reach(za, ids, Fraction(horizon)).parents:
        for s, *d, _, _, _ in ix.stretch(r, False):
            lo, lo_c, hi, hi_c = add(acc, d)
            if not isinstance(lo, int) or not (hi == INF or isinstance(hi, int)):
                raise InvariantError(f"duration window ({lo}, {hi}) has a non-integer endpoint")
            first = _cell_index(lo) + (not lo_c)
            if first > last:  # the search's cut: no later entry was expanded
                break
            end = last if hi == INF else min(last, _cell_index(hi) - (not hi_c))
            if first <= end:
                cover[s] = cover.get(s, 0) | ((2 << end) - (1 << first))
    return [frozenset(s for s, mask in cover.items() if mask >> i & 1) for i in range(last + 1)]


@dataclass(frozen=True)
class ObserverCell:
    estimate: Estimate
    successors: dict  # event -> Support


@dataclass
class OfflineObserver:
    za: ZoneAutomaton
    model: TFA
    horizon: int
    tables: dict  # Support -> tuple[ObserverCell, ...]
    initial_support: Support

    def cell_for(self, support: Support, dt: Rational) -> Optional[ObserverCell]:
        dt = Fraction(dt)
        row = self.tables.get(support)
        if row is None or dt < 0 or dt > self.horizon:
            return None
        return row[_cell_index(dt)]

    def lookup(self, support: Support, dt: Rational) -> Estimate:
        """Estimate after ``dt`` has elapsed since the support was formed.
        Falls back to the online computation beyond the horizon."""
        cell = self.cell_for(support, dt)
        if cell is not None:
            return cell.estimate
        return belief_query(
            self.za, self.model, BeliefState(support, Fraction(0)), Fraction(dt)
        )

    def successor(self, support: Support, event: str, dt: Rational) -> Support:
        """Belief support after observing ``event`` at elapsed time ``dt``."""
        if event not in self.model.observable:
            raise ValueError(f"event {event!r} is not observable")
        cell = self.cell_for(support, dt)
        if cell is not None:
            return cell.successors.get(event, frozenset())
        advanced = belief_advance(
            self.za, self.model, BeliefState(support, Fraction(0)), event, Fraction(dt)
        )
        return advanced.support

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
            supports.append({"id": ids[s], "support": support_json(s), "cells": cells})
        return {
            "horizon": self.horizon,
            "initial": ids[self.initial_support],
            "supports": supports,
        }


@dataclass
class ObserverSession:
    """An online session served from the precomputed tables."""

    observer: OfflineObserver
    support: Support
    anchor_time: Fraction

    def query(self, time: Rational) -> Estimate:
        time = Fraction(time)
        if time < self.anchor_time:
            raise ValueError("query time precedes the last observation")
        return self.observer.lookup(self.support, time - self.anchor_time)

    def advance(self, event: str, time: Rational) -> None:
        time = Fraction(time)
        if time < self.anchor_time:
            raise ValueError("observation time precedes the last observation")
        self.support = self.observer.successor(
            self.support, event, time - self.anchor_time
        )
        self.anchor_time = time


def default_horizon(za: ZoneAutomaton, model: TFA) -> int:
    return max(1, 2 * model.max_constant() * len(za.states))


def build_offline_observer(
    za: ZoneAutomaton, model: TFA, horizon: Optional[int] = None
) -> OfflineObserver:
    """Tabulate estimates and belief successors for every reachable support,
    one duration search per support.

    Raises ``InvariantError`` when a duration window has a non-integer
    endpoint, since the cells would then not be exact.
    """
    require_valid(model, require_ro=True)
    if horizon is None:
        horizon = default_horizon(za, model)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    events = sorted(model.observable)
    tables: dict = {}
    cells: dict = {}  # reached ids -> their one ObserverCell
    initial = za.initial
    queue = [initial]
    while queue:
        support = queue.pop()
        if support in tables or not support:
            continue
        row = []
        for reached in _reach_by_cell(za, _ids(za, support), horizon):
            cell = cells.get(reached)
            if cell is None:
                succ = {e: _ext(za, _event_step(za, reached, e)) for e in events}
                cell = cells[reached] = ObserverCell(
                    estimate=Estimate.from_extended(_ext(za, reached)), successors=succ
                )
                queue.extend(nxt for nxt in succ.values() if nxt and nxt not in tables)
            row.append(cell)
        tables[support] = tuple(row)
    return OfflineObserver(
        za=za, model=model, horizon=horizon, tables=tables, initial_support=initial
    )
