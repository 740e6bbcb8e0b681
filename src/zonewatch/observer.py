"""Precomputed observer: estimation answers tabulated over elapsed-time cells.

Between observations the estimate only depends on which unit cell (integer
point or open unit segment) the elapsed time falls in, because every duration
window in the search has integer endpoints.  The builder sweeps the cells up
to a horizon for every reachable belief support, storing the estimate and the
successor support per observable event; queries beyond the horizon fall back
to the online path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intervals import Interval, Rational
from .model import TFA, require_valid
from .zones import ZoneAutomaton, ext_sort_key
from .estimation import (
    BeliefState,
    Estimate,
    InvariantError,
    _event_step,
    _ext,
    _ids,
    _silent_reach,
    belief_advance,
    belief_query,
)

Support = frozenset


def _support_key(support: Support) -> tuple:
    return tuple(sorted(map(ext_sort_key, support)))


def _unit_cells(horizon: int) -> list[Interval]:
    cells: list[Interval] = [Interval.point(0)]
    for k in range(horizon):
        cells.append(Interval.open(k, k + 1))
        cells.append(Interval.point(k + 1))
    return cells


def _cell_samples(cell: Interval) -> list[Fraction]:
    if cell.is_point:
        return [Fraction(cell.lo)]
    k = Fraction(cell.lo)
    return [k + Fraction(1, 4), k + Fraction(1, 2), k + Fraction(3, 4)]


@dataclass(frozen=True)
class ObserverCell:
    span: Interval
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
        # Cells alternate [k,k], (k,k+1): [k,k] is row[2k], (k,k+1) row[2k+1].
        return row[2 * (dt.numerator // dt.denominator) + (dt.denominator != 1)]

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
            for cell in self.tables[s]:
                cells.append(
                    {
                        "span": str(cell.span),
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
    """Tabulate estimates and belief successors for every reachable support.

    Each cell's estimate is computed at three interior samples (or the single
    integer) and checked constant, then frozen into the table.
    """
    require_valid(model, require_ro=True)
    if horizon is None:
        horizon = default_horizon(za, model)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    cells = _unit_cells(horizon)
    tables: dict = {}
    initial = za.initial
    queue = [initial]
    while queue:
        support = queue.pop()
        if support in tables or not support:
            continue
        ids = _ids(za, support)
        row = []
        for span in cells:
            samples = _cell_samples(span)
            reached = [_silent_reach(za, ids, s) for s in samples]
            if any(r != reached[0] for r in reached[1:]):
                raise InvariantError(
                    f"estimate not constant on {span} for support {_support_key(support)}"
                )
            succ = {
                e: _ext(za, _event_step(za, reached[0], e)) for e in sorted(model.observable)
            }
            row.append(
                ObserverCell(
                    span=span,
                    estimate=Estimate.from_extended(_ext(za, reached[0])),
                    successors=succ,
                )
            )
            for nxt in succ.values():
                if nxt and nxt not in tables:
                    queue.append(nxt)
        tables[support] = tuple(row)
    return OfflineObserver(
        za=za, model=model, horizon=horizon, tables=tables, initial_support=initial
    )
