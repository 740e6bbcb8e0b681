"""Reference zone construction, one unit region at a time.

This is the construction the endpoint sweep in ``zonewatch.zones`` replaced,
kept as the reference of the differential tests.  The clock axis at a state
is cut into all ``2M+1`` unit regions up to the largest relevant constant
``M``, the enabled input and output transitions are computed per region,
and consecutive regions merge while those sets are equal and none of their
transitions preserves the clock.
"""

from zonewatch.intervals import Interval, subset
from zonewatch.model import TFA, Transition


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


def reference_zones(model: TFA, state: str) -> list[Interval]:
    """Merge regions into the ordered zone partition of ``[0, inf)``."""
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
