"""Reference duration search, one node at a time.

This is the search the stretch-table search in ``zonewatch.estimation``
replaced, kept as the reference of the differential tests.  A node is an
extended-state id, the zone where the current reset-free stretch began
and the (capped) range sum of the completed stretches; each ``tau`` step and
each event edge is one step of a breadth-first search, and a node whose
window ``acc (+) distance(entry zone, current zone)`` starts above ``dt`` is
not expanded.
"""

from collections import deque
from fractions import Fraction

from zonewatch.intervals import INF, distance


def targets(ix, key: int) -> range:
    """The ids of the run ``key`` of an ``events`` entry."""
    a, b = ix.run(key)
    return range(a, b + 1)


def node_reach(za, starts, dt: Fraction, all_events: bool = False) -> set[int]:
    """The ids reachable from ``starts`` in exactly ``dt`` over silent events
    (over every event with ``all_events``)."""
    ix = za.index
    ext, tau = ix.ext, ix.tau
    table = ix.events if all_events else ix.silent
    moves = {}  # id -> its edges (target, resets_clock), runs expanded on first visit
    p, q = dt.numerator, dt.denominator  # dt is compared as x*q against p
    ceiling = -(-p // q)
    dist = {}
    seen = set()
    queue = deque()
    for s in starts:
        node = (s, ext[s].zone, (0, True, 0, True))
        if node not in seen:
            seen.add(node)
            queue.append(node)
    hits = set()
    while queue:
        s, entry, acc = queue.popleft()
        key = (entry, ext[s].zone)
        if key not in dist:
            dist[key] = distance(entry, ext[s].zone)
        d = dist[key]
        lo, lo_c = acc[0] + d[0], acc[1] and d[1]
        if lo * q > p or (lo * q == p and not lo_c):
            continue
        hi, hi_c = acc[2] + d[2], acc[3] and d[3]
        if hi == INF or hi * q > p or (hi * q == p and hi_c):
            hits.add(s)
        children = []
        if tau[s] >= 0:
            children.append((tau[s], entry, acc))
        out = moves.get(s)
        if out is None:
            out = moves[s] = [(t, e[2]) for e in table[s] for t in targets(ix, e[1])]
        for target, resets in out:
            if not resets:
                children.append((target, entry, acc))
            elif hi > ceiling:
                children.append((target, ext[target].zone, (lo, lo_c, ceiling + 1, True)))
            else:
                children.append((target, ext[target].zone, (lo, lo_c, hi, hi_c)))
        for child in children:
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return hits


def graph_reach(za, starts) -> set[int]:
    """The ids reachable from ``starts`` over the zone automaton's edges
    (``tau`` and every event), at any duration: plain breadth-first
    reachability."""
    ix = za.index
    succ = {}
    for edge in za.edges:
        succ.setdefault(ix.id_of[edge.source], []).append(ix.id_of[edge.target])
    seen = set(starts)
    queue = deque(seen)
    while queue:
        for t in succ.get(queue.popleft(), ()):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def node_step(za, hits, event: str) -> list[int]:
    """The ids just after observing ``event`` from the ids ``hits``, ascending."""
    ix = za.index
    return sorted({j for i in hits for e in ix.events[i] if e[0] == event for j in targets(ix, e[1])})


def node_support(za, events) -> frozenset:
    """The belief support after the observed ``(event, time)`` pairs, from
    ``node_reach`` alone: the memo-free reference for the belief API, batch
    ``estimate`` and the observer."""
    ix = za.index
    support = sorted(ix.id_of[v] for v in za.initial)
    anchor = Fraction(0)
    for event, ts in events:
        support = node_step(za, node_reach(za, support, ts - anchor), event)
        anchor = ts
    return frozenset(ix.ext[i] for i in support)


def node_estimate(za, events, time: Fraction) -> frozenset:
    """The extended estimate at ``time`` after the observed ``events``, from
    ``node_reach`` alone."""
    ix = za.index
    anchor = events[-1][1] if events else Fraction(0)
    starts = sorted(ix.id_of[v] for v in node_support(za, events))
    return frozenset(ix.ext[i] for i in node_reach(za, starts, time - anchor))
