"""Reference stretch walk, one ``intervals.distance`` per entry.

This is the walk that the lean pass of ``ZoneIndex.walk`` replaced, kept as
the reference of the differential tests.  It walks breadth first from each
member of a run, the highest first, keeps a ``pred, edge`` link for every
id it meets and asks ``intervals.distance`` for each entry's window from
the hull of the members that reach it.  ``stretch_table`` sorts the rows
as ``ZoneIndex`` does, and ``cell_table`` groups them by window as the
estimation memo's cell-form table does.
"""

from zonewatch.estimation import _shifts
from zonewatch.intervals import distance


def walk(ix, key: int, all_events: bool) -> list[tuple]:
    """The rows of the run ``key``'s stretch, in the order the walk meets
    their ids: ``(s, *window, resets)``, plus ``pred, edge`` over all
    events."""
    zone, ranges, tau = ix.zone, ix.ranges, ix.tau
    moves = ix.events if all_events else ix.silent
    a, b = ix.run(key)
    lo, lo_closed = ranges[zone[a]][:2]
    link: dict = {}  # id -> (id it was reached from, edge)
    rows = []
    for j in range(b, a - 1, -1):
        high = ranges[zone[j]]
        hull = (lo, lo_closed, high[2], high[3])
        link[j] = (-1, None)
        order = [j]
        for s in order:
            runs = tuple([edge for edge in moves[s] if edge[2]])
            d = distance(hull, ranges[zone[s]])
            rows.append((s, *d, runs, *link[s]) if all_events else (s, *d, runs))
            nxt = tau[s]
            if nxt >= 0 and nxt not in link:
                link[nxt] = (s, None)
                order.append(nxt)
            for edge in moves[s]:
                if not edge[2] and edge[1] not in link:
                    link[edge[1]] = (s, edge)
                    order.append(edge[1])
    return rows


def stretch_table(ix, key: int, all_events: bool) -> tuple:
    """The stretch table of the run ``key``: the walk's rows by the lower
    end of their window, closed before open, in walk order at a tie."""
    return tuple(sorted(walk(ix, key, all_events), key=lambda row: 2 * row[1] + (not row[2])))


def cell_table(ix, key: int) -> tuple:
    """The silent stretch table of the run ``key`` in cell form, ``(loops,
    exits, hits)``, each distinct window in the order the walk first meets
    it."""
    exits: dict = {}  # window -> reset run keys, as dict keys
    hits: dict = {}  # window -> ids
    for s, *d, runs in walk(ix, key, False):
        d = tuple(d)
        hits.setdefault(d, []).append(s)
        if runs:
            keys = exits.setdefault(d, {})
            for run in runs:
                keys[run[1]] = None
    return (
        [d for d, keys in exits.items() if key in keys],
        [(_shifts(d), keys) for d, keys in exits.items()],
        [(_shifts(d), ids) for d, ids in hits.items()],
    )
