"""Reference cell-mask fixpoint, all starts at once and one window at a time.

This is the fixpoint that the one on cell-form tables in
``zonewatch.estimation`` replaced, kept as the reference of the differential
tests.  Both run one worklist over the root masks of every start at once,
but this one reads the silent stretch tables entry by entry, turns each
entry's window into cell shifts on every use (``add_window``), and expands
a root's exits back to itself like any other.  ``dense_row`` fills a
row one cell at a time, testing every id's mask at every cell, as the row
fill once did (but on bit strings, so that it stays linear in the cells).
"""

from zonewatch.estimation import InvariantError
from zonewatch.intervals import INF


def _smear(mask: int, lo: int, hi, full: int) -> int:
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
        step = width if 2 * width <= n else n - width
        mask = (mask | mask << step) & full
        width += step
    return mask


def add_window(mask: int, d, even: int, full: int) -> int:
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


def reach_cells(ix, starts, limit: int) -> tuple[dict, dict]:
    """The cells ``0..limit`` of every silent duration from ``starts``: the
    mask of each stretch root, keyed by run key, and of each reached id,
    keyed by id.  The runs of ``starts`` hold cell 0, and expanding a root
    adds each entry's window to the bits the root gained since its last
    expansion, into the mask of each reset run."""
    full = (2 << limit) - 1
    even = ((1 << 2 * (limit // 2 + 1)) - 1) // 3  # 0b0101...01
    roots = dict.fromkeys(ix.start_runs(starts), 1)
    pending = dict(roots)  # root -> bits not yet expanded
    while pending:
        r, delta = pending.popitem()
        for _, *d, resets in ix.stretch(r, False):
            if not resets:
                continue
            cells = add_window(delta, d, even, full)
            for run in resets:
                old = roots.get(run[1], 0)
                gain = cells & ~old
                if gain:
                    roots[run[1]] = old | gain
                    pending[run[1]] = pending.get(run[1], 0) | gain
    hits: dict = {}
    for r, mask in roots.items():
        for s, *d, _ in ix.stretch(r, False):
            cells = add_window(mask, d, even, full)
            if cells:
                hits[s] = hits.get(s, 0) | cells
    return roots, hits


def dense_row(hits: dict, n: int) -> list[frozenset]:
    """The reached ids of cells ``0..n-1``, one cell at a time."""
    bits = {s: bin(mask)[:1:-1].ljust(n, "0") for s, mask in hits.items()}  # character i is bit i
    return [frozenset(s for s, b in bits.items() if b[i] == "1") for i in range(n)]
