"""The periodic tail that the cell fixpoint certifies, against trying every
period.

``_root_period`` takes its candidate periods from the places where the top
cells of the root masks recur.  ``every_period`` is the search it replaced,
which tried every even period with one pass over the root masks per try;
both must give the same cell and period, or both none.
"""

import random

import pytest

import zonewatch.estimation as estimation
from zonewatch import build_zone_automaton
from zonewatch.estimation import _duration_cells, _reach_cells, _root_period, _width
from zonewatch.intervals import Interval
from zonewatch.zones import ExtendedState

from test_cell_fixpoint import _exact_loops, _fixpoint_models


def every_period(roots: dict, w: int, limit: int):
    """Every even period from 2 up to half the slack, in turn."""
    low = max(((m & -m).bit_length() for m in roots.values()), default=0)
    for p in range(2, (limit - w) // 2 + 1, 2):
        last = limit + 1 - w - p
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


def _random_roots(rng: random.Random, limit: int) -> dict:
    """Up to four masks, each periodic from a random cell, some with noise
    below that cell and some with one bit flipped anywhere."""
    roots = {}
    for key in range(rng.randint(0, 4)):
        period = rng.randint(1, 12)
        pattern = rng.getrandbits(period) if rng.random() < 0.8 else (1 << period) - 1
        start = rng.randint(0, limit // 2)
        m = 0
        for c in range(start, limit + 1):
            if pattern >> ((c - start) % period) & 1:
                m |= 1 << c
        if rng.random() < 0.3:
            m |= rng.getrandbits(start + 1)
        if rng.random() < 0.1:
            m ^= 1 << rng.randint(0, limit)
        roots[key] = m
    return roots


def test_root_period_matches_trying_every_period():
    rng = random.Random(21)
    found = 0
    for _ in range(3000):
        w = rng.choice([2, 4, 6, 8, 10])
        limit = rng.randint(4 * w, 12 * w)
        roots = _random_roots(rng, limit)
        want = every_period(roots, w, limit)
        assert _root_period(roots, w, limit) == want, (roots, w, limit)
        found += want is not None
    assert 1000 < found < 2900, found
    # The root masks of the fixpoint itself, from the initial support and
    # from every single id, at the first two cuts.
    compared = 0
    for name, model in _fixpoint_models():
        ix = build_zone_automaton(model).index
        w = _width(ix)
        for starts in [[ix.ids[x].start for x in sorted(model.initial)]] + [[i] for i in range(len(ix.ext))]:
            for limit in (4 * w, 8 * w):
                roots, _ = _reach_cells(ix, ix.start_runs(starts), limit)
                assert _root_period(roots, w, limit) == every_period(roots, w, limit), (name, starts, limit)
                compared += 1
    assert compared > 1000, compared


def test_exact_loops_refuse_after_a_few_candidate_periods(monkeypatch):
    # The loops' joint period, 30030 cells, is past every cut, so each of
    # the ten cuts up to the refusal looks for a period.  Trying every even
    # period made 28,584 passes over the root masks; the top cells of the
    # masks recur at only a few dozen places.
    za = build_zone_automaton(_exact_loops())
    start = za.index.id_of[ExtendedState("t", Interval.point(0))]
    cuts, tried = [], []
    recurrences = estimation._recurrences

    def counted(mask, limit, w, last):
        cuts.append(limit)
        for p in recurrences(mask, limit, w, last):
            tried.append(p)
            yield p

    monkeypatch.setattr(estimation, "_recurrences", counted)
    with pytest.raises(ValueError, match="no periodic tail of the silent durations within 57344 cells"):
        _duration_cells(za, [start])
    assert len(cuts) == 10 and cuts[-1] == 57344, cuts
    assert 0 < len(tried) < 100, len(tried)
