"""The lean stretch pass against the reference walk.

``ZoneIndex.walk`` writes each entry's distance out inline, marks the ids
of a silent walk in a set and keeps ``pred, edge`` links only on
all-events rows.  These tests check that every stretch table and every
cell-form table it builds equals, row order included, the one the
reference walk of ``stretch_walk`` builds with ``intervals.distance``, for
every root a workload meets, and that a silent fill calls no
``distance``.
"""

import sys
from fractions import Fraction

import pytest

from zonewatch import ID_RESET, build_zone_automaton, t_reachable
from zonewatch.estimation import _cell_table, _duration_cells, _duration_reach, _ids
from zonewatch.oracle import RandomModelConfig, random_model

import stretch_walk
from conftest import make_fig1
from test_acceptance import ring_model
from test_cell_fixpoint import _fixpoint_models

F = Fraction


def _id_guard_models(count: int) -> list:
    """The first ``count`` random ``require_ro`` models with a
    clock-preserving transition, whose guards cut a zone per unit region."""
    models = []
    seed = 0
    while len(models) < count:
        config = RandomModelConfig(
            state_count=3 + seed % 4,
            max_constant=1 + seed % 4,
            transition_density=0.12 + 0.04 * (seed % 4),
            reset_id_probability=0.3 + 0.1 * (seed % 3),
            require_ro=True,
            rng_seed=9700 + seed,
        )
        model = random_model(config)
        if any(t.reset == ID_RESET for t in model.transitions):
            models.append((f"id{seed}", model))
        seed += 1
    return models


def _models() -> list:
    return [("fig1", make_fig1()), ("ring8", ring_model(8))] + _fixpoint_models() + _id_guard_models(60)


def _meet_roots(model):
    """The index of a zone automaton that has met the roots of searches,
    row fills and ``t_reachable`` calls from every state's zones, and every
    single id as a root."""
    za = build_zone_automaton(model)
    ix = za.index
    supports = [_ids(za, za.initial)] + [list(ix.ids[x]) for x in sorted(model.states)]
    for starts in supports:
        runs = ix.start_runs(starts)
        for i in range(10):
            _duration_reach(za, runs, i)
        try:
            _duration_cells(za, starts)
        except ValueError:
            pass  # no tail within the largest cut: the tables met stay
    states = sorted(model.states)
    for x in states:
        for y in states[:3]:
            for d in (F(0), F(1, 2), F(3), F(7, 2)):
                t_reachable(za, model, x, y, d)
    # Every single id is a root too, open lower ends included.
    for j in range(len(ix.ext)):
        ix.stretch(j, False)
        ix.stretch(j, True)
        if j not in ix.cell_tables:
            _cell_table(ix, j)
    return ix


def _cell_form(table) -> tuple:
    """A cell-form table with each dict of run keys as its key list, so that
    their order counts too."""
    loops, exits, hits = table
    return loops, [(shifts, list(keys)) for shifts, keys in exits], hits


@pytest.mark.parametrize("name, model", [pytest.param(name, model, id=name) for name, model in _models()])
def test_tables_equal_the_reference_walk(name, model):
    ix = _meet_roots(model)
    silent, linked = ix.stretches
    assert silent and linked and ix.cell_tables, name
    for all_events, tables in ((False, silent), (True, linked)):
        for key, table in tables.items():
            assert table == stretch_walk.stretch_table(ix, key, all_events), (name, key, all_events)
            # Row for row, types included: the windows' ints and bools.
            assert [tuple(map(type, row)) for row in table] == [
                tuple(map(type, row)) for row in stretch_walk.stretch_table(ix, key, all_events)
            ], (name, key, all_events)
    for key, table in ix.cell_tables.items():
        assert _cell_form(table) == _cell_form(stretch_walk.cell_table(ix, key)), (name, key)


def test_silent_fills_call_no_distance():
    # The lean pass writes each distance out: a silent fill opens no frame
    # but its own and the sort key's, ``intervals.distance`` least of all.
    for model in (make_fig1(), ring_model(8)) + tuple(m for _, m in _id_guard_models(5)):
        ix = build_zone_automaton(model).index
        n = len(ix.ext)
        # Every single id, and every state's run of all its ids.
        keys = list(range(n)) + [ids.start + n * (len(ids) - 1) for ids in ix.ids.values()]
        calls = []

        def hook(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        for key in keys:
            sys.setprofile(hook)
            try:
                ix.stretch(key, False)
            finally:
                sys.setprofile(None)
        assert "distance" not in calls
        assert set(calls) <= {"stretch", "_fill", "walk", "run", "<lambda>"}, set(calls)
        assert len(ix.stretches[False]) == len(set(keys))
