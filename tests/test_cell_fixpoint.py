"""The cell-mask fixpoint and the row fill against their references.

The library runs one fixpoint per maximal start run on cell-form stretch
tables, memoised on the index, and fills a row one run of equal cells at a
time.  ``cell_fixpoint`` keeps the joint fixpoint over every start at once
and the cell-by-cell fill; the masks and the rows must be equal.
"""

import random

from zonewatch import build_offline_observer, build_zone_automaton, model_from_dict
from zonewatch.estimation import _duration_cells, _ids, _reach_cells, _width
from zonewatch.oracle import RandomModelConfig, random_model

from cell_fixpoint import dense_row, reach_cells
from conftest import make_fig1
from test_estimation import _periodic_model


def _fixpoint_models() -> list:
    models = [("fig1", make_fig1()), ("periodic", _periodic_model())]
    for seed in range(60):
        config = RandomModelConfig(
            state_count=2 + seed % 5,
            max_constant=1 + seed % 4,
            transition_density=0.12 + 0.04 * (seed % 4),
            reset_id_probability=0.2 + 0.1 * (seed % 3),
            require_ro=seed % 3 != 0,
            rng_seed=7300 + seed,
        )
        models.append((f"random{seed}", random_model(config)))
    return models


def _supports(za, rng: random.Random) -> list:
    """The initial ids, then up to four id sets of 2 to 5 start runs each."""
    ix = za.index
    supports = [_ids(za, za.initial)]
    ids = range(len(ix.ext))
    for _ in range(40):
        if len(supports) == 5:
            break
        picked = sorted(rng.sample(ids, min(len(ids), rng.randint(2, 8))))
        if 2 <= len(ix.start_runs(picked)) <= 5 and picked not in supports:
            supports.append(picked)
    return supports


def test_run_fixpoints_match_the_joint_reference():
    # Root and hit masks at the cuts 4w and 8w, asked for in either order,
    # so that a start run's memo entry is read at its own cut and cut down
    # from a larger one; supports share start runs, and so memo entries.
    rng = random.Random(13)
    compared = several = 0
    for k, (name, model) in enumerate(_fixpoint_models()):
        za, ref = build_zone_automaton(model), build_zone_automaton(model)
        w = _width(za.index)
        cuts = [4 * w, 8 * w] if k % 2 else [8 * w, 4 * w]
        for starts in _supports(za, rng):
            several += len(za.index.start_runs(starts)) > 1
            for limit in cuts:
                got = _reach_cells(za.index, starts, limit)
                assert got == reach_cells(ref.index, starts, limit), (name, starts, limit)
                compared += 1
    assert compared > 400 and several > 150, (compared, several)


def _wide_guard(c: int):
    """``s -u-> t`` on ``[0,c]`` and ``t -a-> s`` on ``[1,2]``, both reset
    to 0: one large constant, and rows of a few runs each."""
    return model_from_dict({
        "states": ["s", "t"], "alphabet": ["a", "u"], "observable": ["a"], "initial": ["s"],
        "transitions": [
            {"from": "s", "event": "u", "to": "t", "guard": f"[0,{c}]", "reset": "[0,0]"},
            {"from": "t", "event": "a", "to": "s", "guard": "[1,2]", "reset": "[0,0]"},
        ],
    })


def test_boundary_rows_match_the_dense_fill():
    # Every row the observer builds, read cell by cell, against the dense
    # fill of a fixpoint on a separately built zone automaton.
    models = [(f"wide{c}", _wide_guard(c)) for c in (10**3, 10**4, 10**5)]
    models += [
        (f"random{seed}", random_model(RandomModelConfig(
            state_count=3 + seed % 4, max_constant=2 + seed % 3, transition_density=0.2, rng_seed=7400 + seed,
        )))
        for seed in range(20)
    ]
    rows = cells = 0
    for name, model in models:
        za, ref = build_zone_automaton(model), build_zone_automaton(model)
        observer = build_offline_observer(za, model)
        for support, row in observer.tables.items():
            hits, start, period = _duration_cells(ref, _ids(ref, support))
            assert observer.tails[support] == (start, period), name
            assert [cell.reached for cell in row] == dense_row(hits, start + period), (name, support)
            rows += 1
            cells += len(row)
    assert rows > 60 and cells > 2 * 10**5, (rows, cells)
