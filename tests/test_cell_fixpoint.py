"""The cell-mask fixpoint and the row fill against their references.

The library runs one fixpoint per support over every start run at once, on
cell-form stretch tables made once per root, and fills a row one run of
equal cells at a time.  ``cell_fixpoint`` keeps the same fixpoint on the
stretch tables themselves, one window at a time, and the cell-by-cell fill;
the masks and the rows must be equal.
"""

import random

import pytest

from zonewatch import belief_advance, belief_init, build_offline_observer, build_zone_automaton, model_from_dict
from zonewatch.estimation import _duration_cells, _ids, _reach_cells, _total_row, _width
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
    models.append(("exact loops", _exact_loops()))
    return models


_LOOPS = (3, 5, 7, 11, 13)


def _exact_loops():
    """``s -a-> t`` on ``[0,1]``, then a silent ``t -u-> l_d`` at ``[0,0]``
    and an exact silent loop ``l_d -c-> l_d`` at ``[d,d]`` for each ``d``
    of ``_LOOPS``, all reset to 0: the loops' joint period, 30030 cells, is
    too long to tabulate."""
    transitions = [{"from": "s", "event": "a", "to": "t", "guard": "[0,1]", "reset": "[0,0]"}]
    for d in _LOOPS:
        transitions += [
            {"from": "t", "event": "u", "to": f"l{d}", "guard": "[0,0]", "reset": "[0,0]"},
            {"from": f"l{d}", "event": "c", "to": f"l{d}", "guard": f"[{d},{d}]", "reset": "[0,0]"},
        ]
    return model_from_dict({
        "states": ["s", "t", *(f"l{d}" for d in _LOOPS)], "alphabet": ["a", "c", "u"], "observable": ["a"],
        "initial": ["s"], "transitions": transitions,
    })


def test_exact_self_loops_close_by_doubling(monkeypatch):
    # A root whose exit leads back to itself is closed by doubling the
    # exit's window, one shift per doubling up to the cut, so the cost of
    # these loops grows with the log of the cut, not with the cells the
    # loops add: every cut up to the refusal takes under 1,000 shifts.
    from zonewatch.zones import ExtendedState
    from zonewatch.intervals import Interval

    za = build_zone_automaton(_exact_loops())
    start = za.index.id_of[ExtendedState("t", Interval.point(0))]
    shifts = _counted_shifts(monkeypatch)
    with pytest.raises(ValueError, match="no periodic tail of the silent durations within 57344 cells"):
        _duration_cells(za, [start])
    assert 0 < len(shifts) < 1000, len(shifts)


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
    # Root and hit masks at the cuts 4w and 8w, asked for in either order
    # on one index, so that the second cut reads the cell-form tables the
    # first made; most supports have several start runs, seeded at once.
    rng = random.Random(13)
    compared = several = 0
    for k, (name, model) in enumerate(_fixpoint_models()):
        za, ref = build_zone_automaton(model), build_zone_automaton(model)
        w = _width(za.index)
        cuts = [4 * w, 8 * w] if k % 2 else [8 * w, 4 * w]
        for starts in _supports(za, rng):
            several += len(za.index.start_runs(starts)) > 1
            for limit in cuts:
                got = _reach_cells(za.index, za.index.start_runs(starts), limit)
                assert got == reach_cells(ref.index, starts, limit), (name, starts, limit)
                compared += 1
    assert compared > 400 and several > 150, (compared, several)


def _big(n: int):
    """A random model of ``n`` states with 4 events, constants up to 4 and
    about 12 transitions per state."""
    return random_model(RandomModelConfig(
        state_count=n, event_count=4, max_constant=4, transition_density=3.0 / n, rng_seed=n,
    ))


def _counted_shifts(monkeypatch) -> list:
    """A list that gets one item per call of ``estimation._shift`` from now
    on."""
    import zonewatch.estimation as estimation

    calls = []
    shift = estimation._shift

    def counted(*args):
        calls.append(None)
        return shift(*args)

    monkeypatch.setattr(estimation, "_shift", counted)
    return calls


# Per case: a support, as the text of its extended states ("*" for all of
# them), then the ``_shift`` calls of its total row on a fresh zone automaton
# and the row's tail ``(start, period)``.
ROW_SHIFTS = [
    ("fig1", "(x0,[0,0])", 13, (11, 1)),
    ("fig1", "(x2,[0,0])", 6, (5, 1)),
    ("fig1", "(x4,[0,1])", 9, (7, 1)),
    ("fig1", "(x2,[0,0]) (x4,[0,1])", 15, (7, 1)),
    ("fig1", "*", 39, (11, 1)),
    ("ring8", "(s0,[0,0])", 56, (3, 1)),
    ("ring8", " ".join(f"(s{i},[0,0])" for i in range(8)), 98, (3, 1)),
    ("ring8", "*", 94, (0, 1)),
]


@pytest.mark.parametrize("name, support, shifts, tail", ROW_SHIFTS)
def test_row_shifts_pinned(monkeypatch, name, support, shifts, tail):
    # One fixpoint seeds every start run of a support at once: the eight
    # point zones of ring8, eight start runs, take 98 shifts, where a
    # fixpoint per start run took eight times the 56 of one.
    from test_acceptance import ring_model

    za = build_zone_automaton(make_fig1() if name == "fig1" else ring_model(8))
    names = support.split()
    members = frozenset(v for v in za.index.ext if support == "*" or str(v) in names)
    assert support == "*" or len(members) == len(names)
    calls = _counted_shifts(monkeypatch)
    _, got = _total_row(za, members)
    assert (len(calls), got) == (shifts, tail)


def test_row_shifts_follow_the_support_not_its_start_runs(monkeypatch):
    # After a@2 the belief of big(100) holds 526 ids in 121 start runs, and
    # its total row takes 15,006 shifts.  A fixpoint per start run, each
    # over everything that run reaches, took 1,930,196 (about 4 s).
    model = _big(100)
    za = build_zone_automaton(model)
    support = belief_advance(za, model, belief_init(za), "a", 2).support
    assert len(za.index.start_runs(_ids(za, support))) == 121
    calls = _counted_shifts(monkeypatch)
    _total_row(za, support)
    assert len(calls) <= 30000, len(calls)


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


# Guard and reset (None for ``id``) of each transition of ``_id_guards``, in
# units of its scale ``k``.
_ID_GUARDS = [
    ("x0", "b", "x4", (1, 2), (2, 3)), ("x1", "a", "x4", (1, 2), (3, 3)), ("x1", "b", "x1", (0, 2), None),
    ("x1", "b", "x2", (3, 3), None), ("x2", "a", "x0", (1, 3), (3, 3)), ("x3", "b", "x3", (2, 3), None),
    ("x4", "a", "x0", (2, 2), (0, 2)), ("x4", "a", "x4", (1, 1), (0, 1)), ("x4", "c", "x3", (1, 3), (1, 2)),
]


def _id_guards(k: int):
    """Nine transitions whose endpoints are multiples of ``k``: wide
    clock-preserving guards make one zone per unit region, so a row has
    about as many runs as cells and thousands of ids flip along it."""
    def text(r):
        return f"[{r[0] * k},{r[1] * k}]"

    return model_from_dict({
        "states": ["x0", "x1", "x2", "x3", "x4"], "alphabet": ["a", "b", "c"], "observable": ["a"],
        "initial": ["x0"],
        "transitions": [
            {"from": src, "event": ev, "to": tgt, "guard": text(g), "reset": "id" if r is None else text(r)}
            for src, ev, tgt, g, r in _ID_GUARDS
        ],
    })


def test_boundary_rows_match_the_dense_fill():
    # Every row the observer builds, read cell by cell, against the dense
    # fill of a fixpoint on a separately built zone automaton.
    models = [(f"wide{c}", _wide_guard(c)) for c in (10**3, 10**4, 10**5)]
    models += [(f"id_guards{k}", _id_guards(k)) for k in (20, 50)]
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


def _exact_loop(c: int):
    """A silent loop of exact duration 1 at ``s``, and an observable guard
    of ``[0,c]`` that lengthens the rows: the zones of ``s`` are reached at
    every other cell, so their masks flip at almost every cell."""
    return model_from_dict({
        "states": ["s", "t"], "alphabet": ["a", "u"], "observable": ["a"], "initial": ["s"],
        "transitions": [
            {"from": "s", "event": "u", "to": "s", "guard": "[1,1]", "reset": "[0,0]"},
            {"from": "s", "event": "a", "to": "t", "guard": f"[0,{c}]", "reset": "[0,0]"},
            {"from": "t", "event": "a", "to": "s", "guard": f"[{c},{c}]", "reset": "[0,0]"},
        ],
    })


def test_rows_with_dense_flips_match_the_dense_fill():
    # The fill reads a mask with many flips off its binary text and one with
    # few bit by bit; rows that need both must equal the dense fill.
    dense = 0
    for c in (5, 100):
        model = _exact_loop(c)
        za, ref = build_zone_automaton(model), build_zone_automaton(model)
        observer = build_offline_observer(za, model)
        for support, row in observer.tables.items():
            hits, start, period = _duration_cells(ref, _ids(ref, support))
            n = start + period
            dense += any(bin((h ^ (h << 1)) & ((1 << n) - 1)).count("1") > 8 for h in hits.values())
            assert [cell.reached for cell in row] == dense_row(hits, n), (c, support)
    assert dense >= 2, dense


def test_observer_totals_are_pinned():
    # The observers of 120 random models, counted: supports, cells, and
    # runs of equal cells.  Every tenth model's rows must also equal the
    # dense fill of the joint reference fixpoint, cut at the row's length.
    models = supports = cells = runs = dense = 0
    for k, seed in enumerate(range(7000, 7120)):
        model = random_model(RandomModelConfig(rng_seed=seed, state_count=8, max_constant=4))
        za = build_zone_automaton(model)
        observer = build_offline_observer(za, model)
        ref = build_zone_automaton(model) if k % 10 == 0 else None
        models += 1
        supports += len(observer.tables)
        for support, row in observer.tables.items():
            cells += len(row)
            runs += 1 + sum(a is not b for a, b in zip(row, row[1:]))
            if ref is not None:
                n = sum(observer.tails[support])
                _, hits = reach_cells(ref.index, _ids(ref, support), n)
                assert [cell.reached for cell in row] == dense_row(hits, n), (seed, support)
                dense += 1
    assert (models, supports, cells, runs) == (120, 2674, 25456, 24042)
    assert dense > 200, dense
