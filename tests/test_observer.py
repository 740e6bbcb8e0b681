import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from zonewatch import (
    BeliefState,
    ExtendedState,
    GridConfig,
    TimedObservation,
    belief_advance,
    belief_init,
    belief_query,
    build_offline_observer,
    build_zone_automaton,
    estimate,
    model_from_dict,
    parse_interval,
    project,
)
from zonewatch.estimation import _ids
from zonewatch.oracle import RandomModelConfig, _sample_runs, random_model

from goldens import SUPPORT_AFTER_A1, TABLE_AFTER_A1, TABLE_NO_OBS, discrete
from node_search import node_estimate, node_reach, node_step, node_support

F = Fraction
I = parse_interval


@pytest.fixture(scope="module")
def fig1_observer(fig1, fig1_za):
    return build_offline_observer(fig1_za, fig1)


def test_initial_support_table(fig1_observer, fig1_za):
    for dt, expected in TABLE_NO_OBS:
        est = fig1_observer.lookup(fig1_za.initial, dt)
        assert est.extended == expected
        assert est.discrete == discrete(expected)


def test_lookup_between_integers(fig1_observer, fig1_za):
    assert fig1_observer.lookup(fig1_za.initial, F(1, 2)).discrete == frozenset({"x0", "x2"})
    # same cell, different sample points
    assert fig1_observer.lookup(fig1_za.initial, F(1, 4)).extended == fig1_observer.lookup(
        fig1_za.initial, F(3, 4)
    ).extended


def test_successor_support(fig1_observer, fig1_za):
    assert fig1_observer.successor(fig1_za.initial, "a", F(1)) == SUPPORT_AFTER_A1
    row = dict(TABLE_AFTER_A1)
    assert fig1_observer.lookup(SUPPORT_AFTER_A1, F(1)).extended == row[F(2)]
    assert fig1_observer.lookup(SUPPORT_AFTER_A1, F(1)).discrete == frozenset(
        {"x2", "x3", "x4"}
    )


def test_session_matches_batch(fig1, fig1_za, fig1_observer):
    session = fig1_observer.session()
    session.advance("a", F(1))
    session.advance("a", F(3))
    for t in [F(3), F(7, 2), F(4), F(7)]:
        got = session.query(t)
        want = estimate(fig1_za, fig1, TimedObservation((("a", F(1)), ("a", F(3))), t))
        assert got.extended == want.extended


def test_session_ops_past_the_tail_are_table_reads(monkeypatch, fig1, fig1_za, fig1_observer):
    import zonewatch.estimation as estimation

    start, period = fig1_observer.tails[fig1_za.initial]
    dt = F(start + 7 * period + 1, 2)  # a cell well past the stored row
    after_a = belief_advance(fig1_za, fig1, belief_init(fig1_za), "a", dt)
    want = belief_query(fig1_za, fig1, after_a, 2 * dt)

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, name in [
        (estimation, "_duration_reach"),
        (estimation, "_duration_cells"),
        (estimation, "belief_query"),
        (estimation, "belief_advance"),
    ]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    session = fig1_observer.session()
    session.advance("a", dt)
    got = session.query(2 * dt)
    assert calls == []
    assert session.support == after_a.support
    assert got == want


def test_offline_online_agreement_on_random_models():
    # The observer and the belief API read one memo, so both are compared
    # with the per-node search too.
    grid = GridConfig(horizon=F(4), max_events=4)
    for seed in range(10):
        model = random_model(RandomModelConfig(state_count=4, rng_seed=700 + seed))
        za = build_zone_automaton(model)
        observer = build_offline_observer(za, model)
        for run in _sample_runs(model, grid, 3):
            word = project(run.word(), model)
            session = observer.session()
            belief = belief_init(za)
            for k, (e, ts) in enumerate(word):
                session.advance(e, ts)
                belief = belief_advance(za, model, belief, e, ts)
                assert session.support == belief.support == node_support(za, word[: k + 1])
            for t in [run.end_time, run.end_time + F(1, 2), F(4), F(13, 2)]:
                want = node_estimate(za, word, t)
                assert session.query(t).extended == belief_query(za, model, belief, t).extended == want


def test_observer_serialization(fig1_observer):
    doc = fig1_observer.to_json_dict()
    assert "horizon" not in doc
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        fig1_observer.to_json_dict(), sort_keys=True
    )
    initial = next(s for s in doc["supports"] if s["id"] == doc["initial"])
    assert initial["support"] == [["x0", "[0,0]"]]
    # The row ends at its tail: from (5,6) on, every cell answers as (5,6)
    # does.
    spans = [c["span"] for c in initial["cells"]]
    assert spans == [
        "[0,0]", "(0,1)", "[1,1]", "(1,2)", "[2,2]", "(2,3)",
        "[3,3]", "(3,4)", "[4,4]", "(4,5)", "[5,5]", "(5,6)",
    ]
    assert initial["tail"] == {"from": 11, "period": 1}
    cell0 = initial["cells"][0]
    assert cell0["discrete"] == ["x0", "x2"]
    assert all(isinstance(v, (int, type(None))) for c in initial["cells"] for v in c["next"].values())


def test_session_rejects_unobservable_events_inside_and_beyond_horizon(fig1_observer):
    # "b" is a silent event of fig1, "zz" no event at all.
    for event in ["zz", "b"]:
        for t in [F(1), F(1, 2), F(9)]:
            session = fig1_observer.session()
            with pytest.raises(ValueError, match="not observable"):
                session.advance(event, t)
            assert session.support == fig1_observer.initial_support


def _cell_times(i: int) -> list[Fraction]:
    k = F(i // 2)
    return [k + F(1, 4), k + F(1, 2), k + F(3, 4)] if i % 2 else [k]


def _node_answer(za, support, dt: Fraction, events) -> tuple[frozenset, dict]:
    """The ids reached from ``support`` at elapsed time ``dt`` and the support
    after each of ``events`` there, from ``node_reach`` alone: a reference
    that reads no memo."""
    ix = za.index
    hits = node_reach(za, sorted(ix.id_of[v] for v in support), dt)
    return frozenset(hits), {e: frozenset(ix.ext[j] for j in node_step(za, hits, e)) for e in events}


def test_cells_match_online_answers_at_their_sample_points(fig1, fig1_za):
    cases = [(fig1, fig1_za)]
    for seed in range(20):
        model = random_model(
            RandomModelConfig(state_count=3 + seed % 3, max_constant=1 + seed % 3, rng_seed=1300 + seed)
        )
        cases.append((model, build_zone_automaton(model)))
    for model, za in cases:
        observer = build_offline_observer(za, model)
        events = sorted(model.observable)
        for support, row in observer.tables.items():
            start, period = observer.tails[support]
            belief = BeliefState(support, F(0))
            # The row's cells, then one period past its tail.
            for i in range(start + 2 * period):
                cell = row[i if i < start else start + (i - start) % period]
                for t in _cell_times(i):
                    assert cell.estimate == belief_query(za, model, belief, t)
                    reached, successors = _node_answer(za, support, t, events)
                    assert cell.reached == reached
                    for e in events:
                        got = cell.successors[e]
                        assert got == belief_advance(za, model, belief, e, t).support
                        assert got == successors[e]


def _loop7_model():
    # A silent reset loop of duration exactly 7: the row's tail has a period
    # of 14 cells, longer than any small period a shortcut might try.
    return model_from_dict(
        {
            "states": ["x0", "x1"],
            "alphabet": ["a", "u"],
            "observable": ["a"],
            "initial": ["x0"],
            "transitions": [
                {"from": "x0", "event": "u", "to": "x0", "guard": "[7,7]", "reset": "[0,0]"},
                {"from": "x0", "event": "a", "to": "x1", "guard": "[2,3]", "reset": "[0,0]"},
                {"from": "x1", "event": "a", "to": "x0", "guard": "[0,1]", "reset": "[0,0]"},
            ],
        }
    )


def _unbounded_reset_case():
    # Guards are bounded, so no model has an edge out of an unbounded zone;
    # add a silent reset edge out of one to the index to reach the
    # unbounded-window path of the fixpoint, which the online search takes
    # from the same index.
    model = model_from_dict(
        {
            "states": ["x0", "x1"],
            "alphabet": ["a", "u"],
            "observable": ["a"],
            "initial": ["x0"],
            "transitions": [
                {"from": "x0", "event": "u", "to": "x1", "guard": "[1,2]", "reset": "[0,0]"},
                {"from": "x1", "event": "a", "to": "x0", "guard": "[0,1]", "reset": "[0,0]"},
                {"from": "x1", "event": "u", "to": "x1", "guard": "[3,3]", "reset": "[1,1]"},
            ],
        }
    )
    za = build_zone_automaton(model)
    ix = za.index
    source = ix.id_of[ExtendedState("x0", I("(2,inf)"))]
    edge = ("u", ix.id_of[ExtendedState("x1", I("[0,0]"))], True, model.transitions[0])
    ix.events[source] += (edge,)
    ix.silent[source] += (edge,)
    return model, za


def test_total_tables_match_online(fig1, fig1_za):
    cases = [(fig1, fig1_za), _unbounded_reset_case()]
    loop7 = _loop7_model()
    cases.append((loop7, build_zone_automaton(loop7)))
    for seed in range(30):
        model = random_model(
            RandomModelConfig(state_count=2 + seed % 4, max_constant=1 + seed % 3, rng_seed=1500 + seed)
        )
        cases.append((model, build_zone_automaton(model)))
    periods = set()
    for model, za in cases:
        observer = build_offline_observer(za, model)
        events = sorted(model.observable)
        for support, row in observer.tables.items():
            start, period = observer.tails[support]
            assert len(row) == start + period
            periods.add(period)
            belief = BeliefState(support, F(0))
            last = 2 * (start + period) + 3
            for dt in sorted({F(k, 2) for k in range(last + 1)} | {F(k, 3) for k in range(last + 1)}):
                got = observer.lookup(support, dt)
                assert got == belief_query(za, model, belief, dt)
                reached, successors = _node_answer(za, support, dt, events)
                assert got.extended == frozenset(za.index.ext[i] for i in reached)
                for e in events:
                    want = belief_advance(za, model, belief, e, dt).support
                    assert observer.successor(support, e, dt) == want == successors[e]
    assert 14 in periods


def test_supports_the_builder_did_not_list_are_answered_from_the_memo(fig1):
    za = build_zone_automaton(fig1)
    observer = build_offline_observer(za, fig1)
    unlisted = [frozenset({v}) for v in sorted(za.states) if frozenset({v}) not in observer.tables]
    unlisted.append(frozenset(za.states))
    assert len(unlisted) > 5
    for support in unlisted:
        for dt in sorted({F(k, 2) for k in range(25)} | {F(k, 3) for k in range(37)}):
            reached, successors = _node_answer(za, support, dt, ["a"])
            assert observer.lookup(support, dt).extended == frozenset(za.index.ext[i] for i in reached)
            assert observer.successor(support, "a", dt) == successors["a"]

    unknown = frozenset({ExtendedState("x0", I("[7,7]"))})
    with pytest.raises(ValueError, match="unknown extended state"):
        observer.lookup(unknown, 1)
    with pytest.raises(ValueError, match="unknown extended state"):
        observer.successor(unknown, "a", 1)

    # No run of fig1 takes a at time 0, so the belief is empty from then on.
    session = observer.session()
    session.advance("a", 0)
    assert session.support == frozenset()
    for t in [F(1, 2), F(10**9)]:
        assert session.query(t).empty
    session.advance("a", 10**9)
    assert session.support == frozenset()
    assert session.query(10**9 + F(1, 2)).empty


def test_builder_rejects_a_period_too_long_to_tabulate():
    # Silent loops of exact durations 29, 31 and 37 from one state: the
    # durations repeat only every 2 * 29 * 31 * 37 cells, past the cut at
    # which the fixpoint gives up with a clear error instead of a long build.
    transitions = []
    for p in [29, 31, 37]:
        transitions += [
            {"from": "x0", "event": "u", "to": f"l{p}", "guard": "[0,0]", "reset": "[0,0]"},
            {"from": f"l{p}", "event": "u", "to": f"l{p}", "guard": f"[{p},{p}]", "reset": "[0,0]"},
            {"from": f"l{p}", "event": "a", "to": "x0", "guard": "[0,1]", "reset": "[0,0]"},
        ]
    model = model_from_dict(
        {
            "states": ["x0", "l29", "l31", "l37"],
            "alphabet": ["a", "u"],
            "observable": ["a"],
            "initial": ["x0"],
            "transitions": transitions,
        }
    )
    with pytest.raises(ValueError, match="no periodic tail"):
        build_offline_observer(build_zone_automaton(model), model)


def test_builder_runs_one_fixpoint_per_support(monkeypatch, fig1):
    import zonewatch.estimation as estimation

    calls = []
    fixpoint = estimation._duration_cells

    def counted(za, starts, runs=None):
        calls.append(tuple(starts))
        return fixpoint(za, starts, runs)

    def no_search(*args, **kwargs):
        raise AssertionError("the builder ran a per-dt duration search")

    monkeypatch.setattr(estimation, "_duration_cells", counted)
    monkeypatch.setattr(estimation, "_duration_reach", no_search)
    # Each zone automaton is fresh: a shared one may have total rows already.
    for model, za in [(fig1, build_zone_automaton(fig1))] + [
        (m, build_zone_automaton(m))
        for m in (random_model(RandomModelConfig(rng_seed=1400 + s)) for s in range(5))
    ]:
        calls.clear()
        observer = build_offline_observer(za, model)
        assert len(calls) == len(observer.tables)
        assert sorted(calls) == sorted(tuple(_ids(za, s)) for s in observer.tables)


def test_builder_runs_one_fixpoint_per_start_run_and_cut(monkeypatch, fig1):
    # The fixpoint is OR-linear in its starts, so each support's masks are
    # ORed from one memoised fixpoint per start run: a start run shared by
    # several supports runs once at each cut, not once per support.
    import zonewatch.estimation as estimation

    calls = []
    fixpoint = estimation._run_cells

    def counted(ix, r, limit):
        calls.append((r, limit))
        return fixpoint(ix, r, limit)

    monkeypatch.setattr(estimation, "_run_cells", counted)
    shared = 0
    for model in [fig1] + [random_model(RandomModelConfig(rng_seed=1400 + s)) for s in range(12)]:
        za = build_zone_automaton(model)
        calls.clear()
        observer = build_offline_observer(za, model)
        starts = [r for s in observer.tables for r in za.index.start_runs(_ids(za, s))]
        assert len(calls) == len(set(calls))
        assert {r for r, _ in calls} == set(starts)
        shared += len(starts) - len(calls)
    assert shared > 0


def test_equal_cells_are_one_object(fig1, fig1_za):
    observer = build_offline_observer(fig1_za, fig1)
    for row in observer.tables.values():
        assert len({id(cell) for cell in row}) == len({cell.estimate for cell in row})
    # Each distinct reached-id set of the whole build has one cell.
    cells = {id(cell): cell for row in observer.tables.values() for cell in row}
    assert len(cells) == len({cell.estimate for cell in cells.values()})


def test_non_integer_window_raises_in_optimized_mode():
    # The cells are exact only for integer window endpoints; the check must
    # not be a bare assert, which ``python -O`` would drop.
    script = (
        "from fractions import Fraction\n"
        "from zonewatch import InvariantError, build_offline_observer, build_zone_automaton\n"
        "from zonewatch.intervals import INF\n"
        "from zonewatch.oracle import RandomModelConfig, random_model\n"
        "model = random_model(RandomModelConfig(rng_seed=1))\n"
        "za = build_zone_automaton(model)\n"
        "# Every finite zone ends half a unit later, and so does every window to it.\n"
        "za.index.ranges[:] = [\n"
        "    z if z.hi == INF else tuple.__new__(type(z), (z.lo, z.lo_closed, z.hi + Fraction(1, 2), z.hi_closed))\n"
        "    for z in za.index.ranges\n"
        "]\n"
        "try:\n"
        "    build_offline_observer(za, model)\n"
        "except InvariantError as exc:\n"
        "    print('InvariantError:', exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.startswith("InvariantError:")
