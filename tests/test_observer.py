import json
from fractions import Fraction

import pytest

from zonewatch import (
    GridConfig,
    TimedObservation,
    belief_advance,
    belief_init,
    belief_query,
    build_offline_observer,
    build_zone_automaton,
    estimate,
    parse_interval,
    project,
)
from zonewatch.observer import default_horizon
from zonewatch.oracle import RandomModelConfig, _sample_runs, random_model

from goldens import SUPPORT_AFTER_A1, TABLE_AFTER_A1, TABLE_NO_OBS, discrete

F = Fraction
I = parse_interval


@pytest.fixture(scope="module")
def fig1_observer(fig1, fig1_za):
    return build_offline_observer(fig1_za, fig1, horizon=4)


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
    for t in [F(3), F(7, 2), F(4), F(3) + fig1_observer.horizon]:
        got = session.query(t)
        want = estimate(fig1_za, fig1, TimedObservation((("a", F(1)), ("a", F(3))), t))
        assert got.extended == want.extended


def test_lookup_beyond_horizon_falls_back(fig1, fig1_za, fig1_observer):
    dt = F(fig1_observer.horizon) + F(3, 2)
    online = belief_query(
        fig1_za, fig1, belief_init(fig1_za), dt
    )
    assert fig1_observer.lookup(fig1_za.initial, dt).extended == online.extended


def test_default_horizon(fig1, fig1_za):
    assert default_horizon(fig1_za, fig1) == 2 * 3 * len(fig1_za.states)


def test_offline_online_agreement_on_random_models():
    grid = GridConfig(horizon=F(4), max_events=4)
    for seed in range(10):
        model = random_model(RandomModelConfig(state_count=4, rng_seed=700 + seed))
        za = build_zone_automaton(model)
        observer = build_offline_observer(za, model, horizon=5)
        for run in _sample_runs(model, grid, 3):
            word = project(run.word(), model)
            session = observer.session()
            belief = belief_init(za)
            for e, ts in word:
                session.advance(e, ts)
                belief = belief_advance(za, model, belief, e, ts)
                assert session.support == belief.support
            for t in [run.end_time, run.end_time + F(1, 2), F(4), F(13, 2)]:
                assert session.query(t).extended == belief_query(za, model, belief, t).extended


def test_observer_serialization(fig1_observer):
    doc = fig1_observer.to_json_dict()
    assert doc["horizon"] == 4
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        fig1_observer.to_json_dict(), sort_keys=True
    )
    initial = next(s for s in doc["supports"] if s["id"] == doc["initial"])
    assert initial["support"] == [["x0", "[0,0]"]]
    spans = [c["span"] for c in initial["cells"]]
    assert spans == ["[0,0]", "(0,1)", "[1,1]", "(1,2)", "[2,2]", "(2,3)", "[3,3]", "(3,4)", "[4,4]"]
    cell0 = initial["cells"][0]
    assert cell0["discrete"] == ["x0", "x2"]
    assert all(isinstance(v, (int, type(None))) for c in initial["cells"] for v in c["next"].values())
