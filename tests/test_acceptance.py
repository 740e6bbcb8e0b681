"""Acceptance suite: one test per shipped criterion, with stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time
import timeit
from fractions import Fraction

from zonewatch import (
    GridConfig,
    Interval,
    TFA,
    TimedObservation,
    Transition,
    belief_advance,
    belief_init,
    belief_query,
    build_offline_observer,
    build_zone_automaton,
    build_zones,
    check_run,
    differential_check,
    estimate,
    parse_interval,
    project,
    t_reachable,
)
from zonewatch.estimation import lambda_estimation
from zonewatch.oracle import RandomModelConfig, _sample_runs, random_model
from zonewatch.zones import ExtendedState

from conftest import make_fig1
from node_search import node_estimate, node_support
from goldens import (
    SUPPORT_AFTER_A1,
    SUPPORT_AFTER_A1_A3,
    TABLE_AFTER_A1,
    TABLE_AFTER_A1_A3,
    TABLE_NO_OBS,
    discrete,
)

F = Fraction


def report(number: int, name: str, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): PASS{suffix}")


def test_criterion_1_zone_reproduction():
    model = make_fig1()
    start = time.perf_counter()
    zones = build_zones(model, "x0")
    elapsed = time.perf_counter() - start
    assert zones == [parse_interval(t) for t in ["[0,0]", "(0,1)", "[1,1]", "(1,3]", "(3,inf)"]]
    assert elapsed < 0.010, f"zone construction took {elapsed * 1000:.2f} ms"
    report(1, "zone reproduction", f"{elapsed * 1000:.2f} ms")


def test_criterion_2_no_observation_table(fig1, fig1_za):
    start_state = ExtendedState("x0", parse_interval("[0,0]"))
    start = time.perf_counter()
    for t, expected in TABLE_NO_OBS:
        got = lambda_estimation(fig1_za, fig1, start_state, t)
        assert got == expected, f"t={t}"
        assert frozenset(v.state for v in got) == discrete(expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.100, f"table took {elapsed * 1000:.1f} ms"
    report(2, "no-observation estimation table", f"{elapsed * 1000:.1f} ms")


def test_criterion_3_full_estimation_trace(fig1, fig1_za):
    start = time.perf_counter()
    for t, expected in TABLE_NO_OBS[:3]:  # rows before the first observation
        est = estimate(fig1_za, fig1, TimedObservation((), t))
        assert est.extended == expected

    belief = belief_advance(fig1_za, fig1, belief_init(fig1_za), "a", F(1))
    assert belief.support == SUPPORT_AFTER_A1
    for t, expected in TABLE_AFTER_A1:
        est = estimate(fig1_za, fig1, TimedObservation((("a", F(1)),), t))
        assert est.extended == expected, f"t={t}"

    belief = belief_advance(fig1_za, fig1, belief, "a", F(3))
    assert belief.support == SUPPORT_AFTER_A1_A3
    two = (("a", F(1)), ("a", F(3)))
    for t, expected in TABLE_AFTER_A1_A3:
        est = estimate(fig1_za, fig1, TimedObservation(two, t))
        assert est.extended == expected, f"t={t}"

    for t in [F(3), F(13, 4), F(7, 2), F(15, 4)]:
        assert estimate(fig1_za, fig1, TimedObservation(two, t)).discrete == frozenset({"x2"})
    assert estimate(fig1_za, fig1, TimedObservation(two, F(4))).discrete == frozenset(
        {"x2", "x3"}
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 0.200, f"trace took {elapsed * 1000:.1f} ms"
    report(3, "full estimation trace", f"{elapsed * 1000:.1f} ms")


def test_criterion_4_duration_reachability(fig1, fig1_za):
    for source, target, duration in [
        ("x0", "x4", F(4)),
        ("x0", "x2", F(2)),
        ("x0", "x3", F(2)),
    ]:
        ok, witness = t_reachable(fig1_za, fig1, source, target, duration)
        assert ok, (source, target, duration)
        assert witness.run.start_state == source
        assert witness.run.end_state == target
        assert check_run(fig1, witness.run), "witness replay failed"
        assert witness.run.end_time <= duration
        final_clock = witness.run.end_clock + witness.trailing_dwell
        assert final_clock in witness.final_zone
    report(4, "duration reachability spot checks")


def test_criterion_5_differential_suite():
    start = time.perf_counter()
    report_obj = differential_check(
        RandomModelConfig(state_count=5, max_constant=3, rng_seed=2024),
        GridConfig(horizon=F(5), step=F(1, 2)),
        trials=200,
    )
    elapsed = time.perf_counter() - start
    assert len([e for e in report_obj.entries if "estimator" in e]) >= 200
    assert report_obj.mismatches == 0, report_obj.entries
    # A wrong zone on a right state shows only in the zone check.
    assert sum(e.get("zones") == "ok" for e in report_obj.entries) >= 200
    assert report_obj.zone_mismatches == 0, [e for e in report_obj.entries if e.get("zones") == "mismatch"]
    assert report_obj.soundness_violations == 0
    assert report_obj.ok
    assert report_obj.runs_checked >= 1000
    assert elapsed < 120, f"differential suite took {elapsed:.1f} s"
    report(
        5,
        "differential suite",
        f"200 trials, {report_obj.runs_checked} runs, {elapsed:.1f} s",
    )


def test_criterion_6_agreement_properties(fig1, fig1_za):
    # Reference trace queries: batch == incremental == precomputed tables ==
    # the per-node search.  The first three read one memo, so each is
    # compared with the memo-free reference as well.
    observer = build_offline_observer(fig1_za, fig1, horizon=4)
    queries = (
        [((), t) for t, _ in TABLE_NO_OBS]
        + [(((("a"), F(1)),), t) for t, _ in TABLE_AFTER_A1]
        + [((("a", F(1)), ("a", F(3))), t) for t, _ in TABLE_AFTER_A1_A3]
    )
    for events, t in queries:
        obs = TimedObservation(tuple(events), t)
        batch = estimate(fig1_za, fig1, obs)
        belief = belief_init(fig1_za)
        session = observer.session()
        for e, ts in obs.events:
            belief = belief_advance(fig1_za, fig1, belief, e, ts)
            session.advance(e, ts)
        assert batch.extended == node_estimate(fig1_za, obs.events, t)
        assert belief_query(fig1_za, fig1, belief, t).extended == batch.extended
        assert session.query(t).extended == batch.extended

    # The same agreements on random models.
    grid = GridConfig(horizon=F(4), max_events=4)
    for seed in range(50):
        model = random_model(RandomModelConfig(state_count=4, rng_seed=4000 + seed))
        za = build_zone_automaton(model)
        observer = build_offline_observer(za, model, horizon=5)
        runs = _sample_runs(model, grid, 2)
        for run in runs:
            word = project(run.word(), model)
            for t in [run.end_time, F(4)]:
                obs = TimedObservation(word, t)
                batch = estimate(za, model, obs)
                belief = belief_init(za)
                session = observer.session()
                for e, ts in word:
                    belief = belief_advance(za, model, belief, e, ts)
                    session.advance(e, ts)
                assert belief.support == session.support == node_support(za, word)
                assert batch.extended == node_estimate(za, word, t)
                assert belief_query(za, model, belief, t).extended == batch.extended
                assert session.query(t).extended == batch.extended
    report(6, "batch/incremental and offline/online agreement", "50 random models")


def ring_model(size: int) -> TFA:
    states = [f"s{i}" for i in range(size)]
    transitions = [
        Transition(
            states[i],
            "u",
            states[(i + 1) % size],
            Interval.closed(0, 1),
            Interval.closed(0, 0),
        )
        for i in range(size)
    ]
    transitions.append(
        Transition(states[0], "a", states[1], Interval.closed(0, 1), Interval.closed(0, 0))
    )
    return TFA(
        states=frozenset(states),
        alphabet=frozenset({"u", "a"}),
        observable=frozenset({"a"}),
        transitions=tuple(transitions),
        initial=frozenset({states[0]}),
    )


def test_criterion_7_scaling_smoke():
    sizes = [4, 8, 16, 32]
    times = []
    obs = TimedObservation((("a", F(1)),), F(2))
    for size in sizes:
        model = ring_model(size)
        # A fresh zone automaton per repeat: on a warm one, estimate reads
        # the memo and times nothing but the lookup.
        timer = timeit.Timer(
            "estimate(za, model, obs)",
            setup="za = build_zone_automaton(model)",
            globals={**globals(), "model": model, "obs": obs},
        )
        times.append(min(timer.repeat(repeat=15, number=1)))
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
        (x - x_mean) ** 2 for x in xs
    )
    assert slope <= 2.3, f"log-log slope {slope:.2f} exceeds 2.3 ({times})"
    report(7, "estimation scaling smoke check", f"slope {slope:.2f}")
