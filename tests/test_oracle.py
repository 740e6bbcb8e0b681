import itertools
import json
from fractions import Fraction

import pytest

from zonewatch import (
    GridConfig,
    TimedObservation,
    TimedRun,
    brute_consistent_states,
    check_run,
    differential_check,
    enumerate_runs,
    estimate,
    random_model,
    validate,
)
from zonewatch.oracle import RandomModelConfig, model_digest

F = Fraction


def test_grid_config_rejects_bad_steps():
    with pytest.raises(ValueError):
        GridConfig(horizon=F(2), step=F(2, 3))
    with pytest.raises(ValueError):
        GridConfig(horizon=F(1, 3))


def test_grid_config_rejects_a_negative_horizon():
    with pytest.raises(ValueError, match="horizon must be non-negative"):
        GridConfig(horizon=F(-1))


def test_enumeration_contains_reference_run(fig1):
    grid = GridConfig(horizon=F(2), step=F(1, 2), max_events=3)
    target = (("b", F(1, 2)), ("c", F(2)), ("a", F(2)))
    found = False
    for run in enumerate_runs(fig1, grid):
        if run.word() == target and run.end_state == "x2" and run.end_clock == 0:
            found = True
            break
    assert found


def test_enumeration_horizon_zero(fig1):
    runs = list(enumerate_runs(fig1, GridConfig(horizon=F(0), max_events=2)))
    assert all(r.end_time == 0 for r in runs)
    assert TimedRun("x0", F(0), F(0)) in runs
    # at time 0 only b can fire (its guard contains 0)
    assert {r.word() for r in runs} == {(), (("b", F(0)),)}


def test_enumerated_runs_are_legal(fig1):
    grid = GridConfig(horizon=F(2), max_events=3)
    for run in itertools.islice(enumerate_runs(fig1, grid), 400):
        assert check_run(fig1, run)


def test_brute_consistent_examples(fig1):
    grid = GridConfig(horizon=F(4))
    assert brute_consistent_states(
        fig1, grid, TimedObservation((("a", F(1)), ("a", F(3))), F(4))
    ) == frozenset({"x2", "x3"})
    assert brute_consistent_states(
        fig1, GridConfig(horizon=F(0)), TimedObservation((), F(0))
    ) == frozenset({"x0", "x2"})
    assert brute_consistent_states(
        fig1, grid, TimedObservation((("a", F(1, 2)),), F(1))
    ) == frozenset()


def test_brute_consistent_rejects_off_grid(fig1):
    grid = GridConfig(horizon=F(4))
    with pytest.raises(ValueError):
        brute_consistent_states(fig1, grid, TimedObservation((("a", F(1, 3)),), F(1)))


def test_estimator_equals_oracle_on_reference_grid(fig1, fig1_za):
    grid = GridConfig(horizon=F(4))
    prefixes = [(), (("a", F(1)),), (("a", F(1)), ("a", F(3)))]
    for prefix in prefixes:
        first = prefix[-1][1] if prefix else F(0)
        for k in range(int(2 * first), 9):
            t = F(k, 2)
            obs = TimedObservation(prefix, t)
            est = frozenset(estimate(fig1_za, fig1, obs).discrete)
            assert est == brute_consistent_states(fig1, grid, obs), (prefix, t)


def test_random_models_validate():
    for seed in range(25):
        config = RandomModelConfig(state_count=5, rng_seed=seed)
        model = random_model(config)
        assert validate(model, require_ro=True) == []
        assert model_digest(model) == model_digest(random_model(config))


@pytest.mark.parametrize("sizes", [{"state_count": 0}, {"event_count": 0}, {"state_count": -2}])
def test_random_model_rejects_empty_sizes(sizes):
    with pytest.raises(ValueError, match="at least one state and one event"):
        random_model(RandomModelConfig(**sizes))


def test_differential_zero_trials():
    report = differential_check(RandomModelConfig(), GridConfig(horizon=F(3)), trials=0)
    assert report.entries == []
    assert report.ok
    assert report.to_jsonl() == ""


def test_differential_deterministic():
    config = RandomModelConfig(state_count=4, rng_seed=7)
    grid = GridConfig(horizon=F(4))
    first = differential_check(config, grid, trials=6)
    second = differential_check(config, grid, trials=6)
    assert first.to_jsonl() == second.to_jsonl()
    assert json.dumps(first.summary()) == json.dumps(second.summary())
    assert first.ok


def test_differential_small_batch_clean():
    report = differential_check(
        RandomModelConfig(state_count=4, rng_seed=42), GridConfig(horizon=F(5)), trials=25
    )
    assert report.ok, report.entries
    assert report.runs_checked >= 25


def test_zone_oracle_matches_the_extended_estimates():
    # Criterion 5 compares states only.  Here the grid search's final
    # configurations are mapped to zones, ``zone_of(state, clock at the
    # query)``, and must equal the extended estimate exactly: a wrong zone
    # in a memo cell shows here and nowhere in the discrete comparison.
    from zonewatch import build_zone_automaton
    from zonewatch.oracle import _sample_runs, brute_final_clocks
    from zonewatch.model import project
    from zonewatch.zones import ExtendedState

    grid = GridConfig(horizon=F(5), step=F(1, 2), max_events=4)
    compared = extended = 0
    for seed in range(60):
        model = random_model(RandomModelConfig(state_count=4, max_constant=3, rng_seed=8800 + seed))
        za = build_zone_automaton(model)
        for k, run in enumerate(_sample_runs(model, grid, 4)):
            word = project(run.word(), model)
            end = run.end_time
            times = {end, end + F(1, 2), grid.horizon, end + F((seed + k) % 7, 2)}
            for t in sorted(times):
                obs = TimedObservation(events=word, query_time=t)
                want = {ExtendedState(x, za.zone_of(x, c)) for x, c in brute_final_clocks(model, grid, obs)}
                assert estimate(za, model, obs).extended == want, (seed, word, t)
                compared += 1
                extended += len(want)
    assert compared > 600 and extended > 2000, (compared, extended)
