import itertools
import json
from fractions import Fraction

import pytest

from zonewatch import (
    GridConfig,
    TimedObservation,
    TimedRun,
    brute_consistent_states,
    build_zone_automaton,
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


def test_fuzz_reports_a_moved_zone(monkeypatch, capsys):
    # An estimate that moves one zone to its ``tau`` neighbour keeps every
    # state right, so the discrete verdicts stay ok; the zone check of each
    # trial counts it apart, and ``fuzz`` fails.
    import zonewatch.oracle as oracle
    from zonewatch.cli import main
    from zonewatch.estimation import Estimate
    from zonewatch.zones import ext_sort_key

    argv = ["fuzz", "--states", "3", "--trials", "6", "--seed", "5", "--horizon", "4"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["zone_mismatches"] == 0

    real = oracle.estimate

    def moved(za, model, obs):
        est = real(za, model, obs)
        ix = za.index
        for v in sorted(est.extended, key=ext_sort_key):
            j = ix.tau[ix.id_of[v]]
            if j >= 0:
                return Estimate.from_extended((est.extended - {v}) | {ix.ext[j]})
        return est

    monkeypatch.setattr(oracle, "estimate", moved)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["mismatches"] == summary["soundness_violations"] == 0, summary
    assert summary["zone_mismatches"] > 0, summary
    entries = [json.loads(line) for line in lines[:-1]]
    assert all(e["verdict"] == "ok" for e in entries), entries
    moved_entries = [e for e in entries if e["zones"] == "mismatch"]
    assert len(moved_entries) == summary["zone_mismatches"]
    for e in moved_entries:
        assert e["zones_estimator"] != e["zones_oracle"]
        assert {x for x, _ in e["zones_estimator"]} == {x for x, _ in e["zones_oracle"]} == set(e["oracle"])


# -- the scaling relation -------------------------------------------------------------


def _scaling_cases() -> list:
    """About 40 (model, observation) cases: four sampled runs of each
    random model (5 states, constants up to 3) from the first seeds with an
    observable event, each queried half a unit after its end."""
    from zonewatch.oracle import _sample_runs
    from zonewatch.model import project

    grid = GridConfig(horizon=F(5))
    cases = []
    for seed in range(100):
        model = random_model(RandomModelConfig(state_count=5, max_constant=3, rng_seed=seed))
        if not model.observable:
            continue
        for run in _sample_runs(model, grid, 4):
            cases.append((model, TimedObservation(project(run.word(), model), run.end_time + F(1, 2))))
        if len(cases) >= 40:
            return cases
    raise AssertionError("too few seeds with an observable event")


@pytest.mark.parametrize("k", [2, 3, 10])
def test_scaling_every_constant_and_time_scales_the_answer(k):
    # Multiplying every guard and reset endpoint and every time by k maps
    # runs onto runs: the states agree, and each state's clock set scales
    # by k.  Under an ``id`` guard the scaled model's unit zones are finer,
    # so its clock sets may only shrink inside the scaled base ones.
    from zonewatch import ID_RESET
    from zonewatch.oracle import clock_sets, scale_check, scale_model

    exact = refined = 0
    for model, obs in _scaling_cases():
        base = estimate(build_zone_automaton(model), model, obs)
        scaled = scale_model(model, k)
        assert [t.guard.hi for t in scaled.transitions] == [k * t.guard.hi for t in model.transitions]
        events = tuple((e, k * t) for e, t in obs.events)
        got = estimate(build_zone_automaton(scaled), scaled, TimedObservation(events, k * obs.query_time))
        assert got.discrete == base.discrete, (model, obs)
        want = {
            x: [(k * r.lo, r.lo_closed, k * r.hi, r.hi_closed) for r in spans]
            for x, spans in clock_sets(base.extended).items()
        }
        have = {x: [tuple(r) for r in spans] for x, spans in clock_sets(got.extended).items()}
        if all(t.reset != ID_RESET for t in model.transitions):
            assert have == want, (model, obs)
            exact += 1
        else:
            for x, spans in have.items():
                for lo, lo_closed, hi, hi_closed in spans:
                    assert any(
                        (a, not a_closed) <= (lo, not lo_closed) and (hi, hi_closed) <= (b, b_closed)
                        for a, a_closed, b, b_closed in want[x]
                    ), (model, obs, x)
            refined += have != want
        assert scale_check(model, obs, base, k)
    # Both relations are exercised: 20 id-free cases, and 11 of the other
    # 21 cases refine their clock sets at every k here.
    assert exact >= 10 and refined >= 5, (exact, refined)


def test_fuzz_reports_a_scaled_answer_that_moves_a_zone(monkeypatch, capsys):
    # An estimate of a scaled model that drops its last extended state
    # leaves the base answers right, so only the scaling verdicts fail.
    import zonewatch.oracle as oracle
    from zonewatch.cli import main
    from zonewatch.estimation import Estimate
    from zonewatch.zones import ext_sort_key

    argv = ["fuzz", "--states", "5", "--trials", "12", "--seed", "13", "--scale", "3"]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["scale"] == 3 and summary["scale_mismatches"] == summary["scale_errors"] == 0, summary

    real, scale_model, scaled = oracle.estimate, oracle.scale_model, []

    def dropped(za, model, obs):
        est = real(za, model, obs)
        if any(model is m for m in scaled):
            return Estimate.from_extended(sorted(est.extended, key=ext_sort_key)[:-1])
        return est

    monkeypatch.setattr(oracle, "scale_model", lambda model, k: scaled.append(scale_model(model, k)) or scaled[-1])
    monkeypatch.setattr(oracle, "estimate", dropped)
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["scale_mismatches"] > 0 and summary["scale_errors"] == 0, summary
    entries = [json.loads(line) for line in lines[:-1]]
    assert summary["scale_mismatches"] == sum(e.get("scale") == "mismatch" for e in entries)


def test_fuzz_counts_a_refused_scaled_model_as_an_error(capsys):
    # At k = 10^5 an ``id`` guard of width 1 covers more unit regions than
    # the model check allows: the scaled model is refused, which is counted
    # apart from mismatches and is not a wrong answer.
    from zonewatch.cli import main

    argv = ["fuzz", "--states", "5", "--trials", "12", "--seed", "13", "--scale", "100000"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(lines[-1])
    assert summary["scale_errors"] > 0 and summary["scale_mismatches"] == 0, summary
    errors = [json.loads(line) for line in lines[:-1] if '"scale": "error"' in line]
    assert all("wide-id-guard" in e["scale_error"] for e in errors), errors


def test_fuzz_rejects_a_scale_below_one(capsys):
    from zonewatch.cli import main

    assert main(["fuzz", "--trials", "1", "--scale", "0"]) == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: scale must be at least 1, not 0\n"
