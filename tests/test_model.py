import json
from fractions import Fraction

import pytest

from zonewatch import (
    ID_RESET,
    Diagnostic,
    GridConfig,
    Interval,
    TFA,
    TimedObservation,
    TimedRun,
    RunStep,
    Transition,
    check_run,
    dump_model,
    enumerate_runs,
    model_from_dict,
    model_to_dict,
    parse_observation,
    project,
    random_model,
    validate,
)
from zonewatch.oracle import RandomModelConfig

F = Fraction


def replace_transition(model: TFA, index: int, **changes) -> TFA:
    ts = list(model.transitions)
    old = ts[index]
    ts[index] = Transition(
        changes.get("source", old.source),
        changes.get("event", old.event),
        changes.get("target", old.target),
        changes.get("guard", old.guard),
        changes.get("reset", old.reset),
    )
    return TFA(model.states, model.alphabet, model.observable, tuple(ts), model.initial)


# -- validate -------------------------------------------------------------------

def test_validate_reference_model(fig1):
    assert validate(fig1, require_ro=True) == []


def test_validate_ro_violation(fig1):
    idx = next(i for i, t in enumerate(fig1.transitions) if (t.source, t.event) == ("x1", "a"))
    broken = replace_transition(fig1, idx, reset=ID_RESET)
    diags = validate(broken, require_ro=True)
    assert [d.code for d in diags] == ["ro-violation"]
    assert "(x1,a,x4)" in diags[0].message
    assert validate(broken, require_ro=False) == []


def test_validate_is_cached_and_returns_fresh_lists(fig1):
    idx = next(i for i, t in enumerate(fig1.transitions) if (t.source, t.event) == ("x1", "a"))
    broken = replace_transition(fig1, idx, reset=ID_RESET)
    first = validate(broken, require_ro=True)
    second = validate(broken, require_ro=True)
    assert first == second and first is not second
    first.clear()
    second.append(Diagnostic("junk", "a caller's own entry"))
    assert [d.code for d in validate(broken, require_ro=True)] == ["ro-violation"]
    assert validate(broken) == []


def test_validate_open_guard(fig1):
    broken = replace_transition(fig1, 0, guard=Interval.open(1, 3))
    assert [d.code for d in validate(broken)] == ["guard-not-closed"]


def test_validate_structural_problems(fig1):
    ghost = replace_transition(fig1, 0, target="nowhere")
    assert "unknown-state" in [d.code for d in validate(ghost)]
    no_init = TFA(fig1.states, fig1.alphabet, fig1.observable, fig1.transitions, frozenset())
    assert "empty-initial" in [d.code for d in validate(no_init)]
    dup = TFA(
        fig1.states,
        fig1.alphabet,
        fig1.observable,
        fig1.transitions + (fig1.transitions[0],),
        fig1.initial,
    )
    assert "duplicate-transition" in [d.code for d in validate(dup)]


# -- check_run -------------------------------------------------------------------

def example_run() -> TimedRun:
    return TimedRun(
        start_state="x0",
        start_clock=F(0),
        start_time=F(0),
        steps=(
            RunStep("b", F(1, 2), "x2", F(1, 2)),
            RunStep("c", F(2), "x3", F(2)),
            RunStep("a", F(2), "x2", F(0)),
        ),
    )


def test_check_run_accepts_reference_run(fig1):
    assert check_run(fig1, example_run())


def test_check_run_rejects_wrong_reset_value(fig1):
    run = example_run()
    bad = TimedRun(run.start_state, run.start_clock, run.start_time,
                   run.steps[:-1] + (RunStep("a", F(2), "x2", F(1, 2)),))
    assert not check_run(fig1, bad)


def test_check_run_length_zero(fig1):
    assert check_run(fig1, TimedRun("x0", F(0), F(0)))
    assert not check_run(fig1, TimedRun("zz", F(0), F(0)))


def test_check_run_guard_and_order(fig1):
    late = TimedRun("x0", F(0), F(0), (RunStep("b", F(2), "x2", F(2)),))
    assert not check_run(fig1, late)  # aged clock 2 outside the guard
    backwards = TimedRun("x0", F(0), F(1), (RunStep("b", F(1, 2), "x2", F(1, 2)),))
    assert not check_run(fig1, backwards)


def test_check_run_agrees_with_enumeration_on_random_models():
    for seed in range(6):
        model = random_model(RandomModelConfig(state_count=4, rng_seed=100 + seed))
        grid = GridConfig(horizon=F(3), max_events=3)
        count = 0
        for run in enumerate_runs(model, grid):
            assert check_run(model, run), f"enumerated run fails legality: {run}"
            count += 1
            if count > 300:
                break


# -- projections -----------------------------------------------------------------

def test_project(fig1):
    word = (("b", F(1, 2)), ("c", F(2)), ("a", F(2)))
    assert project(word, fig1) == (("a", F(2)),)
    assert project((), fig1) == ()
    assert project((("a", F(1)), ("a", F(3))), fig1) == (("a", F(1)), ("a", F(3)))


def test_projection_functoriality(fig1):
    grid = GridConfig(horizon=F(2), max_events=3)
    seen = 0
    for run in enumerate_runs(fig1, grid):
        timed = project(run.word(), fig1)
        logical = tuple(e for e, _ in run.word() if e in fig1.observable)
        assert tuple(e for e, _ in timed) == logical
        seen += 1
        if seen > 500:
            break
    assert seen > 1


# -- observations ------------------------------------------------------------------

def test_observation_well_formedness():
    TimedObservation((("a", F(1)), ("a", F(3))), F(4))
    with pytest.raises(ValueError):
        TimedObservation((("a", F(3)), ("a", F(1))), F(4))
    with pytest.raises(ValueError):
        TimedObservation((("a", F(3)),), F(2))


def test_parse_observation():
    obs = parse_observation("a@1,a@3", F(4))
    assert obs.events == (("a", F(1)), ("a", F(3)))
    assert parse_observation("", F(0)).events == ()
    assert parse_observation(" a@1.5 ", F(2)).events == (("a", F(3, 2)),)
    with pytest.raises(ValueError):
        parse_observation("a1", F(2))
    with pytest.raises(ValueError):
        parse_observation("@1", F(2))


# -- document round trip -------------------------------------------------------------

def test_model_document_round_trip(fig1):
    doc = json.loads(dump_model(fig1))
    again = model_from_dict(doc)
    assert again == fig1
    assert model_to_dict(again) == doc


def test_file_matches_fixture(fig1, fig1_from_file):
    assert fig1_from_file == fig1


def test_malformed_document_rejected():
    with pytest.raises(ValueError):
        model_from_dict({"states": ["x0"]})


def test_non_string_interval_rejected(fig1):
    for key, value in (("reset", 5), ("guard", [0, 1]), ("reset", None)):
        doc = json.loads(dump_model(fig1))
        doc["transitions"][0][key] = value
        with pytest.raises(ValueError, match="not an interval"):
            model_from_dict(doc)


def test_bare_string_is_not_a_list_of_names(fig1):
    for key in ("states", "alphabet", "observable", "initial"):
        doc = json.loads(dump_model(fig1))
        doc[key] = "".join(doc[key])
        with pytest.raises(ValueError, match="list of names"):
            model_from_dict(doc)
    doc = json.loads(dump_model(fig1))
    doc["states"].append(7)
    with pytest.raises(ValueError, match="list of names"):
        model_from_dict(doc)
    doc = json.loads(dump_model(fig1))
    doc["transitions"][0]["to"] = ["x1"]
    with pytest.raises(ValueError, match="must be a name"):
        model_from_dict(doc)
