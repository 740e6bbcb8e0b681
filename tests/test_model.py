import json
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

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
    build_zone_automaton,
    check_run,
    dump_model,
    enumerate_runs,
    estimate,
    model_from_dict,
    model_to_dict,
    parse_interval,
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


def test_validate_wide_id_guard(fig1):
    from zonewatch.model import MAX_ID_REGIONS

    idx = next(i for i, t in enumerate(fig1.transitions) if t.reset == ID_RESET)
    # [a,b] covers 2(b-a)+1 unit regions.
    widest = (MAX_ID_REGIONS - 1) // 2
    assert validate(replace_transition(fig1, idx, guard=Interval.closed(5, 5 + widest))) == []
    for hi in (widest + 1, 10**9):
        diags = validate(replace_transition(fig1, idx, guard=Interval.closed(0, hi)))
        assert [d.code for d in diags] == ["wide-id-guard"]
        assert f"[0,{hi}]" in diags[0].message
    # A clock-resetting transition may have any guard: its zones follow the endpoints.
    resetting = next(i for i, t in enumerate(fig1.transitions) if t.reset != ID_RESET)
    assert validate(replace_transition(fig1, resetting, guard=Interval.closed(0, 10**9))) == []


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


def invalid_models(fig1) -> dict:
    """The invalid models of the tests above, plus one with ``ro-violation``
    entries among other per-transition diagnostics."""
    ts = fig1.transitions
    x1a = next(i for i, t in enumerate(ts) if (t.source, t.event) == ("x1", "a"))
    x3a = next(i for i, t in enumerate(ts) if (t.source, t.event) == ("x3", "a"))
    ident = next(i for i, t in enumerate(ts) if t.reset == ID_RESET)
    mixed = replace_transition(fig1, x1a, target="nowhere", guard=Interval.open(1, 3), reset=ID_RESET)
    mixed = replace_transition(mixed, x3a, guard=Interval.closed(0, 10**9), reset=ID_RESET)
    mixed = TFA(
        mixed.states,
        mixed.alphabet,
        mixed.observable | {"z"},
        mixed.transitions + (mixed.transitions[x1a], Transition("x4", "z", "x0", Interval.closed(0, 1), ID_RESET)),
        mixed.initial | {"ghost"},
    )
    return {
        "ro-violation": replace_transition(fig1, x1a, reset=ID_RESET),
        "open guard": replace_transition(fig1, 0, guard=Interval.open(1, 3)),
        "wide id guard": replace_transition(fig1, ident, guard=Interval.closed(0, 10**9)),
        "unknown state": replace_transition(fig1, 0, target="nowhere"),
        "empty initial": TFA(fig1.states, fig1.alphabet, fig1.observable, fig1.transitions, frozenset()),
        "duplicate": TFA(fig1.states, fig1.alphabet, fig1.observable, ts + (ts[0],), fig1.initial),
        "mixed": mixed,
    }


# The diagnostics of ``invalid_models`` with and without ``require_ro``, as
# one ``_diagnose`` pass per flag gave them: each flag's list, in order.
_MIXED = [
    ("unknown-initial", "initial state 'ghost' is not a state"),
    ("unknown-observable", "observable event 'z' is not in the alphabet"),
    ("unknown-state", "transition (x1,a,nowhere) enters unknown state 'nowhere'"),
    ("guard-not-closed", "guard (1,3) of (x1,a,nowhere) must be closed and bounded"),
    ("ro-violation", "observable transition (x1,a,nowhere) does not reset the clock"),
    (
        "wide-id-guard",
        "clock-preserving transition (x3,a,x2) has guard [0,1000000000], which covers more than 65536 unit regions",
    ),
    ("ro-violation", "observable transition (x3,a,x2) does not reset the clock"),
    ("unknown-state", "transition (x1,a,nowhere) enters unknown state 'nowhere'"),
    ("guard-not-closed", "guard (1,3) of (x1,a,nowhere) must be closed and bounded"),
    ("duplicate-transition", "transition (x1,a,nowhere) appears more than once"),
    ("ro-violation", "observable transition (x1,a,nowhere) does not reset the clock"),
    ("unknown-event", "transition (x4,z,x0) uses unknown event 'z'"),
    ("ro-violation", "observable transition (x4,z,x0) does not reset the clock"),
]
_EXPECTED_CODES = {
    "ro-violation": (["ro-violation"], []),
    "open guard": (["guard-not-closed"], ["guard-not-closed"]),
    "wide id guard": (["wide-id-guard"], ["wide-id-guard"]),
    "unknown state": (["unknown-state"], ["unknown-state"]),
    "empty initial": (["empty-initial"], ["empty-initial"]),
    "duplicate": (["duplicate-transition"], ["duplicate-transition"]),
}


def test_one_diagnose_pass_gives_both_flags_lists(fig1):
    for first in (True, False):
        for name, model in invalid_models(fig1).items():
            got = {flag: validate(model, require_ro=flag) for flag in (first, not first)}
            if name == "mixed":
                assert [(d.code, d.message) for d in got[True]] == _MIXED
                assert [(d.code, d.message) for d in got[False]] == [p for p in _MIXED if p[0] != "ro-violation"]
            else:
                codes = ([d.code for d in got[True]], [d.code for d in got[False]])
                assert codes == _EXPECTED_CODES[name], name


def test_validate_then_build_runs_diagnose_once(monkeypatch):
    import zonewatch.model

    from conftest import make_fig1

    calls = []
    diagnose = zonewatch.model._diagnose
    monkeypatch.setattr(zonewatch.model, "_diagnose", lambda model: calls.append(model) or diagnose(model))
    generated = random_model(RandomModelConfig(state_count=4, rng_seed=14))  # checked by the generator
    fresh = TFA(generated.states, generated.alphabet, generated.observable, generated.transitions, generated.initial)
    for model in [make_fig1(), fresh]:
        calls.clear()
        assert validate(model, require_ro=True) == []
        build_zone_automaton(model)
        assert validate(model) == []
        assert calls == [model]


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


# -- fuzzing the load path -------------------------------------------------------

_DIGITS = ["0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"]
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\u3000"])


@st.composite
def _valid_interval_texts(draw) -> str:
    """An interval text that ``parse_interval`` accepts (or refuses only as
    an empty or degenerate range), with spacing and Unicode digits."""
    big = st.one_of(st.integers(0, 12), st.integers(0, 10**30))
    lo, hi = sorted((draw(big), draw(big)))
    digits = draw(st.sampled_from(_DIGITS))

    def number(k: int) -> str:
        return "".join(digits[int(c)] for c in str(k))

    upper = "inf" if draw(st.integers(0, 7)) == 0 else number(hi)
    parts = [draw(st.sampled_from("[[[(")), number(lo), ",", upper, draw(st.sampled_from(")]]]"))]
    return draw(_SPACE) + "".join(p + draw(_SPACE) for p in parts)


_GOOD_VALUES = st.one_of(
    _valid_interval_texts(),
    st.sampled_from(["[0,0]", "[0,1]", "[1,2]", "[2,5]", "[0,1000000000000000000000000000000]", "id"]),
)
_BAD_VALUES = st.one_of(
    st.text(max_size=12),  # malformed, almost always
    st.sampled_from(["[1,0]", "(2,2)", "[0,1", "[-1,2]", "[1.5,2]", "[0,inf]", "[0,\u00b2]", "id "]),
    st.integers(-3, 10**30),
    st.floats(allow_nan=True),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_loading_arbitrary_guard_and_reset_values(data):
    # Every guard and reset value either loads as ``parse_interval`` reads it
    # or ends the load in a ``ValueError``; an unhashable value must reach
    # ``parse_interval`` and be refused as not an interval, not fail in the
    # document's cache of parsed texts.  A model that then validates builds
    # and answers a query at a small time, or refuses in a ``ValueError``.
    values = [data.draw(_BAD_VALUES if data.draw(st.integers(0, 7)) == 0 else _GOOD_VALUES) for _ in range(6)]
    keep = data.draw(st.lists(st.booleans(), min_size=3, max_size=3))
    shape = [("s", "u", "t"), ("t", "a", "s"), ("s", "a", "s")]
    rows = [
        {"from": src, "event": ev, "to": tgt, "guard": values[2 * k], "reset": values[2 * k + 1]}
        for k, (src, ev, tgt) in enumerate(shape)
        if k == 0 or keep[k]
    ]
    doc = {"states": ["s", "t"], "alphabet": ["a", "u"], "observable": ["a"], "initial": ["s"], "transitions": rows}
    try:
        model = model_from_dict(doc)
    except ValueError as exc:
        assert "unhashable" not in str(exc), exc
        if not isinstance(values[0], str):  # the first value read
            assert "not an interval" in str(exc), exc
        return
    for row, t in zip(rows, model.transitions):
        assert t.guard == parse_interval(row["guard"])
        assert t.reset == (ID_RESET if row["reset"] == ID_RESET else parse_interval(row["reset"]))
    if validate(model, require_ro=True):
        event("loaded, invalid")
        return
    za = build_zone_automaton(model)
    try:
        estimate(za, model, parse_observation("a@1", F(2)))
        event("estimated")
    except ValueError:
        event("refused")
