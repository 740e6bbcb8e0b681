"""The op path's integer cell arithmetic.

Every op maps the elapsed time ``time - anchor`` to its unit cell with
``_gap_cell``, on numerators and denominators, and then reads the memo: no
``Fraction`` is subtracted or compared between a timestamp and its cell.
These tests pin the arithmetic against ``Fraction`` subtraction, check that
a warm op runs no ``Fraction`` arithmetic and no model validation beyond
reading the model's verdict (one diagnose pass per model), and pin each
API's errors: for a time before its anchor, for a model that fails the
check, under ``python -O`` too, and the contract of the ``BeliefState``
record.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zonewatch.model
from zonewatch import (
    ID_RESET,
    BeliefState,
    ModelError,
    TimedObservation,
    belief_advance,
    belief_init,
    belief_query,
    build_offline_observer,
    build_zone_automaton,
    estimate,
    lambda_estimation,
    validate,
)
from zonewatch.estimation import _gap_cell

from conftest import cell_index, make_fig1
from test_acceptance import ring_model
from test_model import replace_transition

F = Fraction

_ints = st.integers(min_value=-(10**12), max_value=10**12)
_fractions = st.builds(F, _ints, st.integers(min_value=1, max_value=10**6))
_times = st.one_of(_ints, _fractions)


@settings(max_examples=500)
@given(_times, _times)
def test_gap_cell_matches_fraction_subtraction(t, a):
    if t >= a:
        assert _gap_cell(t, a) == cell_index(F(t) - F(a))
    else:
        with pytest.raises(ValueError, match="elapsed time must be non-negative"):
            _gap_cell(t, a)


@settings(max_examples=200)
@given(_fractions, st.integers(min_value=0, max_value=10**6))
def test_gap_cell_on_equal_denominators(a, k):
    # The shortcut for equal denominators, also where the difference is an
    # integer or the fractions are not in lowest terms relative to each other.
    for t in (a + k, a + F(k, a.denominator)):
        assert _gap_cell(t, a) == cell_index(t - a)


# -- the warm op path -------------------------------------------------------------

# Per model: the observations of each stream and the query times after it.
_STREAMS = {
    "fig1": [
        ([("a", F(1)), ("a", F(3))], [F(3), F(7, 2), F(13, 3), F(10**9 + 1, 3)]),
        ([("a", F(3, 2))], [F(3, 2), F(11, 7), F(5), F(10**6)]),
        ([("a", F(1, 2))], [F(1), F(2)]),  # "a" is not enabled at 1/2: the belief empties
    ],
    "ring8": [
        ([("a", F(1, 2))], [F(1, 2), F(5, 3), F(1001, 7), F(10**9)]),
        ([("a", F(1)), ("a", F(17, 2))], [F(17, 2), F(9), F(100)]),
    ],
}


def _replay(za, model, observer, streams):
    """Every op of ``streams`` on the belief API, ``estimate`` and an
    observer session; the answers in order."""
    answers = []
    for events, queries in streams:
        belief, session = belief_init(za), observer.session()
        for event, ts in events:
            belief = belief_advance(za, model, belief, event, ts)
            session.advance(event, ts)
            answers.append((belief.support, session.support))
        for t, obs in queries:
            answers.append(belief_query(za, model, belief, t).extended)
            answers.append(session.query(t).extended)
            answers.append(estimate(za, model, obs).extended)
    return answers


def _boom(*args, **kwargs):
    raise AssertionError("Fraction arithmetic or a validation run on the warm op path")


def test_warm_ops_do_no_fraction_arithmetic(monkeypatch):
    for name, model in [("fig1", make_fig1()), ("ring8", ring_model(8))]:
        za = build_zone_automaton(model)
        observer = build_offline_observer(za, model)
        # Observations are built up front: their constructor compares times.
        streams = [
            (events, [(t, TimedObservation(tuple(events), t)) for t in queries])
            for events, queries in _STREAMS[name]
        ]
        want = _replay(za, model, observer, streams)  # fills the memo
        with monkeypatch.context() as patch:
            for op in ("__sub__", "__rsub__", "__add__", "__radd__", "__lt__", "__le__", "__gt__", "__ge__"):
                patch.setattr(Fraction, op, _boom)
            # A warm op checks the model by reading its cached diagnostics,
            # neither copying them through ``validate`` nor recomputing them.
            patch.setattr(zonewatch.model, "validate", _boom)
            patch.setattr(zonewatch.model, "_diagnose", _boom)
            got = _replay(za, model, observer, streams)
        assert got == want, name
        assert any(want[0]), name  # the first stream keeps a non-empty belief


# -- the error contract -----------------------------------------------------------


def test_times_before_the_anchor_keep_each_api_error():
    model = make_fig1()
    za = build_zone_automaton(model)
    observer = build_offline_observer(za, model)
    belief = belief_advance(za, model, belief_init(za), "a", 1)
    session = observer.session()
    session.advance("a", 1)
    for early in (F(1, 2), 0):
        with pytest.raises(ValueError, match="^query time precedes the belief anchor$"):
            belief_query(za, model, belief, early)
        # The time is checked before the event, as before.
        for event in ("a", "b"):
            with pytest.raises(ValueError, match="^observation time precedes the belief anchor$"):
                belief_advance(za, model, belief, event, early)
        with pytest.raises(ValueError, match="^query time precedes the last observation$"):
            session.query(early)
        with pytest.raises(ValueError, match="^observation time precedes the last observation$"):
            session.advance("a", early)
    assert session.anchor_time == 1
    support = session.support
    for call in (
        lambda: observer.lookup(support, F(-1, 2)),
        lambda: observer.lookup(support, -1),
        lambda: observer.successor(support, "a", F(-1, 3)),
        lambda: lambda_estimation(za, model, next(iter(za.initial)), F(-1, 2)),
    ):
        with pytest.raises(ValueError, match="^elapsed time must be non-negative$"):
            call()
    # Unobservable events still raise, at the anchor and past it.
    for t in (1, F(3, 2)):
        with pytest.raises(ValueError, match="'b' is not observable"):
            belief_advance(za, model, belief, "b", t)
        with pytest.raises(ValueError, match="'b' is not observable"):
            session.advance("b", t)
        with pytest.raises(ValueError, match="'b' is not observable"):
            observer.successor(support, "b", t)


def test_any_rational_time_gives_the_same_answers():
    model = make_fig1()
    za = build_zone_automaton(model)
    observer = build_offline_observer(za, model)
    spellings = [(1, 3), (F(1), F(3)), ("1", "3"), (1.0, 3.0), (F(2, 2), "6/2")]
    beliefs, answers = [], []
    for first, second in spellings:
        belief = belief_advance(za, model, belief_init(za), "a", first)
        belief = belief_advance(za, model, belief, "a", second)
        session = observer.session()
        session.advance("a", first)
        session.advance("a", second)
        # A time that is not a Fraction or an int is stored as a Fraction.
        assert isinstance(belief.anchor_time, (Fraction, int))
        assert isinstance(session.anchor_time, (Fraction, int))
        beliefs.append((belief, session.support, session.anchor_time))
        answers.append(
            [
                (belief_query(za, model, belief, t).extended, session.query(t).extended)
                for t in (3, F(7, 2), "7/2", 3.5, 10**9)
            ]
        )
    assert all(b == beliefs[0] for b in beliefs)
    assert all(a == answers[0] for a in answers)
    assert answers[0][1][0] == answers[0][2][0] == answers[0][3][0]
    assert answers[0][1][0] != answers[0][0][0]


def _ro_broken(model):
    """``model`` with its observable ``x1 -a-> x4`` keeping the clock."""
    idx = next(i for i, t in enumerate(model.transitions) if (t.source, t.event) == ("x1", "a"))
    return replace_transition(model, idx, reset=ID_RESET)


def test_every_call_checks_the_model_it_is_given():
    model = make_fig1()
    broken = _ro_broken(model)
    warm = build_zone_automaton(model)
    build_offline_observer(warm, model)
    belief = belief_init(warm)
    for ts in (1, 3):
        belief = belief_advance(warm, model, belief, "a", ts)
    obs = TimedObservation((("a", F(1)),), F(2))
    assert belief.support and estimate(warm, model, obs).extended
    calls = [
        lambda za: belief_advance(za, broken, belief_init(za), "a", 1),
        lambda za: estimate(za, broken, obs),
        lambda za: build_offline_observer(za, broken),
    ]
    # The zone automaton of the broken model, and one that has served calls
    # on the valid model with every answer now in its memo.
    for za in (build_zone_automaton(broken), warm):
        for call in calls:
            for _ in range(2):
                with pytest.raises(ModelError) as err:
                    call(za)
                assert [d.code for d in err.value.diagnostics] == ["ro-violation"]
    # A caller's changes to a returned list reach neither validate nor the check.
    validate(broken, require_ro=True).clear()
    assert [d.code for d in validate(broken, require_ro=True)] == ["ro-violation"]
    for call in calls:
        with pytest.raises(ModelError, match="ro-violation"):
            call(warm)
    assert belief_advance(warm, model, belief, "a", 4).anchor_time == 4


# The scenarios below return what they saw instead of asserting it, so that
# ``test_model_checks_hold_under_optimized_mode`` can run them under
# ``python -O``, where an assert inside them would vanish.


def _diagnose_passes() -> list:
    """The ``_diagnose`` passes, and the ``require_valid`` calls made by
    the ops, over 1,000 advances, 50 ``estimate`` calls and one observer
    build on a fresh fig1, with its zone automaton built first."""
    import random

    import zonewatch.estimation
    import zonewatch.observer

    passes, checks = [], []
    diagnose = zonewatch.model._diagnose
    check = zonewatch.model.require_valid
    zonewatch.model._diagnose = lambda model: passes.append(model) or diagnose(model)
    try:
        model = make_fig1()
        za = build_zone_automaton(model)
        for module in (zonewatch.estimation, zonewatch.observer):
            module.require_valid = lambda *args, **kwargs: checks.append(args) or check(*args, **kwargs)
        rng = random.Random(22)
        belief, stream = belief_init(za), []  # the observations since the last reset
        for k in range(1000):
            time = belief.anchor_time + F(rng.randrange(1, 9), 2)
            belief = belief_advance(za, model, belief, "a", time)
            stream.append(("a", time))
            if k < 50:
                estimate(za, model, TimedObservation(tuple(stream), time + F(k, 4)))
            if not belief.support:
                belief, stream = belief_init(za), []
        build_offline_observer(za, model)
    finally:
        zonewatch.model._diagnose = diagnose
        zonewatch.estimation.require_valid = zonewatch.observer.require_valid = check
    return [len(passes), len(checks)]


def _ro_broken_codes() -> list:
    """The diagnostic codes each call on an RO-broken fig1 raised (None
    for a call that did not raise), three times per call, on the broken
    model's zone automaton and on a warm one of the valid model."""
    model = make_fig1()
    broken = _ro_broken(model)
    warm = build_zone_automaton(model)
    build_offline_observer(warm, model)
    belief = belief_init(warm)
    for ts in (1, 3):
        belief = belief_advance(warm, model, belief, "a", ts)
    obs = TimedObservation((("a", F(1)),), F(2))
    calls = [
        lambda za: belief_advance(za, broken, belief_init(za), "a", 1),
        lambda za: belief_advance(za, broken, belief, "a", 4),
        lambda za: estimate(za, broken, obs),
        lambda za: build_offline_observer(za, broken),
    ]
    codes = []
    for za in (build_zone_automaton(broken), warm):
        for call in calls:
            for _ in range(3):
                try:
                    call(za)
                except ModelError as err:
                    codes.append([d.code for d in err.diagnostics])
                else:
                    codes.append(None)
    return codes + [broken.ro_valid, model.ro_valid]


def test_each_model_is_diagnosed_once():
    # The verdict is kept on the model: once the zone automaton's build has
    # checked it, no op calls ``require_valid`` again.
    assert _diagnose_passes() == [1, 0]


def test_an_invalid_model_fails_every_call():
    # An invalid model never gets the verdict, so every call falls through
    # to the full check and raises, however warm the zone automaton is.
    assert _ro_broken_codes() == [["ro-violation"]] * 24 + [False, True]


def test_model_checks_hold_under_optimized_mode():
    import json
    import os
    import subprocess
    import sys

    here = os.path.dirname(__file__)
    src = os.path.join(here, "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import json, sys\n"
        "import test_gap_cell as t\n"
        "print(json.dumps([sys.flags.optimize, t._diagnose_passes(), t._ro_broken_codes()]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [1, [1, 0], [["ro-violation"]] * 24 + [False, True]]


def test_belief_state_is_an_immutable_named_record():
    model = make_fig1()
    za = build_zone_automaton(model)
    belief = belief_advance(za, model, belief_init(za), "a", F(1))
    support = belief.support
    assert support and belief.anchor_time == 1
    assert tuple(belief) == (support, 1)
    assert BeliefState(support, F(1)) == BeliefState(support=support, anchor_time=F(1)) == belief
    assert hash(BeliefState(support, 1)) == hash(belief)
    assert BeliefState(support, 2) != belief
    assert belief_init(za) == BeliefState(za.initial, F(0))
    assert len({belief, BeliefState(support, 1), belief_init(za)}) == 2
    for name, value in (("support", frozenset()), ("anchor_time", 2), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(belief, name, value)
    assert isinstance(belief, tuple) and belief.support is support
