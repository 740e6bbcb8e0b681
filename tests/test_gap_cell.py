"""The op path's integer cell arithmetic.

Every op maps the elapsed time ``time - anchor`` to its unit cell on
numerators and denominators, and then reads the memo: no ``Fraction`` is
subtracted or compared between a timestamp and its cell.  The cold callers
(``estimate``, ``lambda_estimation``, the observer's ``lookup`` and
``successor``) do it with ``_gap_cell`` and ``_cell``; the warm ops
(``belief_advance``, ``belief_query`` and an observer session's
``advance`` and ``query``) do both inline, in their own frame.  These tests
pin ``_gap_cell`` against ``Fraction`` subtraction, and each inlined step,
through its public op, against the cell of the exact difference, for every
spelling of a time.  They check that a warm op opens no Python frame below
its own, runs no ``Fraction`` arithmetic and no model validation beyond
reading the model's verdict (one diagnose pass per model), and pin each
API's errors: for a time before its anchor, for a model that fails the
check, under ``python -O`` too, and the contract of the ``BeliefState``
record.
"""

import functools
import sys
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
from zonewatch.estimation import _cell, _gap_cell
from zonewatch.zones import ext_sort_key

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


_INT_STREAMS = {
    "fig1": [([("a", 1), ("a", 3)], [3, 4, 10**9]), ([("a", 2)], [2, 5])],
    "ring8": [([("a", 1)], [1, 2, 10**12]), ([("a", 0), ("a", 9)], [9, 100])],
}


def _python_calls(op, *args):
    """``op(*args)`` and the Python functions whose frames it opened, in
    order, ``op`` itself first; calls into C (``dict.get``,
    ``int.as_integer_ratio``) are not counted."""
    calls = []

    def hook(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        result = op(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def test_warm_ops_open_no_python_frame_below_their_own():
    # Each warm op computes its cell and reads the memo inline: a helper
    # frame per op costs more than the read itself.
    for name, model in [("fig1", make_fig1()), ("ring8", ring_model(8))]:
        za = build_zone_automaton(model)
        observer = build_offline_observer(za, model)
        for warm in (False, True):  # the first pass fills the memo
            frames = []
            for events, queries in _STREAMS[name] + _INT_STREAMS[name]:
                belief, session = belief_init(za), observer.session()
                for event, ts in events:
                    belief, calls = _python_calls(belief_advance, za, model, belief, event, ts)
                    frames += [calls, _python_calls(session.advance, event, ts)[1]]
                for t in queries:
                    frames.append(_python_calls(belief_query, za, model, belief, t)[1])
                    frames.append(_python_calls(session.query, t)[1])
        ops = ["belief_advance", "advance", "belief_query", "query"]
        assert sorted(set(map(tuple, frames))) == sorted((op,) for op in ops), name


class _Frac(Fraction):
    """A ``Fraction`` subclass: the ops read its ratio with
    ``as_integer_ratio()`` rather than from the slots."""


# Each way a caller may spell a time; ``F(spelling)`` is the exact value.
_SPELLINGS = {
    "as is": lambda t: t,
    "subclass": _Frac,
    "str": str,
    "float": float,
}
_denominators = st.integers(min_value=1, max_value=10**6)


@st.composite
def _anchor_and_time(draw):
    """An anchor and a later time: unequal denominators, equal ones, ints,
    or a ``Fraction`` anchor with an ``int`` time, with numerators up to
    ``10^30``; small ones as often as large."""
    size = draw(st.sampled_from([10, 10**30]))
    num = st.integers(min_value=0, max_value=size)
    kind = draw(st.sampled_from(["unequal", "equal", "int", "mixed"]))
    if kind == "int":
        a = draw(num)
        return a, a + draw(num)
    a = F(draw(num), draw(_denominators))
    if kind == "unequal":
        return a, a + F(draw(num), draw(_denominators))
    if kind == "equal":
        return a, a + draw(num)
    return a, a.numerator // a.denominator + 1 + draw(num)


@functools.cache
def _warm(name):
    """The model, zone automaton and observer of ``name``, built once."""
    model = make_fig1() if name == "fig1" else ring_model(8)
    za = build_zone_automaton(model)
    return model, za, build_offline_observer(za, model)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["fig1", "ring8"]),
    _anchor_and_time(),
    st.sampled_from(sorted(_SPELLINGS)),
    st.sampled_from(sorted(_SPELLINGS)),
    st.integers(min_value=0),
)
def test_inlined_cell_steps_answer_the_cell_of_the_difference(name, times, spell_a, spell_t, pick):
    model, za, observer = _warm(name)
    a, t = _SPELLINGS[spell_a](times[0]), _SPELLINGS[spell_t](times[1])
    # The reference: the cell of the exact difference, read with ``_cell``.
    support = _cell(za, za.initial, cell_index(F(a))).successor("a")
    i = cell_index(F(t) - F(a))
    want = _cell(za, support, i)
    exact = [x if isinstance(x, (int, Fraction)) else F(x) for x in (a, t)]

    belief = belief_advance(za, model, belief_init(za), "a", a)
    session = observer.session()
    session.advance("a", a)
    assert belief.support == session.support == support
    assert belief.anchor_time == session.anchor_time == F(a)
    if F(t) < F(a):  # a float spelling may round below the anchor
        with pytest.raises(ValueError, match="^query time precedes the belief anchor$"):
            belief_query(za, model, belief, t)
        with pytest.raises(ValueError, match="^observation time precedes the last observation$"):
            session.advance("a", t)
        return
    # A session and a belief whose fields were set from outside, on a
    # support the memo may not have met yet: two extended states in a row.
    ext = sorted(za.states, key=ext_sort_key)
    other = frozenset(ext[pick % len(ext) :][:2])
    outside = observer.session()
    outside.support, outside.anchor_time = other, exact[0]
    want_other = _cell(za, other, i)
    answers = [
        belief_query(za, model, belief, t),
        session.query(t),
        estimate(za, model, TimedObservation((("a", exact[0]),), exact[1])),
    ]
    assert all(got.extended == want.estimate.extended for got in answers)
    assert outside.query(t).extended == want_other.estimate.extended
    assert belief_query(za, model, BeliefState(other, exact[0]), t) == want_other.estimate
    after = belief_advance(za, model, belief, "a", t)
    session.advance("a", t)
    outside.advance("a", t)
    assert after.support == session.support == want.successor("a")
    assert outside.support == want_other.successor("a")
    assert after.anchor_time == session.anchor_time == outside.anchor_time == F(t)


def test_inlined_cell_steps_on_the_empty_support():
    # "a" is not enabled at 1/2 in fig1: the belief empties, and every
    # later op reads the empty support's row, its elapsed times included.
    model, za, observer = _warm("fig1")
    belief = belief_advance(za, model, belief_init(za), "a", F(1, 2))
    session = observer.session()
    session.advance("a", "1/2")
    assert belief.support == session.support == frozenset()
    for t in (F(1, 2), F(1), F(7, 3), 5, _Frac(10**30 + 1, 7), "9/4", 2.5):
        i = cell_index(F(t) - F(1, 2))
        want = _cell(za, frozenset(), i).estimate
        exact = t if isinstance(t, (int, Fraction)) else F(t)
        assert belief_query(za, model, belief, t) == session.query(t) == want
        assert estimate(za, model, TimedObservation((("a", F(1, 2)),), exact)) == want
        assert want.empty
    for t in (F(3, 4), 2, "5/2"):
        belief = belief_advance(za, model, belief, "a", t)
        session.advance("a", t)
        assert belief.support == session.support == frozenset()


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
