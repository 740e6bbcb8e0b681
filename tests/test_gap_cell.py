"""The op path's integer cell arithmetic.

Every op maps the elapsed time ``time - anchor`` to its unit cell with
``_gap_cell``, on numerators and denominators, and then reads the memo: no
``Fraction`` is subtracted or compared between a timestamp and its cell.
These tests pin the arithmetic against ``Fraction`` subtraction, check that
a warm op runs no ``Fraction`` arithmetic at all, and pin each API's error
for a time before its anchor.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonewatch import (
    TimedObservation,
    belief_advance,
    belief_init,
    belief_query,
    build_offline_observer,
    build_zone_automaton,
    estimate,
    lambda_estimation,
)
from zonewatch.estimation import _cell_index, _gap_cell

from conftest import make_fig1
from test_acceptance import ring_model

F = Fraction

_ints = st.integers(min_value=-(10**12), max_value=10**12)
_fractions = st.builds(F, _ints, st.integers(min_value=1, max_value=10**6))
_times = st.one_of(_ints, _fractions)


@settings(max_examples=500)
@given(_times, _times)
def test_gap_cell_matches_fraction_subtraction(t, a):
    if t >= a:
        assert _gap_cell(t, a) == _cell_index(F(t) - F(a))
    else:
        with pytest.raises(ValueError, match="elapsed time must be non-negative"):
            _gap_cell(t, a)


@settings(max_examples=200)
@given(_fractions, st.integers(min_value=0, max_value=10**6))
def test_gap_cell_on_equal_denominators(a, k):
    # The shortcut for equal denominators, also where the difference is an
    # integer or the fractions are not in lowest terms relative to each other.
    for t in (a + k, a + F(k, a.denominator)):
        assert _gap_cell(t, a) == _cell_index(t - a)


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


def _boom(*args):
    raise AssertionError("Fraction arithmetic on the warm op path")


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
        lambda: observer.cell_for(support, F(-1, 2)),
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
