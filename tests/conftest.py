import os
import signal
from fractions import Fraction

import pytest

from zonewatch import (
    ID_RESET,
    Interval,
    TFA,
    Transition,
    build_zone_automaton,
    load_model,
)

MODEL_PATH = os.path.join(os.path.dirname(__file__), "..", "models", "fig1.json")

# No test may run longer than this many seconds: a search or fixpoint that
# slows by orders of magnitude then fails its test instead of hanging the
# suite.  The slowest test takes about 3 s.
TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def _time_guard():
    """Fail the test once it has run ``TEST_SECONDS`` of wall time, by a
    ``SIGALRM`` timer; where the platform has no ``SIGALRM``, do nothing."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran longer than {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_fig1() -> TFA:
    """The five-state reference model used throughout the tests."""
    return TFA(
        states=frozenset({"x0", "x1", "x2", "x3", "x4"}),
        alphabet=frozenset({"a", "b", "c"}),
        observable=frozenset({"a"}),
        transitions=(
            Transition("x0", "c", "x1", Interval.closed(1, 3), Interval.closed(1, 1)),
            Transition("x0", "b", "x2", Interval.closed(0, 1), ID_RESET),
            Transition("x1", "a", "x4", Interval.closed(1, 3), Interval.closed(0, 1)),
            Transition("x2", "c", "x3", Interval.closed(1, 2), ID_RESET),
            Transition("x3", "a", "x2", Interval.closed(0, 2), Interval.closed(0, 0)),
            Transition("x4", "b", "x3", Interval.closed(0, 1), Interval.closed(0, 0)),
        ),
        initial=frozenset({"x0"}),
    )


def cell_index(t: Fraction) -> int:
    """The unit cell holding time ``t``: ``[k,k]`` is cell ``2k``, ``(k,k+1)``
    cell ``2k+1``.  The reference for ``zonewatch.estimation._gap_cell``."""
    return 2 * (t.numerator // t.denominator) + (t.denominator != 1)


@pytest.fixture(scope="session")
def fig1() -> TFA:
    return make_fig1()


@pytest.fixture(scope="session")
def fig1_za(fig1):
    return build_zone_automaton(fig1)


@pytest.fixture(scope="session")
def fig1_path() -> str:
    return MODEL_PATH


@pytest.fixture(scope="session")
def fig1_from_file() -> TFA:
    return load_model(MODEL_PATH)
