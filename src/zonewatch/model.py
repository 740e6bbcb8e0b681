"""Timed finite automata: the model, timed runs, observations and projections.

A model is a finite automaton over a single clock.  Each transition carries a
guard (the closed interval of clock values at which it may fire) and a reset
policy: either a closed interval of values the clock may take after firing,
or ``id`` meaning the clock keeps running.  The alphabet is split into
observable and unobservable events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, NoReturn, Optional, Sequence, Union

from .intervals import INF, Interval, format_time, parse_interval, parse_time

ID_RESET = "id"

TAU = "τ"


class Transition(NamedTuple):
    """A transition of the model: an immutable named tuple, which
    ``model_from_dict`` makes with ``tuple.__new__``."""

    source: str
    event: str
    target: str
    guard: Interval
    reset: Union[Interval, str]  # an Interval or ID_RESET

    @property
    def resets_clock(self) -> bool:
        return self.reset != ID_RESET

    def __str__(self) -> str:
        return f"({self.source},{self.event},{self.target})"


@dataclass(frozen=True, eq=False)
class TFA:
    """A single-clock timed finite automaton with an observable sub-alphabet.

    ``transitions`` is stored as a tuple for deterministic iteration but the
    transition relation is a set: equality ignores declaration order.
    """

    states: frozenset[str]
    alphabet: frozenset[str]
    observable: frozenset[str]
    transitions: tuple[Transition, ...]
    initial: frozenset[str]

    def _key(self) -> tuple:
        return (
            self.states,
            self.alphabet,
            self.observable,
            frozenset(self.transitions),
            self.initial,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TFA):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def unobservable(self) -> frozenset[str]:
        return self.alphabet - self.observable

    def outgoing(self, state: str) -> tuple[Transition, ...]:
        return self._by_source().get(state, ())

    def incoming(self, state: str) -> tuple[Transition, ...]:
        return self._by_target().get(state, ())

    def lookup(self, source: str, event: str, target: str) -> Optional[Transition]:
        return self._by_triple().get((source, event, target))

    def max_constant(self) -> int:
        best = 0
        for t in self.transitions:
            best = max(best, int(t.guard.hi))
            if isinstance(t.reset, Interval):
                best = max(best, int(t.reset.hi))
        return best

    # Index maps are derived lazily and cached on the instance.
    def _by_source(self) -> dict:
        return self._index()[0]

    def _by_target(self) -> dict:
        return self._index()[1]

    def _by_triple(self) -> dict:
        return self._index()[2]

    def _index(self) -> tuple:
        cached = getattr(self, "_idx", None)
        if cached is None:
            by_src: dict = {}
            by_tgt: dict = {}
            by_triple: dict = {}
            for t in self.transitions:
                by_src.setdefault(t.source, []).append(t)
                by_tgt.setdefault(t.target, []).append(t)
                by_triple[(t.source, t.event, t.target)] = t
            cached = (
                {k: tuple(v) for k, v in by_src.items()},
                {k: tuple(v) for k, v in by_tgt.items()},
                by_triple,
            )
            object.__setattr__(self, "_idx", cached)
        return cached


@dataclass(frozen=True, slots=True)
class Diagnostic:
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


# The zones make each unit region (integer point or open unit segment) under a
# clock-preserving guard a zone of its own at both ends of the transition, so
# a guard covering more regions than this is refused: its zone automaton would
# not fit in memory.  Of the order of the observer's largest fixpoint cut.
MAX_ID_REGIONS = 1 << 16


def validate(model: TFA, require_ro: bool = False) -> list[Diagnostic]:
    """Check model well-formedness; returns one diagnostic per violation.

    With ``require_ro`` the model must also reset the clock on every
    transition labelled by an observable event.  A clock-preserving guard
    may cover at most ``MAX_ID_REGIONS`` unit regions.  A model is immutable, so
    the diagnostics are computed once and cached on the instance; each call
    returns a fresh list.
    """
    return list(_diagnostics(model, require_ro))


def _diagnostics(model: TFA, require_ro: bool) -> tuple[Diagnostic, ...]:
    """The diagnostics of ``model`` as the tuple cached on the instance.
    The first call, whatever its flag, fills both flags' tuples from one
    ``_diagnose`` pass: the ``ro-violation`` entries are the only ones that
    depend on the flag, so the tuple without it is the other one with them
    left out, in the same order."""
    try:
        return model.__dict__["_diagnostics"][require_ro]
    except KeyError:
        with_ro = tuple(_diagnose(model))
        cache = model.__dict__["_diagnostics"] = {
            True: with_ro,
            False: tuple([d for d in with_ro if d.code != "ro-violation"]),
        }
        return cache[require_ro]


def _diagnose(model: TFA) -> list[Diagnostic]:
    """Every diagnostic of ``model``, ``ro-violation`` entries included."""
    out: list[Diagnostic] = []
    if not model.initial:
        out.append(Diagnostic("empty-initial", "the set of initial states is empty"))
    for x in sorted(model.initial - model.states):
        out.append(Diagnostic("unknown-initial", f"initial state {x!r} is not a state"))
    for e in sorted(model.observable - model.alphabet):
        out.append(Diagnostic("unknown-observable", f"observable event {e!r} is not in the alphabet"))
    if TAU in model.alphabet:
        out.append(Diagnostic("reserved-event", f"event name {TAU!r} is reserved"))
    states, alphabet, observable = model.states, model.alphabet, model.observable
    seen: set = set()
    for t in model.transitions:
        source, event, target, guard, reset = t
        if source not in states:
            out.append(Diagnostic("unknown-state", f"transition {t} leaves unknown state {source!r}"))
        if target not in states:
            out.append(Diagnostic("unknown-state", f"transition {t} enters unknown state {target!r}"))
        if event not in alphabet:
            out.append(Diagnostic("unknown-event", f"transition {t} uses unknown event {event!r}"))
        lo, lo_closed, hi, hi_closed = guard
        if not (lo_closed and hi_closed and hi != INF):
            out.append(Diagnostic("guard-not-closed", f"guard {guard} of {t} must be closed and bounded"))
        elif reset == ID_RESET and 2 * (hi - lo) + 1 > MAX_ID_REGIONS:
            out.append(
                Diagnostic(
                    "wide-id-guard",
                    f"clock-preserving transition {t} has guard {guard}, "
                    f"which covers more than {MAX_ID_REGIONS} unit regions",
                )
            )
        if isinstance(reset, Interval):
            _, lo_closed, hi, hi_closed = reset
            if not (lo_closed and hi_closed and hi != INF):
                out.append(Diagnostic("reset-not-closed", f"reset {reset} of {t} must be closed and bounded"))
        elif reset != ID_RESET:
            out.append(Diagnostic("bad-reset", f"reset of {t} must be an interval or {ID_RESET!r}"))
        key = (source, event, target)
        if key in seen:
            out.append(Diagnostic("duplicate-transition", f"transition {t} appears more than once"))
        seen.add(key)
        if event in observable and reset == ID_RESET:
            out.append(
                Diagnostic("ro-violation", f"observable transition {t} does not reset the clock")
            )
    return out


class ModelError(ValueError):
    """Raised when an operation requires a well-formed model and gets diagnostics."""

    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in diagnostics))


def require_valid(model: TFA, require_ro: bool = False) -> None:
    """Raise ``ModelError`` when ``model`` has diagnostics.  Reads the cached
    tuple, so a call on a model already checked makes no list."""
    diags = _diagnostics(model, require_ro)
    if diags:
        raise ModelError(diags)


# -- timed runs --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class RunStep:
    event: str
    time: Fraction
    state: str
    clock: Fraction


@dataclass(frozen=True)
class TimedRun:
    """A run: a start timed state plus the steps taken, with absolute times."""

    start_state: str
    start_clock: Fraction
    start_time: Fraction
    steps: tuple[RunStep, ...] = ()

    @property
    def end_state(self) -> str:
        return self.steps[-1].state if self.steps else self.start_state

    @property
    def end_clock(self) -> Fraction:
        return self.steps[-1].clock if self.steps else self.start_clock

    @property
    def end_time(self) -> Fraction:
        return self.steps[-1].time if self.steps else self.start_time

    def word(self) -> tuple[tuple[str, Fraction], ...]:
        """The timed word generated by the run."""
        return tuple((s.event, s.time) for s in self.steps)

    def __str__(self) -> str:
        bits = [f"({self.start_state},{format_time(self.start_clock)})"]
        for s in self.steps:
            bits.append(f"--({s.event},{format_time(s.time)})--> ({s.state},{format_time(s.clock)})")
        return " ".join(bits)


def check_run(model: TFA, run: TimedRun) -> bool:
    """Decide run legality step by step.

    Each step must use a declared transition, fire with the aged clock inside
    the guard, and either land the clock in the reset interval or, for ``id``
    transitions, carry the aged clock over unchanged.  Times may not decrease.
    """
    if run.start_state not in model.states or run.start_clock < 0:
        return False
    state, clock, time = run.start_state, run.start_clock, run.start_time
    for step in run.steps:
        tr = model.lookup(state, step.event, step.state)
        if tr is None or step.time < time:
            return False
        aged = clock + (step.time - time)
        if aged not in tr.guard:
            return False
        if tr.resets_clock:
            if step.clock not in tr.reset:
                return False
        elif step.clock != aged:
            return False
        state, clock, time = step.state, step.clock, step.time
    return True


# -- observations and projections --------------------------------------------


@dataclass(frozen=True)
class TimedObservation:
    """Observable events with their timestamps, plus the current time."""

    events: tuple[tuple[str, Fraction], ...]
    query_time: Fraction

    def __post_init__(self) -> None:
        last = Fraction(0)
        for name, ts in self.events:
            if ts < last:
                raise ValueError(f"observation timestamps decrease at ({name},{format_time(ts)})")
            last = ts
        if self.events and self.events[-1][1] > self.query_time:
            raise ValueError("query time precedes the last observation")
        if self.query_time < 0:
            raise ValueError("query time must be non-negative")


def project(word: Iterable[tuple[str, Fraction]], model: TFA) -> tuple[tuple[str, Fraction], ...]:
    """Erase unobservable pairs from a timed word, keeping order and times."""
    return tuple((e, t) for e, t in word if e in model.observable)


# -- JSON document form -------------------------------------------------------


def model_to_dict(model: TFA) -> dict:
    return {
        "states": sorted(model.states),
        "alphabet": sorted(model.alphabet),
        "observable": sorted(model.observable),
        "initial": sorted(model.initial),
        "transitions": [
            {
                "from": t.source,
                "event": t.event,
                "to": t.target,
                "guard": str(t.guard),
                "reset": str(t.reset) if isinstance(t.reset, Interval) else ID_RESET,
            }
            for t in sorted(model.transitions, key=lambda t: (t.source, t.event, t.target))
        ],
    }


def _name(value, what: str) -> NoReturn:
    """Refuse ``value``, which is not a string, as the name ``what``."""
    raise ValueError(f"malformed model document: {what} must be a name, not {value!r}")


def _names(doc: dict, key: str) -> frozenset[str]:
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"malformed model document: {key!r} must be a list of names, not {value!r}")
    return frozenset(value)


_new = tuple.__new__


def model_from_dict(doc: dict) -> TFA:
    """Read the JSON document form; raises ``ValueError`` on a malformed one.
    Each distinct interval text is parsed once per document, and equal
    texts share one ``Interval``."""
    parsed: dict[str, Interval] = {}
    transitions: list[Transition] = []
    try:
        for tr in doc["transitions"]:
            source = tr["from"]
            if not isinstance(source, str):
                _name(source, "'from'")
            event = tr["event"]
            if not isinstance(event, str):
                _name(event, "'event'")
            target = tr["to"]
            if not isinstance(target, str):
                _name(target, "'to'")
            # A value that is not a string, hashable or not, goes straight
            # to ``parse_interval``, which refuses it.
            text = tr["guard"]
            guard = parsed.get(text) if isinstance(text, str) else None
            if guard is None:
                guard = parsed[text] = parse_interval(text)
            text = tr["reset"]
            if text == ID_RESET:
                reset = ID_RESET
            else:
                reset = parsed.get(text) if isinstance(text, str) else None
                if reset is None:
                    reset = parsed[text] = parse_interval(text)
            transitions.append(_new(Transition, (source, event, target, guard, reset)))
        return TFA(
            states=_names(doc, "states"),
            alphabet=_names(doc, "alphabet"),
            observable=_names(doc, "observable"),
            transitions=tuple(transitions),
            initial=_names(doc, "initial"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc


def dump_model(model: TFA) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=False) + "\n"


def load_model(path: str) -> TFA:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def parse_observation(text: str, time: Fraction) -> TimedObservation:
    """Parse ``e@t`` pairs separated by commas; the empty string is no events."""
    text = text.strip()
    events: list[tuple[str, Fraction]] = []
    if text:
        for chunk in text.split(","):
            chunk = chunk.strip()
            if "@" not in chunk:
                raise ValueError(f"malformed observation pair {chunk!r} (expected event@time)")
            name, _, stamp = chunk.rpartition("@")
            if not name:
                raise ValueError(f"malformed observation pair {chunk!r} (empty event)")
            events.append((name, parse_time(stamp)))
    return TimedObservation(events=tuple(events), query_time=time)
