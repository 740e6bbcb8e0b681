"""Answer checks.  They run outside the timed spans; each returns the reasons
an answer is wrong (an empty list when it is right).

- soundness: the simulated run's true state, in the zone of its true clock,
  is in the answer;
- batch vs online: batch ``estimate`` equals the online belief at the end of
  each stream (and, for ``estimate`` ops, the online belief for the same
  observation);
- observer vs online: an ``ObserverSession`` answer equals the online belief;
- witness replay: every ``t_reachable`` witness is a legal run with the
  right endpoints and duration, and every yes/no equals the answer of
  ``inputs.min_duration``;
- oracle: on a sample of early queries, the discrete states equal
  ``brute_consistent_states`` on the 1/2 grid.
"""

from __future__ import annotations

from fractions import Fraction

ORACLE_MAX_TIME = Fraction(6)
ORACLE_MAX_EVENTS = 4
# Streams per model whose early queries go to the oracle.
ORACLE_STREAMS = 2


def soundness(za, truth, extended) -> list[str]:
    state, clock = truth[0], Fraction(truth[1])
    zone = za.zone_of(state, clock)
    if (state, zone) not in {(v.state, v.zone) for v in extended}:
        return [f"soundness: true state ({state}, {zone}) missing"]
    return []


def same(label: str, got, want) -> list[str]:
    return [] if frozenset(got) == frozenset(want) else [f"{label}: answers differ"]


def online(zw, za, model, events, time) -> tuple:
    """The online belief support after ``events`` and its estimate at ``time``."""
    belief = zw.belief_init(za)
    for event, when in events:
        belief = zw.belief_advance(za, model, belief, event, when)
    return belief.support, zw.belief_query(za, model, belief, time).extended


def batch(zw, za, model, events, time):
    return zw.estimate(za, model, zw.TimedObservation(tuple(events), time)).extended


def oracle(zw, model, events, time, discrete) -> list[str]:
    grid = zw.GridConfig(horizon=time, step=Fraction(1, 2))
    want = zw.brute_consistent_states(model, grid, zw.TimedObservation(tuple(events), time))
    return [] if frozenset(discrete) == want else ["oracle: discrete states differ"]


def witness(zw, model, source, target, duration, w) -> list[str]:
    run = w.run
    problems = []
    if not zw.check_run(model, run):
        problems.append("witness: run is not legal")
    if run.start_state != source or run.end_state != target:
        problems.append("witness: wrong endpoints")
    if run.start_time != 0 or w.trailing_dwell < 0 or run.end_time + w.trailing_dwell != duration:
        problems.append("witness: wrong duration")
    if run.end_clock + w.trailing_dwell not in w.final_zone:
        problems.append("witness: final clock outside the final zone")
    return problems


def check_op(zw, ctx, op: dict, answer) -> list[str]:
    """Check one op's answer.  ``ctx`` holds the model, its zone automaton,
    the workload name, and the observed events before the op."""
    kind, za, model = op["kind"], ctx["za"], ctx["model"]
    if kind == "reach":
        ok, w = answer
        problems = [] if ok == op["expect"] else [f"reach: answered {ok}, expected {op['expect']}"]
        if ok:
            problems += witness(zw, model, op["source"], op["target"], Fraction(op["duration"]), w)
        return problems
    problems = soundness(za, op["truth"], answer)
    events = ctx["events"]
    if kind == "estimate":
        time = Fraction(op["time"])
        _, want = online(zw, za, model, events, time)
        return problems + same("batch vs online", answer, want)
    if ctx["workload"] == "observer":
        support, est = online(zw, za, model, events, Fraction(op["time"]))
        want = support if kind == "advance" else est
        problems += same("observer vs online", answer, want)
    if kind == "query":
        time = Fraction(op["time"])
        if ctx["last"]:
            problems += same("batch vs online", batch(zw, za, model, events, time), answer)
        if ctx["oracle"]:
            problems += oracle(zw, model, events, time, {v.state for v in answer})
    return problems


def oracle_sample(stream_ops: list) -> set[int]:
    """Indices of the (at most two) earliest queries small enough for the
    grid oracle."""
    picked: set[int] = set()
    events = 0
    for i, op in enumerate(stream_ops):
        if op["kind"] == "advance":
            events += 1
        elif op["kind"] == "query" and len(picked) < 2:
            if Fraction(op["time"]) <= ORACLE_MAX_TIME and events <= ORACLE_MAX_EVENTS:
                picked.add(i)
    return picked
