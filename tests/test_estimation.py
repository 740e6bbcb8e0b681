import os
import subprocess
import sys
from fractions import Fraction

import pytest

from zonewatch import (
    BeliefState,
    GridConfig,
    TimedObservation,
    belief_advance,
    belief_init,
    belief_query,
    build_zone_automaton,
    check_run,
    estimate,
    lambda_estimation,
    parse_interval,
    parse_observation,
    project,
    t_reachable,
)
from zonewatch.model import ID_RESET, TAU
from zonewatch.oracle import RandomModelConfig, _grid_points_in, _sample_runs, random_model
from zonewatch.zones import ExtendedState, ext_sort_key

from conftest import cell_index
from goldens import (
    SUPPORT_AFTER_A1,
    SUPPORT_AFTER_A1_A3,
    TABLE_AFTER_A1,
    TABLE_AFTER_A1_A3,
    TABLE_NO_OBS,
    discrete,
)

F = Fraction
I = parse_interval


# -- lambda estimation --------------------------------------------------------------

@pytest.mark.parametrize("t,expected", TABLE_NO_OBS)
def test_lambda_estimation_from_start(fig1, fig1_za, t, expected):
    got = lambda_estimation(fig1_za, fig1, ExtendedState("x0", I("[0,0]")), t)
    assert got == expected


def test_lambda_estimation_rejects_bad_input(fig1, fig1_za):
    with pytest.raises(ValueError):
        lambda_estimation(fig1_za, fig1, ExtendedState("x0", I("[0,0]")), F(-1))
    with pytest.raises(ValueError):
        lambda_estimation(fig1_za, fig1, ExtendedState("x0", I("[7,7]")), F(1))


def test_lambda_estimation_excludes_observable_steps(fig1, fig1_za):
    # x4 is only entered by the observable event, so it never appears.
    for t in [F(1), F(2), F(3)]:
        got = lambda_estimation(fig1_za, fig1, ExtendedState("x0", I("[0,0]")), t)
        assert all(v.state != "x4" for v in got)


# -- batch estimation -----------------------------------------------------------------

def obs(pairs, t) -> TimedObservation:
    return TimedObservation(tuple((e, F(ts)) for e, ts in pairs), F(t))


def test_estimate_empty_observation(fig1, fig1_za):
    est = estimate(fig1_za, fig1, obs([], 0))
    assert est.discrete == frozenset({"x0", "x2"})
    assert est.extended == TABLE_NO_OBS[0][1]


@pytest.mark.parametrize("t,expected", TABLE_AFTER_A1)
def test_estimate_after_one_observation(fig1, fig1_za, t, expected):
    est = estimate(fig1_za, fig1, obs([("a", 1)], t))
    assert est.extended == expected
    assert est.discrete == discrete(expected)


@pytest.mark.parametrize("t,expected", TABLE_AFTER_A1_A3)
def test_estimate_after_two_observations(fig1, fig1_za, t, expected):
    est = estimate(fig1_za, fig1, obs([("a", 1), ("a", 3)], t))
    assert est.extended == expected
    assert est.discrete == discrete(expected)


def test_estimate_inconsistent_observation_is_empty(fig1, fig1_za):
    # No run can produce an observable event by time 1/2: both observable
    # transitions need the clock at 1 or above first.
    est = estimate(fig1_za, fig1, obs([("a", F(1, 2))], 1))
    assert est.empty
    assert est.discrete == frozenset()
    # A quick repeated observation is, however, consistent (via x4 then x3).
    assert not estimate(fig1_za, fig1, obs([("a", 1), ("a", F(3, 2))], 2)).empty


def test_estimate_requires_ro(fig1, fig1_za):
    from test_model import replace_transition

    idx = next(i for i, t in enumerate(fig1.transitions) if t.event == "a")
    broken = replace_transition(fig1, idx, reset=ID_RESET)
    za = build_zone_automaton(broken)
    with pytest.raises(ValueError):
        estimate(za, broken, obs([("a", 1)], 2))


def test_estimate_rejects_unobservable_event(fig1, fig1_za):
    with pytest.raises(ValueError):
        estimate(fig1_za, fig1, obs([("b", 1)], 2))


def test_estimate_json_form(fig1, fig1_za):
    est = estimate(fig1_za, fig1, obs([("a", 1)], 1))
    doc = est.to_json_dict(anchor=F(1))
    assert doc == {
        "discrete": ["x2", "x3", "x4"],
        "extended": [["x2", "[0,0]"], ["x3", "[0,0]"], ["x4", "[0,1]"]],
        "anchor": "1.0",
    }


# -- belief state -----------------------------------------------------------------------

def test_belief_lifecycle(fig1, fig1_za):
    b0 = belief_init(fig1_za)
    assert b0.support == frozenset({ExtendedState("x0", I("[0,0]"))})
    assert b0.anchor_time == 0

    b1 = belief_advance(fig1_za, fig1, b0, "a", 1)
    assert b1.support == SUPPORT_AFTER_A1
    assert b1.anchor_time == 1
    assert b0.anchor_time == 0  # advancing produced a new value

    est = belief_query(fig1_za, fig1, b1, 3)
    assert est.discrete == frozenset({"x2", "x3", "x4"})
    assert b1.anchor_time == 1  # querying mutates nothing

    b2 = belief_advance(fig1_za, fig1, b1, "a", 3)
    assert b2.support == SUPPORT_AFTER_A1_A3
    assert belief_query(fig1_za, fig1, b2, 4).discrete == frozenset({"x2", "x3"})


def test_belief_advance_mismatch_goes_empty(fig1, fig1_za):
    b = belief_init(fig1_za)
    dead = belief_advance(fig1_za, fig1, b, "a", F(1, 2))  # no a-edge is enabled yet
    assert dead.support == frozenset()
    assert belief_query(fig1_za, fig1, dead, 2).empty


def test_belief_time_discipline(fig1, fig1_za):
    b = belief_advance(fig1_za, fig1, belief_init(fig1_za), "a", 1)
    with pytest.raises(ValueError):
        belief_query(fig1_za, fig1, b, F(1, 2))
    with pytest.raises(ValueError):
        belief_advance(fig1_za, fig1, b, "a", F(1, 2))


def test_belief_rejects_unknown_extended_state(fig1, fig1_za):
    foreign = BeliefState(frozenset({ExtendedState("nowhere", I("[0,0]"))}), F(0))
    with pytest.raises(ValueError, match="unknown extended state"):
        belief_query(fig1_za, fig1, foreign, 1)


def test_batch_equals_incremental_on_random_models():
    grid = GridConfig(horizon=F(4), max_events=4)
    for seed in range(12):
        model = random_model(RandomModelConfig(state_count=4, rng_seed=900 + seed))
        za = build_zone_automaton(model)
        for run in _sample_runs(model, grid, 4):
            word = project(run.word(), model)
            for t in [run.end_time, F(4)]:
                o = TimedObservation(word, t)
                batch = estimate(za, model, o)
                belief = belief_init(za)
                for e, ts in word:
                    belief = belief_advance(za, model, belief, e, ts)
                inc = belief_query(za, model, belief, t)
                assert batch.extended == inc.extended
                assert batch.discrete == inc.discrete


# -- T-reachability ------------------------------------------------------------------

def assert_witness_replays(model, witness, source, target, duration):
    assert witness.run.start_state == source
    assert witness.run.end_state == target
    assert check_run(model, witness.run)
    assert witness.run.start_time == 0
    assert witness.run.end_time <= duration
    assert witness.trailing_dwell == duration - witness.run.end_time
    final_clock = witness.run.end_clock + witness.trailing_dwell
    assert final_clock in witness.final_zone


def test_t_reachable_spot_checks(fig1, fig1_za):
    for source, target, duration in [("x0", "x4", F(4)), ("x0", "x2", F(2)), ("x0", "x3", F(2))]:
        ok, witness = t_reachable(fig1_za, fig1, source, target, duration)
        assert ok
        assert_witness_replays(fig1, witness, source, target, duration)


def test_t_reachable_zero_duration_reflexive(fig1, fig1_za):
    for x in sorted(fig1.states):
        ok, witness = t_reachable(fig1_za, fig1, x, x, 0)
        assert ok
        assert_witness_replays(fig1, witness, x, x, F(0))


def test_t_reachable_negative_cases(fig1, fig1_za):
    ok, witness = t_reachable(fig1_za, fig1, "x4", "x0", 1)
    assert not ok and witness is None
    with pytest.raises(ValueError):
        t_reachable(fig1_za, fig1, "x0", "zz", 1)
    with pytest.raises(ValueError):
        t_reachable(fig1_za, fig1, "x0", "x1", F(-1))


# -- grid oracle equivalences -----------------------------------------------------------

def earliest_arrivals(model, start_state, start_clock, horizon, unobs_only=False):
    """Earliest grid time each state is reachable from (start_state, start_clock),
    by plain breadth-first search over run configurations."""
    step = F(1, 2)
    grid = GridConfig(horizon=horizon)
    h = int(horizon / step)
    start = (start_state, int(start_clock / step), 0)
    seen = {start}
    frontier = [start]
    best: dict[str, Fraction] = {}
    while frontier:
        state, clock_t, time_t = frontier.pop()
        arrived = time_t * step
        if state not in best or arrived < best[state]:
            best[state] = arrived
        for fire_t in range(time_t, h + 1):
            for tr in model.outgoing(state):
                if unobs_only and tr.event in model.observable:
                    continue
                aged = (clock_t + fire_t - time_t) * step
                if aged not in tr.guard:
                    continue
                if tr.resets_clock:
                    next_clocks = _grid_points_in(tr.reset, grid)
                else:
                    next_clocks = [clock_t + fire_t - time_t]
                for nc in next_clocks:
                    cfg = (tr.target, nc, fire_t)
                    if cfg not in seen:
                        seen.add(cfg)
                        frontier.append(cfg)
    return best


def grid_clocks(model) -> list[Fraction]:
    top = model.max_constant() + 1
    return [F(k, 2) for k in range(2 * top + 1)]


def test_t_reachable_matches_grid_oracle():
    horizon = F(5)
    durations = [F(k, 2) for k in range(11)]
    for seed in range(6):
        model = random_model(RandomModelConfig(state_count=4, max_constant=2, rng_seed=300 + seed))
        za = build_zone_automaton(model)
        for source in sorted(model.states):
            arrivals = [
                earliest_arrivals(model, source, theta, horizon) for theta in grid_clocks(model)
            ]
            for target in sorted(model.states):
                for duration in durations:
                    expected = any(
                        target in arr and arr[target] <= duration for arr in arrivals
                    )
                    got, witness = t_reachable(za, model, source, target, duration)
                    assert got == expected, (seed, source, target, duration)
                    if got:
                        assert_witness_replays(model, witness, source, target, duration)


def test_witness_steps_follow_the_run(fig1):
    # The zone run of a witness and its timed run are built together; they
    # must tell the same story: the events in order, each landing in the
    # state and zone its zone step names, from a start clock in the start
    # zone.
    from test_acceptance import ring_model

    models = [("fig1", fig1), ("ring8", ring_model(8))]
    for seed in range(40):
        config = RandomModelConfig(
            state_count=2 + seed % 4,
            max_constant=1 + seed % 3,
            require_ro=seed % 2 == 0,
            rng_seed=700 + seed,
        )
        models.append((f"random{seed}", random_model(config)))
    durations = [F(0), F(1, 2), F(1), F(5, 2), F(4), F(13, 2)]
    yes = preserved = 0
    for name, model in models:
        za = build_zone_automaton(model)
        for source in sorted(model.states):
            for target in sorted(model.states):
                for dt in durations:
                    ok, witness = t_reachable(za, model, source, target, dt)
                    if not ok:
                        continue
                    yes += 1
                    where = (name, source, target, dt)
                    run = witness.run
                    assert run.start_clock in witness.start.zone, where
                    events = [(label, v) for label, v in witness.steps if label != TAU]
                    assert [label for label, _ in events] == [s.event for s in run.steps], where
                    for (_, v), step in zip(events, run.steps):
                        assert step.state == v.state and step.clock in v.zone, where
                    state = witness.start.state
                    for label, v in events:
                        preserved += not model.lookup(state, label, v.state).resets_clock
                        state = v.state
    assert yes > 1000 and preserved > 100, (yes, preserved)


def test_lambda_estimation_matches_unobservable_grid_oracle(fig1):
    horizon = F(4)
    durations = [F(k, 2) for k in range(9)]
    models = [fig1] + [
        random_model(RandomModelConfig(state_count=4, max_constant=2, rng_seed=400 + s))
        for s in range(5)
    ]
    for model in models:
        za = build_zone_automaton(model)
        for source in sorted(model.states):
            zone_list = za.zones(source)
            per_clock = {
                theta: earliest_arrivals(model, source, theta, horizon, unobs_only=True)
                for theta in grid_clocks(model)
            }
            for duration in durations:
                oracle_states = {
                    t for arr in per_clock.values() for t, at in arr.items() if at <= duration
                }
                est_states = set()
                for z in zone_list:
                    hit = lambda_estimation(za, model, ExtendedState(source, z), duration)
                    est_states |= {v.state for v in hit}
                assert est_states == oracle_states, (source, duration)
                # soundness per start clock: the abstraction covers each witness
                for theta, arr in per_clock.items():
                    zone = za.zone_of(source, theta)
                    hit = lambda_estimation(za, model, ExtendedState(source, zone), duration)
                    for target, at in arr.items():
                        if at <= duration:
                            assert target in {v.state for v in hit}


# -- search counters and witness checks -------------------------------------------

# Per case: its answer (the extended estimate in zone order, or whether the
# target is reachable), then per call of the duration search (pushed,
# expanded, pruned, capped, max_queue, covered): items queued, table entries
# that passed the lower-bound test, table scans cut by that test, reset steps
# whose sum was capped, the largest frontier, and items dropped because their
# root had every cell of their window queued already.  ``t_reachable`` runs
# its own earliest-arrival pass, so a reach case makes no call of it.
SEARCH_COUNTS = [
    ("fig1", "estimate", "a@1,a@3", "4", (
        "(x2,[1,1]) (x3,[1,1])",
        [(2, 8, 2, 0, 1, 0), (3, 15, 2, 0, 2, 0), (1, 4, 1, 0, 1, 0)])),
    ("fig1", "estimate", "", "5", (
        "(x0,(3,inf)) (x1,(1,3]) (x1,(3,inf)) (x2,(2,inf)) (x3,(2,inf))",
        [(3, 21, 0, 0, 2, 0)])),
    ("fig1", "estimate", "a@2", "13/2", (
        "(x2,(2,inf)) (x3,(2,inf)) (x4,(1,inf))",
        [(3, 16, 3, 1, 2, 0), (3, 18, 0, 0, 2, 0)])),
    ("fig1", "reach", ("x0", "x4"), "4", (True, [])),
    ("fig1", "reach", ("x0", "x3"), "7/2", (True, [])),
    ("fig1", "reach", ("x1", "x0"), "3", (False, [])),
    ("ring8", "estimate", "a@1", "2", (
        " ".join(f"(s{i},[0,0]) (s{i},(0,1])" for i in range(8)),
        [(24, 48, 24, 24, 4, 25), (24, 48, 24, 24, 4, 25)])),
    ("ring8", "estimate", "", "9", (
        " ".join(f"(s{i},[0,0]) (s{i},(0,1]) (s{i},(1,inf))" for i in range(8)),
        [(88, 264, 0, 24, 8, 89)])),
    ("ring8", "reach", ("s0", "s7"), "5", (True, [])),
    ("ring8", "reach", ("s3", "s2"), "15/2", (True, [])),
]


@pytest.mark.parametrize("name, kind, arg, time, expected", SEARCH_COUNTS)
def test_search_counters_pinned(monkeypatch, fig1, name, kind, arg, time, expected):
    from test_acceptance import ring_model

    import zonewatch.estimation as estimation

    model = fig1 if name == "fig1" else ring_model(8)
    za = build_zone_automaton(model)
    calls = []
    search = estimation._duration_reach

    def counted(*args, **kwargs):
        out = search(*args, **kwargs)
        calls.append(out[1:])  # pushed, expanded, pruned, capped, max_queue, covered
        return out

    monkeypatch.setattr(estimation, "_duration_reach", counted)
    if kind == "estimate":
        est = estimate(za, model, parse_observation(arg, F(time)))
        answer = " ".join(str(v) for v in sorted(est.extended, key=ext_sort_key))
    else:
        answer = t_reachable(za, model, *arg, F(time))[0]
    assert (answer, calls) == expected


def _tie_model():
    """A model in which ``x3`` queues the reset run of ``(x2,[0,0])`` at the
    window ``[0,0]`` and, later, at ``(0,1)``: only the point window, popped
    first since its lower end is closed, reaches ``x1`` at exactly 1."""
    return random_model(RandomModelConfig(
        state_count=4, max_constant=1, transition_density=0.15, reset_id_probability=0.4,
        require_ro=True, rng_seed=92,
    ))


# Per case: whether ``t_reachable`` reaches the target at the duration, and
# the heap pushes of its earliest-arrival pass (the start runs it begins
# with are not pushes).  Every state of ``ring8`` reaches every other at once
# and can be held there, so it has no "no".
REACH_PUSHES = [
    ("fig1", ("x0", "x4"), "4", (True, 7)),
    ("fig1", ("x0", "x3"), "7/2", (True, 5)),
    ("fig1", ("x1", "x0"), "4", (False, 8)),
    ("fig1", ("x4", "x1"), "9", (False, 6)),
    ("ring8", ("s0", "s7"), "5", (True, 18)),
    ("ring8", ("s3", "s2"), "15/2", (True, 18)),
    ("ring8", ("s0", "s0"), "0", (True, 0)),
    ("tie", ("x0", "x1"), "1/2", (False, 3)),
    ("tie", ("x0", "x1"), "1", (True, 5)),
    ("tie", ("x0", "x1"), "3/2", (True, 5)),
]


@pytest.mark.parametrize("name, pair, time, expected", REACH_PUSHES)
def test_reach_pushes_pinned(monkeypatch, fig1, name, pair, time, expected):
    # A root already expanded is not queued again, and an equal lower end
    # pops closed before open: a search that broke either would push more,
    # or expand a root at the wrong window.
    from test_acceptance import ring_model

    import zonewatch.estimation as estimation

    model = fig1 if name == "fig1" else ring_model(8) if name == "ring8" else _tie_model()
    za = build_zone_automaton(model)
    pushes = []
    push = estimation.heappush

    def counted(heap, item):
        pushes.append(None)
        push(heap, item)

    monkeypatch.setattr(estimation, "heappush", counted)
    assert (t_reachable(za, model, *pair, F(time))[0], len(pushes)) == expected


def test_realize_checks_survive_optimized_mode():
    # Under ``python -O`` a bare assert would vanish and the bad split would
    # surface as an unrelated error (or a wrong witness).
    script = (
        "from fractions import Fraction\n"
        "from zonewatch import Interval, InvariantError\n"
        "from zonewatch.estimation import _split\n"
        "try:\n"
        "    _split([Interval.point(0)], Fraction(5))\n"
        "except InvariantError as exc:\n"
        "    print('InvariantError:', exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("InvariantError: search certified an unrealizable")



# -- stretch search vs the per-node reference ----------------------------------

def _differential_models():
    from test_acceptance import ring_model

    models = [("ring8", ring_model(8), [F(0), F(1, 2), F(1), F(7, 2), F(9), F(40), F(199, 2), F(100)])]
    for seed in range(60):
        config = RandomModelConfig(
            state_count=3 + seed % 4,
            max_constant=1 + seed % 4,
            transition_density=0.12 + 0.04 * (seed % 3),
            require_ro=seed % 2 == 0,
            rng_seed=2000 + seed,
        )
        models.append((f"random{seed}", random_model(config), [F(0), F(1, 2), F(1), F(2), F(5, 2)]))
    return models


def test_stretch_search_matches_node_search():
    from node_search import node_reach

    import zonewatch.estimation as estimation

    compared = 0
    for name, model, durations in _differential_models():
        za = build_zone_automaton(model)
        ix = za.index
        start_sets = [sorted(ix.id_of[v] for v in za.initial)]
        start_sets += [list(ix.ids[x]) for x in sorted(model.states)]
        for starts in start_sets:
            for dt in durations:
                got = estimation._duration_reach(za, ix.start_runs(starts), cell_index(dt))[0]
                assert got == node_reach(za, starts, dt), (name, starts, dt)
                compared += 1
        for source in sorted(model.states):
            for dt in durations[1::2]:
                reached = node_reach(za, ix.ids[source], dt, all_events=True)
                for target in sorted(model.states):
                    ok, witness = t_reachable(za, model, source, target, dt)
                    assert ok == bool(reached.intersection(ix.ids[target])), (name, source, target, dt)
                    compared += 1
                    if ok:
                        assert_witness_replays(model, witness, source, target, dt)
    assert compared > 3000


def test_stretch_search_matches_node_search_where_cycles_repeat():
    # At these durations silent resetting cycles come round several times,
    # so roots are reached again with windows their queued cells already
    # cover, and the search drops those items.  The hits and every witness
    # must still match the per-node reference.  Models of six states are
    # left out: the reference's cost grows with the square of the duration.
    from node_search import node_reach

    import zonewatch.estimation as estimation

    durations = [F(7), F(12), F(25, 2)]
    compared = covered = 0
    for name, model, _ in _differential_models()[:41]:
        if len(model.states) > 5 and name != "ring8":
            continue
        za = build_zone_automaton(model)
        ix = za.index
        start_sets = [sorted(ix.id_of[v] for v in za.initial)]
        start_sets += [list(ix.ids[x]) for x in sorted(model.states)]
        for starts in start_sets:
            for dt in durations:
                out = estimation._duration_reach(za, ix.start_runs(starts), cell_index(dt))
                assert out[0] == node_reach(za, starts, dt), (name, starts, dt)
                compared += 1
                covered += out[6]
        for source in sorted(model.states):
            for dt in durations:
                reached = node_reach(za, ix.ids[source], dt, all_events=True)
                for target in sorted(model.states):
                    ok, witness = t_reachable(za, model, source, target, dt)
                    assert ok == bool(reached.intersection(ix.ids[target])), (name, source, target, dt)
                    compared += 1
                    if ok:
                        assert_witness_replays(model, witness, source, target, dt)
    assert compared > 900 and covered > 0


def test_misses_match_node_search_at_every_cell():
    # ``_miss`` hands the search its cell index and the row's start runs:
    # at every cell up to ``8w`` (the last one fills the row instead), its
    # answer equals the per-node reference at a time in that cell.  The
    # reference's cost grows with the square of the duration, so models of
    # six states are left out, and only those of up to four states are
    # also started from each state's zones.
    from node_search import node_reach

    from zonewatch.estimation import _ids, _miss, _width

    compared = 0
    for name, model, _ in _differential_models()[:20]:
        if len(model.states) > 5 and name != "ring8":
            continue
        za = build_zone_automaton(model)
        ix = za.index
        supports = [za.initial]
        if len(model.states) <= 4:
            supports += [frozenset(ix.ext[j] for j in ix.ids[x]) for x in sorted(model.states)]
        for support in supports:
            starts = _ids(za, support)
            for i in range(8 * _width(ix) + 1):
                got = _miss(za, support, i).reached
                assert got == node_reach(za, starts, F(i, 2)), (name, starts, i)
                compared += 1
    assert compared > 2000, compared


# -- run roots vs the per-node reference and the grid oracle -------------------

def _run_models(count: int) -> list:
    """Random models with a clock-preserving transition and a resetting one
    whose reset range spans several zones of its target, so that searches
    enter runs of several ids."""
    models = []
    seed = 0
    while len(models) < count:
        config = RandomModelConfig(
            state_count=2 + seed % 4,
            max_constant=2 + seed % 3,
            transition_density=0.15 + 0.05 * (seed % 3),
            reset_id_probability=0.4,
            require_ro=seed % 2 == 0,
            rng_seed=5000 + seed,
        )
        seed += 1
        model = random_model(config)
        za = build_zone_automaton(model)
        wide = any(
            t.resets_clock and za.zone_of(t.target, t.reset.lo) != za.zone_of(t.target, t.reset.hi)
            for t in model.transitions
        )
        if wide and any(not t.resets_clock for t in model.transitions):
            models.append((f"random{seed - 1}", model))
    return models


def _periodic_model():
    """Exact silent cycles of 4 and 2 + 6 time units, so the durations repeat
    every 2 time units; a reset range over several zones leads off them."""
    from zonewatch import model_from_dict

    def tr(src, event, dst, guard, reset):
        return {"from": src, "event": event, "to": dst, "guard": guard, "reset": reset}

    return model_from_dict({
        "states": ["x", "l", "m", "k", "j"],
        "alphabet": ["a", "u", "w"],
        "observable": ["a"],
        "initial": ["x"],
        "transitions": [
            tr("x", "u", "l", "[1,1]", "[0,0]"),
            tr("l", "u", "l", "[4,4]", "[0,0]"),
            tr("l", "w", "m", "[2,2]", "id"),
            tr("m", "u", "l", "[6,6]", "[0,0]"),
            tr("l", "w", "k", "[1,1]", "[0,2]"),
            tr("k", "u", "j", "[1,1]", "[0,0]"),
            tr("m", "a", "x", "[0,5]", "[0,0]"),
        ],
    })


def test_run_roots_match_node_search():
    # A reset fans out to every zone of its range, and the search roots the
    # next stretch at the whole run of them; a support starts one root per
    # run of consecutive zones.  The hits must equal the per-node reference,
    # which roots each zone separately, and every witness must replay,
    # including those the search re-roots at a member above the run's first.
    import random

    from node_search import node_reach

    import zonewatch.estimation as estimation

    durations = [F(0), F(1, 2), F(1), F(5, 2), F(4), F(13, 2)]
    compared = runs = inner = 0
    for name, model in _run_models(24):
        za = build_zone_automaton(model)
        ix = za.index
        n = len(ix.ext)
        rng = random.Random(name)
        start_sets = [sorted(ix.id_of[v] for v in za.initial)]
        start_sets += [list(ix.ids[x]) for x in sorted(model.states)]
        start_sets += [sorted(rng.sample(range(n), min(n, 4))) for _ in range(2)]
        for starts in start_sets:
            for dt in durations:
                got = estimation._duration_reach(za, ix.start_runs(starts), cell_index(dt))[0]
                assert got == node_reach(za, starts, dt), (name, starts, dt)
                compared += 1
        runs += sum(key >= n for tables in ix.stretches for key in tables)  # runs of several ids
        for source in sorted(model.states):
            for dt in durations:
                reached = node_reach(za, ix.ids[source], dt, all_events=True)
                for target in sorted(model.states):
                    ok, witness = t_reachable(za, model, source, target, dt)
                    assert ok == bool(reached.intersection(ix.ids[target])), (name, source, target, dt)
                    compared += 1
                    if not ok:
                        continue
                    assert_witness_replays(model, witness, source, target, dt)
                    state = witness.start.state
                    for label, v in witness.steps:
                        tr = model.lookup(state, label, v.state)
                        inner += (
                            tr is not None
                            and tr.resets_clock
                            and v.zone != za.zone_of(v.state, tr.reset.lo)
                        )
                        state = v.state
    assert compared > 2000 and runs > 100 and inner > 50, (compared, runs, inner)


def test_duration_cells_match_references_past_the_tail():
    # The fixpoint's rows over run roots, read past their certified tail:
    # the extended states equal the per-node search and the states equal
    # the grid oracle.
    from node_search import node_reach
    from zonewatch import brute_consistent_states

    from zonewatch.estimation import _duration_cells, _ids

    checked = periods = 0
    for name, model in _run_models(12) + [("periodic", _periodic_model())]:
        za = build_zone_automaton(model)
        ix = za.index
        starts = _ids(za, za.initial)
        hits, start, period = _duration_cells(za, starts)
        periods += period > 1
        for c in range(start + period, start + 2 * period + 2):
            i = start + (c - start) % period
            t = F(c, 2)  # a time in cell c
            got = {s for s, mask in hits.items() if mask >> i & 1}
            assert got == node_reach(za, starts, t), (name, c)
            want = brute_consistent_states(model, GridConfig(horizon=t), TimedObservation((), t))
            assert {ix.ext[s].state for s in got} == want, (name, c)
            checked += 1
    assert checked > 40 and periods > 0


def test_reset_range_is_one_root():
    # A reset range over K point zones of the target is one root: one
    # stretch table covers it, where rooting each zone separately built K
    # overlapping tables of up to 2K entries each.
    from zonewatch import model_from_dict

    k = 200
    transitions = [{"from": "s", "event": "a", "to": "t", "guard": "[0,1]", "reset": f"[0,{k}]"}]
    transitions += [
        {"from": "t", "event": f"u{i}", "to": "s", "guard": f"[{i},{i}]", "reset": "[0,0]"}
        for i in range(1, k + 1)
    ]
    model = model_from_dict({
        "states": ["s", "t"],
        "alphabet": ["a"] + [f"u{i}" for i in range(1, k + 1)],
        "observable": ["a"],
        "initial": ["s"],
        "transitions": transitions,
    })
    za = build_zone_automaton(model)
    belief = belief_advance(za, model, belief_init(za), "a", F(1))
    assert len(belief.support) == 2 * k  # [0,1), [1,1], (1,2), ..., [k,k]
    for dt in (F(0), F(1, 2), F(4), F(401, 2)):
        assert belief_query(za, model, belief, 1 + dt).discrete == {"s", "t"}
    tables = za.index.stretches[False]
    assert sum(len(table) for table in tables.values()) < 10 * k, len(tables)


def test_witness_through_a_reset_run_makes_no_tables():
    # The reset u enters the K+1 point zones of t as one run, and v_i leaves
    # only from t's zone [i,i].  The earliest-arrival pass expands three
    # roots: s, the run and g.  The witness re-roots the run at the member
    # whose window holds the stretch's duration and traces that stretch's
    # path itself, so it fills no table; filling an all-events table per
    # member tried made one per zone of the run, and took about 10 s and
    # 1 GB at K = 2000.
    from zonewatch import model_from_dict

    k = 300
    transitions = [{"from": "s", "event": "u", "to": "t", "guard": "[0,0]", "reset": f"[0,{k}]"}]
    transitions += [
        {"from": "t", "event": f"v{i}", "to": "g", "guard": f"[{i},{i}]", "reset": "[0,0]"}
        for i in range(k + 1)
    ]
    model = model_from_dict({
        "states": ["s", "t", "g"],
        "alphabet": ["a", "u"] + [f"v{i}" for i in range(k + 1)],
        "observable": ["a"],
        "initial": ["s"],
        "transitions": transitions,
    })
    za = build_zone_automaton(model)
    dt = F(k - 1, 2)
    ok, witness = t_reachable(za, model, "s", "g", dt)
    assert ok
    assert len(za.index.stretches[True]) == 3
    assert_witness_replays(model, witness, "s", "g", dt)


def _gated_ring(gate: int):
    """A silent ring ``s0 -> ... -> s7 -> s0``, alternately fast (``[0,1]``)
    and slow (``[1,2]``), with a silent exit from ``s0`` to ``d`` only once
    the clock has reached ``gate``, and a state ``z`` that nothing reaches.
    Every transition resets the clock."""
    from zonewatch import model_from_dict

    def tr(src, event, dst, lo, hi):
        return {"from": src, "event": event, "to": dst, "guard": f"[{lo},{hi}]", "reset": "[0,0]"}

    transitions = [tr(f"s{i}", "u", f"s{(i + 1) % 8}", i % 2, i % 2 + 1) for i in range(8)]
    transitions += [tr("s0", "a", "s1", 0, 1), tr("s0", "v", "d", gate, gate + 1), tr("d", "w", "s1", 0, 1)]
    return model_from_dict({
        "states": [f"s{i}" for i in range(8)] + ["d", "z"],
        "alphabet": ["a", "u", "v", "w"],
        "observable": ["a"],
        "initial": ["s0"],
        "transitions": transitions,
    })


def test_reach_cost_does_not_depend_on_the_duration(monkeypatch):
    # A "no" to the unreachable z explores every root reachable from s1 by
    # the duration.  The earliest-arrival pass expands each root at most
    # once, with the first window it meets there, so past the last arrival
    # it expands the same roots at every duration; a search that queues
    # every window up to the duration takes time linear in it.
    from zonewatch.zones import ZoneIndex

    model = _gated_ring(10000)
    za = build_zone_automaton(model)
    stretch = ZoneIndex.stretch
    expanded = []

    def counted(ix, key, all_events):
        expanded.append(key)
        return stretch(ix, key, all_events)

    monkeypatch.setattr(ZoneIndex, "stretch", counted)
    per_duration = []
    for d in (F(1280), F(10**6), F(10**12)):
        expanded.clear()
        assert t_reachable(za, model, "s1", "z", d) == (False, None)
        assert len(expanded) == len(set(expanded)), d
        per_duration.append(sorted(expanded))
    far = per_duration[1]
    assert far == per_duration[2]
    # d is first reached at 10000, so at 1280 the pass stops before its root.
    ix = za.index
    assert per_duration[0] == [k for k in far if ix.run(k)[0] not in ix.ids["d"]] != far
    assert t_reachable(za, model, "s1", "d", F(1280)) == (False, None)


def test_reach_expands_a_root_at_its_earliest_arrival():
    # From p, the direct step to t arrives at 10 at the earliest and the
    # step through m at 0; g follows t after 5.  Once the duration reaches
    # 10 the direct step is found first, so a pass that fixed t's root at
    # the first window it met, not the earliest, would reach g no sooner
    # than 15 and answer no from 10 to 15.
    from node_search import node_reach
    from zonewatch import model_from_dict

    def tr(src, dst, guard):
        return {"from": src, "event": "u", "to": dst, "guard": guard, "reset": "[0,0]"}

    model = model_from_dict({
        "states": ["s", "p", "m", "t", "g"], "alphabet": ["a", "u"], "observable": ["a"], "initial": ["s"],
        "transitions": [
            {"from": "s", "event": "a", "to": "p", "guard": "[0,1]", "reset": "[0,0]"},
            tr("p", "t", "[10,11]"), tr("p", "m", "[0,1]"), tr("m", "t", "[0,1]"), tr("t", "g", "[5,5]"),
        ],
    })
    za = build_zone_automaton(model)
    ix = za.index
    for dt in (F(9, 2), F(5), F(10), F(12), F(29, 2), F(15), F(20)):
        reached = node_reach(za, ix.ids["s"], dt, all_events=True).intersection(ix.ids["g"])
        ok, witness = t_reachable(za, model, "s", "g", dt)
        assert ok == bool(reached) == (dt >= 5), dt
        if ok:
            assert_witness_replays(model, witness, "s", "g", dt)


def test_far_reach_matches_graph_reachability(fig1):
    # Past every guard constant, and past any earliest arrival, ``target``
    # is reachable in the duration exactly when the zone automaton's graph
    # reaches one of its zones: a reached state can be held, as the models
    # have no invariants.
    from node_search import graph_reach
    from test_acceptance import ring_model

    models = [("fig1", fig1), ("ring8", ring_model(8))]
    for seed in range(120):
        config = RandomModelConfig(
            state_count=2 + seed % 5,
            max_constant=1 + seed % 4,
            transition_density=0.12 + 0.04 * (seed % 3),
            reset_id_probability=0.4,
            require_ro=seed % 2 == 0,
            rng_seed=9000 + seed,
        )
        models.append((f"random{seed}", random_model(config)))
    yes = no = 0
    for name, model in models:
        za = build_zone_automaton(model)
        ix = za.index
        for source in sorted(model.states):
            reached = graph_reach(za, ix.ids[source])
            for target in sorted(model.states):
                want = bool(reached.intersection(ix.ids[target]))
                for dt in (F(10**9), F(10**12) + F(1, 3)):
                    ok, witness = t_reachable(za, model, source, target, dt)
                    assert ok == want, (name, source, target, dt)
                    if ok:
                        yes += 1
                        assert_witness_replays(model, witness, source, target, dt)
                    else:
                        no += 1
    assert yes > 1000 and no > 300, (yes, no)


def test_cell_window_sum_matches_interval_sum():
    # Adding a window to a mask of cells must give exactly the cells of the
    # interval sums, for each parity and openness of the window's ends.
    from zonewatch.estimation import _shift, _shifts
    from zonewatch.intervals import add, contains, pick
    from zonewatch.observer import _cell_span

    limit = 40
    full = (2 << limit) - 1
    even = ((1 << 2 * (limit // 2 + 1)) - 1) // 3

    windows = [I(w) for w in ["[0,0]", "[2,2]", "(0,1)", "[0,1)", "(1,3]", "[1,4]", "(2,inf)", "(0,inf)"]]
    masks = [0b1, 0b10, 0b101000, 0b1000010, 0b11100100]
    for mask in masks:
        for d in windows:
            want = 0
            for c in range(limit + 1):
                if mask >> c & 1:
                    total = add(_cell_span(c), d)
                    want |= sum(
                        1 << i for i in range(limit + 1) if contains(total, pick(_cell_span(i)))
                    )
            assert _shift(mask, _shifts(d), even, full) == want, (bin(mask), d)


def _exact_loop_model():
    """The constant [0,10^20] is too large to tabulate, and the loop
    ``t -c-> t`` crosses a silent gap in exact unit steps."""
    from zonewatch import model_from_dict

    def tr(src, event, dst, guard):
        return {"from": src, "event": event, "to": dst, "guard": guard, "reset": "[0,0]"}

    return model_from_dict({
        "states": ["s", "t"], "alphabet": ["a", "c", "u"], "observable": ["a"], "initial": ["s"],
        "transitions": [tr("s", "u", "t", "[1,1]"), tr("t", "c", "t", "[1,1]"), tr("t", "a", "s", f"[0,{10 ** 20}]")],
    })


def test_searched_cells_a_row_stores_are_bounded(monkeypatch):
    # The fixpoint is never tried below 8w, and w follows the constant of
    # 10^20, so every miss here searches.  The row keeps at most
    # ``_ROW_CELLS`` of the searched cells, and the answers past that bound
    # still equal the per-node reference.
    import zonewatch.estimation as estimation
    from node_search import node_estimate

    monkeypatch.setattr(estimation, "_ROW_CELLS", 8)
    model = _exact_loop_model()
    za, ref = build_zone_automaton(model), build_zone_automaton(model)
    belief = belief_advance(za, model, belief_init(za), "a", F(1))
    row = za.index.rows[belief.support]
    for k in range(60):
        t = 1 + F(k, 3)
        for _ in ("cold", "warm"):
            got = belief_query(za, model, belief, t).extended
            assert got == node_estimate(ref, [("a", F(1))], t), t
        assert len(row.cells) <= 8
    assert len(row.cells) == 8 and row.tail is None
