import time
from fractions import Fraction

import pytest

from zonewatch import (
    Interval,
    TFA,
    Transition,
    build_zone_automaton,
    build_zones,
    parse_interval,
    to_dot,
)
from zonewatch.model import TAU
from zonewatch.zones import ExtendedState
from zonewatch.oracle import RandomModelConfig, random_model

from conftest import make_fig1
from edge_fanout import fanout_edges, fanout_successor
from region_merge import (
    input_transitions_at,
    output_transitions_at,
    reference_zones,
    regions,
)

I = parse_interval
F = Fraction


def ivs(texts: str) -> list[Interval]:
    return [I(t) for t in texts.split()]


# -- the region-merge reference (tests/region_merge.py) ---------------------------

def test_regions_reference_state(fig1):
    assert regions(fig1, "x0") == ivs("[0,0] (0,1) [1,1] (1,2) [2,2] (2,3) [3,3]")


def test_regions_isolated_state():
    model = TFA(
        states=frozenset({"x0", "lone"}),
        alphabet=frozenset({"a"}),
        observable=frozenset({"a"}),
        transitions=(),
        initial=frozenset({"x0"}),
    )
    assert regions(model, "lone") == ivs("[0,0]")


def test_regions_x4_endpoints_from_guard_and_reset(fig1):
    # endpoints {0,1}: the outgoing guard [0,1] and the incoming reset [0,1]
    assert regions(fig1, "x4") == ivs("[0,0] (0,1) [1,1]")


def test_regions_unknown_state(fig1):
    with pytest.raises(ValueError):
        regions(fig1, "zz")


# -- transition sets at a region -----------------------------------------------------

def triples(transitions) -> set:
    return {(t.source, t.event, t.target) for t in transitions}


def test_output_at(fig1):
    assert triples(output_transitions_at(fig1, "x0", I("[1,1]"))) == {
        ("x0", "c", "x1"),
        ("x0", "b", "x2"),
    }
    assert output_transitions_at(fig1, "x0", I("(3,inf)")) == set()
    assert triples(output_transitions_at(fig1, "x2", I("(1,2)"))) == {("x2", "c", "x3")}


def test_input_at(fig1):
    assert triples(input_transitions_at(fig1, "x2", I("[0,0]"))) == {
        ("x0", "b", "x2"),
        ("x3", "a", "x2"),
    }
    assert input_transitions_at(fig1, "x2", I("(1,2)")) == set()
    assert triples(input_transitions_at(fig1, "x1", I("[1,1]"))) == {("x0", "c", "x1")}


# -- zones ------------------------------------------------------------------------

def test_zones_reference_model(fig1):
    assert build_zones(fig1, "x0") == ivs("[0,0] (0,1) [1,1] (1,3] (3,inf)")
    assert build_zones(fig1, "x4") == ivs("[0,1] (1,inf)")
    assert build_zones(fig1, "x2") == ivs("[0,0] (0,1) [1,1] (1,2) [2,2] (2,inf)")
    assert build_zones(fig1, "x1") == ivs("[0,1) [1,1] (1,3] (3,inf)")
    assert build_zones(fig1, "x3") == ivs("[0,0] (0,1) [1,1] (1,2) [2,2] (2,inf)")


def test_initial_state_keeps_point_zero_zone():
    # With no constraints below 3, the regions under the guard merge; the
    # initial state still needs [0,0] on its own because the clock starts there.
    model = TFA(
        states=frozenset({"s", "t"}),
        alphabet=frozenset({"a"}),
        observable=frozenset({"a"}),
        transitions=(
            Transition("s", "a", "t", Interval.closed(3, 3), Interval.closed(0, 0)),
        ),
        initial=frozenset({"s"}),
    )
    assert build_zones(model, "s") == ivs("[0,0] (0,3) [3,3] (3,inf)")
    assert build_zones(model, "t") == ivs("[0,0] (0,inf)")


def random_models(n: int, **kw):
    for seed in range(n):
        yield random_model(RandomModelConfig(rng_seed=500 + seed, **kw))


def test_zone_partition_property(fig1):
    for model in [fig1] + list(random_models(8, state_count=5)):
        for x in model.states:
            zones = build_zones(model, x)
            top = max(z.lo for z in zones) + 2
            for k in range(4 * top + 1):
                theta = F(k, 4)
                assert sum(1 for z in zones if theta in z) == 1


def test_zone_region_refinement(fig1):
    from zonewatch.intervals import intersect, subset

    for model in [fig1] + list(random_models(8, state_count=5)):
        for x in model.states:
            for z in build_zones(model, x):
                assert isinstance(z.lo, int)
                for t in model.outgoing(x):
                    assert subset(z, t.guard) or intersect(z, t.guard) is None


def test_zone_count_bound(fig1):
    for model in [fig1] + list(random_models(8, state_count=5)):
        for x in model.states:
            zones = build_zones(model, x)
            high = max(z.lo for z in zones)
            assert len(zones) <= 2 * high + 2


def with_initial(model: TFA, initial) -> TFA:
    return TFA(model.states, model.alphabet, model.observable, model.transitions, frozenset(initial))


def sweep_cases():
    """fig1 and 240 random models, each once as generated and once with every
    state initial, so that many first zones need the ``[0,0]`` split."""
    yield make_fig1()
    for k in range(240):
        model = random_model(
            RandomModelConfig(
                state_count=(2, 3, 5, 7)[k % 4],
                max_constant=1 + k % 6,
                require_ro=k % 3 != 0,
                transition_density=0.15,
                rng_seed=900 + k,
            )
        )
        yield model
        yield with_initial(model, model.states)


def test_sweep_matches_region_merge():
    # Both the zones of ``build_zones`` and those the zone automaton is
    # built on, and the automaton's initial extended states.
    seen = {"id": 0, "split": 0, "bare": 0}
    for model in sweep_cases():
        za = build_zone_automaton(model)
        initial = set()
        for x in model.states:
            zones = build_zones(model, x)
            reference = reference_zones(model, x)
            assert zones == reference, (model, x)
            assert list(za.zones(x)) == reference, (model, x)
            if x in model.initial:
                initial.add(ExtendedState(x, reference[0]))
            if any(not t.resets_clock for t in model.outgoing(x) + model.incoming(x)):
                seen["id"] += 1
            if not model.outgoing(x) and not model.incoming(x):
                seen["bare"] += 1
            if x in model.initial and len(reference_zones(with_initial(model, ()), x)) < len(zones):
                seen["split"] += 1
        assert za.initial == initial, model
    assert min(seen.values()) >= 20, seen


def test_edges_match_eager_construction():
    for model in sweep_cases():
        za = build_zone_automaton(model)
        assert len(set(za.edges)) == len(za.edges)
        assert set(za.edges) == fanout_edges(model, za)


def test_run_encoded_edges_match_the_fanout():
    # Each event entry holds a run of target ids; expanding the runs, through
    # ``za.edges`` and through ``Cell.successor``, must give exactly the edges
    # fanned out one at a time from the transitions and the zones.
    import random

    from zonewatch.estimation import Cell

    rng = random.Random(14)
    seen = {"id": 0, "multi-zone reset": 0, "models": 0}
    models = [make_fig1()] + [
        random_model(
            RandomModelConfig(
                state_count=2 + k % 5,
                max_constant=1 + k % 6,
                require_ro=k % 2 == 0,
                reset_id_probability=(0.2, 0.5)[k % 2],
                transition_density=0.2,
                rng_seed=1400 + k,
            )
        )
        for k in range(110)
    ]
    for model in models:
        za = build_zone_automaton(model)
        ix = za.index
        n = len(ix.ext)
        edges = fanout_edges(model, za)
        assert len(za.edges) == len(edges) and set(za.edges) == edges
        for moves in ix.events:
            seen["id"] += sum(1 for e in moves if not e[2])
            seen["multi-zone reset"] += sum(1 for e in moves if e[1] >= n)
        supports = [{i} for i in range(n)] + [set(r) for r in ix.ids.values()]
        supports += [set(rng.sample(range(n), rng.randint(1, n))) for _ in range(20)]
        for ids in supports:
            reached = {ix.ext[i] for i in ids}
            # A row fill's cell holds an id mask, a search's the id set.
            for cell in (Cell(sum(1 << i for i in ids), ix), Cell(None, ix, frozenset(ids))):
                for event in sorted(model.alphabet):
                    assert cell.successor(event) == fanout_successor(edges, reached, event), (model, ids, event)
        seen["models"] += 1
    assert seen["models"] >= 101 and seen["id"] >= 100 and seen["multi-zone reset"] >= 100, seen


def square_model(k: int) -> TFA:
    """A point guard ``[i,i]`` out of ``s`` for each ``i <= k`` cuts ``s``
    into ``2k+2`` zones, and the self-loop ``u`` with guard and reset
    ``[0,k]`` leads from each of the ``2k+1`` bounded ones to each."""
    u = Transition("s", "u", "s", Interval.closed(0, k), Interval.closed(0, k))
    return TFA(
        states=frozenset({"s", "t"}),
        alphabet=frozenset({"a", "u"} | {f"c{i}" for i in range(k + 1)}),
        observable=frozenset({"a"}),
        transitions=tuple(
            Transition("s", f"c{i}", "t", Interval.point(i), Interval.point(0)) for i in range(k + 1)
        )
        + (u, Transition("t", "a", "s", Interval.closed(0, 1), Interval.point(0))),
        initial=frozenset({"s"}),
    )


def test_event_tables_grow_with_the_transitions():
    # One entry per source zone and transition: 2k+1 for u, k+1 for the
    # point guards and 2 for a, out of t's zones [0,0] and (0,1], where one
    # edge per target stored (2k+1)^2 for u alone.
    k = 200
    za = build_zone_automaton(square_model(k))
    assert za.zones("t") == (I("[0,0]"), I("(0,1]"), I("(1,inf)"))
    entries = sum(map(len, za.index.events))
    assert entries == (2 * k + 1) + (k + 1) + 2 < 10 * k
    tau = (2 * k + 1) + 2
    assert len(za.edges) == tau + (2 * k + 1) ** 2 + (k + 1) + 2


def wide_guard_model(c: int) -> TFA:
    return TFA(
        states=frozenset({"s", "t"}),
        alphabet=frozenset({"a", "b"}),
        observable=frozenset({"a"}),
        transitions=(
            Transition("s", "a", "t", Interval.closed(0, c), Interval.closed(0, 0)),
            Transition("t", "b", "s", Interval.closed(1, 2), Interval.closed(0, 0)),
        ),
        initial=frozenset({"s"}),
    )


def test_zone_build_cost_does_not_grow_with_constants():
    small = build_zone_automaton(wide_guard_model(1000))
    assert small.zones_by_state == {x: tuple(reference_zones(wide_guard_model(1000), x)) for x in "st"}
    start = time.perf_counter()
    wide = build_zone_automaton(wide_guard_model(10**9))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"zone automaton build took {elapsed:.3f} s"
    assert len(wide.states) == len(small.states) == 7
    assert wide.zones("s") == (I("[0,0]"), I("(0,1000000000]"), I("(1000000000,inf)"))


# -- zone automaton ------------------------------------------------------------------

def test_tau_edges_total(fig1_za):
    ix = fig1_za.index
    for v in fig1_za.states:
        j = ix.tau[ix.id_of[v]]
        if v.zone.is_bounded:
            assert j >= 0 and ix.ext[j].state == v.state
        else:
            assert j < 0


def test_golden_edges(fig1_za):
    ix = fig1_za.index
    assert ix.ext[ix.tau[ix.id_of[ExtendedState("x0", I("[0,0]"))]]] == ExtendedState(
        "x0", I("(0,1)")
    )
    b_edges = sorted(
        (str(e.source.zone), str(e.target.zone))
        for e in fig1_za.edges
        if e.label == "b" and e.source.state == "x0"
    )
    assert b_edges == [("(0,1)", "(0,1)"), ("[0,0]", "[0,0]"), ("[1,1]", "[1,1]")]
    assert all(
        e.target.state == "x2"
        for e in fig1_za.edges
        if e.label == "b" and e.source.state == "x0"
    )


def test_initial_extended_states(fig1_za):
    assert fig1_za.initial == frozenset({ExtendedState("x0", I("[0,0]"))})


def test_event_edges_respect_guard_and_reset(fig1, fig1_za):
    from zonewatch.intervals import subset

    for e in fig1_za.edges:
        if e.transition is None:
            assert e.label == TAU
            continue
        assert subset(e.source.zone, e.transition.guard)
        if e.transition.resets_clock:
            assert subset(e.target.zone, e.transition.reset)
        else:
            assert e.target.zone == e.source.zone


def test_no_diagnostics_on_well_formed_models(fig1):
    assert build_zone_automaton(fig1).diagnostics == ()
    for model in random_models(10, state_count=5):
        assert build_zone_automaton(model).diagnostics == ()


def test_reset_target_zones_tile_reset_interval(fig1):
    # The zones inside a reset range cover it exactly: event edges lose nothing.
    from zonewatch.intervals import contains, subset

    for model in [fig1] + list(random_models(6, state_count=4)):
        za = build_zone_automaton(model)
        for t in model.transitions:
            if not t.resets_clock:
                continue
            covered = [z for z in za.zones(t.target) if subset(z, t.reset)]
            for k in range(0, 4 * (t.reset.hi + 1) + 1):
                theta = F(k, 4)
                if contains(t.reset, theta):
                    assert sum(1 for z in covered if theta in z) == 1


# -- DOT export -----------------------------------------------------------------------

def test_dot_export(fig1_za):
    dot = to_dot(fig1_za)
    assert dot == to_dot(fig1_za)  # deterministic
    assert '"x0 [0,0]"' in dot
    assert '"x0 [0,0]" -> "x0 (0,1)" [style=dashed];' in dot
    assert '"x0 [1,1]" -> "x2 [1,1]" [label="b"];' in dot
    lines = dot.splitlines()
    assert lines[0] == "digraph zone_automaton {"
    assert lines[-1] == "}"


def test_dot_lists_nodes_and_edges_in_zone_order():
    # Nodes in ``ext_sort_key`` order, edges by source, label and target in
    # that order, as a sort of the expanded ``za.edges`` gives them.
    from zonewatch.zones import ext_sort_key

    for model in [make_fig1()] + list(random_models(10, state_count=4, require_ro=False)):
        za = build_zone_automaton(model)
        lines = to_dot(za).splitlines()
        nodes = [f"{v.state} {v.zone}" for v in sorted(za.states, key=ext_sort_key)]
        assert lines[2 : 2 + len(nodes)] == [
            f'  "{name}"{" shape=doublecircle" if v in za.initial else ""};'
            for name, v in zip(nodes, sorted(za.states, key=ext_sort_key))
        ]
        edges = sorted(za.edges, key=lambda e: ext_sort_key(e.source) + (e.label,) + ext_sort_key(e.target))
        assert lines[2 + len(nodes) : -1] == [
            f'  "{e.source.state} {e.source.zone}" -> "{e.target.state} {e.target.zone}" '
            + ("[style=dashed];" if e.label == TAU else f'[label="{e.label}"];')
            for e in edges
        ]
