"""The cell memo behind ``estimate``, the belief API and the observer.

Every memo answer must equal a fresh computation on a separately built zone
automaton, cold (the first time a support meets a cell) and warm (read back
from the memo); a repeated op must run no search; and the memo must stay
bounded by the model's structure, not by the stream's length.
"""

import random
from fractions import Fraction

import pytest

from zonewatch import (
    BeliefState,
    belief_advance,
    belief_init,
    belief_query,
    build_zone_automaton,
    estimate,
    model_from_dict,
    parse_observation,
)
from zonewatch.oracle import RandomModelConfig, random_model

from conftest import cell_index, make_fig1

F = Fraction
HUGE = F(10**9)


def _memo_models():
    models = [("fig1", make_fig1())]
    for seed in range(30):
        config = RandomModelConfig(
            state_count=2 + seed % 5,
            max_constant=1 + seed % 4,
            transition_density=0.12 + 0.04 * (seed % 3),
            require_ro=True,
            rng_seed=3000 + seed,
        )
        models.append((f"random{seed}", random_model(config)))
    return models


def _fresh(za, support, dt):
    """The estimate at ``dt`` and the successor support per event, from one
    ``_duration_reach`` on ``za``."""
    from zonewatch.estimation import _duration_reach, _ids

    ix = za.index
    hits = _duration_reach(za, _ids(za, support), dt).hits
    succ = {}
    for i in hits:
        for label, key, _, _ in ix.events[i]:
            a, b = ix.run(key)
            succ.setdefault(label, set()).update(ix.ext[a : b + 1])
    return frozenset(ix.ext[i] for i in hits), succ


def _fresh_by_fixpoint(za, support, dt):
    """The estimate at ``dt`` from one ``_duration_cells`` on ``za``: the
    reference at times too large for a search."""
    from zonewatch.estimation import _duration_cells, _ids

    hits, start, period = _duration_cells(za, _ids(za, support))
    i = cell_index(dt)
    i = i if i < start else start + (i - start) % period
    return frozenset(za.index.ext[s] for s, mask in hits.items() if mask >> i & 1)


def test_memo_answers_equal_a_fresh_search():
    from zonewatch.estimation import _width

    checked = 0
    for name, model in _memo_models():
        za, ref = build_zone_automaton(model), build_zone_automaton(model)
        events = sorted(model.observable)
        supports = [za.initial]
        for dt in [F(1, 2), F(1), F(3, 2), F(2)]:
            _, succ = _fresh(ref, za.initial, dt)
            supports += [frozenset(succ[e]) for e in events if e in succ]
        supports = list(dict.fromkeys(supports))[:3]
        cut = 4 * _width(za.index)  # the first time whose cell is past the search cut
        dts = sorted({F(k, 2) for k in range(8)} | {F(k, 3) for k in range(8)})
        dts += [cut - F(1, 3), F(cut), cut + F(1, 2), cut + F(2, 3), cut + 3]
        cases = [(s, dt) for s in supports for dt in dts + [HUGE, HUGE + F(1, 2)]]
        random.Random(name).shuffle(cases)  # past-cut misses come before and after the others
        fresh = {}
        for _ in ("cold", "warm"):
            for support, dt in cases:
                belief = BeliefState(support, F(0))
                got = belief_query(za, model, belief, dt).extended
                if dt < HUGE or name == "fig1":  # fig1 has no silent cycle: a search at 1e9 is cheap
                    if (support, dt) not in fresh:
                        fresh[support, dt] = _fresh(ref, support, dt)
                    want, succ = fresh[support, dt]
                    assert got == want, (name, support, dt)
                    for e in events:
                        nxt = belief_advance(za, model, belief, e, dt).support
                        assert nxt == frozenset(succ.get(e, ())), (name, support, dt, e)
                else:
                    assert got == _fresh_by_fixpoint(ref, support, dt), (name, support, dt)
                checked += 1
    assert checked > 1500


def _count_searches(monkeypatch):
    import zonewatch.estimation as estimation

    calls = []
    search = estimation._duration_reach

    def counted(*args, **kwargs):
        calls.append(args[2])
        return search(*args, **kwargs)

    monkeypatch.setattr(estimation, "_duration_reach", counted)
    return calls


def test_repeated_ops_in_one_cell_run_no_search(monkeypatch):
    model = make_fig1()
    za = build_zone_automaton(model)  # fresh: the session-scoped one is warm
    calls = _count_searches(monkeypatch)
    after_a = belief_advance(za, model, belief_init(za), "a", 1)
    first = belief_query(za, model, after_a, F(5, 4))
    assert len(calls) == 2
    # The same supports and cells again, at other times inside those cells.
    again = belief_advance(za, model, belief_init(za), "a", 1)
    assert again.support is after_a.support
    assert belief_query(za, model, again, F(7, 4)) == first
    assert belief_advance(za, model, again, "a", F(3, 2)).support == belief_advance(
        za, model, after_a, "a", F(7, 4)
    ).support
    assert estimate(za, model, parse_observation("a@1", F(13, 8))) == first
    assert len(calls) == 2


def test_query_far_past_the_tail_runs_no_search(monkeypatch):
    from test_acceptance import ring_model

    model = ring_model(16)
    za = build_zone_automaton(model)
    after_a = belief_advance(za, model, belief_init(za), "a", 1)
    calls = _count_searches(monkeypatch)
    got = belief_query(za, model, after_a, HUGE + 1)
    assert calls == []
    # Past a few time units every state of the ring is reachable in every zone.
    assert got.extended == za.states
    assert belief_query(za, model, after_a, HUGE + F(3, 2)).extended == za.states
    assert calls == []


def _coprime_loops_model():
    # The model of the builder's refusal test: silent loops of exact
    # durations 29, 31 and 37, whose period the fixpoint will not tabulate.
    transitions = []
    for p in [29, 31, 37]:
        transitions += [
            {"from": "x0", "event": "u", "to": f"l{p}", "guard": "[0,0]", "reset": "[0,0]"},
            {"from": f"l{p}", "event": "u", "to": f"l{p}", "guard": f"[{p},{p}]", "reset": "[0,0]"},
            {"from": f"l{p}", "event": "a", "to": "x0", "guard": "[0,1]", "reset": "[0,0]"},
        ]
    return model_from_dict(
        {
            "states": ["x0", "l29", "l31", "l37"],
            "alphabet": ["a", "u"],
            "observable": ["a"],
            "initial": ["x0"],
            "transitions": transitions,
        }
    )


def test_refused_tail_is_answered_by_the_search(monkeypatch):
    import zonewatch.estimation as estimation

    model = _coprime_loops_model()
    za, ref = build_zone_automaton(model), build_zone_automaton(model)
    fixpoints = []
    fixpoint = estimation._duration_cells

    def counted(*args):
        fixpoints.append(args[1])
        return fixpoint(*args)

    monkeypatch.setattr(estimation, "_duration_cells", counted)
    belief = belief_init(za)
    for dt in [F(1000), F(2001, 2), F(7, 2), F(1000), F(600)]:
        assert belief_query(za, model, belief, dt).extended == _fresh(ref, za.initial, dt)[0], dt
    assert len(fixpoints) == 1  # the refusal is kept: no second try
    row = za.index.rows[za.initial]
    assert row.tail is False
    assert list(row.cells) == [7]  # past-cut answers are not stored


def test_exact_steps_past_the_cell_cap_are_refused_at_once():
    # The constant [0,10^20] is too large to tabulate, and the loop t -c-> t
    # crosses a silent gap in exact unit steps, one queued item per step.
    # Below the cell cap the search answers as the reference does; past it
    # the search stops after a bounded number of items, in well under a
    # second here, where it ran for hours at 10^9.
    import time

    from node_search import node_estimate

    def tr(src, event, dst, guard):
        return {"from": src, "event": event, "to": dst, "guard": guard, "reset": "[0,0]"}

    model = model_from_dict({
        "states": ["s", "t"], "alphabet": ["a", "c", "u"], "observable": ["a"], "initial": ["s"],
        "transitions": [tr("s", "u", "t", "[1,1]"), tr("t", "c", "t", "[1,1]"), tr("t", "a", "s", f"[0,{10 ** 20}]")],
    })
    za, ref = build_zone_automaton(model), build_zone_automaton(model)
    belief = belief_advance(za, model, belief_init(za), "a", F(1))
    assert belief_query(za, model, belief, F(1001)).extended == node_estimate(ref, [("a", F(1))], F(1001))
    started = time.perf_counter()
    with pytest.raises(ValueError, match="no answer at an elapsed time of 1000000000.0"):
        belief_query(za, model, belief, HUGE + 1)
    assert time.perf_counter() - started < 20
    assert za.index.rows[belief.support].tail is False


@pytest.mark.parametrize("name", ["fig1", "ring8"])
def test_memo_size_follows_the_model_not_the_stream(name):
    from test_acceptance import ring_model

    from zonewatch.estimation import _width

    model = make_fig1() if name == "fig1" else ring_model(8)
    za = build_zone_automaton(model)
    ix = za.index
    cut = 8 * _width(ix)
    rng = random.Random(name)
    # Query gaps reach 3x the search cut, in cells; observation gaps stay
    # under 4 time units, where fig1 and the ring can still observe "a".
    gaps = [F(k, d) for d in (1, 2, 3) for k in range(3 * cut * d // 2)]
    short = [g for g in gaps if g < 4]

    def check_bound():
        for row in ix.rows.values():
            assert len(row.cells) <= max(cut, sum(row.tail) if row.tail else 0)

    belief = belief_init(za)
    events = restarts = 0
    while events < 2000:
        belief_query(za, model, belief, belief.anchor_time + rng.choice(gaps))
        # Observe "a" after the first of a few random gaps that keeps the
        # belief alive; the stream restarts when none does.
        for gap in rng.sample(short, 8):
            nxt = belief_advance(za, model, belief, "a", belief.anchor_time + gap)
            if nxt.support:
                belief = nxt
                break
        else:
            belief = belief_init(za)
            restarts += 1
        events += 1
        if events % 250 == 0:
            check_bound()
    check_bound()
    assert restarts < 100
    assert len(ix.rows) <= 16 and len(ix.cells) <= 64, (len(ix.rows), len(ix.cells))


def test_interned_ids_are_the_supports_ids():
    # A successor support is interned with the ids ``Cell.successor``
    # collected, and its row reads them instead of mapping the support
    # back; those ids must be the ones ``_ids`` gives.
    from zonewatch.estimation import _ids

    models = _memo_models()
    for seed in range(20):  # larger models, with more supports each
        config = RandomModelConfig(
            state_count=6 + seed % 7, event_count=4, max_constant=2 + seed % 4, transition_density=0.2,
            require_ro=True, rng_seed=9100 + seed,
        )
        models.append((f"larger{seed}", random_model(config)))
    rows = 0
    for name, model in models:
        za = build_zone_automaton(model)
        ix = za.index
        events = sorted(model.observable)
        rng = random.Random(name)
        for _ in range(10):
            belief = belief_init(za)
            for _ in range(8):
                belief_query(za, model, belief, belief.anchor_time + F(rng.randrange(9), 2))
                # Observe after the first of a few random gaps that keeps
                # the belief alive; the session ends when none does.
                for _ in range(6 if events else 0):
                    time = belief.anchor_time + F(rng.randrange(1, 7), rng.choice((1, 2)))
                    nxt = belief_advance(za, model, belief, rng.choice(events), time)
                    if nxt.support:
                        belief = nxt
                        break
                else:
                    break
        for support, row in ix.rows.items():
            assert row.ids == _ids(za, support), (name, support)
            rows += support != za.initial
        for support, (shared, ids) in ix.supports.items():
            assert shared == support and ids == _ids(za, support), (name, support)
        # Successor supports are interned by their id masks as well.
        for mask, support in ix.masks.items():
            assert mask == sum(1 << i for i in _ids(za, support)), (name, support)
            assert ix.supports[support][0] is support, (name, support)
    assert rows > 200, rows
