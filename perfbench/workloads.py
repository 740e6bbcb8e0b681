"""The four workloads: what each one generates from the seed (README.md says
why each exists).

A workload document holds model documents and streams.  A stream belongs to
one model and lists the ops replayed against it, in order; the timed phase
replays every stream in order, which is one *pass*.  Each op is one public
zonewatch call: ``advance``/``query`` (the belief API, or an
``ObserverSession`` on the ``observer`` workload), ``estimate`` or ``reach``
(``t_reachable``).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from inputs import (
    FIG1,
    belief_ops,
    live_random_model,
    min_duration,
    ring_doc,
    ring_run,
    run_doc,
    seeded_run,
    t,
    wide_doc,
)

# Set-up repeats per run, in SETUP_GROUPS groups of consecutive repeats;
# setup_s is the median of each group's quickest repeat.
SETUP_GROUPS = 5
SETUP_REPEATS = {"monitor": 50, "long_gap": 50, "wide_constants": 10, "observer": 15}

OBSERVER_HORIZON = 3
OBSERVER_STREAMS = 6
MONITOR_SIZES = (10, 12, 14, 16)
MONITOR_STREAMS = 16
MONITOR_EVENTS = 10


def _stream(model: int, run: list, ops: list, cli: bool) -> dict:
    """``cli`` marks the streams that the watch phase replays as well: all of
    them, or a subset of the same mix small enough to replay several times."""
    return {"model": model, "run": run_doc(run), "ops": ops, "cli": cli}


def monitor(seed: int, zw) -> dict:
    rng = random.Random(f"monitor/{seed}")
    models = [FIG1]
    for i, n in enumerate(MONITOR_SIZES):
        doc = live_random_model(
            zw, 1000 * (i + 1), MONITOR_EVENTS, max_silent=3, max_wait=Fraction(2), closure_max=2.5,
            state_count=n, max_constant=5, transition_density=1 / n,
        )
        models.append(doc)
    streams = []
    for i, doc in enumerate(models):
        # Several short runs per model rather than one long one: op cost
        # follows the belief along the run, and independent runs average it.
        for _ in range(MONITOR_STREAMS):
            run = seeded_run(doc, rng, MONITOR_EVENTS, 3, Fraction(2))
            ops = belief_ops(doc, run, rng, [Fraction(1, 2), Fraction(2)], Fraction(5, 2))
            streams.append(_stream(i, run, ops, True))
    return {"models": models, "streams": streams}


# Silent gaps of the long_gap streams: a short one before the observation,
# a long one after it, so that every stream waits about as long in total.
# A "no" from t_reachable explores every run up to its duration, at a cost
# quadratic in it, so only the shorter gaps are asked as "no" questions.
GAP_LADDER = [20, 25, 30, 35, 40, 50, 60, 70, 80, 100]
NO_REACH_MAX = 40
RING_SIZES = (5, 8)
YES_PER_GAP = 4
# The streams of each ring that the watch phase replays.
CLI_GAPS = {(20, 100), (40, 50)}


def long_gap(seed: int, zw) -> dict:
    rng = random.Random(f"long_gap/{seed}")
    # d opens later than any duration asked, so every reach to d from a
    # state other than s0 is a "no", and every reach along the ring a "yes".
    gate = max(GAP_LADDER) + 30 + rng.randint(0, 10)
    half = len(GAP_LADDER) // 2
    pairs = list(zip(GAP_LADDER[:half], reversed(GAP_LADDER[half:])))
    models, streams = [], []
    for i, size in enumerate(RING_SIZES):
        doc = ring_doc(size, gate)
        models.append(doc)
        # Every ordered pair of ring states (s0 aside), in seeded order, is
        # used in turn, so the mix of reach questions is the same per seed.
        ring_pairs = [(a, b) for a in range(1, size) for b in range(1, size) if a != b]
        rng.shuffle(ring_pairs)
        turn = itertools.cycle(ring_pairs)
        for observed, final in rng.sample(pairs, len(pairs)):
            run = ring_run(doc, rng, [observed])
            last = run[-1]
            ops = [{
                "kind": "estimate",
                "events": [[e, t(w)] for e, w, _, _ in run if e in ("a", "b")],
                "time": t(last[1] + final),
                "truth": [last[2], t(last[3] + final)],
            }]
            for duration in (observed, final):
                asks = [next(turn) for _ in range(YES_PER_GAP)]
                if duration <= NO_REACH_MAX:
                    asks.append((asks[0][0], "d"))
                for src, target in asks:
                    src = f"s{src}"
                    target = target if target == "d" else f"s{target}"
                    ops.append({
                        "kind": "reach",
                        "source": src,
                        "target": target,
                        "duration": t(duration),
                        "expect": duration >= min_duration(doc, src, target),
                    })
            streams.append(_stream(i, run, ops, (observed, final) in CLI_GAPS))
    return {"models": models, "streams": streams}


def wide_constants(seed: int, zw) -> dict:
    rng = random.Random(f"wide_constants/{seed}")
    doc = wide_doc(rng)
    # One long stream: every watch session rebuilds the zone automaton.
    run = seeded_run(doc, rng, 120, 2, Fraction(2))
    ops = belief_ops(doc, run, rng, [Fraction(1, 2), Fraction(3)], Fraction(3))
    return {"models": [doc], "streams": [_stream(0, run, ops, True)]}


def observer(seed: int, zw) -> dict:
    rng = random.Random(f"observer/{seed}")
    random_doc = live_random_model(
        zw, 5000, 12, max_silent=2, max_wait=Fraction(2), closure_max=4,
        state_count=6, max_constant=3, transition_density=1 / 6,
    )
    models = [FIG1, random_doc]
    h = OBSERVER_HORIZON
    # Elapsed times after the last observation: two inside the horizon and
    # five beyond it, which the session answers online.  Beyond the horizon
    # the random model is far the costliest, and its share of the ops (about
    # 18%) keeps p90 inside that group rather than on its edge.
    inside = [Fraction(1, 2), Fraction(h)]
    beyond = [Fraction(2 * h + 1, 2), Fraction(h + 1), Fraction(h + 2), Fraction(2 * h), Fraction(2 * h + 1)]
    streams = []
    for i, doc in enumerate(models):
        for _ in range(OBSERVER_STREAMS):
            run = seeded_run(doc, rng, 4, 2, Fraction(2))
            ops = belief_ops(doc, run, rng, inside + beyond, Fraction(5, 2))
            streams.append(_stream(i, run, ops, True))
    return {"models": models, "streams": streams}


BUILDERS = {
    "monitor": monitor,
    "long_gap": long_gap,
    "wide_constants": wide_constants,
    "observer": observer,
}


def build(name: str, seed: int, zw) -> dict:
    doc = BUILDERS[name](seed, zw)
    doc["workload"] = name
    doc["seed"] = seed
    return doc
