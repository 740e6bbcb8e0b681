"""Seeded input generators for the zonewatch benchmark.

Everything here is plain Python over JSON-able documents: model documents in
zonewatch's JSON form, legal timed runs found by a randomized search of our
own, and the op lists replayed against zonewatch.  The only zonewatch calls
are ``random_model``/``model_to_dict``, which produce candidate models.  The
same seed gives byte-identical documents (see ``digest``).

Times are exact rationals on the 1/2 grid, written as ``str(Fraction)``, so
that the grid oracle can check a sample of the answers.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from fractions import Fraction
from typing import Optional

HALF = Fraction(1, 2)
SEARCH_BUDGET = 20000

# The five-state reference model of the paper (also models/fig1.json).
FIG1 = {
    "states": ["x0", "x1", "x2", "x3", "x4"],
    "alphabet": ["a", "b", "c"],
    "observable": ["a"],
    "initial": ["x0"],
    "transitions": [
        {"from": "x0", "event": "b", "to": "x2", "guard": "[0,1]", "reset": "id"},
        {"from": "x0", "event": "c", "to": "x1", "guard": "[1,3]", "reset": "[1,1]"},
        {"from": "x1", "event": "a", "to": "x4", "guard": "[1,3]", "reset": "[0,1]"},
        {"from": "x2", "event": "c", "to": "x3", "guard": "[1,2]", "reset": "id"},
        {"from": "x3", "event": "a", "to": "x2", "guard": "[0,2]", "reset": "[0,0]"},
        {"from": "x4", "event": "b", "to": "x3", "guard": "[0,1]", "reset": "[0,0]"},
    ],
}


def digest(doc) -> str:
    """SHA-256 of the canonical JSON form of an input document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def t(x: Fraction) -> str:
    return str(Fraction(x))


def _closed(text: str) -> tuple[int, int]:
    lo, hi = text.strip("[]").split(",")
    return int(lo), int(hi)


class Sim:
    """A model document indexed for simulation (closed integer guards/resets)."""

    def __init__(self, doc: dict):
        self.observable = frozenset(doc["observable"])
        self.out: dict[str, list] = {x: [] for x in doc["states"]}
        for tr in sorted(doc["transitions"], key=lambda d: (d["from"], d["event"], d["to"])):
            reset = None if tr["reset"] == "id" else _closed(tr["reset"])
            self.out[tr["from"]].append((tr["event"], tr["to"], _closed(tr["guard"]), reset))

    def options(self, state: str, clock: Fraction, max_wait: Fraction, silent_ok: bool):
        """Every (event, target, firing clock, clock after) on the 1/2 grid
        reachable by waiting at most ``max_wait``."""
        out = []
        for event, target, (g_lo, g_hi), reset in self.out[state]:
            if not silent_ok and event not in self.observable:
                continue
            lo = max(Fraction(g_lo), clock)
            hi = min(Fraction(g_hi), clock + max_wait)
            fire = lo  # the clock, and with it lo, stays on the 1/2 grid
            while fire <= hi:
                if reset is None:
                    out.append((event, target, fire, fire))
                else:
                    for k in range(2 * reset[0], 2 * reset[1] + 1):
                        out.append((event, target, fire, Fraction(k, 2)))
                fire += HALF
        return out


def simulate(doc: dict, rng: random.Random, observations: int, max_silent: int, max_wait: Fraction) -> Optional[list]:
    """A random legal run from the initial state with ``observations``
    observable events and at most ``max_silent`` silent steps between two of
    them, found by randomized depth-first search with backtracking.  Returns
    steps ``[event, time, state, clock]``, or ``None`` after SEARCH_BUDGET
    search nodes."""
    sim = Sim(doc)
    start = sorted(doc["initial"])[0]
    steps: list = []
    visits = 0

    def extend(state, clock, now, seen_obs, silent) -> bool:
        nonlocal visits
        if seen_obs == observations:
            return True
        visits += 1
        if visits > SEARCH_BUDGET:
            return False
        opts = sim.options(state, clock, max_wait, silent < max_silent)
        rng.shuffle(opts)
        for event, target, fire, after in opts[:6]:
            when = now + (fire - clock)
            steps.append([event, when, target, after])
            observed = event in sim.observable
            if extend(target, after, when, seen_obs + observed, 0 if observed else silent + 1):
                return True
            steps.pop()
            if visits > SEARCH_BUDGET:
                return False
        return False

    if not extend(start, Fraction(0), Fraction(0), 0, 0):
        return None
    return steps


def belief_ops(doc: dict, run: list, rng: random.Random, tail: list[Fraction], max_offset: Fraction) -> list:
    """One ``advance`` per observable step of ``run``, each followed by a
    ``query`` before the next observation; the stream ends with ``query`` ops
    at the given elapsed times after the last observation.  Every op carries
    the run's true state and clock at its time."""
    observable = frozenset(doc["observable"])
    obs_at = [i for i, s in enumerate(run) if s[0] in observable]
    ops = []
    for k, i in enumerate(obs_at):
        event, when, state, clock = run[i]
        ops.append({"kind": "advance", "event": event, "time": t(when), "truth": [state, t(clock)]})
        nxt = obs_at[k + 1] if k + 1 < len(obs_at) else None
        if nxt is None:
            offsets = tail
        else:
            # Strictly before the next observation, or at it when both
            # observations share a time stamp.
            top = max(Fraction(0), min(run[nxt][1] - when - HALF, max_offset))
            offsets = [Fraction(rng.randint(0, int(top * 2)), 2)]
        for off in offsets:
            q = when + off
            # The true state at q: the last step before the next observation
            # that happened no later than q.
            j = i
            for m in range(i + 1, nxt if nxt is not None else len(run)):
                if run[m][1] <= q:
                    j = m
            s_state, s_clock = run[j][2], run[j][3] + (q - run[j][1])
            ops.append({"kind": "query", "time": t(q), "truth": [s_state, t(s_clock)]})
    return ops


def run_doc(run: list) -> list:
    """A run with its times written as text."""
    return [[e, t(w), s, t(c)] for e, w, s, c in run]


# -- live random models ----------------------------------------------------------


def silent_closure(doc: dict) -> float:
    """Mean number of states reachable through unobservable transitions alone,
    ignoring time: a structural proxy for how far one observation spreads."""
    observable = set(doc["observable"])
    succ: dict[str, set] = {x: set() for x in doc["states"]}
    for tr in doc["transitions"]:
        if tr["event"] not in observable:
            succ[tr["from"]].add(tr["to"])
    total = 0
    for x in doc["states"]:
        seen, stack = {x}, [x]
        while stack:
            for y in succ[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        total += len(seen)
    return total / len(doc["states"])


def live_random_model(
    zw, first_seed: int, observations: int, max_silent: int, max_wait: Fraction, closure_max: float, **config
) -> dict:
    """The first ``random_model`` from ``first_seed`` on whose observable
    alphabet is a proper non-empty subset, whose silent closure lies in
    ``[1.5, closure_max]``, and which has a legal run with ``observations``
    observable events.

    The scan uses a fixed probe generator, so the model does not depend on the
    workload seed: op cost differs by three orders of magnitude between random
    models, and a seed-dependent pick would swamp every timing.
    """
    seed = first_seed
    while True:
        model = zw.random_model(zw.RandomModelConfig(rng_seed=seed, **config))
        doc = zw.model_to_dict(model)
        n_obs = len(doc["observable"])
        if 0 < n_obs < len(doc["alphabet"]) and 1.5 <= silent_closure(doc) <= closure_max:
            if simulate(doc, random.Random(seed), observations, max_silent, max_wait) is not None:
                return doc
        seed += 1


def seeded_run(doc: dict, rng: random.Random, observations: int, max_silent: int, max_wait: Fraction) -> list:
    """A legal run drawn from ``rng``; retries with fresh draws (deterministic
    rejection) when the randomized search runs out of budget."""
    for _ in range(50):
        run = simulate(doc, random.Random(rng.getrandbits(64)), observations, max_silent, max_wait)
        if run is not None:
            return run
    raise RuntimeError("no legal run found; the model should have been rejected")


# -- the ring family ---------------------------------------------------------------


def ring_doc(size: int, gate: int) -> dict:
    """A silent ring ``s0 -> s1 -> ... -> s0`` of ``u`` steps, alternately
    fast (guard ``[0,1]``) and slow (``[1,2]``); observable ``a`` at ``s0``
    and ``b`` at the opposite state.  A silent ``v`` leaves ``s0`` for the
    state ``d`` only once the clock has reached ``gate``.  Every transition
    resets the clock to 0.

    The ring's shape is not seeded: the cost of a long silent search depends
    on it by an order of magnitude."""
    states = [f"s{i}" for i in range(size)]
    half = size // 2

    def tr(src, event, dst, lo, hi):
        return {"from": src, "event": event, "to": dst, "guard": f"[{lo},{hi}]", "reset": "[0,0]"}

    transitions = [tr(states[i], "u", states[(i + 1) % size], i % 2, i % 2 + 1) for i in range(size)]
    transitions.append(tr("s0", "a", "s1", 0, 1))
    transitions.append(tr(states[half], "b", states[half + 1], 0, 1))
    transitions.append(tr("s0", "v", "d", gate, gate + 1))
    transitions.append(tr("d", "w", "s1", 0, 1))
    return {
        "states": states + ["d"],
        "alphabet": ["a", "b", "u", "v", "w"],
        "observable": ["a", "b"],
        "initial": ["s0"],
        "transitions": transitions,
    }


def min_duration(doc: dict, source: str, target: str) -> int:
    """Shortest time from ``source`` (any starting clock) to ``target`` in a
    model whose transitions all reset the clock to 0: the first transition
    can fire at once, each later one after waiting its guard's lower bound.
    With no invariants the target can then be held, so a duration ``D`` is
    realizable exactly when ``D >= min_duration``."""
    if source == target:
        return 0
    out: dict[str, list] = {}
    for tr in doc["transitions"]:
        out.setdefault(tr["from"], []).append((tr["to"], _closed(tr["guard"])[0]))
    best = {source: 0}
    heap = [(0, True, source)]
    while heap:
        dist, first, x = heapq.heappop(heap)
        if x == target:
            return dist
        if dist > best.get(x, dist):
            continue
        for y, wait in out.get(x, ()):
            d = dist + (0 if first else wait)
            if d < best.get(y, d + 1):
                best[y] = d
                heapq.heappush(heap, (d, False, y))
    return 10**9


def ring_run(doc: dict, rng: random.Random, gaps: list[int]) -> list:
    """A legal run of a ring model that cycles silently and fires the next
    observable event at the first chance after each gap has elapsed."""
    sim = Sim(doc)
    state, clock, now, last_obs = "s0", Fraction(0), Fraction(0), Fraction(0)
    steps: list = []
    pending = list(gaps)
    while pending:
        moves = sim.out[state]
        observed = [m for m in moves if m[0] in sim.observable]
        if observed and now - last_obs >= pending[0]:
            event, target, (g_lo, _), _ = observed[0]
            fire = max(clock, Fraction(g_lo))
            pending.pop(0)
        else:
            event, target, (g_lo, g_hi), _ = next(m for m in moves if m[0] == "u")
            fire = Fraction(rng.randint(2 * g_lo, 2 * g_hi), 2)
        now += fire - clock
        clock = Fraction(0)
        steps.append([event, now, target, clock])
        state = target
        if event in sim.observable:
            last_obs = now
    return steps


# -- the wide-constant family ------------------------------------------------------


def wide_doc(rng: random.Random) -> dict:
    """Three states whose guards and resets reach about 10^4, so zone
    construction sweeps ~2*10^4 unit regions, yet the zone automaton stays a
    handful of extended states and ops at small elapsed times are cheap."""
    m1, m2, m3 = (10000 + rng.randint(-200, 200) for _ in range(3))

    def tr(src, event, dst, guard, reset):
        return {"from": src, "event": event, "to": dst, "guard": guard, "reset": reset}

    return {
        "states": ["w0", "w1", "w2"],
        "alphabet": ["a", "b", "u"],
        "observable": ["a", "b"],
        "initial": ["w0"],
        "transitions": [
            tr("w0", "a", "w1", f"[0,{m1}]", "[0,2]"),
            tr("w1", "u", "w2", "[1,3]", "id"),
            tr("w1", "b", "w0", f"[0,{m2}]", "[0,1]"),
            tr("w2", "b", "w0", f"[2,{m3}]", f"[{m1 - 1},{m1}]"),
            tr("w2", "a", "w1", "[0,5]", "[0,0]"),
            tr("w0", "u", "w0", f"[{m1 - 2},{m1}]", "[0,1]"),
        ],
    }
