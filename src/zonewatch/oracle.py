"""Brute-force oracle: timed-run enumeration on a discrete grid.

Everything here works straight from the run semantics of the model, with no
zone machinery, so it can differentially test the estimator.  Event times and
reset values are confined to a grid whose step divides 1; with integer model
constants the grid hits a representative of every unit cell the abstraction
can distinguish.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Optional

from .intervals import Interval, format_time, subset
from .model import (
    TFA,
    TimedObservation,
    TimedRun,
    RunStep,
    Transition,
    ID_RESET,
    model_to_dict,
    project,
    require_valid,
)
from .zones import ExtendedState, build_zone_automaton, ext_json, ext_sort_key
from .estimation import Estimate, InvariantError, estimate


@dataclass(frozen=True)
class GridConfig:
    horizon: Fraction
    step: Fraction = Fraction(1, 2)
    max_events: int = 6

    def __post_init__(self) -> None:
        if self.step <= 0 or (1 / self.step).denominator != 1:
            raise ValueError("grid step must divide 1")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if self.ticks(self.horizon) is None:
            raise ValueError("horizon must be a grid multiple")

    def ticks(self, value: Fraction) -> Optional[int]:
        q = Fraction(value) / self.step
        return q.numerator if q.denominator == 1 else None

    def value(self, ticks: int) -> Fraction:
        return ticks * self.step


def _on_grid(grid: GridConfig, value: Fraction) -> int:
    """The ticks of a value that must lie on the grid (an integer, the
    horizon, or a time the oracle placed itself)."""
    ticks = grid.ticks(value)
    if ticks is None:
        raise InvariantError(f"{format_time(value)} is off the grid")
    return ticks


def _grid_points_in(interval: Interval, grid: GridConfig) -> list[int]:
    """Grid ticks falling inside a bounded interval."""
    lo_t = _on_grid(grid, Fraction(interval.lo))
    hi_t = _on_grid(grid, Fraction(interval.hi))
    out = []
    for t in range(lo_t, hi_t + 1):
        if grid.value(t) in interval:
            out.append(t)
    return out


def enumerate_runs(model: TFA, grid: GridConfig) -> Iterator[TimedRun]:
    """All legal runs whose event times and reset values lie on the grid,
    from the initial states at clock 0 and time 0, bounded by the horizon and
    event budget.  Cycles that return to an already-visited (state, clock,
    time) configuration on the same path are cut.
    """
    require_valid(model)
    horizon_t = _on_grid(grid, grid.horizon)

    def rec(
        state: str,
        clock_t: int,
        time_t: int,
        steps: tuple[RunStep, ...],
        on_path: set,
    ) -> Iterator[TimedRun]:
        yield TimedRun(
            start_state=start,
            start_clock=Fraction(0),
            start_time=Fraction(0),
            steps=steps,
        )
        if len(steps) >= grid.max_events:
            return
        for fire_t in range(time_t, horizon_t + 1):
            for tr in sorted(model.outgoing(state), key=lambda t: (t.event, t.target)):
                aged_t = clock_t + (fire_t - time_t)
                if grid.value(aged_t) not in tr.guard:
                    continue
                if tr.resets_clock:
                    next_clocks = _grid_points_in(tr.reset, grid)
                else:
                    next_clocks = [aged_t]
                for nc in next_clocks:
                    key = (tr.target, nc, fire_t)
                    if key in on_path:
                        continue
                    step = RunStep(tr.event, grid.value(fire_t), tr.target, grid.value(nc))
                    on_path.add(key)
                    yield from rec(tr.target, nc, fire_t, steps + (step,), on_path)
                    on_path.remove(key)

    for start in sorted(model.initial):
        yield from rec(start, 0, 0, (), {(start, 0, 0)})


def brute_consistent_states(
    model: TFA, grid: GridConfig, obs: TimedObservation
) -> frozenset[str]:
    """The states consistent with an observation, by exhaustive search
    (``brute_final_clocks``)."""
    return frozenset(state for state, _ in brute_final_clocks(model, grid, obs))


def brute_final_clocks(
    model: TFA, grid: GridConfig, obs: TimedObservation
) -> frozenset[tuple[str, Fraction]]:
    """The (state, clock at the query time) pairs consistent with an
    observation, by exhaustive search.

    Explores every reachable (state, clock, time, observations consumed)
    configuration.  Observable events must match the next observation pair
    exactly; unobservable events may fire at any grid time up to the query
    time.  A configuration that has consumed the whole observation can always
    dwell silently to the query time, so its state is consistent, with its
    clock risen by the dwell.
    """
    require_valid(model)
    for name, ts in obs.events:
        if name not in model.observable:
            raise ValueError(f"event {name!r} is not observable")
        if grid.ticks(ts) is None:
            raise ValueError(f"observation time {format_time(ts)} is off the grid")
    query_t = grid.ticks(obs.query_time)
    if query_t is None:
        raise ValueError("query time is off the grid")
    n = len(obs.events)

    start_configs = {(x, 0, 0, 0) for x in model.initial}
    seen = set(start_configs)
    frontier = list(start_configs)
    consistent: set[tuple[str, Fraction]] = set()
    while frontier:
        state, clock_t, time_t, k = frontier.pop()
        if k == n:
            consistent.add((state, grid.value(clock_t + query_t - time_t)))
        for fire_t in range(time_t, query_t + 1):
            for tr in model.outgoing(state):
                if tr.event in model.observable:
                    if k >= n:
                        continue
                    want_event, want_time = obs.events[k]
                    if tr.event != want_event or grid.ticks(want_time) != fire_t:
                        continue
                    k2 = k + 1
                else:
                    k2 = k
                aged_t = clock_t + (fire_t - time_t)
                if grid.value(aged_t) not in tr.guard:
                    continue
                next_clocks = (
                    _grid_points_in(tr.reset, grid) if tr.resets_clock else [aged_t]
                )
                for nc in next_clocks:
                    cfg = (tr.target, nc, fire_t, k2)
                    if cfg not in seen:
                        seen.add(cfg)
                        frontier.append(cfg)
    return frozenset(consistent)


# -- random models -------------------------------------------------------------


@dataclass(frozen=True)
class RandomModelConfig:
    state_count: int = 4
    event_count: int = 3
    max_constant: int = 3
    observable_fraction: float = 0.5
    transition_density: float = 0.12
    reset_id_probability: float = 0.35
    require_ro: bool = True
    rng_seed: int = 0


def random_model(config: RandomModelConfig) -> TFA:
    """Generate a well-formed model; with ``require_ro`` every observable
    transition resets the clock.  Raises ``ValueError`` when the model would
    have no state or no event."""
    if config.state_count < 1 or config.event_count < 1:
        raise ValueError(
            f"a random model needs at least one state and one event, "
            f"not {config.state_count} and {config.event_count}"
        )
    rng = random.Random(config.rng_seed)
    states = [f"x{i}" for i in range(config.state_count)]
    events = [chr(ord("a") + i) for i in range(config.event_count)]
    observable = frozenset(e for e in events if rng.random() < config.observable_fraction)
    transitions = []
    for src in states:
        for event in events:
            for tgt in states:
                if rng.random() >= config.transition_density:
                    continue
                g_lo = rng.randint(0, config.max_constant)
                g_hi = rng.randint(g_lo, config.max_constant)
                guard = Interval.closed(g_lo, g_hi)
                forced_reset = config.require_ro and event in observable
                if not forced_reset and rng.random() < config.reset_id_probability:
                    reset = ID_RESET
                else:
                    r_lo = rng.randint(0, config.max_constant)
                    r_hi = rng.randint(r_lo, config.max_constant)
                    reset = Interval.closed(r_lo, r_hi)
                transitions.append(Transition(src, event, tgt, guard, reset))
    model = TFA(
        states=frozenset(states),
        alphabet=frozenset(events),
        observable=observable,
        transitions=tuple(transitions),
        initial=frozenset({states[0]}),
    )
    require_valid(model, require_ro=config.require_ro)
    return model


def model_digest(model: TFA) -> str:
    doc = json.dumps(model_to_dict(model), sort_keys=True).encode()
    return hashlib.sha256(doc).hexdigest()[:12]


# -- differential testing -------------------------------------------------------


@dataclass
class DifferentialReport:
    entries: list = field(default_factory=list)
    runs_checked: int = 0
    soundness_violations: int = 0
    scale: Optional[int] = None

    @property
    def mismatches(self) -> int:
        return sum(1 for e in self.entries if e["verdict"] != "ok")

    @property
    def zone_mismatches(self) -> int:
        return sum(1 for e in self.entries if e.get("zones") == "mismatch")

    @property
    def scale_mismatches(self) -> int:
        return sum(1 for e in self.entries if e.get("scale") == "mismatch")

    @property
    def scale_errors(self) -> int:
        return sum(1 for e in self.entries if e.get("scale") == "error")

    @property
    def ok(self) -> bool:
        """No wrong answer.  A scaled estimate that ends in an error is a
        refusal, not a wrong answer: it counts in ``scale_errors`` only."""
        return (
            self.mismatches == 0
            and self.zone_mismatches == 0
            and self.soundness_violations == 0
            and self.scale_mismatches == 0
        )

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e, sort_keys=True) + "\n" for e in self.entries)

    def summary(self) -> dict:
        out = {
            "trials": len(self.entries),
            "mismatches": self.mismatches,
            "zone_mismatches": self.zone_mismatches,
            "runs_checked": self.runs_checked,
            "soundness_violations": self.soundness_violations,
        }
        if self.scale is not None:
            out.update(scale=self.scale, scale_mismatches=self.scale_mismatches, scale_errors=self.scale_errors)
        return out


def _obs_text(events) -> str:
    return ",".join(f"{e}@{format_time(t)}" for e, t in events)


def _sample_runs(model: TFA, grid: GridConfig, limit: int) -> list[TimedRun]:
    """A deterministic sample of legal runs, preferring distinct observations."""
    picked: list[TimedRun] = []
    spare: list[TimedRun] = []
    seen_words: set = set()
    for scanned, run in enumerate(enumerate_runs(model, grid)):
        word = project(run.word(), model)
        if word not in seen_words:
            seen_words.add(word)
            picked.append(run)
            if len(picked) >= limit:
                break
        elif len(spare) < limit:
            spare.append(run)
        if scanned >= 4000:
            break
    for run in spare:
        if len(picked) >= limit:
            break
        picked.append(run)
    return picked


def differential_check(
    config: RandomModelConfig,
    grid: GridConfig,
    trials: int,
    runs_per_model: int = 5,
    scale: Optional[int] = None,
) -> DifferentialReport:
    """Compare the estimator against the brute-force oracle on random models.

    Per trial: draw a model, derive an observation from a sampled legal run,
    and require the estimator's discrete set to equal the oracle's exactly
    (``verdict``).  The same grid search's final (state, clock) pairs,
    mapped to their zones, must also equal the estimator's extended states
    exactly (``zones``), counted apart as ``zone_mismatches``: a wrong zone
    whose state is right shows only there.  Every sampled run is also
    replayed against the estimator (its end state must always be estimated
    at later grid times: a soundness check with zero tolerance).  Discrete
    mismatches are minimized by truncating the observation.  With ``scale``
    set to ``k``, each trial's observation is also checked against the
    scaling relation (``scale_check``), with no grid: ``scale`` is "ok",
    "mismatch" (counted in ``scale_mismatches``) or "error" (the scaled
    estimate raised; counted in ``scale_errors``).
    """
    report = DifferentialReport(scale=scale)
    for trial in range(trials):
        seed = config.rng_seed + trial
        model = random_model(replace(config, rng_seed=seed))
        za = build_zone_automaton(model)
        rng = random.Random(seed * 2 + 1)
        runs = _sample_runs(model, grid, runs_per_model)

        # Soundness: the true end state is always contained in the estimate.
        horizon_t = _on_grid(grid, grid.horizon)
        for run in runs:
            word = project(run.word(), model)
            end_t = _on_grid(grid, run.end_time)
            query_ticks = sorted({end_t, horizon_t, rng.randint(end_t, horizon_t)})
            for qt in query_ticks:
                obs = TimedObservation(events=word, query_time=grid.value(qt))
                est = estimate(za, model, obs)
                report.runs_checked += 1
                if run.end_state not in est.discrete:
                    report.soundness_violations += 1
                    report.entries.append(
                        {
                            "seed": seed,
                            "model_digest": model_digest(model),
                            "obs": _obs_text(word),
                            "time": format_time(grid.value(qt)),
                            "estimator": sorted(est.discrete),
                            "oracle": [run.end_state],
                            "verdict": "soundness-violation",
                        }
                    )

        # Equality on one observation derived from a sampled run.
        run = rng.choice(runs) if runs else None
        if run is None:
            continue
        word = project(run.word(), model)
        end_t = _on_grid(grid, run.end_time)
        qt = rng.randint(end_t, horizon_t)
        obs = TimedObservation(events=word, query_time=grid.value(qt))
        got = estimate(za, model, obs)
        est = got.discrete
        # One grid search gives both the states and, mapped to their zones,
        # the extended states.
        finals = brute_final_clocks(model, grid, obs)
        oracle = frozenset(state for state, _ in finals)
        zones = frozenset(ExtendedState(x, za.zone_of(x, c)) for x, c in finals)
        entry = {
            "seed": seed,
            "model_digest": model_digest(model),
            "obs": _obs_text(word),
            "time": format_time(obs.query_time),
            "estimator": sorted(est),
            "oracle": sorted(oracle),
            "verdict": "ok" if est == oracle else "mismatch",
            "zones": "ok" if got.extended == zones else "mismatch",
        }
        if got.extended != zones:
            entry["zones_estimator"] = ext_json(got.extended)
            entry["zones_oracle"] = ext_json(zones)
        if est != oracle:
            entry["minimized"] = _minimize(model, za, grid, obs)
        if scale is not None:
            try:
                entry["scale"] = "ok" if scale_check(model, obs, got, scale) else "mismatch"
            except ValueError as exc:
                entry["scale"], entry["scale_error"] = "error", str(exc)
        report.entries.append(entry)
    report.entries.sort(key=lambda e: (e["seed"], e.get("time", ""), e["obs"]))
    return report


# -- the scaling relation -------------------------------------------------------


def _times(r: Interval, k: int) -> Interval:
    return Interval(r.lo * k, r.lo_closed, r.hi * k, r.hi_closed)


def scale_model(model: TFA, k: int) -> TFA:
    """``model`` with every guard and reset endpoint multiplied by ``k``.
    Multiplying every time by ``k`` as well maps the runs of ``model`` onto
    the runs of the scaled model, one to one."""
    transitions = tuple(
        t._replace(guard=_times(t.guard, k), reset=t.reset if t.reset == ID_RESET else _times(t.reset, k))
        for t in model.transitions
    )
    return replace(model, transitions=transitions)


def clock_sets(extended) -> dict:
    """Each state's clock set, the union of its zones in ``extended``, as
    its maximal intervals in increasing order."""
    sets: dict = {}
    for state, zone in sorted(extended, key=ext_sort_key):
        spans = sets.setdefault(state, [])
        last = spans[-1] if spans else None
        if last is not None and last.hi == zone.lo and (last.hi_closed or zone.lo_closed):
            spans[-1] = Interval(last.lo, last.lo_closed, zone.hi, zone.hi_closed)
        else:
            spans.append(zone)
    return sets


def scale_check(model: TFA, obs: TimedObservation, base: Estimate, k: int) -> bool:
    """Whether the estimate of ``model`` scaled by ``k``, under ``obs`` with
    every time multiplied by ``k``, keeps the discrete states of ``base``
    (the estimate of ``model`` under ``obs``) and scales its clock sets.

    Runs map onto runs, so each state's set of reachable clocks scales by
    ``k``.  With no clock-preserving transition the zones scale with it,
    and each state's clock set must be exactly ``k`` times the base one.
    Under an ``id`` guard the scaled model has ``k`` times finer unit
    zones, which may refine the answer, so its clock sets must only lie
    inside ``k`` times the base ones.  Raises ``ValueError`` when the
    scaled model is refused or its estimate raises."""
    scaled = scale_model(model, k)
    events = tuple((e, t * k) for e, t in obs.events)
    got = estimate(build_zone_automaton(scaled), scaled, TimedObservation(events, obs.query_time * k))
    if got.discrete != base.discrete:
        return False
    want = {x: [_times(r, k) for r in spans] for x, spans in clock_sets(base.extended).items()}
    have = clock_sets(got.extended)
    if all(t.reset != ID_RESET for t in model.transitions):
        return have == want
    return all(any(subset(r, w) for w in want[x]) for x, spans in have.items() for r in spans)


def _minimize(model: TFA, za, grid: GridConfig, obs: TimedObservation) -> dict:
    """Shrink a failing observation: drop trailing events, then pull the query
    time earlier, keeping the mismatch alive."""
    def mismatch(cand: TimedObservation) -> bool:
        est = frozenset(estimate(za, model, cand).discrete)
        return est != brute_consistent_states(model, grid, cand)

    current = obs
    while current.events:
        shorter = TimedObservation(current.events[:-1], current.query_time)
        if mismatch(shorter):
            current = shorter
        else:
            break
    floor = current.events[-1][1] if current.events else Fraction(0)
    qt = current.query_time
    while qt - grid.step >= floor:
        cand = TimedObservation(current.events, qt - grid.step)
        if mismatch(cand):
            qt = qt - grid.step
            current = cand
        else:
            break
    est = frozenset(estimate(za, model, current).discrete)
    return {
        "obs": _obs_text(current.events),
        "time": format_time(current.query_time),
        "estimator": sorted(est),
        "oracle": sorted(brute_consistent_states(model, grid, current)),
    }
