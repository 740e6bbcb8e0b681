"""zonewatch benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; zonewatch is imported from ``src/``.
The run generates its inputs from the seed, sets up (load, validate, build the
zone automaton, and the offline observer on ``observer``) several times, and
replays the workload's ops for ``--seconds``; between rounds of op replays
it pipes the same streams, or some of them, through ``zonewatch watch``.
Every answer is checked (see ``checks.py``; ``README.md`` describes the
workloads and metrics).  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans and full result under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
# A run makes one round of watch replays per round of op replays after the
# first, and at least CLI_MIN_REPLAYS.
CLI_MIN_REPLAYS = 2
# Slow stretches of one CPU last from a fraction of a second to minutes.
REPIN_S = 0.15
# A probe within this factor of the run's quickest counts as a quick CPU;
# a slow one runs the probe 1.5x to 1.7x slower.
QUICK = 1.15
# The probe's p10 over a run, in seconds, on the host where the bounds were
# set (2 vCPUs of a shared VM, Python 3.11).  End-to-end timings are reported
# at this host speed; see ``host_factor``.
REF_PROBE_S = 0.0024

LAYER_UNITS = {
    **{f"{name}_s": "s" for name in tracing.FUNCTIONS},
    **{f"{name}_s": "s" for name in tracing.METHODS},
    **{f"share.{layer}": "ratio" for layer in tracing.LAYERS},
    "model.validate_calls": "count",
    "estimation.advance_calls": "count",
    "estimation.query_calls": "count",
    "zones.extended_states": "count",
    "zones.edges": "count",
    "estimation.reach_yes_ratio": "ratio",
    "estimation.witness_steps_mean": "count",
    "estimation.support_size_mean": "count",
    "estimation.result_size_mean": "count",
    "observer.supports": "count",
    "observer.cells": "count",
    "observer.table_hit_ratio": "ratio",
    "cli.watch_s": "s",
    "checks.s": "s",
    "trace.ops_per_s_untraced": "ops/s",
    "trace.ops_per_s_traced": "ops/s",
    "trace.overhead_ratio": "ratio",
}

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "cli_ops_per_s": "ops/s",
}


def import_zonewatch():
    src = ROOT / "src"
    if not (src / "zonewatch" / "__init__.py").is_file():
        sys.exit(f"error: no zonewatch sources under {src}")
    sys.path.insert(0, str(src))
    import zonewatch

    if Path(zonewatch.__file__).resolve().parent != (src / "zonewatch").resolve():
        sys.exit(f"error: imported zonewatch from {zonewatch.__file__}, not {src}")
    return zonewatch


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _probe(iterations: int) -> float:
    """Time a fixed slice of interpreter work (rationals, tuples, sets, dicts).
    The collector is off, so that the size of the heap zonewatch has built
    does not enter the time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        acc = Fraction(0)
        for i in range(iterations):
            acc += Fraction(i % 13, 3)
            seen[(i % 97, frozenset((i % 5, i % 11)))] = acc
        return time.perf_counter() - t0
    finally:
        gc.enable()


def host_factor(probes: list[float]) -> float:
    """How much slower than the reference host this run's quick moments were:
    the p10 of the run's probe times over REF_PROBE_S.  Each op's latency is
    its quickest reading, taken in the run's quick moments, and so it follows
    the probe's p10 more closely than its minimum or median (README.md,
    "Timing on a shared host")."""
    return statistics.quantiles(probes, n=10)[0] / REF_PROBE_S


def pin_to_fastest_cpu(pids=(0,), rounds: int = 1, iterations: int = 1000) -> tuple[int, float]:
    """Pin the processes ``pids`` (0 is this one) to the allowed CPU that runs
    a fixed probe fastest; returns the CPU and its probe time.  On a small
    shared VM each virtual CPU is slowed by neighbours, by up to 1.7x, for
    stretches of a fraction of a second to minutes, and the two CPUs are
    often not slow at once.  The run re-pins before every round, set-up
    repeat and watch replay, and every REPIN_S seconds within them (see
    ``Pinner``), so that more of its readings come from a quick CPU."""
    cpus = ALLOWED_CPUS
    best: dict[int, float] = {}
    for _ in range(rounds):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(best.get(cpu, float("inf")), _probe(iterations))
    chosen = min(cpus, key=best.__getitem__)
    for pid in pids:
        os.sched_setaffinity(pid, {chosen})
    return chosen, best[chosen]


class Pinner:
    """Re-pins this process, and the watch process once it runs, to the
    quicker CPU when REPIN_S seconds have passed since the last pin.  Called
    between timed calls only.  ``level`` is the chosen CPU's probe time at
    the last pin; ``probes`` keeps every level of the run."""

    def __init__(self):
        self.pids = [0]
        self.last = float("-inf")
        self.level = float("inf")
        self.probes: list[float] = []

    def pin(self) -> None:
        self.level = pin_to_fastest_cpu(self.pids)[1]
        self.probes.append(self.level)
        self.last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= REPIN_S:
            self.pin()

    def quick(self) -> bool:
        """Whether the CPU runs within QUICK of the quickest probe so far."""
        return self.level <= QUICK * min(self.probes)


class FastFirst:
    """Picks the unit (a stream of ops, a watch session) to replay next.
    Only each op's quickest reading counts, so while the CPU is quick the turn
    goes to the unit whose quickest replay so far ran on the slowest CPU, and
    otherwise the units take turns.  A run that finds the host quick for a few
    seconds only then spends them where they are needed."""

    def __init__(self, units: int, pinner: Pinner):
        self.pinner = pinner
        self.best = [float("inf")] * units
        self.turn = 0

    def next(self) -> int:
        self.pinner.maybe()
        if self.pinner.quick():
            unit = max(range(len(self.best)), key=self.best.__getitem__)
        else:
            unit = self.turn
            self.turn = (self.turn + 1) % len(self.best)
        self.best[unit] = min(self.best[unit], self.pinner.level)
        return unit


# -- set-up and op replay ----------------------------------------------------


def setup(zw, doc: dict) -> list[dict]:
    """Model document to first op: load, validate, build the zone automaton
    (and the offline observer on ``observer``) for every model."""
    built = []
    for model_doc in doc["models"]:
        model = zw.model_from_dict(model_doc)
        diags = zw.validate(model, require_ro=True)
        if diags:
            raise ValueError("; ".join(map(str, diags)))
        za = zw.build_zone_automaton(model)
        obs = None
        if doc["workload"] == "observer":
            obs = zw.build_offline_observer(za, model, workloads.OBSERVER_HORIZON)
        built.append({"model": model, "za": za, "observer": obs})
    return built


class Replay:
    """The workload's ops, prepared so that a timed call does nothing but the
    zonewatch call itself.  Calls go through ``zw.<name>`` at call time so
    that the tracer's wrappers are seen."""

    def __init__(self, zw, doc: dict, built: list[dict]):
        self.zw = zw
        self.built = built
        self.on_observer = doc["workload"] == "observer"
        self.stream_models = [s["model"] for s in doc["streams"]]
        self.ops = []  # (kind, stream, args)
        self.docs = []  # (stream, op dict)
        # A unit is replayed as a whole: (stream, lo, hi) for self.ops[lo:hi].
        # Belief and session ops need the stream's ops before them; estimate
        # and reach ops stand alone, so each is a unit of its own.
        self.units = []
        for sid, stream in enumerate(doc["streams"]):
            lo, hi = len(self.ops), len(self.ops) + len(stream["ops"])
            if all(op["kind"] in ("estimate", "reach") for op in stream["ops"]):
                self.units.extend((sid, i, i + 1) for i in range(lo, hi))
            else:
                self.units.append((sid, lo, hi))
            for op in stream["ops"]:
                kind = op["kind"]
                if kind in ("advance", "query"):
                    args = (op.get("event"), Fraction(op["time"]))
                elif kind == "estimate":
                    events = tuple((e, Fraction(w)) for e, w in op["events"])
                    args = (zw.TimedObservation(events, Fraction(op["time"])),)
                else:
                    args = (op["source"], op["target"], Fraction(op["duration"]))
                self.ops.append((kind, sid, args))
                self.docs.append((sid, op))
        self.state: list = []

    def reset(self, sid: int) -> None:
        """Start stream ``sid`` again from the empty observation."""
        if not self.state:
            self.state = [None] * len(self.stream_models)
        b = self.built[self.stream_models[sid]]
        self.state[sid] = b["observer"].session() if self.on_observer else self.zw.belief_init(b["za"])

    def call(self, i: int):
        zw = self.zw
        kind, sid, args = self.ops[i]
        b = self.built[self.stream_models[sid]]
        if kind == "advance":
            if self.on_observer:
                self.state[sid].advance(*args)
                return self.state[sid].support
            self.state[sid] = zw.belief_advance(b["za"], b["model"], self.state[sid], *args)
            return self.state[sid].support
        if kind == "query":
            if self.on_observer:
                return self.state[sid].query(args[1]).extended
            return zw.belief_query(b["za"], b["model"], self.state[sid], args[1]).extended
        if kind == "estimate":
            return zw.estimate(b["za"], b["model"], *args).extended
        return zw.t_reachable(b["za"], b["model"], *args)


def comparable(answer):
    if isinstance(answer, tuple):
        ok, w = answer
        return (ok, w.run if w is not None else None)
    return answer


def op_phase(replay: Replay, budget: float, answers: list, failed: list, pinner: Pinner, tracer=None, between=None, tick=None) -> dict:
    """Replay the units until ``budget`` seconds have gone, at least one
    round; a round is as many unit replays as there are units.  Round 0
    replays every unit in order; with ``answers`` empty it fills it, and
    every later answer must equal it.  Later rounds pick units with
    ``FastFirst``, or, when traced, replay every unit in order so that each
    round is one pass.  ``between(seconds spent, rounds begun)`` runs before
    each round, and ``tick(seconds spent)`` before each unit of an untraced
    later round; the budget includes their time.  Returns each op's quickest
    latency, the number of readings and of rounds begun."""
    n = len(replay.ops)
    best = [float("inf")] * n
    readings = 0
    rounds = 0
    units = replay.units
    pick = FastFirst(len(units), pinner)
    clock = time.perf_counter
    start = clock()
    while rounds == 0 or clock() - start < budget:
        if between is not None:
            between(clock() - start, rounds)
        for k in range(len(units)):
            if tracer is None and rounds and clock() - start >= budget:
                break
            if rounds and tracer is None:
                if tick is not None:
                    tick(clock() - start)
                sid, lo, hi = units[pick.next()]
            else:
                pinner.maybe()
                sid, lo, hi = units[k]
            replay.reset(sid)
            for i in range(lo, hi):
                if tracer is not None:
                    tracer.tag = rounds * n + i
                    t0 = clock()
                    try:
                        ans = tracer.call("bench.op", replay.call, i)
                    except Exception as exc:  # a failing op is counted, not fatal
                        ans = exc
                else:
                    t0 = clock()
                    try:
                        ans = replay.call(i)
                    except Exception as exc:
                        ans = exc
                best[i] = min(best[i], clock() - t0)
                readings += 1
                if len(answers) < n:
                    answers.append(ans)
                elif isinstance(ans, Exception) or comparable(ans) != comparable(answers[i]):
                    failed.append(((tracer is not None, rounds, i), "answer differs from round 0"))
        rounds += 1
    return {"best": best, "readings": readings, "rounds": rounds}


def run_checks(zw, doc: dict, replay: Replay, answers: list) -> list[tuple]:
    """Check every round-0 answer; returns (op index, reason) per failure."""
    failures = []
    events_by_stream: dict[int, list] = {}
    last_query = {}
    oracle_ops = set()
    base = 0
    sampled: dict[int, int] = {}
    for sid, stream in enumerate(doc["streams"]):
        if sampled.get(stream["model"], 0) < checks.ORACLE_STREAMS:
            sampled[stream["model"]] = sampled.get(stream["model"], 0) + 1
            oracle_ops.update(base + j for j in checks.oracle_sample(stream["ops"]))
        for j, op in enumerate(stream["ops"]):
            if op["kind"] == "query":
                last_query[sid] = base + j
        base += len(stream["ops"])
    for i, ((sid, op), ans) in enumerate(zip(replay.docs, answers)):
        b = replay.built[replay.stream_models[sid]]
        events = events_by_stream.setdefault(sid, [])
        if op["kind"] == "advance":
            events.append((op["event"], Fraction(op["time"])))
        if isinstance(ans, Exception):
            failures.append((i, f"raised {type(ans).__name__}: {ans}"))
            continue
        ctx = {
            "za": b["za"],
            "model": b["model"],
            "workload": doc["workload"],
            "events": events if op["kind"] != "estimate" else [(e, Fraction(w)) for e, w in op["events"]],
            "last": last_query.get(sid) == i,
            "oracle": i in oracle_ops,
        }
        try:
            problems = checks.check_op(zw, ctx, op, ans)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        failures.extend((i, p) for p in problems)
    return failures


def answer_counts(replay: Replay, answers: list) -> dict:
    """Counts derived from the answers alone; identical in every run of one
    seed, traced or not."""
    supports, results, reach, yes, steps = [], [], 0, 0, []
    for (kind, _, _), ans in zip(replay.ops, answers):
        if isinstance(ans, Exception):
            continue
        if kind == "advance":
            supports.append(len(ans))
        elif kind == "reach":
            reach += 1
            if ans[0]:
                yes += 1
                steps.append(len(ans[1].steps))
        else:
            results.append(len(ans))
    built = replay.built
    observers = [b["observer"] for b in built if b["observer"] is not None]
    return {
        "ops_per_pass": len(replay.ops),
        "zones.extended_states": sum(len(b["za"].states) for b in built),
        "zones.edges": sum(len(b["za"].edges) for b in built),
        "estimation.reach_yes_ratio": yes / reach if reach else 0.0,
        "estimation.witness_steps_mean": statistics.fmean(steps) if steps else 0.0,
        "estimation.support_size_mean": statistics.fmean(supports) if supports else 0.0,
        "estimation.result_size_mean": statistics.fmean(results) if results else 0.0,
        "observer.supports": sum(len(o.tables) for o in observers),
        "observer.cells": sum(len(row) for o in observers for row in o.tables.values()),
    }


# -- zonewatch watch ---------------------------------------------------------


def watch_lines(doc: dict, replay: Replay, answers: list) -> list[tuple]:
    """One ``watch`` session per stream marked ``cli``: its lines and the
    replies the in-process answers imply.  ``reach`` ops have no ``watch``
    form and are left out."""
    per_stream: list[list] = [[] for _ in doc["streams"]]
    for (sid, op), ans in zip(replay.docs, answers):
        lines = per_stream[sid]
        if op["kind"] == "advance":
            lines.append((f"obs {op['event']} {op['time']}", "ok"))
        elif op["kind"] in ("query", "estimate"):
            if op["kind"] == "estimate":
                lines.extend((f"obs {e} {w}", "ok") for e, w in op["events"])
            reply = " ".join(sorted({v.state for v in ans})) if not isinstance(ans, Exception) else None
            lines.append((f"query {op['time']}", reply or "(empty)"))
    return [(stream["model"], lines) for stream, lines in zip(doc["streams"], per_stream) if stream["cli"]]


# One interpreter serves every session in turn: it reads a model path, then
# ``main(["watch", path])`` reads piped lines up to "quit".
WATCH_SERVER = "import sys\nfrom zonewatch.cli import main\nfor path in sys.stdin:\n    main(['watch', path.strip()])\n"


class Watch:
    """Replays sessions through ``zonewatch watch``, one line at a time.
    Interpreter start-up, model loading and each session's first reply are
    not timed.  ``best`` holds each line's quickest latency, session by
    session."""

    def __init__(self, doc: dict, work: Path, pinner: Pinner, tracer=None):
        self.paths = []
        for i, model_doc in enumerate(doc["models"]):
            path = work / f"model{i}.json"
            path.write_text(json.dumps(model_doc))
            self.paths.append(str(path))
        self.tracer = tracer
        self.pinner = pinner
        self.sessions: list = []
        self.best: list[list[float]] = []
        self.readings = 0
        self.pick = None
        self.mismatches = 0
        self.replays = 0
        self.proc = None

    def replay(self) -> None:
        """One round: as many session replays as there are sessions, every
        session in order in the first round, then picked by ``FastFirst``."""
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", WATCH_SERVER],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, bufsize=1, cwd=str(ROOT), env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            )
            self.pinner.pids.append(self.proc.pid)
            self.pinner.pin()
        if self.pick is None:
            self.pick = FastFirst(len(self.sessions), self.pinner)
            self.best = [[float("inf")] * len(lines) for _, lines in self.sessions]
        try:
            for k in range(len(self.sessions)):
                self.session(self.pick.next() if self.replays else k)
        except BrokenPipeError:
            self.mismatches += 1
        self.replays += 1

    def session(self, k: int) -> None:
        model, lines = self.sessions[k]
        best = self.best[k]
        stdin, stdout, clock = self.proc.stdin, self.proc.stdout, time.perf_counter
        stdin.write(f"{self.paths[model]}\nquery 0\n")
        stdin.flush()
        stdout.readline()
        for j, (line, want) in enumerate(lines):
            self.pinner.maybe()
            t0 = clock()
            stdin.write(line + "\n")
            stdin.flush()
            got = stdout.readline()
            t1 = clock()
            if self.tracer is not None:
                self.tracer.span("cli.watch", t0, t1)
            best[j] = min(best[j], t1 - t0)
            self.readings += 1
            if got.strip() != want:
                self.mismatches += 1
        stdin.write("quit\n")

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.mismatches += 1
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()


# -- metrics -----------------------------------------------------------------


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: tracing.Tracer, repeats: int, n_ops: int, passes: int, cli_replays: int) -> dict:
    spans = tracer.spans
    own = tracing.self_times(spans)
    in_setup = [s[4] < 0 and s[4] != tracing.CLI_TAG for s in spans]
    in_ops = [s[4] >= 0 for s in spans]
    first_round = [s[4] == tracing.setup_tag(0) or 0 <= s[4] < n_ops for s in spans]

    def self_s(name: str) -> float:
        setup_part = sum(own[i] for i, s in enumerate(spans) if s[0] == name and in_setup[i]) / repeats
        op_part = sum(own[i] for i, s in enumerate(spans) if s[0] == name and in_ops[i]) / passes
        return setup_part + op_part

    def calls(name: str) -> int:
        return sum(1 for i, s in enumerate(spans) if s[0] == name and first_round[i])

    out = {f"{name}_s": self_s(name) for name in [*tracing.FUNCTIONS, *tracing.METHODS]}
    out["model.validate_calls"] = calls("model.validate")
    out["estimation.advance_calls"] = calls("estimation.advance")
    out["estimation.query_calls"] = calls("estimation.query")
    session_ops = [i for i, s in enumerate(spans) if s[0] in ("observer.advance", "observer.query") and 0 <= s[4] < n_ops]
    fallback = tracing.has_descendant(spans, "estimation")
    hits = sum(1 for i in session_ops if i not in fallback)
    out["observer.table_hit_ratio"] = hits / len(session_ops) if session_ops else 0.0
    out["cli.watch_s"] = sum(s[2] - s[1] for s in spans if s[0] == "cli.watch") / cli_replays
    total = sum(s[2] - s[1] for s in spans if s[0] == "bench.op")
    for layer in tracing.LAYERS:
        mine = sum(own[i] for i, s in enumerate(spans) if in_ops[i] and s[0].startswith(layer + "."))
        out[f"share.{layer}"] = mine / total if total else 0.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set and dict order, and with it the search order and its cost,
        # follow the string hash; fix it so that a run's work is a function
        # of its inputs (the watch processes inherit it).
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))
    zw = import_zonewatch()
    cpu, probe_s = pin_to_fastest_cpu(rounds=3, iterations=4000)

    doc = workloads.build(args.workload, args.seed, zw)
    digest = inputs.digest(doc)
    for stream in doc["streams"]:
        model = zw.model_from_dict(doc["models"][stream["model"]])
        steps = tuple(zw.RunStep(e, Fraction(w), s, Fraction(c)) for e, w, s, c in stream["run"])
        run = zw.TimedRun(sorted(model.initial)[0], Fraction(0), Fraction(0), steps)
        if not zw.check_run(model, run):
            sys.exit("error: a generated run is not legal")

    tracer = tracing.Tracer() if args.trace else None
    repeats = workloads.SETUP_REPEATS[args.workload]
    setup_times: list[float] = []

    pinner = Pinner()
    pinner.pin()

    def timed_setup(progress: float):
        """Set-up repeat k is due once ``progress`` through the untraced op
        phase reaches k/repeats, so that the repeats spread over the run;
        until k+1/repeats it waits for a quick CPU."""
        k = len(setup_times)
        if k >= repeats or progress < k / repeats:
            return None
        pinner.maybe()
        if progress < (k + 1) / repeats and not pinner.quick():
            return None
        if tracer:
            tracer.install(zw)
            tracer.tag = tracing.setup_tag(len(setup_times))
        # A fresh process sets up with a small heap; collect first so that a
        # full collection of the benchmark's own objects does not land in a
        # repeat of a few milliseconds.
        gc.collect()
        t0 = time.perf_counter()
        out = setup(zw, doc)
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        return out

    built = timed_setup(0.0)
    replay = Replay(zw, doc, built)
    op_budget = args.seconds / (2 if tracer else 1)
    answers: list = []
    failed: list = []
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"tmp-{os.getpid()}"
    work.mkdir(exist_ok=True)
    watch = Watch(doc, work, pinner, tracer)

    def replay_watch() -> None:
        if not watch.sessions:
            watch.sessions = watch_lines(doc, replay, answers)
        if tracer:
            tracer.tag = tracing.CLI_TAG
        watch.replay()

    def between(spent: float, rounds: int) -> None:
        # Set-up repeats and watch replays are spread over the op phase, so
        # that a slow stretch of the host does not hit one of them alone.
        pinner.pin()
        if timed_setup(spent / op_budget) is not None:
            pinner.pin()
        # The watch replies are known once round 0 has answered every op.
        if len(answers) == len(replay.ops) and watch.replays < rounds:
            replay_watch()
            pinner.pin()

    try:
        untraced = op_phase(
            replay, op_budget, answers, failed, pinner, between=between,
            # A set-up repeat that is due runs at the first quick moment.
            tick=lambda spent: timed_setup(spent / op_budget),
        )
        while len(setup_times) < repeats:
            timed_setup(1.0)
        while watch.replays < CLI_MIN_REPLAYS:
            replay_watch()
        t0 = time.perf_counter()
        for i, reason in run_checks(zw, doc, replay, answers):
            failed.append(((False, 0, i), reason))
        checks_s = time.perf_counter() - t0
        attempted = untraced["readings"] + watch.readings
        if tracer:
            tracer.install(zw)
            traced = op_phase(replay, op_budget, answers, failed, pinner, tracer)
            tracer.uninstall()
            attempted += traced["readings"]
    finally:
        watch.close()
        for f in work.iterdir():
            f.unlink()
        work.rmdir()
    n_failed = len({key for key, _ in failed}) + watch.mismatches

    lat = untraced["best"]
    group = repeats // workloads.SETUP_GROUPS
    cli_lat = [x for best in watch.best for x in best]
    raw = {
        # Like an op's latency, each group's set-up is its quickest reading:
        # the median of all repeats moved with the host's slow stretches.
        "setup_s": statistics.median(min(setup_times[i:i + group]) for i in range(0, repeats, group)),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # 0 only when watch broke off, which also makes the run incorrect.
        "cli_ops_per_s": len(cli_lat) / sum(cli_lat) if cli_lat else 0.0,
    }
    host = host_factor(pinner.probes)
    e2e = dict(
        raw,
        setup_s=raw["setup_s"] / host,
        ops_per_s=raw["ops_per_s"] * host,
        op_p50_ms=raw["op_p50_ms"] / host,
        op_p90_ms=raw["op_p90_ms"] / host,
        cli_ops_per_s=raw["cli_ops_per_s"] * host,
    )
    counts = answer_counts(replay, answers)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        # The host's speed when the run began: the probe's best time.
        "probe_s": probe_s,
        "commit": git_commit(),
        "inputs_sha256": digest,
        "attempted": attempted,
        "failed": n_failed,
        "failed_ops_ratio": n_failed / attempted,
        "latency_samples": len(lat),
        "latency_readings_per_sample": untraced["readings"] / len(lat),
        "samples_beyond_p90": sum(1 for x in lat if x > raw["op_p90_ms"] / 1e3),
        "rounds": untraced["rounds"],
        "setup_repeats": repeats,
        "cli_samples": len(cli_lat),
        "cli_replays": watch.replays,
        "checks_s": checks_s,
        # The quicker CPU's probe times over the run: how fast the host was.
        "probe_min_s": min(pinner.probes),
        "probe_p10_s": statistics.quantiles(pinner.probes, n=10)[0],
        "probe_p50_s": statistics.median(pinner.probes),
        "host_factor": host,
        **{f"raw_{k}": v for k, v in raw.items()},
    }
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    print("# counts " + json.dumps(counts, sort_keys=True))
    for reason in sorted({r for _, r in failed})[:10]:
        print(f"# failure: {reason}")

    if tracer:
        layer = layer_metrics(tracer, repeats, len(replay.ops), traced["rounds"], watch.replays)
        layer.update({k: v for k, v in counts.items() if k != "ops_per_pass"})
        layer["checks.s"] = checks_s
        layer["trace.ops_per_s_untraced"] = raw["ops_per_s"]
        layer["trace.ops_per_s_traced"] = len(traced["best"]) / sum(traced["best"])
        layer["trace.overhead_ratio"] = raw["ops_per_s"] / layer["trace.ops_per_s_traced"]
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in sorted(layer.items())}
        tracer.write(str(OUT_DIR / f"spans-{args.workload}-{args.seed}.json"))
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    for name, m in metrics.items():
        print(f"# {name} {m['value']:.6g} {m['unit']}")
    result = {"correct": n_failed == 0, "attempted": attempted, "failed": n_failed, "metrics": metrics}
    with open(OUT_DIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "counts": counts, "end_to_end": e2e, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
