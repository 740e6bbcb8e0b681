"""Command-line interface.

Exit codes: 0 success; 1 inconsistent observation (empty estimate);
2 validation failure, unusable model or unknown state; 64 malformed
observation text, a negative ``fuzz --horizon``, a ``fuzz`` size or
``--scale`` below 1, or an output path (``za --dot``, ``observer --out``)
that cannot be written.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from . import __version__
from .intervals import parse_time
from .model import TFA, load_model, parse_observation, validate
from .zones import ZoneAutomaton, build_zone_automaton, to_dot
from .estimation import (
    belief_advance,
    belief_init,
    belief_query,
    estimate,
    t_reachable,
)
from .observer import build_offline_observer
from .oracle import (
    GridConfig,
    RandomModelConfig,
    brute_consistent_states,
    differential_check,
    random_model,
)

USAGE_ERROR = 64


def _load(path: str) -> TFA:
    try:
        return load_model(path)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: cannot load model {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _valid_model(path: str, require_ro: bool = False) -> TFA:
    """Load and validate a model; exit 2 on an invalid one."""
    model = _load(path)
    diags = validate(model, require_ro=require_ro)
    if diags:
        for d in diags:
            print(f"error: {d}", file=sys.stderr)
        raise SystemExit(2)
    return model


def _load_valid(path: str, require_ro: bool = False) -> tuple[TFA, ZoneAutomaton]:
    """Load, validate and build the zone automaton; exit 2 on an invalid model."""
    model = _valid_model(path, require_ro)
    return model, build_zone_automaton(model)


def _write(path: str, text: str) -> None:
    """Write an output file; exit 64 when the path cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _parse_obs_or_exit(text: str, time_text: str):
    try:
        return parse_observation(text, parse_time(time_text))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def cmd_validate(args) -> int:
    model = _load(args.model)
    diags = validate(model, require_ro=args.require_ro)
    for d in diags:
        print(d)
    if diags:
        return 2
    print("ok")
    return 0


def cmd_zones(args) -> int:
    model, za = _load_valid(args.model)
    states = [args.state] if args.state else sorted(model.states)
    for x in states:
        if x not in model.states:
            print(f"error: unknown state {x!r}", file=sys.stderr)
            return 2
        print(f"{x}: " + " ".join(str(z) for z in za.zones(x)))
    return 0


def cmd_za(args) -> int:
    _, za = _load_valid(args.model)
    for d in za.diagnostics:
        print(f"warning: {d}", file=sys.stderr)
    # Counted off the index: an event entry stands for every id of its run.
    ix = za.index
    n = len(ix.ext)
    tau_edges = sum(1 for j in ix.tau if j >= 0)
    event_edges = sum(key // n + 1 for moves in ix.events for _, key, _, _ in moves)
    print(
        f"extended states: {n}  edges: {tau_edges + event_edges} "
        f"(tau: {tau_edges}, event: {event_edges})  "
        f"initial: {len(za.initial)}"
    )
    if args.dot:
        _write(args.dot, to_dot(za))
        print(f"wrote {args.dot}")
    return 0


def cmd_reach(args) -> int:
    model, za = _load_valid(args.model)
    try:
        duration = parse_time(args.duration)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        _, witness = t_reachable(za, model, args.source, args.target, duration)
    except ValueError as exc:  # an unknown state
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if witness is None:
        print("no")
        return 0
    print("yes")
    print(witness.describe())
    return 0


def _print_estimate(est, anchor, as_json: bool) -> None:
    if as_json:
        print(json.dumps(est.to_json_dict(anchor), sort_keys=True))
    else:
        print(" ".join(sorted(est.discrete)))


def cmd_estimate(args) -> int:
    model, za = _load_valid(args.model, require_ro=True)
    obs = _parse_obs_or_exit(args.obs, args.time)
    try:
        est = estimate(za, model, obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    anchor = obs.events[-1][1] if obs.events else Fraction(0)
    _print_estimate(est, anchor, args.json)
    return 1 if est.empty else 0


def _lenient(stream) -> None:
    """Make a strict text stream decode undecodable bytes as lone surrogates
    (``surrogateescape``) instead of raising, where it still can be: a text
    wrapper refuses once it has been read from, and a ``StringIO`` holds text
    already."""
    if getattr(stream, "errors", None) == "strict":
        try:
            stream.reconfigure(errors="surrogateescape")
        except (AttributeError, io.UnsupportedOperation):
            pass


def cmd_watch(args) -> int:
    """Serve ``obs <event> <time>`` and ``query <time>`` lines from stdin
    up to ``quit``, one reply line per command, written and flushed at once.
    Replies quote the input with ``repr``, so an undecoded byte, a lone
    surrogate, is written as an escape."""
    model, za = _load_valid(args.model, require_ro=True)
    belief = belief_init(za)
    stdin, stdout = sys.stdin, sys.stdout
    _lenient(stdin)
    readline, write, flush = stdin.readline, stdout.write, stdout.flush
    while True:
        try:
            raw = readline()
        except UnicodeDecodeError as exc:
            # Only a strict stream read before ``watch`` started gets here.
            # Its decoder has dropped the chunk and may keep failing on
            # what it holds, so the session ends.
            write(f"error: undecodable input, session ended: {exc}\n")
            flush()
            break
        if not raw:
            break
        parts = raw.split()
        if not parts:
            continue
        command = parts[0]
        try:
            if command == "obs" and len(parts) == 3:
                belief = belief_advance(za, model, belief, parts[1], parse_time(parts[2]))
                reply = "ok"
            elif command == "query" and len(parts) == 2:
                est = belief_query(za, model, belief, parse_time(parts[1]))
                reply = " ".join(sorted(est.discrete)) or "(empty)"
            elif command == "quit":
                break
            else:
                reply = f"error: unrecognized command {raw.strip()!r}"
        except ValueError as exc:
            reply = f"error: {exc}"
        write(reply + "\n")
        flush()
    return 0


def cmd_observer(args) -> int:
    model, za = _load_valid(args.model, require_ro=True)
    try:
        observer = build_offline_observer(za, model)
    except ValueError as exc:  # a period too long to tabulate
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    doc = observer.to_json_dict()
    _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    cells = sum(len(s["cells"]) for s in doc["supports"])
    print(f"observer: {len(doc['supports'])} supports, {cells} cells; wrote {args.out}")
    return 0


def cmd_oracle(args) -> int:
    model = _valid_model(args.model)
    obs = _parse_obs_or_exit(args.obs, args.time)
    try:
        grid = GridConfig(horizon=obs.query_time, step=Fraction(args.grid))
        result = brute_consistent_states(model, grid, obs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(" ".join(sorted(result)))
    return 0


def cmd_fuzz(args) -> int:
    config = RandomModelConfig(
        state_count=args.states,
        max_constant=args.max_constant,
        rng_seed=args.seed,
    )
    try:
        grid = GridConfig(horizon=Fraction(args.horizon), step=Fraction(1, 2))
        random_model(config)  # rejects a size below 1 before any trial runs
        if args.scale is not None and args.scale < 1:
            raise ValueError(f"scale must be at least 1, not {args.scale}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    report = differential_check(config, grid, trials=args.trials, scale=args.scale)
    sys.stdout.write(report.to_jsonl())
    print(json.dumps(report.summary(), sort_keys=True))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zonewatch",
        description="State estimation for single-clock timed finite automata.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check a model document")
    sp.add_argument("model")
    sp.add_argument("--require-ro", action="store_true", help="also require clock resets on observable events")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("zones", help="list the clock zones of each state")
    sp.add_argument("model")
    sp.add_argument("--state", help="restrict to one state")
    sp.set_defaults(func=cmd_zones)

    sp = sub.add_parser("za", help="summarize the zone automaton")
    sp.add_argument("model")
    sp.add_argument("--dot", help="write a Graphviz rendering to this path")
    sp.set_defaults(func=cmd_za)

    sp = sub.add_parser("reach", help="decide duration-bounded reachability")
    sp.add_argument("model")
    sp.add_argument("--from", dest="source", required=True)
    sp.add_argument("--to", dest="target", required=True)
    sp.add_argument("--duration", required=True)
    sp.set_defaults(func=cmd_reach)

    sp = sub.add_parser("estimate", help="states consistent with an observation")
    sp.add_argument("model")
    sp.add_argument("--obs", default="", help='comma-separated event@time pairs, e.g. "a@1,a@3"')
    sp.add_argument("--time", required=True, help="current time")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("watch", help="streaming estimation session on stdin")
    sp.add_argument("model")
    sp.set_defaults(func=cmd_watch)

    sp = sub.add_parser("observer", help="precompute the estimation tables")
    sp.add_argument("model")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_observer)

    sp = sub.add_parser("oracle", help="brute-force consistent states on a grid")
    sp.add_argument("model")
    sp.add_argument("--grid", default="0.5", help="grid step (default 0.5)")
    sp.add_argument("--obs", default="")
    sp.add_argument("--time", required=True)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("fuzz", help="differential-test the estimated states and zones against the grid oracle on random models")
    sp.add_argument("--states", type=int, default=4)
    sp.add_argument("--max-constant", type=int, default=3)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--horizon", type=int, default=5)
    sp.add_argument(
        "--scale",
        type=int,
        help="also check each trial against the model with every constant and time multiplied by this factor",
    )
    sp.set_defaults(func=cmd_fuzz)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:  # uniform exit codes for in-process callers
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
