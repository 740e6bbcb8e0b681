import io
import json
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zonewatch import RandomModelConfig, format_time, parse_interval, parse_time, random_model
from zonewatch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, fig1):
    from zonewatch import dump_model

    path = tmp_path / "model.json"
    path.write_text(dump_model(fig1))
    return str(path)


def write_unknown_target_model(tmp_path, fig1_path):
    doc = json.load(open(fig1_path))
    doc["transitions"][0]["to"] = "nowhere"
    path = tmp_path / "unknown_target.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- validate ----------------------------------------------------------------

def test_validate_ok(capsys, fig1_path):
    code, out, _ = run_cli(capsys, "validate", fig1_path, "--require-ro")
    assert code == 0
    assert out.strip() == "ok"


def test_validate_reports_ro_violation(capsys, tmp_path, fig1_path):
    doc = json.load(open(fig1_path))
    for tr in doc["transitions"]:
        if tr["event"] == "a":
            tr["reset"] = "id"
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path), "--require-ro")
    assert code == 2
    assert "ro-violation" in out
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0


def test_validate_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "does-not-exist.json")
    assert code == 2
    assert "cannot load" in err


# -- zones / za --------------------------------------------------------------

def test_zones_listing(capsys, fig1_path):
    code, out, _ = run_cli(capsys, "zones", fig1_path, "--state", "x0")
    assert code == 0
    assert out.strip() == "x0: [0,0] (0,1) [1,1] (1,3] (3,inf)"


def test_zones_unbounded_guard_exits_2(capsys, tmp_path, fig1_path):
    doc = json.load(open(fig1_path))
    doc["transitions"][0]["guard"] = "(1,inf)"
    path = tmp_path / "unbounded_guard.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "zones", str(path))
    assert code == 2
    assert out == ""
    assert "guard-not-closed" in err


def test_za_summary_and_dot(capsys, tmp_path, fig1_path):
    dot_path = str(tmp_path / "za.dot")
    code, out, _ = run_cli(capsys, "za", fig1_path, "--dot", dot_path)
    assert code == 0
    assert "extended states: 23" in out
    text = open(dot_path).read()
    assert text.startswith("digraph")
    assert '"x0 [0,0]" -> "x0 (0,1)" [style=dashed];' in text


def test_za_counts_edges_off_the_index(capsys, tmp_path, fig1_path):
    # The summary counts the edges off the run-encoded tables; it must agree
    # with the expanded ``za.edges``, and so must the DOT file's edge lines.
    from zonewatch import build_zone_automaton, dump_model, load_model

    paths = [fig1_path]
    for seed in range(40):
        config = RandomModelConfig(
            state_count=2 + seed % 5,
            max_constant=1 + seed % 6,
            require_ro=seed % 2 == 0,
            transition_density=0.2,
            rng_seed=4400 + seed,
        )
        path = tmp_path / f"random{seed}.json"
        path.write_text(dump_model(random_model(config)))
        paths.append(str(path))
    for path in paths:
        za = build_zone_automaton(load_model(path))
        tau = sum(1 for e in za.edges if e.transition is None)
        dot_path = str(tmp_path / "za.dot")
        code, out, _ = run_cli(capsys, "za", path, "--dot", dot_path)
        assert code == 0
        assert out.splitlines()[0] == (
            f"extended states: {len(za.states)}  edges: {len(za.edges)} "
            f"(tau: {tau}, event: {len(za.edges) - tau})  initial: {len(za.initial)}"
        ), path
        assert sum(" -> " in line for line in open(dot_path)) == len(za.edges), path


def test_za_unwritable_dot_exits_64(capsys, tmp_path, fig1_path):
    dot_path = tmp_path / "missing" / "za.dot"
    code, _, err = run_cli(capsys, "za", fig1_path, "--dot", str(dot_path))
    assert code == 64
    assert err.startswith(f"error: cannot write {dot_path}")
    assert "Traceback" not in err


def test_za_invalid_model_exits_2(capsys, tmp_path, fig1_path):
    path = write_unknown_target_model(tmp_path, fig1_path)
    code, out, err = run_cli(capsys, "za", path)
    assert code == 2
    assert out == ""
    assert "unknown-state" in err


def test_malformed_document_exits_2(capsys, tmp_path, fig1_path):
    def broken(name, edit):
        doc = json.load(open(fig1_path))
        edit(doc)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    for path in (
        broken("int_reset.json", lambda doc: doc["transitions"][0].update(reset=5)),
        broken("string_states.json", lambda doc: doc.update(states="".join(doc["states"]))),
    ):
        code, out, err = run_cli(capsys, "za", path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot load model {path}")


def test_wide_id_guard_exits_2_in_bounded_time(tmp_path, fig1_path):
    # Each unit region under a clock-preserving guard is a zone of its own, so
    # a guard of [0,10^9] must be refused before any zone is built.  Run in
    # child processes under a time and memory cap, so that a missing check
    # fails the test instead of exhausting the host.
    import os
    import subprocess
    import sys

    doc = json.load(open(fig1_path))
    wide = next(tr for tr in doc["transitions"] if tr["reset"] == "id")
    wide["guard"] = "[0,1000000000]"
    path = tmp_path / "wide_id.json"
    path.write_text(json.dumps(doc))
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from zonewatch.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for argv in (["za", str(path)], ["estimate", str(path), "--time", "1"], ["watch", str(path)]):
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], input="query 0\nquit\n", capture_output=True,
            text=True, env=env, timeout=60,
        )
        assert done.returncode == 2, (argv, done.stderr)
        assert done.stdout == ""
        assert done.stderr.startswith("error: wide-id-guard: clock-preserving transition (x0,b,x2)"), argv


def _run_capped(*argv, stdin=""):
    """``zonewatch`` in a child process under a 1 GiB address-space cap and
    a 60 s timeout, so that a missing bound fails the test instead of
    exhausting the host."""
    import os
    import subprocess
    import sys

    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from zonewatch.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-c", script, *argv], input=stdin, capture_output=True, text=True,
        env=env, timeout=60,
    )


def test_huge_resetting_guard_ends_in_bounded_time(tmp_path):
    # A resetting guard of [0,10^20] needs more cells of silent durations
    # than the duration tables hold.  The observer, which must tabulate
    # every row, exits 64 with an error line; estimate and watch answer from
    # the duration search instead.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "states": ["s", "t"], "alphabet": ["a", "u"], "observable": ["a"], "initial": ["s"],
        "transitions": [
            {"from": "s", "event": "u", "to": "t", "guard": f"[0,{10 ** 20}]", "reset": "[0,0]"},
            {"from": "t", "event": "a", "to": "s", "guard": "[1,2]", "reset": "[0,0]"},
        ],
    }))
    run = _run_capped
    done = run("observer", str(path), "--out", str(tmp_path / "obs.json"))
    assert done.returncode == 64, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith(f"error: a constant of {10 ** 20} needs "), done.stderr
    assert not (tmp_path / "obs.json").exists()
    done = run("estimate", str(path), "--obs", "a@1", "--time", str(10 ** 24))
    assert (done.returncode, done.stdout, done.stderr) == (0, "s t\n", "")
    done = run("watch", str(path), stdin=f"obs a 1\nquery 100000000\nquery {10 ** 24}\nquit\n")
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\ns t\ns t\n", "")


def test_exact_steps_past_the_cell_cap_end_in_an_error(tmp_path):
    # The same huge guard, but a silent gap is crossed in exact unit steps
    # (the loop t -c-> t at [1,1]), so a search costs time linear in the
    # gap.  Past the tabulated cells it ends in an error line: a query at
    # 10^9 took hours before.  Shorter gaps are still answered.
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({
        "states": ["s", "t"], "alphabet": ["a", "c", "u"], "observable": ["a"], "initial": ["s"],
        "transitions": [
            {"from": "s", "event": "u", "to": "t", "guard": "[1,1]", "reset": "[0,0]"},
            {"from": "t", "event": "c", "to": "t", "guard": "[1,1]", "reset": "[0,0]"},
            {"from": "t", "event": "a", "to": "s", "guard": f"[0,{10 ** 20}]", "reset": "[0,0]"},
        ],
    }))
    error = "error: no answer at an elapsed time of 1000000000.0: the silent durations have no tail"
    done = _run_capped("watch", str(path), stdin="obs a 1\nquery 1001\nquery 1000000001\nquit\n")
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout.startswith("ok\ns t\n" + error), done.stdout
    done = _run_capped("estimate", str(path), "--obs", "a@1", "--time", "1000000001")
    assert (done.returncode, done.stdout) == (64, "")
    assert done.stderr.startswith(error), done.stderr


# -- reach ---------------------------------------------------------------------

def test_reach_yes_with_witness(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, "reach", fig1_path, "--from", "x0", "--to", "x4", "--duration", "4"
    )
    assert code == 0
    assert out.splitlines()[0] == "yes"
    assert "zone run:" in out and "timed run:" in out


def test_reach_no(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, "reach", fig1_path, "--from", "x4", "--to", "x0", "--duration", "1"
    )
    assert code == 0
    assert out.strip() == "no"


def test_reach_invalid_model_or_unknown_state_exits_2(capsys, tmp_path, fig1_path):
    path = write_unknown_target_model(tmp_path, fig1_path)
    code, out, err = run_cli(
        capsys, "reach", path, "--from", "x0", "--to", "x4", "--duration", "4"
    )
    assert code == 2
    assert "unknown-state" in err
    code, out, err = run_cli(
        capsys, "reach", fig1_path, "--from", "x0", "--to", "nope", "--duration", "4"
    )
    assert code == 2
    assert out == ""
    assert "unknown state 'nope'" in err


# -- estimate --------------------------------------------------------------------

def test_estimate_table_rows(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, "estimate", fig1_path, "--obs", "a@1,a@3", "--time", "4"
    )
    assert code == 0
    assert out.strip() == "x2 x3"
    code, out, _ = run_cli(capsys, "estimate", fig1_path, "--obs", "", "--time", "0")
    assert code == 0
    assert out.strip() == "x0 x2"


def test_estimate_json(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, "estimate", fig1_path, "--obs", "a@1", "--time", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["discrete"] == ["x2", "x3", "x4"]
    assert doc["anchor"] == "1.0"
    assert doc["extended"] == [["x2", "[0,0]"], ["x3", "[0,0]"], ["x4", "[0,1]"]]


def test_estimate_inconsistent_exits_1(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, "estimate", fig1_path, "--obs", "a@0.5", "--time", "1"
    )
    assert code == 1
    assert out.strip() == ""


def test_estimate_malformed_obs_exits_64(capsys, fig1_path):
    code, _, err = run_cli(capsys, "estimate", fig1_path, "--obs", "a1", "--time", "1")
    assert code == 64
    code, _, err = run_cli(capsys, "estimate", fig1_path, "--obs", "a@3,a@1", "--time", "4")
    assert code == 64
    code, _, err = run_cli(capsys, "estimate", fig1_path, "--obs", "a@1", "--time", "bogus")
    assert code == 64


# -- watch ------------------------------------------------------------------------

def test_watch_session(capsys, monkeypatch, fig1_path):
    script = "query 0\nobs a 1\nquery 3\nobs a 3\nquery 4\nbogus\nquit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code, out, _ = run_cli(capsys, "watch", fig1_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x0 x2"
    assert lines[1] == "ok"
    assert lines[2] == "x2 x3 x4"
    assert lines[3] == "ok"
    assert lines[4] == "x2 x3"
    assert lines[5].startswith("error:")


def test_zero_denominator_time_exits_64(capsys, fig1_path):
    for argv in [
        ("estimate", fig1_path, "--time", "1/0"),
        ("estimate", fig1_path, "--obs", "a@1/0", "--time", "2"),
        ("reach", fig1_path, "--from", "x0", "--to", "x4", "--duration", "1/0"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 64, argv
        assert out == "" and "zero denominator" in err, argv


def test_watch_survives_a_zero_denominator(capsys, monkeypatch, fig1_path):
    script = "obs a 1/0\nquery 1/0\nobs a 1\nquery 3\nquit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code, out, _ = run_cli(capsys, "watch", fig1_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.startswith("error: zero denominator") for line in lines[:2]] == [True, True]
    assert lines[2:] == ["ok", "x2 x3 x4"]


def test_watch_error_lines(capsys, monkeypatch, fig1_path):
    script = "obs a 1\nobs a 1/2\nquery 0\nobs b 2\nobs a 0\nquery 1\nquit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    code, out, _ = run_cli(capsys, "watch", fig1_path)
    assert code == 0
    assert out.splitlines() == [
        "ok",
        "error: observation time precedes the belief anchor",
        "error: query time precedes the belief anchor",
        "error: event 'b' is not observable",
        "error: observation time precedes the belief anchor",
        "x2 x3 x4",
    ]


def test_watch_rejects_time_regression(capsys, monkeypatch, fig1_path):
    monkeypatch.setattr("sys.stdin", io.StringIO("obs a 2\nobs a 1\nquery 2\nquit\n"))
    code, out, _ = run_cli(capsys, "watch", fig1_path)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ok"
    assert lines[1].startswith("error:")


def _watch_env(**extra):
    import os

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    # Buffered output, as in a plain shell, so that a missing flush shows.
    env.pop("PYTHONUNBUFFERED", None)
    env.pop("PYTHONIOENCODING", None)
    env.update(extra)
    return env


def test_watch_answers_undecodable_bytes_with_an_error_line(fig1_path):
    # A byte that is not UTF-8 is one malformed line: an error reply, and the
    # session goes on.  Under a strict decoder it raised a traceback.
    import subprocess
    import sys

    for extra in ({}, {"PYTHONIOENCODING": "utf-8:strict"}):
        done = subprocess.run(
            [sys.executable, "-m", "zonewatch.cli", "watch", fig1_path],
            input=b"obs a 1\nobs a \xff\nquery 3\n\xffbad\nquit\n", capture_output=True,
            env=_watch_env(**extra), timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, b""), (extra, done.stderr)
        assert done.stdout.decode("ascii").splitlines() == [
            "ok",
            r"error: not a non-negative decimal time point: '\udcff'",
            "x2 x3 x4",
            r"error: unrecognized command '\udcffbad'",
        ], extra


def test_watch_on_a_strict_stream_read_before_ends_the_session(capsys, monkeypatch, fig1_path):
    # A text stream that was read from cannot change its error handler, so
    # an undecodable byte there ends the session with an error line.  A tiny
    # chunk size keeps the bad byte out of the chunks read before it.
    stream = io.TextIOWrapper(io.BytesIO(b"first\nobs a 1\nobs a \xff\nquery 3\n"), encoding="utf-8")
    stream._CHUNK_SIZE = 1
    assert stream.readline() == "first\n"
    monkeypatch.setattr("sys.stdin", stream)
    code, out, _ = run_cli(capsys, "watch", fig1_path)
    lines = out.splitlines()
    assert code == 0 and lines[0] == "ok" and len(lines) == 2, out
    assert lines[1].startswith("error: undecodable input, session ended: 'utf-8' codec can't decode")


def test_watch_flushes_each_reply(fig1_path):
    # One line at a time, each reply read before the next line is written:
    # a reply left in the output buffer fails the bounded wait.
    import queue
    import subprocess
    import sys
    import threading

    proc = subprocess.Popen(
        [sys.executable, "-m", "zonewatch.cli", "watch", fig1_path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=_watch_env(),
    )
    replies: queue.Queue = queue.Queue()
    reader = threading.Thread(target=lambda: [replies.put(line) for line in proc.stdout], daemon=True)
    reader.start()
    try:
        for line, want in [
            ("query 0", "x0 x2"), ("obs a 1", "ok"), ("query 3", "x2 x3 x4"), ("bogus", None),
            ("obs a 1/2", "error: observation time precedes the belief anchor"), ("query 4", "x2 x3 x4"),
        ]:
            proc.stdin.write(line.encode() + b"\n")
            proc.stdin.flush()
            got = replies.get(timeout=10).decode().rstrip("\n")
            assert got == want if want else got.startswith("error: unrecognized command"), (line, got)
        proc.stdin.write(b"quit\n")
        proc.stdin.close()
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=10)
        proc.stdout.close()
    assert not reader.is_alive() and replies.empty()


def _scripted_session(model, rng):
    """A watch script: observations of observable, silent and unknown events
    at times that mostly rise, sometimes fall, and queries in between."""
    events = sorted(model.observable) + sorted(model.alphabet - model.observable)[:1] + ["zz"]
    lines, now = [], 0
    for _ in range(rng.randrange(6, 14)):
        step = F(rng.randrange(0, 9), rng.choice((1, 2, 4)))
        now = max(now + step if rng.random() < 0.85 else now - F(1, 2), 0)
        if rng.random() < 0.6:
            event = rng.choice(events if rng.random() < 0.25 else sorted(model.observable) or events)
            lines.append(f"obs {event} {format_time(now)}")
        else:
            lines.append(f"query {format_time(now + F(rng.randrange(0, 7), 2))}")
    return lines


def test_watch_replies_equal_the_belief_api(capsys, monkeypatch, tmp_path, fig1_path):
    # Every reply of a scripted session equals what belief_advance and
    # belief_query give on a separately loaded model.
    import random

    from zonewatch import belief_advance, belief_init, belief_query, build_zone_automaton, dump_model, load_model

    paths = [fig1_path]
    for seed in range(44):
        config = RandomModelConfig(
            state_count=2 + seed % 5, max_constant=1 + seed % 4, transition_density=0.12 + 0.04 * (seed % 3),
            require_ro=True, rng_seed=7000 + seed,
        )
        path = tmp_path / f"random{seed}.json"
        path.write_text(dump_model(random_model(config)))
        paths.append(str(path))
    seen = {"ok": 0, "(empty)": 0, "error:": 0, "states": 0}
    for k, path in enumerate(paths):
        model = load_model(path)
        za = build_zone_automaton(model)
        rng = random.Random(k)
        for _ in range(3):
            script = _scripted_session(model, rng)
            belief, want = belief_init(za), []
            for line in script:
                kind, *args = line.split()
                try:
                    if kind == "obs":
                        belief = belief_advance(za, model, belief, args[0], parse_time(args[1]))
                        want.append("ok")
                    else:
                        est = belief_query(za, model, belief, parse_time(args[0]))
                        want.append(" ".join(sorted(est.discrete)) or "(empty)")
                except ValueError as exc:
                    want.append(f"error: {exc}")
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(script) + "\nquit\n"))
            code, out, _ = run_cli(capsys, "watch", path)
            assert (code, out.splitlines()) == (0, want), (path, script)
            for reply in want:
                seen[reply if reply in ("ok", "(empty)") else "error:" if reply.startswith("error:") else "states"] += 1
    assert min(seen.values()) >= 20, seen


# Bad input, generated: times in every form the parser meets (and some it
# refuses), fig1's events and unknown ones, and lines of arbitrary text.
_fuzz_numbers = st.one_of(
    st.integers(min_value=0, max_value=10**30).map(str),
    st.integers(min_value=-5, max_value=50).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map(lambda p: f"{p[0]}/{p[1]}"),
    st.tuples(st.integers(0, 99), st.integers(0, 9999)).map(lambda p: f"{p[0]}.{p[1]}"),
    st.sampled_from(
        ["", "inf", "nan", "1e9", "1e999", "0x10", "1_000", "\u0663", "\uff11", "1.", ".5", "1/0", "9" * 5000]
    ),
)
_fuzz_words = st.one_of(
    st.sampled_from(["a", "b", "c", "u", "x0", "obs", "query", "quit?"]), st.text(max_size=6)
)
_fuzz_line = st.one_of(
    st.tuples(st.just("obs"), _fuzz_words, _fuzz_numbers).map(" ".join),
    st.tuples(st.just("query"), _fuzz_numbers).map(" ".join),
    st.lists(st.one_of(_fuzz_words, _fuzz_numbers), max_size=4).map(" ".join),
    st.text(max_size=30),
).map(lambda line: line.replace("\n", " ")).filter(lambda line: line.split()[:1] != ["quit"])
_FIG1_STATES = {"x0", "x1", "x2", "x3", "x4"}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_fuzz_line, max_size=12))
def test_watch_answers_every_bad_line_with_one_reply(capsys, monkeypatch, fig1_path, lines):
    # One reply per command line (a line with a token), each ``ok``,
    # ``(empty)``, a state list or an ``error:`` line, and no exception.
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines) + "quit\n"))
    code, out, err = run_cli(capsys, "watch", fig1_path)
    replies = out.split("\n")
    assert (code, err, replies.pop()) == (0, "", "")
    assert len(replies) == sum(1 for line in lines if line.split()), (lines, replies)
    for reply in replies:
        states = reply.split(" ")
        assert (
            reply in ("ok", "(empty)") or reply.startswith("error: ")
            or (set(states) <= _FIG1_STATES and states == sorted(set(states)))
        ), (lines, reply)


_fuzz_pair = st.tuples(_fuzz_words, _fuzz_numbers).map("@".join)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(st.lists(_fuzz_pair, max_size=4).map(",".join), st.text(max_size=30)),
    _fuzz_numbers,
)
def test_estimate_exits_cleanly_on_bad_observations(capsys, fig1_path, obs, time):
    code, out, err = run_cli(capsys, "estimate", fig1_path, f"--obs={obs}", f"--time={time}")
    assert code in (0, 1, 64), (obs, time, code, err)
    assert "Traceback" not in out + err
    assert (code == 64) == err.startswith("error: "), (obs, time, code, err)


# -- observer ----------------------------------------------------------------------

def test_observer_command(capsys, tmp_path, fig1_path):
    out_path = str(tmp_path / "observer.json")
    code, out, _ = run_cli(capsys, "observer", fig1_path, "--out", out_path)
    assert code == 0
    doc = json.load(open(out_path))
    assert "horizon" not in doc
    assert all("tail" in s for s in doc["supports"])
    assert any(s["support"] == [["x0", "[0,0]"]] for s in doc["supports"])


def test_observer_unwritable_out_exits_64(capsys, tmp_path, fig1_path):
    out_path = tmp_path / "missing" / "observer.json"
    code, out, err = run_cli(capsys, "observer", fig1_path, "--out", str(out_path))
    assert code == 64
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}")


def test_observer_json_lists_supports_in_zone_order(capsys, tmp_path):
    # Two supports of this model first differ at the same state, so their
    # order is decided by zone order (`ext_sort_key`).
    model = random_model(RandomModelConfig(state_count=3, max_constant=2, rng_seed=4))
    model_path = write_model(tmp_path, model)
    out_path = str(tmp_path / "observer.json")
    code, _, _ = run_cli(capsys, "observer", model_path, "--out", out_path)
    assert code == 0
    doc = json.load(open(out_path))
    keys = [
        tuple((state, *parse_interval(zone).sort_key()) for state, zone in s["support"])
        for s in doc["supports"]
    ]
    assert all(list(k) == sorted(k) for k in keys)
    assert keys == sorted(keys)
    assert [s["id"] for s in doc["supports"]] == list(range(len(keys)))


# -- oracle -------------------------------------------------------------------------

def test_oracle_command(capsys, fig1_path):
    code, out, _ = run_cli(
        capsys, "oracle", fig1_path, "--obs", "a@1,a@3", "--time", "4"
    )
    assert code == 0
    assert out.strip() == "x2 x3"
    code, out, _ = run_cli(capsys, "oracle", fig1_path, "--obs", "", "--time", "0")
    assert out.strip() == "x0 x2"


# -- fuzz ----------------------------------------------------------------------------

def test_fuzz_command(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--states", "3", "--trials", "4", "--seed", "5", "--horizon", "4"
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["mismatches"] == 0
    assert summary["trials"] == 4
    for line in lines[:-1]:
        assert json.loads(line)["verdict"] == "ok"


def test_fuzz_empty_model_size_exits_64(capsys):
    code, out, err = run_cli(capsys, "fuzz", "--states", "0", "--trials", "1")
    assert code == 64
    assert out == ""
    assert err.startswith("error: a random model needs at least one state")


def test_fuzz_negative_horizon_exits_64(capsys):
    code, out, err = run_cli(capsys, "fuzz", "--horizon", "-1", "--trials", "1")
    assert code == 64
    assert out == ""
    assert err.startswith("error: horizon must be non-negative")
    assert "Traceback" not in err


# -- round trip ------------------------------------------------------------------------

def test_model_round_trip_via_cli_paths(tmp_path, fig1, fig1_from_file):
    from zonewatch import dump_model, load_model

    path = write_model(tmp_path, fig1)
    assert load_model(path) == fig1
    assert dump_model(load_model(path)) == dump_model(fig1_from_file)
