import io
import json

from zonewatch import RandomModelConfig, parse_interval, random_model
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


# -- observer ----------------------------------------------------------------------

def test_observer_command(capsys, tmp_path, fig1_path):
    out_path = str(tmp_path / "observer.json")
    code, out, _ = run_cli(
        capsys, "observer", fig1_path, "--horizon", "4", "--out", out_path
    )
    assert code == 0
    doc = json.load(open(out_path))
    assert doc["horizon"] == 4
    assert any(s["support"] == [["x0", "[0,0]"]] for s in doc["supports"])


def test_observer_output_does_not_depend_on_horizon(capsys, tmp_path, fig1_path):
    docs = []
    for horizon in ["4", "100000"]:
        out_path = str(tmp_path / f"observer-{horizon}.json")
        code, _, _ = run_cli(capsys, "observer", fig1_path, "--horizon", horizon, "--out", out_path)
        assert code == 0
        docs.append(json.load(open(out_path)))
    assert [doc.pop("horizon") for doc in docs] == [4, 100000]
    assert docs[0] == docs[1]
    assert all("tail" in s for s in docs[0]["supports"])


def test_observer_bad_horizon_exits_64(capsys, tmp_path, fig1_path):
    out_path = tmp_path / "observer.json"
    code, _, err = run_cli(
        capsys, "observer", fig1_path, "--horizon", "0", "--out", str(out_path)
    )
    assert code == 64
    assert "horizon" in err
    assert not out_path.exists()


def test_observer_unwritable_out_exits_64(capsys, tmp_path, fig1_path):
    out_path = tmp_path / "missing" / "observer.json"
    code, out, err = run_cli(
        capsys, "observer", fig1_path, "--horizon", "2", "--out", str(out_path)
    )
    assert code == 64
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}")


def test_observer_json_lists_supports_in_zone_order(capsys, tmp_path):
    # Two supports of this model first differ at the same state, so their
    # order is decided by zone order (`ext_sort_key`).
    model = random_model(RandomModelConfig(state_count=3, max_constant=2, rng_seed=4))
    model_path = write_model(tmp_path, model)
    out_path = str(tmp_path / "observer.json")
    code, _, _ = run_cli(
        capsys, "observer", model_path, "--horizon", "2", "--out", out_path
    )
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
