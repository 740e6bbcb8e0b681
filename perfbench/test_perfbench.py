"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import zonewatch as zw  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_same_seed_gives_identical_inputs(name):
    first = inputs.digest(workloads.build(name, 7, zw))
    assert inputs.digest(workloads.build(name, 7, zw)) == first
    assert inputs.digest(workloads.build(name, 8, zw)) != first


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_generated_runs_are_legal(name):
    doc = workloads.build(name, 3, zw)
    for stream in doc["streams"]:
        model = zw.model_from_dict(doc["models"][stream["model"]])
        steps = tuple(zw.RunStep(e, Fraction(w), s, Fraction(c)) for e, w, s, c in stream["run"])
        assert zw.check_run(model, zw.TimedRun(sorted(model.initial)[0], Fraction(0), Fraction(0), steps))


def _answers(name: str, seed: int = 1):
    doc = workloads.build(name, seed, zw)
    replay = run.Replay(zw, doc, run.setup(zw, doc))
    answers: list = []
    run.op_phase(replay, 0, answers, [], run.Pinner())
    return doc, replay, answers


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_right_answers_pass(name):
    doc, replay, answers = _answers(name)
    assert run.run_checks(zw, doc, replay, answers) == []


def test_wrong_estimate_is_counted_failed():
    doc, replay, answers = _answers("monitor")
    i = next(k for k, (kind, _, _) in enumerate(replay.ops) if kind == "query")
    answers[i] = frozenset(v for v in answers[i] if v.state != replay.docs[i][1]["truth"][0])
    failures = run.run_checks(zw, doc, replay, answers)
    assert {k for k, _ in failures} == {i}
    assert any(reason.startswith("soundness") for _, reason in failures)


def test_wrong_observer_answer_is_counted_failed():
    doc, replay, answers = _answers("observer")
    i = next(k for k, (kind, _, _) in enumerate(replay.ops) if kind == "advance")
    extra = next(v for v in replay.built[0]["za"].states if v not in answers[i])
    answers[i] = answers[i] | {extra}
    reasons = [r for k, r in run.run_checks(zw, doc, replay, answers) if k == i]
    assert any(r.startswith("observer vs online") for r in reasons)


def test_wrong_reach_answers_are_counted_failed():
    doc, replay, answers = _answers("long_gap")
    no = next(k for k, a in enumerate(answers) if isinstance(a, tuple) and not a[0])
    yes = next(k for k, a in enumerate(answers) if isinstance(a, tuple) and a[0])
    answers[no] = (True, answers[yes][1])
    ok, w = answers[yes]
    answers[yes] = (ok, type(w)(w.start, w.steps, w.duration, w.run, w.trailing_dwell + 1, w.final_zone))
    failures = run.run_checks(zw, doc, replay, answers)
    assert {k for k, _ in failures} == {no, yes}
    assert any(k == yes and r.startswith("witness") for k, r in failures)


def test_oracle_disagreement_is_counted_failed():
    doc, replay, answers = _answers("monitor")
    base = 0
    for stream in doc["streams"]:
        sample = checks.oracle_sample(stream["ops"])
        if sample:
            i = base + min(sample)
            break
        base += len(stream["ops"])
    za = replay.built[replay.stream_models[replay.docs[i][0]]]["za"]
    present = {v.state for v in answers[i]}
    answers[i] = answers[i] | {next(v for v in za.states if v.state not in present)}
    reasons = [r for k, r in run.run_checks(zw, doc, replay, answers) if k == i]
    assert any(r.startswith("oracle") for r in reasons)


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monitor", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_declared_metric(trace):
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "observer", "--seed", "1", "--seconds", "1", "--trace", trace],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
