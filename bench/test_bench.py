"""Self-tests of the benchmark harness: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from bott_towers import IntegralSequence, build_fan, cli, is_fano  # noqa: E402


def _span(rec, name, parent, start, end):
    if name not in rec.names:
        rec.names.append(name)
    rec.name.append(rec.names.index(name))
    rec.parent.append(parent)
    rec.start.append(start)
    rec.end.append(end)
    return len(rec.name) - 1


def test_self_time_of_nested_spans():
    rec = tracing.Recorder()
    job = _span(rec, "job", -1, 0, 100)
    outer = _span(rec, "a", job, 10, 60)
    inner = _span(rec, "b", outer, 20, 40)
    _span(rec, "a", inner, 25, 35)          # recursion through b
    _span(rec, "c", job, 70, 90)
    calls, inclusive, self_ns = tracing.summarize(rec)
    assert calls == {"job": 1, "a": 2, "b": 1, "c": 1}
    assert self_ns == {"job": 30, "a": 30 + 10, "b": 10, "c": 20}
    assert inclusive["a"] == 50            # the nested call is not recounted
    assert inclusive["b"] == 20
    metrics = tracing.layer_metrics(rec, job_ns=100)
    assert metrics["a.self_ms"] == 40 / 1e6
    assert metrics["trace.coverage"] == 70 / 100


def _first_job(workload, command):
    specs, _ = jobs.build(workload, seed=5)
    idx = next(i for i, job in enumerate(specs) if job.command == command)
    return specs, idx


def test_corrupted_output_is_a_failure():
    specs, idx = _first_job("ring", "cohomology")
    checker = worker.Checker(specs)
    _, code, text = worker.run_job(cli, specs[idx].argv)
    assert checker.record(idx, code, text)
    other = worker.Checker(specs)
    corrupted = text.replace('"betti": [\n    1,', '"betti": [\n    2,', 1)
    assert corrupted != text
    assert not other.record(idx, code, corrupted)
    assert other.failed == 1


def test_changed_digest_is_a_failure():
    specs, idx = _first_job("tables", "fan")
    checker = worker.Checker(specs)
    _, code, text = worker.run_job(cli, specs[idx].argv)
    assert checker.record(idx, code, text)
    assert not checker.record(idx, code, text + " ")
    assert checker.failed == 1 and checker.known_defect == 0


def test_double_wrap_is_counted_apart_from_failures():
    specs, _ = jobs.build("recognize", seed=5)
    idx = next(i for i, job in enumerate(specs)
               if job.kind == "double_wrap" and job.command == "check")
    checker = worker.Checker(specs)
    _, code, text = worker.run_job(cli, specs[idx].argv)
    wrong = oracles.canonical({**specs[idx].data["expect"], "complete": True})
    right = oracles.canonical(specs[idx].data["expect"])
    assert text in (wrong, right)
    assert not checker.record(idx, 0, wrong)
    assert checker.known_defect == 1 and checker.failed == 0


def test_known_answers_of_every_reject_kind():
    for command in ("check", "classify"):
        for kind in jobs.REJECT_KINDS:
            for k in (2, 3):
                job = jobs.fan_job(random.Random(k), command, k, kind)
                _, code, text = worker.run_job(cli, job.argv)
                assert oracles.CHECKS[command](job, code, text) is None, (
                    command, kind, k, text)


def test_fano_oracle_agrees_with_the_library():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(1, 4)
        entries = jobs.random_entries(rng, k, -2, 2)
        rows = oracles.bott_rows(k, entries)
        fan = build_fan(IntegralSequence(k, entries), k)
        assert oracles.tower_fano(rows, k) is is_fano(fan)


def test_every_deck_has_enough_latency_samples():
    for workload in jobs.DECKS:
        specs, deck = jobs.build(workload, seed=1)
        assert len(deck) >= 100
        assert sorted(set(deck)) == list(range(len(specs)))
        assert jobs.build(workload, seed=1)[1] == deck


def test_declared_layer_metrics_all_have_a_source():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    names = [m["name"] for m in declared["per_layer"]]
    assert all(tracing.is_metric(name) for name in names)
    assert not tracing.is_metric("fans.no_such_function.ms")
