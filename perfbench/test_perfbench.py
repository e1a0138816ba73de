"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench

Each workload passes all of its checks, a wrong fixture makes the query
checks fail, and the traced run yields every per-layer metric on the
workloads that exercise its layer.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_program_from_checkout()

import calls  # noqa: E402
import corpus  # noqa: E402
from measure import MIN_TIMED_OPS, Run, Tracer, slower_rounds  # noqa: E402

SEED = 7
FRONT_END = {
    "lexer.tokenize_ms",
    "lexer.tokens",
    "parser.parse_ms",
    "semantics.resolve_ms",
    "semantics.resolve_calls",
    "slicer.slice_ms",
    "render.render_ms",
    "deploy.plan_ms",
}
RUNTIME = {
    "system.start_ms",
    "system.offer_rr_us",
    "semantics.check_value_us",
    "semantics.check_value_calls",
    "interpreter.exec_us",
    "interpreter.statements",
}
WIRE = {
    "values.encode_json_us",
    "values.decode_json_us",
    "values.json_bytes",
    "transport.http_rr_us",
    "transport.connects",
}


def tiny_corpus():
    return corpus.build_corpus(SEED, bands=range(0, 1000, 500), per_bin=1, monoliths={2: 1})


def tiny(workload: str, tracer=None, source=None):
    if workload == "slice-corpus":
        return corpus.slice_corpus(
            SEED, 1, tracer, corpus=tiny_corpus(), setup_repeats=1
        )
    if workload == "command-local":
        return calls.command(SEED, 1, tracer, source=source)
    return calls.query(workload.split("-")[1], SEED, 1, tracer, source=source)[0]


def test_slice_corpus_passes_its_checks():
    result = tiny("slice-corpus")
    assert result.problems == []
    assert result.failed == 0
    assert result.attempted == len(tiny_corpus())


def test_monolith_copies_are_renamed_fixtures():
    items = tiny_corpus()
    monolith = next(item for item in items if item.kind == "monolith")
    assert monolith.copies == 2
    assert "service QuerySide_2( config )" in monolith.text
    assert "config.EventStore_1.location" in monolith.text


@pytest.mark.parametrize("transport", ["local", "socket"])
def test_query_fails_only_the_never_created_ids(transport):
    result, _ = calls.query(transport, SEED, 1)
    assert result.problems == []
    # the EventStore.lookup fault answers every never-created id with a stale event
    assert result.attempted == 81
    assert result.failed == len(calls.MISSES)


def test_query_outcomes_are_the_same_on_both_transports():
    _, local = calls.query("local", SEED, 1)
    _, remote = calls.query("socket", SEED, 1)
    assert local == remote


def test_command_local_passes_its_checks():
    result = tiny("command-local")
    assert result.problems == []
    assert result.failed == 0
    assert result.attempted == calls.CALLERS * 108


def wrong_lookup_fixture() -> str:
    """The fixture with EventStore.lookup matching the id after the one asked for."""
    source = calls.fixture_source()
    match = "if( state.log[i].id == id )"
    assert source.count(match) == 1
    return source.replace(match, "if( state.log[i].id == id + 1L )")


@pytest.mark.parametrize("workload", ["query-local", "query-socket", "command-local"])
def test_a_wrong_lookup_fails_the_checks(workload):
    result = tiny(workload, source=wrong_lookup_fixture())
    assert result.problems


@pytest.mark.parametrize(
    "workload, exercised",
    [
        ("slice-corpus", FRONT_END),
        ("query-local", RUNTIME),
        ("query-socket", RUNTIME | WIRE),
        ("command-local", RUNTIME),
    ],
)
def test_traced_run_yields_every_layer_metric(workload, exercised):
    tracer = Tracer()
    tracer.install()
    try:
        result = tiny(workload, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(len(result.latencies_ns))
    assert set(metrics) == FRONT_END | RUNTIME | WIRE
    assert result.problems == []
    assert {name for name in exercised if metrics[name][0] <= 0} == set()
    if workload != "query-socket":
        assert metrics["transport.connects"][0] == 0


def rounds_of(*sizes: int, stolen=None) -> Run:
    result = Run()
    for round_number, size in enumerate(sizes):
        result.latencies_ns += [1000 * (round_number + 1)] * size
        result.add_round(size, 0.5, stolen[round_number] if stolen else 0)
    return result


def latencies_of(rounds) -> list[int]:
    return sorted({ns for latencies, _ in rounds for ns in latencies})


def test_timings_come_from_the_rounds_without_steal():
    assert MIN_TIMED_OPS == 1000
    assert latencies_of(rounds_of(*[500] * 4, stolen=[1, 0, 0, 0]).unstolen_rounds()) == [2000, 3000, 4000]
    # too few operations without steal: the least stolen rounds make up the rest
    assert latencies_of(rounds_of(*[500] * 4, stolen=[3, 0, 1, 2]).unstolen_rounds()) == [2000, 3000]


def test_slower_rounds_are_those_with_the_highest_median():
    latencies, seconds = slower_rounds(rounds_of(*[10] * 10).unstolen_rounds())
    assert sorted(set(latencies)) == [8000, 9000, 10000]
    assert seconds == 1.5


def test_a_run_does_a_fixed_number_of_rounds():
    assert run.OPS_PER_ROUND == {
        "slice-corpus": len(corpus.build_corpus(SEED)),
        "query-local": calls.AREAS * len(calls.READS) + len(calls.MISSES),
        "query-socket": calls.AREAS * len(calls.READS) + len(calls.MISSES),
        "command-local": calls.CALLERS * 108,
    }
    assert run.rounds_for("query-local", 10) == 70
    assert run.rounds_for("command-local", 1) == 5  # at least MIN_TIMED_OPS operations


def test_uninstall_restores_the_program():
    from monoslice import parser
    from monoslice.runtime import system

    before = (parser.tokenize, system.ServiceInstance.offer_rr, system.check_value)
    tracer = Tracer()
    tracer.install()
    assert parser.tokenize is not before[0]
    tracer.uninstall()
    assert (parser.tokenize, system.ServiceInstance.offer_rr, system.check_value) == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-local", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
