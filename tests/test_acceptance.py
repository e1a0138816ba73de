"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import contextlib
import functools
import hashlib
import json
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from hypothesis import given, settings

from monoslice import runtime
from monoslice.ast import Literal
from monoslice.config import Location
from monoslice.parser import parse_source
from monoslice.render import render
from monoslice.runtime import Fault, http_invoke_rr
from monoslice.semantics import resolve
from monoslice.slicer import slice_all
from monoslice.values import Long, ValueTree, decode_json, encode_json

from conftest import FIXTURES, call_once_serving, free_ports
from oracle import removable_declarations
from proggen import random_program
from script import COLLECTOR, area, corrupted_fixture_source, run_script
from test_parser import COMMAND_SIDE, INTERFACE, SKELETON, TEST_SNIPPET, TYPES, wrap_in_service
from test_values import trees

FIXTURE = FIXTURES / "smart-city.ol"
LOCAL_CONFIG = FIXTURES / "local.json"
DEPLOY_CONFIG = FIXTURES / "deploy.json"


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL: criterion {number}: {title}")
                raise
            print(f"PASS: criterion {number}: {title}")

        return wrapper

    return decorate


def cli(*argv, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "monoslice", *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@criterion(1, "smart-city fixture checks, runs green in under 5s, and fails when mutated")
def test_criterion_1_fixture_end_to_end(tmp_path, fixture_source):
    # the bundled program embeds the reference listings line for line
    fixture_lines = {line.strip() for line in fixture_source.splitlines()}
    for listing in (TYPES, INTERFACE, COMMAND_SIDE, TEST_SNIPPET):
        for line in listing.splitlines():
            stripped = line.strip()
            if not stripped or "..." in stripped or "/*" in stripped:
                continue  # skeleton listings keep their bodies elided
            assert stripped in fixture_lines, f"fixture is missing listing line: {stripped!r}"

    assert cli("check", FIXTURE).returncode == 0

    started = time.monotonic()
    result = cli("run", "--config", LOCAL_CONFIG, FIXTURE, timeout=30)
    elapsed = time.monotonic() - started
    assert result.returncode == 0, result.stderr
    assert elapsed < 5.0, f"run took {elapsed:.2f}s"

    mutated = tmp_path / "smart-city.ol"
    mutated.write_text(corrupted_fixture_source(fixture_source))
    result = cli("run", "--config", LOCAL_CONFIG, mutated, timeout=30)
    assert result.returncode == 1, (result.returncode, result.stdout, result.stderr)
    assert "AssertionFailed" in result.stdout


@criterion(2, "slice reproduces the reference output layout, Dockerfile, and compose entries")
def test_criterion_2_slicing_reproduction(tmp_path):
    out = tmp_path / "smart-city-sliced"
    result = cli(
        "slice", "--config", DEPLOY_CONFIG, "--exclude", "TestClient",
        "--output", out, FIXTURE,
    )
    assert result.returncode == 0, result.stderr

    assert sorted(p.name for p in out.iterdir()) == [
        "commandside", "docker-compose.yml", "eventstore", "queryside",
    ]
    for folder, service in (
        ("commandside", "CommandSide"),
        ("queryside", "QuerySide"),
        ("eventstore", "EventStore"),
    ):
        assert {p.name for p in (out / folder).iterdir()} == {
            f"{service}.ol", "deploy.json", "Dockerfile",
        }
        dockerfile = (out / folder / "Dockerfile").read_text()
        assert dockerfile == (
            "FROM monoslice-runtime\n"
            f"COPY {service}.ol .\n"
            "COPY deploy.json .\n"
            f'CMD ["monoslice", "--config", "deploy.json", "--service", "{service}", "{service}.ol"]\n'
        )
        assert (out / folder / "deploy.json").read_bytes() == DEPLOY_CONFIG.read_bytes()

    compose = (out / "docker-compose.yml").read_text()
    assert "build: ./commandside" in compose
    assert "replicas: 1" in compose


@criterion(3, "200 random programs slice soundly and minimally in under 60s")
def test_criterion_3_slice_soundness_and_minimality():
    started = time.monotonic()
    for seed in range(200):
        program = random_program(random.Random(seed), max_decls=30, max_services=5)
        checked = resolve(program)
        for name, sliced in slice_all(checked).items():
            resolve(sliced)  # sound: no dangling references
            extras = removable_declarations(sliced)
            assert extras == [], f"seed {seed}, slice {name}: removable {extras}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(4, "scripted RPCs agree exactly between one local process and four OS processes")
def test_criterion_4_transport_transparency(fixture_checked, tmp_path):
    # (a) whole architecture in this process over local:// locations
    local_config = decode_json(LOCAL_CONFIG.read_bytes())
    with runtime.start(fixture_checked, local_config) as system:
        verdict_a = system.wait_executables(timeout=20)["TestClient"]
        outcomes_a = run_script(
            lambda service, op, req: system.invoke_rr(service, op, req),
            "local://testclient",
        )
    assert verdict_a is None

    # (b) four sliced codebases, one OS process each, loopback HTTP
    names = ("QuerySide", "CommandSide", "EventStore", "TestClient")
    ports = dict(zip(names, free_ports(len(names))))
    config_path = tmp_path / "loopback.json"
    config_path.write_text(
        json.dumps(
            {name: {"location": f"socket://127.0.0.1:{port}"} for name, port in ports.items()}
        )
    )
    sliced_root = tmp_path / "sliced"
    assert cli("slice", "--config", config_path, "--output", sliced_root, FIXTURE).returncode == 0

    def run_service(name: str) -> subprocess.Popen:
        folder = sliced_root / name.lower()
        return subprocess.Popen(
            [
                sys.executable, "-m", "monoslice", "run",
                "--config", str(folder / "deploy.json"),
                "--service", name, str(folder / f"{name}.ol"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )

    # leaving the with blocks closes the children's pipes and reaps them
    with contextlib.ExitStack() as children:
        names = ("QuerySide", "CommandSide", "EventStore")
        servers = [children.enter_context(run_service(name)) for name in names]
        try:
            for name, server in zip(names, servers):
                location = Location.socket("127.0.0.1", ports[name])
                if call_once_serving(server, location, "bogus", ValueTree()) is None:
                    raise AssertionError(f"port {ports[name]} never started serving")
            with run_service("TestClient") as test_client:
                try:
                    verdict_b = test_client.wait(timeout=30)
                    assert verdict_b == 0, test_client.stderr.read().decode()
                finally:
                    test_client.kill()

            def invoke(service, operation, request):
                return http_invoke_rr(
                    Location.socket("127.0.0.1", ports[service]), operation, request, 30
                )

            outcomes_b = run_script(invoke, f"socket://127.0.0.1:{ports['TestClient']}")
        finally:
            for server in servers:
                server.terminate()
            for server in servers:
                server.wait(timeout=10)

    assert len(outcomes_a) >= 10
    assert outcomes_a == outcomes_b  # exact tree equality, identical fault names


@criterion(5, "decode(encode(tree)) is the identity on 1000 random value trees")
def test_criterion_5_json_round_trip():
    @settings(max_examples=1000, deadline=None)
    @given(trees)
    def round_trip(tree):
        assert decode_json(encode_json(tree)) == tree

    round_trip()


@criterion(6, "two consecutive slice runs produce byte-identical output trees")
def test_criterion_6_determinism(tmp_path):
    digests = []
    for attempt in ("first", "second"):
        out = tmp_path / attempt
        result = cli(
            "slice", "--config", DEPLOY_CONFIG, "--exclude", "TestClient",
            "--output", out, FIXTURE,
        )
        assert result.returncode == 0, result.stderr
        digests.append(tree_digest(out))
    assert digests[0] == digests[1]


@criterion(7, "8 concurrent creates get distinct ids without leakage; one-way FIFO holds for 1000")
def test_criterion_7_concurrency(fixture_checked):
    local_config = decode_json(LOCAL_CONFIG.read_bytes())
    with runtime.start(
        fixture_checked, local_config, ["CommandSide", "EventStore"]
    ) as system:
        with ThreadPoolExecutor(max_workers=8) as pool:
            replies = list(
                pool.map(
                    lambda i: system.invoke_rr("CommandSide", "createParkingArea", area(f"p{i}")),
                    range(8),
                )
            )
        faults = [r.name for r in replies if isinstance(r, Fault)]
        assert faults == [], faults  # a leaked scope would raise ScopeLeak
        ids = {int(r.root) for r in replies}
        assert len(ids) == 8

    collector = resolve(parse_source(COLLECTOR))
    config = decode_json('{"Collector":{"location":"local://collector"}}')
    with runtime.start(collector, config) as system:
        for i in range(1000):
            system.invoke_ow("Collector", "put", ValueTree(i))
        drained = system.invoke_rr("Collector", "drain", ValueTree())
        assert [int(t.root) for t in drained.children["items"]] == list(range(1000))


@criterion(8, "every reference listing parses and the locked syntax shapes hold")
def test_criterion_8_grammar_fidelity(fixture_source):
    skeleton = parse_source(SKELETON)
    assert [s.name for s in skeleton.services] == ["QuerySide", "CommandSide", "EventStore"]

    types = parse_source(TYPES)
    assert [d.name for d in types.declarations] == [
        "PAID", "ParkingArea", "ParkingAreaInformation",
    ]
    assert types.declarations[0].root.value == "long"
    assert [f.cardinality.value for f in types.declarations[2].fields] == ["", "*", "", ""]

    interface = parse_source(INTERFACE).declarations[0]
    assert [(op.name) for op in interface.request_responses] == [
        "createParkingArea", "updateParkingArea", "deleteParkingArea",
    ]

    command_side = parse_source(COMMAND_SIDE).declarations[0]
    assert command_side.execution.value == "concurrent"
    assert [p.name for p in command_side.ports()] == ["InputCommands", "EventStore"]

    snippet = parse_source(wrap_in_service(TEST_SNIPPET))
    statements = snippet.services[0].behavior.statements
    assert [type(s).__name__ for s in statements] == [
        "SolicitResponse", "SolicitResponse", "Receive", "If",
    ]
    assert statements[1].argument == Literal(Long(123))

    # the bundled fixture embeds all of the above and parses as one program
    program = parse_source(fixture_source, "smart-city")
    assert render(parse_source(render(program), "smart-city")) == render(program)
