import contextlib
import gc
import json
import logging
import os
import socket
import time
from pathlib import Path

import pytest
from hypothesis import settings

import monoslice
from monoslice.config import load_config
from monoslice.parser import parse_source
from monoslice.runtime import TransportError, http_invoke_rr
from monoslice.semantics import resolve
from monoslice.values import decode_json

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "monoslice" / "fixtures"

# CI's longer, seeded run of the interpreter differential; tests that set
# their own max_examples keep it under this profile too
settings.register_profile("ci", derandomize=True, max_examples=3000)
# tests/line_audit.py's run: the default example counts, drawn the same way
# on every run, with no example database to replay from
settings.register_profile("line-audit", derandomize=True, database=None)
if os.environ.get("HYPOTHESIS_PROFILE") in ("ci", "line-audit"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

# the directory holding the monoslice package this test process imported
PACKAGE_ROOT = str(Path(monoslice.__file__).resolve().parent.parent)


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Let every `python -m monoslice` child import the package under test.

    A relative PYTHONPATH (say `src`) stops resolving once a child runs in
    another directory, such as a slice folder; putting the absolute package
    root first makes the children independent of their working directory.
    """
    entries = [PACKAGE_ROOT, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(entries))
        yield


@pytest.fixture(autouse=True)
def no_runtime_error(request):
    """Fail a test in which the `monoslice` logger emits an ERROR record.

    A test that expects one requests caplog and checks the record there;
    such a test is left to do so.
    """
    handler = logging.Handler(logging.ERROR)
    records = []
    handler.emit = records.append
    logger = logging.getLogger("monoslice")
    logger.addHandler(handler)
    yield
    logger.removeHandler(handler)
    if records and "caplog" not in request.fixturenames:
        formatter = logging.Formatter("%(name)s: %(message)s")
        pytest.fail("\n".join(formatter.format(record) for record in records), pytrace=False)


@pytest.fixture(scope="session")
def fixture_source() -> str:
    return (FIXTURES / "smart-city.ol").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def fixture_program(fixture_source):
    return parse_source(fixture_source, source_name="smart-city")


@pytest.fixture(scope="session")
def fixture_checked(fixture_program):
    return resolve(fixture_program)


@pytest.fixture(scope="session")
def local_config():
    return load_config(FIXTURES / "local.json")


@pytest.fixture(scope="session")
def deploy_config_path() -> Path:
    return FIXTURES / "deploy.json"


@contextlib.contextmanager
def no_cyclic_garbage():
    """Fail unless reference counting alone frees all that the block made.

    The cycle collector runs first and is off during the block, so a
    collection at its end finds exactly the cycles the block left behind.
    """
    gc.collect()
    gc.disable()
    try:
        yield
        assert gc.collect() == 0
    finally:
        gc.enable()


def free_ports(count: int) -> list[int]:
    """Distinct loopback ports that were free a moment ago.

    Every probe socket stays bound until all the ports are read, so that
    no two of them get the same port.
    """
    with contextlib.ExitStack() as stack:
        sockets = [stack.enter_context(socket.socket()) for _ in range(count)]
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]


def call_once_serving(process, location, operation, request):
    """Call `operation` as soon as the child `process` serves `location`.

    Fails at once, with the child's stderr, if the child exits first, and
    returns None if nothing answers within 10 s.
    """
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"child exited with status {process.returncode} before serving:\n"
                + process.stderr.read().decode(errors="replace")
            )
        try:
            return http_invoke_rr(location, operation, request, 5)
        except TransportError:
            time.sleep(0.1)
    return None


def loopback_config(service_names, ports=None):
    """A socket:// config on 127.0.0.1 with a distinct fresh port for each service."""
    if not ports:
        names = list(service_names)
        ports = dict(zip(names, free_ports(len(names))))
    obj = {name: {"location": f"socket://127.0.0.1:{port}"} for name, port in ports.items()}
    return decode_json(json.dumps(obj)), ports


@pytest.fixture()
def fixture_path() -> Path:
    return FIXTURES / "smart-city.ol"


@pytest.fixture()
def local_config_path() -> Path:
    return FIXTURES / "local.json"
