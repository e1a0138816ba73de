import json
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


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


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
    """A socket:// config on 127.0.0.1 with fresh ports for each service."""
    ports = ports or {name: free_port() for name in service_names}
    obj = {name: {"location": f"socket://127.0.0.1:{port}"} for name, port in ports.items()}
    return decode_json(json.dumps(obj)), ports


@pytest.fixture()
def fixture_path() -> Path:
    return FIXTURES / "smart-city.ol"


@pytest.fixture()
def local_config_path() -> Path:
    return FIXTURES / "local.json"
