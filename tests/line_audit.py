"""Line audit: every executable line of `monoslice` is run by a test, or is allowed.

Run from the repository root:

    PYTHONPATH=src python tests/line_audit.py

It runs pytest in-process over `tests/` with a line tracer on every thread,
and follows the `python -m monoslice` children that tests start through a
`sitecustomize.py` put first on their PYTHONPATH. It then prints each line
below module level that no test ran, and exits 1 if any of them is not in
ALLOWED (or if a test failed). Module top level runs on import, so only the
lines of functions, methods and class bodies are counted.

Tier-1's Hypothesis tests run under the `line-audit` profile of
`tests/conftest.py`: derandomized, with the default example counts and no
example database. So they draw the same examples on every run, a line that
only drawn examples reach is reached on every run or on none, and the audit
gives the same verdict each time.

ALLOWED holds only safety handlers that no in-process test can trigger and
the interface declarations of `ExecutionContext`. An entry names a file and
a line's stripped source text, so it survives edits elsewhere in the file.

A thread's tracer is called one frame deeper than the code it traces, so it
is what reaches the recursion limit, and Python unsets a tracer that raises:
the lines a thread runs after a RecursionError from deep recursion are not
seen until the next test re-arms it. Tests reach such handlers with a stub
that raises RecursionError at once.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
import threading
from pathlib import Path

# (file under the package, stripped source line) -> why no test reaches it
ALLOWED = {
    # safety handlers: each catches what no code path in the package is known to raise
    ("runtime/pool.py", "except Exception:  # a job's bug must not cost the pool a thread"):
        "a job that raises; every job the runtime submits handles its own errors",
    ("runtime/pool.py", 'log.exception("unhandled error in %s", self.name)'):
        "the same handler",
    ("runtime/system.py", "except Exception as exc:  # defensive: a handler bug must not kill the worker"):
        "an activation that raises past the interpreter, which turns every error into a fault",
    ("runtime/system.py", 'log.exception("internal error in %s.%s", self.name, operation)'):
        "the same handler",
    ("runtime/system.py", 'outcome = Fault("InternalError", ValueTree(str(exc)))'):
        "the same handler",
    ("runtime/system.py", "except Exception:"):
        "a server that fails to close while start unwinds a failed bind",
    ("runtime/system.py", "pass"):
        "the same handler",
    ("runtime/transport.py", "except OSError:"):
        "a connection already gone when close shuts its reading side",
    ("runtime/transport.py", "except OSError:  # the client went away, or stopped reading its response"):
        "a client that vanishes mid-request, which loopback tests cannot time",
    ("runtime/transport.py", "pass"):
        "the two handlers above",
    ("runtime/transport.py", "except ValueError as exc:  # say, an integer with more digits than JSON converts"):
        "a reply the port admitted yet JSON cannot encode; every reply is taken to its image first",
    ("runtime/transport.py", 'status, body = 500, _mismatch(f"the reply cannot be encoded: {exc}")'):
        "the same handler",
    # interface declarations: the runtime and the tests supply their own contexts
    ("runtime/interpreter.py", "raise NotImplementedError"):
        "ExecutionContext's solicit, send_oneway, receive and rebind",
}

# a child's sitecustomize.py, which Python imports at startup from the first
# PYTHONPATH entry: it loads this file and arms a Tracer until the child exits
CHILD_TRACER = """\
import atexit, importlib.util
spec = importlib.util.spec_from_file_location("line_audit", {script!r})
audit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(audit)
tracer = audit.Tracer({root!r})
tracer.arm()
atexit.register(tracer.write, {out!r})
"""


class Tracer:
    """Records (file, line) for every line run in files under `root`."""

    def __init__(self, root: str):
        self.root = root
        self.hits: set[tuple[str, int]] = set()

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.root):
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
            return self._line
        return None

    def arm(self) -> None:
        # other tracers (Hypothesis's among them) replace this one; tests
        # re-arm it at setup and call, and threads started later inherit it
        sys.settrace(self._call)
        threading.settrace(self._call)

    def write(self, directory: str) -> None:
        """Write the hits to a file of this process's own in directory."""
        with open(Path(directory, f"hits-{os.getpid()}.txt"), "w", encoding="utf-8") as out:
            out.writelines(f"{name}\t{line}\n" for name, line in self.hits)

    # pytest hooks: the plugin is this object
    def pytest_runtest_setup(self, item):
        self.arm()

    def pytest_runtest_call(self, item):
        self.arm()


def executable_lines(path: Path) -> set[int]:
    """The lines of every code object below the module's own."""
    lines: set[int] = set()
    pending = [c for c in compile(path.read_text(encoding="utf-8"), str(path), "exec").co_consts
               if hasattr(c, "co_lines")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def read_child_hits(directory: str) -> set[tuple[str, int]]:
    hits = set()
    for path in Path(directory).glob("hits-*.txt"):
        for row in path.read_text(encoding="utf-8").splitlines():
            name, line = row.split("\t")
            hits.add((name, int(line)))
    return hits


def main() -> int:
    # imported here, not at the top: every traced child loads this file too
    from unittest import mock

    import pytest

    # find the package without importing it, so its class bodies are traced
    spec = importlib.util.find_spec("monoslice")
    if spec is None or spec.origin is None:
        print("monoslice is not importable; run with PYTHONPATH=src", file=sys.stderr)
        return 2
    package = Path(spec.origin).resolve().parent
    tests = Path(__file__).resolve().parent
    tracer = Tracer(str(package))

    with tempfile.TemporaryDirectory(prefix="line-audit-") as child_dir:
        Path(child_dir, "sitecustomize.py").write_text(
            CHILD_TRACER.format(script=str(tests / "line_audit.py"), root=str(package), out=child_dir),
            encoding="utf-8",
        )
        child_path = os.pathsep.join(filter(None, [child_dir, os.environ.get("PYTHONPATH")]))
        tracer.arm()
        try:
            # tests/conftest.py loads the profile
            with mock.patch.dict(os.environ, PYTHONPATH=child_path, HYPOTHESIS_PROFILE="line-audit"):
                status = pytest.main(["-q", "-p", "no:cacheprovider", str(tests)], plugins=[tracer])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        hits = tracer.hits | read_child_hits(child_dir)

    reached: dict[Path, set[int]] = {}
    for name, line in hits:
        reached.setdefault(Path(name).resolve(), set()).add(line)

    unreached = allowed = 0
    used = set()
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - reached.get(path, set())):
            text = source[line - 1].strip()
            reason = ALLOWED.get((relative, text))
            used.add((relative, text))
            if reason is None:
                unreached += 1
                print(f"{path.relative_to(package.parent.parent)}:{line}: {text}")
            else:
                allowed += 1
    for relative, text in sorted(ALLOWED.keys() - used):  # a handler some run reached, or stale
        print(f"note: no unreached line of {relative} reads {text!r}")
    print(f"line audit: {unreached} unreached line(s) outside ALLOWED, {allowed} allowed")
    if status != 0:
        print(f"line audit: pytest exited {int(status)}", file=sys.stderr)
        return 1
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
