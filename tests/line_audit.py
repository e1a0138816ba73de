"""Line audit: every executable line of `monoslice` is run by a test, or is allowed,
and every definition in it is used by the package itself, or is an entry point.

Run from the repository root:

    PYTHONPATH=src python tests/line_audit.py

It needs Python 3.12 or later. It runs pytest in-process over `tests/`
with a `sys.monitoring` LINE callback, which sees every thread, and
follows the `python -m monoslice` children that tests start through a
`sitecustomize.py` put first on their PYTHONPATH. It then prints each line
below module level that no test ran, and exits 1 if any of them is not in
ALLOWED, if an ALLOWED entry's text is on no line of its file (the line was
edited or deleted), or if a test failed. An entry whose line some test
reached is only noted. Module top level runs on import, so only the lines
of functions, methods and class bodies are counted.

Tier-1's Hypothesis tests run under the `line-audit` profile of
`tests/conftest.py`: derandomized, with the default example counts and no
example database. So they draw the same examples on every run, a line that
only drawn examples reach is reached on every run or on none, and the audit
gives the same verdict each time.

ALLOWED holds only safety handlers that no in-process test can trigger and
the interface declarations of `ExecutionContext`. An entry names a file and
a line's stripped source text, so it survives edits elsewhere in the file.

A line only tests call counts as reached, so the audit also reads the
package's source and prints each function, class or method that nothing in
the package refers to, and exits 1 if any of them is not in ENTRY_POINTS or
if an ENTRY_POINTS entry names a definition that is gone or that the package
now uses. A function or class is used when a name, an import or an attribute
uses its name, or a string constant other than a docstring holds it as a
word: the interpreter's generated code calls its helpers from source text. A
method is used when an attribute uses its name, or a string constant holds
it after a dot. Dunder methods are exempt.
"""

from __future__ import annotations

import importlib.util
import os
import re
import sys
import tempfile
from pathlib import Path

# (file under the package, stripped source line) -> why no test reaches it
ALLOWED = {
    # safety handlers: each catches what no code path in the package is known to raise
    ("runtime/transport.py", "except OSError:"):
        "a connection already gone when close shuts its reading side",
    ("runtime/transport.py", "except OSError:  # the client went away, or stopped reading its response"):
        "a client that vanishes mid-request, which loopback tests cannot time",
    ("runtime/transport.py", "pass"):
        "the two handlers above",
    # interface declarations: the runtime and the tests supply their own contexts
    ("runtime/interpreter.py", "raise NotImplementedError"):
        "ExecutionContext's solicit, send_oneway, receive and rebind",
}

# (file under the package, qualified name) -> why it is kept though nothing in
# the package uses it: the callers outside the package it is for
ENTRY_POINTS = {
    ("runtime/system.py", "RunningSystem.invoke_rr"):
        "the Python caller's request-response call into a running system (tests, perfbench)",
    ("runtime/system.py", "RunningSystem.invoke_ow"):
        "the Python caller's one-way call into a running system (tests)",
    ("values.py", "ValueTree.make"):
        "builds a message from Python values in one expression, as tests write theirs",
    ("runtime/interpreter.py", "compile_expr"):
        "compiles one expression alone, which the interpreter's differential against its model runs",
}

# a child's sitecustomize.py, which Python imports at startup from the first
# PYTHONPATH entry: it loads this file and arms a Collector until the child exits
CHILD_TRACER = """\
import atexit, importlib.util
spec = importlib.util.spec_from_file_location("line_audit", {script!r})
audit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(audit)
collector = audit.Collector({root!r})
collector.arm()
atexit.register(collector.write, {out!r})
"""


class Collector:
    """Records (file, line) for every line run in files under `root`, on every thread.

    The callback disables the code location it is called from, so each
    location costs one call.
    """

    def __init__(self, root: str):
        self.root = root
        self.hits: set[tuple[str, int]] = set()

    def _line(self, code, line):
        if code.co_filename.startswith(self.root):
            self.hits.add((code.co_filename, line))
        return sys.monitoring.DISABLE

    def arm(self) -> None:
        monitoring = sys.monitoring
        monitoring.use_tool_id(monitoring.COVERAGE_ID, "line_audit")
        monitoring.register_callback(monitoring.COVERAGE_ID, monitoring.events.LINE, self._line)
        monitoring.set_events(monitoring.COVERAGE_ID, monitoring.events.LINE)

    def disarm(self) -> None:
        sys.monitoring.set_events(sys.monitoring.COVERAGE_ID, 0)
        sys.monitoring.free_tool_id(sys.monitoring.COVERAGE_ID)

    def write(self, directory: str) -> None:
        """Write the hits to a file of this process's own in directory."""
        with open(Path(directory, f"hits-{os.getpid()}.txt"), "w", encoding="utf-8") as out:
            out.writelines(f"{name}\t{line}\n" for name, line in self.hits)


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


def uncalled_definitions(package: Path) -> dict[tuple[str, str], int]:
    """(file, qualified name) -> line, of each definition nothing in the package uses."""
    import ast  # here, not at the top: every traced child loads this file too

    definitions = []  # (file, qualified name, line, name, whether a method)
    names: set[str] = set()  # used by a name or an import
    attributes: set[str] = set()
    texts = []  # every string constant but the docstrings
    for path in sorted(package.rglob("*.py")):
        relative = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        pending = [(tree, "", False)]  # (node, qualified prefix, whether in a class body)
        while pending:
            node, prefix, in_class = pending.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    is_class = isinstance(child, ast.ClassDef)
                    name = prefix + child.name
                    definitions.append((relative, name, child.lineno, child.name, in_class and not is_class))
                    pending.append((child, name + ".", is_class))
                else:
                    pending.append((child, prefix, in_class))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    texts.append(node.value)
    text = "\n".join(texts)
    uncalled = {}
    for relative, qualified, line, name, is_method in definitions:
        if name.startswith("__") and name.endswith("__") or name in attributes:
            continue
        if is_method:
            used = re.search(rf"\.{re.escape(name)}\b", text)
        else:
            used = name in names or re.search(rf"\b{re.escape(name)}\b", text)
        if not used:
            uncalled[relative, qualified] = line
    return uncalled


def read_child_hits(directory: str) -> set[tuple[str, int]]:
    hits = set()
    for path in Path(directory).glob("hits-*.txt"):
        for row in path.read_text(encoding="utf-8").splitlines():
            name, line = row.split("\t")
            hits.add((name, int(line)))
    return hits


def main() -> int:
    if not hasattr(sys, "monitoring"):
        print("line audit needs Python 3.12 or later: sys.monitoring", file=sys.stderr)
        return 2
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
    tool = sys.monitoring.get_tool(sys.monitoring.COVERAGE_ID)
    if tool is not None:  # coverage.py's sys.monitoring core, say
        print(f"line audit needs sys.monitoring's coverage tool id, which {tool} holds", file=sys.stderr)
        return 2
    collector = Collector(str(package))

    with tempfile.TemporaryDirectory(prefix="line-audit-") as child_dir:
        Path(child_dir, "sitecustomize.py").write_text(
            CHILD_TRACER.format(script=str(tests / "line_audit.py"), root=str(package), out=child_dir),
            encoding="utf-8",
        )
        child_path = os.pathsep.join(filter(None, [child_dir, os.environ.get("PYTHONPATH")]))
        collector.arm()
        try:
            # tests/conftest.py loads the profile
            with mock.patch.dict(os.environ, PYTHONPATH=child_path, HYPOTHESIS_PROFILE="line-audit"):
                status = pytest.main(["-q", "-p", "no:cacheprovider", str(tests)])
        finally:
            collector.disarm()
        hits = collector.hits | read_child_hits(child_dir)

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
    stale = 0
    for relative, text in sorted(ALLOWED.keys() - used):
        path = package / relative
        source = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        if text in (line.strip() for line in source):  # a handler some test reached
            print(f"note: no unreached line of {relative} reads {text!r}")
        else:
            stale += 1
            print(f"stale: no line of {relative} reads {text!r}")
    print(f"line audit: {unreached} unreached line(s) outside ALLOWED, {allowed} allowed, {stale} stale")

    uncalled = uncalled_definitions(package)
    outside = 0
    for (relative, name), line in sorted(uncalled.items()):
        if (relative, name) not in ENTRY_POINTS:
            outside += 1
            where = (package / relative).relative_to(package.parent.parent)
            print(f"{where}:{line}: nothing in the package uses {name}")
    entry_stale = 0
    for relative, name in sorted(ENTRY_POINTS.keys() - uncalled.keys()):
        entry_stale += 1
        print(f"stale: {relative} defines no {name}, or the package uses it")
    print(
        f"definition audit: {outside} uncalled definition(s) outside ENTRY_POINTS, "
        f"{len(ENTRY_POINTS) - entry_stale} entry point(s), {entry_stale} stale"
    )
    if status != 0:
        print(f"line audit: pytest exited {int(status)}", file=sys.stderr)
        return 1
    return 1 if unreached or stale or outside or entry_stale else 0


if __name__ == "__main__":
    sys.exit(main())
