"""What one benchmark run measures: the timed record, and spans for the traced run.

A workload fills a `Run`: the latency of every timed operation, the
wall time of the timed phase, the set-up samples, and the operations
that failed or broke a check. `end_to_end_metrics` turns it into the
user-visible figures.

For the traced run a `Tracer` replaces functions of the program at the
module attribute through which their caller looks them up, so the
program itself is unchanged. Each call becomes a span (name, start,
end, thread). Spans stay in memory and are written out when the run
ends. The traced run drives a single caller, so the spans of one
operation nest in time even when they sit on different threads; the
innermost span that contains another is its parent, and a span's self
time is its duration minus the time its children cover.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from monoslice import deploy, parser, runtime, semantics, slicer
from monoslice.runtime import interpreter, system, transport

# a run times at least this many operations, and p99 is taken over at least
# this many, so at least ten lie beyond it
MIN_TIMED_OPS = 1000
# The timings come from the rounds whose CPU the hypervisor gave to no other
# guest (Run.unstolen_rounds): in spells of steal, calls wait for the CPU
# itself, and those spells come in some runs and not in others. Rate and
# median come from this share of those rounds, the ones with the highest
# median latency: the host also changes speed for tens of seconds at a time,
# and its fast spells come in some runs and not in others. All rounds of a
# workload do the same work.
SLOWER_SHARE = 0.3


@dataclass
class Run:
    latencies_ns: list[int] = field(default_factory=list)
    rounds: list[tuple[int, float, int]] = field(default_factory=list)  # (operations, seconds, stolen)
    timed_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add_round(self, ops: int, seconds: float, stolen: int = 0) -> None:
        """Close a round: its operations are the last `ops` latencies recorded.

        `stolen` is the time the hypervisor took from the round's CPU
        meanwhile, in clock ticks (CpuTurns.stolen).
        """
        self.rounds.append((ops, seconds, stolen))
        self.timed_s += seconds

    def unstolen_rounds(self) -> list[tuple[list[int], float]]:
        """(latencies, seconds) of the rounds whose CPU lost no time to other guests.

        If those hold fewer than MIN_TIMED_OPS operations, the rounds that
        lost the least time per second are added until they do.
        """
        starts = [0, *itertools.accumulate(count for count, _, _ in self.rounds)]
        chosen, ops = [], 0
        order = sorted(range(len(self.rounds)), key=lambda i: (self.rounds[i][2] / self.rounds[i][1], i))
        for i in order:
            count, seconds, stolen = self.rounds[i]
            if stolen and ops >= MIN_TIMED_OPS:
                break
            chosen.append((self.latencies_ns[starts[i]:starts[i] + count], seconds))
            ops += count
        return chosen

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:  # the first few say enough
            self.problems.append(text)
        elif len(self.problems) == 20:
            self.problems.append("... further problems not listed")


def slower_rounds(rounds: list[tuple[list[int], float]]) -> tuple[list[int], float]:
    """Latencies and seconds of the SLOWER_SHARE of `rounds` with the highest median latency."""
    rounds = sorted(rounds, key=lambda r: statistics.median(r[0]), reverse=True)
    chosen = rounds[:max(1, round(SLOWER_SHARE * len(rounds)))]
    return [ns for latencies, _ in chosen for ns in latencies], sum(s for _, s in chosen)


def end_to_end_metrics(run: Run) -> dict[str, tuple[float, str]]:
    steady = run.unstolen_rounds()
    slower, seconds = slower_rounds(steady)
    every = [ns for latencies, _ in steady for ns in latencies]
    p99 = statistics.quantiles(every, n=100, method="inclusive")[98]
    return {
        "ops_per_s": (len(slower) / seconds, "1/s"),
        "p50_ms": (statistics.median(slower) / 1e6, "ms"),
        "p99_ms": (p99 / 1e6, "ms"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


class CpuTurns:
    """Moves the whole process, every thread of it, to each CPU in turn.

    On the host this was built on the CPUs change speed apart from each
    other for tens of seconds, and threads that hand work to each other
    across CPUs wait erratically for the wake-up. With one CPU per round,
    in turn, handoffs stay on one CPU and every run sees each CPU alike.
    Threads started later inherit the CPU of the thread that starts them.

    `stolen` tells how much time the hypervisor gave to other guests
    while the round ran: the steal column of /proc/stat for the round's
    CPU, in clock ticks. It reads 0 where there is no such column.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self._cpu: int | None = None
        self._steal_at_take = 0

    def take(self, turn: int) -> None:
        if self.cpus:
            self._cpu = self.cpus[turn % len(self.cpus)]
            self._move({self._cpu})
        self._steal_at_take = self._steal()

    def stolen(self) -> int:
        """Ticks stolen from the current CPU (from all, if none was taken) since `take`."""
        return self._steal() - self._steal_at_take

    def release(self) -> None:
        if self.cpus:
            self._move(set(self.cpus))
        self._cpu = None

    def __enter__(self) -> "CpuTurns":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def _steal(self) -> int:
        label = "cpu" if self._cpu is None else f"cpu{self._cpu}"
        try:
            with open("/proc/stat", encoding="ascii") as stat:
                for line in stat:
                    fields = line.split()
                    if fields[0] == label:
                        return int(fields[8]) if len(fields) > 8 else 0
        except OSError:
            pass
        return 0

    @staticmethod
    def _move(cpus: set[int]) -> None:
        for task in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(task), cpus)
            except ProcessLookupError:  # the thread ended meanwhile
                pass


class _Counter:
    """Counts events from any thread; itertools.count advances atomically."""

    def __init__(self):
        self._count = itertools.count()
        self._reads = 0

    def add(self) -> None:
        next(self._count)

    def value(self) -> int:
        value = next(self._count) - self._reads
        self._reads += 1
        return value


class Tracer:
    """Spans and counts at the layer boundaries of the program."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.sizes: dict[str, list[tuple[int, int]]] = {"lexer.tokens": [], "values.json_bytes": []}
        self.counters = {"interpreter.statements": _Counter(), "transport.connects": _Counter()}
        self.windows: list[tuple[int, int]] = []
        self._counted = dict.fromkeys(self.counters, 0)
        self._window_start: tuple[int, dict[str, int]] | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        self._span(parser, "tokenize", "lexer.tokenize", size="lexer.tokens")
        self._span(parser, "parse_source", "parser.parse")
        self._span(semantics, "resolve", "semantics.resolve")
        self._span(deploy, "resolve", "semantics.resolve")
        self._span(slicer, "slice_all", "slicer.slice")
        self._span(deploy, "render", "render.render")
        self._span(deploy, "plan_deployment", "deploy.plan")
        self._span(runtime, "start", "system.start")
        self._span(system.ServiceInstance, "offer_rr", "system.offer_rr")
        self._span(system, "check_value", "semantics.check_value")
        self._span(system, "exec_statements", "interpreter.exec")
        self._span(system, "http_invoke_rr", "transport.http_rr")
        self._span(transport, "encode_json", "values.encode_json", size="values.json_bytes")
        self._span(transport, "decode_json", "values.decode_json")
        self._count(interpreter, "exec_statement", self.counters["interpreter.statements"])

        connects = self.counters["transport.connects"]

        class CountingConnection(transport.HTTPConnection):
            def connect(self):
                connects.add()
                super().connect()

        self._replace(transport, "HTTPConnection", CountingConnection)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span(self, owner, attr: str, name: str, size: str | None = None) -> None:
        original = getattr(owner, attr)
        spans = self.spans
        sizes = self.sizes[size] if size else None
        clock = time.perf_counter_ns
        ident = threading.get_ident

        def traced(*args, **kwargs):
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans.append((name, start, clock(), ident()))
            if sizes is not None:
                sizes.append((start, len(result)))
            return result

        self._replace(owner, attr, traced)

    def _count(self, owner, attr: str, counter: _Counter) -> None:
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            counter.add()
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    # -- timed windows -----------------------------------------------------------

    def begin_window(self) -> None:
        self._window_start = (time.perf_counter_ns(), self._counter_values())

    def end_window(self) -> None:
        start, before = self._window_start
        after = self._counter_values()
        for name in self._counted:
            self._counted[name] += after[name] - before[name]
        self.windows.append((start, time.perf_counter_ns()))

    def _counter_values(self) -> dict[str, int]:
        return {name: counter.value() for name, counter in self.counters.items()}

    def _in_windows(self, at: int) -> bool:
        i = bisect.bisect_right(self.windows, (at, float("inf"))) - 1
        return i >= 0 and at <= self.windows[i][1]

    # -- results -------------------------------------------------------------------

    def parents(self) -> list[int]:
        """Index of each span's parent, -1 for a root: the innermost span containing it."""
        spans = self.spans
        order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
        parent = [-1] * len(spans)
        stack: list[int] = []
        for i in order:
            while stack and spans[stack[-1]][2] <= spans[i][1]:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            stack.append(i)
        return parent

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        spans = self.spans
        parent = self.parents()
        children: list[list[int]] = [[] for _ in spans]
        for i, p in enumerate(parent):
            if p >= 0:
                children[p].append(i)

        def covered(i: int, only: str | None = None) -> int:
            """Time inside span i that its children (optionally of one name) cover."""
            lo, hi = spans[i][1], spans[i][2]
            pieces = sorted(
                (max(spans[c][1], lo), min(spans[c][2], hi))
                for c in children[i]
                if only is None or spans[c][0] == only
            )
            total, reach = 0, lo
            for start, end in pieces:
                start = max(start, reach)
                if end > start:
                    total += end - start
                    reach = end
            return total

        timed = [i for i, span in enumerate(spans) if self._in_windows(span[1])]
        self_ns: dict[str, list[int]] = {}
        for i in timed:
            name, start, end, _ = spans[i]
            # offer_rr keeps the checks it makes and loses only the handler's run
            only = "interpreter.exec" if name == "system.offer_rr" else None
            self_ns.setdefault(name, []).append(end - start - covered(i, only))
        starts = [end - start for name, start, end, _ in spans if name == "system.start"]

        def per_op_ms(name: str) -> float:
            return sum(self_ns.get(name, [])) / 1e6 / ops

        def per_call_us(name: str) -> float:
            values = self_ns.get(name, [])
            return sum(values) / 1e3 / len(values) if values else 0.0

        def sized(name: str) -> float:
            return sum(n for at, n in self.sizes[name] if self._in_windows(at)) / ops

        return {
            "lexer.tokenize_ms": (per_op_ms("lexer.tokenize"), "ms"),
            "lexer.tokens": (sized("lexer.tokens"), "count"),
            "parser.parse_ms": (per_op_ms("parser.parse"), "ms"),
            "semantics.resolve_ms": (per_op_ms("semantics.resolve"), "ms"),
            "semantics.resolve_calls": (len(self_ns.get("semantics.resolve", [])) / ops, "count"),
            "slicer.slice_ms": (per_op_ms("slicer.slice"), "ms"),
            "render.render_ms": (per_op_ms("render.render"), "ms"),
            "deploy.plan_ms": (per_op_ms("deploy.plan"), "ms"),
            "system.start_ms": (sum(starts) / 1e6 / len(starts) if starts else 0.0, "ms"),
            "system.offer_rr_us": (per_call_us("system.offer_rr"), "us"),
            "semantics.check_value_us": (per_call_us("semantics.check_value"), "us"),
            "semantics.check_value_calls": (
                len(self_ns.get("semantics.check_value", [])) / ops,
                "count",
            ),
            "interpreter.exec_us": (per_op_ms("interpreter.exec") * 1e3, "us"),
            "interpreter.statements": (self._counted["interpreter.statements"] / ops, "count"),
            "values.encode_json_us": (per_call_us("values.encode_json"), "us"),
            "values.decode_json_us": (per_call_us("values.decode_json"), "us"),
            "values.json_bytes": (sized("values.json_bytes"), "bytes"),
            "transport.http_rr_us": (per_call_us("transport.http_rr"), "us"),
            "transport.connects": (self._counted["transport.connects"] / ops, "count"),
        }

    def write(self, path: Path) -> None:
        """Write every span with its thread and parent; times in microseconds from the first."""
        parent = self.parents()
        names = sorted({span[0] for span in self.spans})
        threads = sorted({span[3] for span in self.spans})
        origin = min((span[1] for span in self.spans), default=0)
        name_index = {name: i for i, name in enumerate(names)}
        thread_index = {t: i for i, t in enumerate(threads)}
        document = {
            "fields": ["name", "start_us", "end_us", "thread", "parent"],
            "names": names,
            "windows_us": [[(a - origin) / 1e3, (b - origin) / 1e3] for a, b in self.windows],
            "spans": [
                [
                    name_index[name],
                    round((start - origin) / 1e3, 1),
                    round((end - origin) / 1e3, 1),
                    thread_index[thread],
                    parent[i],
                ]
                for i, (name, start, end, thread) in enumerate(self.spans)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, separators=(",", ":")), encoding="utf-8")
