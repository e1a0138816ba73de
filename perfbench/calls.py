"""Runtime workloads: calls into the smart-city services over local:// and socket://.

Every reply is checked against a plain Python model of the event log,
built here apart from the program. Trees are compared in a plain form
(a tagged root plus a dict of child lists) that this module builds and
reads on its own.

query-local, query-socket
    One caller in a closed loop reads from a log preloaded with
    `AREAS` areas whose payloads carry from 1 to 48 availability
    periods. A round reads every area once with each of the three
    reads (72 reads) and adds `MISSES`, reads of ids that were never
    created, in every ninth slot (81 operations, one in nine a miss).
    The misses and their ids do not depend on the seed.

command-local
    Two callers, each in a closed loop on its own thread, create,
    update and delete their own areas through CommandSide and read them
    back through QuerySide and EventStore. Every round starts a fresh
    system, so the event log grows from empty in each round and the cost
    of a round does not depend on how long the run lasts.
"""

from __future__ import annotations

import contextlib
import json
import random
import socket
import threading
import time
from pathlib import Path

from measure import CpuTurns, Run, Tracer
from monoslice import parser, runtime, semantics
from monoslice.config import load_config
from monoslice.runtime import Fault, TransportError
from monoslice.values import Long, ValueTree, decode_json

FIXTURE = Path(__file__).resolve().parent.parent / "src" / "monoslice" / "fixtures"
SERVICES = ["QuerySide", "CommandSide", "EventStore"]
SETUP_REPEATS = 9
FIRST_ID = 1000  # EventStore numbers its events from here

AREAS = 24
# availability periods per area: 20 areas spread over 1 .. 39 and 4 of 48, so the
# reads of the largest payloads are 5% of a round and hold the 99th percentile
PERIODS = [1 + 2 * i for i in range(AREAS - 4)] + [48] * 4
READS = {
    "get": ("QuerySide", "getParkingArea"),
    "has": ("QuerySide", "hasParkingArea"),
    "lookup": ("EventStore", "lookup"),
}
WRITES = {
    "create": ("CommandSide", "createParkingArea"),
    "update": ("CommandSide", "updateParkingArea"),
    "delete": ("CommandSide", "deleteParkingArea"),
}
MISSES = [(kind, missing) for kind in READS for missing in (99999, 123456, 7777777)]

CALLERS = 2
UPDATES = 12  # per caller and round; then DELETES more areas are deleted
DELETES = 6
JOIN_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# plain trees


def _tag(value):
    if value is None:
        return None
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("long", int(value))
    if isinstance(value, float):
        return ("double", value)
    return ("string", value)


def leaf(value):
    return (_tag(value), {})


def node(**children):
    return (None, {name: v if isinstance(v, list) else [v] for name, v in children.items()})


def plain(tree):
    """The plain form of a program's ValueTree."""
    return (_tag(tree.root), {name: [plain(t) for t in seq] for name, seq in tree.children.items()})


def same(tree, item) -> bool:
    """Whether a program's ValueTree has the plain form `item`, without building a copy."""
    tag, children = item
    if not _same_root(tree.root, tag) or len(tree.children) != len(children):
        return False
    for name, expected in children.items():
        got = tree.children.get(name)
        if got is None or len(got) != len(expected):
            return False
        for sub, want in zip(got, expected):
            if not same(sub, want):
                return False
    return True


def _same_root(value, tag) -> bool:
    if tag is None:
        return value is None
    kind, expected = tag
    if kind == "bool":
        return isinstance(value, bool) and value == expected
    if kind == "long":
        return isinstance(value, int) and not isinstance(value, bool) and value == expected
    if kind == "double":
        return isinstance(value, float) and value == expected
    return isinstance(value, str) and value == expected


def to_tree(item):
    tag, children = item
    root = None if tag is None else Long(tag[1]) if tag[0] == "long" else tag[1]
    return ValueTree(root, {name: [to_tree(c) for c in seq] for name, seq in children.items()})


def area_info(rng: random.Random, periods: int):
    start = [rng.randrange(0, 12) for _ in range(periods)]
    return node(
        name=leaf(f"Area {rng.randrange(10**6)}"),
        availability=[
            node(start=leaf(f"{h:02d}:00"), end=leaf(f"{h + rng.randrange(1, 12):02d}:30"))
            for h in start
        ],
        chargingSpeed=leaf(rng.choice(["SLOW", "FAST"])),
        geolocation=node(
            latitude=leaf(round(rng.uniform(-90, 90), 4)),
            longitude=leaf(round(rng.uniform(-180, 180), 4)),
        ),
    )


# ---------------------------------------------------------------------------
# the event log model


class Areas:
    """What the event log says about a set of areas: the last event of each id."""

    def __init__(self):
        self.last: dict[int, tuple[str, object]] = {}

    def expect(self, kind: str, area_id: int):
        event = self.last.get(area_id)
        alive = event is not None and event[0] != "PA_DELETED"
        if kind == "has":
            return ("ok", leaf(alive))
        if kind == "get":
            return ("ok", node(id=leaf(area_id), info=event[1])) if alive else ("fault", "NotFound")
        if event is None:
            return ("ok", node())
        fields = {"type": leaf(event[0]), "id": leaf(area_id)}
        if event[1] is not None:
            fields["info"] = event[1]
        return ("ok", node(event=node(**fields)))


def invoke(system, kind: str, request: ValueTree, run: Run):
    """One timed call; returns the reply tree, the Fault or the TransportError."""
    service, operation = READS.get(kind) or WRITES[kind]
    start = time.perf_counter_ns()
    try:
        result = system.invoke_rr(service, operation, request)
    except TransportError as exc:
        result = exc
    run.latencies_ns.append(time.perf_counter_ns() - start)
    run.attempted += 1
    return result


def matches(result, expected) -> bool:
    if isinstance(result, Fault):
        return expected == ("fault", result.name)
    return isinstance(result, ValueTree) and expected[0] == "ok" and same(result, expected[1])


def outcome(result):
    """A result as ("ok", plain tree), ("fault", name) or ("transport-error", text)."""
    if isinstance(result, TransportError):
        return ("transport-error", str(result))
    if isinstance(result, Fault):
        return ("fault", result.name)
    return ("ok", plain(result))


# ---------------------------------------------------------------------------
# starting the fixture


def _free_ports(count: int) -> list[int]:
    """Distinct loopback ports that were free a moment ago.

    Each socket stays bound until all are, so that no two of them get the
    same port.
    """
    with contextlib.ExitStack() as stack:
        sockets = [stack.enter_context(socket.socket()) for _ in range(count)]
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]


def fixture_source() -> str:
    return (FIXTURE / "smart-city.ol").read_text(encoding="utf-8")


def start_fixture(source: str, transport: str):
    """Parse, resolve and start QuerySide, CommandSide and EventStore."""
    checked = semantics.resolve(parser.parse_source(source, "smart-city"))
    if transport == "local":
        config = load_config(FIXTURE / "local.json")
    else:
        ports = _free_ports(len(SERVICES))
        locations = {name: {"location": f"socket://127.0.0.1:{port}"} for name, port in zip(SERVICES, ports)}
        config = decode_json(json.dumps(locations))
    return runtime.start(checked, config, SERVICES)


# ---------------------------------------------------------------------------
# query-local and query-socket


def preload_infos(seed: int) -> list:
    rng = random.Random(seed)
    periods = PERIODS[:]
    rng.shuffle(periods)
    return [area_info(rng, n) for n in periods]


def preload(system, infos, run: Run) -> Areas:
    areas = Areas()
    for offset, info in enumerate(infos):
        result = invoke(system, "create", to_tree(info), Run())
        if not matches(result, ("ok", leaf(FIRST_ID + offset))):
            run.problem(f"preload create {offset} gave {outcome(result)}")
        areas.last[FIRST_ID + offset] = ("PA_CREATED", info)
    return areas


def query_round(rng: random.Random) -> list[tuple[str, int, bool]]:
    """One round: every area with every read, a miss leading each group of eight."""
    hits = [(kind, FIRST_ID + offset, False) for offset in range(AREAS) for kind in READS]
    rng.shuffle(hits)
    ops = []
    group = len(hits) // len(MISSES)
    for i, (kind, missing) in enumerate(MISSES):
        ops.append((kind, missing, True))
        ops.extend(hits[i * group:(i + 1) * group])
    return ops


def play_reads(system, ops, requests: dict, expected: dict, run: Run, outcomes=None) -> None:
    """Make the reads, check each, and keep nothing of the replies unless asked.

    Replies kept until a round ends would make the garbage collector run
    more often than the program alone makes it.
    """
    for kind, area_id, miss in ops:
        result = invoke(system, kind, requests[area_id], run)
        if outcomes is not None:
            outcomes.append(outcome(result))
        if not matches(result, expected[kind, area_id]):
            if miss:  # the known EventStore.lookup fault: see the README
                run.failed += 1
            else:
                run.problem(
                    f"{kind}({area_id}) gave {outcome(result)}, model says {expected[kind, area_id]}"
                )


def query(
    transport: str,
    seed: int,
    rounds: int,
    tracer: Tracer | None = None,
    source: str | None = None,
) -> tuple[Run, list]:
    """Run query-local or query-socket; returns the run and the warm-up round's outcomes."""
    source = source or fixture_source()
    run = Run()
    infos = preload_infos(seed)
    rng = random.Random(seed + 1)
    with CpuTurns() as turns:
        for turn in range(SETUP_REPEATS):
            turns.take(turn)
            start = time.perf_counter()
            system = start_fixture(source, transport)
            areas = preload(system, infos, run)
            run.setup_s.append(time.perf_counter() - start)
            if turn < SETUP_REPEATS - 1:
                system.shutdown()
        ids = [FIRST_ID + offset for offset in range(AREAS)] + [missing for _, missing in MISSES]
        requests = {area_id: to_tree(leaf(area_id)) for area_id in ids}
        expected = {(kind, area_id): areas.expect(kind, area_id) for kind in READS for area_id in ids}
        try:
            warmup, warm = query_round(rng), []
            play_reads(system, warmup, requests, expected, Run(), warm)
            if tracer:
                tracer.begin_window()
            for turn in range(rounds):
                ops = query_round(rng)
                turns.take(turn)
                started = time.perf_counter()
                play_reads(system, ops, requests, expected, run)
                run.add_round(len(ops), time.perf_counter() - started, turns.stolen())
            if tracer:
                tracer.end_window()
                tracer.uninstall()  # the transparency check is not part of the trace
        finally:
            system.shutdown()
    if transport == "socket":
        # transparency: the same calls over local:// give the same outcomes
        local = start_fixture(source, "local")
        try:
            preload(local, infos, run)
            again: list = []
            play_reads(local, warmup, requests, expected, Run(), again)
            if again != warm:
                run.problem("the warm-up round gave other outcomes over local://")
        finally:
            local.shutdown()
    return run, warm


# ---------------------------------------------------------------------------
# command-local


class Caller:
    """One closed-loop writer with the model of its own areas.

    `new_round` draws a round's payloads and request trees before the
    round is timed; only the ids the creates return are filled in during
    the round.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.new_round()

    def new_round(self) -> None:
        self.areas = Areas()
        self.ids: list[int] = []
        periods = PERIODS[:]
        self.rng.shuffle(periods)
        infos = [area_info(self.rng, n) for n in periods]
        self.creates = [(info, to_tree(info)) for info in infos]
        order = list(range(AREAS))  # positions in the order of creation
        self.rng.shuffle(order)
        self.updates = []
        for position in order[:UPDATES]:
            info = area_info(self.rng, periods[position])
            self.updates.append((position, info, to_tree(info)))
        self.deletes = order[UPDATES:UPDATES + DELETES]
        kinds = list(READS) * (AREAS // len(READS))
        self.rng.shuffle(kinds)
        self.rng.shuffle(order)
        self.reads = list(zip(kinds, order))

    def read(self, system, kind: str, area_id: int, run: Run) -> None:
        result = invoke(system, kind, to_tree(leaf(area_id)), run)
        expected = self.areas.expect(kind, area_id)
        if not matches(result, expected):
            run.problem(f"{kind}({area_id}) gave {outcome(result)}, model says {expected}")

    def write(self, system, kind: str, request: ValueTree, run: Run, expected) -> None:
        result = invoke(system, kind, request, run)
        if not matches(result, expected):
            run.problem(f"{kind} gave {outcome(result)}")

    def create_all(self, system, run: Run) -> None:
        for info, request in self.creates:
            result = invoke(system, "create", request, run)
            if not isinstance(result, ValueTree) or result.children or type(result.root) is not Long:
                run.problem(f"create gave {outcome(result)}")
                continue
            area_id = int(result.root)
            self.ids.append(area_id)
            self.areas.last[area_id] = ("PA_CREATED", info)
            self.read(system, "get", area_id, run)

    def modify_all(self, system, run: Run) -> None:
        done = ("ok", leaf("OK"))
        for position, info, info_tree in self.updates:
            area_id = self.ids[position]
            request = ValueTree(None, {"id": [ValueTree(Long(area_id))], "info": [info_tree]})
            self.write(system, "update", request, run, done)
            self.areas.last[area_id] = ("PA_UPDATED", info)
            self.read(system, "get", area_id, run)
        for position in self.deletes:
            area_id = self.ids[position]
            self.write(system, "delete", ValueTree(Long(area_id)), run, done)
            self.areas.last[area_id] = ("PA_DELETED", None)
            self.read(system, "has", area_id, run)
        for kind, position in self.reads:
            self.read(system, kind, self.ids[position], run)


def command(
    seed: int,
    rounds: int,
    tracer: Tracer | None = None,
    source: str | None = None,
) -> Run:
    source = source or fixture_source()
    run = Run()
    callers = [Caller(random.Random(seed * CALLERS + i)) for i in range(CALLERS)]
    with CpuTurns() as turns:
        for turn in range(SETUP_REPEATS):
            turns.take(turn)
            start = time.perf_counter()
            system = start_fixture(source, "local")
            run.setup_s.append(time.perf_counter() - start)
            system.shutdown()
        for turn in range(rounds):
            if turn:
                for caller in callers:
                    caller.new_round()
            turns.take(turn)  # the services' threads start on the round's CPU
            system = runtime.start(system.checked, system.config, SERVICES)
            command_round(system, callers, run, tracer, turns)
    return run


def command_round(
    system, callers: list[Caller], run: Run, tracer: Tracer | None, turns: CpuTurns
) -> None:
    """One round on a fresh system, which it shuts down."""
    runs = [Run() for _ in callers]
    try:
        if tracer:
            tracer.begin_window()
        started = time.perf_counter()
        if tracer:  # the traced run drives a single caller
            for caller, own in zip(callers, runs):
                caller.create_all(system, own)
            for caller, own in zip(callers, runs):
                caller.modify_all(system, own)
        else:
            _two_callers(system, callers, runs)
        elapsed = time.perf_counter() - started
        stolen = turns.stolen()
        if tracer:
            tracer.end_window()
    finally:
        report = system.shutdown()
    where = f"round {len(run.rounds) + 1}"
    for own in runs:
        run.latencies_ns += own.latencies_ns
        run.attempted += own.attempted
        for text in own.problems:
            run.problem(f"{where}: {text}")
    run.add_round(sum(own.attempted for own in runs), elapsed, stolen)
    ids = sorted(i for caller in callers for i in caller.ids)
    if ids != list(range(FIRST_ID, FIRST_ID + CALLERS * AREAS)):
        run.problem(f"{where}: created ids are not {FIRST_ID} onwards: {ids}")
    leaks = [s.name for s in report.services if "ScopeLeak" in s.faults]
    if leaks:
        run.problem(f"{where}: ScopeLeak in {leaks}")


def _two_callers(system, callers: list[Caller], runs: list[Run]) -> None:
    # all creates precede every update and delete, so the created ids are consecutive
    barrier = threading.Barrier(len(callers))

    def work(caller: Caller, own: Run) -> None:
        try:
            caller.create_all(system, own)
        except Exception as exc:
            own.problem(f"caller failed while creating: {exc!r}")
            barrier.abort()
            raise
        try:
            barrier.wait()
            caller.modify_all(system, own)
        except threading.BrokenBarrierError:
            own.problem("the other caller failed")
        except Exception as exc:
            own.problem(f"caller failed while modifying: {exc!r}")
            raise

    threads = [
        threading.Thread(target=work, args=(caller, own), name=f"caller-{i}")
        for i, (caller, own) in enumerate(zip(callers, runs))
    ]
    for thread in threads:
        thread.start()
    for thread, own in zip(threads, runs):
        thread.join(JOIN_TIMEOUT)
        if thread.is_alive():
            own.problem(f"{thread.name} did not finish within {JOIN_TIMEOUT} s")
