"""Service execution: instances, their worker pools, and the one call path.

start() runs any subset of a checked program's services in one process.
Input ports with local:// locations register in an in-process registry;
socket:// ports get an HTTP server. Every outbound call goes through
call, the only place that picks a transport, and every
inbound call, local or HTTP, goes through _Endpoint.offer, which checks
the operation and the call kind before anything runs. The two
transports are observationally equivalent: a message crossing a
local:// port is marked shared (ValueTree.writable) rather than copied,
so neither side's writes reach the other and in-process execution
cannot share state that serialization would have severed. A message
that differs from its JSON image is path-copied into it; one that is
its image crosses as it is. Each node a port admits is marked admitted
as well (ValueTree.admitted): a later crossing does not walk it again
and reuses its conformance verdict, so a crossing costs the nodes a
sender added or wrote along, not the size of the message. The sender
images, the receiver checks: call takes every message to
its image before it picks a transport, and the receiving port checks
it against its type. Python callers do not honour the marks, so
invoke_rr and invoke_ow copy their requests in, and invoke_rr copies
out a reply a service may still hold.

Each service runs its activations on a WorkerPool (pool.py), the kind
of pool that also serves the connections of a socket:// port: at most
32 workers for concurrent, where each activation gets a fresh scope,
and one for sequential, which keeps one scope across activations (so a
service can keep state across requests), and for single, which takes
one call only. A service whose main is a statement sequence is
executable: its main is the one job of a one-thread pool, submitted at
startup. Every activation, executable or not, runs through
ServiceInstance._run, which records the fault it ends in. Every inbound
call is admitted or refused in ServiceInstance._take and enters the
pool in _submit. A request-response call hands the pool a queue of its
own with its request, the worker puts the admitted reply or the fault
on it, and the caller waits on it up to its timeout.

The runtime's references form a tree: the system holds its instances
and servers, each of those its pool, and a pool no handler, as each job
comes with the function that runs it. An instance keeps the checked
program, the invoke timeout, and the local:// registry and the pool of
client connections (transport.ConnectionPool) its calls go through, not
the system. shutdown empties that registry, the one loop (registry,
endpoint, instance), and closes the pool's idle connections, so a
stopped system is freed by reference counting alone.
"""

from __future__ import annotations

import logging
import queue
import re
import threading
import time
from collections import Counter
from math import isfinite
from typing import Callable

from ..ast import (
    InputChoice,
    OneWayBranch,
    RequestResponseBranch,
    ServiceDecl,
    Statement,
    TypeRef,
)
from ..config import (
    BadLocationSyntax,
    Location,
    resolve_locations,
)
from ..errors import MonosliceError, NoServices
from ..records import field, record
from ..semantics import CheckedProgram, OpInfo, check_value
from ..values import LONE_SURROGATE, NOT_FINITE, ROOT_KEY, TOO_DEEP, TOO_MANY_DIGITS, Long, ValueTree
from .interpreter import (
    Block,
    ExecutionContext,
    Fault,
    FaultSignal,
    aborted_fault,
    compile_block,
    exec_statements,
    fault,
)
from .pool import MAX_WORKERS, WorkerPool
from .transport import ConnectionPool, HttpPortServer, TransportError, Waiting, http_invoke_ow, http_invoke_rr

log = logging.getLogger("monoslice.runtime")

DEFAULT_INVOKE_TIMEOUT = 30.0
DEFAULT_SHUTDOWN_TIMEOUT = 5.0
# an int no wider than this has fewer decimal digits than the smallest limit
# Python may set on int-to-text conversion (640), so only wider ones are converted
_SAFE_INT_BITS = 640 * 3
# the most JSON objects and arrays a message a port admits may nest: JSON
# decoding and the port's walks recurse once per level, against Python's
# recursion limit of 1000, so this leaves the calling thread 100 frames
MAX_NESTING = 900
# a surrogate code point: UTF-8 cannot encode one in a str, alone or paired
_SURROGATE = re.compile("[\ud800-\udfff]")
# held while a behavior compiles
_COMPILING = threading.Lock()


class BindError(MonosliceError):
    def __init__(self, location: str, reason: str):
        self.location = location
        super().__init__(f"cannot bind {location}: {reason}")


@record
class _Work:
    info: OpInfo
    tree: ValueTree
    reply: "queue.SimpleQueue[ValueTree | Fault] | None"  # where a waiting caller takes the outcome


@record
class _Endpoint:
    """One bound input port: the owning instance plus the port's operations."""

    instance: "ServiceInstance"
    ops: dict[str, OpInfo]
    location: Location

    def offer(
        self, operation: str, tree: ValueTree, kind: str | None, timeout: float, waiting: Waiting | None = None
    ) -> ValueTree | Fault | None:
        """Take one inbound call, whichever transport carried it.

        kind is "rr" or "ow", or None for the operation's declared kind
        (an HTTP post that does not say). A request-response call returns
        the reply tree or the fault, and a one-way call returns None once
        the message is accepted. A request-response caller may pass
        waiting, to be able to end its wait (ServiceInstance.offer_rr). A
        call of the wrong kind, or naming no operation, is refused and
        counted before any handler runs (_no_operation). Raises
        TransportError when the service has stopped.
        """
        instance = self.instance
        if instance.stopped:
            raise TransportError(f"service {instance.name} has stopped")
        info = self.ops.get(operation)
        if kind is None and info is not None:
            kind = info.kind
        if info is None or info.kind != kind:
            with instance._stats_lock:
                instance.refused += 1
            return _no_operation(operation, kind, self.location)
        if kind == "rr":
            return instance.offer_rr(info, tree, timeout, waiting)
        instance.offer_ow(info, tree)
        return None


def _no_operation(operation: str, kind: str | None, location: Location) -> Fault:
    """The refusal of a call naming no operation of its kind at location:
    UnknownOperation for request-response, TransportError raised for one-way.
    """
    if kind == "ow":
        raise TransportError(f"no one-way operation '{operation}' at {location}")
    return Fault("UnknownOperation", ValueTree(f"no request-response operation '{operation}' at {location}"))


def _wait(
    box: "queue.SimpleQueue[ValueTree | Fault]", timeout: float, waiting: Waiting | None, late: str
) -> ValueTree | Fault:
    """What is put on box within timeout, or the fault Timeout whose data is late.

    waiting, when given, is handed a function that ends the wait with the
    fault Aborted, and then None once the wait is over.
    """
    if waiting is not None:
        waiting(lambda: box.put(aborted_fault().fault))
    try:
        return box.get(timeout=timeout)
    except queue.Empty:
        return Fault("Timeout", ValueTree(late))
    finally:
        if waiting is not None:
            waiting(None)


def _violation_fault(violations) -> Fault:
    message = "; ".join(str(v) for v in violations)
    return Fault("TypeMismatch", ValueTree(message))


class _Unencodable(Exception):
    """A message JSON cannot carry, named by the violation a port reports."""


def _image(tree: ValueTree) -> tuple[ValueTree, str | None]:
    """A message's JSON image, shared, or the tree and why JSON cannot carry it.

    Nesting past MAX_NESTING, or too deep for the walk, gets the violation
    decode_json gives a payload nested deeper still.
    """
    try:
        return _wire_image(tree), None
    except RecursionError:
        return tree, TOO_DEEP
    except _Unencodable as exc:
        return tree, str(exc)


def _admit(tree: ValueTree, type_: TypeRef, types: dict) -> tuple[ValueTree, list]:
    """Take a message crossing a port to its JSON image and check it against its type."""
    tree, violation = _image(tree)
    if violation is not None:
        return tree, [violation]
    return tree, check_value(tree, type_, types)


def _wire_image(tree: ValueTree) -> ValueTree:
    """The tree as a JSON round trip would shape it: every int becomes a long.

    The in-process transport must be indistinguishable from the wire, so
    every message crossing a boundary is taken to its wire image. A tree
    that already is its image is returned itself; otherwise the nodes on
    the path down to each plain int are copied and all others are shared.
    An integer or a double the wire cannot carry, a string or child name
    UTF-8 cannot encode, a child named "$", or nesting past MAX_NESTING
    raises _Unencodable.

    Every node of the image is marked shared and admitted (the sender may
    hold it still, and the receiver keeps it), with its nesting, and an
    admitted node is returned at once: it and all below it are their image
    already, and its nesting says how deep. So a crossing walks only the
    nodes no port admitted before, which are the ones a sender built or the
    paths it wrote along (ValueTree.admitted), and still refuses a message
    nested too deeply however many crossings built it.
    """
    if tree.admitted is not None:
        return tree
    image = tree
    root = tree.root
    if isinstance(root, int) and not isinstance(root, bool):
        if root.bit_length() > _SAFE_INT_BITS:
            try:
                int.__repr__(root)  # as JSON writes it: str() of a Long is its repr, which prints any width
            except ValueError:
                raise _Unencodable(TOO_MANY_DIGITS) from None
        if type(root) is not Long:
            tree.shared = True  # its image shares its children
            image = tree.writable()
            image.root = Long(root)
    elif type(root) is float and not isfinite(root):
        raise _Unencodable(NOT_FINITE)
    elif type(root) is str and not root.isascii() and _SURROGATE.search(root):
        raise _Unencodable(LONE_SURROGATE)
    nesting = 0
    children = tree.children
    if children:  # most nodes are leaves; enumerate cost a third of the walk
        for name, seq in children.items():
            if name == "$" or not name.isascii() and _SURROGATE.search(name):
                raise _Unencodable(ROOT_KEY if name == "$" else LONE_SURROGATE)
            level = 1 if len(seq) == 1 else 2  # this node's object, and an array of the name's
            i = 0
            for child in seq:
                sub = _wire_image(child)
                if sub.nesting + level > nesting:
                    nesting = sub.nesting + level  # how deep the image is, admitted parts included
                if sub is not child:
                    if image is tree:
                        tree.shared = True
                        image = tree.writable()
                    image.children[name][i] = sub
                i += 1
        if nesting > MAX_NESTING:
            raise _Unencodable(TOO_DEEP)
    image.nesting = nesting
    image.shared = True
    image.admitted = True
    return image


def call(
    local: dict[str, _Endpoint],
    connections: ConnectionPool,
    location: Location,
    operation: str,
    tree: ValueTree,
    kind: str,
    timeout: float,
    waiting: Waiting | None = None,
) -> ValueTree | Fault | None:
    """Make one call of kind "rr" or "ow" over the transport the location names.

    A local:// location is looked up in local, the registry of the
    system's local:// endpoints, and a socket:// call goes on a connection
    of connections, the system's pool of client connections. The message
    is taken to its JSON image first, on either transport, so one JSON
    cannot carry is never delivered: a request-response call gets the
    TypeMismatch fault and a one-way message is dropped with a warning. An
    operation name UTF-8 cannot encode, which no transport carries, is
    refused here as one no service offers (_no_operation), and no service
    counts it. A request-response call returns the reply tree or the
    fault, and a one-way call returns None once the target accepted the
    message. Raises TransportError when the target is unreachable, has
    stopped, or refuses a one-way call. A request-response caller may pass
    waiting, to be able to end its wait from another thread
    (ServiceInstance.offer_rr, http_invoke_rr).
    """
    tree, violation = _image(tree)
    if violation is not None:
        if kind == "rr":
            return Fault("TypeMismatch", ValueTree(violation))
        log.warning("dropping one-way %s to %s: %s", operation, location, violation)
        return None
    if not operation.isascii() and _SURROGATE.search(operation):
        return _no_operation(operation, kind, location)
    if location.scheme == "local":
        endpoint = local.get(location.name or "")
        if endpoint is None:
            raise TransportError(f"nothing listens at {location}")
        return endpoint.offer(operation, tree, kind, timeout, waiting)
    if kind == "rr":
        return http_invoke_rr(connections, location, operation, tree, timeout, waiting)
    http_invoke_ow(connections, location, operation, tree, timeout)
    return None


class _ActivationContext(ExecutionContext):
    wake: Callable[[], None] | None = None  # ends the wait in progress: for a solicit's reply, or in receive

    def __init__(self, instance: "ServiceInstance", scope: ValueTree):
        self.instance = instance
        self.scope = scope

    def _call(self, port: str, operation: str, tree: ValueTree, kind: str) -> ValueTree | Fault | None:
        instance = self.instance
        location = instance.binding(port)
        timeout = instance.invoke_timeout
        try:
            return call(instance.local, instance.connections, location, operation, tree, kind, timeout, self.waiting)
        except TransportError as exc:
            if self.aborted:  # abort shut the connection down
                raise aborted_fault() from exc
            raise fault("TransportError", str(exc)) from exc

    def waiting(self, wake: Callable[[], None] | None) -> None:
        """Keep how to end the wait this activation is in, or None once it is over.

        An activation aborted before its wait began is woken at once.
        """
        self.wake = wake
        if wake is not None and self.aborted:
            wake()

    def solicit(self, port: str, operation: str, request: ValueTree) -> ValueTree:
        result = self._call(port, operation, request, "rr")
        if isinstance(result, Fault):
            raise FaultSignal(result)
        return result

    def send_oneway(self, port: str, operation: str, message: ValueTree) -> None:
        self._call(port, operation, message, "ow")

    def receive(self, operation: str) -> ValueTree:
        messages = self.instance._receive_queues[operation]
        timeout = self.instance.invoke_timeout
        message = _wait(messages, timeout, self.waiting, f"no '{operation}' message arrived")
        if isinstance(message, Fault):  # Timeout, or Aborted put there by abort
            raise FaultSignal(message)
        return message

    def rebind(self, port: str, location_text: str) -> None:
        try:
            location = Location.parse(location_text)
        except BadLocationSyntax as exc:
            raise fault("BadLocation", str(exc)) from exc
        self.instance.set_binding(port, location)


class ServiceInstance:
    def __init__(
        self,
        checked: CheckedProgram,
        decl: ServiceDecl,
        config_tree: ValueTree,
        invoke_timeout: float,
        local: dict[str, _Endpoint],
        connections: ConnectionPool,
    ):
        self.checked = checked
        self.invoke_timeout = invoke_timeout
        # the system's local:// endpoints and client connections, which its calls go through
        self.local = local
        self.connections = connections
        self.decl = decl
        self.name = decl.name
        self.mode = decl.execution
        self.config_tree = config_tree
        config_tree.shared = True  # every activation's scope, in every service, holds it
        self.output_port_names = frozenset(p.name for p in decl.output_ports)
        self.behavior = decl.behavior
        self.branches = (
            {b.operation: b for b in decl.behavior.branches}
            if isinstance(decl.behavior, InputChoice)
            else {}
        )
        self.input_locations: list[Location] = []

        self._bindings: dict[str, Location] = {}
        self._bindings_lock = threading.Lock()
        # the one-way messages an executable's receive takes, a queue for each operation
        ops = checked.port_ops
        self._receive_queues: dict[str, "queue.SimpleQueue[ValueTree | Fault]"] = {
            op: queue.SimpleQueue() for port in decl.input_ports for op in ops[(self.name, port.name)]
        } if decl.is_executable else {}
        self.stopped = False  # set under _stop_lock: no call enters the pool after it
        self._stop_lock = threading.Lock()
        # the one scope of a sequential service, kept across its activations
        self._scope = self.seed_scope() if self.mode.value == "sequential" else None
        if decl.is_executable:
            self._pool = WorkerPool(f"{self.name}-main", 1)
        else:
            size = MAX_WORKERS if self.mode.value == "concurrent" else 1
            self._pool = WorkerPool(f"{self.name}-worker", size)

        self._stats_lock = threading.Lock()
        self.served = 0
        self.refused = 0  # requests refused before any activation: no such operation, no handler, or its type
        self.faults: Counter[str] = Counter()  # how often the service ended an activation in each fault
        self._live: set[_ActivationContext] = set()  # the activations running now
        self.exit_fault: Fault | None = None

    # -- lifecycle -----------------------------------------------------

    def seed_scope(self) -> ValueTree:
        scope = ValueTree()
        if self.decl.config is not None:
            scope.children[self.decl.config.name] = [self.config_tree]
        return scope

    def start_executable(self) -> None:
        """Run an executable's main as its pool's one job."""
        if self.decl.is_executable:
            self._pool.submit(self._run_executable, self.behavior.statements)
            self._pool.stop()

    def request_stop(self) -> None:
        with self._stop_lock:
            self.stopped = True
            self._pool.stop()

    def join(self, deadline: float) -> int:
        """Join the threads until the monotonic deadline; returns the still-running activations."""
        self._pool.join(deadline)
        with self._stats_lock:
            return len(self._live)

    def abort(self) -> None:
        """End every running activation with the fault Aborted.

        One in a loop ends at its next iteration; one waiting in receive or
        for a solicit's reply is woken (_ActivationContext.waiting).
        """
        with self._stats_lock:
            for ctx in self._live:
                ctx.aborted = True
                wake = ctx.wake
                if wake is not None:
                    wake()

    # -- activations -------------------------------------------------------

    def _run_activation(self, work: _Work) -> None:
        """Run one request-response or one-way activation and hand a waiting caller its outcome."""
        branch = self.branches[work.info.name]
        scope = self._scope if self._scope is not None else self.seed_scope()
        # the request replaces the variable's first occurrence, as any message binding
        scope.children.setdefault(branch.request_var, [work.tree])[0] = work.tree
        response = None if work.reply is None else (branch.response_var, work.info.response)
        outcome = self._run(self._block(branch.operation, branch.body), scope, work.info.name, response)
        with self._stats_lock:
            self.served += 1
        if work.reply is not None:
            work.reply.put(outcome)

    def _run_executable(self, main: list[Statement]) -> None:
        block = self._block("main", main)
        self.exit_fault = self._run(block, self.seed_scope(), "main", None)

    def _run(
        self, block: Block, scope: ValueTree, operation: str, response: tuple[str, TypeRef] | None
    ) -> ValueTree | Fault | None:
        """Run one activation of the block in scope and record the fault it ends in.

        Returns that fault; otherwise, when response names the reply variable
        and its type, the reply as the port admits it, or TypeMismatch (also
        recorded) when it violates its type; otherwise None.
        """
        ctx = _ActivationContext(self, scope)
        with self._stats_lock:
            self._live.add(ctx)
        outcome = None
        try:
            exec_statements(block, ctx)
            if response is not None:
                var, type_ = response
                reply = scope.child(var)
                reply, violations = _admit(
                    reply if reply is not None else ValueTree(), type_, self.checked.type_table
                )
                outcome = _violation_fault(violations) if violations else reply
        except FaultSignal as signal:
            outcome = signal.fault
        except Exception as exc:  # defensive: a handler bug must not kill the worker
            log.exception("internal error in %s.%s", self.name, operation)
            outcome = Fault("InternalError", ValueTree(str(exc)))
        finally:
            with self._stats_lock:
                self._live.discard(ctx)
                if isinstance(outcome, Fault):
                    self.faults[outcome.name] += 1
        return outcome

    def _block(self, operation: str, statements: list[Statement]) -> Block:
        """The compiled behavior of an operation, or of "main": once per checked program, on first use."""
        blocks = self.checked.behaviors
        key = (self.name, operation)
        block = blocks.get(key)
        if block is None:
            with _COMPILING:  # one compile at a time, so no two workers compile one behavior
                block = blocks.get(key)
                if block is None:
                    name = f"{self.name}.{operation}"
                    block = blocks[key] = compile_block(statements, self.output_port_names, name)
        return block

    # -- inbound ---------------------------------------------------------

    def offer_rr(
        self, info: OpInfo, tree: ValueTree, timeout: float, waiting: Waiting | None = None
    ) -> ValueTree | Fault:
        """Take one request-response call (_take), run it and wait for its outcome (_wait)."""
        request = self._take(info, tree)
        if isinstance(request, Fault):
            return request
        reply: "queue.SimpleQueue[ValueTree | Fault]" = queue.SimpleQueue()
        self._submit(_Work(info, request, reply))
        return _wait(reply, timeout, waiting, f"no reply from {self.name}.{info.name}")

    def offer_ow(self, info: OpInfo, tree: ValueTree) -> None:
        """Take one one-way message (_take); one it refuses is dropped with a warning."""
        message = self._take(info, tree)
        if isinstance(message, Fault):
            log.warning("dropping one-way %s to %s: %s", info.name, self.name, message.data.root)
        elif self.decl.is_executable:
            self._receive_queues[info.name].put(message)
        else:
            self._submit(_Work(info, message, None))

    def _take(self, info: OpInfo, tree: ValueTree) -> ValueTree | Fault:
        """The request as the port admits it, or the counted refusal: UnknownOperation
        without a handler of the call's kind, or TypeMismatch for a type violation.
        """
        wanted = RequestResponseBranch if info.kind == "rr" else OneWayBranch
        handled = isinstance(self.branches.get(info.name), wanted)
        if handled or wanted is OneWayBranch and self.decl.is_executable:
            tree, violations = _admit(tree, info.request, self.checked.type_table)
            if not violations:
                return tree
            refusal = _violation_fault(violations)
        else:
            reason = f"service {self.name} has no handler for '{info.name}'"
            refusal = Fault("UnknownOperation", ValueTree(reason))
        with self._stats_lock:
            self.refused += 1
        return refusal

    def _submit(self, work: _Work) -> None:
        """Hand an admitted call to the pool; raises TransportError once the service has stopped."""
        with self._stop_lock:
            if self.stopped:
                raise TransportError(f"service {self.name} has stopped")
            self.stopped = self.mode.value == "single"  # a single service takes this call only
            self._pool.submit(self._run_activation, work)

    # -- outbound ----------------------------------------------------------

    def binding(self, port: str) -> Location:
        with self._bindings_lock:
            return self._bindings[port]

    def set_binding(self, port: str, location: Location) -> None:
        with self._bindings_lock:
            self._bindings[port] = location


# ---------------------------------------------------------------------------
# reports


@record
class ServiceReport:
    name: str
    served: int
    refused: int
    faults: Counter[str]  # fault name to how many activations ended in it
    executable: bool
    executable_fault: str | None
    aborted: int

    def line(self) -> str:
        parts = [f"{self.name}: served={self.served}", f"faults={self.faults.total()}"]
        if self.refused:
            parts.append(f"refused={self.refused}")
        if self.executable:
            verdict = self.executable_fault or "completed"
            parts.append(f"executable={verdict}")
        if self.aborted:
            parts.append(f"aborted={self.aborted}")
        return " ".join(parts)


@record
class SystemReport:
    services: list[ServiceReport] = field(default_factory=list)

    def __str__(self) -> str:
        return "\n".join(r.line() for r in self.services)


# ---------------------------------------------------------------------------
# the running system


class RunningSystem:
    """A set of service instances sharing one in-process transport."""

    def __init__(self, checked: CheckedProgram, config: ValueTree, invoke_timeout: float):
        self.checked = checked
        self.config = config
        self.invoke_timeout = invoke_timeout
        self.instances: dict[str, ServiceInstance] = {}
        self._local: dict[str, _Endpoint] = {}
        self._connections = ConnectionPool()
        self._servers: list[HttpPortServer] = []
        self._report: SystemReport | None = None
        self._lock = threading.Lock()

    # -- client API ----------------------------------------------------------

    def _resolve_target(self, target: "str | Location") -> Location:
        if isinstance(target, Location):
            return target
        if target.startswith(("local://", "socket://")):
            return Location.parse(target)
        instance = self.instances.get(target)
        if instance is None or not instance.input_locations:
            raise MonosliceError(f"no such running service or location: {target!r}")
        return instance.input_locations[0]

    def invoke_rr(
        self,
        target: "str | Location",
        operation: str,
        request: ValueTree,
        timeout: float | None = None,
    ) -> ValueTree | Fault:
        """Call a request-response operation; returns the reply tree or the fault.

        Raises TransportError when the target is unreachable.
        """
        timeout = timeout if timeout is not None else self.invoke_timeout
        # the caller keeps and may change its trees, which call marks and services may share
        location = self._resolve_target(target)
        result = call(self._local, self._connections, location, operation, request.copy(), "rr", timeout)
        return result.copy() if isinstance(result, ValueTree) and result.shared else result

    def invoke_ow(self, target: "str | Location", operation: str, message: ValueTree) -> None:
        """Send a one-way message; returns once the target accepted it."""
        location = self._resolve_target(target)
        call(self._local, self._connections, location, operation, message.copy(), "ow", self.invoke_timeout)

    # -- lifecycle -------------------------------------------------------------

    def wait_executables(self, timeout: float | None = None) -> dict[str, Fault | None]:
        """Block until the executables finish, all within one timeout; returns their exit faults.

        Raises TimeoutError naming every executable still running at the deadline.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        executables = [i for i in self.instances.values() if i.decl.is_executable]
        running = [i.name for i in executables if not i._pool.join(deadline)]
        if running:
            raise TimeoutError(f"executables still running: {', '.join(running)}")
        return {i.name: i.exit_fault for i in executables}

    def shutdown(self, timeout: float = DEFAULT_SHUTDOWN_TIMEOUT) -> SystemReport:
        """Stop accepting, drain in-flight handlers and the ports' workers up to the timeout, report.

        An activation still running at the deadline is reported aborted,
        and ends with the fault Aborted at its next loop iteration, or at
        once if it waits in receive or for a solicit's reply; an aborted
        executable's verdict is Aborted.
        """
        with self._lock:
            if self._report is not None:
                return self._report
            for server in self._servers:
                server.close()
            self._local.clear()
            # before any abort: a connection a call gives back from now on is
            # closed, so no wake outlives its call on a pooled connection
            self._connections.close()
            for instance in self.instances.values():
                instance.request_stop()
            deadline = time.monotonic() + timeout
            report = SystemReport()
            for instance in self.instances.values():
                aborted = instance.join(deadline)
                verdict = instance.exit_fault.name if instance.exit_fault else None
                executable = instance.decl.is_executable
                if aborted:
                    instance.abort()
                    if executable:
                        verdict = verdict or "Aborted"  # how its main ends, maybe after this report
                with instance._stats_lock:  # an aborted activation may still record its fault
                    faults = Counter(instance.faults)
                report.services.append(
                    ServiceReport(
                        name=instance.name,
                        served=instance.served,
                        refused=instance.refused,
                        faults=faults,
                        executable=executable,
                        executable_fault=verdict,
                        aborted=aborted,
                    )
                )
            for server in self._servers:
                server.join(deadline)
            self._report = report
            return report

    def __enter__(self) -> "RunningSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def start(
    checked: CheckedProgram,
    config: ValueTree,
    services: list[str] | None = None,
    invoke_timeout: float = DEFAULT_INVOKE_TIMEOUT,
) -> RunningSystem:
    """Start the selected services (all by default) and return the system.

    Startup is all-or-nothing: any bind failure shuts down everything
    already started and raises BindError.
    """
    all_names = [s.name for s in checked.program.services]
    if services is None:
        names = all_names
    else:
        unknown = [n for n in services if n not in checked.service_table]
        if unknown:
            raise MonosliceError(f"unknown service(s): {', '.join(unknown)}")
        names = [n for n in all_names if n in set(services)]
    if not names:
        raise NoServices("no services selected")

    locations, issues = resolve_locations(checked, config, names)
    if issues:
        raise issues[0]

    system = RunningSystem(checked, config, invoke_timeout)
    config_tree = config.copy()  # every service holds this one; the caller keeps its own
    try:
        for name in names:
            decl = checked.service_table[name]
            instance = ServiceInstance(checked, decl, config_tree, invoke_timeout, system._local, system._connections)
            for port in decl.output_ports:
                instance.set_binding(port.name, locations[(name, port.name)])
            for port in decl.input_ports:
                location = locations[(name, port.name)]
                endpoint = _Endpoint(instance, checked.port_ops[(name, port.name)], location)
                if location.scheme == "local":  # resolve_locations refused two ports on one name
                    system._local[location.name] = endpoint
                else:
                    try:
                        server = HttpPortServer(location.port, endpoint.offer, invoke_timeout)
                    except OSError as exc:
                        raise BindError(str(location), str(exc)) from exc
                    system._servers.append(server)
                instance.input_locations.append(location)
            system.instances[name] = instance
        for server in system._servers:
            server.start()
        for instance in system.instances.values():
            instance.start_executable()
    except BaseException:
        system.shutdown()
        raise
    return system
