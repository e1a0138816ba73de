"""Deployment configuration: loading, location parsing, validation.

A configuration is a value tree decoded from a JSON file; by convention
child `<ServiceName>.location` holds a location string per service.
Locations are `socket://host:port` (network) or `local://name`
(in-process).
"""

from __future__ import annotations

import re
from pathlib import Path as FsPath
from typing import TYPE_CHECKING

from .ast import Expr, Literal, PortKind
from .errors import MonosliceError
from .records import record
from .values import ValueTree, decode_json

if TYPE_CHECKING:  # semantics imports this module to parse literal locations
    from .semantics import CheckedProgram

# a configuration is an ordinary value tree decoded from JSON
ConfigTree = ValueTree

# whitespace and control characters, which no host name holds and HTTP clients refuse
_BAD_HOST_CHARACTER = re.compile(r"[\s\x00-\x1f\x7f-\x9f]")


class BadLocationSyntax(MonosliceError):
    def __init__(self, text: str, reason: str):
        self.text = text
        self.reason = reason
        super().__init__(f"bad location {text!r}: {reason}")


class MissingConfigPath(MonosliceError):
    def __init__(self, path: str):
        self.path = path
        super().__init__(f"missing config path '{path}'")


class LocationCollision(MonosliceError):
    def __init__(self, location: str, first: str, second: str):
        self.location = location
        super().__init__(f"input location {location} bound by both {first} and {second}")


@record(frozen=True)
class Location:
    """A transport address. scheme is "socket" (host, port) or "local" (name)."""

    scheme: str
    host: str | None = None
    port: int | None = None
    name: str | None = None

    @classmethod
    def socket(cls, host: str, port: int) -> "Location":
        return cls("socket", host=host, port=port)

    @classmethod
    def local(cls, name: str) -> "Location":
        return cls("local", name=name)

    @classmethod
    def parse(cls, text: str) -> "Location":
        if text.startswith("socket://"):
            rest = text[len("socket://"):]
            host, sep, port_text = rest.rpartition(":")
            if not sep or not host:
                raise BadLocationSyntax(text, "expected socket://host:port")
            if "/" in rest:
                raise BadLocationSyntax(text, "no path component allowed")
            if _BAD_HOST_CHARACTER.search(host):
                raise BadLocationSyntax(text, "the host holds whitespace or a control character")
            try:
                host.encode("idna")  # as the client sends it
            except UnicodeError as exc:
                raise BadLocationSyntax(text, f"the host is no IDNA name: {exc}") from None
            try:
                port = int(port_text)
            except ValueError:
                port = None
            # int() also takes a sign, spaces, underscores, leading zeros and
            # non-ASCII digits, which would print back as another text
            if port is None or str(port) != port_text:
                raise BadLocationSyntax(text, f"port {port_text!r} is not written in plain decimal")
            if not 1 <= port <= 65535:
                raise BadLocationSyntax(text, f"port {port} out of range 1-65535")
            return cls.socket(host, port)
        if text.startswith("local://"):
            name = text[len("local://"):]
            if not name or "/" in name:
                raise BadLocationSyntax(text, "expected local://name")
            return cls.local(name)
        raise BadLocationSyntax(text, "unknown scheme (use socket:// or local://)")

    def __str__(self) -> str:
        if self.scheme == "socket":
            return f"socket://{self.host}:{self.port}"
        return f"local://{self.name}"


def load_config(path: str | FsPath) -> ConfigTree:
    """Load a JSON configuration file into a value tree.

    Raises OSError on unreadable files and JsonError on malformed JSON.
    """
    data = FsPath(path).read_bytes()
    return decode_json(data)


def resolve_location(config: ConfigTree, location_expr: Expr) -> Location:
    """Evaluate a port's location against the configuration.

    The resolver admits only a string literal or an index-free path
    rooted at the service's config parameter (semantics._Resolver), so a
    literal is parsed and a path is walked from the configuration's root.
    """
    if isinstance(location_expr, Literal):
        return Location.parse(location_expr.value)
    steps = location_expr.path.steps
    dotted = ".".join(step.name for step in steps[1:]) or steps[0].name
    node = config
    for step in steps[1:]:
        nxt = node.child(step.name)
        if nxt is None:
            raise MissingConfigPath(dotted)
        node = nxt
    if not isinstance(node.root, str):
        raise MissingConfigPath(dotted)
    return Location.parse(node.root)


def resolve_locations(
    checked: CheckedProgram,
    config: ConfigTree,
    services: list[str] | None = None,
) -> tuple[dict[tuple[str, str], Location], list[MonosliceError]]:
    """Resolve every port location of the selected services, by (service, port) name.

    Also rejects input-port location collisions: two input ports may not
    share a socket host:port or a local name. Returns the locations that
    resolved and the full issue list; no issue means the configuration
    is usable and every port has its location.
    """
    locations: dict[tuple[str, str], Location] = {}
    issues: list[MonosliceError] = []
    names = services if services is not None else [s.name for s in checked.program.services]
    bound: dict[str, str] = {}
    for service_name in names:
        decl = checked.service_table[service_name]
        for port in decl.ports():
            try:
                location = resolve_location(config, port.location)
            except (MissingConfigPath, BadLocationSyntax) as issue:
                issues.append(issue)
                continue
            locations[(service_name, port.name)] = location
            if port.kind is PortKind.INPUT:
                key = str(location)
                owner = f"{service_name}.{port.name}"
                if key in bound:
                    issues.append(LocationCollision(key, bound[key], owner))
                else:
                    bound[key] = owner
    return locations, issues


def validate_config(
    checked: CheckedProgram,
    config: ConfigTree,
    services: list[str] | None = None,
) -> list[MonosliceError]:
    """Every issue of the selected services' port locations (resolve_locations); empty means usable."""
    return resolve_locations(checked, config, services)[1]
