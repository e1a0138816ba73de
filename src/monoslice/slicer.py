"""Per-service dependency analysis and program extraction.

A slice is the minimal standalone program for one service: the service
declaration plus every type and interface it transitively references
through its ports and its declared config type. Behavior bodies cannot
name types under this grammar, so ports fully determine dependencies
and the analysis is exact, not heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    InlineTreeRef,
    InterfaceDecl,
    NamedRef,
    RequestResponseOp,
    SourceProgram,
    TypeDecl,
    TypeRef,
)
from .errors import MonosliceError, NoServices
from .semantics import CheckedProgram


class UnknownService(MonosliceError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown service '{name}'")


@dataclass
class DependencySet:
    service_name: str
    types: set[str] = field(default_factory=set)
    interfaces: set[str] = field(default_factory=set)


def _named_types(ref: TypeRef, into: set[str]) -> None:
    if isinstance(ref, NamedRef):
        into.add(ref.name)
    elif isinstance(ref, InlineTreeRef):
        for f in ref.fields:
            _named_types(f.type, into)


def compute_dependencies(checked: CheckedProgram, service_name: str) -> DependencySet:
    """Fixpoint of type/interface reachability from a service's ports.

    Seeds are the interfaces named by the service's ports plus the config
    parameter's declared type (when that type is declared). Expansion
    follows operation request/response types and type fields, tolerating
    cycles.
    """
    decl = checked.service_table.get(service_name)
    if decl is None:
        raise UnknownService(service_name)
    deps = DependencySet(service_name)
    pending: set[str] = set()

    for port in decl.ports():
        for iface_name in port.interfaces:
            deps.interfaces.add(iface_name)
    if decl.config is not None and decl.config.type_name in checked.type_table:
        pending.add(decl.config.type_name)

    for iface_name in deps.interfaces:
        iface = checked.interface_table[iface_name]
        for op in iface.operations():
            _named_types(op.request, pending)
            if isinstance(op, RequestResponseOp):
                _named_types(op.response, pending)

    # pending never holds a name already in deps.types, and a resolved program
    # declares every type it names
    while pending:
        name = pending.pop()
        deps.types.add(name)
        referenced: set[str] = set()
        for f in checked.type_table[name].fields:
            _named_types(f.type, referenced)
        pending.update(referenced - deps.types)

    return deps


def slice_service(checked: CheckedProgram, service_name: str) -> SourceProgram:
    """Extract the standalone program for one service.

    Reachable type and interface declarations keep their original
    relative order; the service declaration comes last.
    """
    deps = compute_dependencies(checked, service_name)
    declarations = []
    for decl in checked.program.declarations:
        if isinstance(decl, TypeDecl) and decl.name in deps.types:
            declarations.append(decl)
        elif isinstance(decl, InterfaceDecl) and decl.name in deps.interfaces:
            declarations.append(decl)
    declarations.append(checked.service_table[service_name])
    # the nodes' offsets point into the monolith's source, so the slice reports its positions
    return SourceProgram(declarations, service_name, checked.program.line_starts)


def slice_all(checked: CheckedProgram) -> dict[str, SourceProgram]:
    """One slice per service, in declaration order. Deterministic."""
    services = checked.program.services
    if not services:
        raise NoServices("the program declares no services")
    return {decl.name: slice_service(checked, decl.name) for decl in services}
