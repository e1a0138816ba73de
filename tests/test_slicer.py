import gc
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoslice import ast, deploy, lexer, parser, semantics
from monoslice.ast import ServiceDecl, SourceProgram
from monoslice.config import load_config, resolve_location
from monoslice.deploy import DeployOptions, plan_deployment
from monoslice.errors import NoServices
from monoslice.parser import parse_source
from monoslice.render import render
from monoslice.semantics import ResolveFailure, UndefinedType, resolve
from monoslice.slicer import UnknownService, compute_dependencies, slice_all, slice_service
from monoslice.values import ValueTree, decode_json

from oracle import removable_declarations
from proggen import random_program


def test_command_side_dependencies(fixture_checked):
    deps = compute_dependencies(fixture_checked, "CommandSide")
    assert deps.interfaces == {"CommandSideInterface", "EventStoreInterface"}
    assert deps.types >= {
        "PAID",
        "ParkingArea",
        "ParkingAreaInformation",
        "TimePeriod",
        "ChargingSpeed",
        "Location",
    }
    assert "Configuration" not in deps.types  # declared type name, never declared


def test_isolated_service_has_empty_dependency_set():
    checked = resolve(parse_source("service Lonely( config ) { main { x = 1 } }"))
    deps = compute_dependencies(checked, "Lonely")
    assert deps.types == set() and deps.interfaces == set()


def test_type_cycles_terminate():
    source = (
        "type A { next?:B }"
        "type B { back?:A }"
        "interface I { RequestResponse: op( A )( B ) }"
        'service S { inputPort In { location: "local://s" protocol: http interfaces: I } '
        "main { op( a )( b ) { b = 1 } } }"
    )
    deps = compute_dependencies(resolve(parse_source(source)), "S")
    assert deps.types == {"A", "B"}


def test_unknown_service_rejected(fixture_checked):
    with pytest.raises(UnknownService):
        compute_dependencies(fixture_checked, "Nope")
    with pytest.raises(UnknownService):
        slice_service(fixture_checked, "Nope")


def test_event_store_slice_excludes_command_interface(fixture_checked):
    sliced = slice_service(fixture_checked, "EventStore")
    names = [d.name for d in sliced.declarations]
    assert "EventStoreInterface" in names
    assert "EventNotificationInterface" in names
    assert "Event" in names
    assert "CommandSideInterface" not in names
    assert "QuerySideInterface" not in names


def test_slices_resolve_standalone(fixture_checked):
    for name, program in slice_all(fixture_checked).items():
        checked = resolve(program)  # raises on any error
        assert [s.name for s in checked.program.services] == [name]


def test_single_service_program_slices_to_itself():
    source = (
        "type T : int "
        "interface I { RequestResponse: op( T )( T ) }"
        'service Only { inputPort In { location: "local://s" protocol: http interfaces: I } '
        "main { op( a )( b ) { b = a } } }"
    )
    program = parse_source(source)
    sliced = slice_service(resolve(program), "Only")
    assert render(sliced) == render(program)


def test_slice_preserves_declaration_order(fixture_checked):
    original = [d.name for d in fixture_checked.program.declarations]
    for program in slice_all(fixture_checked).values():
        names = [d.name for d in program.declarations[:-1]]
        positions = [original.index(n) for n in names]
        assert positions == sorted(positions)
        assert isinstance(program.declarations[-1], ServiceDecl)


def test_slice_all_sizes(fixture_checked):
    slices = slice_all(fixture_checked)
    assert list(slices) == ["QuerySide", "CommandSide", "EventStore", "TestClient"]
    for program in slices.values():
        assert sum(isinstance(d, ServiceDecl) for d in program.declarations) == 1


def test_slice_all_requires_services():
    checked = resolve(parse_source("type T : int"))
    with pytest.raises(NoServices):
        slice_all(checked)


def test_slice_all_is_deterministic(fixture_checked):
    first = {n: render(p) for n, p in slice_all(fixture_checked).items()}
    second = {n: render(p) for n, p in slice_all(fixture_checked).items()}
    assert first == second


def test_union_of_slices_covers_exactly_the_reachable_declarations(fixture_checked):
    slices = slice_all(fixture_checked)
    in_slices = {
        d.name
        for program in slices.values()
        for d in program.declarations
        if not isinstance(d, ServiceDecl)
    }
    reachable = set()
    for name in slices:
        deps = compute_dependencies(fixture_checked, name)
        reachable |= deps.types | deps.interfaces
    assert in_slices == reachable


def test_declarations_unused_by_every_service_appear_in_no_slice():
    source = (
        "type Used : int "
        "type Unused { w:Waste } "
        "type Waste : string "
        "interface I { RequestResponse: op( Used )( Used ) } "
        "interface Idle { OneWay: never( Unused ) } "
        'service S { inputPort In { location: "local://s" protocol: http interfaces: I } '
        "main { op( a )( b ) { b = a } } }"
    )
    checked = resolve(parse_source(source))
    names = {d.name for d in slice_service(checked, "S").declarations}
    assert names == {"Used", "I", "S"}


def test_fixture_slices_are_minimal(fixture_checked):
    for name, program in slice_all(fixture_checked).items():
        assert removable_declarations(program) == [], name


@pytest.mark.parametrize("seed", range(40))
def test_generated_slices_are_sound_and_minimal(seed):
    rng = random.Random(seed)
    program = random_program(rng)
    checked = resolve(program)
    if not program.services:
        return
    for name, sliced in slice_all(checked).items():
        resolve(sliced)  # soundness: no dangling references
        assert removable_declarations(sliced) == [], (seed, name)
        deps = compute_dependencies(checked, name)
        for decl in sliced.declarations[:-1]:
            assert decl.name in deps.types | deps.interfaces


def monolith(source: str, copies: int):
    """copies of source, every declared name suffixed with its copy's number, and a config for all their services."""
    names = re.findall(r"^(?:type|interface|service)\s+(\w+)", source, flags=re.MULTILINE)
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    text = "\n".join(
        pattern.sub(lambda m: f"{m.group(1)}_{copy}", source) for copy in range(1, copies + 1)
    )
    services = re.findall(r"^service\s+(\w+)", source, flags=re.MULTILINE)
    locations = {
        f"{name}_{copy}": {"location": f"socket://{name.lower()}-{copy}:8080"}
        for copy in range(1, copies + 1)
        for name in services
    }
    return text, decode_json(json.dumps(locations))


def line_column(text: str, index: int) -> str:
    return f"{text.count(chr(10), 0, index) + 1}:{index - text.rfind(chr(10), 0, index)}"


def test_parsing_resolving_slicing_and_planning_build_no_position(
    fixture_source, deploy_config_path, monkeypatch
):
    def refuse(starts, offset):
        raise AssertionError("a position was built")

    for module in (ast, lexer, parser):
        monkeypatch.setattr(module, "position", refuse)
    options = DeployOptions(output_root=Path("out"), config_bytes=b"{}")
    for source, config in [
        (fixture_source, load_config(deploy_config_path)),
        monolith(fixture_source, 3),
    ]:
        checked = resolve(parse_source(source))
        plan = plan_deployment(slice_all(checked), config, options)
        assert [e.service_name for e in plan.entries] == [s.name for s in checked.program.services]
    # the names patched are the ones a diagnostic goes through
    with pytest.raises(AssertionError, match="a position was built"):
        parse_source("type")
    with pytest.raises(AssertionError, match="a position was built"):
        resolve(parse_source("type A { x:Missing }"))


@pytest.mark.parametrize("copies, service", [(1, "QuerySide"), (3, "QuerySide_2")])
def test_a_slice_reports_positions_in_its_monolith(fixture_source, copies, service):
    text = fixture_source if copies == 1 else monolith(fixture_source, copies)[0]
    missing = "ChargingSpeed" if copies == 1 else "ChargingSpeed_2"
    sliced = slice_all(resolve(parse_source(text)))[service]
    broken = SourceProgram(
        [d for d in sliced.declarations if d.name != missing], sliced.source_name, sliced.line_starts
    )
    with pytest.raises(ResolveFailure) as exc:
        resolve(broken)
    [error] = exc.value.errors
    assert isinstance(error, UndefinedType) and error.name == missing
    reference = text.index(f"chargingSpeed:{missing}\n") + len("chargingSpeed:")
    assert str(error.pos) == line_column(text, reference)
    if copies == 1:
        assert str(error) == "17:16: undefined type 'ChargingSpeed'"


def test_planning_resolves_nothing(fixture_source, deploy_config_path, monkeypatch):
    def refuse(program):
        raise AssertionError("a program was resolved")

    options = DeployOptions(output_root=Path("out"), config_bytes=b"{}")
    for source, config in [
        (fixture_source, load_config(deploy_config_path)),
        monolith(fixture_source, 3),
    ]:
        slices = slice_all(resolve(parse_source(source)))
        with monkeypatch.context() as patch:
            for module in (deploy, semantics):
                patch.setattr(module, "resolve", refuse)
            plan = plan_deployment(slices, config, options)
        assert [e.service_name for e in plan.entries] == list(slices)


def test_parsing_resolving_slicing_and_planning_leave_no_cyclic_garbage(
    fixture_source, deploy_config_path
):
    options = DeployOptions(output_root=Path("out"), config_bytes=b"{}")
    inputs = [(fixture_source, load_config(deploy_config_path)), monolith(fixture_source, 3)]
    gc.collect()
    gc.disable()
    try:
        for source, config in inputs:
            plan_deployment(slice_all(resolve(parse_source(source))), config, options)
            # reference counting alone freed all that the calls made
            assert gc.collect() == 0
    finally:
        gc.enable()


def assert_planned_as_resolved_standalone(slices, config) -> None:
    """Each plan entry is what its slice, resolved on its own, gives."""
    reference = {}
    for name, sliced in slices.items():
        decl = resolve(sliced).service_table[name]
        locations = [resolve_location(config, port.location) for port in decl.input_ports]
        exposed = next((loc.port for loc in locations if loc.scheme == "socket"), None)
        reference[name] = (name.lower(), render(sliced), exposed)
    options = DeployOptions(output_root=Path("out"), config_bytes=b"{}")
    plan = plan_deployment(slices, config, options)
    assert {e.service_name: (e.folder_name, e.program_text, e.exposed_port) for e in plan.entries} == reference


def test_fixture_and_monolith_plans_match_their_slices_resolved_standalone(
    fixture_source, deploy_config_path
):
    for source, config in [
        (fixture_source, load_config(deploy_config_path)),
        monolith(fixture_source, 3),
    ]:
        assert_planned_as_resolved_standalone(slice_all(resolve(parse_source(source))), config)


@pytest.mark.parametrize("seed", range(40))
def test_generated_plans_match_their_slices_resolved_standalone(seed):
    checked = resolve(random_program(random.Random(seed)))
    if checked.program.services:
        assert_planned_as_resolved_standalone(slice_all(checked), ValueTree())


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_generated_slices_are_sound_minimal_and_planned_as_resolved_standalone(seed):
    checked = resolve(random_program(random.Random(seed)))
    if not checked.program.services:
        return
    slices = slice_all(checked)
    for name, sliced in slices.items():
        resolve(sliced)  # soundness: no dangling references
        assert removable_declarations(sliced) == [], name
    assert_planned_as_resolved_standalone(slices, ValueTree())
