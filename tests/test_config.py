import pytest

from monoslice.ast import Literal, PathExpr
from monoslice.config import (
    BadLocationSyntax,
    Location,
    LocationCollision,
    MissingConfigPath,
    load_config,
    resolve_location,
    validate_config,
)
from monoslice.parser import parse_source
from monoslice.semantics import resolve
from monoslice.values import JsonError, ValueTree, decode_json


@pytest.mark.parametrize(
    "text",
    [
        "socket://localhost:9002",
        "socket://commandside:8080",
        "socket://::1:8080",
        "socket://café.example:8080",
        "local://es",
        "local://a-b_c",
    ],
)
def test_location_round_trip(text):
    assert str(Location.parse(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "http://x:1",
        "socket://:80",
        "socket://h",
        "socket://h:0",
        "socket://h:65536",
        "socket://h:12x",
        "local://",
        "local://a/b",
        "socket://h:1/path",
        # hosts the HTTP client cannot dial: whitespace or a control character,
        # and names the idna codec refuses (an empty label, one over 63 characters)
        "socket://bad host:8080",
        "socket://tab\there:8080",
        "socket://a..b:8080",
        "socket://" + "x" * 70 + ":8080",
    ],
)
def test_invalid_locations_rejected(text):
    with pytest.raises(BadLocationSyntax):
        Location.parse(text)


def test_load_config_maps_json_to_tree(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"CommandSide":{"location":"socket://localhost:9002"}}')
    tree = load_config(path)
    assert tree.child("CommandSide").child("location").root == "socket://localhost:9002"


def test_load_empty_object(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{}")
    assert load_config(path) == ValueTree()


def test_load_malformed_config(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"A":')
    with pytest.raises(JsonError):
        load_config(path)


def _config():
    return decode_json('{"CommandSide":{"location":"socket://localhost:9002"}}')


def _path_expr(dotted):
    return parse_source(f"service S {{ main {{ x = {dotted} }} }}").services[0].behavior.statements[0].value


def test_resolve_location_walks_config_paths():
    location = resolve_location(_config(), _path_expr("config.CommandSide.location"))
    assert location == Location.socket("localhost", 9002)


def test_resolve_location_accepts_literals():
    assert resolve_location(_config(), Literal("local://es")) == Location.local("es")


def test_resolve_location_missing_path():
    with pytest.raises(MissingConfigPath) as exc:
        resolve_location(_config(), _path_expr("config.QuerySide.location"))
    assert exc.value.path == "QuerySide.location"
    with pytest.raises(MissingConfigPath) as exc:  # present, but holding no string
        resolve_location(_config(), _path_expr("config.CommandSide"))
    assert exc.value.path == "CommandSide"


def test_validate_fixture_against_bundled_configs(fixture_checked, local_config):
    assert validate_config(fixture_checked, local_config) == []


def test_validate_empty_config_reports_every_config_path(fixture_checked):
    issues = validate_config(fixture_checked, ValueTree())
    assert all(isinstance(issue, MissingConfigPath) for issue in issues)
    config_path_ports = sum(
        isinstance(port.location, PathExpr)
        for service in fixture_checked.program.services
        for port in service.ports()
    )
    assert len(issues) == config_path_ports == 8


def test_validate_reports_input_location_collisions():
    source = (
        "interface I { RequestResponse: op( int )( int ) }"
        'service A { inputPort In { location: "socket://localhost:9001" protocol: http interfaces: I } main { op( a )( b ) { b = 1 } } }'
        'service B { inputPort In { location: "socket://localhost:9001" protocol: http interfaces: I } main { op( a )( b ) { b = 1 } } }'
    )
    checked = resolve(parse_source(source))
    issues = validate_config(checked, ValueTree())
    assert any(isinstance(issue, LocationCollision) for issue in issues)


def test_same_port_on_different_hosts_is_no_collision(fixture_checked, deploy_config_path):
    issues = validate_config(fixture_checked, load_config(deploy_config_path))
    assert issues == []


def test_a_literal_or_configured_location_is_parsed_when_a_configuration_is_applied():
    source = (
        "interface I { RequestResponse: op( int )( int ) }"
        'service A { inputPort In { location: "socket://host" protocol: http interfaces: I } '
        "main { op( a )( b ) { b = 1 } } }"
        "service B( config ) { inputPort In { location: config.B.location protocol: http interfaces: I } "
        "main { op( a )( b ) { b = 1 } } }"
    )
    # the resolver refuses a malformed literal (test_semantics.py), so this
    # program resolves with a good one, which is then spoiled in place
    checked = resolve(parse_source(source.replace("socket://host", "socket://host:1")))
    [port] = checked.service_table["A"].input_ports
    port.location = Literal("socket://host")
    issues = validate_config(checked, decode_json('{"B": {"location": "local://"}}'))
    assert [(type(issue), issue.text) for issue in issues] == [
        (BadLocationSyntax, "socket://host"),
        (BadLocationSyntax, "local://"),
    ]


def test_validate_respects_service_subset(fixture_checked):
    config = decode_json(
        '{"QuerySide":{"location":"local://q"},"EventStore":{"location":"local://e"}}'
    )
    assert validate_config(fixture_checked, config, ["QuerySide", "EventStore"]) == []
    assert validate_config(fixture_checked, config) != []
