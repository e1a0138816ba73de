import hashlib
from pathlib import Path

import pytest
import yaml

from monoslice.config import Location, load_config
from monoslice.deploy import (
    DeployOptions,
    FolderNameCollision,
    MissingLocation,
    RefusingToOverwrite,
    UnusableFolderName,
    plan_deployment,
    write_deployment,
)
from monoslice.errors import NoServices
from monoslice.parser import parse_source
from monoslice.semantics import resolve
from monoslice.slicer import UnknownService, slice_all


@pytest.fixture()
def fixture_plan_inputs(fixture_checked, deploy_config_path):
    return (
        slice_all(fixture_checked),
        load_config(deploy_config_path),
        deploy_config_path.read_bytes(),
    )


def make_options(tmp_path, config_bytes, **kwargs):
    return DeployOptions(
        output_root=tmp_path / "out",
        config_bytes=config_bytes,
        exclude_services=kwargs.pop("exclude", {"TestClient"}),
        **kwargs,
    )


def test_plan_excludes_and_lowercases(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    plan = plan_deployment(slices, config, make_options(tmp_path, raw))
    assert [e.folder_name for e in plan.entries] == ["queryside", "commandside", "eventstore"]
    assert [e.program_file_name for e in plan.entries] == [
        "QuerySide.ol",
        "CommandSide.ol",
        "EventStore.ol",
    ]
    assert all(e.exposed_port == 8080 for e in plan.entries)


def test_plan_requires_resolvable_locations(fixture_checked, tmp_path):
    from monoslice.values import ValueTree

    slices = slice_all(fixture_checked)
    with pytest.raises(MissingLocation):
        plan_deployment(slices, ValueTree(), make_options(tmp_path, b"{}"))


def test_dockerfiles_reference_only_sibling_files(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    plan = plan_deployment(slices, config, make_options(tmp_path, raw))
    for entry in plan.entries:
        assert "../" not in entry.dockerfile_text
        for line in entry.dockerfile_text.splitlines():
            if line.startswith("COPY "):
                assert line.split()[1] in (entry.program_file_name, "deploy.json")


def test_dockerfile_matches_four_line_template(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    plan = plan_deployment(slices, config, make_options(tmp_path, raw))
    command_side = next(e for e in plan.entries if e.service_name == "CommandSide")
    assert command_side.dockerfile_text == (
        "FROM monoslice-runtime\n"
        "COPY CommandSide.ol .\n"
        "COPY deploy.json .\n"
        'CMD ["monoslice", "--config", "deploy.json", "--service", "CommandSide", "CommandSide.ol"]\n'
    )


def test_compose_text_is_valid_yaml_with_expected_shape(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    plan = plan_deployment(slices, config, make_options(tmp_path, raw))
    assert "build: ./commandside" in plan.compose_text
    assert "replicas: 1" in plan.compose_text
    parsed = yaml.safe_load(plan.compose_text)
    assert list(parsed) == ["services"]
    assert set(parsed["services"]) == {"queryside", "commandside", "eventstore"}
    for folder, body in parsed["services"].items():
        assert body["build"] == f"./{folder}"
        assert body["deploy"] == {"replicas": 1}
        assert "ports" not in body


def test_ports_published_only_when_requested(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    plan = plan_deployment(slices, config, make_options(tmp_path, raw, expose_ports=True))
    parsed = yaml.safe_load(plan.compose_text)
    for body in parsed["services"].values():
        assert body["ports"] == ["8080:8080"]


def test_dns_coherence_between_config_and_compose(fixture_plan_inputs, fixture_checked, tmp_path):
    slices, config, raw = fixture_plan_inputs
    plan = plan_deployment(slices, config, make_options(tmp_path, raw))
    for entry in plan.entries:
        location = config.child(entry.service_name).child("location").root
        assert Location.parse(location).host == entry.folder_name


def test_folder_name_collision_detected(tmp_path):
    source = (
        "interface I { RequestResponse: op( int )( int ) }"
        'service Twin { inputPort In { location: "socket://twin:1" protocol: http interfaces: I } main { op( a )( b ) { b = 1 } } }'
        'service TWIN { inputPort In { location: "socket://twin:2" protocol: http interfaces: I } main { op( a )( b ) { b = 1 } } }'
    )
    checked = resolve(parse_source(source))
    from monoslice.values import ValueTree

    with pytest.raises(FolderNameCollision):
        plan_deployment(
            slice_all(checked),
            ValueTree(),
            make_options(tmp_path, b"{}", exclude=set()),
        )


def test_a_folder_name_compose_cannot_use_is_refused(tmp_path):
    source = (
        "interface I { RequestResponse: op( int )( int ) }"
        'service Café { inputPort In { location: "local://cafe" protocol: http interfaces: I } main { op( a )( b ) { b = 1 } } }'
    )
    from monoslice.values import ValueTree

    with pytest.raises(UnusableFolderName) as exc:
        plan_deployment(
            slice_all(resolve(parse_source(source))),
            ValueTree(),
            make_options(tmp_path, b"{}", exclude=set()),
        )
    assert exc.value.folder == "café"
    assert str(exc.value).startswith("service Café: output folder 'café' is not a Docker Compose service name")


def test_excluding_a_name_that_is_no_service_is_an_error(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    with pytest.raises(UnknownService) as exc:
        plan_deployment(slices, config, make_options(tmp_path, raw, exclude={"TestClent"}))
    assert exc.value.name == "TestClent"


def test_everything_excluded_is_an_error(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    with pytest.raises(NoServices):
        plan_deployment(
            slices, config, make_options(tmp_path, raw, exclude=set(slices))
        )


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_write_deployment_manifest_and_files(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    options = make_options(tmp_path, raw)
    plan = plan_deployment(slices, config, options)
    manifest = write_deployment(plan)
    assert len(manifest) == 10  # compose + 3 services x 3 files
    root = options.output_root
    assert (root / "docker-compose.yml").exists()
    for folder, program in (
        ("queryside", "QuerySide.ol"),
        ("commandside", "CommandSide.ol"),
        ("eventstore", "EventStore.ol"),
    ):
        assert (root / folder / program).exists()
        assert (root / folder / "deploy.json").read_bytes() == raw  # verbatim copy
        assert (root / folder / "Dockerfile").exists()
    for relative, size in manifest:
        assert (root / relative).stat().st_size == size


def test_written_programs_reparse_and_resolve(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    options = make_options(tmp_path, raw)
    write_deployment(plan_deployment(slices, config, options))
    for program_file in options.output_root.rglob("*.ol"):
        resolve(parse_source(program_file.read_text(), program_file.stem))


def test_overwrite_requires_force_and_is_deterministic(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    options = make_options(tmp_path, raw)
    plan = plan_deployment(slices, config, options)
    write_deployment(plan)
    first = tree_digest(options.output_root)
    with pytest.raises(RefusingToOverwrite):
        write_deployment(plan)
    (options.output_root / "stale.txt").write_text("left over")
    write_deployment(plan, force=True)
    assert tree_digest(options.output_root) == first  # stale file purged, bytes identical


def test_a_write_that_fails_part_way_leaves_no_output(fixture_plan_inputs, tmp_path):
    slices, config, raw = fixture_plan_inputs
    options = make_options(tmp_path, raw)
    plan = plan_deployment(slices, config, options)
    plan.entries[-1].folder_name = "docker-compose.yml"  # a file by then: its folder cannot be made
    with pytest.raises(OSError):
        write_deployment(plan)
    assert not options.output_root.exists()
