import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monoslice.cli import main
from monoslice.config import Location
from monoslice.values import MAX_DIGITS, Long, ValueTree

from conftest import call_once_serving, free_ports
from script import corrupted_fixture_source, nested_source


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_check_fixture_prints_only_its_warnings(fixture_path, capsys):
    assert main(["check", str(fixture_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    untyped = "config parameter 'config' is untyped and treated as unconstrained"
    assert captured.err.splitlines() == [
        f"{fixture_path}: warning: service QuerySide: {untyped}",
        f"{fixture_path}: warning: service CommandSide: config type 'Configuration' is not declared; "
        "the parameter is treated as unconstrained",
        f"{fixture_path}: warning: service EventStore: {untyped}",
        f"{fixture_path}: warning: service TestClient: {untyped}",
    ]


def test_check_a_program_without_warnings_prints_nothing(tmp_path, capsys):
    clean = tmp_path / "clean.ol"
    clean.write_text("type C { S:void }\nservice S( config:C ) {\n  main { x = 1 }\n}\n")
    assert main(["check", str(clean)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


# a port location that no configuration can make good: one error at line 3, column 28
BAD_LOCATIONS = {
    "binary": ("1 + 2", "3:30", "location must be a string literal or a config path"),
    "indexed": ("config.S[0].location", "3:28", "indices are not allowed in config paths"),
    "foreign": ("anything.S.location", "3:28", "location path must be rooted at config parameter 'config'"),
    "literal": ('"socket://host"', "3:28", "expected socket://host:port"),
    "no-parameter": (
        "config.S.location", "3:28", "service S has no config parameter, so a location must be a string literal"
    ),
}


@pytest.mark.parametrize("command", ["check", "run", "slice"])
@pytest.mark.parametrize("shape", sorted(BAD_LOCATIONS))
def test_a_malformed_location_is_a_positioned_error_of_every_command(command, shape, tmp_path, capsys):
    location, where, reason = BAD_LOCATIONS[shape]
    param = "" if shape == "no-parameter" else "( config )"
    bad = tmp_path / "bad.ol"
    bad.write_text(
        "interface I { RequestResponse: op( int )( int ) }\n"
        f"service S {param} {{\n"
        f"  inputPort In {{ location: {location} protocol: http interfaces: I }}\n"
        "  main { op( a )( b ) { b = 1 } }\n"
        "}\n"
    )
    config = tmp_path / "config.json"
    config.write_text('{"S": {"location": "local://s"}}')
    out = tmp_path / "sliced"
    args = [] if command == "check" else ["--config", str(config)]
    args += ["--output", str(out)] if command == "slice" else []
    assert main([command, *args, str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}:{where}: error: bad location: {reason}\n"
    assert not out.exists()


def test_check_and_slice_never_import_the_runtime(fixture_path, deploy_config_path, tmp_path):
    # the runtime pulls in http.client, socket and logging, which only run needs
    code = (
        "import sys\n"
        "from monoslice import cli\n"
        "assert cli.main(['check', sys.argv[1]]) == 0\n"
        "assert cli.main(['slice', '--config', sys.argv[2], '--output', sys.argv[3], sys.argv[1]]) == 0\n"
        "print([m for m in ('monoslice.runtime', 'http.client') if m in sys.modules])\n"
    )
    argv = [str(fixture_path), str(deploy_config_path), str(tmp_path / "sliced")]
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_check_missing_file(capsys):
    assert main(["check", "no-such-file.ol"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_diagnostics_are_positioned_and_stable(tmp_path, capsys):
    bad = tmp_path / "bad.ol"
    bad.write_text("type A {\n  x:Missing\n}\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}:2:5: error: undefined type 'Missing'\n"


def test_check_parse_error_position(tmp_path, capsys):
    bad = tmp_path / "bad.ol"
    bad.write_text("type A : {}\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}:1:10: error:")


def test_check_non_ascii_digit_is_a_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.ol"
    bad.write_text("service S {\n  main { x = ² }\n}\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}:2:14: error: illegal character '²'\n"


def test_check_over_long_integer_is_a_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.ol"
    bad.write_text("service S {\n  main { x = " + "7" * 5000 + " }\n}\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}:2:14: error: integer literal has too many digits\n"


@pytest.mark.parametrize("limit", ["0", "640"])
def test_check_draws_the_digit_line_of_the_program_whatever_the_process_sets(limit, tmp_path):
    verdicts = []
    for digits in (MAX_DIGITS, MAX_DIGITS + 1):
        program = tmp_path / f"{digits}.ol"
        program.write_text("service S {\n  main { x = " + "7" * digits + " }\n}\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "monoslice", "check", str(program)],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONINTMAXSTRDIGITS": limit},
        )
        verdicts.append((result.returncode, result.stderr))
    error = f"{tmp_path / '4301.ol'}:2:14: error: integer literal has too many digits\n"
    assert verdicts == [(0, ""), (2, error)]


def test_check_overflowing_double_is_a_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.ol"
    bad.write_text("service S {\n  main { y = 1e999 }\n}\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}:2:14: error: double literal out of range\n"


def test_check_nesting_too_deep_is_one_positioned_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.ol"
    bad.write_text(nested_source(200) + "\n", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"{bad}:1:") and ": error: expected code nested less deeply, found '" in err


def test_run_fixture_exits_zero_quickly(fixture_path, local_config_path, capsys):
    started = time.monotonic()
    assert main(["run", "--config", str(local_config_path), str(fixture_path)]) == 0
    assert time.monotonic() - started < 5.0
    assert "TestClient" in capsys.readouterr().out


def test_run_corrupted_fixture_exits_one(fixture_source, local_config_path, tmp_path, capsys):
    mutated = tmp_path / "smart-city.ol"
    mutated.write_text(corrupted_fixture_source(fixture_source))
    assert main(["run", "--config", str(local_config_path), str(mutated)]) == 1
    assert "AssertionFailed" in capsys.readouterr().out


def test_run_rejects_unsatisfiable_config(fixture_path, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert main(["run", "--config", str(empty), str(fixture_path)]) == 2
    assert "missing config path" in capsys.readouterr().err


def test_slice_rejects_unsatisfiable_config(fixture_path, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    out = tmp_path / "sliced"
    assert main(["slice", "--config", str(empty), "--output", str(out), str(fixture_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing config path" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "slice"])
def test_the_program_then_the_config_must_load(command, fixture_path, tmp_path, capsys):
    missing = tmp_path / "missing.json"
    # the program is read first: a missing one is the only error reported
    assert main([command, "--config", str(missing), "no-such-file.ol"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read no-such-file.ol:")
    assert main([command, "--config", str(missing), str(fixture_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}:")
    broken = tmp_path / "broken.json"
    broken.write_text('{"A":')
    assert main([command, "--config", str(broken), str(fixture_path)]) == 2
    assert capsys.readouterr().err.startswith(f"{broken}: error: ")


def test_run_single_service_serves_until_terminated(fixture_path, tmp_path):
    port, event_store_port = free_ports(2)
    config = tmp_path / "solo.json"
    config.write_text(json.dumps(
        {
            "CommandSide": {"location": f"socket://127.0.0.1:{port}"},
            "EventStore": {"location": f"socket://127.0.0.1:{event_store_port}"},
        }
    ))
    # leaving the with block closes the pipes and reaps the child
    with subprocess.Popen(
        [
            sys.executable, "-m", "monoslice", "run",
            "--config", str(config), "--service", "CommandSide", "--service", "EventStore",
            str(fixture_path),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as process:
        try:
            location = Location.socket("127.0.0.1", port)
            reply = call_once_serving(process, location, "deleteParkingArea", ValueTree(Long(9)))
            assert reply == ValueTree("OK")
            process.terminate()
            assert process.wait(timeout=10) == 0  # graceful shutdown on SIGTERM
        finally:
            process.kill()


def test_slice_writes_expected_tree(fixture_path, deploy_config_path, tmp_path, capsys):
    out = tmp_path / "sliced"
    code = main(
        [
            "slice", "--config", str(deploy_config_path),
            "--exclude", "TestClient", "--output", str(out), str(fixture_path),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 10
    listed = {line.split("\t")[0] for line in lines}
    assert str(out / "docker-compose.yml") in listed
    assert sorted(p.name for p in out.iterdir()) == [
        "commandside", "docker-compose.yml", "eventstore", "queryside",
    ]
    for folder, program in (
        ("commandside", "CommandSide.ol"),
        ("queryside", "QuerySide.ol"),
        ("eventstore", "EventStore.ol"),
    ):
        assert {p.name for p in (out / folder).iterdir()} == {
            "Dockerfile", program, "deploy.json",
        }


def test_slice_refuses_an_excluded_name_that_is_no_service(
    fixture_path, deploy_config_path, tmp_path, capsys
):
    out = tmp_path / "sliced"
    code = main(
        [
            "slice", "--config", str(deploy_config_path),
            "--exclude", "TestClent", "--output", str(out), str(fixture_path),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: unknown service 'TestClent'\n"
    assert not out.exists()


def test_slice_refuses_overwrite_without_force(fixture_path, deploy_config_path, tmp_path, capsys):
    out = tmp_path / "sliced"
    argv = [
        "slice", "--config", str(deploy_config_path),
        "--exclude", "TestClient", "--output", str(out), str(fixture_path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv) == 2
    assert "use --force" in capsys.readouterr().err
    first = tree_digest(out)
    assert main(argv[:1] + ["--force"] + argv[1:]) == 0
    assert tree_digest(out) == first


def test_every_slice_passes_check(fixture_path, deploy_config_path, tmp_path, capsys):
    out = tmp_path / "sliced"
    assert main(
        [
            "slice", "--config", str(deploy_config_path),
            "--exclude", "TestClient", "--output", str(out), str(fixture_path),
        ]
    ) == 0
    capsys.readouterr()
    for program in sorted(out.rglob("*.ol")):
        assert main(["check", str(program)]) == 0, program


def test_slice_default_output_dir_is_named_after_the_program(
    fixture_path, deploy_config_path, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(
        ["slice", "--config", str(deploy_config_path), "--exclude", "TestClient", str(fixture_path)]
    ) == 0
    assert (tmp_path / "smart-city-sliced" / "docker-compose.yml").exists()


def test_slice_image_and_runner_overrides(fixture_path, deploy_config_path, tmp_path, capsys):
    out = tmp_path / "sliced"
    assert main(
        [
            "slice", "--config", str(deploy_config_path), "--exclude", "TestClient",
            "--base-image", "registry.example/worker:7", "--runner-cmd", "svc-run",
            "--output", str(out), str(fixture_path),
        ]
    ) == 0
    dockerfile = (out / "commandside" / "Dockerfile").read_text()
    assert dockerfile.splitlines()[0] == "FROM registry.example/worker:7"
    assert dockerfile.splitlines()[3].startswith('CMD ["svc-run", "--config"')


def test_bare_form_without_service_slices(fixture_path, deploy_config_path, tmp_path, capsys):
    out = tmp_path / "bare"
    code = main(
        [
            "--config", str(deploy_config_path), "--exclude", "TestClient",
            "--output", str(out), str(fixture_path),
        ]
    )
    assert code == 0
    assert (out / "docker-compose.yml").exists()


def test_bare_form_with_service_runs(fixture_path, local_config_path, capsys):
    code = main(
        [
            "--config", str(local_config_path),
            "--service", "QuerySide", "--service", "CommandSide",
            "--service", "EventStore", "--service", "TestClient",
            str(fixture_path),
        ]
    )
    assert code == 0
    assert "executable=completed" in capsys.readouterr().out


def test_usage_errors_exit_two(capsys):
    assert main(["run", "program.ol"]) == 2  # --config required
    assert main([]) == 2


def test_slice_onto_a_file_path_is_a_clean_error(
    fixture_path, deploy_config_path, tmp_path, capsys
):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    code = main(
        ["slice", "--config", str(deploy_config_path), "--output", str(blocker), str(fixture_path)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_generated_dockerfile_cmd_serves_its_service(fixture_path, tmp_path):
    # reproduce a container: slice, cd into the service folder, run the CMD argv
    names = ("QuerySide", "CommandSide", "EventStore", "TestClient")
    ports = dict(zip(names, free_ports(len(names))))
    config = tmp_path / "loopback.json"
    config.write_text(json.dumps(
        {name: {"location": f"socket://127.0.0.1:{port}"} for name, port in ports.items()}
    ))
    out = tmp_path / "sliced"
    assert main(
        ["slice", "--config", str(config), "--exclude", "TestClient",
         "--output", str(out), str(fixture_path)]
    ) == 0

    folder = out / "eventstore"
    cmd_line = (folder / "Dockerfile").read_text().splitlines()[-1]
    argv = json.loads(cmd_line[len("CMD "):])
    assert argv[0] == "monoslice"
    with subprocess.Popen(
        [sys.executable, "-m", "monoslice", *argv[1:]],
        cwd=folder,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as process:
        try:
            location = Location.socket("127.0.0.1", ports["EventStore"])
            reply = call_once_serving(process, location, "lookup", ValueTree(Long(1)))
            assert reply == ValueTree()  # empty LookupResult: nothing recorded yet
            process.terminate()
            assert process.wait(timeout=10) == 0
        finally:
            process.kill()
