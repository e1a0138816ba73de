"""Command-line entry point: check, run, slice.

Exit codes: 0 on success (and when an integration run's assertions
hold), 1 when an executable service ends in a fault, 2 on usage,
parse, resolve, or configuration errors.

The bare form `monoslice --config deploy.json program.ol` is an alias
for `slice`; with `--service` it instead runs the named services, which
is the exact command generated Dockerfiles use.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

from . import runtime
from .config import load_config, validate_config
from .deploy import (
    DEFAULT_BASE_IMAGE,
    DEFAULT_RUNNER_CMD,
    DeployOptions,
    plan_deployment,
    write_deployment,
)
from .errors import MonosliceError
from .lexer import LexError
from .parser import ParseError, parse_source
from .semantics import CheckedProgram, ResolveFailure, resolve
from .slicer import slice_all
from .values import JsonError, ValueTree


def _diag(path: str, message: str) -> None:
    print(f"{path}: {message}", file=sys.stderr)


def _positioned(program_path: str, error: MonosliceError) -> None:
    # lexer, parser and resolver errors read "line:column: message": each
    # made its position from an offset, and every node of a parsed program
    # has one
    position, _, message = str(error).partition(": ")
    _diag(f"{program_path}:{position}", f"error: {message}")


def _load_checked(program_path: str) -> CheckedProgram | None:
    """Parse and resolve a program file, printing positioned diagnostics."""
    try:
        source = Path(program_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {program_path}: {exc}", file=sys.stderr)
        return None
    try:
        program = parse_source(source, source_name=Path(program_path).stem)
    except (LexError, ParseError) as exc:
        _positioned(program_path, exc)
        return None
    try:
        return resolve(program)
    except ResolveFailure as failure:
        for error in failure.errors:
            _positioned(program_path, error)
        return None


def _load(args: argparse.Namespace) -> tuple[CheckedProgram, ValueTree] | None:
    """The checked program, then the configuration; None, once diagnosed, if either fails."""
    checked = _load_checked(args.program)
    if checked is None:
        return None
    try:
        return checked, load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
    except JsonError as exc:
        _diag(args.config, f"error: {exc}")
    return None


def cmd_check(args: argparse.Namespace) -> int:
    checked = _load_checked(args.program)
    if checked is None:
        return 2
    for warning in checked.warnings:
        _diag(args.program, f"warning: {warning}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    loaded = _load(args)
    if loaded is None:
        return 2
    checked, config = loaded
    services = args.service or None
    try:
        system = runtime.start(checked, config, services)
    except MonosliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    selected = list(system.instances.values())
    executables = [inst for inst in selected if inst.decl.is_executable]
    if executables:
        faults = system.wait_executables()
        report = system.shutdown()
        print(report)
        return 1 if any(f is not None for f in faults.values()) else 0

    print(f"serving {len(selected)} service(s); interrupt to stop", file=sys.stderr)
    # SIGTERM (docker stop, Popen.terminate) stops the services as an interrupt
    # does; cmd_run must be on the main thread to take signals
    previous = signal.getsignal(signal.SIGTERM)
    try:
        signal.signal(signal.SIGTERM, signal.default_int_handler)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        print(system.shutdown())
    return 0


def cmd_slice(args: argparse.Namespace) -> int:
    loaded = _load(args)
    if loaded is None:
        return 2
    checked, config = loaded
    issues = validate_config(checked, config)
    if issues:
        for issue in issues:
            print(f"error: {issue}", file=sys.stderr)
        return 2
    output_root = Path(args.output) if args.output else Path(f"{checked.program.source_name}-sliced")
    try:
        options = DeployOptions(
            output_root=output_root,
            config_bytes=Path(args.config).read_bytes(),
            exclude_services=set(args.exclude or []),
            base_image=args.base_image,
            runner_cmd=args.runner_cmd,
            expose_ports=args.expose_ports,
        )
        slices = slice_all(checked)
        plan = plan_deployment(slices, config, options)
        manifest = write_deployment(plan, force=args.force)
    except (MonosliceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for relative, size in manifest:
        print(f"{output_root / relative}\t{size}")
    return 0


def _add_slice_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", "-o", help="output directory (default: <program>-sliced)")
    parser.add_argument(
        "--exclude", action="append", metavar="SERVICE",
        help="leave a service out of the deployment (repeatable)",
    )
    parser.add_argument("--base-image", default=DEFAULT_BASE_IMAGE, help="Dockerfile FROM image")
    parser.add_argument("--runner-cmd", default=DEFAULT_RUNNER_CMD, help="container entry command")
    parser.add_argument(
        "--expose-ports", action="store_true",
        help="publish each service's socket port in the compose file",
    )
    parser.add_argument("--force", action="store_true", help="replace an existing output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoslice",
        description="Check, locally run, and slice a single-file microservice architecture.",
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    check = subcommands.add_parser("check", help="parse and resolve a program")
    check.add_argument("program")
    check.set_defaults(func=cmd_check)

    run = subcommands.add_parser("run", help="run services locally")
    run.add_argument("--config", required=True, help="JSON configuration file")
    run.add_argument(
        "--service", action="append", metavar="NAME",
        help="run only this service (repeatable; default: all)",
    )
    run.add_argument("program")
    run.set_defaults(func=cmd_run)

    slice_cmd = subcommands.add_parser("slice", help="slice into per-service codebases")
    slice_cmd.add_argument("--config", required=True, help="JSON configuration file")
    _add_slice_options(slice_cmd)
    slice_cmd.add_argument("program")
    slice_cmd.set_defaults(func=cmd_slice)

    return parser


def build_bare_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoslice",
        description="Bare form: slice the program, or run it when --service is given.",
    )
    parser.add_argument("--config", required=True)
    parser.add_argument("--service", action="append", metavar="NAME")
    _add_slice_options(parser)
    parser.add_argument("program")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in ("check", "run", "slice"):
            args = build_parser().parse_args(argv)
        else:
            args = build_bare_parser().parse_args(argv)
            args.func = cmd_run if args.service else cmd_slice
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
