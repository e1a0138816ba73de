"""Deployment artifact generation: per-service folders, Dockerfiles, compose file.

The output directory holds one subfolder per included service (lowercased
service name) containing the sliced program, a verbatim copy of the
configuration file, and a four-line Dockerfile. A docker-compose.yml at
the root covers all included services; the subset emitted is compatible
with `docker stack deploy`.
"""

from __future__ import annotations

import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from .ast import SourceProgram
from .config import resolve_location
from .errors import MonosliceError, NoServices
from .render import render
# not called here: perfbench/measure.py wraps deploy.resolve by name
from .semantics import resolve  # noqa: F401
from .slicer import UnknownService
from .values import ValueTree

DEFAULT_BASE_IMAGE = "monoslice-runtime"
DEFAULT_RUNNER_CMD = "monoslice"

DOCKERFILE_TEMPLATE = """FROM {base_image}
COPY {service}.ol .
COPY deploy.json .
CMD ["{runner}", "--config", "deploy.json", "--service", "{service}", "{service}.ol"]
"""

# the service names the compose file format accepts (compose-spec's schema)
COMPOSE_SERVICE_NAME = re.compile(r"[a-zA-Z0-9._-]+")


class FolderNameCollision(MonosliceError):
    def __init__(self, folder: str, services: list[str]):
        self.folder = folder
        super().__init__(
            f"services {', '.join(services)} collide on output folder '{folder}'"
        )


class UnusableFolderName(MonosliceError):
    def __init__(self, folder: str, service: str):
        self.folder = folder
        super().__init__(
            f"service {service}: output folder '{folder}' is not a Docker Compose service name "
            "(ASCII letters, digits, '.', '_' and '-' only)"
        )


class MissingLocation(MonosliceError):
    def __init__(self, service: str, detail: str):
        self.service = service
        super().__init__(f"service {service}: {detail}")


class RefusingToOverwrite(MonosliceError):
    def __init__(self, path: Path):
        self.path = path
        super().__init__(f"output directory {path} exists and is not empty (use --force)")


@dataclass
class DeployOptions:
    output_root: Path
    config_bytes: bytes
    exclude_services: set[str] = field(default_factory=set)
    base_image: str = DEFAULT_BASE_IMAGE
    runner_cmd: str = DEFAULT_RUNNER_CMD
    expose_ports: bool = False


@dataclass
class PlanEntry:
    service_name: str
    folder_name: str
    program_file_name: str
    program_text: str
    dockerfile_text: str
    exposed_port: int | None


@dataclass
class DeploymentPlan:
    output_root: Path
    entries: list[PlanEntry]
    compose_text: str
    config_file_name: str
    config_bytes: bytes


def plan_deployment(
    slices: dict[str, SourceProgram],
    config: ValueTree,
    options: DeployOptions,
) -> DeploymentPlan:
    """Build the deterministic deployment plan for the included services.

    Each slice is taken as slice_service made it: it resolves standalone,
    and its last declaration is its service, whose input ports give the
    port to expose. Nothing is resolved again here. An excluded name that
    is no service of the program, and a folder name that Docker Compose
    cannot use as a service name, are errors.
    """
    unknown = sorted(options.exclude_services - slices.keys())
    if unknown:
        raise UnknownService(unknown[0])
    included = {
        name: program
        for name, program in slices.items()
        if name not in options.exclude_services
    }
    if not included:
        raise NoServices("no services left to deploy after exclusions")

    folders: dict[str, str] = {}
    entries: list[PlanEntry] = []
    for name, program in included.items():
        folder = name.lower()
        if folder in folders:
            raise FolderNameCollision(folder, [folders[folder], name])
        if not COMPOSE_SERVICE_NAME.fullmatch(folder):
            raise UnusableFolderName(folder, name)
        folders[folder] = name

        decl = program.declarations[-1]
        exposed: int | None = None
        for port in decl.input_ports:
            try:
                location = resolve_location(config, port.location)
            except MonosliceError as exc:
                raise MissingLocation(name, str(exc)) from exc
            if location.scheme == "socket" and exposed is None:
                exposed = location.port

        entries.append(
            PlanEntry(
                service_name=name,
                folder_name=folder,
                program_file_name=f"{name}.ol",
                program_text=render(program),
                dockerfile_text=DOCKERFILE_TEMPLATE.format(
                    base_image=options.base_image, service=name, runner=options.runner_cmd
                ),
                exposed_port=exposed,
            )
        )

    return DeploymentPlan(
        output_root=options.output_root,
        entries=entries,
        compose_text=_compose_text(entries, options.expose_ports),
        config_file_name="deploy.json",
        config_bytes=options.config_bytes,
    )


def _compose_text(entries: list[PlanEntry], expose_ports: bool) -> str:
    lines = ["services:"]
    for entry in entries:
        lines.append(f"  {entry.folder_name}:")
        lines.append(f"    build: ./{entry.folder_name}")
        if expose_ports and entry.exposed_port is not None:
            lines.append("    ports:")
            lines.append(f'      - "{entry.exposed_port}:{entry.exposed_port}"')
        lines.append("    deploy:")
        lines.append("      replicas: 1")
    return "\n".join(lines) + "\n"


def write_deployment(plan: DeploymentPlan, force: bool = False) -> list[tuple[str, int]]:
    """Write the plan to disk and return the manifest of (path, bytes).

    Refuses a non-empty output root unless force is set, in which case
    the root is replaced wholesale so reruns are byte-identical. Partial
    output is removed if writing fails.
    """
    root = plan.output_root
    if root.exists() and any(root.iterdir()):
        if not force:
            raise RefusingToOverwrite(root)
        shutil.rmtree(root)
    try:
        root.mkdir(parents=True, exist_ok=True)
        manifest: list[tuple[str, int]] = []

        def write(relative: str, data: bytes) -> None:
            target = root / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
            manifest.append((relative, len(data)))

        write("docker-compose.yml", plan.compose_text.encode("utf-8"))
        for entry in plan.entries:
            write(f"{entry.folder_name}/{entry.program_file_name}", entry.program_text.encode("utf-8"))
            write(f"{entry.folder_name}/{plan.config_file_name}", plan.config_bytes)
            write(f"{entry.folder_name}/Dockerfile", entry.dockerfile_text.encode("utf-8"))
        return manifest
    except Exception:
        shutil.rmtree(root, ignore_errors=True)
        raise
