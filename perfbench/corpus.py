"""slice-corpus: programs taken through the calls `monoslice slice` makes.

One operation takes one program's source text through parse_source,
resolve, slice_all and plan_deployment, without writing files. A round
takes every program of the corpus once, in a seeded order:

- the smart-city fixture, `FIXTURE_COPIES` times;
- `PER_BIN` programs from tests/proggen.random_program for each
  500-character band of rendered length from 0 to 4000, drawn with a
  seeded generator; the bands keep the corpus's total size the same
  for every seed;
- large monoliths, each made of k renamed copies of the fixture, for
  each k in `MONOLITHS`.

Random programs set the median and the monoliths the 99th percentile,
so a change that helps only one program size shows as p50 against p99.
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import proggen
from measure import CpuTurns, Run, Tracer
from monoslice import deploy, parser, semantics, slicer
from monoslice.config import load_config
from monoslice.render import render
from monoslice.values import ValueTree, decode_json
from oracle import removable_declarations

HERE = Path(__file__).resolve().parent
FIXTURE = HERE.parent / "src" / "monoslice" / "fixtures"
FIXTURE_COPIES = 2
BANDS = range(0, 4000, 500)
PER_BIN = 12
MONOLITHS = {4: 2, 8: 2}  # copies of the fixture -> monoliths of that size
SETUP_REPEATS = 9
COLD_START_TIMEOUT = 60


def declared_names(source: str) -> list[str]:
    return re.findall(r"^(?:type|interface|service)\s+(\w+)", source, flags=re.MULTILINE)


def renamed(text: str, names: list[str], copy: int) -> str:
    """The text with every declared name (and config key named after one) suffixed."""
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    return pattern.sub(lambda m: f"{m.group(1)}_{copy}", text)


@dataclass
class Item:
    """One corpus program: its text and the configuration its slices deploy with."""

    kind: str
    text: str
    config: ValueTree
    copies: int = 1


def build_corpus(seed: int, bands=BANDS, per_bin: int = PER_BIN, monoliths=MONOLITHS) -> list[Item]:
    fixture = (FIXTURE / "smart-city.ol").read_text(encoding="utf-8")
    deploy_config = load_config(FIXTURE / "deploy.json")
    items = [Item("fixture", fixture, deploy_config) for _ in range(FIXTURE_COPIES)]

    rng = random.Random(seed)
    wanted = {band: per_bin for band in bands}
    width = bands.step
    while any(wanted.values()):
        text = render(proggen.random_program(rng))
        band = len(text) // width * width
        if wanted.get(band):
            wanted[band] -= 1
            items.append(Item("random", text, ValueTree()))

    names = declared_names(fixture)
    services = re.findall(r"^service\s+(\w+)", fixture, flags=re.MULTILINE)
    for k, count in monoliths.items():
        text = "\n".join(renamed(fixture, names, c) for c in range(1, k + 1))
        locations = {
            f"{name}_{c}": {"location": f"socket://{name.lower()}-{c}:8080"}
            for c in range(1, k + 1)
            for name in services
        }
        config = decode_json(json.dumps(locations))
        items += [Item("monolith", text, config, copies=k) for _ in range(count)]
    return items


def pipeline(item: Item):
    """The calls `monoslice slice` makes, minus writing the files."""
    checked = semantics.resolve(parser.parse_source(item.text, "corpus"))
    slices = slicer.slice_all(checked)
    options = deploy.DeployOptions(output_root=Path("corpus-sliced"), config_bytes=b"{}")
    return deploy.plan_deployment(slices, item.config, options)


def cold_start_seconds() -> float:
    """Import monoslice and slice the fixture in a fresh interpreter; its own clock."""
    done = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py")],
        capture_output=True,
        text=True,
        timeout=COLD_START_TIMEOUT,
        check=True,
    )
    return float(done.stdout.split()[-1])


def slice_corpus(
    seed: int,
    rounds: int,
    tracer: Tracer | None = None,
    corpus: list[Item] | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> Run:
    run = Run()
    corpus = corpus if corpus is not None else build_corpus(seed)
    with CpuTurns() as turns:
        for turn in range(setup_repeats):
            turns.take(turn)  # the child inherits the CPU
            run.setup_s.append(cold_start_seconds())
        turns.release()
        reference = [pipeline(item) for item in corpus]  # also the warm-up
        rng = random.Random(seed + 1)
        order = list(range(len(corpus)))
        if tracer:
            tracer.begin_window()
        for turn in range(rounds):
            rng.shuffle(order)
            turns.take(turn)
            started = time.perf_counter()
            for index in order:
                item = corpus[index]
                start = time.perf_counter_ns()
                plan = pipeline(item)
                run.latencies_ns.append(time.perf_counter_ns() - start)
                run.attempted += 1
                if plan != reference[index]:
                    run.problem(f"{item.kind} program {index}: two plans differ")
            run.add_round(len(order), time.perf_counter() - started, turns.stolen())
        if tracer:
            tracer.end_window()
            tracer.uninstall()  # the checks below are not part of the trace
    check_corpus(corpus, reference, run)
    return run


def check_corpus(corpus: list[Item], reference: list, run: Run) -> None:
    """Checks made apart from the timed phase, once per distinct program."""
    seen: set[str] = set()
    fixture_texts = None
    names = declared_names((FIXTURE / "smart-city.ol").read_text(encoding="utf-8"))
    for item, plan in zip(corpus, reference):
        if item.kind == "fixture":
            fixture_texts = {e.service_name: e.program_text for e in plan.entries}
        if item.text in seen:
            continue
        seen.add(item.text)
        planned = {e.service_name: e.program_text for e in plan.entries}
        checked = semantics.resolve(parser.parse_source(item.text, "corpus"))
        for name, sliced in slicer.slice_all(checked).items():
            text = render(sliced)
            where = f"{item.kind} slice {name}"
            try:
                semantics.resolve(sliced)
            except semantics.ResolveFailure as failure:
                run.problem(f"{where} does not resolve standalone: {failure}")
                continue
            extra = removable_declarations(sliced)
            if extra:
                run.problem(f"{where} keeps declarations it does not need: {extra}")
            if render(parser.parse_source(text, name)) != text:
                run.problem(f"{where} does not survive render, parse, render")
            if planned.get(name) != text:
                run.problem(f"{where} differs from the planned program text")
    for item, plan in zip(corpus, reference):
        if item.kind != "monolith" or fixture_texts is None:
            continue
        planned = {e.service_name: e.program_text for e in plan.entries}
        for copy in range(1, item.copies + 1):
            for name, text in fixture_texts.items():
                if planned.get(f"{name}_{copy}") != renamed(text, names, copy):
                    run.problem(f"monolith copy {copy} of {name} is not the renamed fixture slice")
