"""Reference figures: several runs of every workload, one fresh process each.

    python3 perfbench/reference.py

Runs the workloads in turn, so each one's runs are spread over the whole
session, with seeds 1 to RUNS and the run length `run_seconds` of
BENCHMARK.json. For the first TRACED seeds a traced run follows each
untraced one. Prints Markdown tables: the median and quartiles of every
end-to-end metric and its quartile spread (q3 - q1, as a share of the
median), the share of failed operations and of the timed rounds' time
stolen by the hypervisor, the tracing overhead (traced against untraced
operations per second over all timed rounds, the median over the
seeds run both ways) and the per-layer medians.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("slice-corpus", "query-local", "query-socket", "command-local")
RUNS = 10
TRACED = 3


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited with {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} failed its checks:\n{done.stderr}")
    suffix = "-trace" if trace else ""
    details = json.loads((HERE / "results" / f"{workload}-seed{seed}{suffix}.json").read_text())
    return result, details


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    plain = {w: [] for w in WORKLOADS}
    traced = {w: [] for w in WORKLOADS}
    for seed in range(1, RUNS + 1):
        for workload in WORKLOADS:
            plain[workload].append(one_run(workload, seed, seconds, 0))
            if seed <= TRACED:
                traced[workload].append(one_run(workload, seed, seconds, 1))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)

    print("| workload | metric | unit | q1 | median | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for workload, runs in plain.items():
        for name, first in runs[0][0]["metrics"].items():
            q1, median, q3 = quartiles([r["metrics"][name]["value"] for r, _ in runs])
            print(f"| {workload} | {name} | {first['unit']} | {q1:.4g} | {median:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / median:.3f} |")
    print()
    tick = os.sysconf("SC_CLK_TCK")
    print("| workload | runs | attempted | failed | stolen share (q1, median, q3) |")
    print("|---|---|---|---|---|")
    for workload, runs in plain.items():
        attempted = sorted({r["attempted"] for r, _ in runs})
        failed = sorted({r["failed"] for r, _ in runs})
        stolen = quartiles([sum(n for _, _, n in d["rounds"]) / tick / d["timed_s"] for _, d in runs])
        counts = f"{', '.join(map(str, attempted))} | {', '.join(map(str, failed))}"
        print(f"| {workload} | {len(runs)} | {counts} | {', '.join(f'{s:.2%}' for s in stolen)} |")
    print()
    print("| workload | untraced ops_per_s | traced ops_per_s | overhead |")
    print("|---|---|---|---|")
    for workload in WORKLOADS:
        pairs = [
            (p["ops_per_s"], t["ops_per_s"]) for (_, p), (_, t) in zip(plain[workload], traced[workload])
        ]
        untraced = statistics.median(p for p, _ in pairs)
        with_spans = statistics.median(t for _, t in pairs)
        overhead = statistics.median(1 - t / p for p, t in pairs)
        print(f"| {workload} | {untraced:.4g} | {with_spans:.4g} | {overhead:.1%} |")
    print()
    print("| metric | unit | " + " | ".join(WORKLOADS) + " |")
    print("|---|---|" + "---|" * len(WORKLOADS))
    first = traced[WORKLOADS[0]][0][0]["metrics"]
    for name, entry in first.items():
        cells = [
            f"{statistics.median(r['metrics'][name]['value'] for r, _ in traced[w]):.4g}"
            for w in WORKLOADS
        ]
        print(f"| {name} | {entry['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
