"""Benchmark of monoslice: one workload and one seed in one process.

    python3 perfbench/run.py --workload query-local --seed 1 --seconds 10 --trace 0

Workloads: slice-corpus, query-local, query-socket and command-local
(see README.md). A run times a fixed number of whole rounds of the same
operations: --seconds times the workload's ROUNDS_PER_SECOND, and never
fewer than 1000 operations, so every run of a seed does the same work
and the run lasts about --seconds on the host the rates were taken on.
It checks every output against a computation made apart from the
program.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones, from spans recorded around the program's functions, and the spans
are written to perfbench/results/. Problems found by the checks go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("slice-corpus", "query-local", "query-socket", "command-local")
# timed rounds per second on the reference host (README.md), and operations per round
ROUNDS_PER_SECOND = {"slice-corpus": 1.33, "query-local": 7.0, "query-socket": 3.4, "command-local": 1.9}
OPS_PER_ROUND = {"slice-corpus": 102, "query-local": 81, "query-socket": 81, "command-local": 216}


def use_program_from_checkout() -> None:
    """Import monoslice from src/ and the corpus generator from tests/, or stop."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import monoslice
        import oracle  # noqa: F401
        import proggen  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"run.py: the program is not in this checkout: {exc}") from exc
    if Path(monoslice.__file__).resolve().parent != ROOT / "src" / "monoslice":
        raise SystemExit(f"run.py: imported monoslice from {monoslice.__file__}, not from src/")


def rounds_for(name: str, seconds: float) -> int:
    from measure import MIN_TIMED_OPS

    return max(round(seconds * ROUNDS_PER_SECOND[name]), math.ceil(MIN_TIMED_OPS / OPS_PER_ROUND[name]))


def run_workload(name: str, seed: int, seconds: float, tracer=None):
    import calls
    import corpus

    rounds = rounds_for(name, seconds)
    if name == "slice-corpus":
        return corpus.slice_corpus(seed, rounds, tracer)
    if name == "query-local":
        return calls.query("local", seed, rounds, tracer)[0]
    if name == "query-socket":
        return calls.query("socket", seed, rounds, tracer)[0]
    return calls.command(seed, rounds, tracer)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_program_from_checkout()
    from measure import Tracer, end_to_end_metrics

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    began = time.perf_counter()
    try:
        run = run_workload(args.workload, args.seed, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    ops = len(run.latencies_ns)
    if tracer:
        metrics = tracer.layer_metrics(ops)
        tracer.write(RESULTS / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end_metrics(run)
    for problem in run.problems:
        print(f"run.py: {args.workload}: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "timed_ops": ops,
        "timed_s": run.timed_s,
        "ops_per_s": ops / run.timed_s,
        "run_s": time.perf_counter() - began,
        "result": result,
        "rounds": run.rounds,
    }
    RESULTS.mkdir(exist_ok=True)
    suffix = "-trace" if args.trace else ""
    path = RESULTS / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
