"""Time one cold start of slicing: import monoslice, then plan the fixture's deployment.

Prints the seconds from its first statement to the plan. Run by
corpus.py in a fresh interpreter for each sample of slice-corpus's
set-up time.
"""

import time

started = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from monoslice import deploy, parser, semantics, slicer  # noqa: E402
from monoslice.config import load_config  # noqa: E402

fixtures = ROOT / "src" / "monoslice" / "fixtures"
checked = semantics.resolve(
    parser.parse_source((fixtures / "smart-city.ol").read_text(encoding="utf-8"), "smart-city")
)
deploy.plan_deployment(
    slicer.slice_all(checked),
    load_config(fixtures / "deploy.json"),
    deploy.DeployOptions(output_root=Path("corpus-sliced"), config_bytes=b"{}"),
)
print(time.perf_counter() - started)
