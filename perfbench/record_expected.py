"""Write expected.json: the outputs each vetted seed gives at the current commit.

    python3 perfbench/record_expected.py 267 11 61

Run it only at a commit whose numbers are trusted; the benchmark then checks
every later commit against them.  A seed on which any check fails is refused.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def record(seed: int, workdir: str) -> dict:
    rows = {}
    for name, spec in workloads.WORKLOADS["full"].items():
        if isinstance(spec, workloads.Sweep):
            rep = workloads.run_sweep(spec, seed, workdir, None)
            errors = rep.outputs["errors"]
            rows[name] = [[*cell, errors[workloads.cell_label(cell)]] for cell in rep.cells
                          if workloads.cell_label(cell) in errors]
        else:
            rep = workloads.run_trajectories(spec, seed, None)
            norms = rep.outputs["h1"]
            rows[name] = [[*cell, norms[workloads.cell_label(cell)]] for cell in rep.cells
                          if workloads.cell_label(cell) in norms]
        if rep.failed:
            raise SystemExit(f"seed {seed} fails {name}: {'; '.join(rep.notes)}")
        print(f"seed {seed} {name}: {rep.wall:.2f} s", file=sys.stderr)
    return rows


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or [workloads.DEFAULT_SEED]
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        stored = {str(seed): record(seed, workdir) for seed in seeds}
    (BENCH / "expected.json").write_text(json.dumps({"seeds": stored}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
