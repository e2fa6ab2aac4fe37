"""Benchmark of lowreg-nlse: two workloads, end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quad-eps-pool --seed 267 --seconds 50 --trace 0

``--trace 0`` repeats the workload as often as it fits in ``--seconds`` (at
least once), takes set-up samples between the reps, and reports the
end-to-end metrics; ``--trace 1`` runs it once plain and once traced, adds
the layer microbenchmark table, and reports the per-layer metrics.  Either
way every rep's outputs are checked, a table is
printed, the full result (with an environment record) is written to
``perfbench/out/``, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program's seed is the benchmark seed when that seed has stored outputs
in ``expected.json`` and the default 267 otherwise: most seeds take the
quadratic eps-sweep or the rough trajectories out of the small-data regime
the checks assume (see README.md).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
LOADAVG = Path("/proc/loadavg")
WORKLOADS = ("quad-eps-pool", "rough-traj-n1024")
SETUP_SAMPLES = 9

# Child process timing the set-up a user pays before the first step: import
# of the package, argv parse, initial data and operator symbols of each cell.
_SETUP_CHILD = r"""
import json, sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from lowreg_nlse import cli, harness
from lowreg_nlse.spectral import OperatorSymbols, TorusGrid
spec = json.loads(sys.argv[2])
if spec["argv"]:
    cli.parse_args(spec["argv"])
for fields in spec["cells"]:
    params = harness.SimParams(**dict(fields, equation=harness.Equation(fields["equation"])))
    harness.make_initial_data(params)
    OperatorSymbols.build(TorusGrid(params.n_modes), params.tau)
for n_modes, tau in spec["symbols"]:
    OperatorSymbols.build(TorusGrid(n_modes), tau)
print(time.perf_counter() - started)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=267)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure for this long (at least one rep)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test size, without stored outputs")
    return parser.parse_args(argv)


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def host_probe_ms() -> float:
    """Median time of a fixed loop of FFTs and Python arithmetic.

    The guest's load average cannot see other tenants of a shared host; this
    figure, taken before and after the run, shows how fast the host ran.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 128) + 0j
    times = []
    for _ in range(5):
        started = perf_counter()
        for _ in range(500):
            np.fft.fft(np.fft.ifft(x))
        total = 0
        for i in range(25000):
            total += i
        times.append(perf_counter() - started)
    return statistics.median(times) * 1e3


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit is None:
        for line in (_read(git / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit


def environment(seed: int, program_seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        caches[f"L{level}-{kind}"] = size
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in (_read(Path("/proc/cpuinfo")) or "").splitlines()
                      if line.startswith("model name")), None)
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read(Path("/sys/fs/cgroup/cpu.max")),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
        "seed": seed,
        "program_seed": program_seed,
    }


def setup_sampler(spec, seed: int):
    """A zero-argument call timing the set-up once, in a fresh interpreter."""
    from workloads import Sweep

    if isinstance(spec, Sweep):
        argv = spec.argv(seed, str(OUT / "setup.csv"))  # parsed only, never written
        symbols = [(spec.modes, spec.ref_tau), (spec.modes, spec.ref_tau / 2)]
    else:
        argv, symbols = None, []
    cells = [dict(equation=p.equation.value, scheme=p.scheme, eps=p.eps, tau=p.tau,
                  t_final=p.t_final, n_modes=p.n_modes, theta=p.theta, seed=p.seed)
             for p in spec.params(seed)]
    payload = json.dumps({"argv": argv, "cells": cells, "symbols": symbols})

    def sample() -> float:
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), payload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        return float(done.stdout.strip().splitlines()[-1])
    return sample


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lowreg_nlse" / "__init__.py").is_file():
        print(f"error: no lowreg_nlse package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads
    from layers import layer_table

    stored = json.loads(EXPECTED.read_text())["seeds"]
    program_seed = args.seed if str(args.seed) in stored else workloads.DEFAULT_SEED
    expected = stored[str(program_seed)][args.workload] if args.scale == "full" else None
    spec = workloads.WORKLOADS[args.scale][args.workload]
    OUT.mkdir(exist_ok=True)
    result = {"workload": args.workload, "scale": args.scale, "trace": args.trace,
              "seconds": args.seconds,
              "environment": environment(args.seed, program_seed),
              "loadavg_before": _read(LOADAVG), "host_probe_ms_before": host_probe_ms()}

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        # warm-up: lazy imports, pool start-up and allocator, at the tiny size
        workloads.Runner(workloads.WORKLOADS["tiny"][args.workload],
                         program_seed, None, workdir).rep()
        runner = workloads.Runner(spec, program_seed, expected, workdir)
        metrics: dict[str, dict] = {}
        kinds: dict[str, str] = {}
        if args.trace == 0:
            # Set-up samples go between the reps so that they see the same
            # spells of a slow shared host as the reps do.  Another rep only
            # starts when one more of the same length fits the window.
            setup = setup_sampler(spec, program_seed)
            deadline = perf_counter() + args.seconds
            walls = [runner.rep()]
            jobs = getattr(spec, "jobs", 1)
            workers = jobs if jobs > 1 else 0
            # peak of the first rep, before any set-up child; later reps repeat it
            rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       + workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            setups = [setup()]
            while perf_counter() + walls[-1] <= deadline:
                walls.append(runner.rep())
                setups.append(setup())
            while len(setups) < SETUP_SAMPLES:
                setups.append(setup())
            wall = statistics.median(walls)
            metrics = {
                "wall_s": _metric(wall, "s"),
                "setup_s": _metric(statistics.median(setups), "s"),
                "peak_rss_mib": _metric(rss_kib / 1024.0, "MiB"),
            }
            kinds = {"wall_s": "measured", "setup_s": "measured", "peak_rss_mib": "measured"}
            result["samples"] = {"wall_s": walls, "setup_s": setups}
            result["cells_per_min"] = workloads.CELLS * 60.0 / wall
        else:
            plain = runner.rep()
            with spans.traced() as tracer:
                traced = runner.rep(traced=True)
            for name, value, unit, kind in spans.summarize(tracer):
                metrics[name] = _metric(value, unit)
                kinds[name] = kind
            metrics["harness.wall_share"] = _metric(
                metrics["harness.span_s"]["value"] / traced, "ratio")
            metrics["trace.overhead_frac"] = _metric((traced - plain) / plain, "ratio")
            kinds["harness.wall_share"] = kinds["trace.overhead_frac"] = "computed"
            table = layer_table(program_seed)
            for row in table:
                metrics[row["name"]] = _metric(row["value"], row["unit"])
                kinds[row["name"]] = row["kind"]
            result["layer_table"] = table
            result["samples"] = {"wall_s": plain, "traced_wall_s": traced}
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(tracer.export(), default=list))

    result.update(loadavg_after=_read(LOADAVG), host_probe_ms_after=host_probe_ms(),
                  reps=runner.reps,
                  attempted=runner.attempted, failed=runner.failed,
                  failed_frac=runner.failed / runner.attempted,
                  metrics={k: dict(v, kind=kinds[k]) for k, v in metrics.items()})
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=list))

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']:8s} {kinds[name]}")
    for rep in runner.reps:
        for note in rep["notes"]:
            print(f"check failed: {note}")
    print(f"failed {runner.failed}/{runner.attempted} cells "
          f"(failed_frac {runner.failed / runner.attempted:.3g}); "
          f"program seed {program_seed}")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
