"""The benchmark workloads: what each runs, and how its outputs are checked.

One workload is a CLI sweep run in-process through ``lowreg_nlse.cli.main``;
the other drives ``harness.run_trajectory`` directly.  Each has eight cells
(four eps values times two schemes, or eight equation/stepper pairs).  A
rep returns its wall time and the set of cells that failed, so a failed
check lowers the score of a run without aborting it.
"""
from __future__ import annotations

import csv
import io
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from lowreg_nlse import cli, harness
from lowreg_nlse.harness import Equation, SimParams, SolverFailure
from lowreg_nlse.spectral import sobolev_norm

DEFAULT_SEED = 267

# A record's error may move this far (relative) from the value stored in
# expected.json.  The reference self-consistency gap is under 1% of every
# error of the sweep, so a more accurate reference moves them by about 1%;
# li1 in place of sli2 is 40x off.
ERROR_RTOL = 0.05


@dataclass(frozen=True)
class Sweep:
    """A ``sweep-eps`` CLI call and the slope window of each scheme."""

    equation: str
    schemes: tuple[str, ...]
    eps_list: tuple[float, ...]
    tau: float
    T: float
    modes: int
    ref_tau: float
    jobs: int
    slope_tol: float | None  # eps slopes must lie within this of 1; None: unchecked
    theta: float = 5.0

    def argv(self, seed: int, out_path: str) -> list[str]:
        return [
            "sweep-eps", "--equation", self.equation, "--scheme", ",".join(self.schemes),
            "--tau", repr(self.tau), "--eps-list", ",".join(map(repr, self.eps_list)),
            "--T", repr(self.T), "--theta", repr(self.theta), "--modes", str(self.modes),
            "--ref-tau", repr(self.ref_tau), "--jobs", str(self.jobs),
            "--seed", str(seed), "--out", out_path,
        ]

    def cells(self) -> list[tuple[str, float, float]]:
        """Requested cells as (scheme, eps, tau), in CSV order."""
        return [(s, eps, self.tau) for s in self.schemes for eps in self.eps_list]

    def params(self, seed: int) -> list[SimParams]:
        """The cells as the harness sees them, with horizon T/eps."""
        return [
            SimParams(equation=Equation(self.equation), scheme=s, eps=eps, tau=tau,
                      t_final=self.T / eps, n_modes=self.modes, theta=self.theta,
                      seed=seed)
            for s, eps, tau in self.cells()
        ]


def _eps_sweep(modes: int, T: float, slope_tol: float | None) -> Sweep:
    return Sweep("quad-modsq", ("li1", "sli2"), (0.5, 0.35, 0.25, 0.18), 0.05,
                 T, modes, 5e-3, 2, slope_tol)


@dataclass(frozen=True)
class Trajectories:
    """The eight (equation, stepper) trajectories on rough data, no reference."""

    n_modes: int
    tau: float
    quad_t: float  # horizon for the quadratic equations (eps = 0.1)
    cubic_t: float  # horizon for the cubic equation (eps = 0.25)
    theta: float = 1.0

    def params(self, seed: int) -> list[SimParams]:
        def p(eq, scheme, eps, t):
            return SimParams(equation=eq, scheme=scheme, eps=eps, tau=self.tau,
                             t_final=t, n_modes=self.n_modes, theta=self.theta,
                             seed=seed)
        return (
            [p(eq, s, 0.1, self.quad_t)
             for eq in (Equation.QUAD_SQUARE, Equation.QUAD_MODSQ) for s in ("li1", "sli2")]
            + [p(Equation.CUBIC, s, 0.25, self.cubic_t)
               for s in ("nrli1", "nrsli2", "os18", "strang")]
        )


# "full" is what the benchmark measures; "tiny" has the same shape, for the
# warm-up and the smoke test, and is too small for the slope window to hold
WORKLOADS = {
    "full": {
        "quad-eps-pool": _eps_sweep(128, 1.0, 0.3),
        "rough-traj-n1024": Trajectories(1024, 0.01, 10.0, 8.0),
    },
    "tiny": {
        "quad-eps-pool": _eps_sweep(16, 0.05, None),
        "rough-traj-n1024": Trajectories(64, 0.01, 0.5, 0.5),
    },
}
CELLS = 8


def cell_label(cell) -> str:
    return ":".join(str(part) for part in cell)


@dataclass
class Rep:
    """Outcome of one run of a workload: wall time, failed cells, notes."""

    wall: float
    cells: list
    failed: set
    notes: list
    outputs: dict


_UNRELIABLE = re.compile(r"unreliable record \(scheme (\S+), eps (\S+), tau (\S+),")


def run_sweep(sweep: Sweep, seed: int, workdir: str, expected: list | None) -> Rep:
    """One ``cli.main`` call; checks run after the timed region."""
    fd, out_path = tempfile.mkstemp(dir=workdir, suffix=".csv")
    os.close(fd)
    argv = sweep.argv(seed, out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            started = perf_counter()
            try:
                status = cli.main(argv)
            except SystemExit as exc:  # argparse usage error
                status = exc.code
            wall = perf_counter() - started
        failed, notes, outputs = check_sweep(sweep, status, out_path,
                                             stderr.getvalue(), expected)
    finally:
        os.unlink(out_path)
    return Rep(wall, sweep.cells(), failed, notes, outputs)


def check_sweep(sweep: Sweep, status, csv_path: str, stderr: str,
                expected: list | None) -> tuple[set, list, dict]:
    cells = sweep.cells()
    failed: set = set()
    notes: list[str] = []
    if status != 0:
        notes.append(f"cli exit status {status}")
    with open(csv_path, newline="") as fh:
        header = next(csv.reader(fh), None)
    records = []
    if header == harness.CSV_COLUMNS:
        records = harness.read_records_csv(csv_path)
    elif header is not None:
        notes.append("csv header differs from CSV_COLUMNS")
    by_cell = {(r.scheme, r.eps, r.tau): r for r in records}
    missing = [c for c in cells if c not in by_cell]
    if missing:
        notes.append(f"{len(missing)} cells missing from the csv")
        failed.update(missing)
    for scheme, eps, tau in _UNRELIABLE.findall(stderr):
        failed.add((scheme, float(eps), float(tau)))
        notes.append(f"unreliable record {scheme} eps {eps} tau {tau}")
    if status != 0 and not failed:
        failed.update(cells)

    slopes = {}
    for scheme in sweep.schemes if sweep.slope_tol is not None else ():
        points = [(c[1], by_cell[c].error) for c in cells if c[0] == scheme and c in by_cell]
        if len(points) < 3 or not all(math.isfinite(e) and e > 0 for _, e in points):
            failed.update(c for c in cells if c[0] == scheme)
            notes.append(f"{scheme}: no slope")
            continue
        slopes[scheme] = slope = harness.fit_order(points, abscissa="eps").slope
        if abs(slope - 1.0) > sweep.slope_tol:
            failed.update(c for c in cells if c[0] == scheme)
            notes.append(f"{scheme}: eps slope {slope:.3f} outside 1 +- {sweep.slope_tol}")

    errors = {cell_label(c): by_cell[c].error for c in cells if c in by_cell}
    if expected is not None:
        for scheme, eps, tau, want in expected:
            cell = (scheme, eps, tau)
            got = by_cell.get(cell)
            if got is not None and not abs(got.error - want) <= ERROR_RTOL * want:
                failed.add(cell)
                notes.append(f"{cell_label(cell)}: error {got.error:.6e}, expected {want:.6e}")
    return failed, notes, {"slopes": slopes, "errors": errors}


def run_trajectories(spec: Trajectories, seed: int, expected: list | None) -> Rep:
    """All eight trajectories through ``harness.run_trajectory``, then the checks."""
    plist = spec.params(seed)
    results = []
    started = perf_counter()
    for params in plist:
        try:
            results.append(harness.run_trajectory(params, harness.make_initial_data(params)))
        except SolverFailure as exc:
            results.append(exc)
    wall = perf_counter() - started

    cells = [(p.equation.value, p.scheme) for p in plist]
    failed: set = set()
    notes: list[str] = []
    norms = {}
    for cell, params, result in zip(cells, plist, results):
        if isinstance(result, SolverFailure):
            failed.add(cell)
            notes.append(f"{cell_label(cell)}: {result}")
            continue
        norms[cell_label(cell)] = h1 = sobolev_norm(result.state, 1.0)
        if not math.isfinite(h1):
            failed.add(cell)
            notes.append(f"{cell_label(cell)}: final state not finite")
    if expected is not None:
        for equation, scheme, want in expected:
            cell = (equation, scheme)
            got = norms.get(cell_label(cell))
            if got is None:
                continue
            # implicit steps stop within fp_tol, so n_steps * fp_tol bounds
            # how far a different but valid iteration path may drift
            params = plist[cells.index(cell)]
            rtol = round(params.t_final / params.tau) * params.fp_tol
            if not abs(got - want) <= rtol * abs(want):
                failed.add(cell)
                notes.append(f"{cell_label(cell)}: H^1 {got!r}, expected {want!r}")
    return Rep(wall, cells, failed, notes, {"h1": norms})


def _loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


class Runner:
    """Runs reps of one workload and keeps the per-rep record and the tallies."""

    def __init__(self, spec, seed: int, expected: list | None, workdir: str):
        self.spec = spec
        self.seed = seed
        self.expected = expected
        self.workdir = workdir
        self.reps: list[dict] = []
        self.attempted = 0
        self.failed = 0

    def rep(self, traced: bool = False) -> float:
        """Run once and return the wall time; ``traced`` only labels the record."""
        before = _loadavg()
        if isinstance(self.spec, Sweep):
            rep = run_sweep(self.spec, self.seed, self.workdir, self.expected)
        else:
            rep = run_trajectories(self.spec, self.seed, self.expected)
        self.attempted += len(rep.cells)
        self.failed += len(rep.failed)
        self.reps.append({
            "wall_s": rep.wall, "traced": traced,
            "loadavg_before": before, "loadavg_after": _loadavg(),
            "failed_cells": sorted(cell_label(c) for c in rep.failed),
            "notes": rep.notes, "outputs": rep.outputs,
        })
        return rep.wall
