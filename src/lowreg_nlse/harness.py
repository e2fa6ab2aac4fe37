"""Experiment harness: trajectories, reference solutions, parameter sweeps, CSV.

The three experiment families mirror the structure of long-time error studies:

* ``sweep_tau``   — error against the step size at a fixed horizon,
* ``sweep_eps``   — error against the nonlinearity strength at the
  eps-dependent horizon T/eps (quadratic) or T/eps^2 (cubic),
* ``error_vs_time`` — error growth along a single trajectory.

Errors are measured against a fine-step trajectory of the matching symmetric
scheme (the quadratic two-endpoint map, or the cubic non-resonant symmetric
map).  Every reference is validated by a Richardson-style self-consistency
check: the gap between the ref_tau and ref_tau/2 solutions is attached to each
record, and a record whose error does not exceed ten times that gap is flagged
unreliable rather than trusted silently.

Reference step sizes are snapped so the reference lands exactly on the
compared times; the fast free-propagator phases make even microscopic horizon
mismatches visible in H^1, so exact alignment is load-bearing, not cosmetic.
"""
from __future__ import annotations

import csv
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .cubic import (
    CubicScheme,
    CubicSchemeConfig,
    nrli1_step,
    nrsli2_step_info,
    os18_step,
    strang_step,
)
from .quadratic import (
    FixedPointError,
    QuadNonlinearity,
    QuadSchemeConfig,
    li1_conj_step,
    li1_step,
    sli2_conj_step_info,
    sli2_step_info,
)
from .spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    random_initial_data,
    sobolev_norm,
)

__all__ = [
    "Equation",
    "SimParams",
    "TrajectoryResult",
    "SweepRecord",
    "OrderFit",
    "SolverFailure",
    "make_initial_data",
    "run_trajectory",
    "reference_solution",
    "shared_references",
    "sweep_tau",
    "sweep_eps",
    "error_vs_time",
    "fit_order",
    "write_records_csv",
    "read_records_csv",
    "CSV_COLUMNS",
]


class Equation(Enum):
    QUAD_SQUARE = "quad-square"
    QUAD_MODSQ = "quad-modsq"
    CUBIC = "cubic"


_QUAD_SCHEMES = ("li1", "sli2")
_CUBIC_SCHEMES = ("nrli1", "nrsli2", "os18", "strang")


@dataclass(frozen=True)
class SimParams:
    """Full description of one simulation run.

    ``scheme`` is one of li1/sli2 for the quadratic equations (the conjugate
    variants are selected by the equation kind) and nrli1/nrsli2/os18/strang
    for the cubic one.  The runner snaps the step count to
    round(t_final / tau) and reports the horizon actually reached.
    """

    equation: Equation
    scheme: str
    eps: float
    tau: float
    t_final: float
    n_modes: int = 128
    theta: float = 1.0
    seed: int = 0
    error_norm_r: float = 1.0
    fp_tol: float = 1e-12
    fp_max_iter: int = 100

    def __post_init__(self) -> None:
        valid = _CUBIC_SCHEMES if self.equation is Equation.CUBIC else _QUAD_SCHEMES
        if self.scheme not in valid:
            raise ValueError(
                f"scheme {self.scheme!r} not available for {self.equation.value}"
                f" (choose from {', '.join(valid)})"
            )
        if self.tau <= 0.0:
            raise ValueError("tau must be positive for trajectory runs")
        if self.t_final < 0.0:
            raise ValueError("t_final must be nonnegative")
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if self.theta < 0.0:
            raise ValueError("theta must be nonnegative")
        if self.error_norm_r < 0.0:
            raise ValueError("error_norm_r must be nonnegative")


@dataclass(frozen=True)
class TrajectoryResult:
    state: SpectralField
    t_actual: float
    n_steps: int
    sup_h1: float
    fp_iter_max: int | None
    fp_iter_mean: float | None
    snapshots: tuple[tuple[float, SpectralField], ...] = ()


@dataclass
class SweepRecord:
    """One experiment cell: parameters plus the measured error.

    ``reliable`` is False when the measured error fails to dominate the
    reference self-consistency gap by the required factor of ten; the flag is
    diagnostic metadata and is not serialized to CSV.
    """

    equation: Equation
    scheme: str
    eps: float
    tau: float
    theta: float
    seed: int
    n_modes: int
    t_final: float
    error_norm_r: float
    error: float
    ref_tau: float
    wall_seconds: float
    fp_iter_max: int | None
    fp_iter_mean: float | None
    reliable: bool = True


@dataclass(frozen=True)
class OrderFit:
    abscissa: str
    slope: float
    residuals: tuple[float, ...]
    n_points: int


class SolverFailure(RuntimeError):
    """An implicit solve failed mid-trajectory; carries the step index."""

    def __init__(self, step_index: int, t: float, inner: Exception):
        super().__init__(
            f"implicit solve failed at step {step_index} (t = {t:.6g}): {inner}"
        )
        self.step_index = step_index
        self.t = t
        self.inner = inner
        self.residual = getattr(inner, "residual", float("nan"))

    def __reduce__(self):
        return type(self), (self.step_index, self.t, self.inner)


# ---------------------------------------------------------------------------
# stepping machinery
# ---------------------------------------------------------------------------

def make_initial_data(params: SimParams) -> SpectralField:
    return random_initial_data(TorusGrid(params.n_modes), params.theta, params.seed)


def _horizon_steps(params: SimParams) -> tuple[int, float]:
    """Step count round(t_final / tau) and the horizon those steps reach."""
    n_steps = int(round(params.t_final / params.tau))
    return n_steps, n_steps * params.tau


def _build_stepper(
    params: SimParams,
) -> tuple[TorusGrid, Callable[[SpectralField], tuple[SpectralField, int | None]]]:
    grid = TorusGrid(params.n_modes)
    ops = OperatorSymbols.build(grid, params.tau)
    eps, tau = params.eps, params.tau

    if params.equation is Equation.CUBIC:
        scheme_enum = CubicScheme(params.scheme)
        cfg = CubicSchemeConfig(eps, tau, scheme_enum, params.fp_tol, params.fp_max_iter)
        if scheme_enum is CubicScheme.NRLI1:
            return grid, lambda w: (nrli1_step(w, cfg, ops), None)
        if scheme_enum is CubicScheme.OS18:
            return grid, lambda w: (os18_step(w, cfg, ops), None)
        if scheme_enum is CubicScheme.STRANG:
            return grid, lambda w: (strang_step(w, cfg, ops), None)
        return grid, lambda w: nrsli2_step_info(w, cfg, ops)

    nonlin = (
        QuadNonlinearity.SQUARE
        if params.equation is Equation.QUAD_SQUARE
        else QuadNonlinearity.MODULUS_SQUARE
    )
    cfg = QuadSchemeConfig(eps, tau, nonlin, params.fp_tol, params.fp_max_iter)
    if params.scheme == "li1":
        stepper = li1_step if nonlin is QuadNonlinearity.SQUARE else li1_conj_step
        return grid, lambda w: (stepper(w, cfg, ops), None)
    stepper_info = (
        sli2_step_info if nonlin is QuadNonlinearity.SQUARE else sli2_conj_step_info
    )
    return grid, lambda w: stepper_info(w, cfg, ops)


def run_trajectory(
    params: SimParams,
    w0: SpectralField,
    sample_times: Sequence[float] = (),
) -> TrajectoryResult:
    """Advance w0 by round(t_final / tau) steps of the configured scheme.

    Snapshots are taken at the step nearest each requested time and recorded
    with the step time actually hit.  Implicit-solver failures are re-raised
    as :class:`SolverFailure` annotated with the step index.
    """
    grid, step = _build_stepper(params)
    if w0.grid != grid:
        raise ValueError("w0 does not live on the configured grid")

    n_steps, t_actual = _horizon_steps(params)

    snap_at: dict[int, int] = {}
    for t in sample_times:
        k = min(max(int(round(t / params.tau)), 0), n_steps)
        snap_at[k] = snap_at.get(k, 0) + 1

    snapshots: list[tuple[float, SpectralField]] = []
    w = w0
    sup_h1 = sobolev_norm(w, 1.0)
    iters: list[int] = []
    for _ in range(snap_at.get(0, 0)):
        snapshots.append((0.0, w))
    for k in range(1, n_steps + 1):
        try:
            w, it = step(w)
        except FixedPointError as exc:
            raise SolverFailure(k, k * params.tau, exc) from exc
        if it is not None:
            iters.append(it)
        sup_h1 = max(sup_h1, sobolev_norm(w, 1.0))
        for _ in range(snap_at.get(k, 0)):
            snapshots.append((k * params.tau, w))

    return TrajectoryResult(
        state=w,
        t_actual=t_actual,
        n_steps=n_steps,
        sup_h1=sup_h1,
        fp_iter_max=max(iters) if iters else None,
        fp_iter_mean=sum(iters) / len(iters) if iters else None,
        snapshots=tuple(snapshots),
    )


# ---------------------------------------------------------------------------
# reference solutions
# ---------------------------------------------------------------------------

def _reference_params(params: SimParams, ref_tau: float, t_final: float) -> SimParams:
    scheme = "nrsli2" if params.equation is Equation.CUBIC else "sli2"
    return replace(params, scheme=scheme, tau=ref_tau, t_final=t_final)


def _snap_to_horizon(t_actual: float, ref_tau: float) -> float:
    """Step nearest ref_tau that divides t_actual into an integer step count.

    A zero horizon takes no step, so ref_tau comes back unchanged.
    """
    if t_actual == 0.0:
        return ref_tau
    n = max(1, int(round(t_actual / ref_tau)))
    return t_actual / n


@dataclass(frozen=True, eq=False)
class _Reference:
    """One reference trajectory: the symmetric scheme from w0 at step up to t_final.

    ``params`` supplies the equation, eps, initial-data parameters and solver
    tolerances.  The key names the data by seed, theta and N, so a store
    shared between cells only ever sees w0 = make_initial_data(params).
    """

    params: SimParams
    w0: SpectralField
    step: float
    t_final: float
    sample_times: tuple[float, ...] = ()

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.step))

    @property
    def key(self) -> tuple:
        # rounded: the snapped horizons of different tau may differ in the
        # last bits.  Given the horizon, the step count fixes the step.
        p = self.params
        return (
            p.equation, p.eps, p.seed, p.theta, p.n_modes, p.fp_tol, p.fp_max_iter,
            round(self.t_final, 9), self.n_steps,
            tuple(round(t, 9) for t in self.sample_times),
        )


def _pair_refs(
    params: SimParams,
    w0: SpectralField,
    step: float,
    t_final: float,
    sample_times: Sequence[float] = (),
) -> tuple[_Reference, _Reference]:
    """The fine (step) and finer (step/2) halves of one reference pair."""
    times = tuple(sample_times)
    return (
        _Reference(params, w0, step, t_final, times),
        _Reference(params, w0, step / 2.0, t_final, times),
    )


@dataclass(frozen=True)
class _ReferencePair:
    """Fine (``ref_tau``) and finer (``ref_tau/2``) trajectories of one pair."""

    fine: TrajectoryResult
    finer: TrajectoryResult
    ref_tau: float


def _reference_worker(task) -> TrajectoryResult:
    params, w0, sample_times = task
    return run_trajectory(params, w0, sample_times=sample_times)


def _longest_first(mapper, fn, tasks: list, costs: Sequence[int]) -> list:
    """``mapper(fn, tasks)`` issued in decreasing cost, results in task order.

    Handing a pool its longest tasks first (Graham's LPT rule) keeps one
    late long task from running alone while the other workers idle.
    """
    order = sorted(range(len(tasks)), key=lambda i: costs[i], reverse=True)
    results: list = [None] * len(tasks)
    for i, result in zip(order, mapper(fn, [tasks[i] for i in order])):
        results[i] = result
    return results


class _ReferenceStore:
    """Reference trajectories, each built once and kept under its key.

    The first request for a key fixes the exact horizon and step the
    trajectory is built with; later requests for the key reuse it.
    """

    def __init__(self) -> None:
        self._built: dict[tuple, tuple[float, TrajectoryResult]] = {}

    def build(
        self, refs: Sequence[_Reference], mapper=map
    ) -> list[tuple[float, TrajectoryResult]]:
        """(step, trajectory) of each of refs, building the missing ones via mapper."""
        todo: dict[tuple, _Reference] = {}
        for ref in refs:
            if ref.key not in self._built:
                todo.setdefault(ref.key, ref)
        missing = list(todo.values())
        tasks = [
            (_reference_params(r.params, r.step, r.t_final), r.w0, r.sample_times)
            for r in missing
        ]
        results = _longest_first(
            mapper, _reference_worker, tasks, [r.n_steps for r in missing]
        )
        for ref, result in zip(missing, results):
            self._built[ref.key] = (ref.step, result)
        return [self._built[ref.key] for ref in refs]

    def pairs(
        self, requests: Sequence[tuple[_Reference, _Reference]], mapper=map
    ) -> list[_ReferencePair]:
        built = self.build([ref for pair in requests for ref in pair], mapper)
        return [
            _ReferencePair(fine, finer, step)
            for (step, fine), (_, finer) in zip(built[0::2], built[1::2])
        ]


_shared_store: ContextVar[_ReferenceStore | None] = ContextVar(
    "lowreg_nlse_reference_store", default=None
)


@contextmanager
def shared_references() -> Iterator[None]:
    """Let every sweep run inside the block share one set of reference pairs.

    Outside such a block each sweep (and each lone cell) builds its own.
    """
    token = _shared_store.set(_ReferenceStore())
    try:
        yield
    finally:
        _shared_store.reset(token)


def _references() -> _ReferenceStore:
    store = _shared_store.get()
    return store if store is not None else _ReferenceStore()


def reference_solution(
    params: SimParams, w0: SpectralField, ref_tau: float
) -> SpectralField:
    """Fine-step trajectory of the matching symmetric scheme up to params' horizon.

    ``ref_tau`` must undercut params.tau by at least a factor of ten; it is
    then snapped to divide the (step-count-snapped) horizon exactly.
    """
    if ref_tau > params.tau / 10.0:
        raise ValueError("ref_tau must be at most tau/10")
    _, t_actual = _horizon_steps(params)
    ref = _Reference(params, w0, _snap_to_horizon(t_actual, ref_tau), t_actual)
    [(_, traj)] = _ReferenceStore().build([ref])
    return traj.state


def _norm_diff(a: SpectralField, b: SpectralField, r: float) -> float:
    return sobolev_norm(SpectralField(a.grid, a.coeffs - b.coeffs), r)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _cell_refs(params: SimParams, w0: SpectralField, ref_tau: float):
    """Reference pair of a sweep cell: ref_tau snapped to the cell's horizon."""
    _, t_actual = _horizon_steps(params)
    return _pair_refs(params, w0, _snap_to_horizon(t_actual, ref_tau), t_actual)


def _run_single_point(
    base: SimParams,
    eps: float,
    tau: float,
    t_final: float,
    ref_tau: float,
    pair: _ReferencePair | None = None,
) -> tuple[SweepRecord, float]:
    """One sweep cell: trajectory against its reference pair, record + gap.

    Without ``pair`` the cell builds its own.  ``wall_seconds`` times the
    cell's trajectory and error evaluation, never the reference.
    """
    params = replace(base, eps=eps, tau=tau, t_final=t_final)
    w0 = make_initial_data(params)
    if pair is None:
        [pair] = _references().pairs([_cell_refs(params, w0, ref_tau)])
    started = time.perf_counter()
    traj = run_trajectory(params, w0)
    error = _norm_diff(traj.state, pair.fine.state, base.error_norm_r)
    wall = time.perf_counter() - started
    gap = _norm_diff(pair.fine.state, pair.finer.state, base.error_norm_r)
    record = SweepRecord(
        equation=base.equation,
        scheme=base.scheme,
        eps=eps,
        tau=tau,
        theta=base.theta,
        seed=base.seed,
        n_modes=base.n_modes,
        t_final=traj.t_actual,
        error_norm_r=base.error_norm_r,
        error=error,
        ref_tau=pair.ref_tau,
        wall_seconds=wall,
        fp_iter_max=traj.fp_iter_max,
        fp_iter_mean=traj.fp_iter_mean,
        reliable=not (error < 10.0 * gap),
    )
    return record, gap


def _point_worker(payload) -> tuple[SweepRecord, float]:
    base, eps, tau, t_final, ref_tau, pair = payload
    return _run_single_point(base, eps, tau, t_final, ref_tau, pair)


def _run_points(
    base: SimParams,
    cells: list[tuple[float, float, float]],
    ref_tau: float,
    jobs: int | None,
) -> tuple[list[SweepRecord], list[float]]:
    """Run the cells against reference pairs taken from the shared store.

    The missing reference trajectories are built first, longest first; then
    the cells run, each handed its pair.  With jobs > 1 both phases share one
    pool of at most ``jobs`` workers.
    """
    params = [replace(base, eps=eps, tau=tau, t_final=tf) for eps, tau, tf in cells]
    requests = [_cell_refs(p, make_initial_data(p), ref_tau) for p in params]
    store = _references()
    if jobs is not None and jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            pairs = store.pairs(requests, pool.map)
            payloads = [
                (base, eps, tau, tf, ref_tau, pair)
                for (eps, tau, tf), pair in zip(cells, pairs)
            ]
            costs = [_horizon_steps(p)[0] for p in params]
            outcomes = _longest_first(pool.map, _point_worker, payloads, costs)
    else:
        pairs = store.pairs(requests)
        outcomes = [
            _run_single_point(base, eps, tau, tf, ref_tau, pair)
            for (eps, tau, tf), pair in zip(cells, pairs)
        ]
    records = [rec for rec, _ in outcomes]
    gaps = [gap for _, gap in outcomes]
    return records, gaps


def sweep_tau(
    base: SimParams,
    tau_list: Sequence[float],
    ref_tau: float | None = None,
    jobs: int | None = None,
) -> tuple[list[SweepRecord], OrderFit]:
    """Error against step size at base's horizon; >= 4 step sizes required.

    The reference self-consistency gap must stay below 10% of the coarsest
    step's error, otherwise the whole sweep is rejected — a reference too
    coarse to resolve the largest error cannot order the rest.
    """
    taus = [float(t) for t in tau_list]
    if len(taus) < 4:
        raise ValueError("tau sweep needs at least 4 step sizes")
    if any(t <= 0 for t in taus):
        raise ValueError("step sizes must be positive")
    if ref_tau is None:
        ref_tau = min(taus) / 100.0
    if ref_tau > min(taus) / 10.0:
        raise ValueError("ref_tau must be at most a tenth of the smallest tau")

    cells = [(base.eps, tau, base.t_final) for tau in taus]
    records, gaps = _run_points(base, cells, ref_tau, jobs)

    coarse_idx = max(range(len(records)), key=lambda i: records[i].tau)
    if gaps[coarse_idx] > 0.1 * records[coarse_idx].error:
        raise RuntimeError(
            f"reference self-consistency gap {gaps[coarse_idx]:.3e} exceeds 10% "
            f"of the coarsest-step error {records[coarse_idx].error:.3e}; "
            "refine ref_tau"
        )
    fit = fit_order([(r.tau, r.error) for r in records], abscissa="tau")
    return records, fit


def sweep_eps(
    base: SimParams,
    eps_list: Sequence[float],
    T: float,
    ref_tau: float | None = None,
    jobs: int | None = None,
) -> tuple[list[SweepRecord], OrderFit]:
    """Error against eps at the eps-dependent horizon T/eps or T/eps^2.

    ``eps_list`` must be strictly decreasing with >= 3 entries in (0, 1].
    Unresolvable points are flagged on the records rather than raising: the
    smallest-eps errors legitimately approach the reference's own resolution.
    """
    eps_values = [float(e) for e in eps_list]
    if len(eps_values) < 3:
        raise ValueError("eps sweep needs at least 3 values")
    if any(not 0.0 < e <= 1.0 for e in eps_values):
        raise ValueError("eps values must lie in (0, 1]")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps values must be strictly decreasing")
    if ref_tau is None:
        ref_tau = base.tau / 100.0
    if ref_tau > base.tau / 10.0:
        raise ValueError("ref_tau must be at most tau/10")

    cubic = base.equation is Equation.CUBIC
    cells = [(e, base.tau, T / (e * e) if cubic else T / e) for e in eps_values]
    records, _ = _run_points(base, cells, ref_tau, jobs)
    fit = fit_order([(r.eps, r.error) for r in records], abscissa="eps")
    return records, fit


def error_vs_time(
    base: SimParams,
    sample_times: Sequence[float],
    ref_tau: float | None = None,
) -> list[SweepRecord]:
    """H^r error against the reference at each sample time along one trajectory.

    The reference step is chosen as tau/m so that every scheme step lands
    exactly on a reference step; errors are then compared at identical times.
    """
    times = [float(t) for t in sample_times]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing")
    if any(t < 0 for t in times):
        raise ValueError("sample times must be nonnegative")
    if times and times[-1] > base.t_final + base.tau / 2.0:
        raise ValueError("sample times must not exceed t_final")
    if ref_tau is None:
        ref_tau = base.tau / 100.0
    if ref_tau > base.tau / 10.0:
        raise ValueError("ref_tau must be at most tau/10")

    w0 = make_initial_data(base)
    started = time.perf_counter()
    traj = run_trajectory(base, w0, sample_times=times)
    traj_seconds = time.perf_counter() - started
    snapped = [t for t, _ in traj.snapshots]

    m = max(10, int(round(base.tau / ref_tau)))
    [pair] = _references().pairs(
        [_pair_refs(base, w0, base.tau / m, traj.t_actual, snapped)]
    )

    started = time.perf_counter()
    errors = [
        _norm_diff(w_k, f_k, base.error_norm_r)
        for (_, w_k), (_, f_k) in zip(traj.snapshots, pair.fine.snapshots)
    ]
    wall = traj_seconds + time.perf_counter() - started

    records = []
    for (t_k, _), error, (_, f_k), (_, g_k) in zip(
        traj.snapshots, errors, pair.fine.snapshots, pair.finer.snapshots
    ):
        gap = _norm_diff(f_k, g_k, base.error_norm_r)
        records.append(
            SweepRecord(
                equation=base.equation,
                scheme=base.scheme,
                eps=base.eps,
                tau=base.tau,
                theta=base.theta,
                seed=base.seed,
                n_modes=base.n_modes,
                t_final=t_k,
                error_norm_r=base.error_norm_r,
                error=error,
                ref_tau=pair.ref_tau,
                wall_seconds=wall,
                fp_iter_max=traj.fp_iter_max,
                fp_iter_mean=traj.fp_iter_mean,
                reliable=not (error < 10.0 * gap),
            )
        )
    return records


def fit_order(
    points: Sequence[tuple[float, float]], abscissa: str = "tau"
) -> OrderFit:
    """Least-squares slope of log(error) against log(abscissa)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("order fit needs at least 3 points")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("order fit needs positive abscissae and errors")
    log_x = np.log([x for x, _ in pts])
    log_y = np.log([y for _, y in pts])
    slope, intercept = np.polyfit(log_x, log_y, 1)
    residuals = log_y - (slope * log_x + intercept)
    return OrderFit(
        abscissa=abscissa,
        slope=float(slope),
        residuals=tuple(float(r) for r in residuals),
        n_points=len(pts),
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "equation",
    "scheme",
    "eps",
    "tau",
    "theta",
    "seed",
    "n_modes",
    "t_final",
    "error_norm_r",
    "error",
    "ref_tau",
    "wall_seconds",
    "fp_iter_max",
    "fp_iter_mean",
]


def _fmt_float(x: float) -> str:
    return repr(float(x))


def write_records_csv(path: str, records: Sequence[SweepRecord]) -> None:
    """Write records atomically (temp file + rename); floats round-trip exactly."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow(
                    [
                        r.equation.value,
                        r.scheme,
                        _fmt_float(r.eps),
                        _fmt_float(r.tau),
                        _fmt_float(r.theta),
                        str(r.seed),
                        str(r.n_modes),
                        _fmt_float(r.t_final),
                        _fmt_float(r.error_norm_r),
                        _fmt_float(r.error),
                        _fmt_float(r.ref_tau),
                        _fmt_float(r.wall_seconds),
                        "" if r.fp_iter_max is None else str(r.fp_iter_max),
                        "" if r.fp_iter_mean is None else _fmt_float(r.fp_iter_mean),
                    ]
                )
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def read_records_csv(path: str) -> list[SweepRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            records.append(
                SweepRecord(
                    equation=Equation(row["equation"]),
                    scheme=row["scheme"],
                    eps=float(row["eps"]),
                    tau=float(row["tau"]),
                    theta=float(row["theta"]),
                    seed=int(row["seed"]),
                    n_modes=int(row["n_modes"]),
                    t_final=float(row["t_final"]),
                    error_norm_r=float(row["error_norm_r"]),
                    error=float(row["error"]),
                    ref_tau=float(row["ref_tau"]),
                    wall_seconds=float(row["wall_seconds"]),
                    fp_iter_max=int(row["fp_iter_max"]) if row["fp_iter_max"] else None,
                    fp_iter_mean=(
                        float(row["fp_iter_mean"]) if row["fp_iter_mean"] else None
                    ),
                )
            )
    return records
