"""Experiment harness: trajectories, reference solutions, parameter sweeps, CSV.

The three experiment families mirror the structure of long-time error studies:

* ``sweep_tau``   — error against the step size at a fixed horizon,
* ``sweep_eps``   — error against the nonlinearity strength at the
  eps-dependent horizon T/eps (quadratic) or T/eps^2 (cubic),
* ``error_vs_time`` — error growth along a single trajectory.

Every trajectory is a row of a coefficient stack that steps through the
prepared map the table ``_SCHEMES`` gives for its (equation, scheme); the
same table is the set of schemes :class:`SimParams` accepts.  The rows of a
stack advance in lockstep (``_run_rows``), each bit for bit the trajectory it
would be alone; :func:`run_trajectory` is a stack of one row.

Errors are measured against a fine-step trajectory of the matching symmetric
scheme (the quadratic two-endpoint map, or the cubic non-resonant symmetric
map).  Every reference is validated by a Richardson-style self-consistency
check: the gap between the ref_tau and ref_tau/2 solutions is attached to each
record, and a record whose error does not exceed ten times that gap is flagged
unreliable rather than trusted silently.

Reference step sizes are snapped so the reference lands exactly on the
compared times; the fast free-propagator phases make even microscopic horizon
mismatches visible in H^1, so exact alignment is load-bearing, not cosmetic.
The reference trajectories a command still needs advance as the rows of
stacks.
"""
from __future__ import annotations

import csv
import math
import os
import sys
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np

from .cubic import _NonresonantMap, nrli1_step, nrsli2_step_info, os18_step, strang_step
from .quadratic import (
    FixedPointError,
    _Map,
    _ModSquareMap,
    _SquareMap,
    _check_settings,
    li1_conj_step,
    li1_step,
    sli2_conj_step_info,
    sli2_step_info,
)
from .spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    _check_grid,
    _check_nonnegative,
    random_initial_data,
    sobolev_norm,
    sobolev_norms,
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


# (equation, scheme) -> (map class, rows method, public one-field stepper).
# The map is built from (eps, ops, tol, max_iter) for the rows of a (B, N)
# stack, row r with eps[r] and the step of its symbols, or for one field.
# "__call__" takes c to (c, Picard counts), any other method to c; the
# stepper takes the same step of one SpectralField.
_SCHEMES: dict[tuple[Equation, str], tuple[type[_Map], str, Callable]] = {
    (Equation.QUAD_SQUARE, "li1"): (_SquareMap, "li1", li1_step),
    (Equation.QUAD_SQUARE, "sli2"): (_SquareMap, "__call__", sli2_step_info),
    (Equation.QUAD_MODSQ, "li1"): (_ModSquareMap, "li1", li1_conj_step),
    (Equation.QUAD_MODSQ, "sli2"): (_ModSquareMap, "__call__", sli2_conj_step_info),
    (Equation.CUBIC, "nrli1"): (_NonresonantMap, "nrli1", nrli1_step),
    (Equation.CUBIC, "nrsli2"): (_NonresonantMap, "__call__", nrsli2_step_info),
    (Equation.CUBIC, "os18"): (_NonresonantMap, "os18", os18_step),
    (Equation.CUBIC, "strang"): (_NonresonantMap, "strang", strang_step),
}

# equation -> the symmetric scheme its references step with
_REFERENCE_SCHEMES = {Equation.QUAD_SQUARE: "sli2", Equation.QUAD_MODSQ: "sli2",
                      Equation.CUBIC: "nrsli2"}


# no trajectory takes more steps; the finest canonical reference takes under 10^6
_MAX_STEPS = 10**9


def _step_count(t_final: float, step: float) -> int:
    """The steps a trajectory takes to t_final: round(t_final / step)."""
    return int(round(t_final / step))


def _check_steps(name: str, t_final: float, step: float) -> None:
    """Reject reaching t_final in more than _MAX_STEPS steps; the message begins with ``name``."""
    if t_final / step > _MAX_STEPS:
        raise ValueError(f"{name}: t = {t_final:g} in steps of {step:g} takes more than "
                         f"{_MAX_STEPS:.0e} steps")


def _check_takes_a_step(name: str, t_final: float, step: float) -> None:
    """Reject reaching t_final in no step at all; the message begins with ``name``."""
    if _step_count(t_final, step) < 1:
        raise ValueError(f"{name}: t = {t_final:g} in steps of {step:g} takes no step")


@dataclass(frozen=True)
class SimParams:
    """Full description of one simulation run.

    ``scheme`` is one of li1/sli2 for the quadratic equations (the conjugate
    variants are selected by the equation kind) and nrli1/nrsli2/os18/strang
    for the cubic one.  The runner snaps the step count to
    round(t_final / tau), at most ``_MAX_STEPS``, and reports the horizon
    actually reached.
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
        if (self.equation, self.scheme) not in _SCHEMES:
            valid = [scheme for eq, scheme in _SCHEMES if eq is self.equation]
            raise ValueError(
                f"scheme {self.scheme!r} not available for {self.equation.value}"
                f" (choose from {', '.join(valid)})"
            )
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite for trajectory runs")
        if not 0.0 <= self.t_final < math.inf:
            raise ValueError("t_final must be nonnegative and finite")
        _check_steps("t_final", self.t_final, self.tau)
        _check_settings(self.eps, self.fp_tol, self.fp_max_iter)
        TorusGrid(self.n_modes)
        _check_nonnegative("theta", self.theta)
        if not 0.0 <= self.error_norm_r < math.inf:
            raise ValueError(f"error_norm_r must be nonnegative and finite, got {self.error_norm_r}")
        # the largest squared H^r weight, (1 + N/2)^(2r), must be finite
        if 2.0 * self.error_norm_r * math.log1p(self.n_modes // 2) > math.log(sys.float_info.max):
            raise ValueError(f"error_norm_r {self.error_norm_r:g} makes the squared H^r weight "
                             f"(1 + N/2)^(2r) overflow at N = {self.n_modes}")


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
    """An implicit solve failed mid-trajectory; carries the step index.

    ``where`` names the trajectory that stalled when the caller knows it
    (a reference trajectory or a sweep cell) and is empty otherwise.
    """

    def __init__(self, step_index: int, t: float, inner: Exception, where: str = ""):
        super().__init__(
            f"implicit solve failed at step {step_index} (t = {t:.6g})"
            + (f" in the {where}" if where else "")
            + f": {inner}"
        )
        self.step_index = step_index
        self.t = t
        self.inner = inner
        self.where = where
        self.residual = getattr(inner, "residual", float("nan"))

    def __reduce__(self):
        return type(self), (self.step_index, self.t, self.inner, self.where)


# ---------------------------------------------------------------------------
# stepping machinery
# ---------------------------------------------------------------------------

def make_initial_data(params: SimParams) -> SpectralField:
    return random_initial_data(TorusGrid(params.n_modes), params.theta, params.seed)


def _horizon_steps(params: SimParams) -> tuple[int, float]:
    """Step count round(t_final / tau) and the horizon those steps reach."""
    n_steps = _step_count(params.t_final, params.tau)
    return n_steps, n_steps * params.tau


def _sample_steps(params: SimParams, times: Sequence[float]) -> list[int]:
    """The step nearest each time, clamped to the trajectory's steps."""
    n_steps, _ = _horizon_steps(params)
    return [min(max(int(round(t / params.tau)), 0), n_steps) for t in times]


class _Track:
    """Bookkeeping of one trajectory: its snapshots, sup_h1 and Picard counts.

    It records coefficients and makes fields only for the snapshots and the
    result.  :func:`_run_rows` keeps one per row, whose coefficients are rows
    of its stack.
    """

    def __init__(self, params: SimParams, w0: SpectralField,
                 sample_times: Sequence[float]) -> None:
        self.grid = w0.grid
        self.tau = params.tau
        self.n_steps, self.t_actual = _horizon_steps(params)
        self.snap_at: dict[int, int] = {}
        for k in _sample_steps(params, sample_times):
            self.snap_at[k] = self.snap_at.get(k, 0) + 1
        self.coeffs = w0.coeffs
        self.sup_h1 = sobolev_norm(w0, 1.0)
        self.iters: list[int] = []
        self.snapshots = [(0.0, w0)] * self.snap_at.get(0, 0)

    def record(self, k: int, coeffs: np.ndarray, it: int | None, h1: float) -> None:
        """Step k reached the coefficients ``coeffs`` after ``it`` iterations."""
        self.coeffs = coeffs
        if it is not None:
            self.iters.append(it)
        self.sup_h1 = max(self.sup_h1, h1)
        if k in self.snap_at:
            field = SpectralField(self.grid, coeffs)
            self.snapshots.extend([(k * self.tau, field)] * self.snap_at[k])

    def result(self) -> TrajectoryResult:
        iters = self.iters
        return TrajectoryResult(
            state=SpectralField(self.grid, self.coeffs),
            t_actual=self.t_actual,
            n_steps=self.n_steps,
            sup_h1=self.sup_h1,
            fp_iter_max=max(iters) if iters else None,
            fp_iter_mean=sum(iters) / len(iters) if iters else None,
            snapshots=tuple(self.snapshots),
        )


def run_trajectory(
    params: SimParams,
    w0: SpectralField,
    sample_times: Sequence[float] = (),
) -> TrajectoryResult:
    """Advance w0 by round(t_final / tau) steps of the configured scheme.

    Snapshots are taken at the step nearest each requested time and recorded
    with the step time actually hit.  Implicit-solver failures are re-raised
    as :class:`SolverFailure` annotated with the step index.  The trajectory
    is the one row of a :func:`_run_rows` lot.
    """
    _check_grid(w0, TorusGrid(params.n_modes))
    try:
        [result] = _run_rows([(params, w0, tuple(sample_times))])
    except SolverFailure as exc:
        # a lone trajectory is named by its caller, if at all
        raise SolverFailure(exc.step_index, exc.t, exc.inner) from exc.inner
    return result


# ---------------------------------------------------------------------------
# reference solutions
# ---------------------------------------------------------------------------

def _reference_params(params: SimParams, ref_tau: float, t_final: float) -> SimParams:
    return replace(params, scheme=_REFERENCE_SCHEMES[params.equation], tau=ref_tau,
                   t_final=t_final)


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
        return _step_count(self.t_final, self.step)

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


@dataclass(frozen=True)
class _ReferencePair:
    """Fine (``ref_tau``) and finer (``ref_tau/2``) trajectories, both at ``sample_times``."""

    fine: TrajectoryResult
    finer: TrajectoryResult
    ref_tau: float
    sample_times: tuple[float, ...]


def _reference_name(params: SimParams) -> str:
    return f"reference trajectory (step {params.tau:.6g}, eps {params.eps:g})"


def _advance(step: _Map, method: str, c: np.ndarray) -> tuple[np.ndarray, list]:
    """c after one step of the map's rows method, with each row's Picard count.

    ``method`` is ``"__call__"`` for an implicit scheme; an explicit one
    counts None per row.
    """
    if method == "__call__":
        return step(c)
    return getattr(step, method)(c), [None] * (1 if step.lone else len(c))


def _run_rows(
    rows: Sequence[tuple[SimParams, SpectralField, tuple[float, ...]]],
) -> list[TrajectoryResult]:
    """Trajectories advanced in lockstep as the rows of one (B, N) stack.

    Each row is (params, w0, sample times); all share equation, scheme, N,
    fp_tol and fp_max_iter.  Row r steps with its own eps and tau through
    the scheme's map of the table ``_SCHEMES``, prepared for the stack and
    again only when rows leave it, which a row does once its own step count
    is done; the last row left steps through a lone field's map of its own
    symbols, as the public stepper would.  So each row's state, sup_h1,
    Picard counts and snapshots are those it has alone.  A stalled row
    raises :class:`SolverFailure` naming its reference trajectory.
    """
    # longest first, so the rows still stepping are always a prefix
    order = sorted(range(len(rows)), key=lambda r: -_horizon_steps(rows[r][0])[0])
    params = [rows[r][0] for r in order]
    first = params[0]
    grid = TorusGrid(first.n_modes)
    tracks = [_Track(p, rows[r][1], rows[r][2]) for p, r in zip(params, order)]
    row_ops = [OperatorSymbols.build(grid, p.tau) for p in params]
    prepared, method, _ = _SCHEMES[(first.equation, first.scheme)]
    step = full = prepared(tuple(p.eps for p in params), OperatorSymbols.stack(row_ops),
                           first.fp_tol, first.fp_max_iter)
    lone = prepared((first.eps,), row_ops[0], first.fp_tol, first.fp_max_iter)
    c = np.stack([rows[r][1].coeffs for r in order])
    live = len(rows)
    for k in range(1, tracks[0].n_steps + 1):
        while tracks[live - 1].n_steps < k:
            live -= 1
        if live < len(c):
            c = c[:live]
            if live > 1:
                step = full.take(np.arange(len(rows)) < live)
        try:
            if live > 1:
                c, iters = _advance(step, method, c)
            else:
                u, iters = _advance(lone, method, c[0])
                c = u[None]
        except FixedPointError as exc:
            p = params[exc.row]
            raise SolverFailure(k, k * p.tau, exc, _reference_name(p)) from exc
        for track, row, it, h1 in zip(tracks, c, iters, sobolev_norms(c, grid, 1.0).tolist()):
            track.record(k, row, it, h1)
    results: list = [None] * len(rows)
    for r, track in zip(order, tracks):
        results[r] = track.result()
    return results


class _ReferenceStore:
    """Reference trajectories, each built once and kept under its key.

    The first request for a key fixes the exact horizon and step the
    trajectory is built with; later requests for the key reuse it.
    """

    def __init__(self) -> None:
        self._built: dict[tuple, tuple[float, TrajectoryResult]] = {}

    def build(
        self, refs: Sequence[_Reference], mapper=map, batches: int = 1
    ) -> list[tuple[float, TrajectoryResult]]:
        """(step, trajectory) of each of refs, building the missing ones via mapper.

        refs are the references of one command: they share equation, N,
        fp_tol and fp_max_iter.  The missing trajectories, longest first, are
        dealt round-robin into min(batches, count) lots, so the lots too come
        longest first; each lot is one mapper task and advances in lockstep.
        """
        todo: dict[tuple, _Reference] = {}
        for ref in refs:
            if ref.key not in self._built:
                todo.setdefault(ref.key, ref)
        missing = sorted(todo.values(), key=lambda r: r.n_steps, reverse=True)
        n = min(batches, len(missing))
        lots = [missing[i::n] for i in range(n)]
        tasks = [
            [(_reference_params(r.params, r.step, r.t_final), r.w0, r.sample_times)
             for r in lot]
            for lot in lots
        ]
        for lot, trajectories in zip(lots, mapper(_run_rows, tasks)):
            for ref, result in zip(lot, trajectories):
                self._built[ref.key] = (ref.step, result)
        return [self._built[ref.key] for ref in refs]

    def pairs(
        self, fines: Sequence[_Reference], mapper=map, batches: int = 1
    ) -> list[_ReferencePair]:
        """The pair of each fine reference: it and its finer half at half its step."""
        built = self.build(
            [ref for fine in fines for ref in (fine, replace(fine, step=fine.step / 2.0))],
            mapper, batches,
        )
        return [
            _ReferencePair(fine, finer, step, ref.sample_times)
            for ref, (step, fine), (_, finer) in zip(fines, built[0::2], built[1::2])
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

    ``ref_tau`` must be positive and undercut params.tau by at least a factor
    of ten; it is then snapped to divide the (step-count-snapped) horizon
    exactly.
    """
    _check_ref_tau(params.tau, ref_tau, params.t_final)
    [(_, traj)] = _ReferenceStore().build([_cell_refs(params, w0, ref_tau)])
    return traj.state


def _norm_diff(a: SpectralField, b: SpectralField, r: float) -> float:
    return sobolev_norm(SpectralField(a.grid, a.coeffs - b.coeffs), r)


# ---------------------------------------------------------------------------
# sweep arguments
#
# Each sweep and the CLI (at parse time) run the same check of its lists;
# each returns the reference step, ref_tau or its default.  Every message
# begins with the argument it rejects.
# ---------------------------------------------------------------------------

def _check_tau_sweep(taus: Sequence[float], ref_tau: float | None, t_final: float) -> float:
    """Reject under 4 step sizes, a nonfinite, nonpositive, too fine or too coarse one, or a
    bad ref_tau."""
    if len(taus) < 4:
        raise ValueError("tau_list: tau sweep needs at least 4 step sizes")
    if not all(map(math.isfinite, taus)):
        raise ValueError("tau_list entries must be finite")
    if any(t <= 0 for t in taus):
        raise ValueError("tau_list: step sizes must be positive")
    _check_steps("tau_list", t_final, min(taus))
    _check_takes_a_step("tau_list", t_final, max(taus))
    return _check_ref_tau(min(taus), ref_tau, t_final)


def _check_eps_sweep(base: SimParams, eps_values: Sequence[float], T: float,
                     ref_tau: float | None) -> float:
    """Reject under 3 eps, one outside (0, 1], a non-decreasing list, a bad or too long
    horizon, one that base.tau reaches in no step, or a bad ref_tau."""
    if len(eps_values) < 3:
        raise ValueError("eps_list: eps sweep needs at least 3 values")
    if any(not 0.0 < e <= 1.0 for e in eps_values):
        raise ValueError("eps_list: eps values must lie in (0, 1]")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise ValueError("eps_list: eps values must be strictly decreasing")
    horizons = [_horizon(base.equation, T, e) for e in eps_values]
    for horizon in horizons:
        _check_steps("eps_list", horizon, base.tau)
        _check_takes_a_step("eps_list", horizon, base.tau)
    return _check_ref_tau(base.tau, ref_tau, max(horizons))


def _check_error_vs_time(times: Sequence[float], tau: float, t_final: float,
                        ref_tau: float | None) -> float:
    """Reject nonfinite, unordered, negative or past-t_final times, or a bad ref_tau."""
    if not all(map(math.isfinite, times)):
        raise ValueError("sample_times entries must be finite")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample_times: sample times must be strictly increasing")
    if any(t < 0 for t in times):
        raise ValueError("sample_times: sample times must be nonnegative")
    if times and times[-1] > t_final + tau / 2.0:
        raise ValueError("sample_times: sample times must not exceed t_final")
    return _check_ref_tau(tau, ref_tau, t_final)


def _check_ref_tau(tau: float, ref_tau: float | None, t_final: float) -> float:
    """ref_tau, or by default tau/100; reject a nonpositive one, one above tau/10,
    or one whose finer half takes too many steps to t_final."""
    if ref_tau is None:
        ref_tau = tau / 100.0
    if not ref_tau > 0.0:
        raise ValueError("ref_tau must be positive")
    if ref_tau > tau / 10.0:
        raise ValueError("ref_tau must be at most tau/10")
    _check_steps("ref_tau", t_final, ref_tau / 2.0)
    return ref_tau


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _horizon(equation: Equation, T: float, eps: float) -> float:
    """The horizon T/eps (quadratic) or T/eps^2 (cubic); reject one not positive and finite."""
    scale, name = (eps * eps, "T/eps^2") if equation is Equation.CUBIC else (eps, "T/eps")
    horizon = T / scale if scale else math.inf
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"eps {eps} with T {T} gives a horizon {name} "
                         "that is not positive and finite")
    return horizon


def _cell_refs(params: SimParams, w0: SpectralField, ref_tau: float) -> _Reference:
    """Fine reference of a cell, sampled at its horizon.

    Its step is the one nearest ref_tau that divides the horizon into a whole
    number of steps; a zero horizon takes no step and keeps ref_tau.
    """
    _, t_actual = _horizon_steps(params)
    if t_actual > 0.0:
        ref_tau = t_actual / max(1, int(round(t_actual / ref_tau)))
    return _Reference(params, w0, ref_tau, t_actual, (t_actual,))


def _cell_name(params: SimParams) -> str:
    return f"cell (scheme {params.scheme}, eps {params.eps:g}, tau {params.tau:g})"


def _record(params: SimParams, traj: TrajectoryResult, t: float, error: float,
            gap: float, ref_tau: float, wall: float) -> SweepRecord:
    """The record of params' trajectory at time t against a reference with this gap.

    It is reliable only when the error is at least ten times a finite gap
    between the fine and the finer reference (a nan error never is).
    """
    return SweepRecord(
        equation=params.equation,
        scheme=params.scheme,
        eps=params.eps,
        tau=params.tau,
        theta=params.theta,
        seed=params.seed,
        n_modes=params.n_modes,
        t_final=t,
        error_norm_r=params.error_norm_r,
        error=error,
        ref_tau=ref_tau,
        wall_seconds=wall,
        fp_iter_max=traj.fp_iter_max,
        fp_iter_mean=traj.fp_iter_mean,
        reliable=math.isfinite(gap) and error >= 10.0 * gap,
    )


def _run_single_point(
    params: SimParams,
    w0: SpectralField,
    pair: _ReferencePair,
) -> tuple[list[SweepRecord], list[float], SpectralField]:
    """params' trajectory from w0 against its reference pair at the pair's sample times.

    Returns a record and the gap of the pair per sample time, and the
    trajectory's final field.  ``wall_seconds`` times the trajectory and its
    errors, never the reference.
    """
    r = params.error_norm_r
    started = time.perf_counter()
    try:
        traj = run_trajectory(params, w0, pair.sample_times)
    except SolverFailure as exc:
        raise SolverFailure(exc.step_index, exc.t, exc.inner, _cell_name(params)) from exc.inner
    errors = [_norm_diff(w, f, r) for (_, w), (_, f) in zip(traj.snapshots, pair.fine.snapshots)]
    wall = time.perf_counter() - started
    gaps = [_norm_diff(f, g, r)
            for (_, f), (_, g) in zip(pair.fine.snapshots, pair.finer.snapshots)]
    records = [_record(params, traj, t, error, gap, pair.ref_tau, wall)
               for (t, _), error, gap in zip(traj.snapshots, errors, gaps)]
    return records, gaps, traj.state


def _point_worker(payload) -> tuple[SweepRecord, float]:
    """A sweep cell in a pool worker: its record and gap at the horizon."""
    [record], [gap], _ = _run_single_point(*payload)
    return record, gap


def _run_points(
    base: SimParams,
    cells: Sequence[SimParams],
    ref_tau: float,
    jobs: int | None,
) -> tuple[list[SweepRecord], list[float]]:
    """Run the cells, each at its horizon, against reference pairs from the shared store.

    Every cell starts from base's initial data.  The missing reference
    trajectories are built first, in lockstep batches (one batch, or with
    jobs > 1 up to ``jobs`` of them); then the cells run in task order, each
    handed its pair.  With jobs > 1 both phases share one pool of
    ``min(jobs, 2 * len(cells))`` workers: a cell misses at most two
    references, so neither phase has more tasks than that.
    """
    w0 = make_initial_data(base)
    fines = [_cell_refs(p, w0, ref_tau) for p in cells]
    store = _references()
    if jobs is not None and jobs > 1 and len(cells) > 1:
        # imported here: a serial command never pays for the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, 2 * len(cells))) as pool:
            pairs = store.pairs(fines, pool.map, jobs)
            payloads = [(p, w0, pair) for p, pair in zip(cells, pairs)]
            outcomes = list(pool.map(_point_worker, payloads))
    else:
        outcomes = []
        for p, pair in zip(cells, store.pairs(fines)):
            [record], [gap], _ = _run_single_point(p, w0, pair)
            outcomes.append((record, gap))
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

    The reference self-consistency gap must be finite and stay below 10% of
    the coarsest step's error, otherwise the whole sweep is rejected — a
    reference too coarse to resolve the largest error cannot order the rest.
    """
    taus = [float(t) for t in tau_list]
    ref_tau = _check_tau_sweep(taus, ref_tau, base.t_final)
    cells = [replace(base, tau=tau) for tau in taus]
    records, gaps = _run_points(base, cells, ref_tau, jobs)

    coarse_idx = max(range(len(records)), key=lambda i: records[i].tau)
    gap, error = gaps[coarse_idx], records[coarse_idx].error
    if not math.isfinite(gap) or gap > 0.1 * error:
        raise RuntimeError(
            f"reference self-consistency gap {gap:.3e} is not within 10% "
            f"of the coarsest-step error {error:.3e}; refine ref_tau"
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
    ref_tau = _check_eps_sweep(base, eps_values, T, ref_tau)

    cells = [replace(base, eps=e, t_final=_horizon(base.equation, T, e)) for e in eps_values]
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
    ref_tau = _check_error_vs_time(times, base.tau, base.t_final, ref_tau)
    _, t_actual = _horizon_steps(base)
    snapped = tuple(k * base.tau for k in _sample_steps(base, times))
    w0 = make_initial_data(base)
    step = base.tau / int(round(base.tau / ref_tau))
    [pair] = _references().pairs([_Reference(base, w0, step, t_actual, snapped)])
    records, _, _ = _run_single_point(base, w0, pair)
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

# the CSV's columns in order; a SweepRecord field enters the CSV only by being listed here
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


# (format, parse) of each column not written as repr(float) and read as float
_CSV_RULES = {
    "equation": (lambda equation: equation.value, Equation),
    "scheme": (str, str),
    "seed": (str, int),
    "n_modes": (str, int),
    "fp_iter_max": (str, int),
}
_CSV_FLOAT = (lambda x: repr(float(x)), float)
_CSV_OPTIONAL = ("fp_iter_max", "fp_iter_mean")  # empty when None


def _csv_cell(record: SweepRecord, column: str) -> str:
    value = getattr(record, column)
    if value is None and column in _CSV_OPTIONAL:
        return ""
    return _CSV_RULES.get(column, _CSV_FLOAT)[0](value)


def _csv_value(row: dict, column: str):
    text = row[column]
    if not text and column in _CSV_OPTIONAL:
        return None
    return _CSV_RULES.get(column, _CSV_FLOAT)[1](text)


def write_records_csv(path: str, records: Sequence[SweepRecord]) -> None:
    """Write records atomically (temp file + rename); floats round-trip exactly."""
    # a fresh name in the target directory, created under the process umask
    # (mkstemp's files are 0600 whatever the umask)
    tmp_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                            f"tmp{os.urandom(8).hex()}.csv.tmp")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow([_csv_cell(r, column) for column in CSV_COLUMNS])
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
            records.append(SweepRecord(**{column: _csv_value(row, column)
                                          for column in CSV_COLUMNS}))
    return records
