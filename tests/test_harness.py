"""Trajectory runner and sweep machinery tests.

The sweeps here run at deliberately small grids and short horizons; the
physically interesting regimes live in the acceptance suite.
"""
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from lowreg_nlse import harness, quadratic
from lowreg_nlse.harness import (
    CSV_COLUMNS,
    Equation,
    SimParams,
    SolverFailure,
    SweepRecord,
    _run_points,
    error_vs_time,
    fit_order,
    make_initial_data,
    read_records_csv,
    reference_solution,
    run_trajectory,
    shared_references,
    sweep_eps,
    sweep_tau,
    write_records_csv,
)
from lowreg_nlse.cubic import (
    CubicScheme,
    CubicSchemeConfig,
    nrli1_step,
    nrsli2_step_info,
    os18_step,
    strang_step,
)
from lowreg_nlse.oracles import riccati_zero_mode_square
from lowreg_nlse.quadratic import (
    FixedPointError,
    QuadNonlinearity,
    QuadSchemeConfig,
    li1_conj_step,
    li1_step,
    sli2_conj_step_info,
    sli2_step_info,
)
from lowreg_nlse.selftest import _step
from lowreg_nlse.spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    sobolev_norm,
)


def _quad(scheme="li1", **kw):
    defaults = dict(
        equation=Equation.QUAD_SQUARE,
        scheme=scheme,
        eps=0.5,
        tau=0.1,
        t_final=0.5,
        n_modes=16,
        theta=2.0,
        seed=0,
    )
    defaults.update(kw)
    return SimParams(**defaults)


def _cubic(scheme="strang", **kw):
    defaults = dict(
        equation=Equation.CUBIC,
        scheme=scheme,
        eps=1.0,
        tau=0.1,
        t_final=0.5,
        n_modes=16,
        theta=2.0,
        seed=0,
    )
    defaults.update(kw)
    return SimParams(**defaults)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        dict(equation=Equation.QUAD_SQUARE, scheme="strang"),
        dict(equation=Equation.QUAD_MODSQ, scheme="nrli1"),
        dict(equation=Equation.CUBIC, scheme="li1"),
        dict(equation=Equation.CUBIC, scheme="sli2"),
        dict(scheme="li2"),
    ],
)
def test_scheme_equation_mismatch_rejected(kw):
    with pytest.raises(ValueError, match="scheme"):
        _quad(**kw)


@pytest.mark.parametrize(
    "kw",
    [
        dict(tau=0.0),
        dict(tau=-0.1),
        dict(t_final=-1.0),
        dict(eps=0.0),
        dict(eps=1.5),
        dict(theta=-1.0),
        dict(error_norm_r=-0.5),
        dict(n_modes=5),
        dict(n_modes=2),
        dict(fp_max_iter=2.5),
        dict(seed=1.5),
        dict(seed=-1),
        dict(seed=2**64),
    ],
)
def test_bad_numeric_params_rejected(kw):
    # the message begins with the field at fault
    with pytest.raises(ValueError, match=f"^{next(iter(kw))} "):
        _quad(**kw)


def test_numpy_integer_params_accepted():
    p = _quad(n_modes=np.int64(16), seed=np.int64(3), fp_max_iter=np.int32(7))
    assert (p.n_modes, p.seed, p.fp_max_iter) == (16, 3, 7)


def test_step_count_is_capped_before_any_work(monkeypatch):
    # a horizon of astronomically many steps is rejected, never run
    monkeypatch.setattr(harness, "run_trajectory", None)
    monkeypatch.setattr(harness, "_run_rows", None)
    cap = harness._MAX_STEPS
    assert _quad(tau=1.0, t_final=float(cap)).t_final == cap
    with pytest.raises(ValueError, match="^t_final: "):
        _quad(tau=1.0, t_final=2.0 * cap)
    p = _quad()
    with pytest.raises(ValueError, match="^ref_tau: "):
        reference_solution(p, make_initial_data(p), ref_tau=1e-200)
    with pytest.raises(ValueError, match="^tau_list: "):
        sweep_tau(_quad(tau=_TAUS[0], t_final=_TAUS[0] * cap), _TAUS)
    with pytest.raises(ValueError, match="^eps_list: "):
        sweep_eps(_quad(), [0.5, 0.25, 1e-12], T=1.0)


@pytest.mark.parametrize("error, gap", [(math.nan, 0.0), (math.nan, math.nan), (1.0, math.nan),
                                        (math.inf, math.inf), (1.0, math.inf),
                                        (math.inf, 0.0)])
def test_record_with_nan_error_or_gap_is_unreliable(error, gap):
    p = _quad(t_final=0.0)
    traj = run_trajectory(p, make_initial_data(p))
    pair = harness._ReferencePair(traj, traj, 1e-3, (0.0,))
    record = harness._record(p, traj, 0.0, error, gap, pair, 0.0)
    assert record.reliable is False


def test_sweep_cell_that_takes_no_step_is_rejected_before_any_work(monkeypatch):
    # a step above twice the horizon takes round(horizon / tau) = 0 steps and
    # would score an error of 0, which no order fit takes
    monkeypatch.setattr(harness, "run_trajectory", None)
    monkeypatch.setattr(harness, "_run_rows", None)
    monkeypatch.setattr(harness, "_run_points", None)
    with pytest.raises(ValueError, match="^tau_list: t = 0.8 in steps of 4 takes no step"):
        sweep_tau(_cubic("nrli1", tau=4.0, t_final=0.8), [4.0, 2.0, 1.0, 0.5])
    with pytest.raises(ValueError, match="^eps_list: t = 0.2 in steps of 0.5 takes no step"):
        sweep_eps(_quad("li1", tau=0.5), [1.0, 0.9, 0.8], T=0.2, ref_tau=0.05)


def test_params_pickle_round_trip():
    p = _cubic(scheme="nrsli2")
    assert pickle.loads(pickle.dumps(p)) == p


# ---------------------------------------------------------------------------
# run_trajectory
# ---------------------------------------------------------------------------

def test_zero_steps_returns_initial_state():
    p = _quad(t_final=0.0)
    w0 = make_initial_data(p)
    out = run_trajectory(p, w0)
    assert out.n_steps == 0
    assert out.t_actual == 0.0
    np.testing.assert_array_equal(out.state.coeffs, w0.coeffs)
    assert out.fp_iter_max is None and out.fp_iter_mean is None


def test_trajectory_matches_manual_stepping():
    # ten steps of the one-field map are the trajectory, bit for bit
    p = _quad(tau=0.05, t_final=0.5)
    ops = OperatorSymbols.build(TorusGrid(p.n_modes), p.tau)
    w0 = make_initial_data(p)
    w = w0
    for _ in range(10):
        w, _ = _step(p.equation, p.scheme, w, p.eps, ops)
    out = run_trajectory(p, w0)
    np.testing.assert_array_equal(out.state.coeffs, w.coeffs)
    assert out.sup_h1 >= sobolev_norm(w0, 1.0)


def test_step_count_snaps_to_nearest():
    p = _quad(tau=0.1, t_final=0.97)
    out = run_trajectory(p, make_initial_data(p))
    assert out.n_steps == 10
    assert out.t_actual == pytest.approx(1.0)


def test_snapshots_land_on_nearest_steps():
    p = _quad(tau=0.1, t_final=0.5)
    w0 = make_initial_data(p)
    out = run_trajectory(p, w0, sample_times=[0.0, 0.1, 0.24, 0.9])
    times = [t for t, _ in out.snapshots]
    assert times == pytest.approx([0.0, 0.1, 0.2, 0.5])
    np.testing.assert_array_equal(out.snapshots[0][1].coeffs, w0.coeffs)
    np.testing.assert_array_equal(out.snapshots[-1][1].coeffs, out.state.coeffs)


def test_fp_iteration_stats():
    implicit = run_trajectory(_quad("sli2"), make_initial_data(_quad("sli2")))
    assert implicit.fp_iter_max >= 1
    assert 1.0 <= implicit.fp_iter_mean <= implicit.fp_iter_max
    explicit = run_trajectory(_quad("li1"), make_initial_data(_quad("li1")))
    assert explicit.fp_iter_max is None


# every (equation, scheme) SimParams accepts: the stepper it must run and
# the nonlinearity or scheme of the config that stepper is handed
_STEP_OF = {
    (Equation.QUAD_SQUARE, "li1"): (li1_step, QuadNonlinearity.SQUARE),
    (Equation.QUAD_SQUARE, "sli2"): (sli2_step_info, QuadNonlinearity.SQUARE),
    (Equation.QUAD_MODSQ, "li1"): (li1_conj_step, QuadNonlinearity.MODULUS_SQUARE),
    (Equation.QUAD_MODSQ, "sli2"): (sli2_conj_step_info, QuadNonlinearity.MODULUS_SQUARE),
    (Equation.CUBIC, "nrli1"): (nrli1_step, CubicScheme.NRLI1),
    (Equation.CUBIC, "nrsli2"): (nrsli2_step_info, CubicScheme.NRSLI2),
    (Equation.CUBIC, "os18"): (os18_step, CubicScheme.OS18),
    (Equation.CUBIC, "strang"): (strang_step, CubicScheme.STRANG),
}
_IMPLICIT = {(Equation.QUAD_SQUARE, "sli2"), (Equation.QUAD_MODSQ, "sli2"),
             (Equation.CUBIC, "nrsli2")}


def _accepted(equation, scheme):
    try:
        SimParams(equation=equation, scheme=scheme, eps=0.5, tau=0.1, t_final=0.5)
    except ValueError:
        return False
    return True


def test_simparams_accepts_exactly_the_stepper_table():
    names = {scheme for _, scheme in _STEP_OF} | {"li2", "nrli2", ""}
    accepted = {(eq, s) for eq in Equation for s in names if _accepted(eq, s)}
    assert accepted == set(_STEP_OF) == set(harness._SCHEMES)


@pytest.mark.parametrize("equation, scheme", list(_STEP_OF))
def test_trajectory_steps_through_the_harness_global(equation, scheme):
    # a trajectory is a one-row lot of the scheme's prepared map; it must be
    # bit for bit a loop of the table's public stepper, which is the
    # harness global of that name.  An sli2 trajectory starts each step
    # after its first from its carried corrections: it is bit for bit a
    # loop of its map's sli2 with them, whose first step is the stepper's
    # and whose later steps lie within 2 fp_tol of the stepper's step from
    # the same state, as both lie within fp_tol of that state's fixed point
    stepper, kind = _STEP_OF[(equation, scheme)]
    assert harness._SCHEMES[(equation, scheme)][1] is stepper
    assert getattr(harness, stepper.__name__) is stepper
    p = SimParams(equation=equation, scheme=scheme, eps=0.5, tau=0.05, t_final=0.2,
                  n_modes=16, theta=2.0, seed=3)
    w0 = make_initial_data(p)
    out = run_trajectory(p, w0, (0.0, 0.1, 0.2))

    config = CubicSchemeConfig if equation is Equation.CUBIC else QuadSchemeConfig
    cfg = config(p.eps, p.tau, kind, p.fp_tol, p.fp_max_iter)
    ops = OperatorSymbols.build(w0.grid, p.tau)
    prepared = harness._SCHEMES[(equation, scheme)][0]((p.eps,), ops, p.fp_tol, p.fp_max_iter)
    carried = []
    states, iters = [w0], []
    for k in range(4):
        w = stepper(states[-1], cfg, ops)
        if (equation, scheme) in _IMPLICIT:
            w, it = w
            iters.append(it)
        if scheme == "sli2":
            c, [iters[-1]] = prepared.sli2(states[-1].coeffs, carried)
            if k == 0:
                assert c.tobytes() == w.coeffs.tobytes()
            else:
                assert harness._norm_diff(SpectralField(w.grid, c), w, 1.0) <= 2 * p.fp_tol
            w = SpectralField(w.grid, c)
        states.append(w)
    want = harness.TrajectoryResult(
        state=states[-1], t_actual=4 * p.tau, n_steps=4,
        sup_h1=max(sobolev_norm(w, 1.0) for w in states),
        fp_iter_max=max(iters) if iters else None,
        fp_iter_mean=sum(iters) / len(iters) if iters else None,
        snapshots=tuple((k * p.tau, states[k]) for k in (0, 2, 4)),
    )
    assert (out.fp_iter_max is not None) == ((equation, scheme) in _IMPLICIT)
    _same_trajectory(out, want)


@pytest.fixture(scope="module")
def stalled_failure():
    # one stalled sli2 trajectory, read by the step-index and pickling tests
    p = _quad("sli2", tau=1.0, t_final=3.0, eps=1.0, fp_max_iter=25)
    w0 = SpectralField(TorusGrid(p.n_modes), 50.0 * make_initial_data(p).coeffs)
    with pytest.raises(SolverFailure) as info:
        run_trajectory(p, w0)
    return info.value


def test_solver_failure_carries_step_index(stalled_failure):
    assert stalled_failure.step_index == 1
    assert "step 1" in str(stalled_failure)


def test_solver_failure_survives_pickling(stalled_failure):
    # pool workers send failures back pickled; the step and residual must survive
    back = pickle.loads(pickle.dumps(stalled_failure))
    assert type(back) is SolverFailure
    assert str(back) == str(stalled_failure)
    assert (back.step_index, back.residual) == (1, stalled_failure.residual)
    assert str(back.inner) == str(stalled_failure.inner)


def test_solver_failure_names_its_trajectory_through_pickling():
    where = "cell (scheme sli2, eps 0.5, tau 0.05)"
    exc = SolverFailure(2, 0.1, FixedPointError(1e-3, 4), where)
    assert f"implicit solve failed at step 2 (t = 0.1) in the {where}: " in str(exc)
    back = pickle.loads(pickle.dumps(exc))
    assert str(back) == str(exc)
    assert (back.where, back.step_index, back.residual) == (where, 2, 1e-3)


# os18 at eps 1 and tau 0.8 from seed 1 overflows within its five steps
_OVERFLOWING = dict(eps=1.0, tau=0.8, t_final=4.0, n_modes=32, theta=0.0, seed=1)


def test_overflowing_trajectory_runs_on_under_warnings_as_errors():
    # the suite turns every warning into an error, so an overflow warning
    # in a step or its norm would raise here instead of returning
    p = _cubic("os18", **_OVERFLOWING)
    out = run_trajectory(p, make_initial_data(p))
    assert out.n_steps == 5
    assert not math.isfinite(out.sup_h1)


def test_overflowing_cell_scores_an_unreliable_inf():
    p = _cubic("os18", **_OVERFLOWING)
    w0 = make_initial_data(p)
    # a finite stand-in for the reference pair: w0 itself at the horizon
    fine = harness.TrajectoryResult(w0, 4.0, 4000, 1.0, None, None, ((4.0, w0),))
    pair = harness._ReferencePair(fine, fine, 1e-3, (4.0,))
    [record], _ = harness._run_single_point(p, w0, pair)
    assert (record.error, record.gap) == (math.inf, 0.0)
    assert record.reliable is False


def test_overflowing_sweep_has_no_fit():
    # os18 from the same data overflows to nan at every one of these steps
    base = _cubic("os18", **dict(_OVERFLOWING, tau=0.2, t_final=1.6, n_modes=16))
    records, fit = sweep_tau(base, [0.2, 0.1, 0.05, 0.025], ref_tau=1e-3)
    assert fit is None
    assert not any(math.isfinite(r.error) or r.reliable for r in records)


def test_wrong_grid_rejected():
    p = _quad()
    w0 = SpectralField(TorusGrid(32), np.zeros(32, dtype=complex))
    with pytest.raises(ValueError, match="grid"):
        run_trajectory(p, w0)


def test_strang_trajectory_conserves_mass():
    p = _cubic("strang", tau=0.01, t_final=10.0)
    w0 = make_initial_data(p)
    out = run_trajectory(p, w0)
    assert out.n_steps == 1000
    drift = abs(sobolev_norm(out.state, 0.0) - sobolev_norm(w0, 0.0))
    assert drift <= 1e-9


# ---------------------------------------------------------------------------
# reference solutions
# ---------------------------------------------------------------------------

def test_reference_requires_fine_step():
    p = _quad()
    for ref_tau in (p.tau / 5, 0.0, -1e-3):
        with pytest.raises(ValueError, match="ref_tau"):
            reference_solution(p, make_initial_data(p), ref_tau=ref_tau)


def test_reference_zero_horizon_is_identity():
    p = _quad(t_final=0.0)
    w0 = make_initial_data(p)
    ref = reference_solution(p, w0, ref_tau=1e-3)
    np.testing.assert_array_equal(ref.coeffs, w0.coeffs)


def test_reference_zero_mode_matches_riccati():
    # Constant data reduces the square nonlinearity to v' = -i eps v^2 whose
    # exact solution is v0 / (1 + i eps t v0); the two-endpoint reference
    # must reproduce it to its own O(ref_tau^2) accuracy.
    p = _quad("li1", tau=0.1, t_final=1.0, eps=0.5, n_modes=8)
    grid = TorusGrid(8)
    v0 = 0.4 - 0.3j
    coeffs = np.zeros(8, dtype=complex)
    coeffs[4] = v0
    w0 = SpectralField(grid, coeffs)
    ref = reference_solution(p, w0, ref_tau=1e-4)
    exact = riccati_zero_mode_square(v0, p.eps, 1.0)
    assert abs(ref.coeffs[4] - exact) < 1e-8
    assert np.max(np.abs(np.delete(ref.coeffs, 4))) == 0.0


def test_cubic_reference_cross_validated_against_strang():
    # Independent check of the symmetric reference: a fine Strang splitting
    # trajectory of the same flow must agree far below the coarse-step errors
    # the references are used to measure.
    p = _cubic("nrli1", tau=0.1, t_final=0.5, eps=0.5)
    w0 = make_initial_data(p)
    ref = reference_solution(p, w0, ref_tau=2e-3)
    strang = run_trajectory(
        SimParams(
            equation=Equation.CUBIC,
            scheme="strang",
            eps=p.eps,
            tau=2e-3,
            t_final=0.5,
            n_modes=p.n_modes,
            theta=p.theta,
            seed=p.seed,
        ),
        w0,
    )
    assert harness._norm_diff(ref, strang.state, 1.0) < 5e-5


def _lone_reference(ref):
    params = harness._reference_params(ref.params, ref.step, ref.t_final)
    return run_trajectory(params, ref.w0, sample_times=ref.sample_times)


def _same_trajectory(a, b):
    assert a.state.coeffs.tobytes() == b.state.coeffs.tobytes()
    assert (a.n_steps, a.t_actual, a.fp_iter_max) == (b.n_steps, b.t_actual, b.fp_iter_max)
    assert repr(a.sup_h1) == repr(b.sup_h1) and repr(a.fp_iter_mean) == repr(b.fp_iter_mean)
    assert [t for t, _ in a.snapshots] == [t for t, _ in b.snapshots]
    for (_, x), (_, y) in zip(a.snapshots, b.snapshots):
        assert x.coeffs.tobytes() == y.coeffs.tobytes()


@pytest.mark.parametrize("batches", [1, 2])
@pytest.mark.parametrize("equation", list(Equation))
def test_batched_references_equal_lone_trajectories(monkeypatch, equation, batches):
    lockstep = []
    original = harness._run_rows

    def counting(rows, *name):
        lockstep.append(len(rows))
        return original(rows, *name)

    monkeypatch.setattr(harness, "_run_rows", counting)
    # the Picard counts of the rows of each stacked quadratic solve
    counts = []
    picard = quadratic._picard

    def recording(step, explicit, guess, *secant):
        u, iters = picard(step, explicit, guess, *secant)
        counts.append(iters)
        return u, iters

    monkeypatch.setattr(quadratic, "_picard", recording)
    base = SimParams(equation=equation, scheme="nrli1" if equation is Equation.CUBIC else "li1",
                     eps=0.5, tau=0.1, t_final=0.5, n_modes=16, theta=1.5, seed=267)
    refs = []
    # rows of different eps, lengths, steps (so Picard counts), sample times
    # and data; the smooth theta = 5 row's sli2 steps stop after one map
    # where rows beside it take two
    for eps, t_final, step, times, theta in [
            (0.5, 0.5, 0.01, (0.0, 0.2, 0.2), 1.5), (0.3, 0.8, 0.02, (), 1.5),
            (0.8, 0.3, 0.005, (0.1, 0.3), 1.5), (0.6, 0.0, 0.01, (0.0,), 1.5),
            (0.1, 0.5, 0.01, (), 5.0)]:
        p = replace(base, eps=eps, t_final=t_final, theta=theta)
        fine = harness._Reference(p, make_initial_data(p), step, t_final, times)
        refs.extend([fine, replace(fine, step=step / 2.0)])
    store = harness._ReferenceStore()
    built = store.build(refs, batches=batches)
    # the two halves of the zero-horizon pair take no step and share a key
    assert sorted(lockstep) == ([9] if batches == 1 else [4, 5])
    assert len({traj.fp_iter_max for _, traj in built}) > 1
    if equation is not Equation.CUBIC:
        assert any(1 in iters and 2 in iters for iters in counts if len(iters) > 1)
    for ref, (_, traj) in zip(refs, built):
        _same_trajectory(traj, _lone_reference(ref))


def test_stalled_reference_row_names_its_own_step():
    # quad-modsq at eps 1 and step 0.1 needs 15, 16, 18, 26 Picard iterations
    # at its first four steps, so at fp_max_iter 20 it stalls at step 4; the
    # longer row beside it converges throughout
    easy = _quad(equation=Equation.QUAD_MODSQ, eps=0.5, theta=1.0, seed=267, fp_max_iter=20)
    hard = replace(easy, eps=1.0)
    refs = [harness._Reference(easy, make_initial_data(easy), 0.01, 0.5),
            harness._Reference(hard, make_initial_data(hard), 0.1, 1.0)]
    with pytest.raises(SolverFailure) as lone:
        _lone_reference(refs[1])
    with pytest.raises(SolverFailure) as info:
        harness._ReferenceStore().build(refs)
    failure = info.value
    assert (failure.step_index, failure.t) == (lone.value.step_index, lone.value.t) == (4, 0.4)
    assert failure.where == "reference trajectory (step 0.1, eps 1)"
    assert failure.residual == lone.value.residual
    assert str(failure).startswith("implicit solve failed at step 4 (t = 0.4) in the "
                                   "reference trajectory (step 0.1, eps 1): ")


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

_TAUS = [0.2, 0.1, 0.05, 0.025]


@pytest.fixture(scope="module")
def sli2_tau_sweep():
    base = _quad("sli2", tau=_TAUS[0], t_final=1.0)
    return sweep_tau(base, _TAUS, ref_tau=2.5e-3)


def test_sweep_tau_needs_enough_points():
    base = _quad("sli2")
    with pytest.raises(ValueError, match="4"):
        sweep_tau(base, [0.1, 0.05, 0.025])
    with pytest.raises(ValueError, match="^tau_list: step sizes must be distinct"):
        sweep_tau(base, [0.1, 0.1, 0.1, 0.1])
    for ref_tau in (0.02, 0.0, -1e-3):
        with pytest.raises(ValueError, match="ref_tau"):
            sweep_tau(base, _TAUS, ref_tau=ref_tau)


def test_sweep_tau_monotone_refinement(sli2_tau_sweep):
    records, _ = sli2_tau_sweep
    errors = [r.error for r in records]
    assert all(e > 0 and math.isfinite(e) for e in errors)
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 1.5
    assert all(r.reliable for r in records)


def test_sweep_tau_second_order_slope(sli2_tau_sweep):
    _, fit = sli2_tau_sweep
    assert fit.abscissa == "tau"
    assert fit.n_points == 4
    assert fit.slope == pytest.approx(2.0, abs=0.25)


def test_sweep_tau_records_describe_their_cell(sli2_tau_sweep):
    records, _ = sli2_tau_sweep
    assert [r.tau for r in records] == _TAUS
    for r in records:
        assert r.scheme == "sli2"
        assert r.t_final == pytest.approx(1.0)
        assert r.ref_tau <= r.tau / 10 + 1e-15
        assert r.wall_seconds > 0
        assert r.fp_iter_max >= 1


def test_sweep_is_deterministic_and_parallel_agrees(sli2_tau_sweep):
    records, fit = sli2_tau_sweep
    base = _quad("sli2", tau=_TAUS[0], t_final=1.0)
    again, fit2 = sweep_tau(base, _TAUS, ref_tau=2.5e-3)
    workers, fit3 = sweep_tau(base, _TAUS, ref_tau=2.5e-3, jobs=2)
    for other in (again, workers):
        assert len(other) == len(records)
        for a, b in zip(records, other):
            assert (a.error, a.t_final, a.ref_tau, a.fp_iter_max, a.fp_iter_mean) == (
                b.error,
                b.t_final,
                b.ref_tau,
                b.fp_iter_max,
                b.fp_iter_mean,
            )
    assert fit.slope == fit2.slope == fit3.slope


@pytest.mark.parametrize("above", [False, True])
def test_sweep_tau_gate_is_ten_percent_of_the_coarsest_error(monkeypatch, above):
    # stand-in cell runs, listed finest first: errors tau^2 and a gap at the
    # coarsest step of exactly 10% of its error, or the next float above;
    # the finer cells' gaps exceed their errors and do not count
    taus = _TAUS[::-1]
    records = [replace(_sample_records()[0], tau=tau, error=tau * tau) for tau in taus]
    limit = 0.1 * records[-1].error
    gaps = [1.0, 1.0, 1.0, np.nextafter(limit, 1.0) if above else limit]
    monkeypatch.setattr(harness, "_run_points", lambda *args: (records, gaps))
    base = _quad("sli2", tau=_TAUS[0], t_final=1.0)
    if above:
        with pytest.raises(RuntimeError, match="refine ref_tau"):
            sweep_tau(base, taus, ref_tau=2.5e-3)
    else:
        got, fit = sweep_tau(base, taus, ref_tau=2.5e-3)
        assert got == records
        assert fit.slope == pytest.approx(2.0)


@pytest.mark.parametrize("error", [math.inf, 1.0])
def test_sweep_tau_gate_rejects_a_coarsest_gap_that_is_not_finite(monkeypatch, error):
    # an infinite gap is never within 10% of an error, not even of an infinite one
    taus = _TAUS[::-1]
    records = [replace(_sample_records()[0], tau=tau, error=tau * tau) for tau in taus]
    records[-1] = replace(records[-1], error=error)
    gaps = [0.0, 0.0, 0.0, math.inf]
    monkeypatch.setattr(harness, "_run_points", lambda *args: (records, gaps))
    base = _quad("sli2", tau=_TAUS[0], t_final=1.0)
    with pytest.raises(RuntimeError, match="gap inf is not within 10% "):
        sweep_tau(base, taus, ref_tau=2.5e-3)


def test_reference_pairs_are_shared_only_within_a_store(monkeypatch):
    built = []
    original = harness._reference_params

    def counting(params, ref_tau, t_final):
        built.append((params.eps, ref_tau, t_final))
        return original(params, ref_tau, t_final)

    monkeypatch.setattr(harness, "_reference_params", counting)
    # the four steps of a tau sweep reach one horizon, so one pair serves all,
    # also when the cells run in the pool
    sweep_tau(_quad("sli2", tau=_TAUS[0], t_final=1.0), _TAUS, ref_tau=2.5e-3, jobs=2)
    assert len(built) == 2
    # separate library calls keep separate stores ...
    built.clear()
    base = _quad("li1", tau=0.05)
    for scheme in ("li1", "sli2"):
        sweep_eps(replace(base, scheme=scheme), [0.5, 0.4, 0.25], T=0.2, ref_tau=5e-3)
    assert len(built) == 12
    # ... and a shared block builds each pair once for both schemes
    built.clear()
    with shared_references():
        for scheme in ("li1", "sli2"):
            sweep_eps(replace(base, scheme=scheme), [0.5, 0.4, 0.25], T=0.2,
                      ref_tau=5e-3)
    assert len(built) == 6


def test_unresolvable_point_is_flagged():
    # A reference only 2x finer than the scheme step cannot certify a
    # second-order scheme: error ~ 0.75*C*tau^2 against a self-consistency
    # gap ~ 0.19*C*tau^2.  The public sweeps reject such a ref_tau outright;
    # the dominance flag is the second line of defense and must trip.
    base = _quad("sli2", tau=0.1, t_final=0.5)
    w0 = make_initial_data(base)
    with shared_references():
        [record], [gap] = _run_points(base, [base], 0.05, None)
        [pair] = harness._references().pairs([harness._cell_refs(base, w0, 0.05)])
    assert record.error < 10.0 * gap
    assert not record.reliable
    # the record carries its gap and both sups of H^1 (in memory only)
    assert record.gap == gap == harness._norm_diff(pair.fine.state, pair.finer.state, 1.0)
    assert record.sup_h1 == run_trajectory(base, w0).sup_h1
    assert record.ref_sup_h1 == pair.fine.sup_h1


def test_sweep_eps_validation():
    base = _quad("li1", tau=0.05)
    with pytest.raises(ValueError, match="3"):
        sweep_eps(base, [0.5, 0.25], T=0.2)
    with pytest.raises(ValueError, match="decreasing"):
        sweep_eps(base, [0.25, 0.5, 0.75], T=0.2)
    with pytest.raises(ValueError, match="0, 1"):
        sweep_eps(base, [2.0, 0.5, 0.25], T=0.2)


def test_sweep_eps_rejects_an_eps_without_a_finite_horizon(monkeypatch):
    # 1e-170 squared underflows to 0, so T/eps^2 has no value; the sweep's
    # check rejects it before any reference or cell runs
    monkeypatch.setattr(harness, "_run_points", None)
    base = _cubic("nrli1", tau=0.05)
    with pytest.raises(ValueError, match="eps 1e-170 with T 1.0 gives a horizon T/eps"):
        sweep_eps(base, [0.5, 0.3, 1e-170], 1.0)


def test_sweep_eps_quadratic_horizon_law():
    base = _quad("li1", tau=0.05)
    records, fit = sweep_eps(base, [0.5, 0.4, 0.25], T=0.2, ref_tau=5e-4)
    assert fit.abscissa == "eps"
    for r, eps in zip(records, [0.5, 0.4, 0.25]):
        assert abs(r.t_final - 0.2 / eps) <= base.tau / 2
        assert math.isfinite(r.error) and r.error > 0


def test_sweep_eps_cubic_horizon_law():
    base = _cubic("nrli1", tau=0.05, eps=1.0)
    records, _ = sweep_eps(base, [1.0, 0.7, 0.5], T=0.1, ref_tau=5e-3)
    for r, eps in zip(records, [1.0, 0.7, 0.5]):
        assert abs(r.t_final - 0.1 / eps**2) <= base.tau / 2


# ---------------------------------------------------------------------------
# error growth in time
# ---------------------------------------------------------------------------

def test_error_vs_time_alignment_and_flags():
    base = _quad("li1", tau=0.1, t_final=0.5)
    records = error_vs_time(base, [0.0, 0.1, 0.24, 0.5], ref_tau=1e-3)
    assert [r.t_final for r in records] == pytest.approx([0.0, 0.1, 0.2, 0.5])
    assert records[0].error == 0.0
    assert records[0].reliable  # zero error at t=0 beats a zero gap
    for r in records[1:]:
        assert math.isfinite(r.error) and r.error > 0
    assert records[-1].error >= records[1].error


def test_error_vs_time_validation():
    base = _quad("li1")
    with pytest.raises(ValueError, match="increasing"):
        error_vs_time(base, [0.2, 0.1])
    with pytest.raises(ValueError, match="exceed"):
        error_vs_time(base, [0.1, 5.0])
    with pytest.raises(ValueError, match="nonnegative"):
        error_vs_time(base, [-0.1, 0.2])


def test_error_vs_time_rejects_no_sample_times_before_any_work(monkeypatch):
    monkeypatch.setattr(harness, "_run_rows", None)
    with pytest.raises(ValueError, match="^sample_times: "):
        error_vs_time(_quad("li1"), [])


# ---------------------------------------------------------------------------
# order fitting
# ---------------------------------------------------------------------------

def test_fit_order_recovers_exact_power_law():
    taus = [0.1 * 2.0**-j for j in range(5)]
    fit = fit_order([(t, 3.2 * t**1.7) for t in taus])
    assert fit.slope == pytest.approx(1.7, abs=1e-12)
    assert fit.n_points == 5
    assert max(abs(r) for r in fit.residuals) < 1e-12


def test_fit_order_tolerates_noise():
    rng = np.random.default_rng(7)
    taus = [0.1 * 2.0**-j for j in range(6)]
    pts = [(t, 2.0 * t**2 * (1.0 + 0.05 * rng.uniform(-1, 1))) for t in taus]
    fit = fit_order(pts)
    assert fit.slope == pytest.approx(2.0, abs=0.1)


def test_fit_order_rejects_bad_input():
    with pytest.raises(ValueError, match="3 points"):
        fit_order([(0.1, 1.0), (0.05, 0.5)])
    with pytest.raises(ValueError, match="positive"):
        fit_order([(0.1, 1.0), (0.05, 0.0), (0.025, 0.1)])
    with pytest.raises(ValueError, match="positive"):
        fit_order([(0.1, 1.0), (-0.05, 0.5), (0.025, 0.1)])
    with pytest.raises(ValueError, match="2 distinct abscissae"):
        fit_order([(0.1, 1.0), (0.1, 0.5), (0.1, 0.1)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_order([(0.1, bad), (0.05, 0.5), (0.025, 0.1)])
        with pytest.raises(ValueError, match="finite"):
            fit_order([(bad, 1.0), (0.05, 0.5), (0.025, 0.1)])


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def _sample_records():
    return [
        SweepRecord(
            equation=Equation.QUAD_SQUARE,
            scheme="sli2",
            eps=0.1,
            tau=0.05,
            theta=5.0,
            seed=0,
            n_modes=128,
            t_final=10.0,
            error_norm_r=1.0,
            error=3.0517578125e-05,
            ref_tau=0.000125,
            wall_seconds=1.25,
            fp_iter_max=6,
            fp_iter_mean=4.25,
            gap=1.5e-7,
            sup_h1=1.25,
            ref_sup_h1=1.125,
        ),
        SweepRecord(
            equation=Equation.CUBIC,
            scheme="os18",
            eps=0.7,
            tau=0.05,
            theta=1.0,
            seed=11,
            n_modes=64,
            t_final=1.0204081632653061,
            error_norm_r=1.0,
            error=0.1 + 0.2,  # deliberately not exactly 0.3
            ref_tau=5e-4,
            wall_seconds=0.75,
            fp_iter_max=None,
            fp_iter_mean=None,
            reliable=False,
        ),
    ]


def test_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "records.csv"
    records = _sample_records()
    write_records_csv(str(path), records)
    back = read_records_csv(str(path))
    assert len(back) == 2
    for orig, rec in zip(records, back):
        for col in CSV_COLUMNS:
            assert getattr(rec, col) == getattr(orig, col), col
    # the reliability flag, gap and sups of H^1 are session metadata, not
    # part of the file format
    assert back[1].reliable
    for rec in back:
        assert (rec.gap, rec.sup_h1, rec.ref_sup_h1) == (None, None, None)


def test_csv_header_and_na_fields(tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(str(path), _sample_records())
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[2].endswith(",,")  # explicit scheme: both fp columns empty


def test_csv_overwrite_is_atomic_replace(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("stale")
    write_records_csv(str(path), _sample_records())
    assert read_records_csv(str(path))[0].scheme == "sli2"
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_csv_failed_write_leaves_the_directory_as_it_was(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("stale")
    good, other = _sample_records()
    # the header and the first row are written before the second fails
    with pytest.raises(ValueError):
        write_records_csv(str(path), [good, replace(other, eps="not a number")])
    assert path.read_text() == "stale"
    assert [p.name for p in tmp_path.iterdir()] == ["records.csv"]


def test_csv_mode_follows_the_umask(tmp_path):
    # as any file open() creates there, not mkstemp's 0600
    path = tmp_path / "records.csv"
    write_records_csv(str(path), _sample_records())
    plain = tmp_path / "plain.txt"
    with open(plain, "w"):
        pass
    assert path.stat().st_mode == plain.stat().st_mode


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_records_csv(str(path))


@pytest.mark.parametrize("edit", [lambda row: row + ",0.5", lambda row: row.rsplit(",", 1)[0]],
                         ids=["extra-cell", "missing-cell"])
def test_csv_rejects_a_row_of_the_wrong_width(tmp_path, edit):
    # a row must have the header's cells; the error names the file and the line
    path = tmp_path / "records.csv"
    write_records_csv(str(path), _sample_records())
    header, first, second = path.read_text().splitlines()
    path.write_text("\n".join([header, first, edit(second)]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 3: "):
        read_records_csv(str(path))
