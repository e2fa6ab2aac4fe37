"""Prepared step maps: each per-scheme property once, over the eight maps of ``_SCHEMES``.

Every test here runs for each (equation, scheme) of ``harness._SCHEMES`` and
steps through the map the engine builds: ``selftest._step`` for one field,
``run_trajectory`` or ``_run_rows`` for trajectories.  A map keeps its stage
buffers from step to step; every state a step hands back must still be a new
array, so step k's state keeps its bytes after step k + 1 and shares no
memory with it.  Each scheme's local error has its order, an implicit one
reports its Picard count and raises on a diverging solve, zero stays zero,
and a step is deterministic and leaves its input alone.  An implicit
map's Picard solve stops within ``fp_tol`` of its fixed point.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowreg_nlse import cubic, harness, quadratic
from lowreg_nlse.harness import Equation, SimParams, _norm_diff, make_initial_data
from lowreg_nlse.oracles import band_limit, rk4_reference_step
from lowreg_nlse.quadratic import FixedPointError
from lowreg_nlse.selftest import _constant_field, _step
from lowreg_nlse.spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    random_initial_data,
    sobolev_norms,
)

_KEYS = list(harness._SCHEMES)


def _assert_fresh(states):
    """Each state kept its bytes, and consecutive states share no memory."""
    for state, snapshot in states:
        assert state.tobytes() == snapshot
    for (prev, _), (cur, _) in zip(states, states[1:]):
        assert not np.shares_memory(prev, cur)


def _recording(monkeypatch):
    """Every state the trajectory recorders are handed, per recorder, with its bytes then."""
    recorded = {}
    original = harness._Track.record

    def record(track, k, state, it, h1):
        recorded.setdefault(id(track), []).append((state, state.tobytes()))
        original(track, k, state, it, h1)

    monkeypatch.setattr(harness._Track, "record", record)
    return recorded


@pytest.mark.parametrize("equation, scheme", _KEYS)
def test_trajectory_steps_return_fresh_states(monkeypatch, equation, scheme):
    # a lone trajectory steps through the lone map of its scheme
    params = SimParams(equation=equation, scheme=scheme, eps=0.5, tau=0.05, t_final=0.2,
                       n_modes=16, theta=1.5, seed=267)
    recorded = _recording(monkeypatch)
    harness.run_trajectory(params, make_initial_data(params))
    [states] = recorded.values()
    assert len(states) == 4
    _assert_fresh(states)


# every scheme's step on its map, on one field and on a stack of two
_ENTRIES = [(kind, scheme) for (_, scheme), (kind, _) in harness._SCHEMES.items()]


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("kind, entry", _ENTRIES)
def test_map_entry_points_return_fresh_arrays(kind, entry, rows):
    grid = TorusGrid(16)
    fields = [random_initial_data(grid, 1.5, seed).coeffs for seed in (267, 11)[:rows]]
    taus = (0.05, -0.02)[:rows]
    if rows == 1:
        c, ops = fields[0], OperatorSymbols.build(grid, taus[0])
    else:
        c, ops = np.stack(fields), OperatorSymbols.stack(
            [OperatorSymbols.build(grid, tau) for tau in taus])
    prepared = kind((0.5, 0.3)[:rows], ops, 1e-12, 100)
    states = []
    for _ in range(4):
        c, _ = getattr(prepared, entry)(c)
        states.append((c, c.tobytes()))
    _assert_fresh(states)


@pytest.mark.parametrize("equation", list(Equation))
def test_lockstep_rows_keep_their_states(monkeypatch, equation):
    # rows of three lengths leave the stack one by one; the last steps alone.
    # Every scheme of the equation steps so, as a lot of its cells would
    for eq, scheme in harness._SCHEMES:
        if eq is not equation:
            continue
        base = SimParams(equation=equation, scheme=scheme, eps=0.5, tau=0.01, t_final=0.05,
                         n_modes=16, theta=1.5, seed=267)
        rows = []
        for eps, t_final in [(0.5, 0.05), (0.3, 0.08), (0.8, 0.03)]:
            p = replace(base, eps=eps, t_final=t_final)
            rows.append((p, make_initial_data(p), ()))
        lone = [harness.run_trajectory(p, w0) for p, w0, _ in rows]
        with monkeypatch.context() as patch:
            recorded = _recording(patch)
            results = harness._run_rows(rows)
        assert sorted(len(states) for states in recorded.values()) == [3, 5, 8]
        for states in recorded.values():
            _assert_fresh(states)
        for result, want in zip(results, lone):
            assert result.state.coeffs.tobytes() == want.state.coeffs.tobytes()


# (equation, scheme) -> eps, the exponents j of the steps tau = 0.1 * 2^-j, the
# seed of the band-limited theta = 0 data, the RK4 substeps of the reference
# step and the window of the local error's slope in tau
_QUAD_FIRST = (0.5, range(6, 13), 2, 32, (1.9, math.inf))
_QUAD_SECOND = (0.5, range(4, 9), 2, 32, (2.6, 3.4))
_LOCAL_ORDER = {
    (Equation.QUAD_SQUARE, "li1"): _QUAD_FIRST,
    (Equation.QUAD_SQUARE, "sli2"): _QUAD_SECOND,
    (Equation.QUAD_MODSQ, "li1"): _QUAD_FIRST,
    (Equation.QUAD_MODSQ, "sli2"): _QUAD_SECOND,
    (Equation.CUBIC, "nrli1"): (1.0, range(4, 11), 6, 48, (1.9, 2.1)),
    (Equation.CUBIC, "nrsli2"): (1.0, range(4, 11), 6, 48, (2.9, 3.1)),
    (Equation.CUBIC, "os18"): (1.0, range(4, 11), 6, 48, (1.9, 2.1)),
    (Equation.CUBIC, "strang"): (1.0, range(4, 11), 6, 48, (2.9, 3.1)),
}


@pytest.mark.parametrize("equation, scheme", _KEYS)
def test_local_error_order(equation, scheme):
    # one step against the fine RK4 flow of the same collocation system, on
    # data in the band |l| <= 4 of N = 32; the Picard solve runs to 1e-14
    eps, exponents, seed, substeps, (lo, hi) = _LOCAL_ORDER[(equation, scheme)]
    grid = TorusGrid(32)
    w = band_limit(random_initial_data(grid, 0.0, seed), 4)
    taus = [0.1 * 2.0**-j for j in exponents]
    errs = []
    for tau in taus:
        got, _ = _step(equation, scheme, w, eps, OperatorSymbols.build(grid, tau), 1e-14)
        ref = rk4_reference_step(w, eps, tau, equation.value, substeps=substeps)
        errs.append(_norm_diff(got, ref, 1.0))
    slope, _ = np.polyfit(np.log(taus), np.log(errs), 1)
    assert lo <= slope <= hi


@pytest.mark.parametrize("equation, scheme", _KEYS)
def test_zero_field_stays_zero(equation, scheme):
    p = SimParams(equation=equation, scheme=scheme, eps=0.5, tau=0.1, t_final=1.0,
                  n_modes=16, theta=2.0)
    out = harness.run_trajectory(p, SpectralField(TorusGrid(16), np.zeros(16, dtype=complex)))
    assert out.n_steps == 10
    np.testing.assert_array_equal(out.state.coeffs, 0.0)
    assert out.sup_h1 == 0.0


@pytest.mark.parametrize("equation, scheme", _KEYS)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_step_is_deterministic_and_leaves_its_input(equation, scheme, seed):
    grid = TorusGrid(16)
    ops = OperatorSymbols.build(grid, 0.1)
    w = random_initial_data(grid, 1.0, seed)
    snapshot = w.coeffs.copy()
    a, a_iters = _step(equation, scheme, w, 0.5, ops)
    b, b_iters = _step(equation, scheme, w, 0.5, ops)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    assert a_iters == b_iters
    np.testing.assert_array_equal(w.coeffs, snapshot)


# each implicit (equation, scheme) -> the amplitude of the theta = 0 data
# (seed 1) its Picard solve diverges on at tau = 1, eps = 1, and the iteration
# by which it must raise; the explicit schemes are the others
_STALL = {(Equation.QUAD_SQUARE, "sli2"): (50.0, 30), (Equation.QUAD_MODSQ, "sli2"): (50.0, 30),
          (Equation.CUBIC, "nrsli2"): (20.0, 25)}


@pytest.mark.parametrize("equation, scheme", _KEYS)
def test_picard_count_and_stall(equation, scheme):
    # an implicit map reports its count on theta = 1 data and raises on a
    # diverging solve; an explicit one reports None
    grid = TorusGrid(16)
    w = random_initial_data(grid, 1.0, 1 if equation is Equation.CUBIC else 3)
    _, iters = _step(equation, scheme, w, 0.5, OperatorSymbols.build(grid, 0.05))
    if (equation, scheme) not in _STALL:
        assert iters is None
        return
    assert 1 <= iters <= 100
    amplitude, bound = _STALL[(equation, scheme)]
    w = SpectralField(grid, amplitude * random_initial_data(grid, 0.0, 1).coeffs)
    with pytest.raises(FixedPointError) as exc:
        _step(equation, scheme, w, 1.0, OperatorSymbols.build(grid, 1.0))
    assert exc.value.iterations <= bound


# the inputs of the stop-rule test, name -> (N, theta of the seed-267 data,
# eps of the quadratic maps, eps of the cubic one, tau): selftest's constant
# data (theta None, v0 = 0.9 - 0.4j), rough-traj-n1024's steps, and the
# finer reference step of quad-eps-pool's eps = 0.18 cell
_STOP_INPUTS = {
    "constant": (8, None, 0.5, 0.5, 0.1),
    "rough-n1024": (1024, 1.0, 0.1, 0.25, 0.01),
    "pool-reference": (128, 5.0, 0.18, 0.18, 2.5e-3),
}


@pytest.mark.parametrize("name", list(_STOP_INPUTS))
@pytest.mark.parametrize("equation, scheme", list(_STALL))
def test_picard_stops_within_fp_tol_of_its_fixed_point(monkeypatch, equation, scheme, name):
    # the returned spectrum against the same map iterated on until its
    # increments stop falling, and its count against the count of the first
    # increment within fp_tol
    n, theta, eps_quad, eps_cubic, tau = _STOP_INPUTS[name]
    grid = TorusGrid(n)
    w = (_constant_field(grid, 0.9 - 0.4j) if theta is None
         else random_initial_data(grid, theta, 267))
    solves = []
    picard = quadratic._picard

    def recording(step, explicit, guess):
        solves.append((step, explicit.copy(), guess.copy()))
        return picard(step, explicit, guess)

    monkeypatch.setattr(quadratic, "_picard", recording)
    monkeypatch.setattr(cubic, "_picard", recording)
    eps = eps_cubic if equation is Equation.CUBIC else eps_quad
    got, iters = _step(equation, scheme, w, eps, OperatorSymbols.build(grid, tau))
    [(step, explicit, guess)] = solves

    def h1(c):
        return float(sobolev_norms(c, grid, 1.0))

    u, last = got.coeffs, math.inf
    for _ in range(100):
        u_next = step.apply(u, explicit)
        increment = h1(u_next - u)
        if not increment < last:
            break
        u, last = u_next, increment
    else:
        pytest.fail("the increments fell for 100 maps")
    assert h1(got.coeffs - u) <= 1e-12
    u, increment_count = guess, 0
    while increment_count < 100:
        u_next = step.apply(u, explicit)
        increment_count += 1
        if h1(u_next - u) <= 1e-12:
            break
        u = u_next
    assert iters <= increment_count
    if (equation, name) == (Equation.QUAD_MODSQ, "pool-reference"):
        assert iters == 2
