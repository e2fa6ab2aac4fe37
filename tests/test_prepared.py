"""Prepared step maps: their reused buffers never leak into the states they return.

A map keeps its stage buffers from step to step; every state a step hands
back must still be a new array, so step k's state keeps its bytes after
step k + 1 and shares no memory with it.
"""
from dataclasses import replace

import numpy as np
import pytest

from lowreg_nlse import harness
from lowreg_nlse.harness import Equation, SimParams, make_initial_data
from lowreg_nlse.spectral import OperatorSymbols, TorusGrid, random_initial_data


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


@pytest.mark.parametrize("equation, scheme", list(harness._SCHEMES))
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
