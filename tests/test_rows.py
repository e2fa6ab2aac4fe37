"""Prepared symmetric maps: a (B, N) stack against one-row calls.

Each row of a stack carries its own eps, step and symbols; its result and
Picard count must be those of the public step on that row alone, bit for
bit, also while other rows of the stack converge earlier or later.
"""
import numpy as np
import pytest

from lowreg_nlse.cubic import CubicScheme, CubicSchemeConfig, _NonresonantMap, nrsli2_step_info
from lowreg_nlse.quadratic import (
    FixedPointError,
    QuadNonlinearity,
    QuadSchemeConfig,
    _ModSquareMap,
    _SquareMap,
    sli2_conj_step_info,
    sli2_step_info,
)
from lowreg_nlse.spectral import OperatorSymbols, TorusGrid, random_initial_data

# public step, its map class, and the config of one row
_MAPS = {
    "sli2": (sli2_step_info, _SquareMap,
             lambda e, t: QuadSchemeConfig(e, t, QuadNonlinearity.SQUARE)),
    "sli2_conj": (sli2_conj_step_info, _ModSquareMap,
                  lambda e, t: QuadSchemeConfig(e, t, QuadNonlinearity.MODULUS_SQUARE)),
    "nrsli2": (nrsli2_step_info, _NonresonantMap,
               lambda e, t: CubicSchemeConfig(e, t, CubicScheme.NRSLI2)),
}

# (eps, step, theta, seed) of each row: mixed strengths, both step signs
_ROWS = [(0.5, 0.05, 1.0, 3), (0.9, -0.02, 1.5, 267), (0.2, 0.01, 0.5, 11),
         (0.7, -0.03, 2.0, 61), (0.35, 0.04, 1.0, 5)]


def _stack(n_modes):
    grid = TorusGrid(n_modes)
    fields = [random_initial_data(grid, theta, seed) for _, _, theta, seed in _ROWS]
    ops = [OperatorSymbols.build(grid, tau) for _, tau, _, _ in _ROWS]
    return grid, fields, ops


@pytest.mark.parametrize("n_modes", [6, 16, 128, 1024])
@pytest.mark.parametrize("name", list(_MAPS))
def test_mixed_stack_equals_one_row_calls(name, n_modes):
    step, prepared, config = _MAPS[name]
    grid, fields, ops = _stack(n_modes)
    eps = tuple(e for e, _, _, _ in _ROWS)
    stacked = OperatorSymbols.stack(ops)
    c = np.stack([w.coeffs for w in fields])
    out, iters = getattr(prepared(eps, stacked, 1e-12, 100), name.removesuffix("_conj"))(c)
    # the rows converge at different counts, so rows leave the stack early
    assert len(set(iters)) > 1
    for r, (w, o) in enumerate(zip(fields, ops)):
        lone, lone_iters = step(w, config(eps[r], o.tau), o)
        assert out[r].tobytes() == lone.coeffs.tobytes()
        assert iters[r] == lone_iters


@pytest.mark.parametrize("name", list(_MAPS))
def test_stalled_row_is_named(name):
    _, prepared, _ = _MAPS[name]
    grid, fields, ops = _stack(16)
    c = np.stack([w.coeffs for w in fields])
    c[3] *= 200.0  # row 3 leaves the contraction regime
    stacked = OperatorSymbols.stack(ops)
    eps = tuple(e for e, _, _, _ in _ROWS)
    with pytest.raises(FixedPointError) as info:
        getattr(prepared(eps, stacked, 1e-12, 100), name.removesuffix("_conj"))(c)
    assert info.value.row == 3


@pytest.mark.parametrize("name", list(_MAPS))
def test_take_keeps_at_most_16_masks(name):
    # a batch meets few masks; past 16 distinct ones the cache starts over,
    # and a mask taken again steps as a map built fresh for its rows
    _, prepared, _ = _MAPS[name]
    grid, fields, ops = _stack(16)
    eps = tuple(e for e, _, _, _ in _ROWS)
    full = prepared(eps, OperatorSymbols.stack(ops), 1e-12, 100)
    masks = [np.array([(m >> r) & 1 for r in range(len(_ROWS))], dtype=bool)
             for m in range(1, 21)]
    taken = []
    for keep in masks:
        taken.append(full.take(keep))
        assert len(full._taken) <= 16
    keep = masks[10]  # rows 0, 1 and 3, dropped when the cache started over
    again = full.take(keep)
    assert again is not taken[10]
    fresh = prepared(tuple(e for e, k in zip(eps, keep) if k),
                     OperatorSymbols.stack([o for o, k in zip(ops, keep) if k]), 1e-12, 100)
    c = np.stack([w.coeffs for w, k in zip(fields, keep) if k])
    scheme = name.removesuffix("_conj")
    out, iters = getattr(again, scheme)(c)
    want, want_iters = getattr(fresh, scheme)(c)
    assert out.tobytes() == want.tobytes()
    assert iters == want_iters


def test_stack_and_take_keep_each_rows_symbols():
    grid = TorusGrid(8)
    ops = [OperatorSymbols.build(grid, tau) for tau in (0.1, -0.05, 0.2)]
    stacked = OperatorSymbols.stack(ops)
    assert stacked.tau == (0.1, -0.05, 0.2)
    assert stacked.prop.shape == (3, 8)
    first_two = stacked.take(slice(2))
    assert first_two.tau == (0.1, -0.05)
    last = stacked.take(np.array([False, False, True]))
    assert last.tau == (0.2,)
    for name in OperatorSymbols._ARRAYS:
        assert np.array_equal(getattr(last, name)[0], getattr(ops[2], name))
