"""Prepared symmetric maps on a (B, N) stack: stalls, narrowed maps and stacked symbols.

That each row of a stack, with its own eps, step and symbols, steps bit for
bit as it does alone is ``selftest``'s batched-map check.
"""
import numpy as np
import pytest

from lowreg_nlse.cubic import _NonresonantMap
from lowreg_nlse.quadratic import FixedPointError, _ModSquareMap, _SquareMap
from lowreg_nlse.spectral import OperatorSymbols, TorusGrid, random_initial_data

# map name: its map class
_MAPS = {"sli2": _SquareMap, "sli2_conj": _ModSquareMap, "nrsli2": _NonresonantMap}

# (eps, step, theta, seed) of each row: mixed strengths, both step signs
_ROWS = [(0.5, 0.05, 1.0, 3), (0.9, -0.02, 1.5, 267), (0.2, 0.01, 0.5, 11),
         (0.7, -0.03, 2.0, 61), (0.35, 0.04, 1.0, 5)]


def _stack(n_modes):
    grid = TorusGrid(n_modes)
    fields = [random_initial_data(grid, theta, seed) for _, _, theta, seed in _ROWS]
    ops = [OperatorSymbols.build(grid, tau) for _, tau, _, _ in _ROWS]
    return grid, fields, ops


@pytest.mark.parametrize("name", list(_MAPS))
def test_stalled_row_is_named(name):
    prepared = _MAPS[name]
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
    prepared = _MAPS[name]
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
