"""Tests for the cubic-equation maps: resonance structure, g and h, scheme relations.

The scheme relations step through the engine's map (``selftest._step``).  The
local orders, Picard counts and stalls, zero fields and determinism of every
map are ``tests/test_prepared.py``'s, over the table ``_SCHEMES``; the tests
here of the public steppers check the layer that wraps the maps, on the
config cases of ``tests/test_quadratic.py``.  The oracle,
correction-identity, time-reversal and zero-mode checks are
``lowreg_nlse.selftest``'s, which acceptance criteria 2, 3, 4 and 9 run.
"""

import numpy as np
import pytest

from lowreg_nlse.cubic import (
    CubicScheme,
    CubicSchemeConfig,
    g_zero_mode,
    h_field,
    nrli1_step,
    nrsli2_step_info,
    strang_step,
)
from lowreg_nlse.harness import Equation
from lowreg_nlse.oracles import cubic_nrli1_oracle_step
from lowreg_nlse.quadratic import FixedPointError
from lowreg_nlse.selftest import _step
from lowreg_nlse.spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    coeffs_from_values,
    conjugate_coeffs,
    free_propagate,
    phi1,
    random_initial_data,
    sobolev_norm,
    values_from_coeffs,
)

from test_quadratic import BAD_CONFIG_VALUES


def _cfg(eps, tau, scheme=CubicScheme.NRLI1, **kw):
    return CubicSchemeConfig(eps=eps, tau=tau, scheme=scheme, **kw)


def _zero_mode_field(grid, c):
    coeffs = np.zeros(grid.n_modes, dtype=complex)
    coeffs[grid.n_modes // 2] = c
    return SpectralField(grid, coeffs)


# ---------------------------------------------------------------------------
# configuration and resonance bookkeeping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kw", BAD_CONFIG_VALUES)
def test_config_rejects_bad_values(kw):
    # the message begins with the field at fault, the first of kw
    with pytest.raises(ValueError, match=f"^{next(iter(kw))} "):
        CubicSchemeConfig(**kw)


def test_scheme_mismatch_rejected():
    grid = TorusGrid(8)
    ops = OperatorSymbols.build(grid, 0.1)
    w = random_initial_data(grid, 1.0, 0)
    with pytest.raises(ValueError):
        nrli1_step(w, _cfg(0.5, 0.1, CubicScheme.OS18), ops)
    with pytest.raises(ValueError):
        strang_step(w, _cfg(0.5, 0.1, CubicScheme.NRLI1), ops)


def test_resonance_identity_exhaustive():
    # phase defect factors through the resonant characterization, all |l_j| <= 8
    rng = range(-8, 9)
    for l1 in rng:
        for l2 in rng:
            for l3 in rng:
                l = -l1 + l2 + l3
                defect = l * l + l1 * l1 - l2 * l2 - l3 * l3
                assert defect == 2 * (l - l2) * (l - l3)
                # resonant <=> one unconjugated index equals the conjugated one
                assert (defect == 0) == (l2 == l1 or l3 == l1)


# ---------------------------------------------------------------------------
# auxiliary functions g and h
# ---------------------------------------------------------------------------

class TestAuxiliaryFunctions:
    def test_zero_and_constant_give_zero(self):
        grid = TorusGrid(16)
        ops = OperatorSymbols.build(grid, 0.1)
        zero = SpectralField(grid, np.zeros(16, dtype=complex))
        assert g_zero_mode(zero, ops) == 0
        assert np.all(h_field(zero, ops).coeffs == 0)
        const = _zero_mode_field(grid, 2.0 - 1.0j)
        assert abs(g_zero_mode(const, ops)) == 0.0
        assert np.max(np.abs(h_field(const, ops).coeffs)) == 0.0

    def test_single_mode_values(self):
        grid = TorusGrid(16)
        tau, l, a = 0.3, 3, 0.7 + 0.4j
        ops = OperatorSymbols.build(grid, tau)
        coeffs = np.zeros(16, dtype=complex)
        coeffs[8 + l] = a
        u = SpectralField(grid, coeffs)
        want = (1.0 - phi1(2j * tau * l * l)) * abs(a) ** 2
        assert abs(g_zero_mode(u, ops) - want) < 1e-14
        h = h_field(u, ops)
        assert abs(h.coeffs[8 + l] - want * a) < 1e-14
        assert np.max(np.abs(np.delete(h.coeffs, 8 + l))) == 0.0

    def test_reject_a_field_on_another_grid(self):
        ops = OperatorSymbols.build(TorusGrid(16), 0.1)
        u = random_initial_data(TorusGrid(8), 1.0, 0)
        with pytest.raises(ValueError, match="grid"):
            g_zero_mode(u, ops)
        with pytest.raises(ValueError, match="grid"):
            h_field(u, ops)

    def test_g_matches_grid_product_route(self):
        # mode-sum equals: conjugate on the grid, filter, multiply by u, mean
        grid = TorusGrid(32)
        ops = OperatorSymbols.build(grid, 0.17)
        for seed in range(5):
            u = random_initial_data(grid, 0.0, seed)
            filtered = ops.one_minus_phi1_2 * conjugate_coeffs(u.coeffs)
            prod = coeffs_from_values(
                values_from_coeffs(u.coeffs, grid)
                * values_from_coeffs(filtered, grid),
                grid,
            )
            want = prod[16]
            got = g_zero_mode(u, ops)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# the triple-sum oracle
# ---------------------------------------------------------------------------

def test_oracle_resonant_weight_is_tau():
    # two-mode data puts mass on resonant cells only after one step;
    # check directly that a resonant quadruple's weight in the oracle is tau:
    # for w supported on a single mode, the only contributing cells are
    # (l1,l1,l1) (resonant, weight tau) — so the update is Euler-like
    grid = TorusGrid(16)
    eps, tau, l, a = 0.6, 0.2, 3, 1.1 - 0.7j
    coeffs = np.zeros(16, dtype=complex)
    coeffs[8 + l] = a
    w = SpectralField(grid, coeffs)
    out = cubic_nrli1_oracle_step(w, eps, tau)
    want = (a - 1j * eps * eps * tau * abs(a) ** 2 * a) * np.exp(-1j * tau * l * l)
    assert abs(out.coeffs[8 + l] - want) < 1e-14


# ---------------------------------------------------------------------------
# scheme relations
# ---------------------------------------------------------------------------

def test_eps_squared_homogeneity():
    grid = TorusGrid(32)
    tau = 0.1
    ops = OperatorSymbols.build(grid, tau)
    w = random_initial_data(grid, 1.0, 4)
    drift = free_propagate(w, tau).coeffs
    for scheme in ("nrli1", "os18"):
        inc1 = _step(Equation.CUBIC, scheme, w, 0.4, ops)[0].coeffs - drift
        inc2 = _step(Equation.CUBIC, scheme, w, 0.8, ops)[0].coeffs - drift
        np.testing.assert_allclose(inc2, 4.0 * inc1, rtol=1e-12, atol=1e-16)


# ---------------------------------------------------------------------------
# Strang mass conservation
# ---------------------------------------------------------------------------

def test_strang_mass_per_step():
    grid = TorusGrid(32)
    ops = OperatorSymbols.build(grid, 0.05)
    for seed in range(10):
        w = random_initial_data(grid, 1.0, seed)
        out, _ = _step(Equation.CUBIC, "strang", w, 0.5, ops)
        assert sobolev_norm(out, 0.0) == pytest.approx(
            sobolev_norm(w, 0.0), rel=1e-12
        )


def test_strang_mass_long_run():
    grid = TorusGrid(32)
    tau = 0.01
    ops = OperatorSymbols.build(grid, tau)
    w = random_initial_data(grid, 1.0, 2)
    m0 = sobolev_norm(w, 0.0)
    for _ in range(10_000):
        w, _ = _step(Equation.CUBIC, "strang", w, 0.5, ops)
    assert abs(sobolev_norm(w, 0.0) - m0) <= 1e-9 * m0


# ---------------------------------------------------------------------------
# the public nrsli2 stepper passes the map's Picard count and stall through
# ---------------------------------------------------------------------------

def test_nrsli2_reports_iterations():
    grid = TorusGrid(16)
    ops = OperatorSymbols.build(grid, 0.05)
    w = random_initial_data(grid, 1.0, 1)
    _, iters = nrsli2_step_info(w, _cfg(0.5, 0.05, CubicScheme.NRSLI2), ops)
    assert 1 <= iters <= 100


def test_nrsli2_divergence_raises():
    grid = TorusGrid(16)
    tau = 1.0
    ops = OperatorSymbols.build(grid, tau)
    w = SpectralField(grid, 20.0 * random_initial_data(grid, 0.0, 1).coeffs)
    with pytest.raises(FixedPointError):
        nrsli2_step_info(w, _cfg(1.0, tau, CubicScheme.NRSLI2, fp_max_iter=25), ops)
