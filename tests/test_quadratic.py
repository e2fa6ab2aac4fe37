"""Tests for the quadratic-equation maps and the one-field stepper layer over them.

The closed forms step through the engine's map (``selftest._step``).  The
local orders, Picard counts and stalls, zero fields and determinism of every
map are ``tests/test_prepared.py``'s, over the table ``_SCHEMES``; the tests
here of the public steppers check the layer that wraps the maps.  The
oracle, time-reversal and zero-mode checks are ``lowreg_nlse.selftest``'s,
which acceptance criteria 1, 4 and 9 run.
"""

import numpy as np
import pytest

from lowreg_nlse.harness import Equation, _norm_diff
from lowreg_nlse.oracles import quad_square_oracle_step
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
    free_propagate,
    random_initial_data,
)

def _cfg(eps, tau, nonlin=QuadNonlinearity.SQUARE, **kw):
    return QuadSchemeConfig(eps=eps, tau=tau, nonlinearity=nonlin, **kw)


def _li1(w, eps, ops):
    return _step(Equation.QUAD_SQUARE, "li1", w, eps, ops)[0]


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

# both configs run the one check of _StepConfig, and tests/test_cubic.py runs
# these cases through CubicSchemeConfig; the field at fault comes first
BAD_CONFIG_VALUES = [
    dict(eps=0.0, tau=0.1),
    dict(eps=1.5, tau=0.1),
    dict(eps=-0.2, tau=0.1),
    dict(tau=0.0, eps=0.5),
    dict(fp_tol=0.0, eps=0.5, tau=0.1),
    dict(fp_max_iter=0, eps=0.5, tau=0.1),
    dict(eps=2.0, tau=0.1),
    dict(fp_tol=-1.0, eps=0.5, tau=0.1),
    dict(fp_max_iter=2.5, eps=0.5, tau=0.1),
    dict(fp_max_iter=1.0, eps=0.5, tau=0.1),
]


@pytest.mark.parametrize("kw", BAD_CONFIG_VALUES)
def test_config_rejects_bad_values(kw):
    # the message begins with the field at fault, the first of kw
    with pytest.raises(ValueError, match=f"^{next(iter(kw))} "):
        QuadSchemeConfig(**kw)


def test_steppers_reject_mismatched_symbols():
    grid = TorusGrid(8)
    w = random_initial_data(grid, 1.0, 0)
    ops = OperatorSymbols.build(grid, 0.1)
    with pytest.raises(ValueError):
        li1_step(w, _cfg(0.5, 0.2), ops)  # tau mismatch
    with pytest.raises(ValueError):
        li1_step(w, _cfg(0.5, 0.1, QuadNonlinearity.MODULUS_SQUARE), ops)
    ops16 = OperatorSymbols.build(TorusGrid(16), 0.1)
    with pytest.raises(ValueError):
        li1_step(w, _cfg(0.5, 0.1), ops16)


# ---------------------------------------------------------------------------
# the double-sum oracle on supports it integrates exactly
# ---------------------------------------------------------------------------

def test_li1_exact_on_zero_product_supports():
    # fields living on {0, l]: every pair hits a zero set or a single
    # oscillation, both integrated exactly, so the step IS the frozen-v flow
    grid = TorusGrid(16)
    eps, tau = 0.8, 0.2
    ops = OperatorSymbols.build(grid, tau)
    for l in (1, 2, 3, -3):
        coeffs = np.zeros(16, dtype=complex)
        coeffs[8] = 0.7 - 0.3j
        coeffs[8 + l] = -0.4 + 1.1j
        w = SpectralField(grid, coeffs)
        want = quad_square_oracle_step(w, eps, tau)
        assert _norm_diff(_li1(w, eps, ops), want, 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# frozen analytic examples
# ---------------------------------------------------------------------------

def test_li1_single_mode_closed_form():
    grid = TorusGrid(8)
    eps, tau, a = 0.5, 0.3, 0.9 + 0.1j
    ops = OperatorSymbols.build(grid, tau)
    coeffs = np.zeros(8, dtype=complex)
    coeffs[4 + 1] = a
    out = _li1(SpectralField(grid, coeffs), eps, ops)
    want = np.zeros(8, dtype=complex)
    want[4 + 1] = a * np.exp(-1j * tau)
    want[4 + 2] = -(eps * a * a / 2.0) * (np.exp(-2j * tau) - np.exp(-4j * tau))
    np.testing.assert_allclose(out.coeffs, want, atol=1e-14)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_li1_increment_linear_in_eps():
    grid = TorusGrid(32)
    tau = 0.1
    ops = OperatorSymbols.build(grid, tau)
    w = random_initial_data(grid, 1.0, 9)
    drift = free_propagate(w, tau)
    inc1 = _li1(w, 0.3, ops).coeffs - drift.coeffs
    inc2 = _li1(w, 0.6, ops).coeffs - drift.coeffs
    np.testing.assert_allclose(inc2, 2.0 * inc1, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# the public steppers pass the map's zero, Picard count and stall through
# ---------------------------------------------------------------------------

def test_li1_zero_field():
    grid = TorusGrid(8)
    ops = OperatorSymbols.build(grid, 0.1)
    z = SpectralField(grid, np.zeros(8, dtype=complex))
    assert np.all(li1_step(z, _cfg(0.5, 0.1), ops).coeffs == 0)
    cfgc = _cfg(0.5, 0.1, QuadNonlinearity.MODULUS_SQUARE)
    assert np.all(li1_conj_step(z, cfgc, ops).coeffs == 0)
    assert np.all(sli2_step_info(z, _cfg(0.5, 0.1), ops)[0].coeffs == 0)
    assert np.all(sli2_conj_step_info(z, cfgc, ops)[0].coeffs == 0)


def test_sli2_reports_iteration_count():
    grid = TorusGrid(16)
    ops = OperatorSymbols.build(grid, 0.05)
    w = random_initial_data(grid, 1.0, 3)
    _, iters = sli2_step_info(w, _cfg(0.5, 0.05), ops)
    assert 1 <= iters <= 100
    _, iters_c = sli2_conj_step_info(
        w, _cfg(0.5, 0.05, QuadNonlinearity.MODULUS_SQUARE), ops
    )
    assert 1 <= iters_c <= 100


def test_sli2_divergence_raises():
    # far outside the contraction regime: huge amplitude, big step
    grid = TorusGrid(16)
    tau = 1.0
    ops = OperatorSymbols.build(grid, tau)
    w = SpectralField(grid, 50.0 * random_initial_data(grid, 0.0, 1).coeffs)
    with pytest.raises(FixedPointError) as exc:
        sli2_step_info(w, _cfg(1.0, tau, fp_max_iter=30), ops)
    assert exc.value.iterations <= 30
