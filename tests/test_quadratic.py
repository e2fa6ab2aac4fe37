"""Tests for the quadratic-equation steppers: closed forms, local orders, solver plumbing.

The oracle, time-reversal and zero-mode checks are ``lowreg_nlse.selftest``'s,
which acceptance criteria 1, 4 and 9 run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowreg_nlse.oracles import (
    band_limit,
    quad_square_oracle_step,
    rk4_reference_step,
)
from lowreg_nlse.quadratic import (
    FixedPointError,
    QuadNonlinearity,
    QuadSchemeConfig,
    li1_conj_step,
    li1_step,
    sli2_conj_step_info,
    sli2_step_info,
)
from lowreg_nlse.spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    free_propagate,
    random_initial_data,
    sobolev_norm,
)

def _cfg(eps, tau, nonlin=QuadNonlinearity.SQUARE, **kw):
    return QuadSchemeConfig(eps=eps, tau=tau, nonlinearity=nonlin, **kw)


def _diff_h1(a: SpectralField, b: SpectralField) -> float:
    return sobolev_norm(SpectralField(a.grid, a.coeffs - b.coeffs), 1.0)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        dict(eps=0.0, tau=0.1),
        dict(eps=1.5, tau=0.1),
        dict(eps=-0.2, tau=0.1),
        dict(eps=0.5, tau=0.0),
        dict(eps=0.5, tau=0.1, fp_tol=0.0),
        dict(eps=0.5, tau=0.1, fp_max_iter=0),
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
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
    cfg = _cfg(eps, tau)
    for l in (1, 2, 3, -3):
        coeffs = np.zeros(16, dtype=complex)
        coeffs[8] = 0.7 - 0.3j
        coeffs[8 + l] = -0.4 + 1.1j
        w = SpectralField(grid, coeffs)
        want = quad_square_oracle_step(w, eps, tau)
        assert _diff_h1(li1_step(w, cfg, ops), want) <= 1e-12


# ---------------------------------------------------------------------------
# frozen analytic examples
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


def test_li1_single_mode_closed_form():
    grid = TorusGrid(8)
    eps, tau, a = 0.5, 0.3, 0.9 + 0.1j
    ops = OperatorSymbols.build(grid, tau)
    coeffs = np.zeros(8, dtype=complex)
    coeffs[4 + 1] = a
    out = li1_step(SpectralField(grid, coeffs), _cfg(eps, tau), ops)
    want = np.zeros(8, dtype=complex)
    want[4 + 1] = a * np.exp(-1j * tau)
    want[4 + 2] = -(eps * a * a / 2.0) * (np.exp(-2j * tau) - np.exp(-4j * tau))
    np.testing.assert_allclose(out.coeffs, want, atol=1e-14)


# ---------------------------------------------------------------------------
# consistency against a fine reference flow
# ---------------------------------------------------------------------------

def _local_error_slope(step_fn, equation, n=32, k_band=4, eps=0.5,
                       taus=None, seed=2):
    if taus is None:
        taus = [0.1 * 2.0**-j for j in range(6, 13)]
    grid = TorusGrid(n)
    w = band_limit(random_initial_data(grid, 0.0, seed), k_band)
    errs = []
    for tau in taus:
        got = step_fn(w, tau)
        ref = rk4_reference_step(w, eps, tau, equation, substeps=32)
        errs.append(_diff_h1(got, ref))
    slope, _ = np.polyfit(np.log(taus), np.log(errs), 1)
    return slope


def test_li1_local_error_second_order():
    eps = 0.5

    def step(w, tau):
        return li1_step(w, _cfg(eps, tau), OperatorSymbols.build(w.grid, tau))

    slope = _local_error_slope(step, "quad-square", eps=eps)
    assert slope >= 1.9


def test_li1_conj_local_error_second_order():
    eps = 0.5

    def step(w, tau):
        cfg = _cfg(eps, tau, QuadNonlinearity.MODULUS_SQUARE)
        return li1_conj_step(w, cfg, OperatorSymbols.build(w.grid, tau))

    slope = _local_error_slope(step, "quad-modsq", eps=eps)
    assert slope >= 1.9


def test_sli2_local_error_third_order():
    eps = 0.5
    taus = [0.1 * 2.0**-j for j in range(4, 9)]

    def step(w, tau):
        cfg = _cfg(eps, tau, fp_tol=1e-14)
        return sli2_step_info(w, cfg, OperatorSymbols.build(w.grid, tau))[0]

    slope = _local_error_slope(step, "quad-square", eps=eps, taus=taus)
    assert 2.6 <= slope <= 3.4


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_li1_increment_linear_in_eps():
    grid = TorusGrid(32)
    tau = 0.1
    ops = OperatorSymbols.build(grid, tau)
    w = random_initial_data(grid, 1.0, 9)
    drift = free_propagate(w, tau)
    inc1 = li1_step(w, _cfg(0.3, tau), ops).coeffs - drift.coeffs
    inc2 = li1_step(w, _cfg(0.6, tau), ops).coeffs - drift.coeffs
    np.testing.assert_allclose(inc2, 2.0 * inc1, rtol=1e-12, atol=1e-15)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_li1_deterministic_and_input_unmodified(seed):
    grid = TorusGrid(16)
    ops = OperatorSymbols.build(grid, 0.1)
    cfg = _cfg(0.5, 0.1)
    w = random_initial_data(grid, 1.0, seed)
    snapshot = w.coeffs.copy()
    a = li1_step(w, cfg, ops)
    b = li1_step(w, cfg, ops)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    np.testing.assert_array_equal(w.coeffs, snapshot)


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
