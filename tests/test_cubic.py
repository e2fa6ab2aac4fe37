"""Tests for the cubic-equation steppers: oracles, resonance structure, symmetry."""

import numpy as np
import pytest

from lowreg_nlse.cubic import (
    CubicScheme,
    CubicSchemeConfig,
    _NonresonantMap,
    g_zero_mode,
    h_field,
    nrli1_step,
    nrsli2_step_info,
    os18_step,
    strang_step,
)
from lowreg_nlse.oracles import (
    band_limit,
    cubic_nrli1_oracle_step,
    euler_zero_mode_cubic,
    rk4_reference_step,
    rotation_zero_mode_cubic,
    trapezoid_zero_mode_cubic,
)
from lowreg_nlse.quadratic import FixedPointError
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


def _cfg(eps, tau, scheme=CubicScheme.NRLI1, **kw):
    return CubicSchemeConfig(eps=eps, tau=tau, scheme=scheme, **kw)


def _zero_mode_field(grid, c):
    coeffs = np.zeros(grid.n_modes, dtype=complex)
    coeffs[grid.n_modes // 2] = c
    return SpectralField(grid, coeffs)


def _diff_h1(a, b):
    return sobolev_norm(SpectralField(a.grid, a.coeffs - b.coeffs), 1.0)


# ---------------------------------------------------------------------------
# configuration and resonance bookkeeping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kw",
    [
        dict(eps=0.0, tau=0.1),
        dict(eps=2.0, tau=0.1),
        dict(eps=0.5, tau=0.0),
        dict(eps=0.5, tau=0.1, fp_tol=-1.0),
        dict(eps=0.5, tau=0.1, fp_max_iter=0),
    ],
)
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
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
                assert (defect == 0) == (l2 == l1 or l3 == l1) or (l - l2) * (
                    l - l3
                ) != 0


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
# oracle equivalence (triple sums, aliasing included)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [8, 12, 16])
def test_nrli1_matches_triple_sum_oracle(n):
    grid = TorusGrid(n)
    eps, tau = 0.5, 0.1
    ops = OperatorSymbols.build(grid, tau)
    cfg = _cfg(eps, tau)
    for seed in range(25):
        w = random_initial_data(grid, 0.0, seed)  # full band, wrap exercised
        got = nrli1_step(w, cfg, ops)
        want = cubic_nrli1_oracle_step(w, eps, tau)
        assert _diff_h1(got, want) <= 1e-10


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
# correction identity and scheme relations
# ---------------------------------------------------------------------------

def test_nrli1_minus_os18_is_displayed_correction():
    grid = TorusGrid(32)
    eps, tau = 0.5, 0.1
    ops = OperatorSymbols.build(grid, tau)
    cfg_n = _cfg(eps, tau, CubicScheme.NRLI1)
    cfg_o = _cfg(eps, tau, CubicScheme.OS18)
    for seed in range(50):
        w = random_initial_data(grid, 0.0, seed)
        diff = nrli1_step(w, cfg_n, ops).coeffs - os18_step(w, cfg_o, ops).coeffs
        g0 = g_zero_mode(w, ops)
        h = h_field(w, ops)
        want = (
            -2j * eps**2 * tau * g0 * (ops.prop * w.coeffs)
            + 1j * eps**2 * tau * (ops.prop * h.coeffs)
        )
        assert np.max(np.abs(diff - want)) <= 1e-13


def test_eps_squared_homogeneity():
    grid = TorusGrid(32)
    tau = 0.1
    ops = OperatorSymbols.build(grid, tau)
    w = random_initial_data(grid, 1.0, 4)
    drift = free_propagate(w, tau).coeffs
    for step, scheme in ((nrli1_step, CubicScheme.NRLI1), (os18_step, CubicScheme.OS18)):
        inc1 = step(w, _cfg(0.4, tau, scheme), ops).coeffs - drift
        inc2 = step(w, _cfg(0.8, tau, scheme), ops).coeffs - drift
        np.testing.assert_allclose(inc2, 4.0 * inc1, rtol=1e-12, atol=1e-16)


# ---------------------------------------------------------------------------
# zero-mode reductions
# ---------------------------------------------------------------------------

def test_explicit_schemes_on_constants_are_euler():
    grid = TorusGrid(8)
    eps, tau, c = 0.5, 0.1, 0.9 - 0.4j
    ops = OperatorSymbols.build(grid, tau)
    want = euler_zero_mode_cubic(c, eps, tau)
    for step, scheme in ((nrli1_step, CubicScheme.NRLI1), (os18_step, CubicScheme.OS18)):
        out = step(_zero_mode_field(grid, c), _cfg(eps, tau, scheme), ops)
        assert abs(out.coeffs[4] - want) < 1e-14
        assert np.max(np.abs(np.delete(out.coeffs, 4))) < 1e-14


def test_nrsli2_on_constants_is_trapezoid():
    grid = TorusGrid(8)
    eps, tau, c = 0.5, 0.1, 0.9 - 0.4j
    ops = OperatorSymbols.build(grid, tau)
    cfg = _cfg(eps, tau, CubicScheme.NRSLI2)
    out, _ = nrsli2_step_info(_zero_mode_field(grid, c), cfg, ops)
    want = trapezoid_zero_mode_cubic(c, eps, tau)
    assert abs(out.coeffs[4] - want) < 1e-12


def test_strang_on_constants_is_exact_rotation():
    grid = TorusGrid(8)
    eps, tau, c = 0.7, 0.25, -0.6 + 0.8j
    ops = OperatorSymbols.build(grid, tau)
    out = strang_step(_zero_mode_field(grid, c), _cfg(eps, tau, CubicScheme.STRANG), ops)
    assert abs(out.coeffs[4] - rotation_zero_mode_cubic(c, eps, tau)) < 1e-14


# ---------------------------------------------------------------------------
# time-reversal symmetry
# ---------------------------------------------------------------------------

def _round_trip(step, scheme, w, eps, tau, **kw):
    fwd = OperatorSymbols.build(w.grid, tau)
    bwd = OperatorSymbols.build(w.grid, -tau)
    mid = step(w, _cfg(eps, tau, scheme, **kw), fwd)
    return step(mid, _cfg(eps, -tau, scheme, **kw), bwd)


def test_nrsli2_symmetry_round_trip():
    grid = TorusGrid(32)
    eps, tau = 0.5, 0.05
    for seed in range(10):
        w = random_initial_data(grid, 1.0, seed)
        back = _round_trip(lambda *a: nrsli2_step_info(*a)[0], CubicScheme.NRSLI2, w, eps, tau)
        assert _diff_h1(back, w) <= 10 * 1e-12


@pytest.mark.parametrize(
    "step, scheme",
    [(nrli1_step, CubicScheme.NRLI1), (os18_step, CubicScheme.OS18)],
)
def test_first_order_schemes_are_not_symmetric(step, scheme):
    grid = TorusGrid(32)
    eps, tau = 0.5, 0.05
    w = random_initial_data(grid, 1.0, 5)
    back = _round_trip(step, scheme, w, eps, tau)
    assert _diff_h1(back, w) >= 1e-6


def test_full_step_gh_variant_is_not_symmetric():
    # keeping the full-step multiplier on both endpoints looks like the
    # obvious transcription of the two-endpoint relation, but it breaks
    # time-reversal at O(tau^2); the signed half-step multipliers are forced
    grid = TorusGrid(32)
    eps, tau = 0.5, 0.05
    w = random_initial_data(grid, 1.0, 5)
    fwd = OperatorSymbols.build(grid, tau)
    bwd = OperatorSymbols.build(grid, -tau)
    cfg_f = _cfg(eps, tau, CubicScheme.NRSLI2)
    cfg_b = _cfg(eps, -tau, CubicScheme.NRSLI2)

    def full_step_gh(v, cfg, ops):
        u, _ = _NonresonantMap((cfg.eps,), ops, cfg.fp_tol, cfg.fp_max_iter,
                               gh_half_step=False)(v.coeffs)
        return SpectralField(grid, u)

    mid = full_step_gh(w, cfg_f, fwd)
    back = full_step_gh(mid, cfg_b, bwd)
    assert _diff_h1(back, w) >= 1e-6


# ---------------------------------------------------------------------------
# Strang mass conservation
# ---------------------------------------------------------------------------

def test_strang_mass_per_step():
    grid = TorusGrid(32)
    ops = OperatorSymbols.build(grid, 0.05)
    cfg = _cfg(0.5, 0.05, CubicScheme.STRANG)
    for seed in range(10):
        w = random_initial_data(grid, 1.0, seed)
        out = strang_step(w, cfg, ops)
        assert sobolev_norm(out, 0.0) == pytest.approx(
            sobolev_norm(w, 0.0), rel=1e-12
        )


def test_strang_mass_long_run():
    grid = TorusGrid(32)
    tau = 0.01
    ops = OperatorSymbols.build(grid, tau)
    cfg = _cfg(0.5, tau, CubicScheme.STRANG)
    w = random_initial_data(grid, 1.0, 2)
    m0 = sobolev_norm(w, 0.0)
    for _ in range(10_000):
        w = strang_step(w, cfg, ops)
    assert abs(sobolev_norm(w, 0.0) - m0) <= 1e-9 * m0


# ---------------------------------------------------------------------------
# local consistency against the fine reference flow
# ---------------------------------------------------------------------------

def _local_slope(step_fn, n=32, k_band=4, amp=1.0, seed=6):
    taus = [0.1 * 2.0**-j for j in range(4, 11)]
    grid = TorusGrid(n)
    base = band_limit(random_initial_data(grid, 0.0, seed), k_band)
    w = SpectralField(grid, amp * base.coeffs)
    errs = []
    for tau in taus:
        got = step_fn(w, tau)
        ref = rk4_reference_step(w, 1.0, tau, "cubic", substeps=48)
        errs.append(_diff_h1(got, ref))
    slope, _ = np.polyfit(np.log(taus), np.log(errs), 1)
    return slope


def test_nrli1_local_slope():
    def step(w, tau):
        ops = OperatorSymbols.build(w.grid, tau)
        return nrli1_step(w, _cfg(1.0, tau, CubicScheme.NRLI1), ops)

    assert _local_slope(step) == pytest.approx(2.0, abs=0.1)


def test_os18_local_slope():
    def step(w, tau):
        ops = OperatorSymbols.build(w.grid, tau)
        return os18_step(w, _cfg(1.0, tau, CubicScheme.OS18), ops)

    assert _local_slope(step) == pytest.approx(2.0, abs=0.1)


def test_nrsli2_local_slope():
    def step(w, tau):
        ops = OperatorSymbols.build(w.grid, tau)
        cfg = _cfg(1.0, tau, CubicScheme.NRSLI2, fp_tol=1e-14)
        return nrsli2_step_info(w, cfg, ops)[0]

    assert _local_slope(step) == pytest.approx(3.0, abs=0.1)


def test_strang_local_slope():
    def step(w, tau):
        ops = OperatorSymbols.build(w.grid, tau)
        return strang_step(w, _cfg(1.0, tau, CubicScheme.STRANG), ops)

    assert _local_slope(step) == pytest.approx(3.0, abs=0.1)


# ---------------------------------------------------------------------------
# solver plumbing
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


def test_zero_field_fixed_by_all_schemes():
    grid = TorusGrid(8)
    ops = OperatorSymbols.build(grid, 0.1)
    z = SpectralField(grid, np.zeros(8, dtype=complex))
    assert np.all(nrli1_step(z, _cfg(0.5, 0.1), ops).coeffs == 0)
    assert np.all(os18_step(z, _cfg(0.5, 0.1, CubicScheme.OS18), ops).coeffs == 0)
    assert np.all(
        nrsli2_step_info(z, _cfg(0.5, 0.1, CubicScheme.NRSLI2), ops)[0].coeffs == 0
    )
    assert np.all(
        strang_step(z, _cfg(0.5, 0.1, CubicScheme.STRANG), ops).coeffs == 0
    )