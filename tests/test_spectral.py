"""Tests for the spectral core: transforms, symbols, norms, random data, serialization."""

import ast
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lowreg_nlse
from lowreg_nlse import spectral
from lowreg_nlse.spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    coeffs_from_values,
    conjugate_coeffs,
    field_from_text,
    field_to_text,
    forward_transform,
    free_propagate,
    inverse_transform,
    phi1,
    random_initial_data,
    sobolev_norm,
    sobolev_norms,
    sobolev_weights,
    values_from_coeffs,
    _SERIES_CUTOFF,
    _SplitMix64,
)
from lowreg_nlse.quadratic import _Stage


def _random_field(grid: TorusGrid, rng: np.random.Generator) -> SpectralField:
    c = rng.standard_normal(grid.n_modes) + 1j * rng.standard_normal(grid.n_modes)
    return SpectralField(grid, c)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def test_grid_basic():
    grid = TorusGrid(8)
    assert grid.n_modes == 8
    np.testing.assert_array_equal(grid.wavenumbers, np.arange(-4, 4))
    assert grid.points[0] == pytest.approx(-np.pi)
    assert grid.points[1] - grid.points[0] == pytest.approx(2 * np.pi / 8)
    assert len(grid.points) == 8


@pytest.mark.parametrize("bad", [0, -8, 3, 7, 2, 15])
def test_grid_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        TorusGrid(bad)


def test_grid_accepts_non_power_of_two_even():
    # FFT sizes need not be powers of two; the oracles exercise N = 12
    grid = TorusGrid(12)
    f = forward_transform(np.exp(1j * 2 * grid.points), grid)
    expected = (grid.wavenumbers == 2).astype(complex)
    assert np.max(np.abs(f.coeffs - expected)) < 1e-14


def test_grid_immutable():
    grid = TorusGrid(16)
    with pytest.raises(Exception):
        grid.n_modes = 32
    with pytest.raises(ValueError):
        grid.wavenumbers[0] = 99


def test_field_validation():
    grid = TorusGrid(8)
    with pytest.raises(ValueError):
        SpectralField(grid, np.zeros(7, dtype=complex))
    f = SpectralField(grid, np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        f.coeffs[0] = 2.0  # frozen array


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_forward_zero_and_constant():
    grid = TorusGrid(8)
    z = forward_transform(np.zeros(8, dtype=complex), grid)
    assert np.all(z.coeffs == 0)

    c = 2.5 - 0.5j
    f = forward_transform(np.full(8, c), grid)
    n0 = grid.n_modes // 2
    assert f.coeffs[n0] == pytest.approx(c, abs=1e-15)
    others = np.delete(f.coeffs, n0)
    assert np.max(np.abs(others)) < 1e-15


def test_forward_single_mode_n8():
    # samples e^{i x_j} -> unit coefficient at l = 1, nothing elsewhere
    grid = TorusGrid(8)
    f = forward_transform(np.exp(1j * grid.points), grid)
    expected = (grid.wavenumbers == 1).astype(complex)
    assert np.max(np.abs(f.coeffs - expected)) < 1e-15


def test_forward_length_mismatch():
    grid = TorusGrid(8)
    with pytest.raises(ValueError):
        forward_transform(np.zeros(16, dtype=complex), grid)


def test_inverse_of_delta_is_complex_exponential():
    grid = TorusGrid(16)
    for l in (-8, -3, 0, 5, 7):
        coeffs = np.zeros(16, dtype=complex)
        coeffs[l + 8] = 1.0
        vals = inverse_transform(SpectralField(grid, coeffs))
        np.testing.assert_allclose(vals, np.exp(1j * l * grid.points), atol=1e-13)


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_round_trip_many_fields(n):
    rng = np.random.default_rng(101 + n)
    grid = TorusGrid(n)
    for _ in range(25):
        f = _random_field(grid, rng)
        back = forward_transform(inverse_transform(f), grid)
        err = np.linalg.norm(back.coeffs - f.coeffs)
        assert err <= 1e-12 * np.linalg.norm(f.coeffs)


def _fftshift_coeffs_from_values(values, grid):
    # the np.fft.fftshift formulation the transforms are checked against
    return grid._grid_phase * np.fft.fftshift(np.fft.fft(values)) / grid.n_modes


def _fftshift_values_from_coeffs(coeffs, grid):
    return np.fft.ifft(np.fft.ifftshift(coeffs * grid._grid_phase)) * grid.n_modes


@pytest.mark.parametrize("n", [4, 6, 16, 96, 128, 1024])
def test_transform_pair_equals_fftshift_formula_bit_for_bit(n):
    rng = np.random.default_rng(500 + n)
    grid = TorusGrid(n)
    stack = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    vals = values_from_coeffs(stack, grid)
    back = coeffs_from_values(vals, grid)
    assert vals.shape == back.shape == (3, n)
    for row in range(3):
        want_vals = _fftshift_values_from_coeffs(stack[row], grid)
        want_back = _fftshift_coeffs_from_values(want_vals, grid)
        assert np.array_equal(values_from_coeffs(stack[row], grid), want_vals)
        assert np.array_equal(coeffs_from_values(want_vals, grid), want_back)
        assert np.array_equal(vals[row], want_vals)
        assert np.array_equal(back[row], want_back)


@pytest.mark.parametrize("n", [6, 96, 128, 1024])
def test_stage_shaped_stack_equals_lone_rows_and_fftshift_formula(n):
    # an (F, B, N) stack, the shape of a lockstep product stage, with and without out=
    rng = np.random.default_rng(600 + n)
    grid = TorusGrid(n)
    stack = rng.standard_normal((3, 2, n)) + 1j * rng.standard_normal((3, 2, n))
    out = np.empty_like(stack)
    assert values_from_coeffs(stack, grid, out=out) is out
    vals = values_from_coeffs(stack, grid)
    back = coeffs_from_values(vals, grid)
    assert out.tobytes() == vals.tobytes()
    assert back.shape == stack.shape
    for f in range(3):
        for b in range(2):
            want_vals = _fftshift_values_from_coeffs(stack[f, b], grid)
            want_back = _fftshift_coeffs_from_values(want_vals, grid)
            assert vals[f, b].tobytes() == values_from_coeffs(stack[f, b], grid).tobytes()
            assert back[f, b].tobytes() == coeffs_from_values(vals[f, b], grid).tobytes()
            assert vals[f, b].tobytes() == want_vals.tobytes()
            assert back[f, b].tobytes() == want_back.tobytes()


@pytest.mark.parametrize("n", [6, 16, 128])
def test_transform_pair_keeps_the_sign_of_exact_zeros(n):
    # a constant field has exactly zero parts; their signs are np.fft's too
    grid = TorusGrid(n)
    vals = np.full(n, 1.5 + 0.0j)
    coeffs = coeffs_from_values(vals, grid)
    assert coeffs.tobytes() == _fftshift_coeffs_from_values(vals, grid).tobytes()
    want_vals = _fftshift_values_from_coeffs(coeffs, grid)
    assert values_from_coeffs(coeffs, grid).tobytes() == want_vals.tobytes()


def test_transform_pair_calls_numpys_fft_kernels():
    # the gufuncs themselves, not np.fft's Python wrappers around them
    from numpy.fft import _pocketfft_umath

    assert spectral._fft is _pocketfft_umath.fft
    assert spectral._ifft is _pocketfft_umath.ifft


@pytest.mark.parametrize("n", [4, 6, 16, 128, 1024])
def test_cached_grid_arrays_are_exact(n):
    grid = TorusGrid(n)
    rng = np.random.default_rng(700 + n)
    # the pair multiplies by the float phase, which numpy casts to complex:
    # exact and signed zeros come out as in the np.fft formulation
    rows = np.empty((4, n), np.complex128)
    rows.real = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], (4, n))
    rows.imag = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5], (4, n))
    for row in rows:
        want = _fftshift_values_from_coeffs(row, grid)
        assert values_from_coeffs(row, grid).tobytes() == want.tobytes()
        want = _fftshift_coeffs_from_values(row, grid)
        assert coeffs_from_values(row, grid).tobytes() == want.tobytes()
    stack = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    flipped = np.conj(np.concatenate((stack[..., :1], stack[..., :0:-1]), axis=-1))
    assert conjugate_coeffs(stack).tobytes() == flipped.tobytes()
    out = np.empty_like(stack)
    assert conjugate_coeffs(stack, out=out) is out
    assert out.tobytes() == flipped.tobytes()
    assert values_from_coeffs(stack, grid, out=out) is out
    assert out.tobytes() == values_from_coeffs(stack, grid).tobytes()


# products of degree 2 and 3 in one stage: at power-of-two N the stage
# half-rolls the spectra of the first two and leaves the last two as they are
_MIXED_PRODUCTS = ((0, 0), (1, 2), (0, 0, 2), (2, 1, 0))


def _public_products(factors: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The spectra of _MIXED_PRODUCTS through the public pair, one row at a time."""
    out = np.empty((len(_MIXED_PRODUCTS),) + factors.shape[1:], dtype=np.complex128)
    for r, indices in enumerate(_MIXED_PRODUCTS):
        for b in np.ndindex(factors.shape[1:-1]):
            first, *rest = [values_from_coeffs(factors[(i,) + b], grid) for i in indices]
            prod = first
            for vals in rest:
                prod = prod * vals
            out[(r,) + b] = coeffs_from_values(prod, grid)
    return out


# every power of two from 4 to 4096 takes the relabel-free path, and 6, 12
# and 96, whose pocketfft plans have radix-3 passes, the public pair
@pytest.mark.parametrize("n", [6, 12, 96] + [2 ** k for k in range(2, 13)])
def test_batched_products_equal_one_at_a_time(n):
    rng = np.random.default_rng(900 + n)
    grid = TorusGrid(n)
    factors = rng.standard_normal((3, 2, n)) + 1j * rng.standard_normal((3, 2, n))
    stage = _Stage(len(factors), _MIXED_PRODUCTS, (2, n), grid)
    stage.factors[...] = factors
    batched = stage()
    assert batched.shape == (len(_MIXED_PRODUCTS), 2, n)
    assert batched.tobytes() == _public_products(factors, grid).tobytes()


@pytest.mark.parametrize("n", [16, 128])
def test_stage_on_sparse_data_equals_public_pair(n):
    # stack rows: the single modes -N/2, -1, 0 (a constant field), 1 and
    # N/2 - 1, then one mode in factor 0 beside zero rows in factors 1 and 2.
    # The values are equal, but some exact zeros of the odd-degree products
    # (rows 2 and 3) come out +0 where the public pair writes -0; numbered
    # (product, stack row, mode l, part), with numpy 2.4 they are
    #   N = 16:  (2, 3, 1, re), (2, 3, 5, im), (3, 1, -7, re), (3, 4, 1, re),
    #            (3, 5, -1, im)
    #   N = 128: (2, 3, -31, im), (3, 3, -61, re), (3, 5, -1, im)
    grid = TorusGrid(n)
    h = n // 2
    modes = (-h, -1, 0, 1, h - 1)
    factors = np.zeros((3, len(modes) + 1, n), dtype=np.complex128)
    for b, l in enumerate(modes):
        factors[:, b, h + l] = (1.0, 0.5 - 0.25j, 2j)
    factors[0, len(modes), h + 1] = 1.5
    stage = _Stage(len(factors), _MIXED_PRODUCTS, factors.shape[1:], grid)
    stage.factors[...] = factors
    assert np.array_equal(stage(), _public_products(factors, grid))


def test_parseval():
    rng = np.random.default_rng(7)
    grid = TorusGrid(64)
    f = _random_field(grid, rng)
    vals = inverse_transform(f)
    grid_energy = np.sum(np.abs(vals) ** 2) / grid.n_modes
    assert sobolev_norm(f, 0.0) ** 2 == pytest.approx(grid_energy, rel=1e-12)


def test_conjugate_field_matches_grid_conjugation():
    rng = np.random.default_rng(3)
    grid = TorusGrid(32)
    f = _random_field(grid, rng)
    direct = forward_transform(np.conj(inverse_transform(f)), grid)
    flipped = conjugate_coeffs(f.coeffs)
    np.testing.assert_allclose(flipped, direct.coeffs, atol=1e-13)
    # and the index-flip route is exactly an involution
    twice = conjugate_coeffs(conjugate_coeffs(f.coeffs))
    np.testing.assert_array_equal(twice, f.coeffs)


# ---------------------------------------------------------------------------
# free propagator
# ---------------------------------------------------------------------------

def test_free_propagate_identity_at_zero():
    rng = np.random.default_rng(11)
    f = _random_field(TorusGrid(16), rng)
    g = free_propagate(f, 0.0)
    np.testing.assert_array_equal(g.coeffs, f.coeffs)


def test_free_propagate_single_mode_pi():
    grid = TorusGrid(8)
    coeffs = np.zeros(8, dtype=complex)
    coeffs[grid.n_modes // 2 + 1] = 1.0  # l = 1
    g = free_propagate(SpectralField(grid, coeffs), np.pi)
    assert g.coeffs[grid.n_modes // 2 + 1] == pytest.approx(-1.0, abs=1e-15)


@pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
def test_free_propagate_isometry(r):
    rng = np.random.default_rng(23)
    f = _random_field(TorusGrid(64), rng)
    for t in (0.3, -1.7, 250.0):
        assert sobolev_norm(free_propagate(f, t), r) == pytest.approx(
            sobolev_norm(f, r), rel=1e-12
        )


@given(
    s=st.floats(-50, 50, allow_nan=False),
    t=st.floats(-50, 50, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_free_propagate_group_property(s, t, seed):
    f = random_initial_data(TorusGrid(16), 1.0, seed)
    once = free_propagate(f, s + t)
    twice = free_propagate(free_propagate(f, s), t)
    assert np.max(np.abs(once.coeffs - twice.coeffs)) <= 1e-12


# ---------------------------------------------------------------------------
# antiderivative symbol inv_dx
# ---------------------------------------------------------------------------

def _inv_dx(grid: TorusGrid) -> np.ndarray:
    return OperatorSymbols.build(grid, 0.1).inv_dx


def test_antiderivative_kills_constants():
    grid = TorusGrid(8)
    coeffs = np.zeros(8, dtype=complex)
    coeffs[grid.n_modes // 2] = 5.0
    out = coeffs * _inv_dx(grid)
    assert np.all(out == 0)


def test_antiderivative_single_mode():
    # e^{ix} -> -i e^{ix}
    grid = TorusGrid(8)
    coeffs = (grid.wavenumbers == 1).astype(complex)
    out = coeffs * _inv_dx(grid)
    assert out[grid.n_modes // 2 + 1] == pytest.approx(-1j, abs=1e-15)


def test_antiderivative_inverts_derivative_on_zero_mean():
    rng = np.random.default_rng(31)
    grid = TorusGrid(32)
    f = _random_field(grid, rng)
    c = f.coeffs.copy()
    c[grid.n_modes // 2] = 0.0  # zero-mean subspace
    f = SpectralField(grid, c)
    derived = SpectralField(grid, 1j * grid.wavenumbers * f.coeffs)
    back = derived.coeffs * _inv_dx(grid)
    np.testing.assert_allclose(back, f.coeffs, atol=1e-13)
    # both annihilate the zero mode
    assert back[grid.n_modes // 2] == 0


# ---------------------------------------------------------------------------
# phi1
# ---------------------------------------------------------------------------

class TestPhi1:
    def test_value_at_zero(self):
        assert phi1(0.0) == 1.0 + 0j

    def test_frozen_scalar(self):
        # phi1(0.8i) = (e^{0.8i} - 1) / (0.8i), evaluated independently
        want = 0.8966951136244035 + 0.37911661331604324j
        assert abs(phi1(0.8j) - want) < 1e-15

    def test_series_region_matches_expansion(self):
        z = 1e-8 + 1e-8j
        series = 1 + z / 2 + z * z / 6
        assert abs(phi1(z) - series) < 1e-15

    def test_switchover_continuity(self):
        # at |z| = cutoff the series branch agrees with the direct formula
        for ang in np.linspace(0, 2 * np.pi, 17):
            z = _SERIES_CUTOFF * np.exp(1j * ang)
            series = 1 + z / 2 + z * z / 6 + z**3 / 24
            direct = np.expm1(z) / z if z.real != 0 else (np.exp(z) - 1) / z
            assert abs(phi1(z) - series) < 1e-13
            assert abs(phi1(z) - direct) < 1e-13

    def test_identity_random_z(self):
        # z * phi1(z) = e^z - 1; Re z capped at 700 to keep e^z inside float64
        rng = np.random.default_rng(5)
        count = 0
        while count < 1000:
            z = rng.uniform(-1e3, 1e3) + 1j * rng.uniform(-1e3, 1e3)
            if abs(z) > 1e3 or z.real > 700:
                continue
            count += 1
            lhs = z * phi1(z)
            rhs = np.expm1(z.real) * np.cos(z.imag) - 2 * np.sin(z.imag / 2) ** 2 \
                + 1j * np.exp(z.real) * np.sin(z.imag)
            scale = max(abs(rhs), 1e-300)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_unimodular_argument_bound(self):
        # |phi1(ix)| <= 1 on the imaginary axis
        x = np.linspace(-1e4, 1e4, 20001)
        vals = phi1(1j * x)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-14

    def test_array_input(self):
        z = np.array([0.0, 0.8j, 1.0 + 1.0j, 1e-9j])
        out = phi1(z)
        assert out.shape == z.shape
        assert out[0] == 1.0 + 0j
        assert abs(out[1] - phi1(0.8j)) == 0.0


# ---------------------------------------------------------------------------
# Sobolev norm
# ---------------------------------------------------------------------------

def test_sobolev_norm_examples():
    grid = TorusGrid(8)
    zero = SpectralField(grid, np.zeros(8, dtype=complex))
    assert sobolev_norm(zero, 2.0) == 0.0

    const = np.zeros(8, dtype=complex)
    const[grid.n_modes // 2] = 3.0
    assert sobolev_norm(SpectralField(grid, const), 1.0) == pytest.approx(3.0)

    mode1 = (grid.wavenumbers == 1).astype(complex)
    assert sobolev_norm(SpectralField(grid, mode1), 1.0) == pytest.approx(2.0)


@pytest.mark.parametrize("n", [8, 96, 1024])
def test_sobolev_norm_with_cached_h1_weights_equals_direct_formula(n):
    grid = TorusGrid(n)
    f = random_initial_data(grid, 1.0, n)
    weights = (1.0 + np.abs(grid.wavenumbers)) ** 1.0
    direct = math.sqrt(float(np.sum((weights * np.abs(f.coeffs)) ** 2)))
    assert sobolev_norm(f, 1.0) == direct
    assert sobolev_weights(grid, 1) is sobolev_weights(grid, 1.0)
    assert np.array_equal(sobolev_weights(grid, 1.0), weights)
    # a (B, N) stack: each row's norm is that row's direct formula, bit for bit
    stack = np.stack([random_initial_data(grid, 1.0, n + b).coeffs for b in range(3)])
    rows = [math.sqrt(float(np.sum((weights * np.abs(c)) ** 2))) for c in stack]
    assert sobolev_norms(stack, grid, 1.0).tolist() == rows


def test_sobolev_norm_rejects_negative_order():
    grid = TorusGrid(8)
    f = SpectralField(grid, np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        sobolev_norm(f, -1.0)


@given(r=st.sampled_from([0.0, 0.5, 1.0, 2.0]), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_sobolev_norm_monotone_in_r(r, seed):
    f = random_initial_data(TorusGrid(16), 0.0, seed)
    assert sobolev_norm(f, r) <= sobolev_norm(f, r + 0.5) + 1e-12


# ---------------------------------------------------------------------------
# random initial data
# ---------------------------------------------------------------------------

def test_splitmix64_reference_stream():
    # published reference vector for seed 0
    g = _SplitMix64(0)
    assert [g.next_u64() for _ in range(4)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ]


def test_splitmix64_doubles_in_unit_interval():
    g = _SplitMix64(987654321)
    xs = [g.next_double() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in xs)


def test_random_initial_data_frozen_values():
    # stream contract: ascending l, real part drawn before imaginary part
    f = random_initial_data(TorusGrid(8), 0.0, 0)
    assert f.coeffs[0] == 0.8833108082136426 + 0.43152799704850997j
    assert f.coeffs[1] == 0.026433771592597743 + 0.9708819781538285j


@pytest.mark.parametrize("seed", [0, 267, 2**63 + 7, 2**64 - 1, -3, 2**70])
@pytest.mark.parametrize("n", [4, 6, 128, 1024])
@pytest.mark.parametrize("theta", [0.0, 1.0, 5.0])
def test_random_initial_data_is_the_scalar_stream(seed, n, theta):
    # the one-pass draws give the bytes of one next_double() per part
    grid = TorusGrid(n)
    rng = _SplitMix64(seed)
    expected = np.empty(n, dtype=np.complex128)
    for i in range(n):
        a = rng.next_double()
        b = rng.next_double()
        expected[i] = complex(a, b)
    bracket = np.where(grid.wavenumbers == 0, 1.0, np.abs(grid.wavenumbers)).astype(np.float64)
    expected *= bracket ** (-theta)
    assert random_initial_data(grid, theta, seed).coeffs.tobytes() == expected.tobytes()


def test_random_initial_data_deterministic():
    a = random_initial_data(TorusGrid(64), 2.0, 12345)
    b = random_initial_data(TorusGrid(64), 2.0, 12345)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    c = random_initial_data(TorusGrid(64), 2.0, 12346)
    assert np.any(c.coeffs != a.coeffs)


@given(theta=st.sampled_from([0.0, 1.0, 2.0, 3.5]), seed=st.integers(0, 2**40))
@settings(max_examples=40, deadline=None)
def test_random_initial_data_decay_envelope(theta, seed):
    grid = TorusGrid(16)
    f = random_initial_data(grid, theta, seed)
    bracket = np.where(grid.wavenumbers == 0, 1.0, np.abs(grid.wavenumbers))
    bound = np.sqrt(2.0) * bracket ** (-theta)
    assert np.all(np.abs(f.coeffs) <= bound + 1e-15)
    # parts land in [0, 1] after undoing the weight
    raw = f.coeffs * bracket**theta
    assert np.all((raw.real >= 0) & (raw.real <= 1))
    assert np.all((raw.imag >= 0) & (raw.imag <= 1))


def test_random_initial_data_rejects_negative_theta():
    with pytest.raises(ValueError):
        random_initial_data(TorusGrid(8), -0.5, 0)


# ---------------------------------------------------------------------------
# operator symbol table
# ---------------------------------------------------------------------------

class TestOperatorSymbols:
    def test_zero_mode_entries_exact(self):
        ops = OperatorSymbols.build(TorusGrid(32), 0.37)
        n0 = 16
        assert ops.prop[n0] == 1.0 + 0j
        assert ops.inv_dx[n0] == 0.0 + 0j
        assert ops.phi1_2[n0] == 1.0 + 0j
        assert ops.phi1_1[n0] == 1.0 + 0j
        assert ops.phi1_1c[n0] == 1.0 + 0j
        assert ops.one_minus_phi1_2[n0] == 0.0 + 0j

    def test_conjugate_propagator_is_exact_after_build_stack_and_take(self):
        grid = TorusGrid(16)
        built = [OperatorSymbols.build(grid, tau) for tau in (0.3, -0.05, 1.7)]
        stacked = OperatorSymbols.stack(built)
        for ops in built + [stacked, stacked.take(slice(2)),
                            stacked.take(np.array([True, False, True]))]:
            assert ops.prop_conj.tobytes() == np.conj(ops.prop).tobytes()

    def test_half_step_propagator(self):
        grid = TorusGrid(16)
        ops = OperatorSymbols.build(grid, 0.3)
        lsq = (grid.wavenumbers * grid.wavenumbers).astype(np.float64)
        assert np.array_equal(ops.prop_half, np.exp(-0.5j * 0.3 * lsq))

    def test_propagator_unimodular(self):
        ops = OperatorSymbols.build(TorusGrid(64), -2.1)
        np.testing.assert_allclose(np.abs(ops.prop), 1.0, atol=1e-14)

    def test_inv_dx_antisymmetric(self):
        grid = TorusGrid(16)
        ops = OperatorSymbols.build(grid, 0.05)
        k = grid.wavenumbers
        for l in range(1, 8):
            assert ops.inv_dx[l + 8] == -ops.inv_dx[-l + 8]
        assert ops.inv_dx[8 + 3] == pytest.approx(1 / (3j))
        assert k[8 + 3] == 3

    def test_phi1_symbols_match_scalar(self):
        grid = TorusGrid(16)
        tau = 0.1
        ops = OperatorSymbols.build(grid, tau)
        l = 2
        idx = 8 + l
        assert ops.phi1_2[idx] == phi1(2j * tau * l * l)
        assert ops.phi1_1[idx] == phi1(1j * tau * l * l)
        assert ops.phi1_1c[idx] == phi1(-1j * tau * l * l)
        assert ops.one_minus_phi1_2[idx] == 1.0 - ops.phi1_2[idx]

    def test_phi1_symbols_bounded(self):
        ops = OperatorSymbols.build(TorusGrid(256), 3.3)
        for arr in (ops.phi1_2, ops.phi1_1, ops.phi1_1c):
            assert np.max(np.abs(arr)) <= 1.0 + 1e-14


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_field_text_round_trip_exact():
    f = random_initial_data(TorusGrid(32), 1.5, 77)
    back = field_from_text(field_to_text(f))
    assert back.grid.n_modes == 32
    np.testing.assert_array_equal(back.coeffs, f.coeffs)


def test_field_text_format_shape():
    f = random_initial_data(TorusGrid(8), 0.0, 0)
    lines = field_to_text(f).splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("-4,")
    l, re, im = lines[0].split(",")
    assert int(l) == -4
    assert float(re) == f.coeffs[0].real


def test_field_from_text_rejects_garbled_order():
    f = random_initial_data(TorusGrid(8), 0.0, 1)
    lines = field_to_text(f).splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    with pytest.raises(ValueError):
        field_from_text("\n".join(lines) + "\n")


@given(seed=st.integers(0, 2**50), theta=st.sampled_from([0.0, 2.0]))
@settings(max_examples=25, deadline=None)
def test_field_text_round_trip_property(seed, theta):
    f = random_initial_data(TorusGrid(16), theta, seed)
    back = field_from_text(field_to_text(f))
    np.testing.assert_array_equal(back.coeffs, f.coeffs)


# ---------------------------------------------------------------------------
# public names
# ---------------------------------------------------------------------------

def test_every_exported_name_resolves():
    # the package's __all__ and that of each of its modules
    names = ["lowreg_nlse"] + [f"lowreg_nlse.{m.name}"
                               for m in pkgutil.iter_modules(lowreg_nlse.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []


def test_no_module_imports_a_name_it_does_not_use():
    # a module-level import must be read or named by a string constant, as
    # the package's __all__ names the exports it imports
    unused = []
    for path in sorted(Path(lowreg_nlse.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.split(".")[0]
                    for node in tree.body
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        strings = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        unused += [f"{path.stem}.{name}" for name in imported if name not in read | strings]
    assert unused == []


def test_every_module_function_and_class_is_named_somewhere():
    # a module-level def or class of the package must be named in src, tests
    # or perfbench (as a name, an attribute, an import or a string constant),
    # so a helper whose last caller was deleted does not stay behind; a
    # dunder such as the package's __getattr__ is called by the language
    root = Path(__file__).resolve().parents[1]
    named = set()
    for path in [*root.glob("src/lowreg_nlse/*.py"), *root.glob("tests/*.py"),
                 *root.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    defined = [f"{path.stem}.{node.name}"
               for path in sorted(root.glob("src/lowreg_nlse/*.py"))
               for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("__")]
    assert len(defined) > 100
    assert [name for name in defined if name.split(".")[1] not in named] == []
