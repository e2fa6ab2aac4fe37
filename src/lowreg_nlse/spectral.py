"""Spectral core: discrete torus, transforms, Fourier multipliers, norms, random data.

Everything downstream (the integrators and the experiment harness) works on
``SpectralField`` objects, i.e. complex fields on the torus (-pi, pi) stored as
Fourier coefficients in ascending wavenumber order l = -N/2 .. N/2-1 under the
convention

    f_hat[l] = (1/N) * sum_j f(x_j) exp(-i l x_j),   x_j = -pi + 2 pi j / N,

so that f(x_j) = sum_l f_hat[l] exp(i l x_j) and the zero mode is the mean of
the field.  The free Schroedinger group exp(i t dxx) acts diagonally as
exp(-i t l^2).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import ClassVar, Sequence

import numpy as np
# numpy's pocketfft gufuncs, (m),()->(n) along the last axis: (a, fct, out)
# is the DFT of a times fct, written to out.  np.fft.fft and ifft call the
# same kernels after per-call checks; numpy 2.0 made them gufuncs.
from numpy.fft._pocketfft_umath import fft as _fft, ifft as _ifft

__all__ = [
    "TorusGrid",
    "SpectralField",
    "OperatorSymbols",
    "forward_transform",
    "inverse_transform",
    "free_propagate",
    "sobolev_norm",
    "phi1",
    "random_initial_data",
    "field_to_text",
    "field_from_text",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform collocation grid on (-pi, pi) with ``n_modes`` retained wavenumbers.

    ``n_modes`` must be even and >= 4 (powers of two transform fastest, but
    any even size is valid).  Collocation points are x_j = -pi + 2 pi j / N
    and the wavenumber set is {-N/2, ..., N/2 - 1}.
    """

    n_modes: int

    def __post_init__(self) -> None:
        n = self.n_modes
        if not isinstance(n, (int, np.integer)) or n < 4 or n % 2 != 0:
            raise ValueError(f"n_modes must be an even integer >= 4, got {n!r}")

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        k = np.arange(-self.n_modes // 2, self.n_modes // 2)
        k.setflags(write=False)
        return k

    @cached_property
    def points(self) -> np.ndarray:
        x = -np.pi + 2.0 * np.pi * np.arange(self.n_modes) / self.n_modes
        x.setflags(write=False)
        return x

    @cached_property
    def _grid_phase(self) -> np.ndarray:
        # (-1)^l, compensating the -pi origin offset relative to numpy's DFT
        s = np.where(self.wavenumbers % 2 == 0, 1.0, -1.0)
        s.setflags(write=False)
        return s

    @cached_property
    def _half_roll(self) -> np.ndarray:
        # take-index of fftshift and of ifftshift, which coincide for even N
        n = self.n_modes
        idx = (np.arange(n) + n // 2) % n
        idx.setflags(write=False)
        return idx

    @cached_property
    def _h1_weights(self) -> np.ndarray:
        w = 1.0 + np.abs(self.wavenumbers)
        w.setflags(write=False)
        return w


def coeffs_from_values(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """DFT of grid samples to ascending-l coefficients (array level).

    Transforms along the last axis, so a ``(..., N)`` stack of fields takes
    one call; each row comes out bit for bit as it would alone.
    """
    spectrum = _fft(values, 1.0, np.empty(values.shape, np.complex128))
    spectrum = spectrum.take(grid._half_roll, axis=-1)
    np.multiply(grid._grid_phase, spectrum, out=spectrum)
    spectrum /= grid.n_modes
    return spectrum


def values_from_coeffs(coeffs: np.ndarray, grid: TorusGrid,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Grid samples of the trigonometric interpolant (array level, last axis).

    ``out``, a complex array of the shape of ``coeffs``, receives the samples
    when given.  The pair calls numpy's FFT kernels with the factors
    ``np.fft`` passes them (1 forward, 1/N inverse), so its outputs are those
    of the ``np.fft`` formulation bit for bit.
    """
    shifted = (coeffs * grid._grid_phase).take(grid._half_roll, axis=-1)
    values = _ifft(shifted, 1.0 / grid.n_modes, shifted if out is None else out)
    values *= grid.n_modes
    return values


@lru_cache(maxsize=None)
def _negated_modes(n: int) -> np.ndarray:
    # take-index of the modes -l in ascending order; -N/2 maps to itself
    idx = -np.arange(n) % n
    idx.setflags(write=False)
    return idx


def conjugate_coeffs(coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Spectrum of the complex conjugate field: conj(f)_hat[l] = conj(f_hat[-l]).

    The l = -N/2 row maps to itself (N/2 and -N/2 coincide on the grid), which
    is exactly what pointwise conjugation in physical space produces.  Acts
    on the last axis of a ``(..., N)`` stack; ``out`` receives the result
    when given.
    """
    return np.conjugate(coeffs.take(_negated_modes(coeffs.shape[-1]), axis=-1), out=out)


@dataclass(frozen=True)
class SpectralField:
    """Complex field on a torus grid, stored as ascending-l Fourier coefficients."""

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.shape != (self.grid.n_modes,):
            raise ValueError(
                f"coeffs must have shape ({self.grid.n_modes},), got {arr.shape}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)


def _check_grid(field: SpectralField, grid: TorusGrid) -> None:
    """Reject a field that is not on ``grid``."""
    if field.grid != grid:
        raise ValueError(f"field on a grid of {field.grid.n_modes} modes, expected {grid.n_modes}")


def _check_nonnegative(name: str, value: float) -> None:
    """Reject a negative or nan ``value``; the message begins with ``name``."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def forward_transform(values: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Transform N complex samples at the collocation points to a SpectralField."""
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (grid.n_modes,):
        raise ValueError(
            f"expected {grid.n_modes} samples, got shape {values.shape}"
        )
    return SpectralField(grid, coeffs_from_values(values, grid))


def inverse_transform(field: SpectralField) -> np.ndarray:
    """Samples f(x_j) = sum_l f_hat[l] exp(i l x_j); inverse of forward_transform."""
    return values_from_coeffs(field.coeffs, field.grid)


def free_propagate(field: SpectralField, t: float) -> SpectralField:
    """Apply exp(i t dxx): multiply mode l by exp(-i t l^2)."""
    k = field.grid.wavenumbers
    return SpectralField(field.grid, field.coeffs * np.exp(-1j * t * (k * k)))


_SERIES_CUTOFF = 1e-6


def _expm1_complex(z: np.ndarray) -> np.ndarray:
    # exp(z) - 1 without cancellation for small |z|:
    # Re = expm1(a) cos b - 2 sin^2(b/2),  Im = exp(a) sin b,  z = a + i b
    a = z.real
    b = z.imag
    s = np.sin(0.5 * b)
    return (np.expm1(a) * np.cos(b) - 2.0 * s * s) + 1j * (np.exp(a) * np.sin(b))


def phi1(z):
    """phi1(z) = (exp(z) - 1)/z with phi1(0) = 1, stable near z = 0.

    Below |z| = 1e-6 the truncated series 1 + z/2 + z^2/6 + z^3/24 is used;
    elsewhere the direct quotient with an accurate complex expm1.  Accepts
    scalars or arrays.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    out = np.empty_like(z_arr)
    small = np.abs(z_arr) < _SERIES_CUTOFF
    zs = z_arr[small]
    out[small] = 1.0 + zs * (0.5 + zs * (1.0 / 6.0 + zs * (1.0 / 24.0)))
    zb = z_arr[~small]
    out[~small] = _expm1_complex(zb) / zb
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out[0])
    return out


def sobolev_weights(grid: TorusGrid, r: float) -> np.ndarray:
    """The H^r weights (1 + |l|)^r in ascending l order.

    For r = 1 this is the grid's cached array, which is read-only.
    """
    if r == 1.0:
        return grid._h1_weights
    return (1.0 + np.abs(grid.wavenumbers)) ** float(r)


def sobolev_norms(coeffs: np.ndarray, grid: TorusGrid, r: float) -> np.ndarray:
    """H^r norm sqrt(sum_l (1+|l|)^{2r} |f_hat[l]|^2) along the last axis.

    One coefficient row gives a scalar and a ``(B, N)`` stack one norm per
    row, each bit for bit the norm of that row alone.
    """
    a = np.abs(coeffs)
    a *= sobolev_weights(grid, r)
    np.square(a, out=a)
    # np.sqrt is correctly rounded, as math.sqrt is
    return np.sqrt(a.sum(axis=-1))


def sobolev_norm(field: SpectralField, r: float) -> float:
    """H^r norm of a field; r = 0 is the L2/Parseval norm."""
    _check_nonnegative("r", r)
    return float(sobolev_norms(field.coeffs, field.grid, r))


_U64 = (1 << 64) - 1


class _SplitMix64:
    """splitmix64 counter generator, one draw at a time.

    The scalar reference for the pinned initial-data stream, which
    ``_splitmix64_doubles`` draws whole.
    """

    def __init__(self, seed: int):
        self._state = int(seed) & _U64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        # 53 high bits -> uniform on [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53


def _splitmix64_doubles(seed: int, count: int) -> np.ndarray:
    """The first ``count`` doubles of ``_SplitMix64(seed)``, in one numpy pass.

    The k-th state is seed + k * 0x9E3779B97F4A7C15 (mod 2^64), and uint64
    array arithmetic wraps exactly, so every draw equals the scalar one.
    """
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(int(seed) & _U64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    # below 2^53, so the conversion and the power-of-two scale are exact
    return z.astype(np.float64) * 2.0**-53


def random_initial_data(grid: TorusGrid, theta: float, seed: int) -> SpectralField:
    """H^theta-rough random field: u_hat[l] = <l>^{-theta} (a + i b), a,b ~ U[0,1).

    <l> = |l| for l != 0 and <0> = 1.  The stream draws coefficients in
    ascending l, real part before imaginary part, from a splitmix64 generator
    seeded with ``seed`` — bit-identical across runs and platforms.
    """
    _check_nonnegative("theta", theta)
    k = grid.wavenumbers
    bracket = np.where(k == 0, 1.0, np.abs(k)).astype(np.float64)
    # draw 2i is mode i's real part and draw 2i+1 its imaginary part, which
    # is complex128's memory layout
    coeffs = _splitmix64_doubles(seed, 2 * grid.n_modes).view(np.complex128)
    coeffs *= bracket ** (-float(theta))
    return SpectralField(grid, coeffs)


def field_to_text(field: SpectralField) -> str:
    """Serialize as N lines "l,re,im" in ascending l with 18 significant digits."""
    lines = [
        f"{int(l)},{c.real:.17e},{c.imag:.17e}"
        for l, c in zip(field.grid.wavenumbers, field.coeffs)
    ]
    return "\n".join(lines) + "\n"


def field_from_text(text: str) -> SpectralField:
    """Parse the ``field_to_text`` format back into a SpectralField."""
    rows = [line for line in text.strip().splitlines() if line.strip()]
    n = len(rows)
    grid = TorusGrid(n)
    coeffs = np.empty(n, dtype=np.complex128)
    for i, line in enumerate(rows):
        l_str, re_str, im_str = line.split(",")
        if int(l_str) != grid.wavenumbers[i]:
            raise ValueError(
                f"wavenumber mismatch on line {i}: got {l_str}, "
                f"expected {grid.wavenumbers[i]}"
            )
        coeffs[i] = complex(float(re_str), float(im_str))
    return SpectralField(grid, coeffs)


@dataclass(frozen=True)
class OperatorSymbols:
    """Per-mode multipliers for a fixed time step tau.

    prop             exp(-i tau l^2)        — symbol of exp(i tau dxx)
    prop_conj        exp(+i tau l^2)        — conj(prop), symbol of exp(-i tau dxx)
    prop_half        exp(-i tau l^2 / 2)    — symbol of exp(i (tau/2) dxx)
    inv_dx           1/(i l), 0 at l = 0    — regularized antiderivative
    phi1_2           phi1(2 i tau l^2)      — symbol of phi1(-2 i tau dxx)
    phi1_1           phi1(i tau l^2)        — symbol of phi1(-i tau dxx)
    phi1_1c          phi1(-i tau l^2)       — symbol of phi1(i tau dxx)
    one_minus_phi1_2 1 - phi1(2 i tau l^2)

    :meth:`stack` puts the symbols of several steps into one instance whose
    arrays have a row per step, for the step maps prepared on a stack.
    ``_maps`` keeps the step maps prepared on one step's symbols (see
    ``quadratic._prepared``).
    """

    tau: float
    grid: TorusGrid
    prop: np.ndarray
    prop_conj: np.ndarray
    prop_half: np.ndarray
    inv_dx: np.ndarray
    phi1_2: np.ndarray
    phi1_1: np.ndarray
    phi1_1c: np.ndarray
    one_minus_phi1_2: np.ndarray
    _maps: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    _ARRAYS: ClassVar[tuple[str, ...]] = (
        "prop", "prop_conj", "prop_half", "inv_dx", "phi1_2", "phi1_1", "phi1_1c",
        "one_minus_phi1_2",
    )

    @classmethod
    def build(cls, grid: TorusGrid, tau: float) -> "OperatorSymbols":
        k = grid.wavenumbers
        lsq = (k * k).astype(np.float64)
        prop = np.exp(-1j * tau * lsq)
        # the regularized antiderivative: 1/(i l), zero at l = 0
        inv_dx = np.divide(1.0, 1j * k, out=np.zeros(grid.n_modes, np.complex128), where=k != 0)
        phi1_2 = phi1(2j * tau * lsq)
        phi1_1 = phi1(1j * tau * lsq)
        phi1_1c = phi1(-1j * tau * lsq)
        arrays = dict(
            prop=prop,
            prop_conj=np.conj(prop),
            prop_half=np.exp(-0.5j * tau * lsq),
            inv_dx=inv_dx,
            phi1_2=phi1_2,
            phi1_1=phi1_1,
            phi1_1c=phi1_1c,
            one_minus_phi1_2=1.0 - phi1_2,
        )
        for a in arrays.values():
            a.setflags(write=False)
        return cls(tau=float(tau), grid=grid, **arrays)

    @classmethod
    def stack(cls, rows: Sequence["OperatorSymbols"]) -> "OperatorSymbols":
        """The symbols of several steps on one grid, for a ``(B, N)`` stack.

        Row r of each array is that array of ``rows[r]``, and ``tau`` is the
        tuple of the rows' steps.
        """
        return cls(
            tau=tuple(ops.tau for ops in rows),
            grid=rows[0].grid,
            **{name: np.stack([getattr(ops, name) for ops in rows]) for name in cls._ARRAYS},
        )

    def take(self, rows) -> "OperatorSymbols":
        """The rows ``rows`` (a slice or a boolean mask) of stacked symbols, still stacked."""
        return type(self)(
            tau=tuple(np.asarray(self.tau)[rows].tolist()),
            grid=self.grid,
            **{name: getattr(self, name)[rows] for name in self._ARRAYS},
        )
