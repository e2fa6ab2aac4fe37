"""One-step integrators for the cubic Schrodinger equation on the torus.

The two non-resonant low-regularity maps split the cubic interaction into its
resonant part (integrated exactly — this is what distinguishes them from the
plain resonance-based scheme) and a non-resonant part handled through a
phi1-filtered product.  Baselines: the unfiltered resonance-based first-order
map (``os18_step``) and Strang splitting.  The step contract is the quadratic
one: the explicit maps return the new field, ``nrsli2_step_info`` returns it
with its Picard iteration count.

Auxiliary functions: ``g_zero_mode`` and ``h_field`` carry the resonant-part
bookkeeping.  Both are diagonal constructions in Fourier space; the zero mode
of g is the plain weighted sum over modes, which agrees exactly (including the
wrap-around cell of the pseudo-spectral product) with forming the product on
the grid and taking the mean.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spectral import (
    OperatorSymbols,
    SpectralField,
    _check_grid,
    coeffs_from_values,
    conjugate_coeffs,
    values_from_coeffs,
)
from .quadratic import (
    _Map,
    _StepConfig,
    _check,
    _picard,
    _prepared,
)

__all__ = [
    "CubicScheme",
    "CubicSchemeConfig",
    "g_zero_mode",
    "h_field",
    "nrli1_step",
    "os18_step",
    "nrsli2_step_info",
    "strang_step",
]


class CubicScheme(Enum):
    NRLI1 = "nrli1"
    NRSLI2 = "nrsli2"
    OS18 = "os18"
    STRANG = "strang"


@dataclass(frozen=True)
class CubicSchemeConfig(_StepConfig):
    """Parameters for one cubic-equation step (negative tau allowed, see quadratic)."""

    eps: float
    tau: float
    scheme: CubicScheme = CubicScheme.NRLI1
    fp_tol: float = 1e-12
    fp_max_iter: int = 100


# ---------------------------------------------------------------------------
# auxiliary functions
# ---------------------------------------------------------------------------

def g_zero_mode(u: SpectralField, ops: OperatorSymbols) -> complex:
    """Zeroth coefficient of u * ((1 - phi1(-2 i tau dxx)) conj u).

    Equals sum_m (1 - phi1(2 i tau m^2)) |u_m|^2: the product's mean picks up
    exactly the diagonal pairs, and the wrap-around pair of the grid product
    is the diagonal Nyquist cell, already counted.
    """
    _check_grid(u, ops.grid)
    return complex(np.sum(ops.one_minus_phi1_2 * np.abs(u.coeffs) ** 2))


def h_field(u: SpectralField, ops: OperatorSymbols) -> SpectralField:
    """Diagonal cubic resonance correction: h_l = (1 - phi1(2 i l^2 tau)) |u_l|^2 u_l."""
    _check_grid(u, ops.grid)
    c = u.coeffs
    return SpectralField(u.grid, ops.one_minus_phi1_2 * (np.abs(c) ** 2) * c)


# ---------------------------------------------------------------------------
# the prepared maps
#
# As in quadratic: explicit first-order maps are a product stage of c and a
# core, and nrsli2's explicit endpoint shares its stage, P c and |c|^2 with
# the nrli1 predictor.
# ---------------------------------------------------------------------------

class _NonresonantMap(_Map):
    """os18, nrli1, strang and nrsli2, with nrsli2's choice of g/h multipliers.

    Calling the map solves nrsli2's two-endpoint relation by Picard
    iteration.  Composing the half-step maps (forward half step, then an
    inverted backward half step) produces resonance corrections whose g/h
    multipliers carry the *signed half* arguments: 1 - phi1(+- i tau m^2)
    for the n / n+1 endpoints.  ``gh_half_step=False`` keeps the full-step
    multiplier 1 - phi1(2 i tau m^2) on both endpoints instead; that variant
    is retained because it is the naive transcription, and the time-reversal
    test shows it is not symmetric (see tests).
    """

    def __init__(self, eps: tuple, ops: OperatorSymbols, tol: float, max_iter: int,
                 gh_half_step: bool = True) -> None:
        super().__init__(eps, ops, tol, max_iter)
        self.gh_half_step = gh_half_step
        e, t = self.eps, self.tau
        q = self.each(lambda e: e * e, e)
        self.os18_factor = self.column(lambda e, t: 1j * t * e * e, e, t)
        self.g_factor = self.each(lambda e, t: 2j * e * e * t, e, t)
        self.h_factor = self.column(lambda e, t: 1j * e * e * t, e, t)
        self.half_tq = self.column(lambda t, q: 0.5j * t * q, t, q)
        self.half_qt = self.column(lambda q, t: 0.5j * q * t, q, t)
        self.rotation_factor = self.column(lambda e, t: -1j * t * e * e, e, t)
        self.prop_half = ops.prop_half
        self.phi1_2, self.phi1_1, self.phi1_1c = ops.phi1_2, ops.phi1_1, ops.phi1_1c
        self.one_minus_phi1_2 = ops.one_minus_phi1_2
        if gh_half_step:
            self.mult_n = 1.0 - ops.phi1_1  # 1 - phi1(+i tau m^2), forward endpoint
            self.mult_u = 1.0 - ops.phi1_1c  # 1 - phi1(-i tau m^2), backward endpoint
        else:
            self.mult_n = ops.one_minus_phi1_2
            self.mult_u = ops.one_minus_phi1_2
        self._one = self.new_stage(2, ((0, 0, 1),))
        self._two = self.new_stage(3, ((0, 0, 1), (0, 0, 2)))

    def _like(self, eps: tuple, ops: OperatorSymbols) -> "_NonresonantMap":
        return type(self)(eps, ops, self.tol, self.max_iter, self.gh_half_step)

    @staticmethod
    def _filtered(stage, c: np.ndarray, symbols: tuple) -> np.ndarray:
        """Spectra of c^2 (Phi conj c), one row per diagonal phi1 symbol Phi."""
        plain, *filtered = stage.rows
        plain[...] = c
        cc = conjugate_coeffs(c)
        for row, phi in zip(filtered, symbols):
            np.multiply(phi, cc, out=row)
        return stage()

    def _os18(self, c: np.ndarray, cubic: np.ndarray) -> np.ndarray:
        return self.prop * (c - self.os18_factor * cubic)

    def os18(self, c: np.ndarray) -> np.ndarray:
        [cubic] = self._filtered(self._one, c, (self.phi1_2,))
        return self._os18(c, cubic)

    def _nrli1(self, c: np.ndarray, cubic: np.ndarray, prop_c: np.ndarray,
               abs_sq: np.ndarray) -> np.ndarray:
        weighted = self.one_minus_phi1_2 * abs_sq
        g0 = weighted.sum(axis=-1).tolist()
        h = weighted * c
        return self._os18(c, cubic) \
            - self.column(lambda a, g: a * g, self.g_factor, g0) * prop_c \
            + self.h_factor * (self.prop * h)

    def nrli1(self, c: np.ndarray) -> np.ndarray:
        [cubic] = self._filtered(self._one, c, (self.phi1_2,))
        return self._nrli1(c, cubic, self.prop * c, np.abs(c) ** 2)

    def strang(self, c: np.ndarray) -> np.ndarray:
        """Half propagator, the pointwise rotation by -i tau eps^2 |u|^2, half propagator."""
        u = values_from_coeffs(self.prop_half * c, self.grid)
        u = u * np.exp(self.rotation_factor * (u.real**2 + u.imag**2))
        return self.prop_half * coeffs_from_values(u, self.grid)

    def __call__(self, c: np.ndarray) -> tuple[np.ndarray, list[int]]:
        cubic_2, cubic_n = self._filtered(self._two, c, (self.phi1_2, self.phi1_1))
        prop_c = self.prop * c
        abs_sq = np.abs(c) ** 2
        weighted_n = self.mult_n * abs_sq
        g0_n = weighted_n.sum(axis=-1).tolist()
        h_n = weighted_n * c
        explicit = self.prop * (c - self.half_tq * cubic_n) - self.half_qt \
            * (self.column(lambda g: 2.0 * g, g0_n) * prop_c - self.prop * h_n)
        return _picard(self, explicit, self._nrli1(c, cubic_2, prop_c, abs_sq))

    def apply(self, u: np.ndarray, explicit: np.ndarray) -> np.ndarray:
        """One Picard map of nrsli2: the explicit endpoint plus the terms of u."""
        [cubic_u] = self._filtered(self._one, u, (self.phi1_1c,))
        weighted_u = self.mult_u * np.abs(u) ** 2
        g0_u = weighted_u.sum(axis=-1).tolist()
        h_u = weighted_u * u
        return explicit - self.half_qt * cubic_u \
            - self.half_qt * (self.column(lambda g: 2.0 * g, g0_u) * u - h_u)


# ---------------------------------------------------------------------------
# explicit first-order maps
# ---------------------------------------------------------------------------

def os18_step(w: SpectralField, cfg: CubicSchemeConfig, ops: OperatorSymbols) -> SpectralField:
    """Resonance-based first-order baseline.

    w -> P [ w - i tau eps^2 w^2 (phi1(-2 i tau dxx) conj w) ]

    The whole resonant set rides inside the phi1-filtered product with the
    non-resonant weight; the two non-resonant maps below add the terms that
    restore the exact resonant integral.
    """
    _check(w, cfg, ops, CubicScheme.OS18)
    return SpectralField(w.grid, _prepared(_NonresonantMap, cfg, ops).os18(w.coeffs))


def nrli1_step(w: SpectralField, cfg: CubicSchemeConfig, ops: OperatorSymbols) -> SpectralField:
    """Non-resonant first-order map: exact zero-mode/resonant treatment.

    w -> P [ w - i tau eps^2 w^2 (phi1(-2 i tau dxx) conj w) ]
         - 2 i eps^2 tau g0(w) P w + i eps^2 tau P h(w)

    The g-term re-weights the two resonant branches (each unconjugated index
    matching the conjugated one) to exactly tau; the h-term removes the
    double-counted all-equal overlap.
    """
    _check(w, cfg, ops, CubicScheme.NRLI1)
    return SpectralField(w.grid, _prepared(_NonresonantMap, cfg, ops).nrli1(w.coeffs))


# ---------------------------------------------------------------------------
# implicit symmetric second-order map
# ---------------------------------------------------------------------------

def nrsli2_step_info(
    w: SpectralField, cfg: CubicSchemeConfig, ops: OperatorSymbols
) -> tuple[SpectralField, int]:
    """Non-resonant time-symmetric second-order map.

    Solves

    u = P [ w - (i tau eps^2 / 2) w^2 (phi1(-i tau dxx) conj w) ]
        - (i eps^2 tau / 2) u^2 (phi1(i tau dxx) conj u)
        - (i eps^2 tau / 2) [ 2 g0+(w) P w - P h+(w) + 2 g0-(u) u - h-(u) ]

    by Picard iteration from the first-order predictor, where g0+/h+ and
    g0-/h- carry the signed half-step multipliers 1 - phi1(+-i tau m^2), and
    returns u with the iteration count.  Stepping with tau then -tau returns
    the input to the iteration tolerance.
    """
    _check(w, cfg, ops, CubicScheme.NRSLI2)
    u, [iters] = _prepared(_NonresonantMap, cfg, ops)(w.coeffs)
    return SpectralField(w.grid, u), iters


# ---------------------------------------------------------------------------
# splitting baseline
# ---------------------------------------------------------------------------

def strang_step(w: SpectralField, cfg: CubicSchemeConfig, ops: OperatorSymbols) -> SpectralField:
    """Strang splitting: half kinetic, exact pointwise nonlinear flow, half kinetic.

    The nonlinear sub-flow of i w_t = eps^2 |w|^2 w conserves |w| pointwise,
    so it is the exact rotation w * exp(-i tau eps^2 |w|^2).  Mass is
    conserved to rounding.
    """
    _check(w, cfg, ops, CubicScheme.STRANG)
    return SpectralField(w.grid, _prepared(_NonresonantMap, cfg, ops).strang(w.coeffs))
