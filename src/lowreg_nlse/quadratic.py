"""One-step integrators for the quadratic Schrodinger equations on the torus.

Two nonlinearities (eps * w^2 and eps * |w|^2) with, for each, an explicit
first-order map and an implicit time-symmetric second-order map.  The schemes
work in the untwisted variable: each step is "exactly integrate the dominant
oscillatory interaction, form the remaining products pseudo-spectrally".  The
zeroth mode is treated exactly (its quadratic self-interaction carries no
oscillation and is integrated as the plain zero-mode ODE term).

Implicit steps are solved by Picard iteration with the explicit map as the
initial guess; non-convergence raises :class:`FixedPointError` carrying the
last residual so callers can diagnose step-size/amplitude combinations outside
the contraction regime.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    coeffs_from_values,
    conjugate_coeffs,
    sobolev_weights,
    values_from_coeffs,
)

__all__ = [
    "QuadNonlinearity",
    "QuadSchemeConfig",
    "FixedPointError",
    "li1_step",
    "li1_conj_step",
    "sli2_step",
    "sli2_conj_step",
    "sli2_step_info",
    "sli2_conj_step_info",
]


class QuadNonlinearity(Enum):
    SQUARE = "square"
    MODULUS_SQUARE = "modulus_square"


@dataclass(frozen=True)
class QuadSchemeConfig:
    """Parameters for one quadratic-equation step.

    ``tau`` may be negative: the symmetric schemes are exercised backwards in
    the time-reversal tests, and the maps are well-defined for either sign.
    """

    eps: float
    tau: float
    nonlinearity: QuadNonlinearity = QuadNonlinearity.SQUARE
    fp_tol: float = 1e-12
    fp_max_iter: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {self.eps}")
        if self.tau == 0.0:
            raise ValueError("tau must be nonzero")
        if self.fp_tol <= 0.0:
            raise ValueError("fp_tol must be positive")
        if self.fp_max_iter < 1:
            raise ValueError("fp_max_iter must be at least 1")


class FixedPointError(RuntimeError):
    """Picard iteration failed to reach the residual tolerance."""

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"fixed-point iteration stalled: residual {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations

    def __reduce__(self):
        # rebuild from the constructor's arguments, not the formatted message,
        # so the error survives the trip back from a pool worker
        return type(self), (self.residual, self.iterations)


def _check_args(w: SpectralField, cfg, ops: OperatorSymbols,
                want: QuadNonlinearity | None = None) -> None:
    if w.grid != ops.grid:
        raise ValueError("field and operator symbols live on different grids")
    if cfg.tau != ops.tau:
        raise ValueError(f"config tau {cfg.tau} does not match symbols tau {ops.tau}")
    if want is not None and cfg.nonlinearity is not want:
        raise ValueError(f"stepper expects nonlinearity {want}, got {cfg.nonlinearity}")


def _grid_square(coeffs: np.ndarray, grid: TorusGrid, dealias: bool) -> np.ndarray:
    """Spectrum of the pointwise square of the field with the given spectrum."""
    vals = values_from_coeffs(coeffs, grid)
    out = coeffs_from_values(vals * vals, grid)
    if dealias:
        out = np.where(grid._two_thirds_keep, out, 0.0)
    return out


def _grid_product(a: np.ndarray, b: np.ndarray, grid: TorusGrid, dealias: bool) -> np.ndarray:
    """Spectrum of the pointwise product of two fields given by their spectra."""
    out = coeffs_from_values(
        values_from_coeffs(a, grid) * values_from_coeffs(b, grid), grid
    )
    if dealias:
        out = np.where(grid._two_thirds_keep, out, 0.0)
    return out


def _picard(
    step_map: Callable[[np.ndarray], np.ndarray],
    guess: np.ndarray,
    grid: TorusGrid,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    weights = sobolev_weights(grid, 1.0)
    u = guess
    residual = np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            u_next = step_map(u)
            residual = float(np.sqrt(np.sum((weights * np.abs(u_next - u)) ** 2)))
            if residual <= tol:
                return u_next, it
            if not np.isfinite(residual):
                raise FixedPointError(residual, it)
            u = u_next
    raise FixedPointError(residual, max_iter)


# ---------------------------------------------------------------------------
# explicit first-order maps
# ---------------------------------------------------------------------------

def li1_step(
    w: SpectralField,
    cfg: QuadSchemeConfig,
    ops: OperatorSymbols,
    dealias: bool = False,
) -> SpectralField:
    """Explicit first-order step for the w^2 nonlinearity.

    w -> (1 - 2 i eps tau w0) P w + i eps tau w0^2
         + (eps/2) [ (P dx^-1 w)^2 - P (dx^-1 w)^2 ],

    with P the free propagator over tau, w0 the zeroth Fourier coefficient,
    and squares formed pointwise on the grid.
    """
    _check_args(w, cfg, ops, QuadNonlinearity.SQUARE)
    grid, eps, tau = w.grid, cfg.eps, cfg.tau
    n0 = grid.n_modes // 2
    c = w.coeffs
    w0 = c[n0]

    out = (1.0 - 2j * eps * tau * w0) * (ops.prop * c)
    out[n0] += 1j * eps * tau * w0 * w0

    d = ops.inv_dx * c
    sq_prop = _grid_square(ops.prop * d, grid, dealias)
    sq_plain = _grid_square(d, grid, dealias)
    out += (eps / 2.0) * (sq_prop - ops.prop * sq_plain)
    return SpectralField(grid, out)


def li1_conj_step(
    w: SpectralField,
    cfg: QuadSchemeConfig,
    ops: OperatorSymbols,
    dealias: bool = False,
) -> SpectralField:
    """Explicit first-order step for the |w|^2 nonlinearity.

    w -> (1 - i eps tau conj(w0)) P w - i eps tau (||w||^2 - |w0|^2)
         + (eps/2) dx^-1 [ (P w)(P* dx^-1 conj w) - P (w dx^-1 conj w) ].

    ||w||^2 is the squared L^2 norm, sum of |w_l|^2; subtracting |w0|^2 keeps
    the purely-constant interaction counted exactly once, so on zero-mode data
    the step reduces to the forward-Euler update of i v' = eps |v|^2.
    """
    _check_args(w, cfg, ops, QuadNonlinearity.MODULUS_SQUARE)
    grid, eps, tau = w.grid, cfg.eps, cfg.tau
    n0 = grid.n_modes // 2
    c = w.coeffs
    w0 = c[n0]
    mass = float(np.sum(np.abs(c) ** 2))

    out = (1.0 - 1j * eps * tau * np.conj(w0)) * (ops.prop * c)
    out[n0] += -1j * eps * tau * (mass - abs(w0) ** 2)

    dcc = ops.inv_dx * conjugate_coeffs(c)
    t1 = _grid_product(ops.prop * c, np.conj(ops.prop) * dcc, grid, dealias)
    t2 = ops.prop * _grid_product(c, dcc, grid, dealias)
    out += (eps / 2.0) * ops.inv_dx * (t1 - t2)
    return SpectralField(grid, out)


# ---------------------------------------------------------------------------
# implicit symmetric second-order maps
# ---------------------------------------------------------------------------

def sli2_step_info(
    w: SpectralField,
    cfg: QuadSchemeConfig,
    ops: OperatorSymbols,
    dealias: bool = False,
) -> tuple[SpectralField, int]:
    """As :func:`sli2_step`, also returning the Picard iteration count."""
    _check_args(w, cfg, ops, QuadNonlinearity.SQUARE)
    grid, eps, tau = w.grid, cfg.eps, cfg.tau
    n0 = grid.n_modes // 2
    c = w.coeffs
    w0 = c[n0]

    # explicit half of the update, assembled once
    explicit = (1.0 - 1j * eps * tau * w0) * (ops.prop * c)
    explicit[n0] += 0.5j * eps * tau * w0 * w0
    d = ops.inv_dx * c
    explicit += (eps / 4.0) * (
        _grid_square(ops.prop * d, grid, dealias)
        - ops.prop * _grid_square(d, grid, dealias)
    )

    def apply(u: np.ndarray) -> np.ndarray:
        u0 = u[n0]
        out = explicit - 1j * eps * tau * u0 * u
        out[n0] += 0.5j * eps * tau * u0 * u0
        du = ops.inv_dx * u
        out += (eps / 4.0) * (
            _grid_square(du, grid, dealias)
            - ops.prop * _grid_square(np.conj(ops.prop) * du, grid, dealias)
        )
        return out

    guess = li1_step(w, QuadSchemeConfig(eps, tau, QuadNonlinearity.SQUARE,
                                         cfg.fp_tol, cfg.fp_max_iter),
                     ops, dealias).coeffs.copy()
    solution, iters = _picard(apply, guess, grid, cfg.fp_tol, cfg.fp_max_iter)
    return SpectralField(grid, solution), iters


def sli2_step(
    w: SpectralField,
    cfg: QuadSchemeConfig,
    ops: OperatorSymbols,
    dealias: bool = False,
) -> SpectralField:
    """Implicit time-symmetric second-order step for the w^2 nonlinearity.

    Solves

    u = P w - i eps tau (w0 P w + u0 u) + (i eps tau / 2)(w0^2 + u0^2)
        + (eps/4) [ (P dx^-1 w)^2 + (dx^-1 u)^2
                    - P (dx^-1 w)^2 - P (P* dx^-1 u)^2 ]

    for u = w^{n+1} by Picard iteration started from the explicit step.
    Applying the step with tau and then with -tau returns the input to within
    the iteration tolerance.
    """
    return sli2_step_info(w, cfg, ops, dealias)[0]


def sli2_conj_step_info(
    w: SpectralField,
    cfg: QuadSchemeConfig,
    ops: OperatorSymbols,
    dealias: bool = False,
) -> tuple[SpectralField, int]:
    """As :func:`sli2_conj_step`, also returning the Picard iteration count."""
    _check_args(w, cfg, ops, QuadNonlinearity.MODULUS_SQUARE)
    grid, eps, tau = w.grid, cfg.eps, cfg.tau
    n0 = grid.n_modes // 2
    c = w.coeffs
    w0 = c[n0]
    mass = float(np.sum(np.abs(c) ** 2))

    explicit = (1.0 - 0.5j * eps * tau * np.conj(w0)) * (ops.prop * c)
    explicit[n0] += -0.5j * eps * tau * (mass - abs(w0) ** 2)
    dcc = ops.inv_dx * conjugate_coeffs(c)
    explicit += (eps / 4.0) * ops.inv_dx * (
        _grid_product(ops.prop * c, np.conj(ops.prop) * dcc, grid, dealias)
        - ops.prop * _grid_product(c, dcc, grid, dealias)
    )

    def apply(u: np.ndarray) -> np.ndarray:
        u0 = u[n0]
        mass_u = float(np.sum(np.abs(u) ** 2))
        out = explicit - 0.5j * eps * tau * np.conj(u0) * u
        out[n0] += -0.5j * eps * tau * (mass_u - abs(u0) ** 2)
        dcu = ops.inv_dx * conjugate_coeffs(u)
        out += (eps / 4.0) * ops.inv_dx * (
            _grid_product(u, dcu, grid, dealias)
            - ops.prop * _grid_product(
                np.conj(ops.prop) * u, ops.prop * dcu, grid, dealias
            )
        )
        return out

    guess = li1_conj_step(w, QuadSchemeConfig(eps, tau, QuadNonlinearity.MODULUS_SQUARE,
                                              cfg.fp_tol, cfg.fp_max_iter),
                          ops, dealias).coeffs.copy()
    solution, iters = _picard(apply, guess, grid, cfg.fp_tol, cfg.fp_max_iter)
    return SpectralField(grid, solution), iters


def sli2_conj_step(
    w: SpectralField,
    cfg: QuadSchemeConfig,
    ops: OperatorSymbols,
    dealias: bool = False,
) -> SpectralField:
    """Implicit time-symmetric second-order step for the |w|^2 nonlinearity.

    Trapezoidal counterpart of :func:`li1_conj_step`: both endpoint fields
    contribute half-weighted zero-mode, mean and bracket terms, the endpoint
    terms being the tau-reversed mirror images of the starting ones.  Same
    fixed-point contract as :func:`sli2_step`.
    """
    return sli2_conj_step_info(w, cfg, ops, dealias)[0]
