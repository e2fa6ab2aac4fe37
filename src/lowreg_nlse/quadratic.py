"""One-step integrators for the quadratic Schrodinger equations on the torus.

Two nonlinearities (eps * w^2 and eps * |w|^2) with, for each, an explicit
first-order map and an implicit time-symmetric second-order map.  The schemes
work in the untwisted variable: each step is "exactly integrate the dominant
oscillatory interaction, form the remaining products pseudo-spectrally".  The
zeroth mode is treated exactly (its quadratic self-interaction carries no
oscillation and is integrated as the plain zero-mode ODE term).

Every step function takes ``(w, cfg, ops)``.  The explicit maps return the
new field; the implicit ``*_step_info`` maps return it with their Picard
iteration count.  Implicit steps are solved by Picard iteration with the
explicit map as the initial guess; non-convergence raises
:class:`FixedPointError` carrying the last residual so callers can diagnose
step-size/amplitude combinations outside the contraction regime.
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
    "sli2_step_info",
    "sli2_conj_step_info",
]


class QuadNonlinearity(Enum):
    SQUARE = "square"
    MODULUS_SQUARE = "modulus_square"


def _check_settings(eps: float, fp_tol: float, fp_max_iter: int) -> None:
    """Reject an eps outside (0, 1], a nonpositive tolerance or no iterations."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if fp_tol <= 0.0:
        raise ValueError("fp_tol must be positive")
    if fp_max_iter < 1:
        raise ValueError("fp_max_iter must be at least 1")


class _StepConfig:
    """Validation shared by the quadratic and the cubic step configs."""

    def __post_init__(self) -> None:
        _check_settings(self.eps, self.fp_tol, self.fp_max_iter)
        if self.tau == 0.0:
            raise ValueError("tau must be nonzero")


@dataclass(frozen=True)
class QuadSchemeConfig(_StepConfig):
    """Parameters for one quadratic-equation step.

    ``tau`` may be negative: the symmetric schemes are exercised backwards in
    the time-reversal tests, and the maps are well-defined for either sign.
    """

    eps: float
    tau: float
    nonlinearity: QuadNonlinearity = QuadNonlinearity.SQUARE
    fp_tol: float = 1e-12
    fp_max_iter: int = 100


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


def _check(w: SpectralField, cfg, ops: OperatorSymbols, want: Enum) -> None:
    """Reject a field, config and symbols that do not fit each other or ``want``."""
    if w.grid != ops.grid:
        raise ValueError("field and operator symbols live on different grids")
    if cfg.tau != ops.tau:
        raise ValueError(f"config tau {cfg.tau} does not match symbols tau {ops.tau}")
    have = cfg.nonlinearity if isinstance(want, QuadNonlinearity) else cfg.scheme
    if have is not want:
        raise ValueError(f"stepper expects {want}, got {have}")


def _grid_products(
    factors: list[np.ndarray],
    products: tuple[tuple[int, ...], ...],
    grid: TorusGrid,
) -> np.ndarray:
    """Spectra of pointwise products of fields given by their spectra.

    ``products`` holds one tuple of indices into ``factors`` per product:
    ``(i, j, k)`` is (f_i * f_j) * f_k, multiplied left to right on the grid.
    The whole stage costs one inverse transform of the stacked factors and
    one forward transform of the stacked products; row r of the result is
    the spectrum of product r.
    """
    vals = values_from_coeffs(np.array(factors), grid)
    prods = np.empty((len(products), grid.n_modes), dtype=np.complex128)
    for row, (i, j, *more) in zip(prods, products):
        np.multiply(vals[i], vals[j], out=row)
        for k in more:
            row *= vals[k]
    return coeffs_from_values(prods, grid)


_SQUARES = ((0, 0), (1, 1))  # f0^2 and f1^2
_PAIRS = ((0, 1), (2, 3))  # f0 f1 and f2 f3


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
            residual = float(np.sqrt(((weights * np.abs(u_next - u)) ** 2).sum()))
            if residual <= tol:
                return u_next, it
            if not np.isfinite(residual):
                raise FixedPointError(residual, it)
            u = u_next
    raise FixedPointError(residual, max_iter)


# ---------------------------------------------------------------------------
# explicit first-order maps
#
# Each map is a product stage of the spectrum c and a core that assembles the
# step from both; an implicit map's explicit half hands its stage to the core.
# ---------------------------------------------------------------------------

def _li1_stage(c: np.ndarray, ops: OperatorSymbols) -> np.ndarray:
    """(P dx^-1 w)^2 and (dx^-1 w)^2."""
    d = ops.inv_dx * c
    return _grid_products([ops.prop * d, d], _SQUARES, ops.grid)


def _li1_core(c: np.ndarray, stage: np.ndarray, eps: float, tau: float,
              ops: OperatorSymbols) -> np.ndarray:
    n0 = ops.grid.n_modes // 2
    w0 = c[n0]
    sq_prop, sq_plain = stage
    out = (1.0 - 2j * eps * tau * w0) * (ops.prop * c)
    out[n0] += 1j * eps * tau * w0 * w0
    out += (eps / 2.0) * (sq_prop - ops.prop * sq_plain)
    return out


def li1_step(w: SpectralField, cfg: QuadSchemeConfig, ops: OperatorSymbols) -> SpectralField:
    """Explicit first-order step for the w^2 nonlinearity.

    w -> (1 - 2 i eps tau w0) P w + i eps tau w0^2
         + (eps/2) [ (P dx^-1 w)^2 - P (dx^-1 w)^2 ],

    with P the free propagator over tau, w0 the zeroth Fourier coefficient,
    and squares formed pointwise on the grid.
    """
    _check(w, cfg, ops, QuadNonlinearity.SQUARE)
    c = w.coeffs
    return SpectralField(w.grid, _li1_core(c, _li1_stage(c, ops), cfg.eps, cfg.tau, ops))


def _li1_conj_stage(c: np.ndarray, ops: OperatorSymbols) -> np.ndarray:
    """(P w)(P* dx^-1 conj w) and w (dx^-1 conj w)."""
    dcc = ops.inv_dx * conjugate_coeffs(c)
    return _grid_products(
        [ops.prop * c, np.conj(ops.prop) * dcc, c, dcc], _PAIRS, ops.grid
    )


def _li1_conj_core(c: np.ndarray, stage: np.ndarray, eps: float, tau: float,
                   ops: OperatorSymbols) -> np.ndarray:
    n0 = ops.grid.n_modes // 2
    w0 = c[n0]
    mass = float((np.abs(c) ** 2).sum())
    t1, t2 = stage
    out = (1.0 - 1j * eps * tau * np.conj(w0)) * (ops.prop * c)
    out[n0] += -1j * eps * tau * (mass - abs(w0) ** 2)
    out += (eps / 2.0) * ops.inv_dx * (t1 - ops.prop * t2)
    return out


def li1_conj_step(
    w: SpectralField, cfg: QuadSchemeConfig, ops: OperatorSymbols
) -> SpectralField:
    """Explicit first-order step for the |w|^2 nonlinearity.

    w -> (1 - i eps tau conj(w0)) P w - i eps tau (||w||^2 - |w0|^2)
         + (eps/2) dx^-1 [ (P w)(P* dx^-1 conj w) - P (w dx^-1 conj w) ].

    ||w||^2 is the squared L^2 norm, sum of |w_l|^2; subtracting |w0|^2 keeps
    the purely-constant interaction counted exactly once, so on zero-mode data
    the step reduces to the forward-Euler update of i v' = eps |v|^2.
    """
    _check(w, cfg, ops, QuadNonlinearity.MODULUS_SQUARE)
    c = w.coeffs
    stage = _li1_conj_stage(c, ops)
    return SpectralField(w.grid, _li1_conj_core(c, stage, cfg.eps, cfg.tau, ops))


# ---------------------------------------------------------------------------
# implicit symmetric second-order maps
# ---------------------------------------------------------------------------

def sli2_step_info(
    w: SpectralField, cfg: QuadSchemeConfig, ops: OperatorSymbols
) -> tuple[SpectralField, int]:
    """Implicit time-symmetric second-order step for the w^2 nonlinearity.

    Solves

    u = P w - i eps tau (w0 P w + u0 u) + (i eps tau / 2)(w0^2 + u0^2)
        + (eps/4) [ (P dx^-1 w)^2 + (dx^-1 u)^2
                    - P (dx^-1 w)^2 - P (P* dx^-1 u)^2 ]

    for u = w^{n+1} by Picard iteration started from the explicit step, and
    returns u with the iteration count.  Applying the step with tau and then
    with -tau returns the input to within the iteration tolerance.
    """
    _check(w, cfg, ops, QuadNonlinearity.SQUARE)
    grid, eps, tau = w.grid, cfg.eps, cfg.tau
    n0 = grid.n_modes // 2
    c = w.coeffs
    w0 = c[n0]

    # explicit half of the update, assembled once
    stage = _li1_stage(c, ops)
    sq_prop, sq_plain = stage
    explicit = (1.0 - 1j * eps * tau * w0) * (ops.prop * c)
    explicit[n0] += 0.5j * eps * tau * w0 * w0
    explicit += (eps / 4.0) * (sq_prop - ops.prop * sq_plain)

    def apply(u: np.ndarray) -> np.ndarray:
        u0 = u[n0]
        out = explicit - 1j * eps * tau * u0 * u
        out[n0] += 0.5j * eps * tau * u0 * u0
        du = ops.inv_dx * u
        sq, sq_back = _grid_products([du, np.conj(ops.prop) * du], _SQUARES, grid)
        out += (eps / 4.0) * (sq - ops.prop * sq_back)
        return out

    guess = _li1_core(c, stage, eps, tau, ops)
    solution, iters = _picard(apply, guess, grid, cfg.fp_tol, cfg.fp_max_iter)
    return SpectralField(grid, solution), iters


def sli2_conj_step_info(
    w: SpectralField, cfg: QuadSchemeConfig, ops: OperatorSymbols
) -> tuple[SpectralField, int]:
    """Implicit time-symmetric second-order step for the |w|^2 nonlinearity.

    Trapezoidal counterpart of :func:`li1_conj_step`: both endpoint fields
    contribute half-weighted zero-mode, mean and bracket terms, the endpoint
    terms being the tau-reversed mirror images of the starting ones.  Same
    fixed-point contract as :func:`sli2_step_info`.
    """
    _check(w, cfg, ops, QuadNonlinearity.MODULUS_SQUARE)
    grid, eps, tau = w.grid, cfg.eps, cfg.tau
    n0 = grid.n_modes // 2
    c = w.coeffs
    w0 = c[n0]
    mass = float((np.abs(c) ** 2).sum())

    stage = _li1_conj_stage(c, ops)
    t1, t2 = stage
    explicit = (1.0 - 0.5j * eps * tau * np.conj(w0)) * (ops.prop * c)
    explicit[n0] += -0.5j * eps * tau * (mass - abs(w0) ** 2)
    explicit += (eps / 4.0) * ops.inv_dx * (t1 - ops.prop * t2)

    def apply(u: np.ndarray) -> np.ndarray:
        u0 = u[n0]
        mass_u = float((np.abs(u) ** 2).sum())
        out = explicit - 0.5j * eps * tau * np.conj(u0) * u
        out[n0] += -0.5j * eps * tau * (mass_u - abs(u0) ** 2)
        dcu = ops.inv_dx * conjugate_coeffs(u)
        t1, t2 = _grid_products(
            [u, dcu, np.conj(ops.prop) * u, ops.prop * dcu], _PAIRS, grid
        )
        out += (eps / 4.0) * ops.inv_dx * (t1 - ops.prop * t2)
        return out

    guess = _li1_conj_core(c, stage, eps, tau, ops)
    solution, iters = _picard(apply, guess, grid, cfg.fp_tol, cfg.fp_max_iter)
    return SpectralField(grid, solution), iters
