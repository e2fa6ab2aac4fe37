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

import math
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
    """Picard iteration failed to reach the residual tolerance.

    ``row`` is the row of the stack whose iteration failed (0 for one field).
    """

    def __init__(self, residual: float, iterations: int, row: int = 0):
        super().__init__(
            f"fixed-point iteration stalled: residual {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations
        self.row = row

    def __reduce__(self):
        # rebuild from the constructor's arguments, not the formatted message,
        # so the error survives the trip back from a pool worker
        return type(self), (self.residual, self.iterations, self.row)


def _check(w: SpectralField, cfg, ops: OperatorSymbols, want: Enum) -> None:
    """Reject a field, config and symbols that do not fit each other or ``want``."""
    if w.grid != ops.grid:
        raise ValueError("field and operator symbols live on different grids")
    if cfg.tau != ops.tau:
        raise ValueError(f"config tau {cfg.tau} does not match symbols tau {ops.tau}")
    have = cfg.nonlinearity if isinstance(want, QuadNonlinearity) else cfg.scheme
    if have is not want:
        raise ValueError(f"stepper expects {want}, got {have}")


# ---------------------------------------------------------------------------
# rows
#
# Every core below acts on a (B, N) stack of spectra c, row r with its own
# eps[r] and tau[r] (tuples of floats) and row r of ``ops``, the rows'
# symbols stacked by OperatorSymbols.stack.  A public step is the one-row
# call of its core, which hands it the lone (N,) spectrum, one-entry tuples
# and the step's own symbols.
# Per-row scalars (the zero mode, the masses, the g0 sums) are formed one
# row at a time with exactly the scalar operations of a lone field: numpy's
# vectorised complex product and modulus may differ from the scalar ones in
# the last bit.  Whole rows are broadcast against a (B, 1) column, which
# runs the same loop as a scalar against one row.
# ---------------------------------------------------------------------------

def _column(values: list):
    """Per-row scalars as a (B, 1) column; one row's scalar as it is."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


def _zero_modes(c: np.ndarray, n0: int) -> np.ndarray:
    """The zero-mode coefficient of each row, iterated as numpy scalars."""
    return c[..., n0].reshape(-1)


def _add_to_zero_modes(out: np.ndarray, n0: int, values: list) -> None:
    """Add values[r] to the zero mode of row r of out."""
    if out.ndim == 1:
        out[n0] += values[0]
    else:
        out[:, n0] += values


def _sums(a: np.ndarray) -> list:
    """The sum of each row of a, as Python numbers."""
    sums = a.sum(axis=-1).tolist()
    return sums if a.ndim > 1 else [sums]


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
    the spectrum of product r.  Factors may be ``(N,)`` spectra or
    ``(B, N)`` stacks; each product then has their shape.
    """
    vals = values_from_coeffs(np.array(factors), grid)
    prods = np.empty((len(products),) + vals.shape[1:], dtype=np.complex128)
    for row, (i, j, *more) in zip(prods, products):
        np.multiply(vals[i], vals[j], out=row)
        for k in more:
            row *= vals[k]
    return coeffs_from_values(prods, grid)


_SQUARES = ((0, 0), (1, 1))  # f0^2 and f1^2
_PAIRS = ((0, 1), (2, 3))  # f0 f1 and f2 f3


def _narrow(arg, keep: np.ndarray):
    """The rows ``keep`` (a boolean mask) of a per-row argument of a core."""
    if isinstance(arg, tuple):
        return tuple(x for x, k in zip(arg, keep) if k)
    if isinstance(arg, OperatorSymbols):
        return arg.take(keep)
    return arg[keep]


def _picard(
    apply: Callable[..., np.ndarray],
    guess: np.ndarray,
    args: tuple,
    grid: TorusGrid,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, list[int]]:
    """Picard iteration u <- apply(u, *args) of every row of guess (or of one field).

    ``args`` are the per-row arguments of the map.  A row stops at the first
    iterate whose H^1-weighted change is within tol and leaves the stack; the
    others go on with ``args`` narrowed to them, so each row's iterates and
    count are those of a lone solve.  Returns the solutions and the count of
    each row; a row that diverges or stalls raises FixedPointError with its
    row.
    """
    weights = sobolev_weights(grid, 1.0)
    n_rows = len(guess) if guess.ndim > 1 else 1
    live = tuple(range(n_rows))  # the row of guess of each row still iterating
    iters = [0] * n_rows
    solution = None
    u = guess
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            u_next = apply(u, *args)
            residual = [math.sqrt(x) for x in _sums((weights * np.abs(u_next - u)) ** 2)]
            done = [res <= tol for res in residual]
            if solution is None and all(done):
                return u_next, [it] * n_rows
            for res, ok, row in zip(residual, done, live):
                if not (ok or math.isfinite(res)):
                    raise FixedPointError(res, it, row)
            if any(done):
                if solution is None:
                    solution = np.empty_like(guess)
                keep = np.logical_not(done)
                finished = [row for ok, row in zip(done, live) if ok]
                solution[finished] = u_next[~keep]
                for row in finished:
                    iters[row] = it
                if not keep.any():
                    return solution, iters
                live, residual = _narrow(live, keep), _narrow(tuple(residual), keep)
                args = tuple(_narrow(arg, keep) for arg in args)
                u_next = u_next[keep]
            u = u_next
    raise FixedPointError(residual[0], max_iter, live[0])


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


def _li1_core(c: np.ndarray, stage: np.ndarray, eps: tuple, tau: tuple,
              ops: OperatorSymbols) -> np.ndarray:
    n0 = ops.grid.n_modes // 2
    w0 = _zero_modes(c, n0)
    sq_prop, sq_plain = stage
    out = _column([1.0 - 2j * e * t * z for e, t, z in zip(eps, tau, w0)]) * (ops.prop * c)
    _add_to_zero_modes(out, n0, [1j * e * t * z * z for e, t, z in zip(eps, tau, w0)])
    out += _column([e / 2.0 for e in eps]) * (sq_prop - ops.prop * sq_plain)
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
    return SpectralField(w.grid, _li1_core(c, _li1_stage(c, ops), (cfg.eps,), (cfg.tau,), ops))


def _li1_conj_stage(c: np.ndarray, ops: OperatorSymbols) -> np.ndarray:
    """(P w)(P* dx^-1 conj w) and w (dx^-1 conj w)."""
    dcc = ops.inv_dx * conjugate_coeffs(c)
    return _grid_products(
        [ops.prop * c, np.conj(ops.prop) * dcc, c, dcc], _PAIRS, ops.grid
    )


def _li1_conj_core(c: np.ndarray, stage: np.ndarray, eps: tuple, tau: tuple,
                   ops: OperatorSymbols) -> np.ndarray:
    n0 = ops.grid.n_modes // 2
    w0 = _zero_modes(c, n0)
    mass = _sums(np.abs(c) ** 2)
    t1, t2 = stage
    out = _column([1.0 - 1j * e * t * np.conj(z) for e, t, z in zip(eps, tau, w0)]) \
        * (ops.prop * c)
    _add_to_zero_modes(
        out, n0, [-1j * e * t * (m - abs(z) ** 2) for e, t, z, m in zip(eps, tau, w0, mass)]
    )
    out += _column([e / 2.0 for e in eps]) * ops.inv_dx * (t1 - ops.prop * t2)
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
    return SpectralField(w.grid, _li1_conj_core(c, stage, (cfg.eps,), (cfg.tau,), ops))


# ---------------------------------------------------------------------------
# implicit symmetric second-order maps
# ---------------------------------------------------------------------------

def _sli2_rows(c: np.ndarray, eps: tuple, tau: tuple, ops: OperatorSymbols,
               tol: float, max_iter: int) -> tuple[np.ndarray, list[int]]:
    """sli2 on each row of the stack c; the solutions and Picard counts."""
    n0 = ops.grid.n_modes // 2
    w0 = _zero_modes(c, n0)

    # explicit half of the update, assembled once
    stage = _li1_stage(c, ops)
    sq_prop, sq_plain = stage
    explicit = _column([1.0 - 1j * e * t * z for e, t, z in zip(eps, tau, w0)]) \
        * (ops.prop * c)
    _add_to_zero_modes(explicit, n0, [0.5j * e * t * z * z for e, t, z in zip(eps, tau, w0)])
    explicit += _column([e / 4.0 for e in eps]) * (sq_prop - ops.prop * sq_plain)

    # the map's per-row factors i eps tau and i eps tau / 2, formed once
    ie_t = tuple(1j * e * t for e, t in zip(eps, tau))
    half = tuple(0.5j * e * t for e, t in zip(eps, tau))
    quarter = _column([e / 4.0 for e in eps])

    def apply(u, ie_t, half, quarter, ops, explicit):
        u0 = _zero_modes(u, n0)
        out = explicit - _column([a * z for a, z in zip(ie_t, u0)]) * u
        _add_to_zero_modes(out, n0, [h * z * z for h, z in zip(half, u0)])
        du = ops.inv_dx * u
        sq, sq_back = _grid_products([du, np.conj(ops.prop) * du], _SQUARES, ops.grid)
        out += quarter * (sq - ops.prop * sq_back)
        return out

    guess = _li1_core(c, stage, eps, tau, ops)
    args = (ie_t, half, quarter, ops, explicit)
    return _picard(apply, guess, args, ops.grid, tol, max_iter)


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
    u, [iters] = _sli2_rows(w.coeffs, (cfg.eps,), (cfg.tau,), ops,
                            cfg.fp_tol, cfg.fp_max_iter)
    return SpectralField(w.grid, u), iters


def _sli2_conj_rows(c: np.ndarray, eps: tuple, tau: tuple, ops: OperatorSymbols,
                    tol: float, max_iter: int) -> tuple[np.ndarray, list[int]]:
    """sli2 for |w|^2 on each row of the stack c; the solutions and Picard counts."""
    n0 = ops.grid.n_modes // 2
    w0 = _zero_modes(c, n0)
    mass = _sums(np.abs(c) ** 2)

    stage = _li1_conj_stage(c, ops)
    t1, t2 = stage
    explicit = _column([1.0 - 0.5j * e * t * np.conj(z) for e, t, z in zip(eps, tau, w0)]) \
        * (ops.prop * c)
    _add_to_zero_modes(
        explicit, n0,
        [-0.5j * e * t * (m - abs(z) ** 2) for e, t, z, m in zip(eps, tau, w0, mass)],
    )
    explicit += _column([e / 4.0 for e in eps]) * ops.inv_dx * (t1 - ops.prop * t2)

    # the map's per-row factors +-i eps tau / 2, formed once
    half = tuple(0.5j * e * t for e, t in zip(eps, tau))
    minus_half = tuple(-0.5j * e * t for e, t in zip(eps, tau))
    quarter = _column([e / 4.0 for e in eps])

    def apply(u, half, minus_half, quarter, ops, explicit):
        u0 = _zero_modes(u, n0)
        mass_u = _sums(np.abs(u) ** 2)
        out = explicit - _column([h * np.conj(z) for h, z in zip(half, u0)]) * u
        _add_to_zero_modes(
            out, n0, [h * (m - abs(z) ** 2) for h, z, m in zip(minus_half, u0, mass_u)]
        )
        dcu = ops.inv_dx * conjugate_coeffs(u)
        t1, t2 = _grid_products(
            [u, dcu, np.conj(ops.prop) * u, ops.prop * dcu], _PAIRS, ops.grid
        )
        out += quarter * ops.inv_dx * (t1 - ops.prop * t2)
        return out

    guess = _li1_conj_core(c, stage, eps, tau, ops)
    args = (half, minus_half, quarter, ops, explicit)
    return _picard(apply, guess, args, ops.grid, tol, max_iter)


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
    u, [iters] = _sli2_conj_rows(w.coeffs, (cfg.eps,), (cfg.tau,), ops,
                                 cfg.fp_tol, cfg.fp_max_iter)
    return SpectralField(w.grid, u), iters
