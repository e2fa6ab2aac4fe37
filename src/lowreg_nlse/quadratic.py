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
    _check_grid,
    _fft,
    _ifft,
    coeffs_from_values,
    conjugate_coeffs,
    sobolev_norms,
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
    if not fp_tol > 0.0:
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
    _check_grid(w, ops.grid)
    if cfg.tau != ops.tau:
        raise ValueError(f"config tau {cfg.tau} does not match symbols tau {ops.tau}")
    have = cfg.nonlinearity if isinstance(want, QuadNonlinearity) else cfg.scheme
    if have is not want:
        raise ValueError(f"stepper expects {want}, got {have}")


# ---------------------------------------------------------------------------
# prepared maps
#
# A map is prepared once for fixed rows, each row with its own eps, step
# and symbols: for one field (ops built for one step, c an (N,) spectrum)
# or for the rows of a (B, N) stack (ops stacked by OperatorSymbols.stack).
# What the step expressions evaluate first -- the per-row factors such as
# i eps tau / 2, the coefficient rows (eps/4) dx^-1 and the stage buffers --
# is built then, and every step evaluates the rest of the expressions in
# the order of a lone step.
# Per-row scalars (the zero mode, the masses, the g0 sums) are formed one
# row at a time with exactly the scalar operations of a lone field: numpy's
# vectorised complex product and modulus may differ from the scalar ones in
# the last bit.  Whole rows are broadcast against a (B, 1) column, which
# runs the same loop as a scalar against one row.
# ---------------------------------------------------------------------------

_SQUARES = ((0, 0), (1, 1))  # f0^2 and f1^2
_PAIRS = ((0, 1), (2, 3))  # f0 f1 and f2 f3


class _Stage:
    """A product stage whose factor, sample and product stacks are reused from call to call.

    The caller writes the spectra of the factors into ``rows``, the rows of
    an (F, ..., N) stack.  ``products`` holds one tuple of factor indices per
    product: ``(i, j, k)`` is (f_i * f_j) * f_k, multiplied left to right on
    the grid.  A call costs one inverse transform of the stacked factors and
    one forward transform of the stacked products, and returns the spectra
    of the products in a new (P, ..., N) array, row r for product r.

    At power-of-two N the stage transforms the ascending rows as they are,
    without the public pair's (-1)^l phase, half-roll and scale passes.
    Without the phase the samples are those of the grid shifted by half a
    period, and without the half-roll sample j carries a factor (-1)^j.  A
    product of even degree loses that sign, so its spectrum needs only the
    half-roll; one of odd degree keeps one (-1)^j, which is the half-roll,
    so its spectrum needs nothing.  The 1/N scale is a power of two and
    exact.  pocketfft's radix-2 and radix-4 passes commute exactly with
    these sign flips and shifts, so the spectra keep the public pair's bits
    (``selftest`` checks this); its radix-3 and radix-5 passes do not, so
    every other even N takes the public pair.
    """

    def __init__(self, n_factors: int, products: tuple[tuple[int, ...], ...],
                 shape: tuple[int, ...], grid: TorusGrid) -> None:
        self.factors = np.empty((n_factors,) + shape, dtype=np.complex128)
        self.rows = tuple(self.factors)
        self.grid = grid
        self._values = np.empty_like(self.factors)
        self._products = np.empty((len(products),) + shape, dtype=np.complex128)
        # each product's row and the sample rows it multiplies, left to right
        self._plan = [(row, [self._values[i] for i in indices])
                      for row, indices in zip(self._products, products)]
        n = grid.n_modes
        self._relabel_free = n & (n - 1) == 0
        self._scale = 1.0 / n
        # flat take-index of the spectra: the half-roll on the rows of the
        # even-degree products, the identity on the others; None if none is even
        even = [r for r, indices in enumerate(products) if len(indices) % 2 == 0]
        self._order = None
        if self._relabel_free and even:
            order = np.arange(self._products.size).reshape(self._products.shape)
            order[even] = order[even].take(grid._half_roll, axis=-1)
            self._order = order

    def __call__(self) -> np.ndarray:
        if not self._relabel_free:
            values_from_coeffs(self.factors, self.grid, out=self._values)
            return coeffs_from_values(self._multiply(), self.grid)
        _ifft(self.factors, 1.0, self._values)
        if self._order is None:
            return _fft(self._multiply(), self._scale, np.empty_like(self._products))
        return _fft(self._multiply(), self._scale, self._products).take(self._order)

    def _multiply(self) -> np.ndarray:
        """The products of the samples, written into their stack."""
        for row, (first, second, *more) in self._plan:
            np.multiply(first, second, out=row)
            for vals in more:
                row *= vals
        return self._products


class _Map:
    """The maps of one nonlinearity, prepared for fixed rows and Picard settings.

    Built once per lockstep lot of trajectories (``harness._run_rows``),
    again for the row a lot steps last, alone, and once per symbols for the
    public steppers (:func:`_prepared`); ``eps`` is a tuple with an entry
    per row, and each row steps by the ``tau`` of its symbols.  Calling the
    map takes the symmetric step of c and returns the solutions with the
    Picard count of each row; its explicit first-order maps are methods.  A
    map holds the symbol arrays it uses, and a stack's map its symbols too,
    to narrow them with :meth:`take`; one field's map, kept on its symbols,
    holds no reference back to them.
    """

    def __init__(self, eps: tuple, ops: OperatorSymbols, tol: float, max_iter: int) -> None:
        self.lone = ops.prop.ndim == 1
        # one field's eps and step as scalars, a stack's as tuples
        self.eps, self.tau = eps[0] if self.lone else tuple(eps), ops.tau
        self.stacked = None if self.lone else ops
        self.shape = ops.prop.shape
        self.prop = ops.prop
        self.grid = ops.grid
        self.n0 = ops.grid.n_modes // 2
        self.tol = tol
        self.max_iter = max_iter
        self._taken: dict[bytes, _Map] = {}

    def each(self, f: Callable, *rows):
        """f of each row's scalars: one field's value, or a tuple with a value per row."""
        return f(*rows) if self.lone else tuple(map(f, *rows))

    def column(self, f: Callable, *rows):
        """f of each row's scalars, shaped to scale whole rows: a scalar or a (B, 1) column."""
        return f(*rows) if self.lone else np.array(list(map(f, *rows)))[:, None]

    def zero_modes(self, c: np.ndarray):
        """The zero-mode coefficient of c, or of each row, as numpy scalars."""
        return c[self.n0] if self.lone else c[:, self.n0]

    def add_to_zero_modes(self, out: np.ndarray, values) -> None:
        """Add values (from :meth:`each`) to the zero mode of out, row by row."""
        if self.lone:
            out[self.n0] += values
        else:
            out[:, self.n0] += values

    def take(self, keep: np.ndarray) -> "_Map":
        """This map for the rows ``keep`` (a boolean mask) of its stack, built once per mask."""
        key = keep.tobytes()
        taken = self._taken.get(key)
        if taken is None:
            # a batch meets the same few masks step after step; the bound
            # only caps what an unusual one could pile up
            if len(self._taken) >= 16:
                self._taken.clear()
            eps = tuple(e for e, k in zip(self.eps, keep) if k)
            taken = self._taken[key] = self._like(eps, self.stacked.take(keep))
        return taken

    def _like(self, eps: tuple, ops: OperatorSymbols) -> "_Map":
        return type(self)(eps, ops, self.tol, self.max_iter)

    def new_stage(self, n_factors: int, products: tuple[tuple[int, ...], ...]) -> _Stage:
        """A stage with buffers for this map's rows."""
        return _Stage(n_factors, products, self.shape, self.grid)


def _prepared(kind: type, cfg, ops: OperatorSymbols):
    """The ``kind`` map of cfg's eps and solver settings on the symbols ops.

    Built at a public stepper's first call and kept on its symbols, one per
    kind, so later calls on the same symbols reuse it.  Trajectories build
    their maps in ``harness._run_rows``; only the public one-field steppers
    come here, and ``perfbench/layers.py`` times them on reused symbols.
    """
    key = (cfg.eps, cfg.fp_tol, cfg.fp_max_iter)
    slot = ops._maps.get(kind)
    if slot is None or slot[0] != key:
        built = kind((cfg.eps,), ops, cfg.fp_tol, cfg.fp_max_iter)
        slot = ops._maps[kind] = (key, built)
    return slot[1]


def _picard(step: _Map, explicit: np.ndarray, guess: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Picard iteration u <- step.apply(u, explicit) of every row of guess (or of one field).

    A row stops at the first iterate whose H^1-weighted change is within
    step.tol and leaves the stack; the others go on with the map narrowed
    to them, so each row's iterates and count are those of a lone solve.
    Returns the solutions and the count of each row; a row that diverges or
    stalls raises FixedPointError with its row.
    """
    rows = None if step.lone else np.arange(len(guess))  # row of guess of each live row
    solution = iters = None
    u = guess
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, step.max_iter + 1):
            u_next = step.apply(u, explicit)
            residual = sobolev_norms(u_next - u, step.grid, 1.0)
            worst = residual if rows is None else residual.max()  # nan if any row's is
            if worst <= step.tol:
                if solution is None:
                    return u_next, [it] * (1 if rows is None else len(rows))
                solution[rows] = u_next
                iters[rows] = it
                return solution, iters.tolist()
            if not math.isfinite(worst):
                first = int(np.argmin(np.isfinite(residual)))
                raise FixedPointError(float(np.ravel(residual)[first]), it,
                                      0 if rows is None else int(rows[first]))
            if rows is not None:
                done = residual <= step.tol
                if done.any():
                    if solution is None:
                        solution = np.empty_like(guess)
                        iters = np.zeros(len(guess), dtype=int)
                    solution[rows[done]] = u_next[done]
                    iters[rows[done]] = it
                    keep = ~done
                    rows, explicit, u_next = rows[keep], explicit[keep], u_next[keep]
                    step = step.take(keep)
            u = u_next
    raise FixedPointError(float(np.ravel(residual)[0]), step.max_iter,
                          0 if rows is None else int(rows[0]))


# ---------------------------------------------------------------------------
# the maps of eps w^2 and of eps |w|^2
#
# Each explicit first-order map is a product stage of the spectrum c and a
# core that assembles the step from both and the per-row factors.  The
# implicit map's explicit half is the same core with every factor halved, so
# it shares the stage, P c and the zero modes with the first-order predictor.
# ---------------------------------------------------------------------------

class _SquareMap(_Map):
    """li1 and sli2 for eps w^2."""

    def __init__(self, eps: tuple, ops: OperatorSymbols, tol: float, max_iter: int) -> None:
        super().__init__(eps, ops, tol, max_iter)
        e, t = self.eps, self.tau
        ie_t = self.each(lambda e, t: 1j * e * t, e, t)
        # (2a, a, b) of :meth:`_core`: li1's, and sli2's halves of them
        self.li1_factors = (self.each(lambda e, t: 2j * e * t, e, t), ie_t,
                            self.column(lambda e: e / 2.0, e))
        self.half_factors = (ie_t, self.each(lambda e, t: 0.5j * e * t, e, t),
                             self.column(lambda e: e / 4.0, e))
        self.inv_dx, self.prop_conj = ops.inv_dx, ops.prop_conj
        self._stage = self.new_stage(2, _SQUARES)

    def _first(self, c: np.ndarray):
        """P c, the zero modes of c and (P dx^-1 c)^2 - P (dx^-1 c)^2."""
        prop_d, d = self._stage.rows
        np.multiply(self.inv_dx, c, out=d)
        np.multiply(self.prop, d, out=prop_d)
        sq_prop, sq_plain = self._stage()
        return self.prop * c, self.zero_modes(c), sq_prop - self.prop * sq_plain

    def _core(self, factors: tuple, prop_c: np.ndarray, w0, bracket: np.ndarray) -> np.ndarray:
        """(1 - 2a w0) P c + a w0^2 + b bracket, the w0^2 term on the zero mode."""
        two_a, a, b = factors
        out = self.column(lambda a, z: 1.0 - a * z, two_a, w0) * prop_c
        self.add_to_zero_modes(out, self.each(lambda a, z: a * z * z, a, w0))
        out += b * bracket
        return out

    def li1(self, c: np.ndarray) -> np.ndarray:
        return self._core(self.li1_factors, *self._first(c))

    def __call__(self, c: np.ndarray) -> tuple[np.ndarray, list[int]]:
        first = self._first(c)
        explicit = self._core(self.half_factors, *first)
        return _picard(self, explicit, self._core(self.li1_factors, *first))

    def apply(self, u: np.ndarray, explicit: np.ndarray) -> np.ndarray:
        """One Picard map of sli2: the explicit half plus the terms of u."""
        ie_t, half_ie_t, quarter_e = self.half_factors
        u0 = self.zero_modes(u)
        out = explicit - self.column(lambda a, z: a * z, ie_t, u0) * u
        self.add_to_zero_modes(out, self.each(lambda h, z: h * z * z, half_ie_t, u0))
        du, prop_conj_du = self._stage.rows
        np.multiply(self.inv_dx, u, out=du)
        np.multiply(self.prop_conj, du, out=prop_conj_du)
        sq, sq_back = self._stage()
        out += quarter_e * (sq - self.prop * sq_back)
        return out


def _masses(c: np.ndarray):
    """The squared L^2 norm of c, or of each row as a list, as Python floats."""
    abs_sq = np.abs(c)
    np.square(abs_sq, out=abs_sq)
    return abs_sq.sum(axis=-1).tolist()


class _ModSquareMap(_Map):
    """li1 and sli2 for eps |w|^2."""

    def __init__(self, eps: tuple, ops: OperatorSymbols, tol: float, max_iter: int) -> None:
        super().__init__(eps, ops, tol, max_iter)
        e, t = self.eps, self.tau
        half_ie_t = self.each(lambda e, t: 0.5j * e * t, e, t)
        # (a, -a, b) of :meth:`_core`: li1's, and sli2's halves of them
        self.li1_factors = (self.each(lambda e, t: 1j * e * t, e, t),
                            self.each(lambda e, t: -1j * e * t, e, t),
                            self.column(lambda e: e / 2.0, e) * ops.inv_dx)
        self.half_factors = (half_ie_t, self.each(lambda e, t: -0.5j * e * t, e, t),
                             self.column(lambda e: e / 4.0, e) * ops.inv_dx)
        self.inv_dx, self.prop_conj = ops.inv_dx, ops.prop_conj
        self._stage = self.new_stage(4, _PAIRS)

    def _first(self, c: np.ndarray):
        """P c, the zero modes and masses of c, and the bracket t1 - P t2.

        t1 = (P c)(P* dx^-1 conj c) and t2 = c (dx^-1 conj c).  P c is a row
        of the stage's factors, valid until the stage runs again.
        """
        prop_c, prop_conj_dcc, plain, dcc = self._stage.rows
        np.multiply(self.inv_dx, conjugate_coeffs(c, out=dcc), out=dcc)
        np.multiply(self.prop, c, out=prop_c)
        np.multiply(self.prop_conj, dcc, out=prop_conj_dcc)
        plain[...] = c
        t1, t2 = self._stage()
        return prop_c, self.zero_modes(c), _masses(c), t1 - self.prop * t2

    def _core(self, factors: tuple, prop_c: np.ndarray, w0, mass,
              bracket: np.ndarray) -> np.ndarray:
        """(1 - a conj w0) P c - a (mass - |w0|^2) + b bracket, the mass term on the zero mode."""
        a, minus_a, b = factors
        out = self.column(lambda a, z: 1.0 - a * np.conj(z), a, w0) * prop_c
        self.add_to_zero_modes(out, self.each(
            lambda a, z, m: a * (m - abs(z) ** 2), minus_a, w0, mass))
        out += b * bracket
        return out

    def li1(self, c: np.ndarray) -> np.ndarray:
        return self._core(self.li1_factors, *self._first(c))

    def __call__(self, c: np.ndarray) -> tuple[np.ndarray, list[int]]:
        first = self._first(c)
        explicit = self._core(self.half_factors, *first)
        return _picard(self, explicit, self._core(self.li1_factors, *first))

    def apply(self, u: np.ndarray, explicit: np.ndarray) -> np.ndarray:
        """One Picard map of sli2 for |w|^2: the explicit half plus the terms of u."""
        half_ie_t, minus_half_ie_t, quarter_e_dx = self.half_factors
        u0 = self.zero_modes(u)
        out = explicit - self.column(lambda h, z: h * np.conj(z), half_ie_t, u0) * u
        self.add_to_zero_modes(out, self.each(
            lambda h, z, m: h * (m - abs(z) ** 2), minus_half_ie_t, u0, _masses(u)))
        plain, dcu, prop_conj_u, prop_dcu = self._stage.rows
        plain[...] = u
        np.multiply(self.inv_dx, conjugate_coeffs(u, out=dcu), out=dcu)
        np.multiply(self.prop_conj, u, out=prop_conj_u)
        np.multiply(self.prop, dcu, out=prop_dcu)
        t1, t2 = self._stage()
        out += quarter_e_dx * (t1 - self.prop * t2)
        return out


# ---------------------------------------------------------------------------
# explicit first-order maps
# ---------------------------------------------------------------------------

def li1_step(w: SpectralField, cfg: QuadSchemeConfig, ops: OperatorSymbols) -> SpectralField:
    """Explicit first-order step for the w^2 nonlinearity.

    w -> (1 - 2 i eps tau w0) P w + i eps tau w0^2
         + (eps/2) [ (P dx^-1 w)^2 - P (dx^-1 w)^2 ],

    with P the free propagator over tau, w0 the zeroth Fourier coefficient,
    and squares formed pointwise on the grid.
    """
    _check(w, cfg, ops, QuadNonlinearity.SQUARE)
    return SpectralField(w.grid, _prepared(_SquareMap, cfg, ops).li1(w.coeffs))


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
    return SpectralField(w.grid, _prepared(_ModSquareMap, cfg, ops).li1(w.coeffs))


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
    u, [iters] = _prepared(_SquareMap, cfg, ops)(w.coeffs)
    return SpectralField(w.grid, u), iters


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
    u, [iters] = _prepared(_ModSquareMap, cfg, ops)(w.coeffs)
    return SpectralField(w.grid, u), iters
