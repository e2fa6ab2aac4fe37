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
explicit map as the initial guess.  ``fp_tol`` bounds the H^1 distance of the
returned iterate from the fixed point: a solve stops at the first iterate
whose increment d is within ``fp_tol``, or, from the second map on, whose
2 q d / (1 - q) is, with q < 1 the larger of the last two increment ratios
(:func:`_picard`).  Non-convergence raises :class:`FixedPointError` carrying
the last residual so callers can diagnose step-size/amplitude combinations
outside the contraction regime.
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
    """Reject an eps outside (0, 1], a nonpositive tolerance or no whole number of iterations."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if not fp_tol > 0.0:
        raise ValueError("fp_tol must be positive")
    if not isinstance(fp_max_iter, (int, np.integer)):
        raise ValueError(f"fp_max_iter must be an integer, got {fp_max_iter!r}")
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


def _lone_step(kind: type, scheme: str, w: SpectralField, cfg, ops: OperatorSymbols,
               want: Enum) -> tuple[SpectralField, int | None]:
    """One ``scheme`` step of w by the ``kind`` map of cfg's eps and solver settings on ops.

    Rejects first a field, config and symbols that do not fit each other or
    ``want``.  Returns the new field with its Picard count, None for an
    explicit scheme.  The public one-field steppers build their map so at
    each call.
    """
    _check_grid(w, ops.grid)
    if cfg.tau != ops.tau:
        raise ValueError(f"config tau {cfg.tau} does not match symbols tau {ops.tau}")
    have = cfg.nonlinearity if isinstance(want, QuadNonlinearity) else cfg.scheme
    if have is not want:
        raise ValueError(f"stepper expects {want}, got {have}")
    step = kind((cfg.eps,), ops, cfg.fp_tol, cfg.fp_max_iter)
    c, iters = getattr(step, scheme)(w.coeffs)
    return SpectralField(w.grid, c), None if iters is None else iters[0]


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
    the grid, and F is one more than the largest index.  A call costs one
    inverse transform of the stacked factors and one forward transform of
    the stacked products, and returns the spectra of the products in a new
    (P, ..., N) array, row r for product r.

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

    def __init__(self, products: tuple[tuple[int, ...], ...], shape: tuple[int, ...],
                 grid: TorusGrid) -> None:
        n_factors = 1 + max(map(max, products))
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
        # even-degree products, the identity on the others
        even = [r for r, indices in enumerate(products) if len(indices) % 2 == 0]
        self._order = np.arange(self._products.size).reshape(self._products.shape)
        self._order[even] = self._order[even].take(grid._half_roll, axis=-1)

    def __call__(self) -> np.ndarray:
        if not self._relabel_free:
            values_from_coeffs(self.factors, self.grid, out=self._values)
            return coeffs_from_values(self._multiply(), self.grid)
        _ifft(self.factors, 1.0, self._values)
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

    Built as ``Kind(eps, ops, tol, max_iter)``: once per lockstep lot of
    two or more trajectories (``harness._run_rows``), for the row a lot
    steps alone, and at each call of a public stepper (:func:`_lone_step`);
    ``eps`` is a tuple with an entry per row, and each row steps by the
    ``tau`` of its symbols.  Each scheme's step is the method of its name:
    it takes c to the new spectra and the Picard count of each row, None
    for an explicit scheme.  A map holds its symbols, to narrow a stack's
    with :meth:`take`.
    """

    def __init__(self, eps: tuple, ops: OperatorSymbols, tol: float, max_iter: int) -> None:
        self.lone = ops.prop.ndim == 1
        # one field's eps and step as scalars, a stack's as tuples
        self.eps, self.tau = eps[0] if self.lone else tuple(eps), ops.tau
        self.ops = ops
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
            taken = self._taken[key] = type(self)(eps, self.ops.take(keep), self.tol,
                                                  self.max_iter)
        return taken

    def new_stage(self, products: tuple[tuple[int, ...], ...]) -> _Stage:
        """A stage with buffers for this map's rows."""
        return _Stage(products, self.shape, self.grid)


def _picard(step: _Map, explicit: np.ndarray, guess: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Picard iteration u <- step.apply(u, explicit) of every row of guess (or of one field).

    A row stops at the first iterate u_k whose increment d_k, the H^1 norm
    of u_k - u_{k-1}, passes either test: d_k <= step.tol, or, from the
    second map on, 2 q d_k / (1 - q) <= step.tol with q < 1 the larger of
    the row's last two ratios d_k / d_{k-1}.  A map that contracts by q
    leaves u_k within q d_k / (1 - q) of its fixed point, so step.tol
    bounds the H^1 distance of each returned row from its fixed point,
    with a margin of 2 for a ratio that varies from map to map.  A row
    that stops leaves the stack with its ratios; the others go on with the
    map narrowed to them, so each row's iterates and count are those of a
    lone solve.  Returns the solutions and the count of each row; a row
    whose increment is not finite, or that has not stopped after
    step.max_iter maps, raises FixedPointError with its row.
    """
    tol = step.tol
    n = 1 if step.lone else len(guess)
    # of each live row: its row of guess, its last increment and last ratio
    rows, last, ratios = list(range(n)), [math.inf] * n, [0.0] * n
    solution = iters = None
    u = guess
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, step.max_iter + 1):
            u_next = step.apply(u, explicit)
            increments = sobolev_norms(u_next - u, step.grid, 1.0).reshape(-1).tolist()
            keep = []
            for i, d in enumerate(increments):
                if not math.isfinite(d):
                    raise FixedPointError(d, it, rows[i])
                ratio = d / last[i]  # 0 at the first map
                q = max(ratio, ratios[i])
                keep.append(d > tol and not (it > 1 and q < 1.0
                                             and 2.0 * q / (1.0 - q) * d <= tol))
                last[i], ratios[i] = d, ratio
            if solution is None and not any(keep):
                return u_next, [it] * n
            if not all(keep):
                if solution is None:
                    solution, iters = np.empty_like(guess), [0] * n
                live = np.array(keep)
                stopped = [r for r, k in zip(rows, keep) if not k]
                solution[stopped] = u_next[~live]
                for r in stopped:
                    iters[r] = it
                if len(stopped) == len(rows):
                    return solution, iters
                rows, last, ratios = ([x for x, k in zip(xs, keep) if k]
                                      for xs in (rows, last, ratios))
                explicit, u_next = explicit[live], u_next[live]
                step = step.take(live)
            u = u_next
    raise FixedPointError(last[0], step.max_iter, rows[0])


# ---------------------------------------------------------------------------
# the maps of eps w^2 and of eps |w|^2
#
# Each explicit first-order map is a product stage of the spectrum c and a
# core that assembles the step from both and the per-row factors.  The
# implicit map's explicit half is the same core with every factor halved, so
# it shares the stage, P c and the zero modes with the first-order predictor.
# ---------------------------------------------------------------------------

class _QuadMap(_Map):
    """li1 and sli2 from a subclass's stage (:meth:`_first`), core and factors."""

    def li1(self, c: np.ndarray) -> tuple[np.ndarray, None]:
        return self._core(self.li1_factors, *self._first(c)), None

    def sli2(self, c: np.ndarray) -> tuple[np.ndarray, list[int]]:
        first = self._first(c)
        explicit = self._core(self.half_factors, *first)
        return _picard(self, explicit, self._core(self.li1_factors, *first))


class _SquareMap(_QuadMap):
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
        self._stage = self.new_stage(_SQUARES)

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


class _ModSquareMap(_QuadMap):
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
        self._stage = self.new_stage(_PAIRS)

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
    return _lone_step(_SquareMap, "li1", w, cfg, ops, QuadNonlinearity.SQUARE)[0]


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
    return _lone_step(_ModSquareMap, "li1", w, cfg, ops, QuadNonlinearity.MODULUS_SQUARE)[0]


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
    return _lone_step(_SquareMap, "sli2", w, cfg, ops, QuadNonlinearity.SQUARE)


def sli2_conj_step_info(
    w: SpectralField, cfg: QuadSchemeConfig, ops: OperatorSymbols
) -> tuple[SpectralField, int]:
    """Implicit time-symmetric second-order step for the |w|^2 nonlinearity.

    Trapezoidal counterpart of :func:`li1_conj_step`: both endpoint fields
    contribute half-weighted zero-mode, mean and bracket terms, the endpoint
    terms being the tau-reversed mirror images of the starting ones.  Same
    fixed-point contract as :func:`sli2_step_info`.
    """
    return _lone_step(_ModSquareMap, "sli2", w, cfg, ops, QuadNonlinearity.MODULUS_SQUARE)
