"""The package's self-checks, wired to the ``selftest`` CLI subcommand.

This is the one copy of each check of the package's load-bearing
equivalences: scheme steps against brute-force convolution oracles, nrli1
minus os18 against the displayed g/h correction, the two-endpoint maps
against time reversal (and the one-endpoint maps as its negative controls),
constant data against the zero-mode ODE integrators, stacked transforms
against row-by-row ones and np.fft, the batched maps of every scheme against
row-by-row ones, and the serialization round trips.  Each check runs on the
union of the inputs of the unit tests it replaced, and steps every scheme
through the method of its name on the map the engine's table ``_SCHEMES``
gives, built as a trajectory builds it (:func:`_step`).  Acceptance criteria
1-4 and 9 call their check and criterion 8 runs the battery, which takes
about two seconds.  A failing check names the map and the input of its worst
case.
"""
from __future__ import annotations

import math
import os
import tempfile
from itertools import product
from typing import Callable

import numpy as np

from .cubic import _NonresonantMap, g_zero_mode, h_field
from .harness import (
    Equation,
    SweepRecord,
    _SCHEMES,
    _norm_diff,
    read_records_csv,
    write_records_csv,
)
from .oracles import (
    band_limit,
    cubic_nrli1_oracle_step,
    euler_zero_mode_cubic,
    euler_zero_mode_modsq,
    euler_zero_mode_square,
    quad_conj_oracle_step,
    quad_square_oracle_step,
    rotation_zero_mode_cubic,
    trapezoid_zero_mode_cubic,
    trapezoid_zero_mode_modsq,
    trapezoid_zero_mode_square,
)
from .quadratic import _Stage
from .spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    coeffs_from_values,
    field_from_text,
    field_to_text,
    phi1,
    random_initial_data,
    sobolev_norm,
    values_from_coeffs,
)

__all__ = ["run_selftest", "CheckResult"]

CheckResult = tuple[str, bool, str]

# a check's residuals as (value, "map at its input") pairs
_Cases = list[tuple[float, str]]


def _below(cases: _Cases, tol: float, what: str) -> str:
    """Raise naming the worst case unless every residual is below tol.

    A NaN residual counts as the worst.
    """
    worst, case = max(cases, key=lambda c: math.inf if math.isnan(c[0]) else c[0])
    if not worst < tol:
        raise AssertionError(f"{case}: {what} {worst:.3e} is not below {tol:.0e}")
    return f"{what} {worst:.1e} at {case}"


def _constant_field(grid: TorusGrid, value: complex) -> SpectralField:
    coeffs = np.zeros(grid.n_modes, dtype=complex)
    coeffs[grid.n_modes // 2] = value
    return SpectralField(grid, coeffs)


def _step(equation: Equation, scheme: str, w: SpectralField, eps: float, ops: OperatorSymbols,
          fp_tol: float = 1e-12, kind: type | None = None) -> tuple[SpectralField, int | None]:
    """One step of w through the method of the scheme's name on its map of ``_SCHEMES``.

    The map, or ``kind`` in its place, is built for w alone from eps and the
    symbols ops, as a trajectory's lone row steps.  Returns the new field with
    its Picard count, None for an explicit scheme.
    """
    step = (kind or _SCHEMES[(equation, scheme)][0])((eps,), ops, fp_tol, 100)
    c, iters = getattr(step, scheme)(w.coeffs)
    return SpectralField(w.grid, c), None if iters is None else iters[0]


def _check_quadratic_oracles() -> str:
    eps, tau = 0.5, 0.1
    maps = (("li1", Equation.QUAD_SQUARE, quad_square_oracle_step),
            ("li1_conj", Equation.QUAD_MODSQ, quad_conj_oracle_step))
    cases: _Cases = []
    # the widest band K whose pair products stay on the grid: 2K <= N/2 - 1
    for n, band in ((8, 1), (16, 3)):
        grid = TorusGrid(n)
        ops = OperatorSymbols.build(grid, tau)
        for theta, seed in product((0.0, 1.0), range(50)):
            w = band_limit(random_initial_data(grid, theta, seed), band)
            for name, equation, oracle in maps:
                got, _ = _step(equation, "li1", w, eps, ops)
                cases.append((_norm_diff(got, oracle(w, eps, tau), 1.0),
                              f"{name} N={n} theta={theta:g} seed={seed}"))
    return _below(cases, 1e-10, "H1 gap")


def _check_cubic_oracle() -> str:
    eps, tau = 0.5, 0.1
    cases: _Cases = []
    # full band, so the oracle's triple sums wrap around the grid
    for n in (8, 12, 16):
        grid = TorusGrid(n)
        ops = OperatorSymbols.build(grid, tau)
        for theta, seed in product((0.0, 1.0), range(25)):
            w = random_initial_data(grid, theta, seed)
            got, _ = _step(Equation.CUBIC, "nrli1", w, eps, ops)
            cases.append((_norm_diff(got, cubic_nrli1_oracle_step(w, eps, tau), 1.0),
                          f"nrli1 N={n} theta={theta:g} seed={seed}"))
    return _below(cases, 1e-10, "H1 gap")


def _check_correction_identity() -> str:
    # nrli1 = os18 - 2i eps^2 tau g0 e^{i tau dx^2} w + i eps^2 tau e^{i tau dx^2} h(w)
    eps, tau = 0.5, 0.1
    grid = TorusGrid(32)
    ops = OperatorSymbols.build(grid, tau)
    cases: _Cases = []
    for theta, seed in product((0.0, 1.0), range(50)):
        w = random_initial_data(grid, theta, seed)
        diff = (_step(Equation.CUBIC, "nrli1", w, eps, ops)[0].coeffs
                - _step(Equation.CUBIC, "os18", w, eps, ops)[0].coeffs)
        correction = (
            -2j * eps * eps * tau * g_zero_mode(w, ops) * (ops.prop * w.coeffs)
            + 1j * eps * eps * tau * ops.prop * h_field(w, ops).coeffs
        )
        # the H1 norm bounds every coefficient's modulus
        cases.append((sobolev_norm(SpectralField(grid, diff - correction), 1.0),
                      f"nrli1 - os18 N=32 theta={theta:g} seed={seed}"))
    return _below(cases, 1e-13, "H1 residual")


class _FullStepGH(_NonresonantMap):
    """nrsli2 with the full-step g/h multiplier 1 - phi1(2 i tau m^2) on both endpoints.

    The naive transcription of the two-endpoint relation: not time-symmetric.
    """

    def __init__(self, eps: tuple, ops: OperatorSymbols, tol: float, max_iter: int) -> None:
        super().__init__(eps, ops, tol, max_iter)
        self.mult_n = self.mult_u = ops.one_minus_phi1_2


def _check_symmetry() -> str:
    eps, tau, tol = 0.5, 0.05, 1e-12
    # map name: (equation, scheme, the map class in place of the scheme's)
    symmetric = {
        "sli2": (Equation.QUAD_SQUARE, "sli2", None),
        "sli2_conj": (Equation.QUAD_MODSQ, "sli2", None),
        "nrsli2": (Equation.CUBIC, "nrsli2", None),
    }
    # the negative controls: were they to pass the same gate, it would be vacuous
    one_endpoint = {
        "li1": (Equation.QUAD_SQUARE, "li1", None),
        "nrli1": (Equation.CUBIC, "nrli1", None),
        "os18": (Equation.CUBIC, "os18", None),
        "nrsli2 with full-step g/h": (Equation.CUBIC, "nrsli2", _FullStepGH),
    }
    cases: _Cases = []
    controls = []
    for n in (16, 32):
        grid = TorusGrid(n)
        ops_f, ops_b = OperatorSymbols.build(grid, tau), OperatorSymbols.build(grid, -tau)

        def round_trip(equation, scheme, kind, w):
            there, _ = _step(equation, scheme, w, eps, ops_f, tol, kind)
            back, _ = _step(equation, scheme, there, eps, ops_b, tol, kind)
            return _norm_diff(back, w, 1.0)

        for seed in range(20):
            w = random_initial_data(grid, 1.0, seed)
            cases += [(round_trip(*key, w), f"{name} N={n} seed={seed}")
                      for name, key in symmetric.items()]
        w = random_initial_data(grid, 1.0, 5)
        # li1's round trip drifts at O(tau^2): it must also clear tau^2 eps |w|_1^2 / 10
        li1_floor = max(1e-6, tau**2 * eps * sobolev_norm(w, 1.0) ** 2 / 10)
        controls += [(round_trip(*key, w), li1_floor if name == "li1" else 1e-6,
                      f"{name} N={n} seed=5")
                     for name, key in one_endpoint.items()]
    detail = _below(cases, 10 * tol, "round trip")
    for residual, floor, case in controls:
        if not residual >= floor:
            raise AssertionError(f"{case}: one-endpoint round trip {residual:.3e} is below "
                                 f"{floor:.1e}, so the symmetry gate is vacuous")
    return f"{detail}; one-endpoint controls >= {min(r for r, _, _ in controls):.1e}"


# (N, eps, tau, v0) of the constant data
_ZERO_MODE_INPUTS = (
    (8, 0.5, 0.1, 0.6 - 0.4j), (16, 0.5, 0.1, 0.7 - 0.3j), (8, 0.5, 0.1, 0.8 - 0.2j),
    (8, 0.7, 0.15, 0.4 + 0.9j), (8, 0.6, 0.2, -0.3 + 0.7j), (8, 0.5, 0.1, 0.9 - 0.4j),
    (8, 0.7, 0.25, -0.6 + 0.8j),
)


def _check_zero_mode_reductions() -> str:
    # constant data stay constant, and the zero mode takes one step of its ODE's
    # integrator: Euler for the explicit maps, the trapezoid rule for the
    # two-endpoint ones and the exact rotation for strang
    explicit: _Cases = []
    implicit: _Cases = []
    steps = (
        ("li1", Equation.QUAD_SQUARE, "li1", euler_zero_mode_square, explicit),
        ("li1_conj", Equation.QUAD_MODSQ, "li1", euler_zero_mode_modsq, explicit),
        ("nrli1", Equation.CUBIC, "nrli1", euler_zero_mode_cubic, explicit),
        ("os18", Equation.CUBIC, "os18", euler_zero_mode_cubic, explicit),
        ("strang", Equation.CUBIC, "strang", rotation_zero_mode_cubic, explicit),
        ("sli2", Equation.QUAD_SQUARE, "sli2", trapezoid_zero_mode_square, implicit),
        ("sli2_conj", Equation.QUAD_MODSQ, "sli2", trapezoid_zero_mode_modsq, implicit),
        ("nrsli2", Equation.CUBIC, "nrsli2", trapezoid_zero_mode_cubic, implicit),
    )
    for n, eps, tau, v0 in _ZERO_MODE_INPUTS:
        grid = TorusGrid(n)
        ops = OperatorSymbols.build(grid, tau)
        w = _constant_field(grid, v0)
        for name, equation, scheme, integrator, cases in steps:
            out, _ = _step(equation, scheme, w, eps, ops)
            want = _constant_field(grid, integrator(v0, eps, tau))
            cases.append((float(np.max(np.abs(out.coeffs - want.coeffs))),
                          f"{name} N={n} eps={eps:g} tau={tau:g} v0={v0:g}"))
    return (f"explicit {_below(explicit, 1e-14, 'mismatch')}; "
            f"implicit {_below(implicit, 1e-12, 'mismatch')}")


def _check_phi1_identity() -> str:
    rng = np.random.default_rng(12)
    zs = rng.uniform(-30, 30, 40) + 1j * rng.uniform(-30, 30, 40)
    cases: _Cases = []
    for z in zs:
        lhs = z * phi1(z)
        rhs = np.expm1(z.real) * math.cos(z.imag) - 2 * math.sin(z.imag / 2) ** 2
        rhs = rhs + 1j * math.exp(z.real) * math.sin(z.imag)
        cases.append((abs(lhs - rhs) / max(1.0, abs(rhs)), f"phi1 z={z:.6g}"))
    return _below(cases, 1e-13, "residual")


# a two-factor stage of degree-2 products and a three-factor one mixing
# degrees 3 and 2, on one field's factors; and products of degree 2 and 3
# on a (2, N) batch.  At power-of-two N a stage half-rolls the spectra of
# the even-degree products and leaves the others as they are; at any other
# N, such as 6, 12 and 96, whose pocketfft plans have radix-3 passes, it
# takes the public pair
_STAGES = (((0, 0), (0, 1)), ((0, 0, 1), (0, 0, 2), (1, 2)))
_MIXED_PRODUCTS = ((0, 0), (1, 2), (0, 0, 2), (2, 1, 0))


def _complex_normal(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _check_pair(stack: np.ndarray, grid: TorusGrid) -> None:
    """Raise unless each row of the stack transforms as it does alone and as np.fft does."""
    n = grid.n_modes
    vals = values_from_coeffs(stack, grid)
    back = coeffs_from_values(vals, grid)
    out = np.empty_like(stack)
    if values_from_coeffs(stack, grid, out=out) is not out or out.tobytes() != vals.tobytes():
        raise AssertionError(f"a {stack.shape} stack transformed into out= differs")
    for row in np.ndindex(stack.shape[:-1]):
        if not (vals[row].tobytes() == values_from_coeffs(stack[row], grid).tobytes()
                and back[row].tobytes() == coeffs_from_values(vals[row], grid).tobytes()):
            raise AssertionError(
                f"row {row} of a {stack.shape} stack differs from its lone transform"
            )
        want_vals = np.fft.ifft(np.fft.ifftshift(stack[row] * grid._grid_phase)) * n
        want_back = grid._grid_phase * np.fft.fftshift(np.fft.fft(want_vals)) / n
        if not (vals[row].tobytes() == want_vals.tobytes()
                and back[row].tobytes() == want_back.tobytes()):
            raise AssertionError(
                f"row {row} of a {stack.shape} stack differs from the np.fft formulation"
            )


def _check_stage(products: tuple[tuple[int, ...], ...], factors: np.ndarray,
                 grid: TorusGrid, bits: bool = True) -> None:
    """Raise unless a stage on the (F, ..., N) factors gives the public pair's products.

    With bits False the products need only equal the pair's in value.
    """
    stage = _Stage(products, factors.shape[1:], grid)
    stage.factors[...] = factors
    want = np.empty((len(products),) + factors.shape[1:], dtype=np.complex128)
    for r, indices in enumerate(products):
        for b in np.ndindex(factors.shape[1:-1]):
            prod, *rest = [values_from_coeffs(factors[(i,) + b], grid) for i in indices]
            for vals in rest:
                prod = prod * vals
            want[(r,) + b] = coeffs_from_values(prod, grid)
    got = stage()
    if not (got.tobytes() == want.tobytes() if bits else np.array_equal(got, want)):
        raise AssertionError(f"a stage of {products} on {factors.shape} factors at "
                             f"N = {grid.n_modes} differs from the public pair")


def _check_stacked_transforms() -> str:
    # the steppers transform all factors of a product stage in one call; on a
    # numpy whose FFT treats a stack differently from lone rows, that would
    # change the numbers.  The pair calls numpy's FFT kernels directly, so
    # each row must also equal the public np.fft formulation; and a product
    # stage, relabel-free at power-of-two N, must give the pair's spectra
    pair_sizes = (4, 6, 16, 96, 128, 1024)
    stage_sizes = (6, 12, 96) + tuple(2**k for k in range(2, 13))
    for n in pair_sizes:
        grid = TorusGrid(n)
        data = np.stack([random_initial_data(grid, 1.0, seed).coeffs for seed in range(4)])
        # the last has the (F, B, N) shape of a lockstep product stage
        for stack in (data, _complex_normal(500 + n, (3, n)), _complex_normal(600 + n, (3, 2, n))):
            _check_pair(stack, grid)
        for products in _STAGES:
            _check_stage(products, data[:1 + max(map(max, products))], grid)
    for n in stage_sizes:
        _check_stage(_MIXED_PRODUCTS, _complex_normal(900 + n, (3, 2, n)), TorusGrid(n))
    for n in (16, 128):
        # the single modes -N/2, -1, 0 (a constant field), 1 and N/2 - 1, then
        # one mode in factor 0 beside zero rows in factors 1 and 2.  The values
        # are equal, but some exact zeros of the odd-degree products come out
        # +0 where the public pair writes -0; numbered (product, row, mode l,
        # part), with numpy 2.4 they are
        #   N = 16:  (2, 3, 1, re), (2, 3, 5, im), (3, 1, -7, re), (3, 4, 1, re),
        #            (3, 5, -1, im)
        #   N = 128: (2, 3, -31, im), (3, 3, -61, re), (3, 5, -1, im)
        h = n // 2
        modes = (-h, -1, 0, 1, h - 1)
        sparse = np.zeros((3, len(modes) + 1, n), dtype=np.complex128)
        for b, l in enumerate(modes):
            sparse[:, b, h + l] = (1.0, 0.5 - 0.25j, 2j)
        sparse[0, len(modes), h + 1] = 1.5
        _check_stage(_MIXED_PRODUCTS, sparse, TorusGrid(n), bits=False)
    return (f"(4, N), (3, N) and (3, 2, N) stacks at N = {', '.join(map(str, pair_sizes))}, "
            "rows as np.fft gives them; product stages as the public pair gives them, "
            "also on (2, N) batches at N = 6, 12, 96 and 4 to 4096, and by value on "
            "sparse data at N = 16, 128")


# (eps, step, theta, seed) of each row: mixed strengths and data, both step signs
_ROWS = ((0.5, 0.05, 1.0, 3), (0.9, -0.02, 1.5, 267), (0.2, 0.01, 0.5, 11),
         (0.7, -0.03, 2.0, 61), (0.35, 0.04, 1.0, 5))


def _check_batched_maps() -> str:
    # every trajectory steps as a row of a stack through the method of its
    # scheme's name; each row, with its own eps and step, must come out as
    # the lone map of that row's own symbols gives it.  An implicit scheme's
    # rows must converge at two or more Picard counts, so that rows leave the
    # stack early.  The (16, 1024) stack is the smallest whose temporaries
    # numpy may reuse in place (256 KiB)
    sizes = (6, 16, 128, 1024)
    inputs = [(n, _ROWS) for n in sizes]
    inputs.append((1024, [(0.2 + 0.05 * r, 0.01 * (1 + r % 3), 1.0, r) for r in range(16)]))
    for n, rows in inputs:
        grid = TorusGrid(n)
        fields = [random_initial_data(grid, theta, seed) for _, _, theta, seed in rows]
        ops = [OperatorSymbols.build(grid, tau) for _, tau, _, _ in rows]
        stacked = OperatorSymbols.stack(ops)
        eps = tuple(e for e, _, _, _ in rows)
        c = np.stack([w.coeffs for w in fields])
        for (equation, scheme), (kind, _) in _SCHEMES.items():
            out, iters = getattr(kind(eps, stacked, 1e-12, 100), scheme)(c)
            where = f"{equation.value} {scheme}: a {c.shape} stack"
            if iters is not None and len(set(iters)) < 2:
                raise AssertionError(f"{where} converges at one Picard count {iters[0]}")
            for r, (w, o) in enumerate(zip(fields, ops)):
                lone, lone_iters = _step(equation, scheme, w, eps[r], o)
                if (out[r].tobytes() != lone.coeffs.tobytes()
                        or (iters[r] if iters else None) != lone_iters):
                    raise AssertionError(f"{where}: row {r} differs from its lone step")
    return (f"every scheme's rows method on (5, N) stacks at N = {', '.join(map(str, sizes))}"
            " and a (16, 1024) stack of mixed eps and steps")


def _check_serialization() -> str:
    grid = TorusGrid(16)
    w = random_initial_data(grid, 1.5, 9)
    back = field_from_text(field_to_text(w))
    if not np.array_equal(back.coeffs, w.coeffs):
        raise AssertionError("field text round trip is not bit-exact")

    record = SweepRecord(
        equation=Equation.CUBIC, scheme="nrli1", eps=0.5, tau=0.05, theta=2.0,
        seed=1, n_modes=16, t_final=0.4, error_norm_r=1.0, error=1.25e-3,
        ref_tau=5e-4, wall_seconds=0.01, fp_iter_max=None, fp_iter_mean=None,
    )
    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        write_records_csv(path, [record])
        back_rec = read_records_csv(path)[0]
    finally:
        os.unlink(path)
    if (back_rec.error, back_rec.scheme, back_rec.fp_iter_max) != (
        record.error, record.scheme, None,
    ):
        raise AssertionError("CSV round trip altered a record")
    return "field text and CSV round trips exact"


_CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("quadratic convolution oracles (N=8,16)", _check_quadratic_oracles),
    ("cubic convolution oracle (N=8,12,16)", _check_cubic_oracle),
    ("nrli1 - os18 is the displayed g/h correction (N=32)", _check_correction_identity),
    ("time-reversal symmetry of two-endpoint maps", _check_symmetry),
    ("constant-data zero-mode reductions", _check_zero_mode_reductions),
    ("phi1 against expm1 decomposition", _check_phi1_identity),
    ("stacked transforms and product stages match row-by-row and np.fft, bit for bit",
     _check_stacked_transforms),
    ("batched maps of every scheme match one-row calls bit for bit", _check_batched_maps),
    ("serialization round trips", _check_serialization),
]


def run_selftest() -> list[CheckResult]:
    """Run every check; never raises, failures come back as (name, False, why)."""
    results: list[CheckResult] = []
    for name, check in _CHECKS:
        try:
            detail = check()
            results.append((name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the battery
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
