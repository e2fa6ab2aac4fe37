"""Small-grid self-checks wired to the ``selftest`` CLI subcommand.

Every check replays one of the package's load-bearing equivalences, mostly at
N <= 16: scheme steps against brute-force convolution oracles, symmetric
schemes against time reversal, constant data against the zero-mode ODE
integrators, stacked transforms against row-by-row ones and np.fft, the
batched symmetric maps against row-by-row ones, and the serialization round
trips.  The whole battery is meant to run in seconds, as a deployment smoke
test rather than a substitute for the pytest suite.
"""
from __future__ import annotations

import math
import os
import tempfile
from typing import Callable

import numpy as np

from .cubic import (
    CubicScheme,
    CubicSchemeConfig,
    _NonresonantMap,
    nrli1_step,
    nrsli2_step_info,
    strang_step,
)
from .harness import Equation, SweepRecord, _norm_diff, read_records_csv, write_records_csv
from .oracles import (
    band_limit,
    cubic_nrli1_oracle_step,
    euler_zero_mode_square,
    quad_conj_oracle_step,
    quad_square_oracle_step,
    rotation_zero_mode_cubic,
    trapezoid_zero_mode_cubic,
    trapezoid_zero_mode_square,
)
from .quadratic import (
    QuadNonlinearity,
    QuadSchemeConfig,
    _ModSquareMap,
    _SquareMap,
    _Stage,
    li1_conj_step,
    li1_step,
    sli2_conj_step_info,
    sli2_step_info,
)
from .spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    coeffs_from_values,
    field_from_text,
    field_to_text,
    phi1,
    random_initial_data,
    values_from_coeffs,
)

__all__ = ["run_selftest", "CheckResult"]

CheckResult = tuple[str, bool, str]


def _constant_field(grid: TorusGrid, value: complex) -> SpectralField:
    coeffs = np.zeros(grid.n_modes, dtype=complex)
    coeffs[grid.n_modes // 2] = value
    return SpectralField(grid, coeffs)


def _check_quadratic_oracles() -> str:
    eps, tau = 0.5, 0.1
    worst = 0.0
    for n, k in ((8, 1), (16, 3)):
        grid = TorusGrid(n)
        ops = OperatorSymbols.build(grid, tau)
        cfg_sq = QuadSchemeConfig(eps, tau)
        cfg_cj = QuadSchemeConfig(eps, tau, QuadNonlinearity.MODULUS_SQUARE)
        for seed in range(5):
            w = band_limit(random_initial_data(grid, 1.0, seed), k)
            worst = max(worst, _norm_diff(li1_step(w, cfg_sq, ops),
                                          quad_square_oracle_step(w, eps, tau), 1.0))
            worst = max(worst, _norm_diff(li1_conj_step(w, cfg_cj, ops),
                                          quad_conj_oracle_step(w, eps, tau), 1.0))
    if worst > 1e-10:
        raise AssertionError(f"worst H1 gap {worst:.3e} exceeds 1e-10")
    return f"worst H1 gap {worst:.1e}"


def _check_cubic_oracle() -> str:
    eps, tau = 0.5, 0.1
    worst = 0.0
    for n in (8, 12, 16):
        grid = TorusGrid(n)
        ops = OperatorSymbols.build(grid, tau)
        cfg = CubicSchemeConfig(eps, tau, CubicScheme.NRLI1)
        for seed in range(3):
            w = random_initial_data(grid, 1.0, seed)
            worst = max(worst, _norm_diff(nrli1_step(w, cfg, ops),
                                          cubic_nrli1_oracle_step(w, eps, tau), 1.0))
    if worst > 1e-10:
        raise AssertionError(f"worst H1 gap {worst:.3e} exceeds 1e-10")
    return f"worst H1 gap {worst:.1e}"


def _round_trip_residual(step: Callable, cfg_fwd, cfg_bwd, ops_fwd, ops_bwd, w) -> float:
    # step returns (field, Picard count), as the implicit maps do
    forward, _ = step(w, cfg_fwd, ops_fwd)
    return _norm_diff(step(forward, cfg_bwd, ops_bwd)[0], w, 1.0)


def _check_symmetry() -> str:
    grid = TorusGrid(16)
    eps, tau, tol = 0.5, 0.05, 1e-12
    ops_f = OperatorSymbols.build(grid, tau)
    ops_b = OperatorSymbols.build(grid, -tau)
    worst = 0.0
    for seed in range(3):
        w = random_initial_data(grid, 1.0, seed)
        for step, nonlin in ((sli2_step_info, QuadNonlinearity.SQUARE),
                             (sli2_conj_step_info, QuadNonlinearity.MODULUS_SQUARE)):
            cf = QuadSchemeConfig(eps, tau, nonlin, fp_tol=tol)
            cb = QuadSchemeConfig(eps, -tau, nonlin, fp_tol=tol)
            worst = max(worst, _round_trip_residual(step, cf, cb, ops_f, ops_b, w))
        cf = CubicSchemeConfig(eps, tau, CubicScheme.NRSLI2, fp_tol=tol)
        cb = CubicSchemeConfig(eps, -tau, CubicScheme.NRSLI2, fp_tol=tol)
        worst = max(worst, _round_trip_residual(nrsli2_step_info, cf, cb, ops_f, ops_b, w))
    if worst > 10 * tol:
        raise AssertionError(f"round-trip residual {worst:.3e} exceeds {10 * tol:.0e}")
    # the explicit one-endpoint map must NOT pass the same gate, or the
    # round trip is vacuous
    w = random_initial_data(grid, 1.0, 5)
    cf = QuadSchemeConfig(eps, tau)
    cb = QuadSchemeConfig(eps, -tau)
    asym = _round_trip_residual(lambda *a: (li1_step(*a), None), cf, cb, ops_f, ops_b, w)
    if asym < 1e-6:
        raise AssertionError(f"li1 round trip suspiciously tight: {asym:.3e}")
    return f"residual {worst:.1e}, one-endpoint control {asym:.1e}"


def _check_zero_mode_reductions() -> str:
    grid = TorusGrid(8)
    eps, tau = 0.5, 0.1
    ops = OperatorSymbols.build(grid, tau)
    v0 = 0.6 - 0.4j
    w = _constant_field(grid, v0)
    n0 = grid.n_modes // 2
    checks = [
        (li1_step(w, QuadSchemeConfig(eps, tau), ops).coeffs[n0],
         euler_zero_mode_square(v0, eps, tau)),
        (sli2_step_info(w, QuadSchemeConfig(eps, tau), ops)[0].coeffs[n0],
         trapezoid_zero_mode_square(v0, eps, tau)),
        (nrsli2_step_info(w, CubicSchemeConfig(eps, tau, CubicScheme.NRSLI2), ops)[0].coeffs[n0],
         trapezoid_zero_mode_cubic(v0, eps, tau)),
        (strang_step(w, CubicSchemeConfig(eps, tau, CubicScheme.STRANG), ops).coeffs[n0],
         rotation_zero_mode_cubic(v0, eps, tau)),
    ]
    worst = max(abs(got - want) for got, want in checks)
    if worst > 1e-12:
        raise AssertionError(f"zero-mode mismatch {worst:.3e} exceeds 1e-12")
    return f"worst mismatch {worst:.1e}"


def _check_phi1_identity() -> str:
    rng = np.random.default_rng(12)
    zs = rng.uniform(-30, 30, 40) + 1j * rng.uniform(-30, 30, 40)
    worst = 0.0
    for z in zs:
        lhs = z * phi1(z)
        rhs = np.expm1(z.real) * math.cos(z.imag) - 2 * math.sin(z.imag / 2) ** 2
        rhs = rhs + 1j * math.exp(z.real) * math.sin(z.imag)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    if worst > 1e-13:
        raise AssertionError(f"phi1 identity residual {worst:.3e}")
    return f"residual {worst:.1e}"


# a two-factor stage of degree-2 products and a three-factor one mixing
# degrees 3 and 2: at power-of-two N the stage skips the pair's relabelling
_STAGES = (((0, 0), (0, 1)), ((0, 0, 1), (0, 0, 2), (1, 2)))


def _check_stacked_transforms() -> str:
    # the steppers transform all factors of a product stage in one call; on a
    # numpy whose FFT treats a stack differently from lone rows, that would
    # change the numbers.  The pair calls numpy's FFT kernels directly, so
    # each row must also equal the public np.fft formulation; and a product
    # stage, relabel-free at power-of-two N, must give the pair's spectra
    sizes = (16, 96, 128, 1024)
    for n in sizes:
        grid = TorusGrid(n)
        stack = np.stack([random_initial_data(grid, 1.0, seed).coeffs for seed in range(4)])
        vals = values_from_coeffs(stack, grid)
        back = coeffs_from_values(vals, grid)
        for row in range(len(stack)):
            if not (np.array_equal(vals[row], values_from_coeffs(stack[row], grid))
                    and np.array_equal(back[row], coeffs_from_values(vals[row], grid))):
                raise AssertionError(
                    f"row {row} of a (4, {n}) stack differs from its lone transform"
                )
            want_vals = np.fft.ifft(np.fft.ifftshift(stack[row] * grid._grid_phase)) * n
            want_back = grid._grid_phase * np.fft.fftshift(np.fft.fft(want_vals)) / n
            if not (vals[row].tobytes() == want_vals.tobytes()
                    and back[row].tobytes() == want_back.tobytes()):
                raise AssertionError(
                    f"row {row} of a (4, {n}) stack differs from the np.fft formulation"
                )
        for products in _STAGES:
            stage = _Stage(1 + max(map(max, products)), products, (n,), grid)
            stage.factors[...] = stack[:len(stage.factors)]
            for indices, got in zip(products, stage()):
                prod = vals[indices[0]] * vals[indices[1]]
                for i in indices[2:]:
                    prod = prod * vals[i]
                if got.tobytes() != coeffs_from_values(prod, grid).tobytes():
                    raise AssertionError(
                        f"product {indices} of a stage at N = {n} differs from the public pair"
                    )
    return (f"(4, N) stacks at N = {', '.join(map(str, sizes))}, rows as np.fft gives them;"
            " product stages as the public pair gives them")


def _check_batched_maps() -> str:
    # reference trajectories step as rows of one stack; each row, with its
    # own eps and step, must come out as the map applied to it alone
    grid = TorusGrid(16)
    rows = [(0.5, 0.05, 3), (0.9, -0.02, 267), (0.2, 0.01, 11)]
    fields = [random_initial_data(grid, 1.0, seed) for _, _, seed in rows]
    ops = [OperatorSymbols.build(grid, tau) for _, tau, _ in rows]
    stacked = OperatorSymbols.stack(ops)
    eps = tuple(e for e, _, _ in rows)
    maps = [
        ("sli2", sli2_step_info, _SquareMap,
         lambda e, t: QuadSchemeConfig(e, t, QuadNonlinearity.SQUARE)),
        ("sli2_conj", sli2_conj_step_info, _ModSquareMap,
         lambda e, t: QuadSchemeConfig(e, t, QuadNonlinearity.MODULUS_SQUARE)),
        ("nrsli2", nrsli2_step_info, _NonresonantMap,
         lambda e, t: CubicSchemeConfig(e, t, CubicScheme.NRSLI2)),
    ]
    for name, step, prepared, config in maps:
        c = np.stack([w.coeffs for w in fields])
        out, iters = prepared(eps, stacked, 1e-12, 100)(c)
        for r, (w, o) in enumerate(zip(fields, ops)):
            lone, lone_iters = step(w, config(eps[r], o.tau), o)
            if out[r].tobytes() != lone.coeffs.tobytes() or iters[r] != lone_iters:
                raise AssertionError(
                    f"{name}: row {r} of a (3, 16) stack differs from its lone step"
                )
    return "sli2, sli2_conj, nrsli2 on a (3, 16) stack of mixed eps and steps"


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
    ("time-reversal symmetry of two-endpoint maps", _check_symmetry),
    ("constant-data zero-mode reductions", _check_zero_mode_reductions),
    ("phi1 against expm1 decomposition", _check_phi1_identity),
    ("stacked transforms and product stages match row-by-row and np.fft, bit for bit",
     _check_stacked_transforms),
    ("batched symmetric maps match one-row calls bit for bit", _check_batched_maps),
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
