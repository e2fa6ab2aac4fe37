"""The package's self-checks, wired to the ``selftest`` CLI subcommand.

This is the one copy of each check of the package's load-bearing
equivalences: scheme steps against brute-force convolution oracles, nrli1
minus os18 against the displayed g/h correction, the two-endpoint maps
against time reversal (and the one-endpoint maps as its negative controls),
constant data against the zero-mode ODE integrators, stacked transforms
against row-by-row ones and np.fft, the batched maps of every scheme against
row-by-row ones, and the serialization round trips.  Acceptance criteria 1-4
and 9 call their check and criterion 8 runs the battery, which takes about two
seconds.  A failing check names the map and the input of its worst case.
"""
from __future__ import annotations

import math
import os
import tempfile
from itertools import product
from typing import Callable

import numpy as np

from .cubic import (
    CubicScheme,
    CubicSchemeConfig,
    _NonresonantMap,
    g_zero_mode,
    h_field,
    nrli1_step,
    nrsli2_step_info,
    os18_step,
    strang_step,
)
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
from .quadratic import (
    QuadNonlinearity,
    QuadSchemeConfig,
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


def _check_quadratic_oracles() -> str:
    eps, tau = 0.5, 0.1
    maps = (("li1", li1_step, QuadNonlinearity.SQUARE, quad_square_oracle_step),
            ("li1_conj", li1_conj_step, QuadNonlinearity.MODULUS_SQUARE, quad_conj_oracle_step))
    cases: _Cases = []
    # the widest band K whose pair products stay on the grid: 2K <= N/2 - 1
    for n, band in ((8, 1), (16, 3)):
        grid = TorusGrid(n)
        ops = OperatorSymbols.build(grid, tau)
        for theta, seed in product((0.0, 1.0), range(50)):
            w = band_limit(random_initial_data(grid, theta, seed), band)
            for name, step, nonlinearity, oracle in maps:
                got = step(w, QuadSchemeConfig(eps, tau, nonlinearity), ops)
                cases.append((_norm_diff(got, oracle(w, eps, tau), 1.0),
                              f"{name} N={n} theta={theta:g} seed={seed}"))
    return _below(cases, 1e-10, "H1 gap")


def _check_cubic_oracle() -> str:
    eps, tau = 0.5, 0.1
    cfg = CubicSchemeConfig(eps, tau, CubicScheme.NRLI1)
    cases: _Cases = []
    # full band, so the oracle's triple sums wrap around the grid
    for n in (8, 12, 16):
        grid = TorusGrid(n)
        ops = OperatorSymbols.build(grid, tau)
        for theta, seed in product((0.0, 1.0), range(25)):
            w = random_initial_data(grid, theta, seed)
            got = nrli1_step(w, cfg, ops)
            cases.append((_norm_diff(got, cubic_nrli1_oracle_step(w, eps, tau), 1.0),
                          f"nrli1 N={n} theta={theta:g} seed={seed}"))
    return _below(cases, 1e-10, "H1 gap")


def _check_correction_identity() -> str:
    # nrli1 = os18 - 2i eps^2 tau g0 e^{i tau dx^2} w + i eps^2 tau e^{i tau dx^2} h(w)
    eps, tau = 0.5, 0.1
    grid = TorusGrid(32)
    ops = OperatorSymbols.build(grid, tau)
    nrli1 = CubicSchemeConfig(eps, tau, CubicScheme.NRLI1)
    os18 = CubicSchemeConfig(eps, tau, CubicScheme.OS18)
    cases: _Cases = []
    for theta, seed in product((0.0, 1.0), range(50)):
        w = random_initial_data(grid, theta, seed)
        diff = nrli1_step(w, nrli1, ops).coeffs - os18_step(w, os18, ops).coeffs
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


def _full_step_gh(w: SpectralField, cfg: CubicSchemeConfig, ops: OperatorSymbols) -> SpectralField:
    u, _ = _FullStepGH((cfg.eps,), ops, cfg.fp_tol, cfg.fp_max_iter).nrsli2(w.coeffs)
    return SpectralField(w.grid, u)


def _check_symmetry() -> str:
    eps, tau, tol = 0.5, 0.05, 1e-12
    modsq = QuadNonlinearity.MODULUS_SQUARE
    # map name: (step, its config at a signed step)
    symmetric = {
        "sli2": (lambda *a: sli2_step_info(*a)[0],
                 lambda t: QuadSchemeConfig(eps, t, fp_tol=tol)),
        "sli2_conj": (lambda *a: sli2_conj_step_info(*a)[0],
                      lambda t: QuadSchemeConfig(eps, t, modsq, fp_tol=tol)),
        "nrsli2": (lambda *a: nrsli2_step_info(*a)[0],
                   lambda t: CubicSchemeConfig(eps, t, CubicScheme.NRSLI2, fp_tol=tol)),
    }
    # the negative controls: were they to pass the same gate, it would be vacuous
    one_endpoint = {
        "li1": (li1_step, lambda t: QuadSchemeConfig(eps, t)),
        "nrli1": (nrli1_step, lambda t: CubicSchemeConfig(eps, t, CubicScheme.NRLI1)),
        "os18": (os18_step, lambda t: CubicSchemeConfig(eps, t, CubicScheme.OS18)),
        "nrsli2 with full-step g/h": (
            _full_step_gh, lambda t: CubicSchemeConfig(eps, t, CubicScheme.NRSLI2)),
    }
    cases: _Cases = []
    controls = []
    for n in (16, 32):
        grid = TorusGrid(n)
        ops_f, ops_b = OperatorSymbols.build(grid, tau), OperatorSymbols.build(grid, -tau)

        def round_trip(step, config, w):
            return _norm_diff(step(step(w, config(tau), ops_f), config(-tau), ops_b), w, 1.0)

        for seed in range(20):
            w = random_initial_data(grid, 1.0, seed)
            cases += [(round_trip(step, config, w), f"{name} N={n} seed={seed}")
                      for name, (step, config) in symmetric.items()]
        w = random_initial_data(grid, 1.0, 5)
        # li1's round trip drifts at O(tau^2): it must also clear tau^2 eps |w|_1^2 / 10
        li1_floor = max(1e-6, tau**2 * eps * sobolev_norm(w, 1.0) ** 2 / 10)
        controls += [(round_trip(step, config, w), li1_floor if name == "li1" else 1e-6,
                      f"{name} N={n} seed=5")
                     for name, (step, config) in one_endpoint.items()]
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
    for n, eps, tau, v0 in _ZERO_MODE_INPUTS:
        grid = TorusGrid(n)
        ops = OperatorSymbols.build(grid, tau)
        w = _constant_field(grid, v0)
        square = QuadSchemeConfig(eps, tau)
        modsq = QuadSchemeConfig(eps, tau, QuadNonlinearity.MODULUS_SQUARE)

        def cubic(scheme):
            return CubicSchemeConfig(eps, tau, scheme)

        steps = (
            ("li1", li1_step(w, square, ops), euler_zero_mode_square, explicit),
            ("li1_conj", li1_conj_step(w, modsq, ops), euler_zero_mode_modsq, explicit),
            ("nrli1", nrli1_step(w, cubic(CubicScheme.NRLI1), ops), euler_zero_mode_cubic,
             explicit),
            ("os18", os18_step(w, cubic(CubicScheme.OS18), ops), euler_zero_mode_cubic, explicit),
            ("strang", strang_step(w, cubic(CubicScheme.STRANG), ops), rotation_zero_mode_cubic,
             explicit),
            ("sli2", sli2_step_info(w, square, ops)[0], trapezoid_zero_mode_square, implicit),
            ("sli2_conj", sli2_conj_step_info(w, modsq, ops)[0], trapezoid_zero_mode_modsq,
             implicit),
            ("nrsli2", nrsli2_step_info(w, cubic(CubicScheme.NRSLI2), ops)[0],
             trapezoid_zero_mode_cubic, implicit),
        )
        for name, out, integrator, cases in steps:
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
            stage = _Stage(products, (n,), grid)
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
    # every trajectory steps as a row of a stack through the method of its
    # scheme's name; each row, with its own eps and step, must come out as
    # the public stepper applied to it alone.  The (16, 1024) stack is the
    # smallest whose temporaries numpy may reuse in place (256 KiB)
    inputs = [(16, [(0.5, 0.05, 3), (0.9, -0.02, 267), (0.2, 0.01, 11)]),
              (1024, [(0.2 + 0.05 * r, 0.01 * (1 + r % 3), r) for r in range(16)])]
    nonlinearity = {Equation.QUAD_SQUARE: QuadNonlinearity.SQUARE,
                    Equation.QUAD_MODSQ: QuadNonlinearity.MODULUS_SQUARE}
    for n, rows in inputs:
        grid = TorusGrid(n)
        fields = [random_initial_data(grid, 1.0, seed) for _, _, seed in rows]
        ops = [OperatorSymbols.build(grid, tau) for _, tau, _ in rows]
        stacked = OperatorSymbols.stack(ops)
        eps = tuple(e for e, _, _ in rows)
        for (equation, scheme), (prepared, step) in _SCHEMES.items():
            if equation is Equation.CUBIC:
                config, kind = CubicSchemeConfig, CubicScheme(scheme)
            else:
                config, kind = QuadSchemeConfig, nonlinearity[equation]
            c = np.stack([w.coeffs for w in fields])
            out, iters = getattr(prepared(eps, stacked, 1e-12, 100), scheme)(c)
            implicit = iters is not None
            for r, (w, o) in enumerate(zip(fields, ops)):
                lone = step(w, config(eps[r], o.tau, kind), o)
                lone, lone_iters = lone if implicit else (lone, None)
                differs = out[r].tobytes() != lone.coeffs.tobytes()
                if differs or implicit and iters[r] != lone_iters:
                    raise AssertionError(
                        f"{equation.value} {scheme}: row {r} of a {c.shape} stack differs "
                        "from its lone step"
                    )
    return ("every scheme's rows method on (3, 16) and (16, 1024) stacks of mixed eps "
            "and steps")


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
