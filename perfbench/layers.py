"""Layer microbenchmarks: transforms, norms, symbols, initial data and one step.

Every entry is the median over ``SAMPLES`` timed batches after a warm-up, on
one fixed input per grid size: rough (theta = 1) data from the run's seed,
with the rough-trajectory settings tau = 0.01, eps = 0.1 (quadratic) and
eps = 0.25 (cubic).  A batch repeats the call until it lasts at least
``MIN_BATCH_S``, so the clock's resolution does not show.

Picard iteration counts of the implicit steps on that input are exact counts.
``map_us`` is computed, not measured: the implicit step minus its explicit
predictor, divided by the iterations.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from lowreg_nlse import cubic, quadratic, spectral
from lowreg_nlse.cubic import CubicScheme, CubicSchemeConfig
from lowreg_nlse.quadratic import QuadNonlinearity, QuadSchemeConfig
from lowreg_nlse.spectral import OperatorSymbols, TorusGrid

SIZES = (64, 128, 1024)
SAMPLES = 15
MIN_BATCH_S = 2e-3
TAU = 0.01
THETA = 1.0

# implicit stepper -> the explicit stepper it uses as Picard predictor
_IMPLICIT = {
    "quadratic.sli2": "quadratic.li1",
    "quadratic.sli2_conj": "quadratic.li1_conj",
    "cubic.nrsli2": "cubic.nrli1",
}


def median_call_us(fn) -> tuple[float, int]:
    """Median microseconds per call, and the calls per timed batch."""
    for _ in range(3):
        fn()
    batch = 1
    while True:
        started = perf_counter()
        for _ in range(batch):
            fn()
        if perf_counter() - started >= MIN_BATCH_S:
            break
        batch *= 2
    times = []
    for _ in range(SAMPLES):
        started = perf_counter()
        for _ in range(batch):
            fn()
        times.append((perf_counter() - started) / batch)
    return statistics.median(times) * 1e6, batch


def _steppers(w):
    """(name, zero-arg call returning the step result) for all eight steppers."""
    grid = w.grid
    ops = OperatorSymbols.build(grid, TAU)

    sq = QuadSchemeConfig(0.1, TAU, QuadNonlinearity.SQUARE)
    mod = QuadSchemeConfig(0.1, TAU, QuadNonlinearity.MODULUS_SQUARE)
    nrli1, nrsli2, os18, strang = (CubicSchemeConfig(0.25, TAU, scheme) for scheme in (
        CubicScheme.NRLI1, CubicScheme.NRSLI2, CubicScheme.OS18, CubicScheme.STRANG))
    return [
        ("quadratic.li1", lambda: quadratic.li1_step(w, sq, ops)),
        ("quadratic.li1_conj", lambda: quadratic.li1_conj_step(w, mod, ops)),
        ("quadratic.sli2", lambda: quadratic.sli2_step_info(w, sq, ops)),
        ("quadratic.sli2_conj", lambda: quadratic.sli2_conj_step_info(w, mod, ops)),
        ("cubic.nrli1", lambda: cubic.nrli1_step(w, nrli1, ops)),
        ("cubic.nrsli2", lambda: cubic.nrsli2_step_info(w, nrsli2, ops)),
        ("cubic.os18", lambda: cubic.os18_step(w, os18, ops)),
        ("cubic.strang", lambda: cubic.strang_step(w, strang, ops)),
    ]


def layer_table(seed: int) -> list[dict]:
    """One row per metric: name, value, unit, kind, samples, calls per sample."""
    rows = []

    def add(name, value, unit, kind, batch=None):
        rows.append({"name": name, "value": value, "unit": unit, "kind": kind,
                     "samples": SAMPLES if batch else None, "batch": batch})

    for n in SIZES:
        sfx = f".n{n}"
        grid = TorusGrid(n)
        w = spectral.random_initial_data(grid, THETA, seed)
        c = w.coeffs

        def pair():
            spectral.coeffs_from_values(spectral.values_from_coeffs(c, grid), grid)

        def bare_pair():
            np.fft.fft(np.fft.ifft(c))

        for name, fn in (
            ("spectral.transform_pair_us", pair),
            ("spectral.numpy_fft_pair_us", bare_pair),
            ("spectral.sobolev_norm_us", lambda: spectral.sobolev_norm(w, 1.0)),
            ("spectral.symbols_build_us", lambda: OperatorSymbols.build(grid, TAU)),
            ("spectral.initial_data_us",
             lambda: spectral.random_initial_data(grid, THETA, seed)),
        ):
            us, batch = median_call_us(fn)
            add(name + sfx, us, "us", "measured", batch)

        step_us = {}
        for name, fn in _steppers(w):
            us, batch = median_call_us(fn)
            step_us[name] = us
            add(f"{name}.step_us{sfx}", us, "us", "measured", batch)
        iters = {name: fn()[1] for name, fn in _steppers(w) if name in _IMPLICIT}
        for name, predictor in _IMPLICIT.items():
            add(f"{name}.picard_iters{sfx}", iters[name], "count", "count")
            add(f"{name}.map_us{sfx}", (step_us[name] - step_us[predictor]) / iters[name],
                "us", "computed")
    return rows
