"""Brute-force reference implementations used to validate the integrators.

These are deliberately slow, obviously-correct constructions: direct Fourier
double/triple sums with exactly integrated oscillatory weights, scalar
zero-mode recurrences, and a fine RK4 integration of the collocation system in
the twisted variable.  The fast integrators must reproduce them to tight
tolerances; the CLI ``selftest`` subcommand and the acceptance suite both run
these comparisons.

Index conventions match :mod:`lowreg_nlse.spectral`: coefficients ascending in
l = -N/2 .. N/2-1, with mode l stored at index l + N/2.
"""
from __future__ import annotations

import numpy as np

from .spectral import (
    SpectralField,
    coeffs_from_values,
    phi1,
    values_from_coeffs,
)

__all__ = [
    "quad_square_oracle_step",
    "quad_conj_oracle_step",
    "cubic_nrli1_oracle_step",
    "euler_zero_mode_square",
    "euler_zero_mode_modsq",
    "euler_zero_mode_cubic",
    "trapezoid_zero_mode_square",
    "trapezoid_zero_mode_modsq",
    "trapezoid_zero_mode_cubic",
    "rotation_zero_mode_cubic",
    "riccati_zero_mode_square",
    "rk4_reference_step",
    "band_limit",
]


def band_limit(field: SpectralField, k_max: int) -> SpectralField:
    """Zero every mode with |l| > k_max (used to make double-sum comparisons alias-free)."""
    keep = np.abs(field.grid.wavenumbers) <= k_max
    return SpectralField(field.grid, np.where(keep, field.coeffs, 0.0))


# ---------------------------------------------------------------------------
# exact-weight convolution oracles
# ---------------------------------------------------------------------------

def quad_square_oracle_step(w: SpectralField, eps: float, tau: float) -> SpectralField:
    """One exactly-integrated step for the w^2 nonlinearity, as a direct double sum.

    Every pair (l1, l2) carries the weight of the exactly integrated phase
    int_0^tau exp(2 i s l1 l2) ds = tau * phi1(2 i tau l1 l2), which equals tau
    on the zero set l1 l2 = 0.  True index sums (no wrap-around): the
    comparison against the FFT-based scheme is meaningful on band-limited
    fields only.
    """
    grid = w.grid
    n = grid.n_modes
    half = n // 2
    k = grid.wavenumbers
    c = w.coeffs
    conv = np.zeros(n, dtype=np.complex128)
    for i1, l1 in enumerate(k):
        if c[i1] == 0:
            continue
        for i2, l2 in enumerate(k):
            l = l1 + l2
            if -half <= l < half:
                wgt = tau * phi1(2j * tau * float(l1 * l2))
                conv[l + half] += wgt * c[i1] * c[i2]
    v_new = c - 1j * eps * conv
    return SpectralField(grid, np.exp(-1j * tau * (k * k)) * v_new)


def quad_conj_oracle_step(w: SpectralField, eps: float, tau: float) -> SpectralField:
    """One exactly-integrated step for the |w|^2 nonlinearity, as a direct double sum.

    The pair (l1, m) (unconjugated/conjugated index) lands at l = l1 - m with
    weight int_0^tau exp(-2 i s m l) ds = tau * phi1(-2 i tau m l), equal to
    tau on the zero set m l = 0.  Band-limited comparison as above.
    """
    grid = w.grid
    n = grid.n_modes
    half = n // 2
    k = grid.wavenumbers
    c = w.coeffs
    conv = np.zeros(n, dtype=np.complex128)
    for i1, l1 in enumerate(k):
        if c[i1] == 0:
            continue
        for im, m in enumerate(k):
            l = l1 - m
            if -half <= l < half:
                wgt = tau * phi1(-2j * tau * float(m * l))
                conv[l + half] += wgt * c[i1] * np.conj(c[im])
    v_new = c - 1j * eps * conv
    return SpectralField(grid, np.exp(-1j * tau * (k * k)) * v_new)


def cubic_nrli1_oracle_step(w: SpectralField, eps: float, tau: float) -> SpectralField:
    """One non-resonant first-order step for |w|^2 w, as a direct triple sum.

    Quadruple (l; l1, l2, l3) with l = -l1+l2+l3: resonant cells (l2 = l1 or
    l3 = l1, equivalently (l-l2)(l-l3) = 0) carry exactly tau; all others
    carry tau * phi1(2 i tau l1^2) attached to the conjugated index.  Landing
    indices wrap mod N, mirroring the pseudo-spectral grid products, so this
    matches the scheme on full-band fields.  Resonant cells never wrap.
    """
    grid = w.grid
    n = grid.n_modes
    half = n // 2
    k = grid.wavenumbers
    c = w.coeffs
    w_nonres = tau * phi1(2j * tau * (k * k).astype(np.float64))
    conv = np.zeros(n, dtype=np.complex128)
    for i1, l1 in enumerate(k):
        a = np.conj(c[i1])
        if a == 0:
            continue
        for i2, l2 in enumerate(k):
            for i3, l3 in enumerate(k):
                idx = (-l1 + l2 + l3 + half) % n
                wgt = tau if (l2 == l1 or l3 == l1) else w_nonres[i1]
                conv[idx] += wgt * a * c[i2] * c[i3]
    v_new = c - 1j * eps * eps * conv
    return SpectralField(grid, np.exp(-1j * tau * (k * k)) * v_new)


# ---------------------------------------------------------------------------
# zero-mode scalar recurrences
# ---------------------------------------------------------------------------

def euler_zero_mode_square(v: complex, eps: float, tau: float) -> complex:
    """Forward Euler for i v' = eps v^2."""
    return v - 1j * eps * tau * v * v


def euler_zero_mode_modsq(v: complex, eps: float, tau: float) -> complex:
    """Forward Euler for i v' = eps |v|^2."""
    return v - 1j * eps * tau * (v.real**2 + v.imag**2)


def euler_zero_mode_cubic(v: complex, eps: float, tau: float) -> complex:
    """Forward Euler for i v' = eps^2 |v|^2 v."""
    return v - 1j * eps * eps * tau * abs(v) ** 2 * v


def _picard_scalar(f, v0: complex) -> complex:
    """Fixed point of f from v0: steps within 1e-15, at most 200 iterations."""
    x = v0
    for _ in range(200):
        x_new = f(x)
        if abs(x_new - x) <= 1e-15:
            return x_new
        x = x_new
    raise RuntimeError("scalar fixed point did not converge")


def trapezoid_zero_mode_square(v: complex, eps: float, tau: float) -> complex:
    """Trapezoidal step for i v' = eps v^2: u = v - (i eps tau / 2)(v^2 + u^2)."""
    return _picard_scalar(lambda u: v - 0.5j * eps * tau * (v * v + u * u), v)


def trapezoid_zero_mode_modsq(v: complex, eps: float, tau: float) -> complex:
    """Trapezoidal step for i v' = eps |v|^2."""
    return _picard_scalar(
        lambda u: v - 0.5j * eps * tau * (abs(v) ** 2 + abs(u) ** 2), v
    )


def trapezoid_zero_mode_cubic(v: complex, eps: float, tau: float) -> complex:
    """Trapezoidal step for i v' = eps^2 |v|^2 v."""
    e2 = eps * eps
    return _picard_scalar(
        lambda u: v - 0.5j * e2 * tau * (abs(v) ** 2 * v + abs(u) ** 2 * u), v
    )


def rotation_zero_mode_cubic(v: complex, eps: float, tau: float) -> complex:
    """Exact flow of i v' = eps^2 |v|^2 v (|v| is conserved): a phase rotation."""
    return v * np.exp(-1j * eps * eps * tau * abs(v) ** 2)


def riccati_zero_mode_square(v0: complex, eps: float, t: float) -> complex:
    """Closed-form solution of i v' = eps v^2: v(t) = v0 / (1 + i eps t v0)."""
    return v0 / (1.0 + 1j * eps * t * v0)


# ---------------------------------------------------------------------------
# fine reference flow (local-error tests)
# ---------------------------------------------------------------------------

def rk4_reference_step(
    w: SpectralField,
    eps: float,
    tau: float,
    equation: str,
    substeps: int = 64,
) -> SpectralField:
    """Near-exact one-step flow of the collocation system, via RK4 in the twisted variable.

    The twisted system v' = -i eps^p e^{-it dxx} N(e^{it dxx} v) is non-stiff
    (the free group is applied exactly through its diagonal phases), so plain
    RK4 with a few dozen substeps resolves the step flow far below the local
    error of any of the first/second-order schemes under test.  ``equation``
    is one of "quad-square", "quad-modsq", "cubic"; products are formed on the
    grid exactly as the schemes form them.
    """
    grid = w.grid
    lsq = (grid.wavenumbers * grid.wavenumbers).astype(np.float64)

    if equation == "quad-square":
        def nonlin(u):
            return eps * u * u
    elif equation == "quad-modsq":
        def nonlin(u):
            return eps * (u * np.conj(u))
    elif equation == "cubic":
        def nonlin(u):
            return eps * eps * (u * np.conj(u)) * u
    else:
        raise ValueError(f"unknown equation {equation!r}")

    def rhs(t, v):
        ph = np.exp(-1j * t * lsq)
        u = values_from_coeffs(ph * v, grid)
        return -1j * np.conj(ph) * coeffs_from_values(nonlin(u), grid)

    h = tau / substeps
    t = 0.0
    v = w.coeffs.copy()
    for _ in range(substeps):
        k1 = rhs(t, v)
        k2 = rhs(t + 0.5 * h, v + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, v + 0.5 * h * k2)
        k4 = rhs(t + h, v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return SpectralField(grid, np.exp(-1j * tau * lsq) * v)
