"""Golden outputs: a small battery whose every bit a restructuring must keep.

    PYTHONPATH=src python tests/golden.py      # rewrite tests/golden.json

:func:`compute` runs the battery and returns its outputs; the script writes
them, with the numpy version, machine and SIMD extensions they were made on,
to ``golden.json`` beside it, and ``test_golden.py`` recomputes and compares
them.  A change that is meant to change outputs runs the script again and
says so; any other change leaves the file as it is.

The battery:

* every (equation, scheme) at N = 16, 96 and 128: 20 steps of tau = 0.05
  from seed-267, theta = 2 data, with snapshots at t = 0 and t = 0.5.  N = 96
  takes the product stages' public-pair path, the powers of two their
  relabel-free one;
* a lockstep ``_run_rows`` lot per equation, of rows with mixed eps, steps
  and horizons (one of them takes no step);
* a cubic ``sweep_tau`` of all four schemes on shared references, and a
  quad-modsq ``sweep_eps`` of li1 and sli2 with two pool workers.

Each state is kept as the sha256 of its coefficient bytes and as its H^1
norm; a trajectory also keeps its ``sup_h1`` and Picard max and mean, and a
sweep each record's error, its reference gap and the fitted slope.
"""
from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np

from lowreg_nlse import harness
from lowreg_nlse.harness import (
    Equation,
    SimParams,
    make_initial_data,
    run_trajectory,
    shared_references,
    sweep_eps,
    sweep_tau,
)
from lowreg_nlse.spectral import sobolev_norm

GOLDEN = Path(__file__).resolve().parent / "golden.json"

_SCHEMES = [(Equation.QUAD_SQUARE, "li1"), (Equation.QUAD_SQUARE, "sli2"),
            (Equation.QUAD_MODSQ, "li1"), (Equation.QUAD_MODSQ, "sli2"),
            (Equation.CUBIC, "nrli1"), (Equation.CUBIC, "nrsli2"),
            (Equation.CUBIC, "os18"), (Equation.CUBIC, "strang")]
_REFERENCE_SCHEME = {Equation.QUAD_SQUARE: "sli2", Equation.QUAD_MODSQ: "sli2",
                     Equation.CUBIC: "nrsli2"}
# (eps, step, horizon, sample times) of each row of a lockstep lot
_ROWS = [(0.5, 0.01, 0.2, (0.1, 0.2)), (0.3, 0.02, 0.3, (0.3,)),
         (0.8, 0.005, 0.1, ()), (0.6, 0.01, 0.0, (0.0,))]


def environment() -> dict:
    """What a state's bytes depend on besides the code: numpy, machine and SIMD."""
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
    }


def _state(field) -> dict:
    return {"sha256": hashlib.sha256(field.coeffs.tobytes()).hexdigest(),
            "h1": sobolev_norm(field, 1.0)}


def _trajectory(result) -> dict:
    return {
        "states": [_state(w) for _, w in result.snapshots] + [_state(result.state)],
        "sup_h1": result.sup_h1,
        "fp_iter_max": result.fp_iter_max,
        "fp_iter_mean": result.fp_iter_mean,
    }


def _sweep(records, gaps, fit) -> dict:
    return {
        "errors": [r.error for r in records],
        "gaps": list(gaps),
        "fp_iter_mean": [r.fp_iter_mean for r in records],
        "slope": fit.slope,
    }


def compute() -> dict:
    """The battery's outputs by name."""
    out = {}
    for n_modes in (16, 96, 128):
        for equation, scheme in _SCHEMES:
            p = SimParams(equation=equation, scheme=scheme, eps=0.5, tau=0.05, t_final=1.0,
                          n_modes=n_modes, theta=2.0, seed=267)
            result = run_trajectory(p, make_initial_data(p), (0.0, 0.5))
            out[f"trajectory/{equation.value}/{scheme}/n{n_modes}"] = _trajectory(result)

    for equation, scheme in _REFERENCE_SCHEME.items():
        base = SimParams(equation=equation, scheme=scheme, eps=0.5, tau=0.01, t_final=0.2,
                         n_modes=16, theta=1.5, seed=267)
        rows = []
        for seed, (eps, step, t_final, times) in enumerate(_ROWS, start=11):
            p = replace(base, eps=eps, tau=step, t_final=t_final, seed=seed)
            rows.append((p, make_initial_data(p), times))
        for r, result in enumerate(harness._run_rows(rows)):
            out[f"rows/{equation.value}/{r}"] = _trajectory(result)

    with shared_references():
        taus = [0.1, 0.05, 0.025, 0.0125]
        for scheme in ("nrli1", "nrsli2", "os18", "strang"):
            base = SimParams(equation=Equation.CUBIC, scheme=scheme, eps=0.5, tau=0.1,
                             t_final=0.5, n_modes=32, theta=2.0, seed=267)
            records, fit = sweep_tau(base, taus, ref_tau=1e-3)
            # the same cells again, for their gaps; the references are shared
            _, gaps = harness._run_points(base, [replace(base, tau=t) for t in taus],
                                          1e-3, None)
            out[f"sweep_tau/cubic/{scheme}"] = _sweep(records, gaps, fit)

        eps_list = [0.5, 0.35, 0.25]
        for scheme in ("li1", "sli2"):
            base = SimParams(equation=Equation.QUAD_MODSQ, scheme=scheme, eps=0.5, tau=0.05,
                             t_final=0.2, n_modes=32, theta=5.0, seed=267)
            records, fit = sweep_eps(base, eps_list, 0.1, ref_tau=5e-3, jobs=2)
            cells = [replace(base, eps=e, t_final=0.1 / e) for e in eps_list]
            _, gaps = harness._run_points(base, cells, 5e-3, None)
            out[f"sweep_eps/quad-modsq/{scheme}"] = _sweep(records, gaps, fit)
    return out


def main() -> None:
    golden = {"environment": environment(), "outputs": compute()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
