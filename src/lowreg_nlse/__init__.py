"""Low-regularity time integrators for NLS-type equations on the 1D torus."""
from __future__ import annotations

from .cubic import (
    CubicScheme,
    CubicSchemeConfig,
    g_zero_mode,
    h_field,
    nrli1_step,
    nrsli2_step_info,
    os18_step,
    strang_step,
)
from .harness import (
    Equation,
    OrderFit,
    SimParams,
    SolverFailure,
    SweepRecord,
    TrajectoryResult,
    error_vs_time,
    fit_order,
    make_initial_data,
    read_records_csv,
    reference_solution,
    run_trajectory,
    sweep_eps,
    sweep_tau,
    write_records_csv,
)
from .quadratic import (
    FixedPointError,
    QuadNonlinearity,
    QuadSchemeConfig,
    li1_conj_step,
    li1_step,
    sli2_conj_step_info,
    sli2_step_info,
)
from .spectral import (
    OperatorSymbols,
    SpectralField,
    TorusGrid,
    field_from_text,
    field_to_text,
    forward_transform,
    free_propagate,
    inverse_transform,
    phi1,
    random_initial_data,
    sobolev_norm,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # the selftest battery (and the oracles it checks against) loads on first
    # use of ``run_selftest``, so importing the package does not pay for it
    if name == "run_selftest":
        from .selftest import run_selftest

        return run_selftest
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CubicScheme",
    "CubicSchemeConfig",
    "Equation",
    "FixedPointError",
    "OperatorSymbols",
    "OrderFit",
    "QuadNonlinearity",
    "QuadSchemeConfig",
    "SimParams",
    "SolverFailure",
    "SpectralField",
    "SweepRecord",
    "TorusGrid",
    "TrajectoryResult",
    "error_vs_time",
    "field_from_text",
    "field_to_text",
    "fit_order",
    "forward_transform",
    "free_propagate",
    "g_zero_mode",
    "h_field",
    "inverse_transform",
    "li1_conj_step",
    "li1_step",
    "make_initial_data",
    "nrli1_step",
    "nrsli2_step_info",
    "os18_step",
    "phi1",
    "random_initial_data",
    "read_records_csv",
    "reference_solution",
    "run_selftest",
    "run_trajectory",
    "sli2_conj_step_info",
    "sli2_step_info",
    "sobolev_norm",
    "strang_step",
    "sweep_eps",
    "sweep_tau",
    "write_records_csv",
    "__version__",
]
