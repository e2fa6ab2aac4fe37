"""Command-line front end for trajectories and the three experiment families.

Subcommands::

    simulate        one trajectory against its reference, one CSV row
    sweep-tau       error vs step size at the long-time horizon T/eps^k
    sweep-eps       error vs nonlinearity strength at horizons T/eps^k
    error-vs-time   error growth along one trajectory
    selftest        small-grid oracle and symmetry battery

Flags may be preloaded from a JSON file via ``--config``; explicit flags
override file values.  The long-time subcommands take the horizon constant
``--T`` and derive t_final = T/eps (quadratic) or T/eps^2 (cubic); ``simulate``
takes a raw ``--t-final``.  Exit status: 0 when every record is reliable,
1 on solver/IO failure or unreliable records, 2 on usage errors, which
include every value :class:`~lowreg_nlse.harness.SimParams` rejects and
every check a sweep makes of its own lists and reference step.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Sequence

from .harness import (
    Equation,
    SimParams,
    SweepRecord,
    _check_error_vs_time,
    _check_eps_sweep,
    _check_tau_sweep,
    _run_single_point,
    error_vs_time,
    shared_references,
    sweep_eps,
    sweep_tau,
    write_records_csv,
    SolverFailure,
)
from .selftest import run_selftest
from .spectral import field_to_text

_EQUATIONS = [e.value for e in Equation]
_LIST_FLAGS = {"tau_list", "eps_list", "sample_times"}
_FLOAT_KEYS = {"eps", "tau", "theta", "T", "t_final", "ref_tau", "error_norm_r", "fp_tol"}
_INT_KEYS = {"seed", "modes", "fp_max_iter", "jobs"}
_STR_KEYS = {"equation", "scheme", "out", "snapshot_out"}


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {exc}")


def _add_common(sub: argparse.ArgumentParser, *, sweeps: bool) -> None:
    sub.add_argument("--equation", help=f"one of {', '.join(_EQUATIONS)}")
    sub.add_argument(
        "--scheme",
        help="scheme identifier" + ("; comma-separate to compare several" if sweeps else ""),
    )
    sub.add_argument("--eps", type=float, help="nonlinearity strength in (0, 1]")
    sub.add_argument("--theta", type=float, default=1.0, help="initial-data decay exponent")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--modes", type=int, default=128, help="Fourier modes (even)")
    sub.add_argument("--error-norm-r", type=float, default=1.0, dest="error_norm_r")
    sub.add_argument("--fp-tol", type=float, default=1e-12, dest="fp_tol")
    sub.add_argument("--fp-max-iter", type=int, default=100, dest="fp_max_iter")
    sub.add_argument("--ref-tau", type=float, default=None, dest="ref_tau",
                     help="reference step (default: auto, two decades below)")
    sub.add_argument("--out", help="CSV output path")
    sub.add_argument("--config", help="JSON file of flag defaults (flags override)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowreg-nlse",
        description="Long-time error experiments for torus NLSE integrators.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sim = subs.add_parser("simulate", help="single trajectory vs reference")
    _add_common(sim, sweeps=False)
    sim.add_argument("--tau", type=float, help="time step")
    sim.add_argument("--t-final", type=float, dest="t_final", help="absolute horizon")
    sim.add_argument("--snapshot-out", dest="snapshot_out",
                     help="write the final field as text to this path")

    stau = subs.add_parser("sweep-tau", help="error vs step size")
    _add_common(stau, sweeps=True)
    stau.add_argument("--tau-list", type=_comma_floats, dest="tau_list",
                      help="comma-separated step sizes (>= 4)")
    stau.add_argument("--T", type=float, help="horizon constant; t_final = T/eps^k")
    stau.add_argument("--jobs", type=int, default=None, help="worker processes")

    seps = subs.add_parser("sweep-eps", help="error vs nonlinearity strength")
    _add_common(seps, sweeps=True)
    seps.add_argument("--tau", type=float, help="time step")
    seps.add_argument("--eps-list", type=_comma_floats, dest="eps_list",
                      help="strictly decreasing values in (0, 1] (>= 3)")
    seps.add_argument("--T", type=float, help="horizon constant; t_final = T/eps^k")
    seps.add_argument("--jobs", type=int, default=None, help="worker processes")

    evt = subs.add_parser("error-vs-time", help="error growth along a trajectory")
    _add_common(evt, sweeps=True)
    evt.add_argument("--tau", type=float, help="time step")
    evt.add_argument("--sample-times", type=_comma_floats, dest="sample_times",
                     help="strictly increasing comma-separated times")
    evt.add_argument("--T", type=float, help="horizon constant; t_final = T/eps^k")

    subs.add_parser("selftest", help="small-grid oracle and symmetry battery")
    # config-file defaults must be planted on the subparser: the subcommand
    # re-parses into a fresh namespace and would clobber main-parser defaults
    parser.sub_parsers = {
        "simulate": sim, "sweep-tau": stau, "sweep-eps": seps, "error-vs-time": evt,
    }
    return parser


def _load_config(parser: argparse.ArgumentParser, path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        parser.error(f"--config: cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        parser.error(f"--config: {path} is not valid JSON ({exc})")
    if not isinstance(raw, dict):
        parser.error(f"--config: {path} must hold a JSON object")
    merged = {}
    for key, value in raw.items():
        dest = key.replace("-", "_")
        if dest in _LIST_FLAGS:
            merged[dest] = (
                [float(v) for v in value] if isinstance(value, list) else _comma_floats(value)
            )
        elif dest in _FLOAT_KEYS:
            merged[dest] = float(value)
        elif dest in _INT_KEYS:
            merged[dest] = int(value)
        elif dest in _STR_KEYS:
            merged[dest] = str(value)
        else:
            parser.error(f"--config: unknown key {key!r}")
    return merged


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Two-pass parse: config file fills defaults, explicit flags override."""
    parser = build_parser()
    first = parser.parse_args(argv)
    if getattr(first, "config", None):
        defaults = _load_config(parser, first.config)
        parser.sub_parsers[first.subcommand].set_defaults(**defaults)
        config = parser.parse_args(argv)
    else:
        config = first
    if config.subcommand != "selftest":
        _validate(parser, config)
    return config


def _require(parser, config, names):
    for name in names:
        if getattr(config, name, None) is None:
            parser.error(f"--{name.replace('_', '-')} is required for {config.subcommand}")


def _validate(parser: argparse.ArgumentParser, config: argparse.Namespace) -> None:
    _require(parser, config, ["equation", "scheme", "out"])
    if config.subcommand == "sweep-eps":
        if getattr(config, "eps_list", None) and config.eps is None:
            config.eps = config.eps_list[0]
    _require(parser, config, ["eps"])
    if config.equation not in _EQUATIONS:
        parser.error(f"--equation must be one of {', '.join(_EQUATIONS)}, got {config.equation!r}")
    if not 0.0 < config.eps <= 1.0:
        parser.error(f"--eps must lie in (0, 1], got {config.eps}")
    if config.theta < 0:
        parser.error(f"--theta must be nonnegative, got {config.theta}")
    if config.modes < 4 or config.modes % 2:
        parser.error(f"--modes must be an even integer >= 4, got {config.modes}")
    if config.ref_tau is not None and config.ref_tau <= 0:
        parser.error(f"--ref-tau must be positive, got {config.ref_tau}")

    sub = config.subcommand
    if sub == "simulate":
        _require(parser, config, ["tau", "t_final"])
        if "," in config.scheme:
            parser.error("--scheme: simulate runs a single scheme")
        if config.t_final < 0:
            parser.error(f"--t-final must be nonnegative, got {config.t_final}")
    elif sub == "sweep-tau":
        _require(parser, config, ["tau_list", "T"])
        if not config.tau_list:
            parser.error("--tau-list must not be empty")
    elif sub == "sweep-eps":
        _require(parser, config, ["tau", "eps_list", "T"])
        if not config.eps_list:
            parser.error("--eps-list must not be empty")
    elif sub == "error-vs-time":
        _require(parser, config, ["tau", "sample_times", "T"])
        if not config.sample_times:
            parser.error("--sample-times must not be empty")
    if getattr(config, "tau", None) is not None and config.tau <= 0:
        parser.error(f"--tau must be positive, got {config.tau}")
    if getattr(config, "T", None) is not None and config.T <= 0:
        parser.error(f"--T must be positive, got {config.T}")
    # the sweep's own checks of its lists and reference step
    try:
        if sub == "sweep-tau":
            _check_tau_sweep(config.tau_list, config.ref_tau)
        elif sub == "sweep-eps":
            _check_eps_sweep(config.eps_list, config.tau, config.ref_tau)
        elif sub == "error-vs-time":
            t_final = _horizon(Equation(config.equation), config.T, config.eps)
            _check_error_vs_time(config.sample_times, config.tau, t_final, config.ref_tau)
    except ValueError as exc:
        parser.error(str(exc))
    # SimParams' own checks, horizon aside: scheme for the equation, fp settings, norm
    tau = config.tau if getattr(config, "tau", None) is not None else max(config.tau_list)
    for scheme in _schemes(config):
        try:
            _base_params(config, scheme, tau, 0.0)
        except ValueError as exc:
            parser.error(str(exc))


def _horizon(equation: Equation, T: float, eps: float) -> float:
    return T / (eps * eps) if equation is Equation.CUBIC else T / eps


def _base_params(config, scheme: str, tau: float, t_final: float) -> SimParams:
    return SimParams(
        equation=Equation(config.equation),
        scheme=scheme,
        eps=config.eps,
        tau=tau,
        t_final=t_final,
        n_modes=config.modes,
        theta=config.theta,
        seed=config.seed,
        error_norm_r=config.error_norm_r,
        fp_tol=config.fp_tol,
        fp_max_iter=config.fp_max_iter,
    )


def _resolve_jobs(config) -> int | None:
    jobs = getattr(config, "jobs", None)
    if jobs is None:
        env = os.environ.get("LOWREG_NLSE_JOBS")
        jobs = int(env) if env else os.cpu_count()
    return jobs


def _schemes(config) -> list[str]:
    return [s.strip() for s in config.scheme.split(",") if s.strip()]


def _finish(config, records: list[SweepRecord]) -> int:
    write_records_csv(config.out, records)
    print(f"wrote {len(records)} records to {config.out}")
    flagged = [r for r in records if not r.reliable]
    for r in flagged:
        print(
            f"warning: unreliable record (scheme {r.scheme}, eps {r.eps}, "
            f"tau {r.tau}, t {r.t_final:g}): error does not dominate the "
            "reference self-consistency gap",
            file=sys.stderr,
        )
    return 1 if flagged else 0


def run(config: argparse.Namespace) -> int:
    if config.subcommand == "selftest":
        results = run_selftest()
        for name, ok, detail in results:
            print(f"{'ok  ' if ok else 'FAIL'}  {name} — {detail}")
        failed = sum(1 for _, ok, _ in results if not ok)
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return 1 if failed else 0

    try:
        if config.subcommand == "simulate":
            params = _base_params(config, config.scheme, config.tau, config.t_final)
            ref_tau = config.ref_tau if config.ref_tau is not None else config.tau / 100.0
            finals = []
            record, _ = _run_single_point(
                params, params.eps, params.tau, params.t_final, ref_tau,
                on_final=finals.append,
            )
            if config.snapshot_out:
                with open(config.snapshot_out, "w") as fh:
                    fh.write(field_to_text(finals[0]))
                print(f"wrote final field to {config.snapshot_out}")
            print(
                f"{params.scheme} at tau {params.tau:g}: H^{params.error_norm_r:g} "
                f"error {record.error:.6e} at t = {record.t_final:g}"
            )
            return _finish(config, [record])

        records: list[SweepRecord] = []
        if config.subcommand == "sweep-tau":
            t_final = _horizon(Equation(config.equation), config.T, config.eps)
            jobs = _resolve_jobs(config)
            for scheme in _schemes(config):
                base = _base_params(config, scheme, max(config.tau_list), t_final)
                recs, fit = sweep_tau(base, config.tau_list, config.ref_tau, jobs=jobs)
                print(f"{scheme}: slope {fit.slope:.3f} over {fit.n_points} steps")
                records.extend(recs)
        elif config.subcommand == "sweep-eps":
            jobs = _resolve_jobs(config)
            for scheme in _schemes(config):
                # any admissible horizon works for the base; the sweep
                # recomputes t_final per eps from T
                t0 = _horizon(Equation(config.equation), config.T, config.eps_list[0])
                base = _base_params(config, scheme, config.tau, t0)
                base = replace(base, eps=config.eps_list[0])
                recs, fit = sweep_eps(base, config.eps_list, config.T,
                                      config.ref_tau, jobs=jobs)
                print(f"{scheme}: slope {fit.slope:.3f} over {fit.n_points} values")
                records.extend(recs)
        else:  # error-vs-time
            t_final = _horizon(Equation(config.equation), config.T, config.eps)
            for scheme in _schemes(config):
                base = _base_params(config, scheme, config.tau, t_final)
                recs = error_vs_time(base, config.sample_times, config.ref_tau)
                print(f"{scheme}: error {recs[-1].error:.6e} at t = {recs[-1].t_final:g}")
                records.extend(recs)
        return _finish(config, records)

    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else list(argv))
    # one reference store per command: the schemes of a sweep share each pair
    with shared_references():
        return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
