"""Command-line front end for trajectories and the three experiment families.

Subcommands::

    simulate        one trajectory against its reference, one CSV row
    sweep-tau       error vs step size at the long-time horizon T/eps^k
    sweep-eps       error vs nonlinearity strength at horizons T/eps^k
    error-vs-time   error growth along one trajectory
    selftest        small-grid oracle and symmetry battery

A ``--config`` JSON object holds flags of the subcommand, keyed by their
dests (``tau_list`` for ``--tau-list``; lists as JSON arrays or comma
strings); they count as typed right after the subcommand, so explicit flags
override them.  The long-time subcommands take the horizon constant ``--T``
and derive t_final = T/eps (quadratic) or T/eps^2 (cubic); ``simulate``
takes a raw ``--t-final``.  Exit status: 0 when every record is reliable,
1 on solver/IO failure or unreliable records, 2 on usage errors, which
include a config key or value the subcommand's flags do not take (a null
value too), ``--eps`` on ``sweep-eps`` (its eps come from ``--eps-list``),
``--jobs`` below 1, every value :class:`~lowreg_nlse.harness.SimParams`
rejects (named by its flag) and every check a run makes of its own lists
and reference step.  So a nan or infinite step, horizon, ``--T``, list
entry or ``--ref-tau`` is a usage error, and so is a nan ``--theta``,
``--error-norm-r`` or ``--fp-tol``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Sequence

from .harness import (
    Equation,
    SimParams,
    SweepRecord,
    _cell_refs,
    _check_error_vs_time,
    _check_eps_sweep,
    _check_ref_tau,
    _check_tau_sweep,
    _horizon,
    _references,
    _run_single_point,
    error_vs_time,
    make_initial_data,
    shared_references,
    sweep_eps,
    sweep_tau,
    write_records_csv,
)
from .selftest import run_selftest
from .spectral import field_to_text

# the flag that sets each SimParams field; a SimParams error begins with the
# name of the field it rejects
_FLAGS = {
    "equation": "--equation", "scheme": "--scheme", "eps": "--eps", "tau": "--tau",
    "t_final": "--t-final", "n_modes": "--modes", "theta": "--theta", "seed": "--seed",
    "error_norm_r": "--error-norm-r", "fp_tol": "--fp-tol", "fp_max_iter": "--fp-max-iter",
}
# the flag of each argument that may begin an error of a run's own checks
_CHECKED_FLAGS = {"tau_list": "--tau-list", "sample_times": "--sample-times",
                  "ref_tau": "--ref-tau"}


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {exc}")


def _add_common(sub: argparse.ArgumentParser, *, sweeps: bool) -> None:
    sub.add_argument("--equation", choices=[e.value for e in Equation])
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
    sub.add_argument("--config", help="JSON object of flags by dest (flags override)")


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
    stau.add_argument("--jobs", type=int, default=os.cpu_count(), help="worker processes")

    seps = subs.add_parser("sweep-eps", help="error vs nonlinearity strength")
    _add_common(seps, sweeps=True)
    seps.add_argument("--tau", type=float, help="time step")
    seps.add_argument("--eps-list", type=_comma_floats, dest="eps_list",
                      help="strictly decreasing values in (0, 1] (>= 3)")
    seps.add_argument("--T", type=float, help="horizon constant; t_final = T/eps^k")
    seps.add_argument("--jobs", type=int, default=os.cpu_count(), help="worker processes")

    evt = subs.add_parser("error-vs-time", help="error growth along a trajectory")
    _add_common(evt, sweeps=True)
    evt.add_argument("--tau", type=float, help="time step")
    evt.add_argument("--sample-times", type=_comma_floats, dest="sample_times",
                     help="strictly increasing comma-separated times")
    evt.add_argument("--T", type=float, help="horizon constant; t_final = T/eps^k")

    subs.add_parser("selftest", help="small-grid oracle and symmetry battery")
    return parser


def _config_flags(parser: argparse.ArgumentParser, first: argparse.Namespace) -> list[str]:
    """The --config file named in ``first`` as flags of its subcommand."""
    path = first.config
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        parser.error(f"--config: cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        parser.error(f"--config: {path} is not valid JSON ({exc})")
    if not isinstance(raw, dict):
        parser.error(f"--config: {path} must hold a JSON object")
    dests = set(vars(first)) - {"subcommand", "config"}
    flags = []
    for key, value in raw.items():
        if key not in dests:
            parser.error(f"--config: unknown key {key!r} for {first.subcommand}")
        if value is None:
            parser.error(f"--config: key {key!r} is null; give a value or leave the key out")
        if isinstance(value, list):
            value = ",".join(map(str, value))
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv, with the --config file's flags typed ahead of the explicit ones."""
    parser = build_parser()
    argv = list(argv)
    config = parser.parse_args(argv)
    if getattr(config, "config", None):
        config = parser.parse_args(argv[:1] + _config_flags(parser, config) + argv[1:])
    if config.subcommand != "selftest":
        _validate(parser, config)
    return config


# flags each subcommand needs besides --equation, --scheme and --out; sweep-eps
# takes eps from --eps-list and rejects --eps
_REQUIRED = {
    "simulate": ["eps", "tau", "t_final"],
    "sweep-tau": ["eps", "tau_list", "T"],
    "sweep-eps": ["tau", "eps_list", "T"],
    "error-vs-time": ["eps", "tau", "sample_times", "T"],
}


def _require(parser, config, names):
    for name in names:
        if getattr(config, name, None) is None:
            parser.error(f"--{name.replace('_', '-')} is required for {config.subcommand}")


def _validate(parser: argparse.ArgumentParser, config: argparse.Namespace) -> None:
    """What only the command line knows; the values themselves the library checks."""
    sub = config.subcommand
    if sub == "sweep-eps" and config.eps is not None:
        parser.error("sweep-eps takes eps from --eps-list")
    _require(parser, config, ["equation", "scheme", "out"] + _REQUIRED[sub])
    if not _schemes(config):
        parser.error("--scheme must not be empty")
    if sub == "simulate" and "," in config.scheme:
        parser.error("--scheme: simulate runs a single scheme")
    for name in ("tau_list", "eps_list", "sample_times"):
        if getattr(config, name, None) == []:
            parser.error(f"--{name.replace('_', '-')} must not be empty")
    if sub != "simulate" and not 0 < config.T < math.inf:
        parser.error(f"--T must be positive and finite, got {config.T}")
    if getattr(config, "jobs", None) is not None and config.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {config.jobs}")
    if sub == "sweep-eps":
        config.eps = config.eps_list[0]
    try:
        if sub == "sweep-tau":  # first: the SimParams below take their tau from the list
            _check_tau_sweep(config.tau_list, config.ref_tau)
        bases = [_base_params(config, scheme) for scheme in _schemes(config)]
        if sub == "simulate":
            _check_ref_tau(config.tau, config.ref_tau)
        elif sub == "sweep-eps":
            _check_eps_sweep(config.eps_list, config.tau, config.ref_tau)
        elif sub == "error-vs-time":
            _check_error_vs_time(config.sample_times, config.tau, bases[0].t_final,
                                 config.ref_tau)
    except ValueError as exc:
        flag = _CHECKED_FLAGS.get(str(exc).split()[0])
        parser.error(f"{flag}: {exc}" if flag else str(exc))


def _base_params(config: argparse.Namespace, scheme: str) -> SimParams:
    """One scheme's SimParams, from the flags, at the command's horizon.

    A rejected value raises ValueError naming its flag.  A sweep replaces eps
    and tau cell by cell, sweep-eps the horizon too.
    """
    sub = config.subcommand
    try:
        params = SimParams(
            equation=Equation(config.equation),
            scheme=scheme,
            eps=config.eps,
            tau=max(config.tau_list) if sub == "sweep-tau" else config.tau,
            t_final=config.t_final if sub == "simulate" else 0.0,
            n_modes=config.modes,
            theta=config.theta,
            seed=config.seed,
            error_norm_r=config.error_norm_r,
            fp_tol=config.fp_tol,
            fp_max_iter=config.fp_max_iter,
        )
    except ValueError as exc:
        flag = _FLAGS.get(str(exc).split()[0])
        raise ValueError(f"{flag}: {exc}" if flag else str(exc)) from None
    if sub == "simulate":
        return params
    return replace(params, t_final=_horizon(params.equation, config.T, params.eps))


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
            params = _base_params(config, config.scheme)
            w0 = make_initial_data(params)
            fine, finer = _cell_refs(params, w0, _check_ref_tau(config.tau, config.ref_tau))
            [pair] = _references().pairs([(fine, finer)])
            [record], _, final = _run_single_point(params, w0, pair, fine.sample_times)
            if config.snapshot_out:
                with open(config.snapshot_out, "w") as fh:
                    fh.write(field_to_text(final))
                print(f"wrote final field to {config.snapshot_out}")
            print(
                f"{params.scheme} at tau {params.tau:g}: H^{params.error_norm_r:g} "
                f"error {record.error:.6e} at t = {record.t_final:g}"
            )
            return _finish(config, [record])

        records: list[SweepRecord] = []
        for scheme in _schemes(config):
            base = _base_params(config, scheme)
            if config.subcommand == "sweep-tau":
                recs, fit = sweep_tau(base, config.tau_list, config.ref_tau, jobs=config.jobs)
                print(f"{scheme}: slope {fit.slope:.3f} over {fit.n_points} steps")
            elif config.subcommand == "sweep-eps":
                recs, fit = sweep_eps(base, config.eps_list, config.T, config.ref_tau,
                                      jobs=config.jobs)
                print(f"{scheme}: slope {fit.slope:.3f} over {fit.n_points} values")
            else:  # error-vs-time
                recs = error_vs_time(base, config.sample_times, config.ref_tau)
                print(f"{scheme}: error {recs[-1].error:.6e} at t = {recs[-1].t_final:g}")
            records.extend(recs)
        return _finish(config, records)

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
