"""In-memory span recorder for the traced benchmark run.

The program is not instrumented.  Instead :func:`traced` swaps, for the
duration of one run, the module globals through which the layers call each
other (``cli.main``, ``cli.sweep_eps``, ``harness.run_trajectory``, the
steppers the harness builds, the transforms the steppers use) for thin
wrappers that record a span around each call.  Everything is restored on
exit.

A span is ``[name, start, end, parent, info]`` with ``parent`` the index of
the enclosing span (``-1`` at the top) and ``info`` a small dict or ``None``.
High-frequency leaves (the transform pair and the H^1 norm) are not spans:
they only add to a count and a busy time, so that tracing does not dominate
the steps it is timing.

Pool workers are forked with the wrappers already in place.  The traced
worker records into a fresh :class:`Tracer`, hands its spans back on the
returned record, and the parent merges them under its fan-out span.
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from lowreg_nlse import cli, cubic, harness, quadratic, spectral

# (harness attribute, span name) for every stepper the harness can build
_STEPPERS = (
    ("li1_step", "quadratic.li1.step"),
    ("li1_conj_step", "quadratic.li1_conj.step"),
    ("sli2_step_info", "quadratic.sli2.step"),
    ("sli2_conj_step_info", "quadratic.sli2_conj.step"),
    ("nrli1_step", "cubic.nrli1.step"),
    ("nrsli2_step_info", "cubic.nrsli2.step"),
    ("os18_step", "cubic.os18.step"),
    ("strang_step", "cubic.strang.step"),
)
STEP_SPANS = frozenset(name for _, name in _STEPPERS)


class Tracer:
    """Spans, counters and reference-pair keys recorded in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.ref_params: set = set()
        self.ref_keys: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1], None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = perf_counter()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "ref_keys": self.ref_keys}

    def merge(self, child: dict, parent: int) -> None:
        """Append a worker's spans, re-parenting its top-level spans under ``parent``."""
        offset = len(self.spans)
        for name, start, end, par, info in child["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else par + offset, info])
        for name, (n, busy) in child["counts"].items():
            self.counts[name][0] += n
            self.counts[name][1] += busy
        self.ref_keys.extend(child["ref_keys"])


_active: Tracer | None = None
_originals: dict[tuple, object] = {}


def _span(name, fn, info_of=None):
    def wrapper(*args, **kwargs):
        tracer = _active
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if info_of is not None:
            tracer.spans[idx][4] = info_of(args, result)
        return result
    return wrapper


def _counted(name, fn):
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        entry = _active.counts[name]
        entry[0] += 1
        entry[1] += perf_counter() - start
        return result
    return wrapper


def _ref_params(params, ref_tau, t_final):
    result = _originals[(harness, "_reference_params")](params, ref_tau, t_final)
    _active.ref_params.add(result)
    return result


def _trajectory_info(args, result):
    params = args[0]
    reference = params in _active.ref_params
    if reference:
        p = params
        _active.ref_keys.append(
            (p.equation.value, p.eps, p.seed, p.theta, p.n_modes, p.t_final, p.tau)
        )
    return {"ref": reference, "steps": result.n_steps}


def _iters_info(args, result):
    return {"iters": result[1]}


def _run_points(base, cells, ref_tau, jobs):
    tracer = _active
    idx = tracer.open("harness.run_points")
    try:
        records, gaps = _originals[(harness, "_run_points")](base, cells, ref_tau, jobs)
    finally:
        tracer.close(idx)
    for rec in records:
        child = rec.__dict__.pop("_bench_trace", None)
        if child is not None:
            tracer.merge(child, idx)
    return records, gaps


def traced_point_worker(payload):
    """Pool worker: trace one cell in a fresh tracer and ship the spans back."""
    global _active
    _active = Tracer()
    record, gap = _originals[(harness, "_point_worker")](payload)
    record.__dict__["_bench_trace"] = _active.export()
    return record, gap


def _patches():
    yield cli, "main", _span("cli.main", cli.main)
    yield cli, "sweep_eps", _span("harness.sweep_eps", cli.sweep_eps)
    yield harness, "_run_points", _run_points
    yield harness, "_point_worker", traced_point_worker
    yield harness, "_run_single_point", _span("harness.cell", harness._run_single_point)
    yield harness, "_reference_params", _ref_params
    yield harness, "run_trajectory", _span(
        "harness.run_trajectory", harness.run_trajectory, _trajectory_info
    )
    yield harness, "make_initial_data", _span("spectral.initial_data", harness.make_initial_data)
    yield harness, "sobolev_norm", _counted("spectral.sobolev_norm", harness.sobolev_norm)
    build = spectral.OperatorSymbols.build.__func__
    yield spectral.OperatorSymbols, "build", classmethod(
        _span("spectral.symbols_build", build)
    )
    for attr, name in _STEPPERS:
        info = _iters_info if attr.endswith("_info") else None
        yield harness, attr, _span(name, getattr(harness, attr), info)
    for module in (quadratic, cubic):
        for attr in ("values_from_coeffs", "coeffs_from_values"):
            yield module, attr, _counted("spectral.transform", getattr(module, attr))


@contextlib.contextmanager
def traced():
    """Install the wrappers, yield the parent's tracer, then restore everything."""
    global _active
    _active = Tracer()
    installed = []
    try:
        for owner, attr, wrapper in list(_patches()):
            _originals[(owner, attr)] = owner.__dict__[attr]
            setattr(owner, attr, wrapper)
            installed.append((owner, attr))
        yield _active
    finally:
        for owner, attr in reversed(installed):
            setattr(owner, attr, _originals.pop((owner, attr)))
        _active = None


def summarize(tracer: Tracer) -> list[tuple[str, float, str, str]]:
    """Per-layer figures from one traced rep as (name, value, unit, kind).

    ``count`` figures repeat exactly between runs; ``computed`` ones are
    ratios or differences of spans and counts.
    """
    spans = tracer.spans

    def dur(span):
        return span[2] - span[1]

    def outermost_harness(span):
        parent = span[3]
        return span[0].startswith("harness.") and (
            parent < 0 or not spans[parent][0].startswith("harness.")
        )

    ref_s = scheme_s = steps_s = 0.0
    ref_steps = scheme_steps = iters = 0
    for name, start, end, _, info in spans:
        if name == "harness.run_trajectory" and info is not None:
            if info["ref"]:
                ref_s += end - start
                ref_steps += info["steps"]
            else:
                scheme_s += end - start
                scheme_steps += info["steps"]
        elif name in STEP_SPANS:
            steps_s += end - start
            if info is not None:
                iters += info["iters"]
    steps = ref_steps + scheme_steps
    cells = [dur(s) for s in spans if s[0] == "harness.cell"] or [
        dur(s) for s in spans if s[0] == "harness.run_trajectory"
    ]
    harness_s = sum(dur(s) for s in spans if outermost_harness(s))
    # in the CLI workloads every outermost harness span sits under cli.main
    cli_s = sum(dur(s) for s in spans if s[0] == "cli.main")
    pairs = list(zip(tracer.ref_keys[0::2], tracer.ref_keys[1::2]))
    n_transforms, transform_s = tracer.counts.get("spectral.transform", (0, 0.0))
    n_norms, norm_s = tracer.counts.get("spectral.sobolev_norm", (0, 0.0))
    return [
        ("harness.reference_s", ref_s, "s", "measured"),
        ("harness.scheme_traj_s", scheme_s, "s", "measured"),
        ("harness.reference_share", ref_s / (ref_s + scheme_s), "ratio", "computed"),
        ("harness.reference_pairs_built", len(pairs), "count", "count"),
        ("harness.reference_pairs_distinct", len(set(pairs)), "count", "count"),
        ("harness.reference_steps", ref_steps, "count", "count"),
        ("harness.scheme_steps", scheme_steps, "count", "count"),
        ("harness.picard_iters_total", iters, "count", "count"),
        ("harness.loop_self_us_per_step", (ref_s + scheme_s - steps_s) / steps * 1e6,
         "us", "computed"),
        ("harness.cell_imbalance", max(cells) / (sum(cells) / len(cells)), "ratio", "computed"),
        ("harness.span_s", harness_s, "s", "measured"),
        ("spectral.transform_calls", n_transforms, "count", "count"),
        ("spectral.transform_calls_per_step", n_transforms / steps, "1/step", "computed"),
        ("spectral.transform_busy_s", transform_s, "s", "measured"),
        ("spectral.sobolev_norm_calls", n_norms, "count", "count"),
        ("spectral.sobolev_norm_busy_s", norm_s, "s", "measured"),
        ("cli.overhead_s", cli_s - harness_s if cli_s else 0.0, "s", "computed"),
    ]
