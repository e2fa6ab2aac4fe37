"""Golden outputs: the battery of ``golden.py`` recomputed against ``golden.json``.

Where numpy's version, the machine and numpy's SIMD extensions are those the
file was made with, every state's sha256 must match.  Everywhere, every
number must match to ``RTOL`` relative or ``ATOL`` absolute, and every
Picard count and missing value exactly.
"""
import json
import math

from golden import GOLDEN, compute, environment

# Rounding noise of one ulp in every transform and symbol, injected on
# purpose, moved the states' norms by under 1e-13 relative but the errors
# (differences of nearby states) by up to 3e-13 absolute, the reference
# gaps (differences of two nearly equal references) by up to 3e-8 relative
# and the slopes by up to 2e-9 relative.  These tolerances pass that noise
# and catch any change of a scheme, a step or a reference.
RTOL = 1e-8
ATOL = 1e-12


def _mismatches(want, got, path, hashes):
    if isinstance(want, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(set(want) ^ set(got))}"]
        return [m for key in want
                for m in _mismatches(want[key], got[key], f"{path}/{key}", hashes)]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: {len(got)} entries, expected {len(want)}"]
        return [m for w, g in zip(want, got) for m in _mismatches(w, g, path, hashes)]
    if isinstance(want, float):
        close = isinstance(got, float) and math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    elif path.endswith("/sha256"):
        close = got == want or not hashes
    else:
        close = got == want
    return [] if close else [f"{path}: {got!r}, expected {want!r}"]


def test_golden_outputs_unchanged():
    golden = json.loads(GOLDEN.read_text())
    hashes = golden["environment"] == environment()
    assert _mismatches(golden["outputs"], compute(), "", hashes) == []
