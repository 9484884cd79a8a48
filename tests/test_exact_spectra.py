"""Recorded exact spectra: every closed-form spectrum must keep its values bit for bit.

The values and error estimates of each case are compared with the recording
by SHA-256 digest: equilateral triangles and disks at n = 1..59, 200, 1000,
5000 and 10 000 under Dirichlet and Neumann, seeded random rectangles under
Dirichlet, Neumann and Robin, and rectangles of aspect 1e7 both ways round.

Regenerate the recording (only when a spectrum is meant to change) with

    PYTHONPATH=src python tests/test_exact_spectra.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from eigenplane import exact as ex

RECORDING = Path(__file__).parent / "data" / "exact_spectra.json"
COUNTS = [*range(1, 60), 200, 1000, 5000, 10_000]


def _word(arg) -> str:
    if isinstance(arg, ex.BoundarySpec):
        return f"robin({arg.sigma!r})" if arg.kind == "robin" else arg.kind
    return repr(arg)


def _cases() -> dict:
    """family -> {case name: (spectrum function, its arguments)}."""
    families: dict = {name: {} for name in ("equilateral", "disk", "rectangle", "thin", "robin")}

    def add(family, f, *args):
        families[family][" ".join([f.__name__, *map(_word, args)])] = (f, args)

    for bc in (ex.DIRICHLET, ex.NEUMANN):
        for n in COUNTS:
            for side in (1.0, 0.37, 2.5):
                add("equilateral", ex.equilateral_spectrum, side, bc, n)
            for radius in (1.0, 0.6):
                add("disk", ex.disk_spectrum, radius, bc, n)
    rng = np.random.default_rng(12)
    for _ in range(400):
        l1, l2 = (float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, 2))
        bc = (ex.DIRICHLET, ex.NEUMANN, ex.robin(0.0))[int(rng.integers(3))]
        add("rectangle", ex.rectangle_spectrum, l1, l2, bc, int(rng.integers(1, 301)))
    for bc in (ex.DIRICHLET, ex.NEUMANN, ex.robin(1.0), ex.robin(0.0)):
        for l1, l2 in ((1e7, 1.0), (1.0, 1e7)):
            for n in (1, 200, 10_000):
                add("thin", ex.rectangle_spectrum, l1, l2, bc, n)
    for _ in range(60):
        l1, l2 = (float(x) for x in 10.0 ** rng.uniform(-1.0, 1.0, 2))
        sigma = float(10.0 ** rng.uniform(-2.0, 2.0))
        add("robin", ex.rectangle_spectrum, l1, l2, ex.robin(sigma), int(rng.integers(1, 301)))
    return families


CASES = _cases()


def _digest(spec: ex.Spectrum) -> str:
    h = hashlib.sha256()
    for a in (spec.values, spec.error_estimates):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def recording():
    return json.loads(RECORDING.read_text())


@pytest.mark.parametrize("family", CASES)
def test_spectra_match_recording(recording, family):
    changed = [name for name, (f, args) in CASES[family].items() if _digest(f(*args)) != recording[name]]
    assert changed == []


def test_recording_covers_exactly_the_cases(recording):
    assert sorted(recording) == sorted(name for cases in CASES.values() for name in cases)


if __name__ == "__main__":
    rec = {name: _digest(f(*args)) for cases in CASES.values() for name, (f, args) in cases.items()}
    RECORDING.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
