"""The Bessel-zero snapshot shipped as src/eigenplane/data/bessel_zeros.npz.

It must hold exactly the table that exact._zero grows from empty through the
MAX_EIGENVALUES-value disk spectra under Dirichlet and Neumann conditions, and
growth past it must give the same bits as growth from an empty table.

Regenerate the snapshot (only when the zero solver is meant to change) with

    PYTHONPATH=src python tests/test_bessel_snapshot.py
"""

import numpy as np
import pytest

from eigenplane import exact as ex

# the shipped snapshot, read past any monkeypatched loader
SHIPPED = ex._load_snapshot

# beyond the snapshot in order, in index, or both, for zeros of J_m and of J_m'
BEYOND = [(200, 3, False), (196, 1, True), (0, 6000, False), (3, 700, True), (150, 60, False), (60, 90, True)]


def _grow_to_max():
    """exact._ZEROS after the MAX_EIGENVALUES-value disk spectra under Dirichlet and Neumann conditions."""
    for bc in (ex.DIRICHLET, ex.NEUMANN):
        ex.disk_spectrum(1.0, bc, ex.MAX_EIGENVALUES)
    return ex._ZEROS


def _bits(zeros) -> bytes:
    return np.asarray(zeros, dtype=np.float64).tobytes()


def _start_empty(monkeypatch):
    """Let the next exact._zero call start from an empty table, as if no snapshot were shipped."""
    monkeypatch.setattr(ex, "_ZEROS", None)
    monkeypatch.setattr(ex, "_load_snapshot", dict)


def test_snapshot_is_the_table_grown_from_empty(monkeypatch):
    _start_empty(monkeypatch)
    grown = _grow_to_max()
    shipped = SHIPPED()
    assert sorted(shipped) == sorted(grown)
    assert {key: len(zeros) for key, zeros in shipped.items()} == {key: len(zeros) for key, zeros in grown.items()}
    assert all(_bits(shipped[key]) == _bits(grown[key]) for key in grown)
    assert all(type(z) is float for zeros in shipped.values() for z in zeros)


def test_growth_past_the_snapshot_equals_growth_from_empty(monkeypatch):
    shipped = SHIPPED()
    for m, p, derivative in BEYOND:
        assert len(shipped.get((m, derivative), [])) < p
    monkeypatch.setattr(ex, "_ZEROS", None)
    past = [ex._zero(*req) for req in BEYOND]
    from_snapshot = ex._ZEROS

    _start_empty(monkeypatch)
    assert [ex._zero(*req) for req in BEYOND] == past
    from_empty = ex._ZEROS
    # each row grown from empty is, bit for bit, the start of the same row grown from the snapshot
    for key, zeros in from_empty.items():
        assert _bits(from_snapshot[key][:len(zeros)]) == _bits(zeros), key


if __name__ == "__main__":
    ex._load_snapshot = dict
    ex._save_snapshot(_grow_to_max())
