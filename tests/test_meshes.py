"""Recorded meshes: mesh_domain must keep its vertex numbering and placement.

Triangles and boundary edges (integers) and polygon vertices must match the
recording by digest, so every numbering and order is kept bit for bit.
Ellipse vertices come from libm cos/sin, which may differ in the last ulp on
another machine, so they are checked within 1e-15: the recorded boundary
points, and every other vertex at the exact midpoint of the edge it splits
(the center at level 0).  The edge a vertex splits is read off the triangles,
whose children are [i0, m01, m20], [m01, i1, m12], [m20, m12, i2],
[m01, m12, m20] for a parent [i0, i1, i2].

Regenerate the recording (only when a mesh is meant to change) with

    PYTHONPATH=src python tests/test_meshes.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from eigenplane import fem
from eigenplane import geometry as g

DATA = Path(__file__).parent / "data"
RECORDING = DATA / "meshes.json"
ELLIPSE_ATOL = 1e-15

DOMAINS = {
    "square": g.square(1.0),
    "equilateral": g.equilateral_triangle(),
    "hexagon": g.regular_polygon(6),
    "l_shape": g.domain_from_text((DATA / "l_shape.txt").read_text()),
    "isosceles": g.Polygon(g.isosceles_triangle(1.1).vertices + np.array([0.4, -0.7])),
    "disk": g.Ellipse((0.3, -0.2), (1.0, 1.0)),
    "ellipse": g.Ellipse((-0.1, 0.2), (1.5, 0.6), 0.4),
}
ELLIPSES = [name for name, d in DOMAINS.items() if isinstance(d, g.Ellipse)]
MAX_LEVEL = 5
CASES = [(name, level) for name in DOMAINS for level in range(5)] + [(name, MAX_LEVEL) for name in ELLIPSES]


def _digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def _record(mesh: fem.Mesh, ellipse: bool) -> dict:
    rec = {"triangles": _digest(mesh.triangles), "boundary_edges": _digest(mesh.boundary_edges)}
    if not ellipse:
        rec["vertices"] = _digest(mesh.vertices)
    return rec


def _ellipse_vertices(mesh: fem.Mesh, level: int, center, boundary: np.ndarray) -> np.ndarray:
    """The vertices an ellipse mesh must have, from its triangles and the recorded boundary points."""
    ids, xy = boundary[:, 0].astype(int), boundary[:, 1:]
    v = np.full(mesh.vertices.shape, np.nan)
    known = ids < len(v)
    v[ids[known]] = xy[known]
    v[0] = center
    tris = [mesh.triangles]  # tris[k] is the level (level - k) triangulation
    for _ in range(level):
        tris.append(tris[-1].reshape(-1, 4, 3)[:, [0, 1, 2], [0, 1, 2]])
    for k in range(level, 0, -1):
        coarse, mids = tris[k], tris[k - 1].reshape(-1, 4, 3)[:, 3, :]
        new = np.isnan(v[mids, 0])
        v[mids[new]] = 0.5 * (v[coarse[new]] + v[coarse[:, [1, 2, 0]][new]])
    return v


@pytest.fixture(scope="module")
def recording():
    return json.loads(RECORDING.read_text())


@pytest.mark.parametrize("name,level", CASES, ids=[f"{n}-L{lev}" for n, lev in CASES])
def test_mesh_matches_recording(recording, name, level):
    d = DOMAINS[name]
    mesh = fem.mesh_domain(d, level)
    assert _record(mesh, name in ELLIPSES) == recording["meshes"][f"{name}/{level}"]
    if name in ELLIPSES:
        boundary = np.array([p.split() for p in recording["boundary_points"][name]], dtype=float)
        want = _ellipse_vertices(mesh, level, d.center, boundary)
        assert not np.isnan(want).any()
        assert np.abs(mesh.vertices - want).max() <= ELLIPSE_ATOL


def test_recording_covers_exactly_the_cases(recording):
    assert sorted(recording["meshes"]) == sorted(f"{n}/{lev}" for n, lev in CASES)
    assert sorted(recording["boundary_points"]) == sorted(ELLIPSES)


if __name__ == "__main__":
    rec = {"meshes": {}, "boundary_points": {}}
    for name, level in CASES:
        mesh = fem.mesh_domain(DOMAINS[name], level)
        rec["meshes"][f"{name}/{level}"] = _record(mesh, name in ELLIPSES)
    for name in ELLIPSES:
        mesh = fem.mesh_domain(DOMAINS[name], MAX_LEVEL)
        ids = mesh.boundary_vertices()
        rec["boundary_points"][name] = [f"{i} {x!r} {y!r}" for i, (x, y) in zip(ids, mesh.vertices[ids].tolist())]
        # the expectation the test builds must be the recorded mesh itself, bit for bit
        boundary = np.array([p.split() for p in rec["boundary_points"][name]], dtype=float)
        assert np.array_equal(_ellipse_vertices(mesh, MAX_LEVEL, DOMAINS[name].center, boundary), mesh.vertices)
    RECORDING.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
