import hashlib
import math
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from eigenplane import exact as ex
from eigenplane import fem
from eigenplane import geometry as g

PI2 = math.pi**2


# ---------------------------------------------------------------------------
# meshing
# ---------------------------------------------------------------------------

def test_square_base_mesh():
    mesh = fem.mesh_domain(g.square(1.0), 0)
    assert mesh.num_triangles == 2
    assert mesh.num_vertices == 4
    assert len(mesh.boundary_edges) == 4


def test_square_level2_count():
    mesh = fem.mesh_domain(g.square(1.0), 2)
    assert mesh.num_triangles == 32


def test_refinement_scaling_counts():
    for lev in range(4):
        mesh = fem.mesh_domain(g.equilateral_triangle(), lev)
        assert mesh.num_triangles == 4**lev


def test_triangle_orientation_positive():
    mesh = fem.mesh_domain(g.regular_polygon(7), 2)
    a = mesh.vertices[mesh.triangles[:, 0]]
    b = mesh.vertices[mesh.triangles[:, 1]]
    c = mesh.vertices[mesh.triangles[:, 2]]
    areas = 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    assert np.all(areas > 0)


@pytest.mark.parametrize(
    "vertices",
    [
        [[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]],
        [[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]],  # vertex 1 on the straight edge from vertex 0
        [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1], [0.5, 1], [0, 1], [0, 0.5]],  # edge midpoints
    ],
    ids=["nonconvex", "vertex-on-edge", "square-midpoints"],
)
def test_nonconvex_polygon_meshes(vertices):
    p = g.Polygon(vertices)
    mesh = fem.mesh_domain(p, 1)
    u = mesh.vertices[mesh.triangles[:, 1]] - mesh.vertices[mesh.triangles[:, 0]]
    v = mesh.vertices[mesh.triangles[:, 2]] - mesh.vertices[mesh.triangles[:, 0]]
    total = np.sum(0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))
    assert total == pytest.approx(g.moments(p).area, rel=1e-12)


def test_disk_boundary_vertices_on_circle():
    mesh = fem.mesh_domain(g.Ellipse((0, 0), (1, 1)), 1)
    radii = np.linalg.norm(mesh.vertices[mesh.boundary_vertices()], axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-12)
    assert len(mesh.boundary_vertices()) == 128  # 64-gon doubled once


def test_mesh_nesting_for_polygons():
    coarse = fem.mesh_domain(g.square(1.0), 1)
    fine = fem.mesh_domain(g.square(1.0), 2)
    # every coarse vertex appears among the fine vertices
    for v in coarse.vertices:
        assert np.min(np.linalg.norm(fine.vertices - v, axis=1)) < 1e-14


def test_boundary_edges_form_closed_loop():
    mesh = fem.mesh_domain(g.equilateral_triangle(), 2)
    e = mesh.boundary_edges
    starts = sorted(e[:, 0].tolist())
    ends = sorted(e[:, 1].tolist())
    assert starts == ends  # each boundary vertex has one outgoing, one incoming


def test_mesh_export_format():
    mesh = fem.mesh_domain(g.square(1.0), 0)
    text = fem.mesh_to_text(mesh)
    lines = text.strip().splitlines()
    assert sum(ln.startswith("v ") for ln in lines) == 4
    assert sum(ln.startswith("t ") for ln in lines) == 2
    assert sum(ln.startswith("b ") for ln in lines) == 4


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_stiffness_kernel_contains_constants():
    mesh = fem.Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
        np.array([[0, 1], [1, 2], [2, 0]]),
    )
    A, M = fem.assemble(mesh, ex.NEUMANN)
    np.testing.assert_allclose(np.asarray(A.sum(axis=1)).ravel(), 0.0, atol=1e-14)


def test_mass_total_is_area():
    mesh = fem.mesh_domain(g.Polygon([[0, 0], [1, 0], [0, 1]]), 2)
    A, M = fem.assemble(mesh, ex.NEUMANN)
    assert M.sum() == pytest.approx(0.5, rel=1e-13)


def test_robin_boundary_mass_total_is_sigma_perimeter():
    """Robin is a boundary term of the same pencil: A differs from Neumann's on boundary pairs only."""
    mesh = fem.mesh_domain(g.square(1.0), 3)
    A0, M0 = fem.assemble(mesh, ex.NEUMANN)
    boundary = np.zeros(mesh.num_vertices, dtype=bool)
    boundary[mesh.boundary_vertices()] = True
    for sigma in (1.0, 2.5):
        A, M = fem.assemble(mesh, ex.robin(sigma))
        assert (M != M0).nnz == 0
        B = (A - A0).tocoo()
        nonzero = B.data != 0
        assert nonzero.any() and np.all(boundary[B.row[nonzero]] & boundary[B.col[nonzero]])
        assert B.sum() == pytest.approx(4.0 * sigma, abs=1e-12)


def test_assembled_matrices_symmetric():
    mesh = fem.mesh_domain(g.regular_polygon(5), 2)
    for bc in (ex.DIRICHLET, ex.NEUMANN, ex.robin(1.0)):
        for X in fem.assemble(mesh, bc):
            gap = abs(X - X.T)
            assert (gap.max() if gap.nnz else 0.0) <= 1e-14 * max(1.0, abs(X).max())


def _restricted(A, keep):
    """A's stored entries between kept nodes, renumbered in order: (rows, columns, values) in storage order."""
    number = np.cumsum(keep) - 1
    coo = A.tocoo()
    sel = keep[coo.row] & keep[coo.col]
    return number[coo.row[sel]], number[coo.col[sel]], coo.data[sel]


def test_dirichlet_elimination_reduces_dimension():
    mesh = fem.mesh_domain(g.square(1.0), 2)
    A, M = fem.assemble(mesh, ex.DIRICHLET)
    assert A.shape[0] == len(mesh.interior_vertices())
    # mass stays positive definite after elimination
    vals = np.linalg.eigvalsh(M.toarray())
    assert vals.min() > 0
    # the Dirichlet reference is the Neumann one restricted to the interior nodes, bit for bit
    for d in (g.square(1.0), g.regular_polygon(6), g.Ellipse((0, 0), (1, 1))):
        for level in (1, 2, 3, 4):
            mesh = fem.mesh_domain(d, level)
            interior = np.zeros(mesh.num_vertices, dtype=bool)
            interior[mesh.interior_vertices()] = True
            dirichlet, neumann = fem._Reference(mesh, True), fem._Reference(mesh, False)
            for T in _seeded_maps(level, 2):  # det > 0, then det < 0
                for D, N in zip(dirichlet.pencil(T, ex.DIRICHLET), neumann.pencil(T, ex.NEUMANN)):
                    assert D.shape[0] == interior.sum()
                    coo = D.tocoo()
                    for got, want in zip((coo.row, coo.col, coo.data), _restricted(N, interior)):
                        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# eigenvalue extraction
# ---------------------------------------------------------------------------

def test_solve_eigs_identity_pair():
    K = sparse.identity(5, format="csr")
    vals = fem.solve_eigs(K, K, 3)
    np.testing.assert_allclose(vals, 1.0, atol=1e-12)


def test_solve_eigs_rejects_bad_n():
    K = sparse.identity(5, format="csr")
    with pytest.raises(ValueError):
        fem.solve_eigs(K, K, 6)


def test_solve_eigs_refuses_every_value_of_a_lanczos_pencil():
    # Lanczos converges at most dim - 1 values: asking all 225 is refused before any solve, not by scipy's TypeError
    K, M = fem.assemble(fem.mesh_domain(g.square(1.0), 4), ex.DIRICHLET)
    with pytest.raises(ValueError, match="n <= 224 on 225 unknowns"):
        fem.solve_eigs(K, M, 225, dense_threshold=100)


def test_square_dirichlet_upper_bound_within_one_percent():
    mesh = fem.mesh_domain(g.square(1.0), 4)
    K, M = fem.assemble(mesh, ex.DIRICHLET)
    lam = fem.solve_eigs(K, M, 1)[0]
    assert 2 * PI2 <= lam <= 2 * PI2 * 1.01


def test_square_neumann_kernel_mode():
    mesh = fem.mesh_domain(g.square(1.0), 4)
    K, M = fem.assemble(mesh, ex.NEUMANN)
    mu = fem.solve_eigs(K, M, 2, neumann_like=True)
    assert mu[0] == 0.0 < mu[1]


def test_sparse_path_matches_dense_path():
    mesh = fem.mesh_domain(g.square(1.0), 4)
    K, M = fem.assemble(mesh, ex.DIRICHLET)
    dense = fem.solve_eigs(K, M, 4, dense_threshold=5000)
    it = fem.solve_eigs(K, M, 4, dense_threshold=100)
    np.testing.assert_allclose(it, dense, rtol=1e-9)


def test_sparse_path_neumann_zero_mode():
    mesh = fem.mesh_domain(g.square(1.0), 4)
    K, M = fem.assemble(mesh, ex.NEUMANN)
    mu = fem.solve_eigs(K, M, 3, dense_threshold=100, neumann_like=True)
    dense = fem.solve_eigs(K, M, 3, dense_threshold=5000, neumann_like=True)
    assert mu[0] == dense[0] == 0.0
    np.testing.assert_allclose(mu, dense, rtol=1e-9)


# ---------------------------------------------------------------------------
# spectrum_fem
# ---------------------------------------------------------------------------

def test_equilateral_dirichlet_extrapolated():
    spec = fem.spectrum_fem(g.equilateral_triangle(), ex.DIRICHLET, 1, fem.FemOptions(max_refinement=5))
    assert spec.method == "fem"
    assert spec.values[0] == pytest.approx(16 * PI2 / 3, rel=1e-4)


def test_disk_neumann_two_modes():
    spec = fem.spectrum_fem(g.Ellipse((0, 0), (1, 1)), ex.NEUMANN, 2, fem.FemOptions(max_refinement=2))
    mu2 = ex.bessel_zero(ex.BesselZeroRequest(1, 1, derivative=True)) ** 2
    assert spec.values[0] == spec.error_estimates[0] == 0.0
    assert spec.values[1] == pytest.approx(mu2, rel=5e-3)


def test_rectangle_robin_matches_tensor_oracle():
    spec = fem.spectrum_fem(g.rectangle(2, 1), ex.robin(1.0), 2, fem.FemOptions(max_refinement=5))
    oracle = ex.rectangle_spectrum(2, 1, ex.robin(1.0), 2).values
    np.testing.assert_allclose(spec.values, oracle, rtol=1e-3)


def test_error_estimates_cover_true_error():
    spec = fem.spectrum_fem(g.square(1.0), ex.DIRICHLET, 3, fem.FemOptions(max_refinement=4))
    exact = ex.rectangle_spectrum(1, 1, ex.DIRICHLET, 3).values
    assert np.all(np.abs(spec.values - exact) <= spec.error_estimates)


def test_conforming_upper_bounds_decrease_with_refinement():
    exact1 = 16 * PI2 / 3
    prev = None
    for lev in (2, 3, 4):
        mesh = fem.mesh_domain(g.equilateral_triangle(), lev)
        K, M = fem.assemble(mesh, ex.DIRICHLET)
        lam = fem.solve_eigs(K, M, 1)[0]
        assert lam >= exact1
        if prev is not None:
            assert lam <= prev
        prev = lam


def test_scaling_invariance():
    r = 3.0
    base = fem.spectrum_fem(g.equilateral_triangle(1.0), ex.DIRICHLET, 3, fem.FemOptions(max_refinement=3))
    scaled = fem.spectrum_fem(g.equilateral_triangle(r), ex.DIRICHLET, 3, fem.FemOptions(max_refinement=3))
    np.testing.assert_allclose(scaled.values, base.values / r**2, rtol=1e-10)


# (domain of size s, finest levels): the polygons' levels 3 and 4 are reduced and level 5 is solved by
# shift-invert; the disk's level 2 is reduced under Dirichlet only, and level 3 is solved by shift-invert
SCALED_DOMAINS = {
    "square": (lambda s: g.square(s), (4, 5)),
    "equilateral": (lambda s: g.equilateral_triangle(s), (4, 5)),
    "disk": (lambda s: g.Ellipse((0.0, 0.0), (s, s)), (2, 3)),
}


@pytest.mark.parametrize("finer", [0, 1], ids=["reduced", "shift-invert"])
@pytest.mark.parametrize("name", list(SCALED_DOMAINS))
def test_fem_spectra_are_scale_covariant(name, finer):
    # s^2 lambda(s D, sigma / s) = lambda(D, sigma): the Neumann kernel is exactly 0 at every size, and the
    # shift-invert shift, in eigenvalue units, stays below it however small the values get
    domain, levels = SCALED_DOMAINS[name]
    opts = fem.FemOptions(max_refinement=levels[finer])
    for bc_of in (lambda s: ex.DIRICHLET, lambda s: ex.NEUMANN, lambda s: ex.robin(1.3 / s)):
        base = fem.spectrum_fem(domain(1.0), bc_of(1.0), 4, opts)
        neumann = bc_of(1.0).is_neumann_like
        assert (base.values[0] == base.error_estimates[0] == 0.0) == neumann
        for s in (1e-6, 1e-3, 1e3, 1e6):
            spec = fem.spectrum_fem(domain(s), bc_of(s), 4, opts)
            assert (spec.values[0] == spec.error_estimates[0] == 0.0) == neumann, s
            np.testing.assert_allclose(spec.values * s**2, base.values, rtol=1e-10, atol=0.0)
            np.testing.assert_allclose(spec.error_estimates * s**2, base.error_estimates, rtol=1e-6, atol=0.0)


def test_a_value_too_coarse_to_extrapolate_is_reported_at_the_fine_level():
    # an image stretched about 80:1: at levels 3 and 4 its fifth Neumann value reads about 3052 and 762, which
    # (4 x fine - coarse) / 3 would turn into -1.57; the fine Ritz value stands, with an error estimate above it
    d, T = g.equilateral_triangle(), g.LinearMap2(1.42961711, -1.8656577, 0.91862179, -1.29737752)
    opts = fem.FemOptions(max_refinement=4)
    coarse, fine = fem._solve_levels(d, T, ex.NEUMANN, 6, (3, 4), opts)
    assert 4.0 * fine[4] - coarse[4] < 0.0
    spec = fem.spectrum_fem(d, ex.NEUMANN, 6, opts, T)
    assert spec.values[0] == 0.0 and np.all(spec.values[1:] > 0.0)
    i = int(np.nonzero(spec.values == fine[4])[0][0])
    assert spec.error_estimates[i] == (coarse[4] - fine[4]) / 3.0 >= spec.values[i]


def test_rigid_motion_invariance():
    tri = g.Polygon([[0, 0], [2, 0], [0.3, 1.1]])
    R = g.rotation(12, 1).as_array()
    moved = g.Polygon(tri.vertices @ R.T + np.array([4.0, -1.0]))
    a = fem.spectrum_fem(tri, ex.DIRICHLET, 3, fem.FemOptions(max_refinement=3))
    b = fem.spectrum_fem(moved, ex.DIRICHLET, 3, fem.FemOptions(max_refinement=3))
    np.testing.assert_allclose(a.values, b.values, rtol=1e-10)


def test_neumann_first_mode_small_everywhere():
    for d in (g.square(1.0), g.equilateral_triangle(), g.regular_polygon(6)):
        spec = fem.spectrum_fem(d, ex.NEUMANN, 2, fem.FemOptions(max_refinement=3))
        assert spec.values[0] == spec.error_estimates[0] == 0.0 < spec.values[1]


def test_robin_monotone_in_sigma_fixed_mesh():
    mesh = fem.mesh_domain(g.square(1.0), 3)
    prev = None
    for sigma in (0.0, 0.5, 1.0, 2.0, 8.0):
        bc = ex.robin(sigma) if sigma else ex.NEUMANN
        A, M = fem.assemble(mesh, bc)
        vals = fem.solve_eigs(A, M, 4, neumann_like=(sigma == 0.0))
        if prev is not None:
            assert np.all(vals >= prev - 1e-11)
        prev = vals


def test_convergence_ratio_is_second_order():
    vals = {}
    for lev in (3, 4, 5):
        mesh = fem.mesh_domain(g.square(1.0), lev)
        K, M = fem.assemble(mesh, ex.DIRICHLET)
        vals[lev] = fem.solve_eigs(K, M, 1)[0]
    ratio = (vals[3] - vals[4]) / (vals[4] - vals[5])
    assert 3.5 <= ratio <= 4.5


def test_spectrum_fem_needs_enough_dofs():
    with pytest.raises(ValueError):
        fem.spectrum_fem(g.square(1.0), ex.DIRICHLET, 5, fem.FemOptions(max_refinement=1))


@pytest.mark.parametrize("n", [-2, 0])
def test_spectrum_fem_refuses_counts_below_one(n):
    with pytest.raises(ValueError, match=f"got n = {n}"):
        fem.spectrum_fem(g.square(1.0), ex.DIRICHLET, n, fem.FemOptions(max_refinement=3))


def test_fem_options_validation():
    with pytest.raises(ValueError):
        fem.FemOptions(dense_threshold=10)
    with pytest.raises(ValueError):
        fem.FemOptions(max_refinement=0)


# ---------------------------------------------------------------------------
# linear images on the reference mesh
# ---------------------------------------------------------------------------

def _seeded_maps(seed, count):
    """Random 2x2 maps, alternating det > 0 and det < 0."""
    rng = np.random.default_rng(seed)
    maps = []
    while len(maps) < count:
        m = rng.uniform(-2, 2, size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) < 0.1:
            continue
        if (det > 0) != (len(maps) % 2 == 0):
            m[0] *= -1.0
        maps.append(g.LinearMap2.from_array(m))
    return maps


@pytest.mark.parametrize("d", [g.equilateral_triangle(), g.square(1.0), g.regular_polygon(6)],
                         ids=["equilateral", "square", "hexagon"])
@pytest.mark.parametrize("bc", [ex.DIRICHLET, ex.NEUMANN, ex.robin(1.3)], ids=["dirichlet", "neumann", "robin"])
def test_mapped_polygon_matches_meshing_the_image(d, bc):
    opts = fem.FemOptions(max_refinement=4)
    for T in _seeded_maps(17, 4):
        mapped = fem.spectrum_fem(d, bc, 4, opts, T).values
        meshed = fem.spectrum_fem(g.apply_map(T, d), bc, 4, opts).values
        assert (mapped[0] == meshed[0] == 0.0) == bc.is_neumann_like  # the Neumann kernel value is exactly 0
        np.testing.assert_allclose(mapped, meshed, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("bc", [ex.DIRICHLET, ex.NEUMANN], ids=["dirichlet", "neumann"])
def test_mapped_disk_within_error_estimate_of_meshing_the_image(bc):
    # the image ellipse is meshed from its own axes, the mapped disk mesh is not
    disk = g.Ellipse((0, 0), (1, 1))
    opts = fem.FemOptions(max_refinement=3)
    for T in _seeded_maps(5, 4):
        mapped = fem.spectrum_fem(disk, bc, 4, opts, T)
        meshed = fem.spectrum_fem(g.apply_map(T, disk), bc, 4, opts)
        assert (mapped.values[0] == meshed.values[0] == 0.0) == bc.is_neumann_like
        assert np.all(np.abs(mapped.values - meshed.values) <= meshed.error_estimates)


def _seeded_similarities(seed, count):
    """count seeded maps c R, R a rotation or a reflection, c in [0.4, 2.5]."""
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        c, th = rng.uniform(0.4, 2.5), rng.uniform(0, 2 * math.pi)
        flip = rng.choice([-1.0, 1.0])
        maps.append(g.LinearMap2.from_array(
            c * np.array([[math.cos(th), -flip * math.sin(th)], [math.sin(th), flip * math.cos(th)]])))
    return maps


@pytest.mark.parametrize("d, level", [(g.equilateral_triangle(), 4), (g.Ellipse((0, 0), (1, 1)), 2)],
                         ids=["equilateral", "disk"])
@pytest.mark.parametrize("bc", [ex.DIRICHLET, ex.NEUMANN], ids=["dirichlet", "neumann"])
def test_discrete_theorem_holds_on_symmetric_reference_mesh(d, level, bc):
    # The reference mesh is invariant under d's rotations, so the paper's proof
    # applies to the Ritz values themselves: no error budget enters.
    opts = fem.FemOptions(max_refinement=level, extrapolate=False)
    rhs_vals = fem.spectrum_fem(d, bc, 6, opts).values
    similarities = _seeded_similarities(23, 4)
    assert (rhs_vals[0] == 0.0) == bc.is_neumann_like  # a Neumann 1-sum is exactly 0
    for T in _seeded_maps(29, 12) + similarities:
        coef = 0.5 * T.inverse().hs_norm_sq()
        lhs_vals = fem.spectrum_fem(d, bc, 6, opts, T).values
        assert (lhs_vals[0] == 0.0) == bc.is_neumann_like
        for n in range(1, 7):
            lhs, rhs = lhs_vals[:n].sum(), coef * rhs_vals[:n].sum()
            assert lhs <= rhs * (1 + 1e-12)
            if T in similarities:
                assert lhs >= rhs * (1 - 1e-12)


def _count_meshes(monkeypatch):
    """The level of every mesh_domain call from here on."""
    calls = []
    mesh_domain = fem.mesh_domain
    monkeypatch.setattr(fem, "mesh_domain", lambda d, level: calls.append(level) or mesh_domain(d, level))
    return calls


def test_reference_mesh_built_once_per_level_and_orientation(monkeypatch):
    calls = _count_meshes(monkeypatch)
    monkeypatch.setattr(fem, "_REFERENCES", fem._ReferenceCache(fem.REFERENCE_CACHE_BYTES))
    d = g.regular_polygon(6)
    opts = fem.FemOptions(max_refinement=3)
    for T in _seeded_maps(3, 6):
        for bc in (ex.DIRICHLET, ex.NEUMANN, ex.robin(1.0)):
            fem.spectrum_fem(d, bc, 2, opts, T)
    fem.spectrum_fem(d, ex.DIRICHLET, 2, opts)
    # two levels, two signs of det T, Dirichlet or not: Neumann and Robin share a reference
    assert sorted(calls) == [2, 2, 2, 2, 3, 3, 3, 3]


def test_oversized_meshes_are_refused_before_any_meshing(monkeypatch):
    disk = g.Ellipse((0, 0), (1, 1))
    fem._unknowns(disk, 7, False)  # 64 x 4^7 = MAX_TRIANGLES
    fem._unknowns(g.square(1.0), 9, False)  # 2 x 4^9
    for d, level in ((disk, 8), (g.square(1.0), 10), (disk, 10**9)):
        with pytest.raises(ValueError, match="triangles, more than"):
            fem.mesh_domain(d, level)
    calls = []
    monkeypatch.setattr(fem, "mesh_domain", lambda d, level: calls.append(level))
    with pytest.raises(ValueError, match="triangles, more than"):
        fem.spectrum_fem(disk, ex.DIRICHLET, 1, fem.FemOptions(max_refinement=8))
    assert calls == []  # not even the coarse level was meshed


COUNTED_DOMAINS = {
    "square": g.square(1.0),
    "equilateral": g.equilateral_triangle(),
    "hexagon": g.regular_polygon(6),
    "heptagon": g.regular_polygon(7),
    "non-convex": g.Polygon([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [1.0, 0.8], [0.0, 2.0]]),  # ear-clipped
    "collinear": g.Polygon([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
    "thin": g.Polygon([[0.0, 0.0], [1.0, 0.0], [0.5, 0.05]]),
    "ellipse": g.Ellipse((0.3, -0.2), (1.5, 0.6), 0.7),
}


@pytest.mark.parametrize("name", list(COUNTED_DOMAINS))
def test_euler_count_equals_the_mesh_and_the_built_reference(name):
    d = COUNTED_DOMAINS[name]
    for T in (g.LinearMap2.identity(), g.LinearMap2(1.3, 0.4, 0.2, -0.8)):  # det T > 0, then det T < 0
        flip = isinstance(d, g.Polygon) and T.det < 0  # the reference meshes the reflected polygon
        for level in range(5):
            mesh = fem.mesh_domain(g.Polygon(d.vertices @ np.diag([1.0, -1.0])) if flip else d, level)
            for dirichlet in (True, False):
                nodes = len(mesh.interior_vertices()) if dirichlet else mesh.num_vertices
                if nodes == 0:  # a polygon's level 0, or a triangle's level 1, under Dirichlet
                    with pytest.raises(ValueError, match="no interior degrees of freedom"):
                        fem._reference(d, level, flip, dirichlet)
                    continue
                _, dim, build = fem._reference(d, level, flip, dirichlet)
                assert dim == nodes == build().dim, (level, T.det, dirichlet)


@pytest.mark.parametrize("d", [g.square(1.0), g.Ellipse((0, 0), (1, 1))], ids=["square", "disk"])
def test_a_memo_hit_builds_no_reference_too_large_to_keep(d, monkeypatch):
    _fresh_caches(monkeypatch)
    opts, T = fem.FemOptions(max_refinement=3), _seeded_maps(71, 2)[1]  # det T < 0: the square flips
    big = fem._Reference(fem.mesh_domain(d, 3), True, fem.DENSE_THRESHOLD)
    cache = fem._ReferenceCache(2 * big.nbytes - 1)  # the level-3 reference is over half of it
    monkeypatch.setattr(fem, "_REFERENCES", cache)
    calls = _count_meshes(monkeypatch)
    cold = fem.spectrum_fem(d, ex.DIRICHLET, 3, opts, T)
    assert calls == [2, 3] and big.dim not in [ref.dim for ref in cache._entries.values()]  # level 3 is not kept
    for _ in range(2):
        hit = fem.spectrum_fem(d, ex.DIRICHLET, 3, opts, T)
        assert calls == [2, 3]  # neither level meshed again
        assert np.array_equal(hit.values, cold.values)
        assert np.array_equal(hit.error_estimates, cold.error_estimates)


ELLIPSES = {"disk": ((1.0, 1.0), 0.0), "ellipse": ((1.5, 0.6), 0.3)}  # semi-axes and rotation
OFF_CENTRE = (0.7, -0.4)
PENCIL_BCS = [ex.DIRICHLET, ex.NEUMANN, ex.robin(1.0)]


@pytest.mark.parametrize("bc", PENCIL_BCS, ids=lambda bc: bc.kind)
@pytest.mark.parametrize("name", list(ELLIPSES))
def test_a_recentred_ellipse_reuses_the_origin_copys_solve(name, bc, monkeypatch):
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(fem, "_REFERENCES", fem._ReferenceCache(fem.REFERENCE_CACHE_BYTES))
    calls = _count_meshes(monkeypatch)
    axes, theta = ELLIPSES[name]
    opts = fem.FemOptions(max_refinement=3)
    origin = fem.spectrum_fem(g.Ellipse((0.0, 0.0), axes, theta), bc, 6, opts)
    assert calls == [2, 3]
    moved = fem.spectrum_fem(g.Ellipse(OFF_CENTRE, axes, theta), bc, 6, opts)
    assert calls == [2, 3]  # a translation keys no new reference and meshes nothing
    assert np.array_equal(moved.values, origin.values)
    assert np.array_equal(moved.error_estimates, origin.error_estimates)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("bc", PENCIL_BCS, ids=lambda bc: bc.kind)
@pytest.mark.parametrize("name", list(ELLIPSES))
def test_an_off_centre_ellipse_matches_the_solve_of_its_own_mesh(name, bc, level):
    axes, theta = ELLIPSES[name]
    d = g.Ellipse(OFF_CENTRE, axes, theta)
    K, M = fem.assemble(fem.mesh_domain(d, level), bc)
    own = fem.solve_eigs(K, M, 6, neumann_like=bc.is_neumann_like)
    got = fem.spectrum_fem(d, bc, 6, fem.FemOptions(max_refinement=level, extrapolate=False)).values
    assert (got[0] == own[0] == 0.0) == bc.is_neumann_like  # the Neumann kernel value is exactly 0 on either mesh
    np.testing.assert_allclose(got, own, rtol=1e-12, atol=0)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("name", list(ELLIPSES))
def test_an_ellipses_reference_mesh_is_its_origin_copys_own_mesh(name, level, monkeypatch):
    meshes = []
    mesh_domain = fem.mesh_domain
    monkeypatch.setattr(fem, "mesh_domain", lambda d, level: meshes.append(mesh_domain(d, level)) or meshes[-1])
    axes, theta = ELLIPSES[name]
    d = g.Ellipse((0.0, 0.0), axes, theta)
    for centre in ((0.0, 0.0), OFF_CENTRE):  # the off-centre copy's reference is the origin copy's mesh too
        fem._reference(g.Ellipse(centre, axes, theta), level, False, False)[2]()
    want = mesh_domain(d, level)
    for mesh in meshes:
        for got, ref in ((mesh.vertices, want.vertices), (mesh.triangles, want.triangles),
                         (mesh.boundary_edges, want.boundary_edges)):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("s1", [1e2, 1e3, 1e4, 1e5])
def test_thin_neumann_ellipses_keep_their_first_nonzero_value(s1, level):
    # the thin-domain limit: lambda_2 s1^2 -> 4 for the semi-axes (s1, 1)
    spec = fem.spectrum_fem(g.Ellipse((0.0, 0.0), (s1, 1.0)), ex.NEUMANN, 2, fem.FemOptions(max_refinement=level))
    assert spec.values[1] * s1**2 == pytest.approx(4.0, rel=0.02)


@pytest.mark.parametrize("n", [0, 50, 10**6])
def test_counts_no_level_can_serve_are_refused_before_any_meshing(n, monkeypatch):
    # the square's coarse level 3 has 49 interior unknowns, solved densely: n = 50 is one too many
    monkeypatch.setattr(fem, "_REFERENCES", fem._ReferenceCache(fem.REFERENCE_CACHE_BYTES))
    calls = _count_meshes(monkeypatch)
    with pytest.raises(ValueError, match=f"need 1 <= n <= .* got n = {n}$"):
        fem.spectrum_fem(g.square(1.0), ex.DIRICHLET, n, fem.FemOptions(max_refinement=4))
    with pytest.raises(ValueError, match="level 10 would mesh 2 x 4\\^10 triangles"):
        fem.spectrum_fem(g.square(1.0), ex.DIRICHLET, n, fem.FemOptions(max_refinement=10))
    assert calls == []


def test_reference_cache_stays_within_its_byte_bound():
    refs = [fem._Reference(fem.mesh_domain(g.square(1.0), lev), False) for lev in (3, 3, 2)]
    cache = fem._ReferenceCache(2 * refs[0].nbytes)
    assert cache.get("a", lambda: refs[0]) is refs[0]
    assert cache.get("b", lambda: refs[1]) is refs[1]  # both fit
    assert cache.get("c", lambda: refs[2]) is refs[2]  # evicts "a", the least recently used
    assert cache.get("a", lambda: refs[0]) is refs[0]  # rebuilt; evicts "b"
    assert cache.get("c", lambda: refs[1]) is refs[2]
    assert list(cache._entries) == ["a", "c"]
    assert cache._bytes == refs[0].nbytes + refs[2].nbytes <= cache.max_bytes
    # larger than half the bound: returned, but not kept, so it evicts nothing
    half = fem._ReferenceCache(2 * refs[0].nbytes - 1)
    assert half.get("c", lambda: refs[2]) is refs[2]
    assert half.get("d", lambda: refs[0]) is refs[0]
    assert half.get("d", lambda: refs[1]) is refs[1]
    assert list(half._entries) == ["c"] and half._bytes == refs[2].nbytes


def test_reference_cache_bookkeeping_under_threads():
    import sys
    import threading

    refs = [fem._Reference(fem.mesh_domain(g.square(1.0), 3), False) for _ in range(3)]
    cache = fem._ReferenceCache(2 * refs[0].nbytes)  # any two fit, the third evicts one
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            i = int(rng.integers(0, 3))
            if cache.get(i, lambda: refs[i]) is not refs[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert cache._bytes == sum(r.nbytes for r in cache._entries.values()) <= cache.max_bytes


# ---------------------------------------------------------------------------
# one block solve per pencil: the memoized solve against plain eigh and eigsh
# ---------------------------------------------------------------------------

def _fresh_caches(monkeypatch):
    """An empty eigenvalue memo, so what follows exercises the solver and not the memo."""
    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))


PENCIL_DOMAINS = {
    "equilateral": g.equilateral_triangle(),
    "square": g.square(1.0),
    "hexagon": g.regular_polygon(6),
    "disk": g.Ellipse((0, 0), (1, 1)),
    "isosceles": g.Polygon([[0.0, 0.0], [1.0, 0.0], [0.3, 1.7]]),
}


def _reference(d, level, T, dirichlet, dense_threshold=fem.DENSE_THRESHOLD):
    """The cached reference that fem solves T(d) on at `level` (built if absent), and the map carrying it onto T(d).

    A polygon under det T < 0 is solved on its reflection R(d), R = diag(1, -1), which T R carries onto T(d).
    """
    flip = isinstance(d, g.Polygon) and T.det < 0
    key, _, build = fem._reference(d, level, flip, dirichlet, dense_threshold)
    return fem._REFERENCES.get(key, build), (T @ g.LinearMap2.diagonal(1.0, -1.0) if flip else T)


def test_the_reflections_metric_is_s_with_s12_negated_bit_for_bit():
    # _solve_levels solves a polygon under det T < 0 on its reflection R(d) with T's metric, S12 negated, in place of
    # the metric of T R: (T R)^-1 = R T^-1 negates T^-1's second row, which negates S12 and nothing else exactly
    rng, R, checked = np.random.default_rng(79), g.LinearMap2.diagonal(1.0, -1.0), 0
    for m in rng.uniform(-2.0, 2.0, size=(20000, 2, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(20000, 1, 1)):
        T = g.LinearMap2.from_array(m)
        if T.is_singular():
            continue
        want, got = fem._metric(T @ R), fem._metric(T)
        got[1] = -got[1]
        assert got.tobytes() == want.tobytes(), m
        checked += 1
    assert checked > 19000


def test_a_report_composes_no_map(monkeypatch):
    # T is read once per report: its orientation and its metric, with no product T R on either sign of det T
    _fresh_caches(monkeypatch)
    products = []
    matmul = g.LinearMap2.__matmul__
    monkeypatch.setattr(g.LinearMap2, "__matmul__", lambda T, other: products.append(other) or matmul(T, other))
    opts = fem.FemOptions(max_refinement=3)
    for d in (g.square(1.0), g.equilateral_triangle(), g.Ellipse((0, 0), (1, 1))):
        for T in _seeded_maps(83, 4):  # det > 0 and det < 0, alternating
            for bc in PENCIL_BCS:
                fem.spectrum_fem(d, bc, 3, opts, T)
    g.LinearMap2.identity() @ g.LinearMap2.identity()  # the counter counts
    assert len(products) == 1


def _images(d, seed, levels=(1, 2, 3, 4), dense_threshold=fem.DENSE_THRESHOLD):
    """(level, bc, T, reference, map onto the image) of seeded images T(d) at each level and condition."""
    out = []
    for level in levels:
        for bc, T in zip(PENCIL_BCS, _seeded_maps(seed + level, len(PENCIL_BCS))):
            try:
                out.append((level, bc, T, *_reference(d, level, T, bc.is_dirichlet, dense_threshold)))
            except ValueError:  # no interior node at this level
                continue
    return out


def _block(n, dim, dense):
    """The number of values one solve computes for a call asking n: a block of six, one for a lone shift-invert n = 1."""
    return 1 if n == 1 and not dense else min(max(n, 6), dim)


def _mass_scale(M):
    """1 / 4^j with 4^j near the mean diagonal of M: shift-invert solves the pencil (K, M / 4^j)."""
    return 4.0 ** -(math.frexp(M.diagonal().mean())[1] // 2)


def _kernel_zeroed(vals, constants_overlap, neumann_like):
    """vals, ascending, with a Neumann-like block's value whose vector overlaps the constants most set to 0."""
    if neumann_like:
        vals[np.abs(constants_overlap).argmax()] = 0.0
    return np.sort(vals)


def _plain_eigs(K, M, n, neumann_like):
    """The first n values of the unmemoized block solve: eigh on the dense path, eigsh above it.

    Shift-invert solves (K, M / 4^j) at the shift 0, or -1e-6 tr(K) / tr(M / 4^j) for a Neumann-like pencil,
    and multiplies its values by 1 / 4^j; a Neumann-like block's kernel value, found by its vector, is 0.
    """
    dim = K.shape[0]
    dense = dim <= fem.DENSE_THRESHOLD
    b = _block(n, dim, dense)
    if dense:
        vals, vecs = scipy.linalg.eigh(K.toarray(), M.toarray(), subset_by_index=[0, b - 1])
    else:
        scale = _mass_scale(M)
        Ms = sparse.csc_matrix(M) * scale
        sigma = -1e-6 * float(K.diagonal().sum() / Ms.diagonal().sum()) if neumann_like else 0.0
        vals, vecs = splinalg.eigsh(sparse.csc_matrix(K), k=b, M=Ms, sigma=sigma, which="LM",
                                    v0=np.random.default_rng(0).standard_normal(dim))
        vals = vals * scale
    return _kernel_zeroed(vals, vecs.T @ (M @ np.ones(dim)), neumann_like)[:n]


def _plain_image_eigs(ref, T, bc, n):
    """The first n values of the unmemoized solve of an image: eigh of its reduced form if any, else of its pencil.

    The reduced form's kernel vector is U 1 (M = U^T U), which is how a Neumann-like block's kernel value is found.
    """
    if ref.C is not None:
        b = _block(n, ref.dim, True)
        C = ref.reduced(fem._metric(T), bc.sigma)
        vals, vecs = scipy.linalg.eigh(C, lower=False, subset_by_index=[0, b - 1])
        U = scipy.linalg.cholesky(ref.M.toarray())
        return _kernel_zeroed(vals, vecs.T @ (U @ np.ones(ref.dim)), bc.is_neumann_like)[:n]
    A, M = ref.pencil(T, bc)
    return _plain_eigs(A, M, n, bc.is_neumann_like)


@pytest.mark.parametrize("name", list(PENCIL_DOMAINS))
def test_cached_solve_equals_plain_eigh_and_eigsh_bit_for_bit(name, monkeypatch):
    _fresh_caches(monkeypatch)
    d, opts = PENCIL_DOMAINS[name], fem.FemOptions()
    reduced = set()
    for level, bc, T0, ref, T in _images(d, seed=sum(map(ord, name))):
        dim = ref.dim
        ns = list(range(1, min(6, dim) + 1)) + ([dim] if dim <= 8 else [])  # n == dim: a block of dim
        for n in reversed(ns):  # n = 6 solves the block that n = 5..2 read
            got = fem._solve_levels(d, T0, bc, n, (level,), opts)[0]
            assert np.array_equal(got, _plain_image_eigs(ref, T, bc, n)), (name, dim, n)
        # every image of at most DENSE_THRESHOLD unknowns is reduced, whatever its condition; larger ones shift-invert
        assert (ref.C is not None) == (dim <= fem.DENSE_THRESHOLD), (name, level, bc.kind)
        reduced.add(ref.C is not None)
    assert reduced == ({True, False} if name in ("hexagon", "disk") else {True})


@pytest.mark.parametrize("d, level", [(g.square(1.0), 5), (g.equilateral_triangle(), 5), (g.regular_polygon(6), 4),
                                      (g.Ellipse((0, 0), (1, 1)), 2)], ids=["square", "equilateral", "hexagon", "disk"])
@pytest.mark.parametrize("bc", [ex.DIRICHLET, ex.NEUMANN], ids=["dirichlet", "neumann"])
def test_shift_invert_blocks_skip_no_repeated_eigenvalue(d, level, bc, monkeypatch):
    # the residual check tests only the pairs eigsh returns, so it cannot see a value eigsh skipped: at tol=1e-10,
    # eigsh returned 37.71 for the second 23.33 of the level-2 Neumann disk's images under both similarities here
    _fresh_caches(monkeypatch)
    opts = fem.FemOptions(max_refinement=level, dense_threshold=100)  # every image here by shift-invert
    for T in [g.LinearMap2.identity()] + _seeded_similarities(23, 4)[1::2]:
        ref, carry = _reference(d, level, T, bc.is_dirichlet, opts.dense_threshold)
        assert ref.C is None
        got = fem._solve_levels(d, T, bc, 6, (level,), opts)[0]
        A, M = ref.pencil(carry, bc)
        want = scipy.linalg.eigh(A.toarray(), M.toarray(), subset_by_index=[0, 5], eigvals_only=True)
        if bc.is_neumann_like:  # the kernel value is exactly 0, the generalized solve's its roundoff
            assert got[0] == 0.0 and abs(want[0]) <= 1e-9 * want[1]
            want[0] = 0.0
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)


def test_small_dense_pencils_equal_eigh():
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3, 7):
        a, b = rng.standard_normal((2, dim, dim))
        # Fortran order, as LAPACK would overwrite it in place
        K, M = np.asfortranarray(a @ a.T + dim * np.eye(dim)), np.asfortranarray(b @ b.T + dim * np.eye(dim))
        K0, M0 = K.copy(), M.copy()
        for n in range(dim, 0, -1):
            want = scipy.linalg.eigh(K, M, subset_by_index=[0, _block(n, dim, True) - 1])[0][:n]
            assert np.array_equal(fem.solve_eigs(K, M, n), want), (dim, n)
        assert np.array_equal(K, K0) and np.array_equal(M, M0)  # the caller's matrices are untouched


def _level4_images():
    """(d, level, bc, T, reference, map onto the image) of the square's level-4 Dirichlet image, reduced
    (225 unknowns), and the hexagon's level-4 Neumann and Robin images, solved by shift-invert (561)."""
    square, hexagon = g.square(1.0), g.regular_polygon(6)
    return [(square, *_images(square, seed=5, levels=(4,))[0])] + [
        (hexagon, *image) for image in _images(hexagon, seed=5, levels=(4,))[1:]]


def test_cached_solve_does_not_depend_on_call_order(monkeypatch):
    for d, level, bc, T, _, _ in _level4_images()[:2]:
        opts = fem.FemOptions(max_refinement=level)
        _fresh_caches(monkeypatch)
        cold = fem._solve_levels(d, T, bc, 3, (level,), opts)[0]
        _fresh_caches(monkeypatch)
        fem._solve_levels(d, T, bc, 6, (level,), opts)[0]
        warm = fem._solve_levels(d, T, bc, 3, (level,), opts)[0]  # a prefix of n = 6's block
        again = fem._solve_levels(d, T, bc, 3, (level,), opts)[0]  # from the memo
        assert np.array_equal(warm, cold) and np.array_equal(again, cold)
        again[0] = -1.0  # callers own what they get back
        assert np.array_equal(fem._solve_levels(d, T, bc, 3, (level,), opts)[0], cold)


# ---------------------------------------------------------------------------
# reduced references: one Cholesky per reference, one standard eigh per image
# ---------------------------------------------------------------------------

def _assert_reduced_matches_generalized(ref, T, bc):
    """The reduced solve of the image T of ref equals the generalized eigh of its pencil, to backward stability."""
    s, b = fem._metric(T), min(6, ref.dim)
    A, M = ref.pencil(T, bc)
    want = scipy.linalg.eigh(A.toarray(), M.toarray(), subset_by_index=[0, b - 1])[0]
    C = ref.reduced(s, bc.sigma)
    got = ref.solve(s, bc.sigma, b, bc.is_neumann_like)
    assert (got[0] == 0.0) == bc.is_neumann_like  # the Neumann kernel value is exactly 0
    # both solves are backward stable: small values of strongly stretched images (and the generalized
    # solve's kernel value) agree only to a few eps ||C(S) + U^-T B U^-1||, the largest eigenvalue of
    # the whole discrete spectrum
    norm = scipy.linalg.eigh(C, lower=False, eigvals_only=True, subset_by_index=[ref.dim - 1] * 2)[0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=16 * np.finfo(float).eps * norm)


@pytest.mark.parametrize("name", ["equilateral", "square", "hexagon", "disk"])
def test_reduced_solve_matches_generalized_eigh(name):
    d = PENCIL_DOMAINS[name]
    reduced = 0
    for level in (2, 3, 4):
        for bc in (ex.DIRICHLET, ex.NEUMANN, ex.robin(1.0)):
            for T in _seeded_maps(31 + level, 4):  # det > 0 and det < 0, alternating
                ref, T = _reference(d, level, T, bc.is_dirichlet)
                if ref.C is None:
                    assert ref.dim > fem.DENSE_THRESHOLD
                    continue
                _assert_reduced_matches_generalized(ref, T, bc)
                reduced += 1
    assert reduced >= (2 if name == "disk" else 24)  # the disk: its level-2 Dirichlet images only


@pytest.mark.parametrize("level", [3, 4])
def test_reduced_robin_matches_generalized_eigh_across_sigma(level, monkeypatch):
    _fresh_caches(monkeypatch)
    T0, d = g.LinearMap2(1.2, 0.3, 0.0, 0.9), g.equilateral_triangle()
    ref, T = _reference(d, level, T0, False)
    assert ref.C is not None
    for sigma in (1e-3, 1.0, 1e3, 1e5, 1e7, 1e8):
        _assert_reduced_matches_generalized(ref, T, ex.robin(sigma))
    # at sigma = 1e12 roundoff moves the values by more than MAX_TOLERANCE, and the residual check
    # fails on either route: a typed failure, and nothing remembered
    opts = fem.FemOptions(max_refinement=level)
    for _ in range(2):
        with pytest.raises(fem.SolverFailure, match="residual"):
            fem._solve_levels(d, T0, ex.robin(1e12), 3, (level,), opts)[0]
        with pytest.raises(fem.SolverFailure, match="residual"):
            fem.solve_eigs(*ref.pencil(T, ex.robin(1e12)), 3)
    assert len(fem._VALUES._entries) == 0


@pytest.mark.parametrize("sigma", [0.0, 1e8])
@pytest.mark.parametrize("level", [3, 4])
def test_residual_check_refuses_values_moved_by_one_part_in_a_million(sigma, level):
    # the roundoff term of the bound grows like sigma, yet stays below a 1e-6 relative error at sigma = 1e8
    bc = ex.robin(sigma)
    A, M = _reference(g.square(1.0), level, g.LinearMap2.identity(), False)[0].pencil(g.LinearMap2.identity(), bc)
    vals, vecs = scipy.linalg.eigh(A.toarray(), M.toarray(), subset_by_index=[0, 5])
    fem._check_residuals(A, M, vecs, vals)
    for i in range(1, 6):  # every value but the Neumann kernel's, whose bound is absolute
        moved = vals.copy()
        moved[i] *= 1.0 + 1e-6
        with pytest.raises(fem.SolverFailure, match="residual"):
            fem._check_residuals(A, M, vecs, moved)


def test_reduced_values_do_not_depend_on_call_order(monkeypatch):
    opts = fem.FemOptions(max_refinement=4)
    for d, bc in ((g.square(1.0), ex.NEUMANN), (g.equilateral_triangle(), ex.DIRICHLET)):
        for T0 in _seeded_maps(41, 2):
            ref, T = _reference(d, 4, T0, bc.is_dirichlet)
            assert ref.C is not None
            want = _plain_image_eigs(ref, T, bc, 3)
            _fresh_caches(monkeypatch)
            cold = fem._solve_levels(d, T0, bc, 3, (4,), opts)[0]
            _fresh_caches(monkeypatch)
            fem._solve_levels(d, T0, bc, 6, (4,), opts)[0]
            warm = fem._solve_levels(d, T0, bc, 3, (4,), opts)[0]  # a prefix of n = 6's block
            again = fem._solve_levels(d, T0, bc, 3, (4,), opts)[0]  # from the memo
            assert np.array_equal(cold, want) and np.array_equal(warm, want) and np.array_equal(again, want)
            again[0] = -1.0  # callers own what they get back
            assert np.array_equal(fem._solve_levels(d, T0, bc, 3, (4,), opts)[0], want)


def test_reduced_image_is_solved_once_per_block(monkeypatch):
    from eigenplane import experiments as xp

    _fresh_caches(monkeypatch)
    solved = _count_solves(monkeypatch)
    opts = fem.FemOptions(max_refinement=4)
    maps = _seeded_maps(43, 4)
    for bc in (ex.DIRICHLET, ex.NEUMANN, ex.robin(1.0)):
        for n in range(1, 7):
            for T in maps:
                fem.spectrum_fem(g.square(1.0), bc, n, opts, T)
    # two levels, three conditions, four maps: one standard solve of six values each, and no pencil
    assert len(solved) == 24
    for d in (g.square(1.0), g.equilateral_triangle()):
        for n in range(1, 7):
            for T in maps:
                xp.verify_robin_bound(d, T, 1.0, n, opts)
    # two levels of four Robin images of each domain, and of the triangle itself (the square's side is exact)
    assert len(solved) == 24 + 18 and len({key for key, _ in solved}) == 24 + 18
    assert all(key[0] == "reduced" and b == 6 for key, b in solved)
    fem.spectrum_fem(g.square(1.0), ex.NEUMANN, 7, opts, maps[0])  # a block of seven is another entry
    assert [b for _, b in solved[42:]] == [7, 7]


def test_corrupted_reduction_fails_typed_and_is_not_memoized(monkeypatch):
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(fem, "_REFERENCES", fem._ReferenceCache(fem.REFERENCE_CACHE_BYTES))
    d, T, opts = g.square(1.0), _seeded_maps(47, 1)[0], fem.FemOptions(max_refinement=3)
    good = fem._solve_levels(d, T, ex.DIRICHLET, 6, (3,), opts)[0]
    _fresh_caches(monkeypatch)
    ref, _ = _reference(d, 3, T, True)
    C, j = ref.C.copy(), ref.dim // 2
    C[0, j * (j + 3) // 2] *= 1.0 + 1e-6  # the packed diagonal entry of C11 at the middle unknown
    ref.C = C
    for _ in range(2):
        with pytest.raises(fem.SolverFailure, match="residual"):
            fem._solve_levels(d, T, ex.DIRICHLET, 6, (3,), opts)[0]
    assert len(fem._VALUES._entries) == 0
    monkeypatch.setattr(fem, "_REFERENCES", fem._ReferenceCache(fem.REFERENCE_CACHE_BYTES))
    assert np.array_equal(fem._solve_levels(d, T, ex.DIRICHLET, 6, (3,), opts)[0], good)  # a rebuilt reference


def test_failed_cholesky_is_a_solver_failure_and_is_not_cached():
    # a clockwise triangle has negative area, so a negative definite mass matrix
    mesh = fem.Mesh(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), np.array([[0, 1, 2]]),
                    np.array([[0, 2], [2, 1], [1, 0]]))
    fem._Reference(mesh, False)  # unreduced: nothing to factor
    with pytest.raises(fem.SolverFailure, match="not positive definite"):
        fem._Reference(mesh, False, fem.DENSE_THRESHOLD)
    cache = fem._ReferenceCache(fem.REFERENCE_CACHE_BYTES)
    with pytest.raises(fem.SolverFailure):
        cache.get("clockwise", lambda: fem._Reference(mesh, False, fem.DENSE_THRESHOLD))
    assert cache._bytes == 0 and not cache._entries


def test_dense_eigensolver_failures_are_typed_and_not_memoized(monkeypatch):
    _fresh_caches(monkeypatch)

    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("the algorithm failed to converge")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    d, T, opts = g.square(1.0), _seeded_maps(59, 1)[0], fem.FemOptions(max_refinement=3)
    for bc in (ex.DIRICHLET, ex.robin(1.0)):  # reduced images
        with pytest.raises(fem.SolverFailure, match="dense eigensolve failed"):
            fem._solve_levels(d, T, bc, 2, (3,), opts)[0]
    ref, T = _reference(d, 3, T, False)
    with pytest.raises(fem.SolverFailure, match="dense eigensolve failed"):  # a generalized dense pencil
        fem.solve_eigs(*ref.pencil(T, ex.robin(1.0)), 2)
    assert len(fem._VALUES._entries) == 0


def test_no_module_of_the_package_hashes():
    # the memo keys every entry by what builds its operator: no module imports hashlib or digests a matrix
    import eigenplane

    for path in pathlib.Path(eigenplane.__file__).parent.rglob("*.py"):
        assert not re.search(r"hashlib|content_key|_matrix_arrays", path.read_text()), path.name


def test_reduced_image_hits_the_memo_after_its_reference_is_rebuilt(monkeypatch):
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(fem, "_REFERENCES", fem._ReferenceCache(fem.REFERENCE_CACHE_BYTES))
    d, T, opts = g.equilateral_triangle(), _seeded_maps(67, 1)[0], fem.FemOptions(max_refinement=4)
    bcs = (ex.DIRICHLET, ex.NEUMANN, ex.robin(1.0))
    cold = [fem._solve_levels(d, T, bc, 6, (4,), opts)[0] for bc in bcs]
    evicted = [_reference(d, 4, T, bc.is_dirichlet)[0] for bc in bcs]
    monkeypatch.setattr(fem, "_REFERENCES", fem._ReferenceCache(fem.REFERENCE_CACHE_BYTES))  # every reference gone
    solved = _count_solves(monkeypatch)
    for bc, ref, want in zip(bcs, evicted, cold):
        assert ref.C is not None
        assert np.array_equal(fem._solve_levels(d, T, bc, 6, (4,), opts)[0], want), bc.kind
        rebuilt = _reference(d, 4, T, bc.is_dirichlet)[0]
        assert rebuilt is not ref
    assert solved == []  # no eigh: every image read the entry its evicted reference's solve left


def test_the_memo_entries_of_one_reference_share_its_key(monkeypatch):
    # the memo keeps every entry's key, outside its byte bound: equal reference keys must be one object,
    # or each entry would hold its own copy of the domain's vertex bytes
    _fresh_caches(monkeypatch)
    opts = fem.FemOptions(max_refinement=2)
    for T in _seeded_maps(71, 8):
        fem._solve_levels(g.regular_polygon(40), T, ex.DIRICHLET, 6, (2,), opts)  # a new equal domain each call
    keys = [key[0] for key in fem._VALUES._entries]
    assert len(keys) == 8 and len(set(keys)) == 2  # one reference key per sign of det T
    assert len({id(k) for k in keys}) == 2


@pytest.mark.parametrize("threshold", [100, fem.DENSE_THRESHOLD, 1000])
def test_the_dense_threshold_alone_picks_each_images_route(threshold, monkeypatch):
    # a reference is reduced exactly when its images are solved densely: each image is one standard eigh
    # up to the threshold, one shift-invert eigsh above it, and never a generalized dense eigh(a, b)
    _fresh_caches(monkeypatch)
    calls = []
    eigh, eigsh = scipy.linalg.eigh, splinalg.eigsh

    def dense(a, b=None, **kwargs):
        calls.append(("eigh" if b is None else "eigh(a, b)", a.shape[0]))
        return eigh(a, b, **kwargs)

    def shift_invert(K, **kwargs):
        calls.append(("eigsh", K.shape[0]))
        return eigsh(K, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", dense)
    monkeypatch.setattr(splinalg, "eigsh", shift_invert)
    opts, want = fem.FemOptions(dense_threshold=threshold), []
    for name, d in PENCIL_DOMAINS.items():
        for level, bc, T, ref, _ in _images(d, seed=61, dense_threshold=threshold):  # levels 1-4, three conditions
            fem._solve_levels(d, T, bc, min(6, ref.dim), (level,), opts)[0]
            assert (ref.C is not None) == (ref.dim <= threshold), (name, level, bc.kind)
            want.append(("eigh" if ref.dim <= threshold else "eigsh", ref.dim))
    assert calls == want
    # 58 images of 1 to 8705 unknowns, 11 of them between 101 and 1000
    assert [route for route, _ in want].count("eigh") == {100: 32, fem.DENSE_THRESHOLD: 47, 1000: 52}[threshold]


# ---------------------------------------------------------------------------
# the eigenvalue memo: one solve per pencil and block
# ---------------------------------------------------------------------------

def _fingerprint(*matrices):
    """A SHA-256 digest of the matrices as dense arrays: equal for equal contents, whatever their storage."""
    digest = hashlib.sha256()
    for A in matrices:
        a = np.ascontiguousarray(A.toarray() if sparse.issparse(A) else A)
        digest.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
    return digest.hexdigest()


def _solve_key(ref, T, bc):
    """_count_solves's key for the solve of the image T of ref: its reduced matrix if any, else the pencil
    (A, M / 4^j) that shift-invert solves."""
    if ref.C is not None:
        return ("reduced", _fingerprint(ref.reduced(fem._metric(T), bc.sigma)))
    A, M = ref.pencil(T, bc)
    return _fingerprint(A, M * _mass_scale(M))


def _count_solves(monkeypatch):
    """Record (key, number of values) of every eigh and eigsh call, i.e. every solve that misses the memo.

    The key is the fingerprint of a pencil (K, M), or ("reduced", fingerprint(C)) for a standard eigh of C(S).
    """
    solved = []
    eigh, eigsh = scipy.linalg.eigh, splinalg.eigsh

    def dense(K, M=None, subset_by_index=None, **kwargs):
        # keyed before the call: the reduced solve lets eigh overwrite C(S)
        key = ("reduced", _fingerprint(K)) if M is None else _fingerprint(K, M)
        solved.append((key, subset_by_index[1] + 1))
        return eigh(K, M, subset_by_index=subset_by_index, **kwargs)

    def shift_invert(K, k, M, **kwargs):
        solved.append((_fingerprint(K, M), k))
        return eigsh(K, k=k, M=M, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", dense)
    monkeypatch.setattr(splinalg, "eigsh", shift_invert)
    return solved


def test_memo_hit_equals_cold_solve_bit_for_bit(monkeypatch):
    for d, level, bc, T0, ref, T in _level4_images()[:2]:
        opts = fem.FemOptions(max_refinement=level)
        _fresh_caches(monkeypatch)
        want = _plain_image_eigs(ref, T, bc, 4)
        solved = _count_solves(monkeypatch)
        cold = fem._solve_levels(d, T0, bc, 4, (level,), opts)[0]
        assert np.array_equal(cold, want) and solved == [(_solve_key(ref, T, bc), 6)]
        # an equal domain and map in new objects hit the memo: no second solve
        same = g.LinearMap2(T0.a11, T0.a12, T0.a21, T0.a22)
        hit = fem._solve_levels(g.Polygon(d.vertices.copy()), same, bc, 4, (level,), opts)[0]
        assert np.array_equal(hit, cold) and len(solved) == 1
        hit[0] = -1.0  # callers own what they get back
        assert np.array_equal(fem._solve_levels(d, T0, bc, 4, (level,), opts)[0], cold)
        # n = 3 reads the same block: still one solve
        assert np.array_equal(fem._solve_levels(d, T0, bc, 3, (level,), opts)[0], cold[:3])
        assert len(solved) == 1
        # another map or the other path is another entry
        T2 = g.LinearMap2(T0.a11 * (1.0 + 2.0**-40), T0.a12, T0.a21, T0.a22)
        other_path = 100 if ref.dim <= fem.DENSE_THRESHOLD else 1000
        fem._solve_levels(d, T2, bc, 4, (level,), opts)[0]
        fem._solve_levels(d, T0, bc, 4, (level,), fem.FemOptions(max_refinement=level, dense_threshold=other_path))[0]
        assert len(solved) == 3


def test_lone_shift_invert_fundamental_is_its_own_entry(monkeypatch):
    for d, level, bc, T0, ref, T in _level4_images()[1:]:
        assert ref.dim > fem.DENSE_THRESHOLD
        opts = fem.FemOptions(max_refinement=level)
        _fresh_caches(monkeypatch)
        want = [_plain_image_eigs(ref, T, bc, n) for n in range(1, 7)]
        solved = _count_solves(monkeypatch)
        one = fem._solve_levels(d, T0, bc, 1, (level,), opts)[0]
        assert np.array_equal(one, want[0]) and solved == [(_solve_key(ref, T, bc), 1)]  # eigsh(k=1)
        for n in range(2, 7):  # one more solve, of six values, serves n = 2..6
            assert np.array_equal(fem._solve_levels(d, T0, bc, n, (level,), opts)[0], want[n - 1]), n
        assert [b for _, b in solved] == [1, 6] and len(fem._VALUES._entries) == 2
        assert np.array_equal(fem._solve_levels(d, T0, bc, 1, (level,), opts)[0], one) and len(solved) == 2


def test_hexagon_right_hand_side_is_solved_once_per_bc_and_n(monkeypatch):
    from eigenplane import experiments as xp

    _fresh_caches(monkeypatch)
    hexagon = g.regular_polygon(6)
    identity = g.LinearMap2.identity()
    asked = []
    solve_levels = fem._solve_levels

    def ask(d, T, bc, n, *args, **kwargs):
        asked.append((bc.kind, T.as_array().tobytes(), n))
        return solve_levels(d, T, bc, n, *args, **kwargs)

    monkeypatch.setattr(fem, "_solve_levels", ask)
    solved = _count_solves(monkeypatch)
    maps = _seeded_maps(11, 5)
    for bc in (ex.DIRICHLET, ex.NEUMANN):
        ref, _ = _reference(hexagon, 4, identity, bc.is_dirichlet)
        assert ref.dim > fem.DENSE_THRESHOLD  # shift-invert
        for n in (2, 3):
            for T in maps:
                xp.verify_linear_map_bound(hexagon, T, bc, n)  # levels 3 and 4
            assert asked.count((bc.kind, identity.as_array().tobytes(), n)) == len(maps), (bc.kind, n)
        # n = 2 and 3 read one block of six
        assert [b for key, b in solved if key == _solve_key(ref, identity, bc)] == [6], bc.kind
    assert len(solved) == len({key for key, _ in solved})  # every pencil was solved once
    # per condition, the five maps and the hexagon itself: level 3 on the reduced form, level 4 by shift-invert
    assert sorted(key[0] == "reduced" for key, _ in solved) == [False] * 12 + [True] * 12


def test_solver_failures_are_not_memoized(monkeypatch):
    _fresh_caches(monkeypatch)
    dim = fem.DENSE_THRESHOLD + 1
    K = sparse.diags(np.r_[0.0, np.ones(dim - 1)]).tocsr()  # singular: its LU fails
    M = sparse.identity(dim, format="csr")
    for _ in range(2):
        with pytest.raises(fem.SolverFailure, match="shift-invert iteration failed"):
            fem.solve_eigs(K, M, 2)
    assert len(fem._VALUES._entries) == 0
    calls = []

    def singular(*args, **kwargs):
        calls.append(1)
        raise RuntimeError("Factor is exactly singular")  # what eigsh raises when its LU fails

    monkeypatch.setattr(splinalg, "eigsh", singular)
    d, level, bc, T, ref, _ = _level4_images()[1]
    assert ref.dim > fem.DENSE_THRESHOLD
    for _ in range(2):
        with pytest.raises(fem.SolverFailure, match="shift-invert iteration failed"):
            fem._solve_levels(d, T, bc, 2, (level,), fem.FemOptions(max_refinement=level))[0]
    assert len(calls) == 2 and len(fem._VALUES._entries) == 0


def test_value_memo_stays_within_its_byte_bound_under_threads(monkeypatch):
    import sys
    import threading

    d, opts = g.square(1.0), fem.FemOptions()
    images = _images(d, seed=9, levels=(2, 3))  # reduced Dirichlet, Neumann and Robin images
    want = [[_plain_image_eigs(ref, T, bc, n) for n in range(1, 7)] for _, bc, _, ref, T in images]
    memo = fem._ReferenceCache(8 * 24)  # room for four blocks of six: entries are evicted and solved again
    monkeypatch.setattr(fem, "_VALUES", memo)
    sizes = []
    wrong = []

    def work(seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            i, n = int(rng.integers(0, len(images))), int(rng.integers(1, 7))
            level, bc, T, _, _ = images[i]
            if not np.array_equal(fem._solve_levels(d, T, bc, n, (level,), opts)[0], want[i][n - 1]):
                wrong.append((i, n))
            with memo._lock:  # a consistent view, between two updates
                sizes.append(memo._bytes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert max(sizes) <= memo.max_bytes
    assert memo._bytes == sum(v.nbytes for v in memo._entries.values()) <= memo.max_bytes
    assert 0 < len(memo._entries) < len(images) * 6
