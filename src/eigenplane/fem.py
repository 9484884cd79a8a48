"""P1 finite elements for Laplace eigenvalues on polygons, ellipses and their linear images.

Conforming piecewise-linear elements on uniformly refined triangulations.
Meshing is array code on one edge table (np.unique over sorted triangle
sides) that numbers refinement midpoints and yields the boundary edges;
meshes above MAX_TRIANGLES are refused before any work.  All local integrals
(stiffness, mass, boundary mass) are exact, and Dirichlet conditions are
imposed by eliminating boundary nodes.  Conforming spaces on nested meshes
make every Dirichlet eigenvalue a decreasing-in-refinement upper bound on
the true one.

A linear image T(D) is solved on D's mesh carried over by T.  Each domain is
meshed and assembled once per level, per set of unknowns (the interior nodes
under Dirichlet, every node otherwise) and, for polygons, per sign of det T
into reference matrices K11, K12, K22 and M on one sparse pattern; the image's
stiffness is then S11 K11 + S12 K12 + S22 K22 with S = T^-1 T^-T (S12 negated
on the reflected polygon), its mass M (|det T| cancels).  A bounded cache
keeps these references between calls, and an untransformed domain is the
case T = I, so every FEM spectrum takes the same path.  A triangle or
parallelogram D is T0 of the equilateral triangle or the unit square (T0
sends vertex i to vertex i) and is solved as (T T0)(model): midpoint
refinement commutes with T0, which carries the model's mesh onto D's, so
moved copies and isosceles apertures share the model's references.  D keeps
its own mesh if cond(T0) > 16 (the two meshes' Neumann values part by about
2e-14 cond^2) or its area is beyond 2^+-16 times the model's.  An ellipse is
meshed centred at the origin, since a translation moves no eigenvalue: its
reference depends on its shape alone, and a re-centred copy reuses it.

A reference of at most FemOptions.dense_threshold unknowns (default
DENSE_THRESHOLD = 400, the measured crossover of the standard dense solve
and shift-invert) is reduced once when it is built: one Cholesky
M = U^T U, and Cij = U^-T Kij U^-1 kept as packed upper triangles.  Every
image of it, Dirichlet, Neumann or Robin, is then the standard problem
(C(S) + U^-T B U^-1) v = lambda v with C(S) = S11 C11 + S12 C12 + S22 C22,
one dense eigh.  B is the image's Robin boundary mass (zero unless
sigma > 0): the reference boundary edges' mass scaled by
sigma |T t_e| / |det T|, which S and sigma determine, and which lives on
the boundary nodes only, so its term costs one triangular solve for those
nodes' columns of U^-T.  Images of larger references are solved as the
pencil (A, M) by shift-invert Lanczos; none is a generalized dense solve.
On either route a Neumann-like image's kernel is exact (_checked), and
shift-invert shifts its pencil by -1e-6 tr(A)/tr(M), in eigenvalue units.

Each image is solved once, for a block of its BLOCK = 6 smallest
eigenvalues (or n, if more are asked), and a call for n values reads a
prefix of that block: partial sums for n = 1..6 cost one solve.  A lone
n = 1 on the shift-invert route solves for one value only, because Lanczos
pays for every value it converges (six values took 1.5 to 1.8 times as long
as one on a 465-unknown pencil, one BLAS thread on a 2-vCPU virtual
machine), while a dense solve costs about the same for one value as for
six.  Before anything is built, Euler's formula counts each level's
unknowns, which fix its route and block (_block refuses an n outside
1..dim, 1..dim - 1 for Lanczos), and a small memo is asked for the block
under what builds the image's operator, never its bytes: the reference's
cache key (which records the route), S, sigma and the block size.  So a
hit meshes, assembles and solves nothing, even for a reference too large
to keep; the finite-difference ladders share the memo.

scipy is imported by the functions that build sparse matrices or solve,
when they first run: scipy.linalg by the reductions and dense solves,
scipy.sparse by assembly, and scipy.sparse.linalg by shift-invert only.
An image whose values the memo holds imports nothing.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .exact import BoundarySpec, NumericalFailure, Spectrum
from .geometry import DomainSpec, Ellipse, LinearMap2, Polygon, equilateral_triangle, orient, square

__all__ = [
    "Mesh",
    "FemOptions",
    "SolverFailure",
    "mesh_domain",
    "assemble",
    "solve_eigs",
    "spectrum_fem",
    "mesh_to_text",
]

ELLIPSE_BASE_SEGMENTS = 64
#: Largest mesh built: the disk at level 7 (64 x 4^7), 48 s and 1.4 GB to solve on one thread.
MAX_TRIANGLES = 2**20


class SolverFailure(NumericalFailure):
    """Eigenvalue iteration failed to converge; message carries diagnostics."""


@dataclass(eq=False)
class Mesh:
    """Conforming triangle mesh.

    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, positively oriented
    boundary_edges : (nb, 2) int array, directed so the domain lies on the left
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def boundary_vertices(self) -> np.ndarray:
        return np.unique(self.boundary_edges)

    def interior_vertices(self) -> np.ndarray:
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[self.boundary_vertices()] = False
        return np.nonzero(mask)[0]


def _edges(tris: np.ndarray):
    """Edges numbered by first appearance among the sides (0,1), (1,2), (2,0) of triangle 0, 1, ...

    Returns each edge's first directed occurrence (ne, 2), the edge of every
    triangle side (nt, 3) and the number of triangles owning each edge.
    """
    sides = tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    a, b = sides.T
    key = np.minimum(a, b) * (sides.max() + 1) + np.maximum(a, b)
    # return_index is each key's first occurrence: numpy sorts stably for it
    _, first, inverse, count = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    return sides[first[order]], np.argsort(order)[inverse].reshape(-1, 3), count[order]


def _point_in_triangle(p, a, b, c) -> bool:
    eps = -1e-14
    return orient(a, b, p) >= eps and orient(b, c, p) >= eps and orient(c, a, p) >= eps


def _triangulate_polygon(verts: np.ndarray) -> np.ndarray:
    """Fan a convex polygon from vertex 0 unless vertex 1 or n-1 lies on a straight edge; ear-clip otherwise."""
    n = len(verts)
    fan = np.stack([np.zeros(n - 2, dtype=int), np.arange(1, n - 1), np.arange(2, n)], axis=1)
    convex = np.all(orient(np.roll(verts, 2, axis=0).T, np.roll(verts, 1, axis=0).T, verts.T) >= 0)
    if convex and np.all(orient(*(verts[fan[:, i]].T for i in range(3))) > 0):
        return fan
    idx = list(range(n))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10 * n * n:
            raise ValueError("ear clipping failed; polygon may be degenerate")
        m = len(idx)
        for k in range(m):
            i0, i1, i2 = idx[(k - 1) % m], idx[k], idx[(k + 1) % m]
            a, b, c = verts[i0], verts[i1], verts[i2]
            if orient(a, b, c) <= 1e-14 * (1 + np.abs(verts).max()) ** 2:
                continue  # reflex or collinear corner
            if any(
                _point_in_triangle(verts[j], a, b, c)
                for j in idx
                if j not in (i0, i1, i2)
            ):
                continue
            tris.append([i0, i1, i2])
            idx.pop(k)
            break
        else:
            raise ValueError("ear clipping found no ear; polygon may be degenerate")
    tris.append(idx)
    return np.asarray(tris, dtype=int)


def _refine(verts, tris, angles, project):
    """Split every triangle into 4 congruent children; edge e's midpoint becomes vertex nv + e.

    With `angles` (each vertex's boundary parameter, NaN inside), `project`
    places all new boundary midpoints at the circular means of their end
    angles in one call; without, refinement is straight (nested).
    """
    nv = len(verts)
    edges, side_edge, count = _edges(tris)
    mid = 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])
    # corners 0-2 and midpoints 3-5 of sides 01, 12, 20 -> the four children
    tris = np.concatenate([tris, nv + side_edge], axis=1)[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]]
    if angles is not None:
        boundary = np.nonzero(count == 1)[0]
        pa, pb = angles[np.sort(edges[boundary], axis=1)].T  # pa at the smaller index: keeps the rounding
        diff = (pb - pa + math.pi) % (2 * math.pi) - math.pi
        phi = pa + diff / 2.0
        mid[boundary] = project(phi)
        angles = np.concatenate([angles, np.full(len(edges), np.nan)])
        angles[nv + boundary] = phi % (2 * math.pi)
    return np.vstack([verts, mid]), tris.reshape(-1, 3), angles


def _unknowns(d: DomainSpec, level: int, dirichlet: bool) -> int:
    """Unknowns of d's mesh at `level` (its interior nodes if `dirichlet`), counted without meshing.

    Refinement quadruples the f triangles and doubles the b boundary edges;
    by Euler's formula there are 1 + (f + b)/2 nodes, b on the boundary.
    ValueError for a mesh over MAX_TRIANGLES triangles or with no unknown.
    """
    sides = len(d.vertices) if isinstance(d, Polygon) else ELLIPSE_BASE_SEGMENTS
    base = sides - 2 if isinstance(d, Polygon) else sides
    if base * 4 ** min(level, 32) > MAX_TRIANGLES:  # capped: a huge level builds no huge integer
        raise ValueError(f"level {level} would mesh {base} x 4^{level} triangles, more than {MAX_TRIANGLES}")
    f, b = base * 4**level, sides * 2**level
    dim = 1 + (f - b if dirichlet else f + b) // 2
    if dim == 0:
        raise ValueError("no interior degrees of freedom; refine the mesh")
    return dim


def mesh_domain(d: DomainSpec, level: int = 0) -> Mesh:
    """Triangulate a domain and refine uniformly `level` times.

    Polygons are fan/ear triangulated; refinements are nested.  Ellipses start
    from the inscribed regular 64-gon fanned around the center, and each
    refinement re-projects new boundary midpoints onto the true ellipse.
    Levels whose mesh would exceed MAX_TRIANGLES raise ValueError up front.
    """
    if level < 0:
        raise ValueError("refinement level must be >= 0")
    if not isinstance(d, (Polygon, Ellipse)):
        raise TypeError(f"not a domain: {type(d).__name__}")
    _unknowns(d, level, False)  # refuses an oversized level
    if isinstance(d, Polygon):
        verts = d.vertices.copy()
        tris = _triangulate_polygon(verts)
        angles = project = None
    else:
        k = ELLIPSE_BASE_SEGMENTS
        phis = 2 * math.pi * np.arange(k) / k
        verts = np.vstack([d.center[None, :], d.boundary_point(phis)])
        ring = np.arange(1, k + 1)
        tris = np.stack([np.zeros(k, dtype=int), ring, np.roll(ring, -1)], axis=1)
        angles, project = np.concatenate([[np.nan], phis]), d.boundary_point

    for _ in range(level):
        verts, tris, angles = _refine(verts, tris, angles, project)

    if np.any(orient(*(verts[tris[:, i]].T for i in range(3))) <= 0):
        raise ValueError("triangulation produced a non-positively-oriented triangle")
    edges, _, count = _edges(tris)
    return Mesh(verts, tris, edges[count == 1])


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

_LOCAL_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
_EDGE_MASS = np.array([2.0, 1.0, 1.0, 2.0]) / 6.0  # entries (a,a), (a,b), (b,a), (b,b) of edge (a, b)
#: Bytes of reference arrays kept between calls; a reference over half of it is rebuilt whenever asked for.
REFERENCE_CACHE_BYTES = 8 * 2**20
#: Default FemOptions.dense_threshold, the largest reference reduced: shift-invert wins above ~400 unknowns.
DENSE_THRESHOLD = 400


class _Reference:
    """P1 matrices of one mesh, split so that any linear image is a combination.

    The image of the mesh under x = T y has, with S = T^-1 T^-T, stiffness
    |det T| (S11 K11 + S12 K12 + S22 K22) and mass |det T| M, where on the
    mesh itself K11_ij = int d1 phi_i d1 phi_j, K22_ij = int d2 phi_i d2 phi_j
    and K12_ij = int (d1 phi_i d2 phi_j + d2 phi_i d1 phi_j).  All four are
    CSR matrices on one pattern over one set of unknowns, so an image's pencil
    costs a three-term combination of data arrays.  The unknowns are every
    node, or under Dirichlet the interior nodes numbered in order (the
    boundary nodes are eliminated); only the former keep the boundary edges
    that Robin needs.

    With at most `dense_threshold` unknowns (none at the default 0), the
    reference also keeps U (M = U^T U) and Cij = U^-T Kij U^-1 as packed
    upper triangles, U in `U` and the three Cij as the rows of `C`; an image
    is then a standard problem (`solve`).  Otherwise C and U are None.
    Every array is read-only.
    """

    def __init__(self, mesh: Mesh, dirichlet: bool, dense_threshold: int = 0):
        verts, tris = mesh.vertices, mesh.triangles
        keep = np.ones(len(verts), dtype=bool)
        keep[mesh.boundary_edges] = not dirichlet  # Dirichlet eliminates the boundary nodes
        nk = int(keep.sum())
        if nk == 0:
            raise ValueError("no interior degrees of freedom; refine the mesh")
        number = np.cumsum(keep) - 1
        a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
        area = 0.5 * orient(a.T, b.T, c.T)[:, None]
        # gradients of barycentric coordinates: rotate opposite edges
        gx = np.stack([b[:, 1] - c[:, 1], c[:, 1] - a[:, 1], a[:, 1] - b[:, 1]], axis=1) / (2.0 * area)
        gy = np.stack([c[:, 0] - b[:, 0], a[:, 0] - c[:, 0], b[:, 0] - a[:, 0]], axis=1) / (2.0 * area)
        area = area[:, :, None]
        local = (
            area * gx[:, :, None] * gx[:, None, :],
            area * (gx[:, :, None] * gy[:, None, :] + gy[:, :, None] * gx[:, None, :]),
            area * gy[:, :, None] * gy[:, None, :],
            area * _LOCAL_MASS,
        )
        # the local entry (t, i, j) between kept nodes lands in CSR slot `slot` of the row-major pattern
        ids, kt = number[tris], keep[tris]  # each corner's unknown, and whether it is one
        kept = (kt[:, :, None] & kt[:, None, :]).ravel()
        pattern, slot = np.unique((ids[:, :, None] * nk + ids[:, None, :]).ravel()[kept], return_inverse=True)
        rows, cols = np.divmod(pattern, nk)
        indices = cols.astype(np.int32)
        indptr = np.searchsorted(rows, np.arange(nk + 1)).astype(np.int32)
        *self.K, self.M = (
            self._csr(np.bincount(slot, weights=x.ravel()[kept], minlength=len(pattern)), indices, indptr)
            for x in local
        )

        # Robin: edge vectors t_e and the slots of each edge's 2x2 boundary mass (no edges under Dirichlet)
        e = mesh.boundary_edges[:0] if dirichlet else mesh.boundary_edges
        self.edges = verts[e[:, 1]] - verts[e[:, 0]]
        self.edge_slots = np.searchsorted(pattern, e[:, [0, 0, 1, 1]] * nk + e[:, [0, 1, 0, 1]])
        self.C = self.U = None
        if nk <= dense_threshold:
            self._reduce(pattern)
        for arr in self._arrays():
            arr.setflags(write=False)

    def _reduce(self, pattern):
        """Packed upper triangles of U, where M = U^T U, and of the three Cij = U^-T Kij U^-1, all in place.

        Each dense matrix is scattered straight from the CSR slots (`pattern`
        holds row * dim + column of each), factored or reduced by LAPACK
        dpotrf or dsygst, which read and write its upper triangle only, and
        packed; one dim x dim array besides U lives at a time.
        """
        from scipy.linalg import lapack

        n = self.dim

        def dense(data):
            a = np.zeros((n, n))
            a.ravel()[pattern] = data
            return a.T  # the same symmetric matrix, in the column order LAPACK overwrites in place

        U, info = lapack.dpotrf(dense(self.M.data), overwrite_a=1)
        if info:
            raise SolverFailure(f"mass matrix not positive definite: Cholesky failed at pivot {info} of {n}")
        self.U = lapack.dtrttp(U)[0]
        self.C = np.stack([lapack.dtrttp(lapack.dsygst(dense(K.data), U, overwrite_a=1)[0])[0] for K in self.K])

    def _arrays(self):
        reduced = () if self.C is None else (self.C, self.U)
        return (*(K.data for K in self.K), self.M.indices, self.M.indptr, self.M.data, self.edges, self.edge_slots,
                *reduced)

    @property
    def dim(self) -> int:
        return self.M.shape[0]

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self._arrays())

    @staticmethod
    def _csr(data, indices, indptr):
        from scipy import sparse

        n = len(indptr) - 1
        return sparse.csr_matrix((data, indices, indptr), shape=(n, n))

    def pencil(self, T: LinearMap2, bc: BoundarySpec):
        """Pencil (A, M) of the image under T, |det T| divided out: A = stiffness (+ Robin boundary mass)."""
        return self.stiffness(_metric(T), bc.sigma), self.M

    def stiffness(self, s, sigma: float):
        """A of the image with metric s = (S11, S12, S22) and Robin parameter sigma, on M's pattern."""
        s11, s12, s22 = s
        K11, K12, K22 = self.K
        k = s11 * K11.data + s12 * K12.data + s22 * K22.data
        if sigma:
            k += np.bincount(self.edge_slots.ravel(), weights=self.robin_weights(s, sigma).ravel(), minlength=len(k))
        return self._csr(k, self.M.indices, self.M.indptr)

    def robin_weights(self, s, sigma: float) -> np.ndarray:
        """Each boundary edge's Robin mass entries (_EDGE_MASS order) on the image with metric s, |det T| divided out.

        The image edge T t has length |T t| = sqrt(t^T S^-1 t), and 1/|det T|
        = sqrt(det S), so the weight sigma |T t| / |det T| is
        sigma sqrt(t^T adj(S) t): S and sigma determine it.
        """
        s11, s12, s22 = s
        tx, ty = self.edges.T
        with np.errstate(over="ignore"):  # a weight beyond double precision is inf, and the solve fails typed
            return sigma * np.sqrt(s22 * tx * tx - 2.0 * s12 * tx * ty + s11 * ty * ty)[:, None] * _EDGE_MASS

    def boundary_mass(self, s, sigma: float):
        """The boundary nodes and B_bb, the image's Robin boundary mass B on them (B is zero elsewhere)."""
        # each edge's ends, read off its diagonal slots and numbered among the boundary nodes
        nodes, local = np.unique(self.M.indices[self.edge_slots[:, [0, 3]]], return_inverse=True)
        local = local.reshape(-1, 2)
        B = np.zeros((len(nodes), len(nodes)))
        np.add.at(B, (local[:, [0, 0, 1, 1]], local[:, [0, 1, 0, 1]]), self.robin_weights(s, sigma))
        return nodes, B

    def reduced(self, s, sigma: float = 0.0) -> np.ndarray:
        """C(S) + U^-T B U^-1, B the Robin boundary mass at sigma: a new array, its upper triangle set.

        C(S) = S11 C11 + S12 C12 + S22 C22 for s = (S11, S12, S22).  For
        sigma > 0 the second term is L B_bb L^T, L the boundary nodes'
        columns of U^-T: one dtrsm.
        """
        from scipy.linalg import blas, lapack

        a = lapack.dtpttr(self.dim, s @ self.C)[0]
        if sigma:
            nodes, B = self.boundary_mass(s, sigma)
            L = blas.dtrsm(1.0, lapack.dtpttr(self.dim, self.U)[0], np.eye(self.dim)[:, nodes], trans_a=1)
            with np.errstate(over="ignore", invalid="ignore"):  # an entry that overflows is refused by solve
                a += L @ (B @ L.T)
        return a

    def solve(self, s, sigma: float, b: int, neumann_like: bool) -> np.ndarray:
        """The b smallest eigenvalues of the image with metric s = (S11, S12, S22) and Robin parameter sigma.

        One standard eigh of the upper triangle of `reduced(s, sigma)`; each
        pair (lambda, v) is residual-checked as the pair (lambda, U^-1 v) of
        the image's pencil (A(S) + B, M) (_checked), so a wrong reduction
        fails as a wrong solve would.
        """
        from scipy.linalg import blas, lapack

        a = self.reduced(s, sigma)
        if not np.isfinite(a).all():
            raise SolverFailure(f"reduced matrix of the image is not finite at dim={self.dim} (sigma={sigma:g})")
        vals, vecs = _dense_eigh(b, a, lower=False, overwrite_a=True, check_finite=False)
        u = blas.dtrsm(1.0, lapack.dtpttr(self.dim, self.U)[0], vecs)
        return _checked(self.stiffness(s, sigma), self.M, vals, u, neumann_like)


class _ReferenceCache:
    """Least recently used entries (references or eigenvalue arrays), bounded by their nbytes.

    An entry larger than half the bound is built and returned every time it
    is asked for, never kept.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            ref = self._entries.get(key)
            if ref is not None:
                self._entries.move_to_end(key)
                return ref
        ref = build()
        size = ref.nbytes
        with self._lock:
            # an entry over half the bound is returned but not kept: alone it would evict all the others
            if 2 * size <= self.max_bytes and key not in self._entries:
                self._entries[key] = ref
                self._bytes += size
                while self._bytes > self.max_bytes:
                    self._bytes -= self._entries.popitem(last=False)[1].nbytes
        return ref


_REFERENCES = _ReferenceCache(REFERENCE_CACHE_BYTES)
#: The first of equal reference keys among the last 64 formed: the memo entries of one reference share its bytes.
_interned = functools.lru_cache(maxsize=64)(lambda key: key)


def _metric(T: LinearMap2) -> np.ndarray:
    """(S11, S12, S22) of S = T^-1 T^-T, the metric that the image's Rayleigh quotient puts on the reference."""
    Ti = T.inverse().as_array()
    return (Ti @ Ti.T).take((0, 1, 3))


#: Largest cond(T0) of a triangle or parallelogram solved as T0(model) (_model).
_MODEL_MAX_COND = 16.0
#: The model shape of the polygons with `sides` vertices, if any, built on first use.
_model_of = functools.cache(lambda sides: equilateral_triangle() if sides == 3 else square() if sides == 4 else None)


def _model(d: DomainSpec) -> tuple:
    """(model, T0) with d = T0(model) up to translation, T0 sending vertex i to vertex i; () to solve d itself.

    The rule and its bounds are the module docstring's; the area bound keeps
    a tiny or huge d's size in its own mesh, out of the absolute singularity
    test of (T T0).inverse().  v0 + v2 = v1 + v3 to 1e-12 of the longest
    side makes a parallelogram.  Kept on d once found.
    """
    if isinstance(d, Ellipse):
        return ()
    if d._fem_model is None:
        v, model, found = d.vertices, _model_of(len(d.vertices)), ()
        if model is not None and not np.array_equal(v, model.vertices) and (len(v) == 3 or math.hypot(
                *(v[0] + v[2] - v[1] - v[3])) <= 1e-12 * np.hypot(*(v - np.roll(v, 1, axis=0)).T).max()):
            m = model.vertices
            T0 = LinearMap2.from_array((v[[1, -1]] - v[0]).T @ np.linalg.inv((m[[1, -1]] - m[0]).T))
            r1, r2 = T0.singular_values()
            if r1 <= _MODEL_MAX_COND * r2 and 2.0**-16 <= T0.det <= 2.0**16:
                found = (model, T0)
        d._fem_model = found  # set once, so a concurrent caller never reads a half-made decision
    return d._fem_model


def _reference(d: DomainSpec, level: int, flip: bool, dirichlet: bool, dense_threshold: int = DENSE_THRESHOLD):
    """The reference at `level` of d, or of R(d) if `flip`, unbuilt: its cache key, its unknowns and its build.

    T(d) is meshed as the image of d's mesh, which for a polygon is the mesh
    mesh_domain builds for apply_map(T, d).  Polygon stores an image with
    det T < 0 in reversed vertex order, so its fan starts at another vertex
    (the square's diagonal flips).  The reflection R(d) is reversed alike, so
    for det T < 0 the reference is the mesh of R(d) and T(d) = (T R)(R(d)).
    An ellipse's reference is the mesh of its copy centred at the origin, and
    its key holds the semi-axes and rotation but no centre: a translation
    moves no eigenvalue, so every re-centred copy shares one reference and
    one set of memo entries (its values move in the last bits from those of
    a mesh built where the ellipse lies).  The key records the route (reduced
    exactly when the unknowns, counted by _unknowns, are at most
    `dense_threshold`); build() checks the count.
    """
    dim = _unknowns(d, level, dirichlet)
    if isinstance(d, Polygon):
        key = ("polygon", d.vertices.tobytes(), level, flip, dirichlet, dim <= dense_threshold)
    else:
        key = ("ellipse", d.semi_axes, d.rotation, level, dirichlet, dim <= dense_threshold)

    def build():
        if isinstance(d, Ellipse):
            base = Ellipse((0.0, 0.0), d.semi_axes, d.rotation)
        else:
            base = Polygon(d.vertices @ np.diag([1.0, -1.0])) if flip else d
        ref = _Reference(mesh_domain(base, level), dirichlet, dense_threshold)
        if ref.dim != dim:
            raise AssertionError(f"level {level} meshed {ref.dim} unknowns, not the {dim} Euler's formula counts")
        return ref

    return _interned(key), dim, build


def assemble(mesh: Mesh, bc: BoundarySpec):
    """The pencil (A, M) of the P1 space: A u = lambda M u.

    Both are exact elementwise: constant gradients for the stiffness, the
    analytic 3x3 local mass for M, and exact edge integrals of products of
    linear functions for the Robin boundary mass (scaled by sigma), which A
    adds to the stiffness.  Dirichlet boundary nodes are eliminated, so A and
    M are assembled over the interior degrees of freedom only; Neumann/Robin
    keep every node.  This is the identity-map case of the reference assembly.
    """
    return _Reference(mesh, bc.is_dirichlet).pencil(LinearMap2.identity(), bc)


# ---------------------------------------------------------------------------
# eigenvalue extraction
# ---------------------------------------------------------------------------

#: Relative (and, near a zero eigenvalue, absolute) residual every eigenpair must meet.
EIG_TOLERANCE = 1e-8
#: Residual allowed per unit ||K||_inf |v| on top of EIG_TOLERANCE: the roundoff of a backward-stable solve.
#: Solves of Robin images (levels 1-4, sigma up to 1e14) left up to 10 eps.
ROUNDOFF = 16 * np.finfo(float).eps
#: The loosest relative residual accepted, however large the roundoff term.
MAX_TOLERANCE = 1e-6
#: Eigenvalues solved per pencil: one solve serves the partial sums n = 1..6 of the paper's bounds.
BLOCK = 6
#: Bytes of eigenvalues remembered between calls (4096 values); each entry's key and array add ~400 bytes more
#: (measured: 360 for a FEM image, which shares its reference's key and vertex bytes; 410 for an FD ladder).
VALUE_CACHE_BYTES = 32 * 2**10


@dataclass(frozen=True)
class FemOptions:
    """Refinement and solver knobs for spectrum_fem.

    max_refinement is the finest level (the coarse companion is one below);
    references of at most dense_threshold unknowns are reduced and their
    images solved by a standard dense eigh, larger ones by shift-invert
    Lanczos.  The default 400 is the measured crossover of the two, per block
    of six values with its residual check (one BLAS thread on a 2-vCPU
    virtual machine: 7.2 against 9.1-9.5 ms at 357 unknowns, 8.1-9.2 against
    8.8-9.7 ms at 385, 10.2-10.4 against 8.7-10.5 ms at 405, 13.7-13.9
    against 11.0-11.3 ms at 465).
    """

    max_refinement: int = 5
    dense_threshold: int = DENSE_THRESHOLD
    extrapolate: bool = True

    def __post_init__(self):
        if self.max_refinement < 1:
            raise ValueError("max_refinement must be >= 1")
        if self.dense_threshold < 100:
            raise ValueError("dense_threshold must be >= 100")


def solve_eigs(
    K,
    M,
    n: int,
    dense_threshold: int = DENSE_THRESHOLD,
    neumann_like: bool = False,
) -> np.ndarray:
    """n smallest eigenvalues of K u = lambda M u, checked (_checked): a neumann_like pencil's kernel is exact.

    Dense eigh up to `dense_threshold` unknowns, shift-invert Lanczos above
    it on (K, M / 4^j), 4^j near M's mean diagonal, at the shift 0, or for a
    neumann_like pencil -1e-6 tr(K) / tr(M / 4^j), below its kernel in
    eigenvalue units at any size (1e-10 left a thin ellipse's LU too near
    singular, 1e-4 slowed the level-5 disk 1.7x).  Lanczos starts from a
    fixed pseudo-random vector, so reruns are bit-identical; a constant start
    would be orthogonal to the antisymmetric modes of symmetric domains.

    The solve is for a block of b = _block(n, dim, dense) values: BLOCK or
    n, whichever is more, except that a lone n = 1 on the shift-invert route
    solves for one value, since Lanczos pays for each value it converges and
    dense eigh hardly does.  An n outside 1..dim (1..dim - 1 for Lanczos)
    raises ValueError before any solve.  Nothing is remembered here: the
    memo keys an image by what builds its pencil (spectrum_fem), which
    arbitrary matrices lack.
    """
    dim = K.shape[0]
    dense = dim <= dense_threshold
    b = _block(n, dim, dense)
    from scipy import sparse

    if dense:  # on dense copies: the caller's K and M are never overwritten
        vals, vecs = _dense_eigh(b, *(A.toarray() if sparse.issparse(A) else np.array(A, dtype=float) for A in (K, M)))
    else:
        from scipy.sparse import linalg as splinalg

        scale = 4.0 ** -(math.frexp(float(M.diagonal().mean()))[1] // 2)
        sigma = -1e-6 * float(K.diagonal().sum() / (M.diagonal().sum() * scale)) if neumann_like else 0.0
        try:
            # keep eigsh's default tolerance (machine precision): at tol=1e-10 it skipped a double eigenvalue of a
            # similarity image of the level-2 Neumann disk (lambda_5 = 37.71 for 23.33), and the residual check,
            # which tests only the pairs returned, cannot see a missing one
            vals, vecs = splinalg.eigsh(
                sparse.csc_matrix(K), k=b, M=sparse.csc_matrix(M) * scale, sigma=sigma, which="LM",
                v0=np.random.default_rng(0).standard_normal(dim),
            )
        except (splinalg.ArpackNoConvergence, RuntimeError) as exc:  # RuntimeError: a singular LU
            raise SolverFailure(f"shift-invert iteration failed at dim={dim}, n={b}: {exc}") from exc
        vals = vals * scale
    return _checked(K, M, vals, vecs, neumann_like)[:n]


def _block(n: int, dim: int, dense: bool) -> int:
    """Values solved for a call asking n of dim: a block of BLOCK (or n), one for a lone n = 1 off the dense route."""
    most = dim if dense else dim - 1  # Lanczos converges at most dim - 1 values
    if not 1 <= n <= most:
        raise ValueError(f"need 1 <= n <= {most} on {dim} unknowns, got n = {n}")
    return 1 if n == 1 and not dense else min(max(n, BLOCK), most)


def _dense_eigh(b: int, *args, **kwargs):
    """scipy.linalg.eigh(*args, subset_by_index=[0, b - 1], **kwargs), its LAPACK failures raised as SolverFailure."""
    from scipy.linalg import eigh

    try:
        return eigh(*args, subset_by_index=[0, b - 1], **kwargs)
    except np.linalg.LinAlgError as exc:  # no convergence, or a mass matrix that is not positive definite
        raise SolverFailure(f"dense eigensolve failed at dim={args[0].shape[0]}, n={b}: {exc}") from exc


def memoized(key, solve) -> np.ndarray:
    """solve()'s eigenvalues, remembered under key in the values memo; the caller owns the copy returned.

    The key is what builds the operator solve() solves, never its bytes: a
    FEM image's reference cache key (which records the route), S, sigma and
    block size, or an FD ladder's potential, map, h, grid and block size.  Two
    equal keys must build byte-identical operators.  An exception from solve
    is raised and nothing is remembered.
    """
    def build():
        vals = np.array(solve(), dtype=float)
        vals.setflags(write=False)
        return vals

    return _VALUES.get(key, build).copy()


_VALUES = _ReferenceCache(VALUE_CACHE_BYTES)


def _inf_norm(A) -> float:
    """max_i sum_j |A_ij|, which bounds the 2-norm of a symmetric A."""
    if isinstance(A, np.ndarray):  # a dense check, as of the 1-D FD operators, loads no scipy
        return float(np.abs(A).sum(axis=1).max())
    A = A.tocsr()
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    return float(np.bincount(rows, weights=np.abs(A.data), minlength=A.shape[0]).max())


def _check_residuals(K, M, vecs, vals):
    """Raise SolverFailure unless every pair (lambda, v) meets |K v - lambda M v| <= its bound.

    The bound is EIG_TOLERANCE r plus the roundoff that a backward-stable
    solve leaves, ROUNDOFF ||K||_inf |v|, but at most MAX_TOLERANCE r, where
    r = |M v| (1 + |lambda|), and at least EIG_TOLERANCE.  The roundoff term matters only where ||K|| is
    large against M, as under Robin with a large sigma (||K|| grows like
    sigma), where EIG_TOLERANCE alone refuses correct pairs; the cap refuses
    the pairs whose values roundoff may have moved by more than about
    MAX_TOLERANCE.
    """
    KV, MV = K @ vecs, M @ vecs
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed residual is not finite, and fails below
        res = np.linalg.norm(KV - MV * vals, axis=0)
        r = np.linalg.norm(MV, axis=0) * (1.0 + np.abs(vals))
        roundoff = ROUNDOFF * _inf_norm(K) * np.linalg.norm(vecs, axis=0)
        cap = np.where(vals == 0.0, np.inf, MAX_TOLERANCE * r)  # roundoff moves no exact kernel value (_checked)
        bound = np.maximum(np.minimum(EIG_TOLERANCE * r + roundoff, cap), EIG_TOLERANCE)
    bad = np.nonzero(~(res <= bound))[0]  # a NaN residual fails too
    if len(bad):
        i = bad[0]
        raise SolverFailure(
            f"residual {res[i]:.3e} exceeds {bound[i]:.3e} for eigenvalue {vals[i]:.6e}"
        )


def _checked(K, M, vals, vecs, neumann_like: bool) -> np.ndarray:
    """Ascending values of the pairs (vals, vecs) of K u = lambda M u: residual-checked, all > 0 but a kernel's."""
    if neumann_like:  # the constants span the kernel: the pair nearest them (largest |v^T M 1|) is 0 and constant
        one = np.full(len(vecs), 1.0 / math.sqrt(M.sum()))
        i = int(np.abs(vecs.T @ (M @ one)).argmax())
        vals[i], vecs[:, i] = 0.0, one
    _check_residuals(K, M, vecs, vals)
    vals = np.sort(vals)
    if (vals[int(neumann_like):] <= 0).any():  # two values <= 0, or one without a kernel
        raise SolverFailure(f"eigenvalue {vals.min():.6e} is not positive")
    return vals


def spectrum_fem(
    d: DomainSpec,
    bc: BoundarySpec,
    n: int,
    opts: FemOptions = FemOptions(),
    T: LinearMap2 | None = None,
) -> Spectrum:
    """FEM spectrum of d, or of its linear image T(d), with error estimates.

    T(d) is solved on d's reference mesh carried over by T: every map of one
    domain reuses one meshing, one assembly and, up to opts.dense_threshold
    unknowns, one reduction per cached level, and an image the memo holds
    builds none.  Levels max_refinement - 1 and max_refinement are solved;
    assuming the P1 O(h^2) rate, the extrapolated value is (4 x fine -
    coarse)/3 and the reported per-eigenvalue error estimate |fine - coarse|/3.
    A Neumann-like first value is the exact kernel 0, error 0; a value that
    would extrapolate to <= 0 is the fine one, its error estimate above it.
    """
    T = LinearMap2.identity() if T is None else T
    coarse, fine = _solve_levels(d, T, bc, n, (opts.max_refinement - 1, opts.max_refinement), opts)
    err = np.abs(fine - coarse) / 3.0
    vals = (4.0 * fine - coarse) / 3.0 if opts.extrapolate else fine
    vals = np.where(vals > 0, vals, fine)  # coarse >= 4 fine: the levels are too coarse to extrapolate, and err >= fine
    order = vals.argsort()
    return Spectrum(vals[order], "fem", err[order])


def _solve_levels(d, T, bc, n, levels, opts) -> list[np.ndarray]:
    """The n smallest eigenvalues of T(d) on each of the ascending levels.

    Each level is counted, routed, blocked and keyed (_reference, _block),
    the finest first (an oversized call names it), before anything is built.
    A triangle or parallelogram d = T0(model) is solved as (T T0)(model)
    (_model).  Then T is read once: a polygon under det T < 0 is solved on
    R(d) at every level (decided here alone), whose metric, that of T R, is
    S with S12 negated bit for bit, as (T R)^-1 = R T^-1.  Only a memo
    miss asks the reference cache; it solves a reduced reference's image by
    a standard dense eigh, any other by solve_eigs.
    """
    model = _model(d)
    if model:
        d, T = model[0], T @ model[1]
    flip = isinstance(d, Polygon) and T.det < 0
    plans = [_reference(d, level, flip, bc.is_dirichlet, opts.dense_threshold) for level in levels[::-1]][::-1]
    blocks = [_block(n, dim, dim <= opts.dense_threshold) for _, dim, _ in plans]
    s, out = _metric(T), []
    if flip:
        s[1] = -s[1]
    metric = s.tobytes()
    for (key, _, build), b in zip(plans, blocks):
        def solve():  # called at once by memoized, on a miss only
            ref = _REFERENCES.get(key, build)
            if ref.C is not None:
                return ref.solve(s, bc.sigma, b, bc.is_neumann_like)
            return solve_eigs(ref.stiffness(s, bc.sigma), ref.M, b, opts.dense_threshold, bc.is_neumann_like)

        out.append(memoized((key, metric, bc.sigma, b), solve)[:n])
    return out


def mesh_to_text(mesh: Mesh) -> str:
    """Plain-text dump: "v x y" vertices, "t i j k" triangles, "b i j" boundary edges."""
    lines = [f"v {x:.17g} {y:.17g}" for x, y in mesh.vertices]
    lines += [f"t {i} {j} {k}" for i, j, k in mesh.triangles]
    lines += [f"b {i} {j}" for i, j in mesh.boundary_edges]
    return "\n".join(lines) + "\n"
