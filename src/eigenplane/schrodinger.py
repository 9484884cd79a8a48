"""Finite-difference Schrodinger eigenvalues -h*Lap + W on a truncated box.

Five-point Laplacian with zero values on the box edge; the box must be wide
enough that the potential dominates the computed levels on the boundary,
which is checked after each solve.  Potentials are rotationally symmetric
families, optionally pushed forward through a linear map (W composed with
the inverse map).

Each spectrum is one solve ladder: the coarse grid (every other point, so
coarse point j is fine point 2j) and the fine grid, each for a block of
b = max(n, BLOCK) values (one for a lone n = 1, by fem's block rule), so
partial sums n = 1..6 read a prefix of one block.  A grid operator is
K = h*Lap + diag(W), solved by one of two routes chosen from W alone:

- Axis-aligned quadratic potentials: where W's grid values are exactly
  (c1 x1)^2 + (c2 x2)^2, as for the harmonic potential (or power q = 2)
  unmapped or pushed through a map whose inverse is diagonal or
  anti-diagonal, K is the Kronecker sum A1 (+) A2 of two tridiagonal 1-D
  operators A_k = h*T1 + diag((c_k x)^2).  Each is solved by numpy's dense
  eigh, every 1-D pair is residual-checked, and the block is the b smallest
  sums a_i + b_j, enumerated by exact._smallest.  Degenerate levels come
  out with the operator's exact multiplicity, and this route loads no scipy.
- Every other potential (power q >= 4, trisym, a harmonic pushed through a
  shear or a rotation): SuperLU factors K with a minimum-degree ordering of
  K + K^T and diagonal pivots (about half the fill of its default COLAMD
  column ordering; threshold pivoting stays on should a tiny h make K
  indefinite).  The factor is handed as OPinv to a shift-invert eigsh
  (sigma = 0) run to the relative tolerance FD_TOLERANCE.  The coarse
  Lanczos starts from a fixed pseudo-random vector; the fine one starts from
  the coarse eigenvectors, interpolated bilinearly onto the fine grid and
  combined with fixed pseudo-random weights, so it converges in about one
  sweep and reruns stay bit-identical.  Every pair of both blocks then
  passes fem's residual check (identity mass), the contract FEM's solves
  meet; the values agree with a plain eigsh(K, sigma=0) to about 1e-14
  relative.  scipy.sparse is imported by this route, when it first runs.

Each ladder's two blocks are remembered as one entry of fem's eigenvalue
memo, keyed by what builds both grid operators (potential, inverse map, h,
grid and b), so a hit builds neither.  One reading of the inverse map
(_pullback) gives both the key and the route.  The fixed right-hand side
-h Lap + W of the Schrodinger bound is solved once for all maps and all
n <= BLOCK, and a quarter turn of a radial potential, or trisym's reflection
diag(1, -1), keyed as unmapped, reuses it.
No eigenvector outlives the call.  Both routes are deterministic, so a
remembered block equals a cold ladder bit for bit.  Grids above
MAX_GRID_POINTS per side are refused before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact import NumericalFailure, Spectrum, _smallest
from .fem import SolverFailure, _block, _check_residuals, memoized
from .geometry import INFINITE_ORDER, LinearMap2

__all__ = [
    "PotentialSpec",
    "GridSpec",
    "WidenGridError",
    "harmonic",
    "power_radial",
    "trisym",
    "schrodinger_spectrum",
    "transformed_problem",
]

DEFAULT_TRISYM_BETA = 0.2
#: Largest grid solved: `verify schrodinger --points 1001 -n 1` took 29 s and 1.35 GB on one thread.
MAX_GRID_POINTS = 1001
#: ARPACK's convergence tolerance for the grid eigensolves, each of whose pairs is then residual-checked.
FD_TOLERANCE = 1e-10


class WidenGridError(NumericalFailure):
    """Box too small: potential does not dominate the requested levels on the edge."""

    def __init__(self, message: str, suggested_half_width: float):
        super().__init__(message)
        self.suggested_half_width = suggested_half_width


@dataclass(frozen=True)
class PotentialSpec:
    """Coercive potential with rotational symmetry of order >= 3.

    kind: "harmonic" (|x|^2), "power" (|x|^q, even q >= 2), or "trisym"
    (|x|^4 + beta * Re((x1 + i x2)^3), three-fold symmetric for beta != 0).
    A pushforward map T evaluates W o T^-1 instead of W.
    """

    kind: str
    q: int = 2
    beta: float = 0.0
    pushforward: LinearMap2 | None = None

    def __post_init__(self):
        if self.kind not in ("harmonic", "power", "trisym"):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.kind == "power" and (self.q < 2 or self.q % 2 != 0):
            raise ValueError("power potential needs an even exponent >= 2")
        if self.kind == "trisym" and not abs(self.beta) < 1.0:  # a NaN beta too
            raise ValueError("trisym envelope needs |beta| < 1 to stay coercive")

    def symmetry_order(self) -> int:
        """Rotation order of the base potential (before any pushforward)."""
        return 3 if self.kind == "trisym" and self.beta != 0.0 else INFINITE_ORDER

    def base_values(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        r2 = x1 * x1 + x2 * x2
        if self.kind == "harmonic":
            return r2
        if self.kind == "power":
            return r2 ** (self.q / 2.0)
        return r2 * r2 + self.beta * (x1**3 - 3.0 * x1 * x2 * x2)

    def values(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        if self.pushforward is None:
            return self.base_values(x1, x2)
        inv = self.pushforward.inverse().as_array()
        y1 = inv[0, 0] * x1 + inv[0, 1] * x2
        y2 = inv[1, 0] * x1 + inv[1, 1] * x2
        return self.base_values(y1, y2)


def harmonic() -> PotentialSpec:
    return PotentialSpec("harmonic")


def power_radial(q: int) -> PotentialSpec:
    return PotentialSpec("power", q=q)


def trisym(beta: float = DEFAULT_TRISYM_BETA) -> PotentialSpec:
    return PotentialSpec("trisym", beta=beta)


@dataclass(frozen=True)
class GridSpec:
    """Square box [-L, L]^2 sampled with an odd number of points per side, at most MAX_GRID_POINTS."""

    half_width: float = 8.0
    points_per_side: int = 201

    def __post_init__(self):
        if self.half_width <= 0:
            raise ValueError("half width must be positive")
        if not math.isfinite(self.half_width):
            raise ValueError("half width must be finite")
        if self.points_per_side < 51 or self.points_per_side % 2 == 0:
            raise ValueError("points_per_side must be an odd integer >= 51")
        if self.points_per_side > MAX_GRID_POINTS:
            raise ValueError(f"{self.points_per_side} points per side is more than {MAX_GRID_POINTS}")


def _grid_operator(W: PotentialSpec, h: float, L: float, points: int):
    """K = h * (five-point -Lap) + diag(W) on the box's interior points, x1-major, as CSC."""
    from scipy import sparse

    x = np.linspace(-L, L, points)
    dx = x[1] - x[0]
    xi = x[1:-1]
    m = points - 2
    one = np.ones(m)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # _grid_eigs refuses what overflowed
        T1 = sparse.diags([-one[:-1], 2.0 * one, -one[:-1]], [-1, 0, 1]) / dx**2
        eye = sparse.identity(m)
        lap = sparse.kron(T1, eye) + sparse.kron(eye, T1)
        X1, X2 = np.meshgrid(xi, xi, indexing="ij")
        return (h * lap + sparse.diags(W.values(X1, X2).ravel())).tocsc()


def _interpolate(U: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of coarse-grid functions onto the nested fine grid.

    U holds values at the m x m interior points of a coarse grid on its last
    two axes; the result holds values at the (2m + 1) x (2m + 1) interior
    points of the grid with twice the intervals, coarse point j being fine
    point 2j, and zero on the box edge as on the coarse grid.
    """
    for axis in (-2, -1):
        U = np.moveaxis(U, axis, 0)
        edge = np.zeros((1,) + U.shape[1:])
        padded = np.concatenate((edge, U, edge))
        F = np.empty((2 * len(U) + 1,) + U.shape[1:])
        F[1::2] = U
        F[0::2] = 0.5 * (padded[:-1] + padded[1:])
        U = np.moveaxis(F, 0, axis)
    return U


def _grid_eigs(K, b: int, v0: np.ndarray, points: int) -> tuple[np.ndarray, np.ndarray]:
    """The b smallest eigenpairs of the grid operator K, ascending, residual-checked."""
    from scipy import sparse
    from scipy.sparse import linalg as splinalg

    if not np.isfinite(K.data).all():
        raise SolverFailure(f"grid eigensolve failed ({points} points): the operator is not finite")
    try:
        # the symmetric ordering of the module docstring, not eigsh's own COLAMD factor
        lu = splinalg.splu(K, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
        vals, vecs = splinalg.eigsh(K, k=b, sigma=0.0, which="LM", v0=v0, tol=FD_TOLERANCE,
                                    OPinv=splinalg.LinearOperator(K.shape, matvec=lu.solve, dtype=float))
    except (splinalg.ArpackNoConvergence, RuntimeError) as exc:
        raise SolverFailure(f"grid eigensolve failed ({points} points): {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    _check_residuals(K, sparse.identity(K.shape[0], format="csr"), vecs, vals)
    return vals, vecs


def _ladder(W: PotentialSpec, h: float, n: int, L: float, points: int) -> np.ndarray:
    """A block of the smallest eigenvalues on the fine grid (row 0) and on the coarse grid (row 1).

    The block is b = max(n, BLOCK) values, or one for a lone n = 1, and n
    must be below the coarse grid's unknowns (fem._block).  One reading of
    W's map (_pullback) gives the memo key and the route: where W's grid
    values are (c1 x1)^2 + (c2 x2)^2, both grids are solved as
    Kronecker sums of 1-D operators (_kronecker_sum_eigs).  Otherwise the
    coarse grid (every other point) is solved first from a fixed random start;
    its eigenvectors, interpolated onto the fine grid and combined with fixed
    random weights, start the fine Lanczos.  The operators are built on a memo miss only.
    """
    coarse_points = (points + 1) // 2
    m = coarse_points - 2
    b = _block(n, m * m, False)
    key, axes = _pullback(W)

    def solve():
        if axes is not None:
            return np.stack([_kronecker_sum_eigs(*axes, h, L, p, b) for p in (points, coarse_points)])
        K, Kc = _grid_operator(W, h, L, points), _grid_operator(W, h, L, coarse_points)
        coarse, vecs = _grid_eigs(Kc, b, np.random.default_rng(0).standard_normal(m * m), coarse_points)
        modes = _interpolate(vecs.T.reshape(b, m, m)).reshape(b, -1)
        fine, _ = _grid_eigs(K, b, np.random.default_rng(0).standard_normal(b) @ modes, points)
        return np.stack((fine, coarse))

    return memoized(("fd", W.kind, W.q, W.beta, key, h, L, points, b), solve)


def _pullback(W: PotentialSpec) -> tuple[bytes | None, tuple[float, float] | None]:
    """W's inverse pushforward, read once: the ladder's memo-key part and its route.

    The route is (c1, c2) where W's grid values are (c1 x1)^2 + (c2 x2)^2 bit
    for bit, else None: for a quadratic W (harmonic, or power with q = 2)
    unmapped, or pushed through a map whose inverse is diagonal or
    anti-diagonal with exact zeros, as W o T^-1 then squares (a x1 + 0 x2)
    and (0 x1 + d x2), or (0 x1 + b x2) and (c x1 + 0 x2).  The key part is
    the inverse's entries, or None where W's grid values are the unmapped
    ones.  A signed permutation (c1 = c2 = 1 above) only swaps and negates
    (x1, x2), which leaves the harmonic and power values bit for bit, and
    h' = h.  trisym's x1^3 - 3 x1 x2^2 is even in x2 alone, so of the signed
    permutations only the reflection diag(1, -1) leaves it bit for bit.
    """
    quadratic = W.kind == "harmonic" or W.kind == "power" and W.q == 2
    if W.pushforward is None:
        return None, ((1.0, 1.0) if quadratic else None)
    inv = W.pushforward.inverse().as_array()
    (a, b), (c, d) = inv
    axes = (abs(a), abs(d)) if b == c == 0.0 else (abs(c), abs(b)) if a == d == 0.0 else None
    unmapped = (a, b, c, d) == (1.0, 0.0, 0.0, -1.0) if W.kind == "trisym" else axes == (1.0, 1.0)
    return (None if unmapped else inv.tobytes()), (axes if quadratic else None)


def _kronecker_sum_eigs(c1: float, c2: float, h: float, L: float, points: int, b: int) -> np.ndarray:
    """The b smallest eigenvalues of the grid operator of -h*Lap + (c1 x1)^2 + (c2 x2)^2, ascending.

    That operator is the Kronecker sum A1 (+) A2 of the tridiagonal
    A_k = h*T1 + diag((c_k x)^2) on the box's m interior points per side, so
    its eigenvalues are the sums a_i + b_j of theirs.  Each distinct A_k is
    solved by numpy's dense eigh and all its pairs are residual-checked; the
    one heap of exact._smallest enumerates the sums, an index past m reading
    +inf, so any b up to m^2 is served.
    """
    x = np.linspace(-L, L, points)
    dx = x[1] - x[0]
    xi = x[1:-1]
    m = points - 2
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # an h or a box out of range fails below
        hT1 = h * ((2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / dx**2)
        operators = {c: hT1 + np.diag((c * xi) ** 2) for c in {c1, c2}}
    spectra = {}
    for c, A in operators.items():
        if not np.isfinite(A).all():
            raise SolverFailure(f"1-D grid eigensolve failed ({points} points): the operator is not finite")
        try:
            vals, vecs = np.linalg.eigh(A)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"1-D grid eigensolve failed ({points} points): {exc}") from exc
        _check_residuals(A, np.eye(m), vecs, vals)
        spectra[c] = np.append(vals, np.inf)
    a1, a2 = spectra[c1], spectra[c2]
    return _smallest(lambda i, j: a1[min(i, m)] + a2[min(j, m)], b)


def schrodinger_spectrum(W: PotentialSpec, h: float, n: int, grid: GridSpec = GridSpec()) -> Spectrum:
    """First n eigenvalues of -h*Lap + W, with a grid-doubling error estimate.

    The coarse companion solve uses every other grid point; the reported
    estimate |fine - coarse| / 3 is the usual O(dx^2) Richardson bound.
    Raises WidenGridError when min W on the box edge fails to dominate the
    computed top level, since box truncation is then not negligible, and
    ValueError, before any solve, for an n below 1 or not below the coarse
    grid's ((points + 1) // 2 - 2)^2 unknowns.
    """
    if h <= 0:
        raise ValueError("need h > 0")
    if not math.isfinite(h):
        raise ValueError("need a finite h")
    L, points = grid.half_width, grid.points_per_side
    fine, coarse = _ladder(W, h, n, L, points)[:, :n]
    err = np.abs(fine - coarse) / 3.0

    # truncation check: W on the box edge must dominate the highest level
    edge, side = np.linspace(-L, L, points), np.full(points, L)
    x1, x2 = np.concatenate((edge, edge, -side, side)), np.concatenate((-side, side, edge, edge))
    with np.errstate(over="ignore"):  # an edge value beyond double precision is +inf, which dominates
        wmin = float(W.values(x1, x2).min())
    top = float(fine[-1])
    if wmin < top:
        # suggest scaling the box so the boundary potential clears 3x the level
        grow = (3.0 * max(top, 1e-300) / max(wmin, 1e-300)) ** 0.5
        raise WidenGridError(
            f"min W on the box edge is {wmin:.4g} < top level {top:.4g}; "
            f"use half_width >= {grow * L:.3g}",
            suggested_half_width=grow * L,
        )
    return Spectrum(fine, "fd", err)


def transformed_problem(W: PotentialSpec, h: float, T: LinearMap2) -> tuple[PotentialSpec, float]:
    """Pushforward problem (W o T^-1, 2h / ||T^-1||_HS^2) appearing in the bound."""
    combined = T if W.pushforward is None else T @ W.pushforward
    wt = PotentialSpec(W.kind, q=W.q, beta=W.beta, pushforward=combined)
    hp = 2.0 * h / T.inverse().hs_norm_sq()
    return wt, hp
