"""Verification engine for the sharp eigenvalue-sum bounds.

One helper, _normalized, makes every (sum of the first n eigenvalues) * A^3 / I
and its error budget scaled alike, as a SweepRow; sweeps are lists of them.
One comparison, _compare, makes every verdict from two (value, error) pairs:
it holds when the slack is at least minus both budgets and 1e-10 of the larger
side.  disk_vs_square alone compares all prefix sums at once; it raises
NumericalFailure unless each margin exceeds 1e6 times both budgets, each
scaled by its own spectrum's A^3 / I.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .exact import (
    DIRICHLET,
    NEUMANN,
    BoundarySpec,
    NumericalFailure,
    Spectrum,
    disk_spectrum,
    equilateral_spectrum,
    rectangle_spectrum,
    robin,
)
from .geometry import (
    DomainSpec,
    Ellipse,
    LinearMap2,
    PiecewiseLinearMap,
    Polygon,
    apply_map,
    diamond_square,
    functional_factor,
    isosceles_triangle,
    moments,
    rectangle,
    require_rotational_symmetry,
    square,
    symmetry_order,
    _counterclockwise,
)
from .schrodinger import GridSpec, PotentialSpec, schrodinger_spectrum, transformed_problem

__all__ = [
    "BoundReport",
    "SweepRow",
    "normalized_sum",
    "classify_model_shape",
    "spectrum_of",
    "verify_linear_map_bound",
    "verify_robin_bound",
    "verify_robin_triangle_max",
    "verify_schrodinger_bound",
    "verify_quad_bound",
    "quad_bound_centroid_variant",
    "sweep_isosceles",
    "disk_vs_square",
    "rectangle_sum_family",
    "kroeger_weyl_check",
    "random_invertible_maps",
    "rows_to_csv",
]

EXACT_REL_FLOOR = 1e-10


@dataclass(eq=False)
class BoundReport:
    """Outcome of one inequality check: holds iff slack >= -tolerance."""

    lhs: float
    rhs: float
    slack: float
    tolerance: float
    holds: bool
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        rec = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "holds": self.holds,
            "inputs": self.inputs,
        }
        return json.dumps(rec, sort_keys=True)


@dataclass(frozen=True)
class SweepRow:
    """One point of a parameter sweep: functional value plus numeric pedigree."""

    param: float
    value: float
    method: str
    error: float


def rows_to_csv(rows: list[SweepRow]) -> str:
    out = ["param,value,method,error"]
    for r in rows:
        out.append(f"{r.param:.11e},{r.value:.11e},{r.method},{r.error:.11e}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------

def classify_model_shape(d: DomainSpec):
    """("equilateral", side) / ("rectangle", (l1, l2)) / ("disk", r) or None.

    Detection is rotation and translation invariant, so rigid images of model
    shapes still get exact spectra.  A polygon's class is found on the first
    call and kept on the polygon, as its symmetry order is: its vertices are
    read-only, so the class cannot go stale.
    """
    if isinstance(d, Ellipse):
        s1, s2 = d.semi_axes
        if abs(s1 - s2) <= 1e-12 * max(s1, s2):
            return ("disk", 0.5 * (s1 + s2))
        return None
    if d._model_shape is None:
        d._model_shape = (_classify_polygon(d.vertices),)
    return d._model_shape[0]


def _classify_polygon(v: np.ndarray):
    """classify_model_shape of the polygon with vertices v, found afresh.

    Each edge's length is sqrt(dx * dx + dy * dy) and each turn's dot product
    ex * fx + ey * fy, in Python floats: the operations, in the order, of
    np.linalg.norm and np.einsum over the edge array, without numpy's per-call
    cost on three or four rows.
    """
    if len(v) not in (3, 4):
        return None
    p = v.tolist()
    edges = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(p, p[1:] + p[:1])]
    sides = [math.sqrt(x * x + y * y) for x, y in edges]
    scale = max(sides)
    if len(p) == 3:
        if all(abs(s - sides[0]) <= 1e-12 * scale for s in sides):
            return ("equilateral", sides[0])
        return None
    turns = zip(edges, edges[1:] + edges[:1])
    if all(abs(ex * fx + ey * fy) <= 1e-12 * scale * scale for (ex, ey), (fx, fy) in turns):
        return ("rectangle", (sides[0], sides[1]))
    return None


def _image_class(d: DomainSpec, T: LinearMap2):
    """classify_model_shape(apply_map(T, d)), for a polygon without building the image.

    T(d)'s vertex array is formed and oriented as Polygon stores it, and
    classified by _classify_polygon, so every decision and datum is the
    image polygon's bit for bit.  Polygon's zero-area refusal is kept; its
    self-intersection test is not needed, since an invertible linear image
    of a simple polygon is simple.
    """
    if isinstance(d, Ellipse):
        return classify_model_shape(apply_map(T, d))
    if T.is_singular():
        raise ValueError("map is singular")
    return _classify_polygon(_counterclockwise(d.vertices @ T.as_array().T))


def _closed_form(kind: str, data, bc: BoundarySpec, n: int) -> Spectrum:
    """The closed-form spectrum of a model shape, kept in fem's values memo as values then error estimates.

    Keyed by family, dimensions, bc kind, sigma and n; a hit enumerates
    nothing, and the Spectrum returned owns its arrays.
    """
    def solve():
        if kind == "equilateral":
            spec = equilateral_spectrum(data, bc, n)
        elif kind == "rectangle":
            spec = rectangle_spectrum(data[0], data[1], bc, n)
        else:
            spec = disk_spectrum(data, bc, n)
        return np.concatenate((spec.values, spec.error_estimates))

    both = fem.memoized(("exact", kind, data, bc.kind, bc.sigma, n), solve)
    return Spectrum(both[:n], "exact", both[n:])


def spectrum_of(
    d: DomainSpec,
    bc: BoundarySpec,
    n: int,
    engine: str = "auto",
    opts: fem.FemOptions = fem.FemOptions(),
    T: LinearMap2 | None = None,
) -> Spectrum:
    """Spectrum of d, or of its linear image T(d): exact for model shapes, FEM otherwise.

    A polygon's image is classified from its mapped vertices, with no
    Polygon built (_image_class); FEM solves T(d) on d's cached reference
    mesh (fem.spectrum_fem).  Closed forms are served from fem's values memo
    (_closed_form), so a repeated request enumerates nothing.
    """
    if engine not in ("auto", "exact", "fem"):
        raise ValueError(f"unknown engine {engine!r}")
    model = None if engine == "fem" else classify_model_shape(d) if T is None else _image_class(d, T)
    if model is not None and bc.kind == "robin" and bc.sigma > 0 and model[0] != "rectangle":
        model = None  # Robin closed form only exists for rectangles
    if model is not None:
        return _closed_form(*model, bc, n)
    if engine == "exact":
        raise ValueError("exact engine is only available for model shapes")
    return fem.spectrum_fem(d, bc, n, opts, T)


def _normalized(
    d: DomainSpec,
    bc: BoundarySpec,
    n: int,
    opts: fem.FemOptions = fem.FemOptions(),
    engine: str = "auto",
    *,
    T: LinearMap2 | None = None,
    about: str = "centroid",
    param: float = 0.0,
) -> SweepRow:
    """Sum of the first n eigenvalues of d, or of T(d), and its error budget, times that domain's A^3 / I."""
    c = functional_factor(d if T is None else apply_map(T, d), about)  # refuses a size beyond doubles before any solve
    spec = spectrum_of(d, bc, n, engine, opts, T)
    return SweepRow(float(param), spec.sum_first(n) * c, spec.method, spec.error_sum(n) * c)


def normalized_sum(
    d: DomainSpec,
    bc: BoundarySpec,
    n: int,
    engine: str = "auto",
    opts: fem.FemOptions = fem.FemOptions(),
) -> float:
    """(sum of the first n eigenvalues) * A^3 / I, with exact moments."""
    return _normalized(d, bc, n, opts, engine).value


def _compare(lhs: tuple[float, float], rhs: tuple[float, float], inputs: dict | None = None) -> BoundReport:
    """Report on  lhs <= rhs  for two (value, error budget) pairs.

    The one tolerance rule: both error budgets plus a floor of
    EXACT_REL_FLOOR times the larger side.
    """
    (lv, lerr), (rv, rerr) = lhs, rhs
    tolerance = lerr + rerr + EXACT_REL_FLOOR * max(abs(lv), abs(rv))
    slack = rv - lv
    if not (math.isfinite(tolerance) and math.isfinite(slack)):  # so lv and rv are finite too
        raise ValueError("the bound's sides or their error budgets are beyond double precision")
    return BoundReport(lv, rv, slack, tolerance, bool(slack >= -tolerance), inputs or {})


# ---------------------------------------------------------------------------
# bound verifiers
# ---------------------------------------------------------------------------

def verify_linear_map_bound(
    d: DomainSpec,
    T: LinearMap2,
    bc: BoundarySpec,
    n: int,
    opts: fem.FemOptions = fem.FemOptions(max_refinement=4),
) -> BoundReport:
    """Check sum(eigs(T(D))) <= ||T^-1||_HS^2 / 2 * sum(eigs(D)) for symmetric D."""
    if bc.kind not in ("dirichlet", "neumann"):
        raise ValueError("this bound covers Dirichlet and Neumann eigenvalues")
    require_rotational_symmetry(symmetry_order(d))
    coef = 0.5 * T.inverse().hs_norm_sq()
    left = spectrum_of(d, bc, n, opts=opts, T=T)
    right = spectrum_of(d, bc, n, opts=opts)
    lhs = (left.sum_first(n), left.error_sum(n))
    return _compare(lhs, (right.sum_first(n) * coef, right.error_sum(n) * coef), {
        "bound": "linear_map",
        "bc": bc.kind,
        "n": n,
        "map": [T.a11, T.a12, T.a21, T.a22],
        "lhs_method": left.method,
        "rhs_method": right.method,
    })


def verify_robin_bound(
    d: DomainSpec,
    T: LinearMap2,
    sigma: float,
    n: int,
    opts: fem.FemOptions = fem.FemOptions(max_refinement=4),
) -> BoundReport:
    """Robin analogue: the image problem runs at parameter sigma*||T^-1||_HS/sqrt(2).

    Both sides are the normalized sums (rho_1 + ... + rho_n) * A^3 / I.
    """
    if sigma <= 0:
        raise ValueError("need sigma > 0 (sigma = 0 is the Neumann bound)")
    require_rotational_symmetry(symmetry_order(d))
    sigma_image = sigma * T.inverse().hs_norm() / math.sqrt(2.0)
    left = _normalized(d, robin(sigma_image), n, opts, T=T)
    right = _normalized(d, robin(sigma), n, opts)
    return _compare((left.value, left.error), (right.value, right.error), {
        "bound": "robin",
        "sigma": sigma,
        "sigma_image": sigma_image,
        "n": n,
        "map": [T.a11, T.a12, T.a21, T.a22],
        "lhs_method": left.method,
        "rhs_method": right.method,
    })


def verify_robin_triangle_max(
    triangles: list[Polygon],
    sigma: float,
    n: int,
    opts: fem.FemOptions = fem.FemOptions(max_refinement=4),
) -> list[tuple[float, bool]]:
    """Normalized Robin sums for equal-area triangles; flags the maximal entries.

    An entry is maximal when _compare finds the largest sum no larger than it.
    The equilateral entry must come out maximal; callers assert that.  sigma = 0
    degenerates to the Neumann case.
    """
    areas = [moments(t).area for t in triangles]
    if max(areas) - min(areas) > 1e-9 * max(areas):
        raise ValueError("triangles must share a common area")
    bc = robin(sigma) if sigma > 0 else NEUMANN
    rows = [_normalized(t, bc, n, opts) for t in triangles]
    top = max(rows, key=lambda r: r.value)
    return [(r.value, _compare((top.value, top.error), (r.value, r.error)).holds) for r in rows]


def verify_schrodinger_bound(
    W: PotentialSpec,
    h: float,
    T: LinearMap2,
    n: int,
    grid: GridSpec = GridSpec(),
) -> BoundReport:
    """Check the pushforward problem's eigenvalue sum against the original's."""
    require_rotational_symmetry(W.symmetry_order(), "potential")
    wt, hp = transformed_problem(W, h, T)
    left = schrodinger_spectrum(wt, hp, n, grid)
    right = schrodinger_spectrum(W, h, n, grid)
    return _compare((left.sum_first(n), left.error_sum(n)), (right.sum_first(n), right.error_sum(n)), {
        "bound": "schrodinger",
        "potential": W.kind,
        "h": h,
        "h_image": hp,
        "n": n,
        "map": [T.a11, T.a12, T.a21, T.a22],
    })


def _quad_image(P: PiecewiseLinearMap) -> Polygon:
    # image of the diamond square: T+/T- agree on the axis vertices (+-a, 0)
    a, b = P.a, P.b
    return Polygon([[a, 0.0], [P.c_plus, b], [-a, 0.0], [-P.c_minus, -b]])


def _quad_report(P: PiecewiseLinearMap, bc: BoundarySpec, n: int, opts: fem.FemOptions, about_origin: bool) -> BoundReport:
    if bc.kind not in ("dirichlet", "neumann"):
        raise ValueError("this bound covers Dirichlet and Neumann eigenvalues")
    d = diamond_square()  # centered at the origin, so both moments of D agree
    left = _normalized(_quad_image(P), bc, n, opts, about="origin" if about_origin else "centroid")
    right = _normalized(d, bc, n, opts, about="origin")
    return _compare((left.value, left.error), (right.value, right.error), {
        "bound": "quad" if about_origin else "quad_centroid_variant",
        "bc": bc.kind,
        "n": n,
        "pieces": [P.a, P.b, P.c_plus, P.c_minus],
        "lhs_method": left.method,
        "rhs_method": right.method,
    })


def verify_quad_bound(
    P: PiecewiseLinearMap,
    bc: BoundarySpec,
    n: int,
    opts: fem.FemOptions = fem.FemOptions(max_refinement=4),
) -> BoundReport:
    """Equal-area-half quadrilateral bound, normalized by A^3 / I0 (origin moment).

    The image of the axis-vertex square under the piecewise map is compared
    against the square itself; I0 of the image comes from exact piecewise
    moments, consistent with the combined Hilbert-Schmidt identity
    (quad_hs_combined_check).
    """
    return _quad_report(P, bc, n, opts, about_origin=True)


def quad_bound_centroid_variant(
    P: PiecewiseLinearMap,
    bc: BoundarySpec,
    n: int,
    opts: fem.FemOptions = fem.FemOptions(max_refinement=4),
) -> BoundReport:
    """Exploratory variant normalizing by the centroidal I instead of I0.

    Conjectured but unproven, so callers must treat a failing report as data,
    not as an error.
    """
    return _quad_report(P, bc, n, opts, about_origin=False)


# ---------------------------------------------------------------------------
# sweeps and scans
# ---------------------------------------------------------------------------

def sweep_isosceles(
    n: int,
    apertures: list[float],
    bc: BoundarySpec = DIRICHLET,
    opts: fem.FemOptions = fem.FemOptions(),
) -> list[SweepRow]:
    """Normalized eigenvalue sum over isosceles triangles of given apex angles."""
    return [_normalized(isosceles_triangle(alpha), bc, n, opts, param=alpha) for alpha in apertures]


def disk_vs_square(n_max: int) -> set[int]:
    """{n <= n_max : the square's Dirichlet n-sum * A^3/I beats the unit disk's}.

    Uses exact spectra; a runtime guard checks that every margin dwarfs the
    Bessel zero error budget, so the set membership is numerically
    unambiguous, and raises NumericalFailure where one does not.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    sq = rectangle_spectrum(1.0, 1.0, DIRICHLET, n_max)
    dk = disk_spectrum(1.0, DIRICHLET, n_max)
    csq = functional_factor(square(1.0))
    cdk = functional_factor(Ellipse((0.0, 0.0), (1.0, 1.0)))
    sq_sums = np.cumsum(sq.values) * csq
    dk_sums = np.cumsum(dk.values) * cdk
    margins = np.abs(sq_sums - dk_sums)
    budget = np.cumsum(dk.error_estimates) * cdk + np.cumsum(sq.error_estimates) * csq
    bad = margins <= 1e6 * budget
    if np.any(bad):
        ties = np.nonzero(bad)[0] + 1
        raise NumericalFailure(f"margin too small to decide at n={ties.tolist()}")
    return {int(i + 1) for i in range(n_max) if sq_sums[i] > dk_sums[i]}


def rectangle_sum_family(n: int, aspect_ratios: list[float]) -> list[SweepRow]:
    """Exact normalized Dirichlet sums for rectangles of the given aspect ratios."""
    if any(a < 1 for a in aspect_ratios):
        raise ValueError("aspect ratios are >= 1 (long side over short side)")
    return [_normalized(rectangle(a, 1.0), DIRICHLET, n, engine="exact", param=a) for a in aspect_ratios]


def kroeger_weyl_check(shape: str, n_max: int) -> tuple[list[SweepRow], list[SweepRow]]:
    """Neumann sum bound (mu_1 + ... + mu_n) A / n^2 <= 2 pi, plus the Weyl trend.

    Returns (kroger_rows, weyl_rows): the bounded functional per n, and
    mu_n * A / (4 pi n) which drifts toward 1.
    """
    if shape == "square":
        spec, area = rectangle_spectrum(1.0, 1.0, NEUMANN, n_max), 1.0
    elif shape == "disk":
        spec, area = disk_spectrum(1.0, NEUMANN, n_max), math.pi
    elif shape == "equilateral":
        spec, area = equilateral_spectrum(1.0, NEUMANN, n_max), math.sqrt(3.0) / 4.0
    else:
        raise ValueError(f"unknown shape {shape!r}; use square, disk or equilateral")
    sums = np.cumsum(spec.values)
    ns = np.arange(1, n_max + 1, dtype=float)
    kroger = [
        SweepRow(float(k), float(s * area / k**2), "exact", float(e * area / k**2))
        for k, s, e in zip(ns, sums, np.cumsum(spec.error_estimates))
    ]
    weyl = [
        SweepRow(float(k), float(v * area / (4.0 * math.pi * k)), "exact", 0.0)
        for k, v in zip(ns, spec.values)
    ]
    return kroger, weyl


def random_invertible_maps(count: int, seed: int) -> list[LinearMap2]:
    """Seeded test maps: entries uniform in [-2, 2], |det| >= 0.1."""
    rng = np.random.default_rng(seed)
    out: list[LinearMap2] = []
    while len(out) < count:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) >= 0.1:
            out.append(LinearMap2.from_array(m))
    return out
