"""Exact planar geometry: moments of inertia, linear maps, tight-frame averages.

Everything here is quadrature-free.  Polygon moments come from the boundary
(Green's theorem) edge formulas and ellipse moments from closed forms, so the
moment identities used elsewhere hold to near machine precision.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "LinearMap2",
    "Polygon",
    "Ellipse",
    "DomainSpec",
    "GeometricMoments",
    "PiecewiseLinearMap",
    "rotation",
    "frame_average",
    "matrix_frame_average",
    "moments",
    "functional_factor",
    "triangle_inertia_from_sides",
    "parallelogram_inertia_from_sides",
    "apply_map",
    "hs_inverse_identity_check",
    "hs_ratio_check",
    "inverse_image_invariance_check",
    "symmetry_order",
    "quad_hs_combined_check",
    "split_at_axis",
    "equilateral_triangle",
    "rectangle",
    "square",
    "diamond_square",
    "regular_polygon",
    "isosceles_triangle",
    "domain_to_text",
    "domain_from_text",
    "INFINITE_ORDER",
]

#: Sentinel returned by :func:`symmetry_order` for rotationally invariant domains.
INFINITE_ORDER = 0

_SYMMETRY_TOL = 1e-9  # on coordinates scaled to unit diameter


def _vec(v) -> np.ndarray:
    """Coerce a sequence or array to a shape-(2,) float array."""
    a = np.asarray(v, dtype=float)
    if a.shape != (2,):
        raise ValueError(f"expected a 2-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vector components must be finite")
    return a


@dataclass(frozen=True)
class LinearMap2:
    """Invertible-or-not 2x2 real matrix with the norms the bounds need."""

    a11: float
    a12: float
    a21: float
    a22: float

    @classmethod
    def from_array(cls, m) -> "LinearMap2":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @classmethod
    def identity(cls) -> "LinearMap2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls, r1: float, r2: float) -> "LinearMap2":
        return cls(float(r1), 0.0, 0.0, float(r2))

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]])

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a21

    def hs_norm_sq(self) -> float:
        return self.a11 * self.a11 + self.a12 * self.a12 + self.a21 * self.a21 + self.a22 * self.a22

    def hs_norm(self) -> float:
        return math.sqrt(self.hs_norm_sq())

    def is_singular(self) -> bool:
        return abs(self.det) <= 1e-14 * max(1.0, self.hs_norm_sq())

    def inverse(self) -> "LinearMap2":
        d = self.det
        if self.is_singular():
            raise ValueError("map is singular, cannot invert")
        return LinearMap2(self.a22 / d, -self.a12 / d, -self.a21 / d, self.a11 / d)

    def singular_values(self) -> tuple[float, float]:
        """(r1, r2) with r1 >= r2 >= 0."""
        s = np.linalg.svd(self.as_array(), compute_uv=False)
        return float(s[0]), float(s[1])

    def apply(self, p) -> np.ndarray:
        return self.as_array() @ _vec(p)

    def __matmul__(self, other: "LinearMap2") -> "LinearMap2":
        return LinearMap2.from_array(self.as_array() @ other.as_array())


class Polygon:
    """Simple polygon, vertices stored counterclockwise.

    Clockwise input is reversed silently; self-intersecting or degenerate
    (zero-area) input raises ValueError.
    """

    def __init__(self, vertices):
        arr = np.array(
            [_vec(v) for v in vertices] if not isinstance(vertices, np.ndarray) else vertices,
            dtype=float,
        )
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
            raise ValueError("polygon needs at least 3 planar vertices")
        if not np.isfinite(arr).all():
            raise ValueError("polygon vertices must be finite")
        arr = _counterclockwise(arr)
        if _self_intersects(_unit_scaled(arr)):
            raise ValueError("polygon is self-intersecting")
        arr.setflags(write=False)
        self.vertices = arr
        self._symmetry_order: int | None = None  # see symmetry_order
        self._model_shape: tuple | None = None  # (class,) once experiments.classify_model_shape has found it
        self._fem_model: tuple | None = None  # see fem._model

    def __repr__(self):
        return f"Polygon({self.vertices.tolist()})"


class Ellipse:
    """Ellipse given by center, semi-axes and a rotation of the first axis."""

    def __init__(self, center, semi_axes, rotation: float = 0.0):
        c = _vec(center)
        s1, s2 = float(semi_axes[0]), float(semi_axes[1])
        if not (s1 > 0 and s2 > 0 and math.isfinite(s1) and math.isfinite(s2)):
            raise ValueError("semi-axes must be positive and finite")
        if not math.isfinite(rotation):
            raise ValueError("ellipse rotation must be finite")
        c.setflags(write=False)
        self.center = c
        self.semi_axes = (s1, s2)
        self.rotation = float(rotation)

    def boundary_point(self, phi) -> np.ndarray:
        """Points at parameter angles phi (in the axes frame), one row per angle.

        Rotating row by row equals R @ q per point bit for bit on mesh angles;
        a scalar phi may differ from math.cos/sin and R @ q by 1 ulp.
        """
        s1, s2 = self.semi_axes
        q = np.stack([s1 * np.cos(phi), s2 * np.sin(phi)], axis=-1)
        R = _rot_array(self.rotation)
        return self.center + np.stack([q @ R[0], q @ R[1]], axis=-1)

    def __repr__(self):
        return f"Ellipse(center={self.center.tolist()}, semi_axes={self.semi_axes}, rotation={self.rotation})"


DomainSpec = Polygon | Ellipse


@dataclass(eq=False)
class GeometricMoments:
    """Area, centroid, and second moments of a plane domain.

    moment_matrix is centered at the centroid; inertia_origin adds the
    parallel-axis term area*|centroid|^2.
    """

    area: float
    centroid: np.ndarray
    moment_matrix: np.ndarray
    inertia_centroid: float
    inertia_origin: float
    perimeter: float


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """Pair of linear maps [[a, c+],[0, b]] / [[a, c-],[0, b]] glued on the x1-axis.

    Both pieces share determinant a*b and agree on the horizontal axis, so the
    glued map is a homeomorphism taking the upper/lower halfplanes to themselves
    (b > 0) and distorting area by the same factor on both sides.
    """

    a: float
    b: float
    c_plus: float
    c_minus: float

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("a must be nonzero")
        if not self.b > 0:
            raise ValueError("b must be positive")

    def plus(self) -> LinearMap2:
        return LinearMap2(self.a, self.c_plus, 0.0, self.b)

    def minus(self) -> LinearMap2:
        return LinearMap2(self.a, self.c_minus, 0.0, self.b)


# ---------------------------------------------------------------------------
# rotations and tight-frame averages
# ---------------------------------------------------------------------------

def _rot_array(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rotation(order: int, m: int) -> LinearMap2:
    """Rotation by angle 2*pi*m/order."""
    if order <= 0:
        raise ValueError("rotation order must be a positive integer")
    return LinearMap2.from_array(_rot_array(2.0 * math.pi * m / order))


def frame_average(x, y, order: int) -> float:
    """Average of |x . (U_m y)|^2 over the order-N rotation group.

    Computed by direct summation; for N >= 3 the result equals
    |x|^2 |y|^2 / 2 (Parseval identity for the rotates of y).
    """
    if order < 3:
        raise ValueError("frame identity needs rotation order >= 3")
    xv, yv = _vec(x), _vec(y)
    total = 0.0
    for m in range(1, order + 1):
        total += float(xv @ (_rot_array(2.0 * math.pi * m / order) @ yv)) ** 2
    return total / order


def matrix_frame_average(x, Y, order: int) -> float:
    """Average of |x U_m Y|^2 over rotations, x a row vector, Y a 2xK matrix.

    Equals |x|^2 ||Y||_HS^2 / 2 for order >= 3.
    """
    if order < 3:
        raise ValueError("frame identity needs rotation order >= 3")
    xv = _vec(x)
    Ym = np.asarray(Y, dtype=float)
    if Ym.ndim != 2 or Ym.shape[0] != 2 or Ym.shape[1] < 1:
        raise ValueError(f"Y must be a 2xK matrix, got shape {Ym.shape}")
    total = 0.0
    for m in range(1, order + 1):
        row = xv @ _rot_array(2.0 * math.pi * m / order) @ Ym
        total += float(row @ row)
    return total / order


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _next(a: np.ndarray) -> np.ndarray:
    """The rows of a shifted cyclically by one, a[i + 1] at i: np.roll(a, -1, axis=0) by slice and concatenate."""
    return np.concatenate((a[1:], a[:1]))


def _signed_area2(v: np.ndarray) -> float:
    """Twice the signed area of the polygon with vertices v: the sum of x_i y_(i+1) - x_(i+1) y_i.

    numpy's sum adds fewer than eight terms one by one, from -0.0, so below
    eight vertices plain floats in that order give its bits without its
    per-call cost.
    """
    if len(v) >= 8:
        w = _next(v)
        return float((v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]).sum())
    p = v.tolist()
    area2 = -0.0
    for (x, y), (xn, yn) in zip(p, p[1:] + p[:1]):
        area2 += x * yn - xn * y
    return area2


def _counterclockwise(v: np.ndarray) -> np.ndarray:
    """The vertex array v as Polygon stores it: reversed where its signed area is negative; ValueError for zero area."""
    area2 = _signed_area2(v)
    scale = float(np.abs(v).max()) or 1.0
    if abs(area2) <= 1e-14 * scale * scale:
        raise ValueError("degenerate polygon (zero area)")
    return v[::-1].copy() if area2 < 0 else v


def orient(a, b, c) -> float:
    """Twice the signed area of triangle abc: positive iff a, b, c turn counterclockwise."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


#: Edge pairs tested per vectorized step of _self_intersects; it bounds the step's memory on polygons with many vertices.
_PAIRS_PER_STEP = 1024


@lru_cache(maxsize=16)
def _crossing_tests(n: int, first: int, stop: int) -> np.ndarray:
    """Indices into an n-gon's raveled vertices of the orient(a, b, c) tests of its edge pairs i < j sharing no vertex, first <= i < stop.

    Edge k runs from vertex k to vertex k + 1 (mod n).  The result has shape
    (3, 2, 4 * pairs): a, b and c, then x and y, then the tests vertex i and
    vertex i + 1 against edge j, and vertex j and vertex j + 1 against edge i,
    each over all pairs.
    """
    i, j = np.nonzero(np.arange(first, stop)[:, None] + 2 <= np.arange(n))
    i += first
    keep = (i > 0) | (j < n - 1)  # edges 0 and n - 1 share vertex 0
    i, j = i[keep], j[keep]
    i1, j1 = (i + 1) % n, (j + 1) % n
    points = np.array([np.concatenate(p) for p in ((j, j, i, i), (j1, j1, i1, i1), (i, i1, j, j1))])
    tests = 2 * points[:, None, :] + np.arange(2)[:, None]
    tests.setflags(write=False)
    return tests


def _self_intersects(v: np.ndarray) -> bool:
    """Whether two edges sharing no vertex properly cross: each has one end strictly left of the other's line, and one not.

    Every such pair is tested at once (in steps of _PAIRS_PER_STEP pairs),
    with orient's own arithmetic, so the verdicts equal a pairwise loop's.
    """
    n = len(v)
    if n < 4:
        return False  # every two edges of a triangle share a vertex
    rows = max(1, _PAIRS_PER_STEP // n)
    for first in range(0, n - 2, rows):
        a, b, c = v.ravel().take(_crossing_tests(n, first, min(first + rows, n - 2)))
        e, d = b - a, c - a
        left = (e[0] * d[1] - e[1] * d[0] > 0).reshape(2, 2, -1)  # orient(a, b, c) > 0
        split = left[:, 0] != left[:, 1]
        if np.count_nonzero(split[0] & split[1]):
            return True
    return False


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    """v scaled exactly by the power of two putting its largest magnitude in [1/2, 1): no overflow, v's own verdicts."""
    return np.ldexp(v, -math.frexp(float(np.abs(v).max()))[1])


def _polygon_raw_moments(v: np.ndarray):
    """Area, centroid and origin-centered second moment matrix via Green's theorem."""
    x, y = v[:, 0], v[:, 1]
    xn, yn = _next(x), _next(y)
    cross = x * yn - xn * y
    area = 0.5 * float(np.sum(cross))
    cx = float(np.sum((x + xn) * cross)) / (6.0 * area)
    cy = float(np.sum((y + yn) * cross)) / (6.0 * area)
    ixx = float(np.sum((x * x + x * xn + xn * xn) * cross)) / 12.0
    iyy = float(np.sum((y * y + y * yn + yn * yn) * cross)) / 12.0
    ixy = float(np.sum((x * yn + 2 * x * y + 2 * xn * yn + xn * y) * cross)) / 24.0
    m0 = np.array([[ixx, ixy], [ixy, iyy]])
    return area, np.array([cx, cy]), m0


def _sized(d: DomainSpec) -> str:
    """d named by its size, for a message: an ellipse's semi-axes, or how far a polygon's vertices reach."""
    if isinstance(d, Ellipse):
        return f"an ellipse with semi-axes {d.semi_axes[0]:g} and {d.semi_axes[1]:g}"
    return f"a polygon whose vertices reach {float(np.abs(d.vertices).max()):g}"


def _centered_moments(d: DomainSpec):
    """Area, centroid and centroid-centered second moment matrix of a domain, exactly.

    ValueError where the area or a moment leaves double precision.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        if isinstance(d, Polygon):
            area, c, m0 = _polygon_raw_moments(d.vertices)
        elif isinstance(d, Ellipse):
            s1, s2 = d.semi_axes
            area = math.pi * s1 * s2
            c = d.center.copy()
            R = _rot_array(d.rotation)
            try:
                mc = R @ np.diag([math.pi * s1**3 * s2 / 4.0, math.pi * s1 * s2**3 / 4.0]) @ R.T
            except OverflowError:  # the cube of a huge semi-axis
                mc = np.full((2, 2), math.inf)
            m0 = mc + area * np.outer(c, c)
        else:
            raise TypeError(f"not a domain: {type(d).__name__}")
        mc = m0 - area * np.outer(c, c)
    if not (0.0 < area < math.inf and np.isfinite(mc).all()):
        raise ValueError(f"the area or second moments of {_sized(d)} are beyond double precision; rescale it")
    return area, c, mc


def moments(d: DomainSpec) -> GeometricMoments:
    """Exact area, centroid, second moments and perimeter of a domain.

    An ellipse's perimeter is a complete elliptic integral, so this imports
    scipy.special for ellipses; polygons need numpy alone.
    """
    area, c, mc = _centered_moments(d)
    if isinstance(d, Polygon):
        v = d.vertices
        perim = float(np.sum(np.linalg.norm(_next(v) - v, axis=1)))
    else:
        from scipy.special import ellipe

        a, b = max(d.semi_axes), min(d.semi_axes)
        perim = float(4.0 * a * ellipe(1.0 - (b / a) ** 2))
    inertia_c = float(np.trace(mc))
    return GeometricMoments(
        area=area,
        centroid=c,
        moment_matrix=mc,
        inertia_centroid=inertia_c,
        inertia_origin=inertia_c + area * float(c @ c),
        perimeter=perim,
    )


def functional_factor(d: DomainSpec, about: str = "centroid") -> float:
    """A^3 / I, the scale factor of every bound; I about the centroid or the origin.

    It reads the same area and moments as `moments`, so it agrees with it bit
    for bit, but skips the perimeter and so never imports scipy.
    """
    area, c, mc = _centered_moments(d)
    inertia = float(np.trace(mc))
    if about == "origin":
        inertia += area * float(c @ c)
    elif about != "centroid":
        raise ValueError(f"about must be 'centroid' or 'origin', got {about!r}")
    try:
        factor = area**3 / inertia
    except (OverflowError, ZeroDivisionError):
        factor = math.nan
    if not sys.float_info.min <= factor < math.inf:  # a NaN fails too
        raise ValueError(f"A^3 / I of {_sized(d)} is beyond double precision; rescale it")
    return factor


def triangle_inertia_from_sides(l1: float, l2: float, l3: float, area: float) -> float:
    """Centroidal moment of inertia of a triangle from its side lengths: (A/36)(l1^2+l2^2+l3^2)."""
    sides = sorted([l1, l2, l3])
    if sides[0] <= 0 or sides[0] + sides[1] <= sides[2]:
        raise ValueError("side lengths violate the triangle inequality")
    s = (l1 + l2 + l3) / 2.0
    heron = math.sqrt(s * (s - l1) * (s - l2) * (s - l3))
    if abs(heron - area) > 1e-9 * max(heron, area):
        raise ValueError(f"area {area} inconsistent with sides (Heron gives {heron})")
    return (area / 36.0) * (l1 * l1 + l2 * l2 + l3 * l3)


def parallelogram_inertia_from_sides(l1: float, l2: float, area: float) -> float:
    """Centroidal moment of inertia of a parallelogram: (A/12)(l1^2+l2^2)."""
    if l1 <= 0 or l2 <= 0:
        raise ValueError("side lengths must be positive")
    if not 0 < area <= l1 * l2 * (1 + 1e-12):
        raise ValueError(f"area {area} impossible for sides {l1}, {l2}")
    return (area / 12.0) * (l1 * l1 + l2 * l2)


# ---------------------------------------------------------------------------
# linear images
# ---------------------------------------------------------------------------

def apply_map(T: LinearMap2, d: DomainSpec) -> DomainSpec:
    """Exact image of a domain under an invertible linear map."""
    if T.is_singular():
        raise ValueError("map is singular")
    if isinstance(d, Polygon):
        return Polygon(d.vertices @ T.as_array().T)
    if isinstance(d, Ellipse):
        # Image of {x: (x-c)^T Q (x-c) <= 1} is the ellipse of quadratic form
        # T^-T Q T^-1 centered at Tc; recover axes from its eigendecomposition.
        s1, s2 = d.semi_axes
        R = _rot_array(d.rotation)
        Tinv = T.inverse().as_array()
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
            try:
                Q = R @ np.diag([s1**-2, s2**-2]) @ R.T
            except OverflowError:  # 1 / s^2 of a tiny semi-axis
                Q = np.full((2, 2), math.inf)
            Qp = Tinv.T @ Q @ Tinv
            Qp = (Qp + Qp.T) / 2
        w, V = np.linalg.eigh(Qp) if np.isfinite(Qp).all() else ((0.0, 0.0), None)
        if not w[0] > 0.0:  # 1 / s^2 overflowed, or underflowed for a huge semi-axis
            raise ValueError(f"the image of {_sized(d)} has semi-axes beyond double precision")
        axes = (1.0 / math.sqrt(w[0]), 1.0 / math.sqrt(w[1]))
        theta = math.atan2(V[1, 0], V[0, 0])
        return Ellipse(T.apply(d.center), axes, theta)
    raise TypeError(f"not a domain: {type(d).__name__}")


def hs_inverse_identity_check(T: LinearMap2) -> tuple[float, float]:
    """(||T^-1||_HS^2 by explicit inverse, ||T||_HS^2 / det^2): equal for invertible T."""
    lhs = T.inverse().hs_norm_sq()
    rhs = T.hs_norm_sq() / T.det**2
    return lhs, rhs


def require_rotational_symmetry(order: int, what: str = "domain") -> None:
    """Raise ValueError unless a symmetry order (see symmetry_order) is infinite or >= 3."""
    if order != INFINITE_ORDER and order < 3:
        raise ValueError(f"{what} needs rotational symmetry of order >= 3, has {order}")


def hs_ratio_check(d: DomainSpec, T: LinearMap2) -> tuple[float, float]:
    """Both sides of  ||T^-1||_HS^2 / 2 = (I/A^3)(TD) / (I/A^3)(D)  for symmetric D."""
    require_rotational_symmetry(symmetry_order(d))
    lhs = 0.5 * T.inverse().hs_norm_sq()
    rhs = functional_factor(d) / functional_factor(apply_map(T, d))
    return lhs, rhs


def inverse_image_invariance_check(d: DomainSpec, T: LinearMap2) -> tuple[float, float]:
    """(I/A^2)(TD) and (I/A^2)(T^-1 D): equal for symmetric D."""
    require_rotational_symmetry(symmetry_order(d))

    def ratio(image):  # I / A^2 from the moments alone: an ellipse's perimeter is never needed
        area, _, mc = _centered_moments(image)
        return float(np.trace(mc)) / area**2

    return ratio(apply_map(T, d)), ratio(apply_map(T.inverse(), d))


def symmetry_order(d: DomainSpec) -> int:
    """Largest N with rotation by 2*pi/N about the centroid fixing the domain.

    Returns INFINITE_ORDER (0) for disks/circles.  Polygons are tested on
    coordinates scaled to unit diameter with absolute tolerance 1e-9.  A
    polygon's order is computed on the first call and kept on the instance:
    its vertices are read-only, so the value cannot go stale, and two
    threads racing on the first call only compute the same value twice.
    """
    if isinstance(d, Ellipse):
        s1, s2 = d.semi_axes
        return INFINITE_ORDER if abs(s1 - s2) <= 1e-12 * max(s1, s2) else 2
    if d._symmetry_order is None:
        d._symmetry_order = _polygon_symmetry_order(_unit_scaled(d.vertices))
    return d._symmetry_order


def _polygon_symmetry_order(v: np.ndarray) -> int:
    """symmetry_order of the polygon with vertices v, computed afresh."""
    w = v - _polygon_raw_moments(v)[1]
    diam = float(np.max(np.linalg.norm(w[:, None, :] - w[None, :, :], axis=2)))
    w = w / diam
    n = len(v)
    # a rotation fixing the polygon permutes its vertices freely, so N | n
    for order in sorted((k for k in range(2, n + 1) if n % k == 0), reverse=True):
        R = _rot_array(2.0 * math.pi / order)
        rotated = w @ R.T
        dists = np.linalg.norm(rotated[:, None, :] - w[None, :, :], axis=2)
        if np.all(dists.min(axis=1) <= _SYMMETRY_TOL):
            return order
    return 1


# ---------------------------------------------------------------------------
# piecewise maps for equal-area-half quadrilaterals
# ---------------------------------------------------------------------------

def _clip_halfplane(v: np.ndarray, sign: float) -> np.ndarray | None:
    """Sutherland-Hodgman clip of a CCW polygon against sign*x2 >= 0."""
    out = []
    n = len(v)
    for i in range(n):
        cur, nxt = v[i], v[(i + 1) % n]
        cin, nin = sign * cur[1] >= 0, sign * nxt[1] >= 0
        if cin:
            out.append(cur)
        if cin != nin:
            t = cur[1] / (cur[1] - nxt[1])
            out.append(cur + t * (nxt - cur))
    if len(out) < 3:
        return None
    out = np.array(out)
    # drop duplicate consecutive points introduced by on-axis vertices
    keep = [0]
    for i in range(1, len(out)):
        if np.linalg.norm(out[i] - out[keep[-1]]) > 1e-14 * (1 + np.abs(out).max()):
            keep.append(i)
    if np.linalg.norm(out[keep[-1]] - out[keep[0]]) <= 1e-14 * (1 + np.abs(out).max()):
        keep.pop()
    out = out[keep]
    return out if len(out) >= 3 else None


def split_at_axis(d: Polygon) -> tuple[Polygon | None, Polygon | None]:
    """Upper and lower halves of a polygon cut along the x1-axis."""
    up = _clip_halfplane(d.vertices, +1.0)
    lo = _clip_halfplane(d.vertices, -1.0)
    return (Polygon(up) if up is not None else None, Polygon(lo) if lo is not None else None)


def quad_hs_combined_check(P: PiecewiseLinearMap, d: Polygon) -> tuple[float, float]:
    """Both sides of  (||T+^-1||^2 + ||T-^-1||^2)/4 = (I0/A^3)(TD) / (I0/A^3)(D).

    D must be a polygon centered at the origin with even rotational symmetry
    order >= 4; TD is the piecewise image (T+ above the axis, T- below) and I0
    the moment of inertia about the origin.
    """
    if not isinstance(d, Polygon):
        raise TypeError("piecewise moments are implemented for polygons")
    order = symmetry_order(d)
    if order == INFINITE_ORDER or order < 4 or order % 2 != 0:
        raise ValueError(f"need even rotational symmetry order >= 4, got {order}")
    md = moments(d)
    if np.linalg.norm(md.centroid) > 1e-9 * math.sqrt(md.area):
        raise ValueError("domain must be centered at the origin")
    up, lo = split_at_axis(d)
    if up is None or lo is None:
        raise ValueError("domain must meet both halfplanes")
    lhs = 0.25 * (P.plus().inverse().hs_norm_sq() + P.minus().inverse().hs_norm_sq())
    mu = moments(apply_map(P.plus(), up))
    ml = moments(apply_map(P.minus(), lo))
    area_t = mu.area + ml.area
    i0_t = mu.inertia_origin + ml.inertia_origin
    rhs = (i0_t / area_t**3) * functional_factor(d, about="origin")
    return lhs, rhs


# ---------------------------------------------------------------------------
# stock domains
# ---------------------------------------------------------------------------

def equilateral_triangle(side: float = 1.0) -> Polygon:
    """Equilateral triangle of given side, centroid at the origin."""
    r = side / math.sqrt(3.0)  # circumradius
    pts = [[r * math.cos(a), r * math.sin(a)] for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)]
    return Polygon(pts)


def rectangle(l1: float, l2: float) -> Polygon:
    """Axis-aligned l1 x l2 rectangle centered at the origin."""
    a, b = l1 / 2.0, l2 / 2.0
    return Polygon([[-a, -b], [a, -b], [a, b], [-a, b]])


def square(side: float = 1.0) -> Polygon:
    return rectangle(side, side)


def diamond_square() -> Polygon:
    """Square with vertices on the axes at (+-1, 0), (0, +-1)."""
    return Polygon([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def regular_polygon(n: int, circumradius: float = 1.0) -> Polygon:
    """Regular n-gon centered at the origin with a vertex on the positive x1-axis."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    ang = 2 * math.pi * np.arange(n) / n
    return Polygon(np.column_stack([circumradius * np.cos(ang), circumradius * np.sin(ang)]))


def isosceles_triangle(aperture: float, leg: float = 1.0) -> Polygon:
    """Isosceles triangle with apex angle `aperture` between two legs of equal length."""
    if not 0 < aperture < math.pi:
        raise ValueError("aperture must lie in (0, pi)")
    h = aperture / 2.0
    return Polygon([[0.0, 0.0], [leg * math.sin(h), -leg * math.cos(h)], [-leg * math.sin(h), -leg * math.cos(h)]])


# ---------------------------------------------------------------------------
# plain-text domain I/O
# ---------------------------------------------------------------------------

def domain_to_text(d: DomainSpec) -> str:
    """Serialize a domain: one "x y" line per polygon vertex, or a single ellipse line."""
    if isinstance(d, Polygon):
        return "\n".join(f"{x:.17g} {y:.17g}" for x, y in d.vertices) + "\n"
    if isinstance(d, Ellipse):
        cx, cy = d.center
        s1, s2 = d.semi_axes
        return f"ellipse {cx:.17g} {cy:.17g} {s1:.17g} {s2:.17g} {d.rotation:.17g}\n"
    raise TypeError(f"not a domain: {type(d).__name__}")


def domain_from_text(text: str) -> DomainSpec:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty domain description")
    if lines[0].split()[0] == "ellipse":
        parts = lines[0].split()
        if len(parts) != 6:
            raise ValueError("ellipse line must be 'ellipse cx cy s1 s2 theta'")
        cx, cy, s1, s2, theta = map(float, parts[1:])
        return Ellipse((cx, cy), (s1, s2), theta)
    pts = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad vertex line: {ln!r}")
        pts.append([float(parts[0]), float(parts[1])])
    return Polygon(pts)
