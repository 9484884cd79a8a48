import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenplane import geometry as g

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# rotations and frame averages
# ---------------------------------------------------------------------------

def test_rotation_quarter_turn():
    R = g.rotation(4, 1).as_array()
    np.testing.assert_allclose(R, [[0, -1], [1, 0]], atol=1e-15)


def test_rotation_full_turn_identity():
    R = g.rotation(3, 3).as_array()
    np.testing.assert_allclose(R, np.eye(2), atol=1e-15)


def test_rotation_third_turn():
    # cos(2pi/3) = -1/2, sin(2pi/3) = sqrt(3)/2
    R = g.rotation(6, 2).as_array()
    np.testing.assert_allclose(R, [[-0.5, -SQRT3 / 2], [SQRT3 / 2, -0.5]], atol=1e-15)


def test_rotation_rejects_bad_order():
    with pytest.raises(ValueError):
        g.rotation(0, 1)


def test_rotation_orthogonal_det_one():
    for order in (3, 5, 7, 12):
        for m in range(order):
            R = g.rotation(order, m)
            np.testing.assert_allclose(R.as_array() @ R.as_array().T, np.eye(2), atol=1e-14)
            assert R.det == pytest.approx(1.0, abs=1e-14)


def test_frame_average_unit_vectors():
    assert g.frame_average((1, 0), (0, 1), 3) == pytest.approx(0.5, abs=1e-14)


def test_frame_average_aligned():
    assert g.frame_average((2, 0), (1, 0), 4) == pytest.approx(2.0, abs=1e-13)


def test_frame_average_generic():
    # identity value 0.5*|x|^2|y|^2 = 0.5*(0.09+1.44)*(4+0.25)
    expected = 0.5 * (0.09 + 1.44) * (4 + 0.25)
    assert g.frame_average((0.3, -1.2), (2, 0.5), 7) == pytest.approx(expected, rel=1e-13)


def test_frame_average_rejects_small_order():
    with pytest.raises(ValueError):
        g.frame_average((1, 0), (0, 1), 2)


def test_matrix_frame_average_identity():
    assert g.matrix_frame_average((1, 0), np.eye(2), 3) == pytest.approx(1.0, abs=1e-13)


def test_matrix_frame_average_diagonal():
    assert g.matrix_frame_average((1, 1), [[1, 0], [0, 2]], 4) == pytest.approx(5.0, rel=1e-13)


def test_matrix_frame_average_wide():
    assert g.matrix_frame_average((0, 1), np.ones((2, 3)), 5) == pytest.approx(3.0, rel=1e-13)


def test_tight_frame_bulk_random():
    # module invariant: 1e4 seeded cases, error <= 1e-12 * (1 + |x|^2 |y|^2)
    rng = np.random.default_rng(20260810)
    for _ in range(10_000):
        x = rng.uniform(-3, 3, 2)
        y = rng.uniform(-3, 3, 2)
        order = int(rng.integers(3, 13))
        got = g.frame_average(x, y, order)
        want = 0.5 * (x @ x) * (y @ y)
        assert abs(got - want) <= 1e-12 * (1.0 + (x @ x) * (y @ y))


def test_matrix_frame_bulk_random():
    rng = np.random.default_rng(42)
    for _ in range(2_000):
        x = rng.uniform(-3, 3, 2)
        k = int(rng.integers(1, 6))
        Y = rng.uniform(-3, 3, (2, k))
        order = int(rng.integers(3, 13))
        got = g.matrix_frame_average(x, Y, order)
        want = 0.5 * (x @ x) * np.sum(Y * Y)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


@given(
    st.tuples(*[st.floats(-100, 100) for _ in range(4)]),
    st.integers(min_value=3, max_value=24),
)
@settings(max_examples=200, deadline=None)
def test_tight_frame_hypothesis(coords, order):
    x = np.array(coords[:2])
    y = np.array(coords[2:])
    got = g.frame_average(x, y, order)
    want = 0.5 * (x @ x) * (y @ y)
    assert abs(got - want) <= 1e-10 * (1.0 + (x @ x) * (y @ y))


# ---------------------------------------------------------------------------
# polygon construction
# ---------------------------------------------------------------------------

def test_polygon_needs_three_vertices():
    with pytest.raises(ValueError):
        g.Polygon([[0, 0], [1, 0]])


def test_polygon_rejects_zero_area():
    with pytest.raises(ValueError):
        g.Polygon([[0, 0], [1, 1], [2, 2]])


def test_polygon_rejects_bowtie():
    with pytest.raises(ValueError):
        g.Polygon([[0, 0], [1, 1], [1, 0], [0, 1]])



def _pairwise_self_intersects(v):
    """The pairwise loop the vectorized check replaced: orient on every two edges sharing no vertex."""
    n = len(v)
    for i in range(n):
        p1, p2 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # shared endpoint
            q1, q2 = v[j], v[(j + 1) % n]
            d1, d2 = g.orient(q1, q2, p1), g.orient(q1, q2, p2)
            d3, d4 = g.orient(p1, p2, q1), g.orient(p1, p2, q2)
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
                return True
    return False


def _star(rng, n):
    """A simple polygon: n vertices at sorted random angles and random radii about the origin."""
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    r = rng.uniform(0.2, 1.0, n)
    return np.column_stack([r * np.cos(angles), r * np.sin(angles)])


def test_vectorized_self_intersection_matches_the_pairwise_loop():
    rng = np.random.default_rng(20261019)
    cases = [np.array([[0, 0], [1, 1], [1, 0], [0, 1]], float)]  # the bow-tie
    for _ in range(300):
        n = int(rng.integers(3, 13))
        star = _star(rng, n)
        cases.append(star)  # simple
        cases.append(star @ rng.normal(size=(2, 2)))  # its linear image, still simple
        if n >= 4:
            i, j = rng.choice(n, 2, replace=False)
            bow = star.copy()
            bow[[i, j]] = bow[[j, i]]  # two vertices swapped: usually a crossing
            cases.append(bow)
        # integer vertices on a 5 x 5 lattice: collinear edges, vertices touching edges, repeated vertices
        cases.append(rng.integers(-2, 3, size=(n, 2)).astype(float))
    cases.append(np.array([[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]], float))  # a vertex touching an edge
    cases.append(np.array([[0, 0], [4, 0], [4, 1], [2, 0], [0, 1]], float))  # a spike along an edge
    many = g.regular_polygon(300).vertices.copy()  # more pairs than one vectorized step
    cases.append(many)
    many = many.copy()
    many[[10, 200]] = many[[200, 10]]
    cases.append(many)
    verdicts = [g._self_intersects(v) for v in cases]
    assert verdicts == [_pairwise_self_intersects(v) for v in cases]
    assert verdicts[0] and verdicts[-1] and not verdicts[-2]
    assert 100 < sum(verdicts) < len(cases) - 300  # both verdicts are well represented

def test_power_of_two_scaling_keeps_every_verdict_at_any_size():
    # the self-intersection and symmetry tests read the vertices scaled exactly by a power of two: an ordinary
    # polygon's verdicts are its raw vertices' own, and a huge or tiny polygon's products neither overflow nor vanish
    rng = np.random.default_rng(33)
    cases = [np.array([[0, 0], [1, 1], [1, 0], [0, 1]], float)]
    for _ in range(200):
        n = int(rng.integers(3, 13))
        star = _star(rng, n) * 10.0 ** rng.uniform(-3, 3)
        cases += [star, star @ rng.normal(size=(2, 2)), rng.integers(-2, 3, size=(n, 2)).astype(float)]
        if n >= 4:
            bow = star.copy()
            bow[[0, n // 2]] = bow[[n // 2, 0]]
            cases.append(bow)
        k = int(rng.integers(3, 9))
        cases.append(g.regular_polygon(k).vertices * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-3, 3, 2))
    orders = []
    for v in cases:
        u = g._unit_scaled(v)
        assert 0.5 <= np.abs(u).max() < 1.0 and np.array_equal(np.ldexp(u, math.frexp(np.abs(v).max())[1]), v)
        assert g._self_intersects(u) == g._self_intersects(v)
        try:
            g.Polygon(v)
        except ValueError:  # zero area or self-intersecting: no symmetry order
            continue
        orders.append(g._polygon_symmetry_order(v))
        assert g._polygon_symmetry_order(u) == orders[-1]
    assert sum(order >= 3 for order in orders) > 150 and orders.count(1) > 300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-160, 1e-100, 1e120, 1e150):
            for k in (3, 4, 6):
                assert g.symmetry_order(g.Polygon(g.regular_polygon(k).vertices * scale)) == k, (scale, k)
            with pytest.raises(ValueError, match="self-intersecting"):
                g.Polygon(np.array([[0, 0], [3, 2], [3, 0], [0, 1]], float) * scale)  # a bow-tie of area 1.5


def test_polygon_normalizes_orientation():
    p = g.Polygon([[0, 1], [1, 0], [0, 0]])  # clockwise input
    x, y = p.vertices[:, 0], p.vertices[:, 1]
    assert np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0


def test_ellipse_validates_axes():
    with pytest.raises(ValueError):
        g.Ellipse((0, 0), (1.0, -2.0))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moments_unit_square():
    # integral of x^2 + y^2 over [-1/2,1/2]^2 = 1/6
    m = g.moments(g.square(1.0))
    assert m.area == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(m.centroid, [0, 0], atol=1e-15)
    assert m.inertia_centroid == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert m.perimeter == pytest.approx(4.0, rel=1e-14)


def test_moments_equilateral():
    m = g.moments(g.equilateral_triangle(1.0))
    assert m.area == pytest.approx(SQRT3 / 4, rel=1e-13)
    assert m.inertia_centroid == pytest.approx(SQRT3 / 48, rel=1e-12)


def test_moments_unit_disk():
    # polar: integral of r^2 * r dr dtheta over the unit disk = pi/2
    m = g.moments(g.Ellipse((0, 0), (1, 1)))
    assert m.area == pytest.approx(math.pi, rel=1e-14)
    assert m.inertia_centroid == pytest.approx(math.pi / 2, rel=1e-14)
    assert m.perimeter == pytest.approx(2 * math.pi, rel=1e-12)


def test_moments_offset_domain_parallel_axis():
    p = g.Polygon([[2, 1], [3, 1], [3, 2], [2, 2]])
    m = g.moments(p)
    assert m.inertia_origin == pytest.approx(
        m.inertia_centroid + m.area * float(m.centroid @ m.centroid), rel=1e-13
    )


@pytest.mark.parametrize("aspect", [1.0, 1.2, 1.633, 5.0])
def test_functional_factor_closed_forms(aspect):
    # A^3/I of an a x 1 rectangle is 12 / (a^-2 + 1); 6 for the unit square
    assert g.functional_factor(g.rectangle(aspect, 1.0)) == pytest.approx(12.0 / (aspect**-2 + 1.0), rel=1e-14)
    assert g.functional_factor(g.Ellipse((0.0, 0.0), (1.0, 1.0))) == pytest.approx(2.0 * math.pi**2, rel=1e-14)
    assert g.functional_factor(g.equilateral_triangle()) == pytest.approx(9.0 / 4.0, rel=1e-13)


def test_functional_factor_about_origin():
    p = g.Polygon([[2, 1], [3, 1], [3, 2], [2, 2]])  # unit square centered at (2.5, 1.5)
    assert g.functional_factor(p) == pytest.approx(6.0, rel=1e-13)
    assert g.functional_factor(p, about="origin") == pytest.approx(1.0 / (1.0 / 6.0 + 2.5**2 + 1.5**2), rel=1e-13)
    with pytest.raises(ValueError):
        g.functional_factor(p, about="vertex")


def test_triangle_inertia_equilateral():
    assert g.triangle_inertia_from_sides(1, 1, 1, SQRT3 / 4) == pytest.approx(SQRT3 / 48, rel=1e-13)


def test_triangle_inertia_345_matches_moments():
    got = g.triangle_inertia_from_sides(3, 4, 5, 6.0)
    assert got == pytest.approx(25.0 / 3.0, rel=1e-13)
    m = g.moments(g.Polygon([[0, 0], [3, 0], [0, 4]]))
    assert got == pytest.approx(m.inertia_centroid, rel=1e-12)


def test_triangle_inertia_rejects_degenerate():
    with pytest.raises(ValueError):
        g.triangle_inertia_from_sides(1, 1, 2, 0.0)


def test_triangle_inertia_rejects_bad_area():
    with pytest.raises(ValueError):
        g.triangle_inertia_from_sides(3, 4, 5, 5.0)


def test_parallelogram_inertia_square():
    assert g.parallelogram_inertia_from_sides(1, 1, 1) == pytest.approx(1 / 6, rel=1e-14)


def test_parallelogram_inertia_rectangle():
    assert g.parallelogram_inertia_from_sides(2, 1, 2) == pytest.approx(5 / 6, rel=1e-14)


def test_parallelogram_inertia_sheared_matches_moments():
    got = g.parallelogram_inertia_from_sides(1, math.sqrt(2), 1)
    assert got == pytest.approx(0.25, rel=1e-13)
    m = g.moments(g.Polygon([[0, 0], [1, 0], [2, 1], [1, 1]]))
    assert got == pytest.approx(m.inertia_centroid, rel=1e-12)


def test_parallelogram_inertia_rejects_impossible_area():
    with pytest.raises(ValueError):
        g.parallelogram_inertia_from_sides(1, 1, 2)


def _random_star_polygon(rng, n=8):
    # jittered equal spacing keeps every angular gap below pi, so the
    # star-shaped construction stays simple
    angles = 2 * math.pi * (np.arange(n) + rng.uniform(0, 0.9, n)) / n
    radii = rng.uniform(0.3, 2.0, n)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return g.Polygon(pts + rng.uniform(-1, 1, 2))


def test_moment_consistency_random_polygons():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = g.moments(_random_star_polygon(rng))
        gap = m.inertia_origin - m.inertia_centroid - m.area * float(m.centroid @ m.centroid)
        assert abs(gap) <= 1e-12 * max(1.0, m.inertia_origin)


def test_moment_matrix_of_symmetric_domains_is_half_inertia():
    domains = [g.regular_polygon(k) for k in range(3, 9)]
    domains.append(g.Ellipse((0.4, -0.3), (1, 1)))
    for d in domains:
        m = g.moments(d)
        target = 0.5 * m.inertia_centroid * np.eye(2)
        assert np.max(np.abs(m.moment_matrix - target)) <= 1e-10 * m.inertia_centroid


# ---------------------------------------------------------------------------
# linear maps
# ---------------------------------------------------------------------------

def test_apply_map_identity():
    sq = g.square(1.0)
    out = g.apply_map(g.LinearMap2.identity(), sq)
    np.testing.assert_allclose(out.vertices, sq.vertices, atol=1e-15)


def test_apply_map_square_to_rectangle():
    out = g.apply_map(g.LinearMap2.diagonal(2, 1), g.square(1.0))
    m = g.moments(out)
    assert m.area == pytest.approx(2.0, rel=1e-14)
    assert m.perimeter == pytest.approx(6.0, rel=1e-14)


def test_apply_map_disk_to_ellipse():
    out = g.apply_map(g.LinearMap2.diagonal(2, 3), g.Ellipse((0, 0), (1, 1)))
    assert sorted(out.semi_axes) == pytest.approx([2.0, 3.0], rel=1e-12)


def test_apply_map_rotated_ellipse_moments():
    # shear a disk: image moments must follow the moment transformation law
    T = g.LinearMap2.from_array([[1.0, 0.7], [0.0, 1.0]])
    disk = g.Ellipse((0, 0), (1, 1))
    m = g.moments(g.apply_map(T, disk))
    md = g.moments(disk)
    want = 0.5 * md.inertia_centroid * T.hs_norm_sq() * abs(T.det)
    assert m.inertia_centroid == pytest.approx(want, rel=1e-12)


def test_apply_map_rejects_singular():
    with pytest.raises(ValueError):
        g.apply_map(g.LinearMap2(1, 2, 2, 4), g.square(1.0))


def test_singular_values_ordering():
    r1, r2 = g.LinearMap2.diagonal(1, 3).singular_values()
    assert (r1, r2) == pytest.approx((3.0, 1.0), rel=1e-14)


def test_hs_inverse_identity_examples():
    lhs, rhs = g.hs_inverse_identity_check(g.LinearMap2.identity())
    assert (lhs, rhs) == pytest.approx((2.0, 2.0), rel=1e-14)
    lhs, rhs = g.hs_inverse_identity_check(g.LinearMap2.diagonal(2, 1))
    assert (lhs, rhs) == pytest.approx((1.25, 1.25), rel=1e-13)
    lhs, rhs = g.hs_inverse_identity_check(g.LinearMap2(1, 1, 0, 1))
    assert (lhs, rhs) == pytest.approx((3.0, 3.0), rel=1e-13)


def test_hs_ratio_identity_on_equilateral():
    lhs, rhs = g.hs_ratio_check(g.equilateral_triangle(), g.LinearMap2.identity())
    assert lhs == pytest.approx(1.0, rel=1e-13)
    assert rhs == pytest.approx(1.0, rel=1e-12)


def test_hs_ratio_square_stretch():
    lhs, rhs = g.hs_ratio_check(g.square(1.0), g.LinearMap2.diagonal(2, 1))
    assert lhs == pytest.approx(0.625, rel=1e-13)
    assert rhs == pytest.approx(0.625, rel=1e-12)


def test_hs_ratio_sheared_equilateral():
    lhs, rhs = g.hs_ratio_check(g.equilateral_triangle(), g.LinearMap2(1, 1, 0, 1))
    assert lhs == pytest.approx(1.5, rel=1e-13)
    assert rhs == pytest.approx(1.5, rel=1e-11)


def test_hs_ratio_rejects_low_symmetry():
    with pytest.raises(ValueError):
        g.hs_ratio_check(g.rectangle(2, 1), g.LinearMap2.identity())


def test_inverse_image_invariance_examples():
    for d, T in [
        (g.square(1.0), g.rotation(8, 1)),
        (g.equilateral_triangle(), g.LinearMap2.diagonal(3, 1)),
        (g.square(1.0), g.LinearMap2(2, 1, 0, 1)),
    ]:
        lhs, rhs = g.inverse_image_invariance_check(d, T)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_inverse_image_invariance_reads_moments_without_the_perimeter():
    # I / A^2 needs no elliptic integral: same bits as the ratios of `moments`, and no scipy on a disk
    import subprocess
    import sys

    for d, T in [(g.Ellipse((0.3, -0.2), (1.0, 1.0)), g.LinearMap2(1.5, 0.3, -0.2, 0.9)),
                 (g.square(1.0), g.LinearMap2(2, 1, 0, 1)),
                 (g.equilateral_triangle(), g.LinearMap2(0.4, -1.1, 0.7, 0.2))]:
        want = []
        for image in (g.apply_map(T, d), g.apply_map(T.inverse(), d)):
            m = g.moments(image)
            want.append(m.inertia_centroid / m.area**2)
        assert g.inverse_image_invariance_check(d, T) == tuple(want)
    code = ("import sys; from eigenplane import geometry as g; "
            "g.inverse_image_invariance_check(g.Ellipse((0.0, 0.0), (1.0, 1.0)), g.LinearMap2(1.5, 0.3, -0.2, 0.9)); "
            "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_moment_lemma_pairs_random_maps():
    # the ratio/invariance/transformation identities over seeded random maps
    rng = np.random.default_rng(11)
    domains = [g.square(1.0), g.equilateral_triangle(), g.regular_polygon(6)]
    for _ in range(60):
        M = rng.uniform(-2, 2, (2, 2))
        if abs(np.linalg.det(M)) < 0.1:
            continue
        T = g.LinearMap2.from_array(M)
        for d in domains:
            lhs, rhs = g.hs_ratio_check(d, T)
            assert lhs == pytest.approx(rhs, rel=1e-10)
            lhs, rhs = g.inverse_image_invariance_check(d, T)
            assert lhs == pytest.approx(rhs, rel=1e-10)
            md = g.moments(d)
            mi = g.moments(g.apply_map(T, d))
            want = 0.5 * md.inertia_centroid * T.hs_norm_sq() * abs(T.det)
            assert mi.inertia_centroid == pytest.approx(want, rel=1e-11)
            assert mi.area == pytest.approx(abs(T.det) * md.area, rel=1e-12)


# ---------------------------------------------------------------------------
# symmetry order
# ---------------------------------------------------------------------------

def test_symmetry_order_equilateral():
    assert g.symmetry_order(g.equilateral_triangle()) == 3


def test_symmetry_order_rectangle():
    assert g.symmetry_order(g.rectangle(2, 1)) == 2


def test_symmetry_order_circle_sentinel():
    assert g.symmetry_order(g.Ellipse((0, 0), (1, 1))) == g.INFINITE_ORDER


def test_symmetry_order_regular_polygons():
    for k in range(3, 9):
        assert g.symmetry_order(g.regular_polygon(k)) == k


def test_symmetry_order_scalene():
    assert g.symmetry_order(g.Polygon([[0, 0], [3, 0], [0, 4]])) == 1


def test_symmetry_order_translated_square():
    p = g.Polygon(g.square(1.0).vertices + np.array([5.0, -2.0]))
    assert g.symmetry_order(p) == 4


def _star_polygon(rng, k):
    """A simple polygon of k vertices: increasing angles, gaps under pi, random radii, a random offset."""
    angles = 2.0 * math.pi * (np.arange(k) + rng.uniform(0.0, 0.4, k)) / k
    radii = rng.uniform(0.3, 2.0, k)
    return g.Polygon(np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]) + rng.uniform(-3, 3, 2))


def test_shifted_rows_give_the_roll_formulas_bit_for_bit():
    rng = np.random.default_rng(21)
    polygons = [_star_polygon(rng, k) for k in range(3, 10) for _ in range(4)]
    maps = [g.LinearMap2(1.3, 0.4, -0.2, 0.8), g.LinearMap2(0.7, 1.1, 0.9, -0.5)]  # det > 0, det < 0
    for d in polygons + [g.apply_map(T, p) for T in maps for p in polygons]:
        v = d.vertices
        for a in (v, v[:, 0], v[:, 1]):
            assert np.array_equal(g._next(a), np.roll(a, -1, axis=0))
        x, y = v[:, 0], v[:, 1]
        assert g._signed_area2(v) == float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        xn, yn = np.roll(x, -1), np.roll(y, -1)
        cross = x * yn - xn * y
        area = 0.5 * float(np.sum(cross))
        got_area, got_c, got_m0 = g._polygon_raw_moments(v)
        assert got_area == area
        assert got_c.tolist() == [float(np.sum((x + xn) * cross)) / (6.0 * area),
                                  float(np.sum((y + yn) * cross)) / (6.0 * area)]
        ixy = float(np.sum((x * yn + 2 * x * y + 2 * xn * yn + xn * y) * cross)) / 24.0
        assert got_m0.tolist() == [[float(np.sum((x * x + x * xn + xn * xn) * cross)) / 12.0, ixy],
                                   [ixy, float(np.sum((y * y + y * yn + yn * yn) * cross)) / 12.0]]
        assert g.moments(d).perimeter == float(np.sum(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)))


# ---------------------------------------------------------------------------
# piecewise maps
# ---------------------------------------------------------------------------

def test_piecewise_map_pieces_share_determinant():
    P = g.PiecewiseLinearMap(2.0, 1.5, 0.3, -0.4)
    assert P.plus().det == pytest.approx(P.minus().det, rel=1e-15)


def test_piecewise_map_validates():
    with pytest.raises(ValueError):
        g.PiecewiseLinearMap(0.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        g.PiecewiseLinearMap(1.0, -1.0, 0.0, 0.0)


def test_split_at_axis_diamond():
    up, lo = g.split_at_axis(g.diamond_square())
    assert g.moments(up).area == pytest.approx(1.0, rel=1e-13)
    assert g.moments(lo).area == pytest.approx(1.0, rel=1e-13)


def test_quad_hs_combined_identity_map():
    lhs, rhs = g.quad_hs_combined_check(g.PiecewiseLinearMap(1, 1, 0, 0), g.diamond_square())
    assert (lhs, rhs) == pytest.approx((1.0, 1.0), rel=1e-12)


def test_quad_hs_combined_symmetric_shear():
    lhs, rhs = g.quad_hs_combined_check(g.PiecewiseLinearMap(1, 1, 0.5, -0.5), g.diamond_square())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_quad_hs_combined_generic():
    lhs, rhs = g.quad_hs_combined_check(g.PiecewiseLinearMap(2, 1, 0.3, -0.2), g.diamond_square())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_quad_hs_combined_on_hexagon():
    lhs, rhs = g.quad_hs_combined_check(g.PiecewiseLinearMap(1.3, 0.8, 0.4, 0.1), g.regular_polygon(6))
    assert lhs == pytest.approx(rhs, rel=1e-11)


def test_quad_hs_combined_rejects_odd_symmetry():
    with pytest.raises(ValueError):
        g.quad_hs_combined_check(g.PiecewiseLinearMap(1, 1, 0, 0), g.equilateral_triangle())


# ---------------------------------------------------------------------------
# text I/O
# ---------------------------------------------------------------------------

def test_polygon_text_roundtrip():
    p = g.Polygon([[0, 0], [1.25, 0], [0.5, 2.5]])
    q = g.domain_from_text(g.domain_to_text(p))
    np.testing.assert_allclose(q.vertices, p.vertices, atol=0)


def test_ellipse_text_roundtrip():
    e = g.Ellipse((0.5, -1.0), (2.0, 1.0), 0.3)
    f = g.domain_from_text(g.domain_to_text(e))
    np.testing.assert_allclose(f.center, e.center, atol=0)
    assert f.semi_axes == e.semi_axes
    assert f.rotation == e.rotation


def test_domain_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        g.domain_from_text("1 2 3\n4 5 6\n")
