import json
import math

import numpy as np
import pytest

from eigenplane import exact as ex
from eigenplane import experiments as xp
from eigenplane import fem
from eigenplane import geometry as g
from eigenplane import schrodinger as sch

PI2 = math.pi**2
J01 = ex.bessel_zero(ex.BesselZeroRequest(0, 1))
J1P1 = ex.bessel_zero(ex.BesselZeroRequest(1, 1, derivative=True))

FAST = fem.FemOptions(max_refinement=4)


# ---------------------------------------------------------------------------
# model-shape detection and normalized sums
# ---------------------------------------------------------------------------

def test_classify_model_shapes():
    assert xp.classify_model_shape(g.equilateral_triangle(2.0)) == ("equilateral", pytest.approx(2.0))
    kind, (l1, l2) = xp.classify_model_shape(g.rectangle(2, 1))
    assert kind == "rectangle" and sorted((l1, l2)) == [1, 2]
    assert xp.classify_model_shape(g.Ellipse((0, 0), (1, 1)))[0] == "disk"
    assert xp.classify_model_shape(g.Polygon([[0, 0], [3, 0], [0, 4]])) is None
    assert xp.classify_model_shape(g.Ellipse((0, 0), (2, 1))) is None


def test_classify_is_rigid_motion_invariant():
    rotated = g.apply_map(g.rotation(12, 5), g.rectangle(2, 1))
    kind, sides = xp.classify_model_shape(rotated)
    assert kind == "rectangle"
    assert sorted(sides) == pytest.approx([1.0, 2.0], rel=1e-12)


def _classify_by_roll(d):
    """classify_model_shape of a polygon as written with np.roll."""
    v = d.vertices
    sides = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    scale = sides.max()
    if len(v) == 3:
        if np.all(np.abs(sides - sides[0]) <= 1e-12 * scale):
            return ("equilateral", float(sides[0]))
        return None
    if len(v) == 4:
        edges = np.roll(v, -1, axis=0) - v
        dots = np.abs(np.einsum("ij,ij->i", edges, np.roll(edges, -1, axis=0)))
        if np.all(dots <= 1e-12 * scale * scale):
            return ("rectangle", (float(sides[0]), float(sides[1])))
    return None


def test_classify_matches_the_roll_formula_bit_for_bit():
    rng = np.random.default_rng(21)
    shapes = [g.equilateral_triangle(), g.square(1.0), g.rectangle(2.0, 0.7), g.regular_polygon(5)]
    for _ in range(6):
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, int(rng.integers(3, 6))))
        shapes.append(g.Polygon(np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.5, 2.0)))
    maps = [g.LinearMap2(1.3, 0.4, -0.2, 0.8), g.LinearMap2(0.7, 1.1, 0.9, -0.5)]  # det > 0, det < 0
    for theta, c in ((0.7, 1.9), (2.3, 0.45), (4.0, 1.0)):
        rot = c * np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        maps += [g.LinearMap2.from_array(rot), g.LinearMap2.from_array(rot @ np.diag([1.0, -1.0]))]
    kinds = set()
    for d in shapes + [g.apply_map(T, s) for T in maps for s in shapes]:
        want = _classify_by_roll(d)
        assert xp.classify_model_shape(d) == want
        kinds.add(None if want is None else want[0])
    assert kinds == {"equilateral", "rectangle", None}


def test_symmetry_order_is_computed_once_per_polygon(monkeypatch):
    calls = []
    compute = g._polygon_symmetry_order
    monkeypatch.setattr(g, "_polygon_symmetry_order", lambda v: calls.append(len(v)) or compute(v))
    sq, eq = g.square(1.0), g.equilateral_triangle()
    T = g.LinearMap2(1.3, 0.4, -0.2, 0.8)
    for bc in (ex.DIRICHLET, ex.NEUMANN):
        for n in range(1, 7):
            assert xp.verify_linear_map_bound(sq, T, bc, n, FAST).holds
    assert calls == [4]  # 12 reports, one computation
    assert g.symmetry_order(eq) == 3 and calls == [4, 3]  # another polygon has its own order
    assert g.symmetry_order(sq) == 4 and g.symmetry_order(eq) == 3 and calls == [4, 3]
    image = g.apply_map(g.LinearMap2(2.0, 0.0, 0.0, 2.0), sq)
    assert g.symmetry_order(image) == 4 and calls == [4, 3, 4]  # computed afresh, not inherited
    assert g.symmetry_order(g.apply_map(T, sq)) == 2 and calls == [4, 3, 4, 4]


def test_a_reference_polygon_is_classified_once(monkeypatch):
    calls = []
    classify = xp._classify_polygon
    monkeypatch.setattr(xp, "_classify_polygon", lambda v: calls.append(v) or classify(v))
    sq, T = g.square(1.0), g.LinearMap2(1.3, 0.4, -0.2, 0.8)
    first = xp.verify_linear_map_bound(sq, T, ex.DIRICHLET, 2, FAST)
    assert len(calls) == 2 and sum(v is sq.vertices for v in calls) == 1  # the image, then the reference
    second = xp.verify_linear_map_bound(sq, T, ex.DIRICHLET, 2, FAST)
    assert len(calls) == 3 and calls[-1] is not sq.vertices  # only the new image is classified
    assert second.to_json() == first.to_json()
    assert xp.classify_model_shape(sq) == ("rectangle", (1.0, 1.0)) and len(calls) == 3


def _near_similarities(rng, count):
    """c R(theta) diag(1, +-1), each entry then moved by up to 1e-13 to 1e-11 of c: both sides of the 1e-12 tolerance."""
    out = []
    for _ in range(count):
        theta, c = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.4, 2.5)
        m = c * np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        m = m @ np.diag([1.0, rng.choice([1.0, -1.0])])
        out.append(g.LinearMap2.from_array(m + c * 10.0 ** rng.uniform(-13, -11) * rng.uniform(-1.0, 1.0, (2, 2))))
    return out


def test_an_image_is_classified_as_its_polygon_bit_for_bit():
    rng = np.random.default_rng(31)
    shapes = [g.square(1.0), g.equilateral_triangle(), g.regular_polygon(6), g.rectangle(2.0, 0.7),
              g.Polygon([[0.0, 0.0], [2.0, 0.1], [1.7, 1.3], [-0.2, 0.9]])]
    maps = xp.random_invertible_maps(20, seed=7)  # criterion 7's distribution
    for theta, c in ((0.7, 1.9), (2.3, 0.45), (4.0, 1.0)):
        rot = c * np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        maps += [g.LinearMap2.from_array(rot), g.LinearMap2.from_array(rot @ np.diag([1.0, -1.0]))]
    near = _near_similarities(rng, 300)
    assert any(T.det < 0 for T in maps) and any(T.det > 0 for T in maps)
    near_classes = []
    for T, is_near in [(T, False) for T in maps] + [(T, True) for T in near]:
        for d in shapes:
            image = g.apply_map(T, d)
            want = xp.classify_model_shape(image)
            # repr tells every float apart that differs in a bit, the sign of zero included
            assert repr(xp._image_class(d, T)) == repr(want) == repr(_classify_by_roll(image))
            if is_near and len(d.vertices) < 6:
                near_classes.append(want is None)
    assert near_classes.count(True) > 50 and near_classes.count(False) > 50  # on both sides of the tolerance
    with pytest.raises(ValueError, match="map is singular"):
        xp.spectrum_of(g.square(1.0), ex.DIRICHLET, 1, T=g.LinearMap2(1.0, 2.0, 2.0, 4.0))


def test_normalized_sum_equilateral_dirichlet():
    val = xp.normalized_sum(g.equilateral_triangle(), ex.DIRICHLET, 1, "exact")
    assert val == pytest.approx(12 * PI2, rel=1e-12)


def test_normalized_sum_any_rectangle():
    for aspect in (1.0, 1.3, 2.0, 5.0):
        val = xp.normalized_sum(g.rectangle(aspect, 1.0), ex.DIRICHLET, 1, "exact")
        assert val == pytest.approx(12 * PI2, rel=1e-12)


def test_normalized_sum_disk_neumann():
    val = xp.normalized_sum(g.Ellipse((0, 0), (1, 1)), ex.NEUMANN, 2, "exact")
    assert val == pytest.approx(2 * J1P1**2 * PI2, rel=1e-12)


def test_normalized_sum_scale_invariant_exact():
    for r in (0.5, 3.0):
        a = xp.normalized_sum(g.equilateral_triangle(1.0), ex.DIRICHLET, 4, "exact")
        b = xp.normalized_sum(g.equilateral_triangle(r), ex.DIRICHLET, 4, "exact")
        assert b == pytest.approx(a, rel=1e-10)


def test_normalized_sum_scale_invariant_fem():
    tri = g.Polygon([[0, 0], [1, 0], [0.2, 0.7]])
    tri3 = g.Polygon(tri.vertices * 3.0)
    a = xp.normalized_sum(tri, ex.DIRICHLET, 2, opts=FAST)
    b = xp.normalized_sum(tri3, ex.DIRICHLET, 2, opts=FAST)
    assert b == pytest.approx(a, rel=1e-9)


CLOSED_FORMS = {
    "equilateral-dirichlet": (g.equilateral_triangle(1.3), ex.DIRICHLET),
    "equilateral-neumann": (g.equilateral_triangle(1.3), ex.NEUMANN),
    "rectangle-dirichlet": (g.rectangle(2.0, 0.7), ex.DIRICHLET),
    "rectangle-neumann": (g.rectangle(2.0, 0.7), ex.NEUMANN),
    "rectangle-robin": (g.rectangle(2.0, 0.7), ex.robin(3.0)),
    "disk-dirichlet": (g.Ellipse((0.5, -0.2), (0.8, 0.8)), ex.DIRICHLET),
    "disk-neumann": (g.Ellipse((0.5, -0.2), (0.8, 0.8)), ex.NEUMANN),
}


def _direct_closed_form(kind, data, bc, n):
    if kind == "equilateral":
        return ex.equilateral_spectrum(data, bc, n)
    if kind == "rectangle":
        return ex.rectangle_spectrum(data[0], data[1], bc, n)
    return ex.disk_spectrum(data, bc, n)


@pytest.mark.parametrize("case", list(CLOSED_FORMS))
def test_closed_forms_are_served_from_the_values_memo(case, monkeypatch):
    d, bc = CLOSED_FORMS[case]
    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))
    enumerations = []
    smallest = ex._smallest
    monkeypatch.setattr(ex, "_smallest", lambda *args: enumerations.append(args[1]) or smallest(*args))
    kind, data = xp.classify_model_shape(d)

    def same(got, want):
        return (got.method == "exact" and got.values.tobytes() == want.values.tobytes()
                and got.error_estimates.tobytes() == want.error_estimates.tobytes())

    others = [ex.DIRICHLET, ex.NEUMANN, ex.robin(0.0)] + [ex.robin(1.0)] * (kind == "rectangle")
    for n in (1, 5, 40):
        want = _direct_closed_form(kind, data, bc, n)
        for other in others:  # each condition (kind and sigma) has entries of its own
            if other != bc:
                xp.spectrum_of(d, other, n)
        enumerations.clear()
        first = xp.spectrum_of(d, bc, n)
        second = xp.spectrum_of(d, bc, n)
        assert enumerations == [n] and same(first, want) and same(second, want)
        second.values[:] = -1.0  # callers own what they get back
        second.error_estimates[:] = 7.0
        assert same(xp.spectrum_of(d, bc, n), want) and enumerations == [n]
    # an entry over half the memo's bound is enumerated on every call and never kept
    n = fem.VALUE_CACHE_BYTES // 16 + 1
    enumerations.clear()
    assert same(xp.spectrum_of(d, bc, n), xp.spectrum_of(d, bc, n)) and enumerations == [n, n]


def test_exact_engine_rejects_generic_shapes():
    with pytest.raises(ValueError):
        xp.normalized_sum(g.Polygon([[0, 0], [3, 0], [0, 4]]), ex.DIRICHLET, 1, "exact")


# ---------------------------------------------------------------------------
# linear map bound
# ---------------------------------------------------------------------------

def test_linear_map_bound_square_stretch_equality():
    rep = xp.verify_linear_map_bound(g.square(1.0), g.LinearMap2.diagonal(2, 1), ex.DIRICHLET, 1)
    assert rep.holds
    assert rep.lhs == pytest.approx(1.25 * PI2, rel=1e-12)
    assert rep.rhs == pytest.approx(1.25 * PI2, rel=1e-12)
    assert abs(rep.slack) <= rep.tolerance


def test_linear_map_bound_scalar_orthogonal_equality():
    T = g.LinearMap2.from_array(1.7 * g.rotation(9, 2).as_array())
    for n in (1, 3, 5):
        rep = xp.verify_linear_map_bound(g.equilateral_triangle(), T, ex.NEUMANN, n)
        assert rep.holds and abs(rep.slack) <= rep.tolerance


def test_linear_map_bound_shear_strict():
    rep = xp.verify_linear_map_bound(
        g.equilateral_triangle(), g.LinearMap2(1, 0.8, 0, 1), ex.DIRICHLET, 4, FAST
    )
    assert rep.holds and rep.slack > rep.tolerance
    assert rep.inputs["lhs_method"] == "fem"
    assert rep.inputs["rhs_method"] == "exact"


def test_linear_map_bound_on_disk_domain():
    # disk has unbounded symmetry order; its stretched image is handled by FEM
    rep = xp.verify_linear_map_bound(
        g.Ellipse((0, 0), (1, 1)), g.LinearMap2.diagonal(1.5, 1), ex.DIRICHLET, 2,
        fem.FemOptions(max_refinement=2),
    )
    assert rep.holds
    assert rep.inputs["lhs_method"] == "fem"
    assert rep.inputs["rhs_method"] == "exact"


def test_a_memo_hit_report_builds_no_polygon_and_enumerates_nothing(monkeypatch):
    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))
    T, sq = g.LinearMap2(1.3, 0.4, -0.2, 0.8), g.square(1.0)
    cases = [(d, bc, n) for d in (sq, g.equilateral_triangle()) for bc in (ex.DIRICHLET, ex.NEUMANN)
             for n in range(1, 7)]
    cold = [xp.verify_linear_map_bound(d, T, bc, n).to_json() for d, bc, n in cases]
    calls = []
    init, intersects, smallest = g.Polygon.__init__, g._self_intersects, ex._smallest
    monkeypatch.setattr(g.Polygon, "__init__", lambda self, v: calls.append("Polygon") or init(self, v))
    monkeypatch.setattr(g, "_self_intersects", lambda v: calls.append("_self_intersects") or intersects(v))
    monkeypatch.setattr(ex, "_smallest", lambda *args: calls.append("_smallest") or smallest(*args))
    assert [xp.verify_linear_map_bound(d, T, bc, n).to_json() for d, bc, n in cases] == cold
    assert calls == []
    # the counters count: a new closed-form image is enumerated, still with no polygon built
    rep = xp.verify_linear_map_bound(sq, g.LinearMap2.diagonal(2.0, 1.0), ex.DIRICHLET, 2)
    assert rep.inputs["lhs_method"] == "exact" and calls == ["_smallest"]
    g.apply_map(T, sq)
    assert calls == ["_smallest", "Polygon", "_self_intersects"]


def test_linear_map_bound_rejects_low_symmetry():
    with pytest.raises(ValueError):
        xp.verify_linear_map_bound(g.rectangle(2, 1), g.LinearMap2.identity(), ex.DIRICHLET, 1)


def test_linear_map_bound_rejects_robin():
    with pytest.raises(ValueError):
        xp.verify_linear_map_bound(g.square(1.0), g.LinearMap2.identity(), ex.robin(1.0), 1)


def test_report_json_fields():
    rep = xp.verify_linear_map_bound(g.square(1.0), g.LinearMap2.diagonal(2, 1), ex.DIRICHLET, 1)
    rec = json.loads(rep.to_json())
    assert set(rec) == {"lhs", "rhs", "slack", "tolerance", "holds", "inputs"}
    assert rec["holds"] is True


# ---------------------------------------------------------------------------
# Robin bound and corollary
# ---------------------------------------------------------------------------

def test_robin_bound_identity_equality():
    for sigma in (0.5, 2.0):
        rep = xp.verify_robin_bound(g.square(1.0), g.LinearMap2.identity(), sigma, 2)
        assert rep.holds and abs(rep.slack) <= rep.tolerance
        assert rep.inputs["lhs_method"] == "exact"


def test_robin_bound_square_stretch_tensor_oracle():
    rep = xp.verify_robin_bound(g.square(1.0), g.LinearMap2.diagonal(2, 1), 1.0, 2)
    assert rep.holds
    assert rep.inputs["lhs_method"] == "exact"  # rectangle image: 1D tensor route
    assert rep.inputs["sigma_image"] == pytest.approx(math.sqrt(1.25 / 2.0), rel=1e-12)


def test_robin_bound_sheared_equilateral_fem():
    rep = xp.verify_robin_bound(
        g.equilateral_triangle(), g.LinearMap2(1, 0.5, 0, 1), 0.5, 3, FAST
    )
    assert rep.holds


def test_robin_bound_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        xp.verify_robin_bound(g.square(1.0), g.LinearMap2.identity(), 0.0, 1)


def test_robin_triangle_max_equilateral_max():
    area = g.moments(g.equilateral_triangle()).area
    right = g.Polygon([[0, 0], [1, 0], [0, 1]])
    s = math.sqrt(area / g.moments(right).area)
    right = g.Polygon(right.vertices * s)
    t345 = g.Polygon([[0, 0], [3, 0], [0, 4]])
    s = math.sqrt(area / g.moments(t345).area)
    t345 = g.Polygon(t345.vertices * s)
    out = xp.verify_robin_triangle_max([g.equilateral_triangle(), right, t345], 1.0, 1, FAST)
    assert out[0][1]  # the equilateral entry is maximal
    assert out[0][0] >= max(v for v, _ in out) - 1e-9 * out[0][0]


def test_robin_triangle_max_singleton():
    out = xp.verify_robin_triangle_max([g.equilateral_triangle()], 1.0, 1, FAST)
    assert out[0][1]


def test_robin_triangle_max_sigma_zero_matches_neumann():
    tris = [g.equilateral_triangle()]
    out = xp.verify_robin_triangle_max(tris, 0.0, 2, FAST)
    want = xp.normalized_sum(g.equilateral_triangle(), ex.NEUMANN, 2, "exact")
    assert out[0][0] == pytest.approx(want, rel=1e-12)


def test_robin_triangle_max_flags_by_the_comparison_floor(monkeypatch):
    # zero-error spectra 1.5e-10 apart (relative): wider than the floor of
    # 1e-10 times the larger sum, so only the larger entry is maximal
    area = g.moments(g.equilateral_triangle()).area
    right = g.Polygon([[0, 0], [1, 0], [0, 1]])
    right = g.Polygon(right.vertices * math.sqrt(area / g.moments(right).area))
    tris = [g.equilateral_triangle(), right]
    sums = {id(tris[0]): 100.0, id(tris[1]): 100.0 * (1 - 1.5e-10)}

    def zero_error(d, bc, n, engine="auto", opts=None, T=None):
        return ex.Spectrum([sums[id(d)] / g.functional_factor(d)], "exact")

    monkeypatch.setattr(xp, "spectrum_of", zero_error)
    out = xp.verify_robin_triangle_max(tris, 1.0, 1, FAST)
    assert [flag for _, flag in out] == [True, False]
    assert out[0][0] - out[1][0] == pytest.approx(1.5e-8, rel=1e-3)


def test_robin_triangle_max_rejects_mixed_areas():
    with pytest.raises(ValueError):
        xp.verify_robin_triangle_max([g.equilateral_triangle(1.0), g.equilateral_triangle(2.0)], 1.0, 1)


# ---------------------------------------------------------------------------
# Schrodinger bound
# ---------------------------------------------------------------------------

SMALL_GRID = sch.GridSpec(8.0, 101)


def test_schrodinger_bound_identity():
    rep = xp.verify_schrodinger_bound(sch.harmonic(), 1.0, g.LinearMap2.identity(), 2, SMALL_GRID)
    assert rep.holds and abs(rep.slack) <= rep.tolerance


def test_schrodinger_bound_stretch():
    rep = xp.verify_schrodinger_bound(
        sch.harmonic(), 1.0, g.LinearMap2.diagonal(2, 1), 3, sch.GridSpec(8.0, 201)
    )
    assert rep.holds
    # closed forms: lhs sums sqrt(h'c)(2k+1) levels, rhs sums 2 sqrt(h)(k+1)
    assert rep.rhs == pytest.approx(10.0, rel=1e-3)
    assert rep.lhs == pytest.approx(9.486832980505138, rel=1e-3)


def test_schrodinger_bound_trisym():
    rep = xp.verify_schrodinger_bound(
        sch.trisym(0.2), 1.0, g.LinearMap2.diagonal(1.5, 1 / 1.5), 2, sch.GridSpec(6.0, 101)
    )
    assert rep.holds


# ---------------------------------------------------------------------------
# quadrilateral bound
# ---------------------------------------------------------------------------

def test_quad_bound_identity_equality():
    rep = xp.verify_quad_bound(g.PiecewiseLinearMap(1, 1, 0, 0), ex.DIRICHLET, 2)
    assert rep.holds and abs(rep.slack) <= rep.tolerance


def test_quad_bound_generic_shear():
    rep = xp.verify_quad_bound(g.PiecewiseLinearMap(1, 1, 0.3, -0.2), ex.DIRICHLET, 2, FAST)
    assert rep.holds


def test_quad_bound_consistent_with_moment_identity():
    P = g.PiecewiseLinearMap(1, 1, 0.3, -0.2)
    lhs, rhs = g.quad_hs_combined_check(P, g.diamond_square())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_quad_centroid_variant_reports():
    rep = xp.quad_bound_centroid_variant(g.PiecewiseLinearMap(1, 1, 0.3, -0.2), ex.DIRICHLET, 1, FAST)
    assert rep.inputs["bound"] == "quad_centroid_variant"
    assert math.isfinite(rep.slack)


# ---------------------------------------------------------------------------
# sweeps and scans
# ---------------------------------------------------------------------------

def test_sweep_isosceles_figure_values():
    rows = xp.sweep_isosceles(1, [math.pi / 3, math.pi / 2], ex.DIRICHLET)
    assert rows[0].value == pytest.approx(118.4367, rel=5e-3)
    assert rows[0].value == pytest.approx(12 * PI2, rel=1e-4)
    assert rows[1].value == pytest.approx(111.0348, rel=5e-3)


def test_sweep_isosceles_peak_at_equilateral():
    grid = [math.pi / 3 + 0.15 * k for k in (-2, -1, 0, 1, 2)]
    rows = xp.sweep_isosceles(1, grid, ex.DIRICHLET, FAST)
    values = [r.value for r in rows]
    assert int(np.argmax(values)) == 2


def test_sweep_isosceles_neumann_pair_peak():
    # second Neumann maximizer is also the equilateral
    grid = [math.pi / 3 - 0.25, math.pi / 3, math.pi / 3 + 0.25]
    rows = xp.sweep_isosceles(2, grid, ex.NEUMANN, FAST)
    values = [r.value for r in rows]
    assert int(np.argmax(values)) == 1


def test_sweep_rejects_bad_aperture():
    with pytest.raises(ValueError):
        xp.sweep_isosceles(1, [0.0], ex.DIRICHLET)


def test_disk_vs_square_reference_set():
    assert xp.disk_vs_square(50) == {1, 2, 3, 5, 6, 9, 10, 12}


def test_disk_vs_square_small_cases():
    winners = xp.disk_vs_square(4)
    assert 1 in winners  # 12 pi^2 beats 2 j01^2 pi^2
    assert 4 not in winners


def test_disk_vs_square_scales_each_budget_by_its_own_factor(monkeypatch):
    # at n = 1 the margin is about 4.28; the square's budget 4e-7 scaled by its
    # own A^3/I = 6 stays under 1e-6 of it, scaled by the disk's 2 pi^2 it would not
    rectangle_spectrum, disk_spectrum = xp.rectangle_spectrum, xp.disk_spectrum

    def blurred_square(l1, l2, bc, n):
        spec = rectangle_spectrum(l1, l2, bc, n)
        return ex.Spectrum(spec.values, spec.method, np.full(n, 4e-7))

    def sharp_disk(radius, bc, n):
        return ex.Spectrum(disk_spectrum(radius, bc, n).values, "exact")

    monkeypatch.setattr(xp, "rectangle_spectrum", blurred_square)
    monkeypatch.setattr(xp, "disk_spectrum", sharp_disk)
    assert xp.disk_vs_square(1) == {1}


def test_rectangle_family_72():
    rows = xp.rectangle_sum_family(3, [1.0, 1.2, 1.5])
    for r in rows:
        assert r.value == pytest.approx(72 * PI2, rel=1e-12)


def test_rectangle_family_long_limit():
    row = xp.rectangle_sum_family(3, [10.0])[0]
    assert 36 * PI2 < row.value < 72 * PI2


def test_kroeger_rows():
    kroger, weyl = xp.kroeger_weyl_check("square", 100)
    assert kroger[0].value == 0.0
    assert all(r.value <= 2 * math.pi for r in kroger)
    assert 0.5 < weyl[-1].value < 1.5
    kroger_d, _ = xp.kroeger_weyl_check("disk", 100)
    assert all(r.value <= 2 * math.pi for r in kroger_d)


def test_conjecture_scan_window():
    rows = xp.sweep_isosceles(1, [0.05, math.pi / 3, math.pi / 2], ex.DIRICHLET, fem.FemOptions(max_refinement=6))
    # the published curve interpolates to ~55.85 at aperture 0.05
    assert rows[0].value == pytest.approx(55.85, rel=2e-2)
    assert rows[1].value == pytest.approx(12 * PI2, rel=1e-3)
    assert rows[2].value == pytest.approx(111.0348, rel=5e-3)
    # window check is advisory: all three fall inside the conjectured range
    for r in rows:
        assert 9 * PI2 / 2 - 1.0 < r.value <= 12 * PI2 + 1.0


def test_conjecture_scan_tail_decreases_toward_lower_bound():
    # left tail of the aperture sweep drifts down toward 9 pi^2 / 2
    rows = xp.sweep_isosceles(1, [0.4, 0.2, 0.1], ex.DIRICHLET, fem.FemOptions(max_refinement=6))
    values = [r.value for r in rows]
    assert values[0] > values[1] > values[2] > 9 * PI2 / 2


def test_random_maps_reproducible():
    a = xp.random_invertible_maps(5, seed=123)
    b = xp.random_invertible_maps(5, seed=123)
    assert [m.as_array().tolist() for m in a] == [m.as_array().tolist() for m in b]
    for m in a:
        assert abs(m.det) >= 0.1
        assert np.abs(m.as_array()).max() <= 2.0


def test_csv_contract():
    rows = [xp.SweepRow(1.0, 2.0, "exact", 0.0)]
    text = xp.rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "param,value,method,error"
    assert lines[1].split(",")[1] == "2.00000000000e+00"
