"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete; the full suite stays inside a desk-scale time budget.
"""

import math

import numpy as np

from eigenplane import exact as ex
from eigenplane import experiments as xp
from eigenplane import fem
from eigenplane import geometry as g
from eigenplane import schrodinger as sch

PI2 = math.pi**2
J01 = ex.bessel_zero(ex.BesselZeroRequest(0, 1))
J1P1 = ex.bessel_zero(ex.BesselZeroRequest(1, 1, derivative=True))
SEED = 20260810


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def test_criterion_1_dirichlet_tone_constants():
    errs = []
    errs.append(_rel(xp.normalized_sum(g.equilateral_triangle(), ex.DIRICHLET, 1, "exact"), 12 * PI2))
    for aspect in (1.0, 1.3, 2.0, 5.0):
        errs.append(_rel(xp.normalized_sum(g.rectangle(aspect, 1.0), ex.DIRICHLET, 1, "exact"), 12 * PI2))
    errs.append(
        _rel(xp.normalized_sum(g.Ellipse((0, 0), (1, 1)), ex.DIRICHLET, 1, "exact"), 2 * J01**2 * PI2)
    )
    worst = max(errs)
    _criterion(1, worst <= 1e-9, f"lambda_1 A^3/I constants, worst rel err {worst:.2e} (tol 1e-9)")


def test_criterion_2_neumann_tone_constants():
    errs = [
        _rel(xp.normalized_sum(g.equilateral_triangle(), ex.NEUMANN, 2, "exact"), 4 * PI2),
        _rel(xp.normalized_sum(g.square(1.0), ex.NEUMANN, 2, "exact"), 6 * PI2),
        _rel(xp.normalized_sum(g.Ellipse((0, 0), (1, 1)), ex.NEUMANN, 2, "exact"), 2 * J1P1**2 * PI2),
        _rel(xp.normalized_sum(g.equilateral_triangle(), ex.NEUMANN, 3, "exact"), 8 * PI2),
    ]
    worst = max(errs)
    _criterion(2, worst <= 1e-9, f"Neumann tone constants, worst rel err {worst:.2e} (tol 1e-9)")


def test_criterion_3_disk_vs_square_set():
    got = xp.disk_vs_square(50)
    want = {1, 2, 3, 5, 6, 9, 10, 12}
    _criterion(3, got == want, f"disk_vs_square(50) = {sorted(got)}")


def test_criterion_4_rectangle_family():
    endpoint = math.sqrt(8.0 / 3.0)  # the family's exact right edge, ~1.633
    rows = xp.rectangle_sum_family(3, [1.0, 1.2, 1.5, endpoint])
    worst = max(_rel(r.value, 72 * PI2) for r in rows)
    long_row = xp.rectangle_sum_family(3, [10.0])[0]
    ok = worst <= 1e-9 and 36 * PI2 < long_row.value < 72 * PI2
    _criterion(
        4,
        ok,
        f"72 pi^2 family worst rel err {worst:.2e} (tol 1e-9); aspect 10 -> {long_row.value / PI2:.3f} pi^2",
    )


def test_criterion_5_fem_accuracy():
    opts = fem.FemOptions(max_refinement=5)
    eq = fem.spectrum_fem(g.equilateral_triangle(), ex.DIRICHLET, 10, opts)
    eq_exact = ex.equilateral_spectrum(1.0, ex.DIRICHLET, 10).values
    eq_err = float(np.max(np.abs(eq.values - eq_exact) / eq_exact))

    sq = fem.spectrum_fem(g.square(1.0), ex.DIRICHLET, 1, opts)
    sq_err = _rel(sq.values[0], 2 * PI2)

    lam = {}
    for lev in (3, 4, 5):
        mesh = fem.mesh_domain(g.square(1.0), lev)
        K, M = fem.assemble(mesh, ex.DIRICHLET)
        lam[lev] = fem.solve_eigs(K, M, 1)[0]
    ratio = (lam[3] - lam[4]) / (lam[4] - lam[5])

    ok = eq_err <= 1e-3 and sq_err <= 1e-5 and 3.5 <= ratio <= 4.5
    _criterion(
        5,
        ok,
        f"equilateral 10-eig err {eq_err:.2e} (tol 1e-3), square lambda_1 err {sq_err:.2e} "
        f"(tol 1e-5), convergence ratio {ratio:.2f} (in [3.5, 4.5])",
    )


def test_criterion_6_figure_sweep():
    apertures = [0.5236, 1.0472, 1.5708, 2.0944]
    published = [104.1257, 118.4367, 111.0348, 96.8135]
    rows = xp.sweep_isosceles(1, apertures, ex.DIRICHLET, fem.FemOptions(max_refinement=5))
    errs = [_rel(r.value, p) for r, p in zip(rows, published)]
    worst = max(errs)
    peak = int(np.argmax([r.value for r in rows]))
    nearest = int(np.argmin([abs(a - math.pi / 3) for a in apertures]))
    ok = worst <= 5e-3 and peak == nearest
    _criterion(
        6,
        ok,
        f"published-curve worst rel err {worst:.2e} (tol 5e-3), peak at aperture {apertures[peak]}",
    )


def test_criterion_7_linear_map_matrix():
    opts = fem.FemOptions(max_refinement=4)
    maps = xp.random_invertible_maps(100, seed=SEED)
    domains = [g.equilateral_triangle(), g.square(1.0)]
    checked = 0
    all_hold = True
    for d in domains:
        for bc in (ex.DIRICHLET, ex.NEUMANN):
            for T in maps:
                for n in range(1, 7):
                    rep = xp.verify_linear_map_bound(d, T, bc, n, opts)
                    checked += 1
                    all_hold = all_hold and rep.holds

    rng = np.random.default_rng(SEED + 1)
    eq_ok = True
    for _ in range(10):
        scale = rng.uniform(0.4, 2.5)
        angle = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        flip = 1.0 if rng.uniform() < 0.5 else -1.0
        T = g.LinearMap2.from_array(scale * np.array([[c, -flip * s], [s, flip * c]]))
        d = domains[int(rng.integers(0, 2))]
        rep = xp.verify_linear_map_bound(d, T, ex.DIRICHLET, int(rng.integers(1, 7)), opts)
        eq_ok = eq_ok and abs(rep.slack) <= rep.tolerance
    ok = all_hold and eq_ok
    _criterion(
        7,
        ok,
        f"{checked} seeded linear-map reports all hold; 10 scalar-orthogonal maps within tolerance",
    )


def test_criterion_8_robin_bounds():
    T = g.LinearMap2.diagonal(2, 1)
    worst_slack = math.inf
    all_hold = True
    for sigma in (0.5, 1.0, 2.0):
        for n in range(1, 5):
            rep = xp.verify_robin_bound(g.square(1.0), T, sigma, n)
            all_hold = all_hold and rep.holds and rep.slack >= -1e-6
            worst_slack = min(worst_slack, rep.slack)
            assert rep.inputs["lhs_method"] == "exact"  # 1D tensor route on both sides

    shear = xp.verify_robin_bound(
        g.equilateral_triangle(), g.LinearMap2(1, 0.5, 0, 1), 0.5, 3, fem.FemOptions(max_refinement=4)
    )
    ok = all_hold and shear.holds
    _criterion(
        8,
        ok,
        f"square/stretch Robin tensor route holds (min slack {worst_slack:.3e}, tol 1e-6); "
        f"sheared equilateral FEM holds",
    )


def test_criterion_9_schrodinger():
    grid = sch.GridSpec(8.0, 201)
    base = sch.schrodinger_spectrum(sch.harmonic(), 1.0, 6, grid)
    formula = np.array(sorted(2.0 * (a + b + 1) for a in range(4) for b in range(4))[:6])
    formula_err = float(np.max(np.abs(base.values - formula) / formula))

    ineq_ok = True
    for T in (g.LinearMap2.diagonal(2, 1), g.LinearMap2.diagonal(1.5, 1 / 1.5)):
        wt, hp = sch.transformed_problem(sch.harmonic(), 1.0, T)
        img = sch.schrodinger_spectrum(wt, hp, 6, grid)
        for n in range(1, 7):
            budget = base.error_sum(n) + img.error_sum(n)
            ineq_ok = ineq_ok and img.sum_first(n) <= base.sum_first(n) + budget

    tri = xp.verify_schrodinger_bound(
        sch.trisym(0.2), 1.0, g.LinearMap2.diagonal(1.5, 1 / 1.5), 2, sch.GridSpec(6.0, 201)
    )
    ok = formula_err <= 1e-3 and ineq_ok and tri.holds
    _criterion(
        9,
        ok,
        f"harmonic formula err {formula_err:.2e} (tol 1e-3); stretch inequalities hold n<=6; "
        f"trisym holds (slack {tri.slack:.3e})",
    )


def test_criterion_10_quadrilateral():
    pairs = [(0.3, -0.2), (0.5, 0.5), (0.8, 0.0)]
    opts = fem.FemOptions(max_refinement=4)
    all_hold = True
    worst_identity = 0.0
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        for cp, cm in pairs:
            P = g.PiecewiseLinearMap(a, b, cp, cm)
            for bc in (ex.DIRICHLET, ex.NEUMANN):
                rep = xp.verify_quad_bound(P, bc, 2 if bc.is_dirichlet else 3, opts)
                all_hold = all_hold and rep.holds
            lhs, rhs = g.quad_hs_combined_check(P, g.diamond_square())
            worst_identity = max(worst_identity, abs(lhs - rhs) / abs(rhs))
    ok = all_hold and worst_identity <= 1e-10
    _criterion(
        10,
        ok,
        f"12 quadrilateral reports hold; moment identity worst rel err {worst_identity:.2e} (tol 1e-10)",
    )


def test_criterion_11_property_suites():
    # tight frames: 1e4 seeded cases at 1e-12
    rng = np.random.default_rng(SEED + 2)
    frame_ok = True
    for _ in range(10_000):
        x = rng.uniform(-3, 3, 2)
        y = rng.uniform(-3, 3, 2)
        order = int(rng.integers(3, 13))
        got = g.frame_average(x, y, order)
        want = 0.5 * (x @ x) * (y @ y)
        frame_ok = frame_ok and abs(got - want) <= 1e-12 * (1.0 + (x @ x) * (y @ y))

    # moment identities on square / equilateral / hexagon under random maps
    moment_ok = True
    domains = [g.square(1.0), g.equilateral_triangle(), g.regular_polygon(6)]
    for T in xp.random_invertible_maps(40, seed=SEED + 3):
        for d in domains:
            l1, r1 = g.hs_ratio_check(d, T)
            l2, r2 = g.inverse_image_invariance_check(d, T)
            moment_ok = moment_ok and abs(l1 - r1) <= 1e-10 * abs(r1)
            moment_ok = moment_ok and abs(l2 - r2) <= 1e-10 * abs(r2)

    # Robin monotonicity in sigma on a fixed mesh
    mesh = fem.mesh_domain(g.square(1.0), 3)
    prev = None
    robin_ok = True
    for sigma in (0.0, 0.5, 1.0, 2.0, 8.0):
        bc = ex.robin(sigma) if sigma else ex.NEUMANN
        A, M = fem.assemble(mesh, bc)
        vals = fem.solve_eigs(A, M, 4, neumann_like=(sigma == 0.0))
        if prev is not None:
            robin_ok = robin_ok and bool(np.all(vals >= prev - 1e-11))
        prev = vals

    # the Neumann kernel value is exactly 0
    neumann_ok = True
    for d in (g.square(1.0), g.equilateral_triangle(), g.regular_polygon(6)):
        spec = fem.spectrum_fem(d, ex.NEUMANN, 2, fem.FemOptions(max_refinement=3))
        neumann_ok = neumann_ok and spec.values[0] == spec.error_estimates[0] == 0.0 < spec.values[1]

    # Kroeger bound up to n = 100
    kroger_ok = True
    for shape in ("square", "disk"):
        rows, _ = xp.kroeger_weyl_check(shape, 100)
        kroger_ok = kroger_ok and all(r.value <= 2 * math.pi for r in rows)

    ok = frame_ok and moment_ok and robin_ok and neumann_ok and kroger_ok
    _criterion(
        11,
        ok,
        f"tight frames {frame_ok}, moment lemmas {moment_ok}, Robin monotone {robin_ok}, "
        f"Neumann kernel {neumann_ok}, Kroeger {kroger_ok}",
    )
