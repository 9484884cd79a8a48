import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as splinalg

from eigenplane import experiments as xp
from eigenplane import fem
from eigenplane import geometry as g
from eigenplane import schrodinger as sch

GRID = sch.GridSpec(8.0, 201)
COARSE = sch.GridSpec(8.0, 101)


def oscillator_levels(h, c1, c2, n):
    """Sorted sums sqrt(h*c1)(2a+1) + sqrt(h*c2)(2b+1): the separable spectrum
    of -h*Lap + c1 x1^2 + c2 x2^2."""
    vals = sorted(
        math.sqrt(h * c1) * (2 * a + 1) + math.sqrt(h * c2) * (2 * b + 1)
        for a in range(n + 2)
        for b in range(n + 2)
    )
    return np.array(vals[:n])


# ---------------------------------------------------------------------------
# potential and grid specs
# ---------------------------------------------------------------------------

def test_potential_validation():
    with pytest.raises(ValueError):
        sch.PotentialSpec("power", q=3)
    with pytest.raises(ValueError):
        sch.PotentialSpec("quartic")
    with pytest.raises(ValueError):
        sch.PotentialSpec("trisym", beta=2.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        sch.GridSpec(8.0, 200)  # even
    with pytest.raises(ValueError):
        sch.GridSpec(-1.0, 201)


def test_oversized_grids_are_refused_before_any_work():
    assert sch.GridSpec(8.0, sch.MAX_GRID_POINTS).points_per_side == sch.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="more than"):
        sch.GridSpec(8.0, sch.MAX_GRID_POINTS + 2)


def test_symmetry_orders():
    assert sch.harmonic().symmetry_order() == g.INFINITE_ORDER
    assert sch.power_radial(4).symmetry_order() == g.INFINITE_ORDER
    assert sch.trisym(0.2).symmetry_order() == 3


def test_trisym_values():
    W = sch.trisym(0.5)
    x1, x2 = np.array([1.0]), np.array([0.0])
    # |x|^4 + beta*Re((x1+ix2)^3) at (1,0) is 1 + beta
    assert W.values(x1, x2)[0] == pytest.approx(1.5, rel=1e-14)


def test_pushforward_evaluation():
    W = sch.PotentialSpec("harmonic", pushforward=g.LinearMap2.diagonal(2.0, 1.0))
    # W o T^-1 at (2, 0) is |(1, 0)|^2 = 1
    assert W.values(np.array([2.0]), np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def test_harmonic_ground_state():
    spec = sch.schrodinger_spectrum(sch.harmonic(), 1.0, 1, GRID)
    assert spec.method == "fd"
    assert spec.values[0] == pytest.approx(2.0, rel=1e-3)


def test_harmonic_degenerate_triple():
    spec = sch.schrodinger_spectrum(sch.harmonic(), 1.0, 3, GRID)
    np.testing.assert_allclose(spec.values, [2.0, 4.0, 4.0], rtol=1e-3)


def test_harmonic_planck_scaling():
    spec = sch.schrodinger_spectrum(sch.harmonic(), 4.0, 1, GRID)
    assert spec.values[0] == pytest.approx(4.0, rel=1e-3)


def test_error_estimates_cover_truth():
    spec = sch.schrodinger_spectrum(sch.harmonic(), 1.0, 3, GRID)
    truth = np.array([2.0, 4.0, 4.0])
    assert np.all(np.abs(spec.values - truth) <= 2.0 * spec.error_estimates)


def test_grid_convergence_second_order():
    e_c = sch.schrodinger_spectrum(sch.harmonic(), 1.0, 1, COARSE).values[0]
    e_f = sch.schrodinger_spectrum(sch.harmonic(), 1.0, 1, GRID).values[0]
    ratio = (e_c - 2.0) / (e_f - 2.0)
    assert 3.0 <= ratio <= 5.0


def test_widen_grid_error():
    with pytest.raises(sch.WidenGridError) as err:
        sch.schrodinger_spectrum(sch.harmonic(), 1.0, 4, sch.GridSpec(1.0, 51))
    assert err.value.suggested_half_width > 1.0


# ---------------------------------------------------------------------------
# transformed problems
# ---------------------------------------------------------------------------

def test_transformed_identity():
    W, hp = sch.transformed_problem(sch.harmonic(), 1.7, g.LinearMap2.identity())
    assert hp == pytest.approx(1.7, rel=1e-14)


def test_transformed_planck_constant():
    _, hp = sch.transformed_problem(sch.harmonic(), 1.0, g.LinearMap2.diagonal(2, 1))
    assert hp == pytest.approx(1.6, rel=1e-14)


def test_transformed_rejects_singular():
    with pytest.raises(ValueError):
        sch.transformed_problem(sch.harmonic(), 1.0, g.LinearMap2(1, 1, 1, 1))


def test_rotation_leaves_problem_invariant():
    T = g.rotation(5, 1)
    W, hp = sch.transformed_problem(sch.harmonic(), 1.0, T)
    assert hp == pytest.approx(1.0, rel=1e-12)
    base = sch.schrodinger_spectrum(sch.harmonic(), 1.0, 3, COARSE)
    rot = sch.schrodinger_spectrum(W, hp, 3, COARSE)
    np.testing.assert_allclose(rot.values, base.values, rtol=1e-10)


def test_transformed_matches_separable_oracle():
    # T = diag(2,1): pushforward potential (x1/2)^2 + x2^2 with h' = 1.6
    W, hp = sch.transformed_problem(sch.harmonic(), 1.0, g.LinearMap2.diagonal(2, 1))
    spec = sch.schrodinger_spectrum(W, hp, 4, GRID)
    oracle = oscillator_levels(hp, 0.25, 1.0, 4)
    np.testing.assert_allclose(spec.values, oracle, rtol=1e-3)


def test_scalar_orthogonal_equality_within_budget():
    T = g.LinearMap2.from_array(1.3 * g.rotation(7, 2).as_array())
    W, hp = sch.transformed_problem(sch.harmonic(), 1.0, T)
    base = sch.schrodinger_spectrum(sch.harmonic(), 1.0, 4, COARSE)
    img = sch.schrodinger_spectrum(W, hp, 4, COARSE)
    budget = 2.0 * (base.error_estimates + img.error_estimates)
    assert np.all(np.abs(base.values - img.values) <= budget)


def test_sum_inequality_for_stretches():
    base = sch.schrodinger_spectrum(sch.harmonic(), 1.0, 6, GRID)
    for r in (1.5, 2.0):
        T = g.LinearMap2.diagonal(r, 1.0 / r)
        W, hp = sch.transformed_problem(sch.harmonic(), 1.0, T)
        img = sch.schrodinger_spectrum(W, hp, 6, GRID)
        for n in range(1, 7):
            budget = base.error_sum(n) + img.error_sum(n)
            assert img.sum_first(n) <= base.sum_first(n) + budget


def test_composed_pushforward():
    T1 = g.LinearMap2.diagonal(2, 1)
    T2 = g.rotation(4, 1)
    W1, h1 = sch.transformed_problem(sch.harmonic(), 1.0, T1)
    W2, h2 = sch.transformed_problem(W1, h1, T2)
    combined = (T2 @ T1).as_array()
    np.testing.assert_allclose(W2.pushforward.as_array(), combined, atol=1e-15)


# ---------------------------------------------------------------------------
# the eigenvalue memo: each grid operator pair is solved once per ladder
# ---------------------------------------------------------------------------

MEMO_GRID = sch.GridSpec(6.0, 51)
#: The harmonic potential pushed through a fifth of a turn: |x|^2 up to roundoff, with the near-clusters
#: 4, 4 and 6, 6, 6, but not axis-aligned, so its grids are solved by the Lanczos ladder.
TURNED_HARMONIC = sch.PotentialSpec("harmonic", pushforward=g.rotation(5, 1))


def _count_eigsh(monkeypatch, memo_bytes=fem.VALUE_CACHE_BYTES):
    """A fresh memo of memo_bytes, and a record of every grid solved from here on.

    The record holds the unknowns of each eigsh call, the Lanczos ladder's solve of a grid, and
    ("kronecker sum", unknowns) for each grid of an axis-aligned quadratic potential.
    """
    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(memo_bytes))
    calls = []
    eigsh, kronecker_sum_eigs = splinalg.eigsh, sch._kronecker_sum_eigs

    def counted(A, *args, **kwargs):
        calls.append(A.shape[0])
        return eigsh(A, *args, **kwargs)

    def counted_sum(c1, c2, h, L, points, b):
        calls.append(("kronecker sum", (points - 2) ** 2))
        return kronecker_sum_eigs(c1, c2, h, L, points, b)

    monkeypatch.setattr(splinalg, "eigsh", counted)
    monkeypatch.setattr(sch, "_kronecker_sum_eigs", counted_sum)
    return calls


@pytest.mark.parametrize("W", [TURNED_HARMONIC, sch.power_radial(4), sch.trisym(0.2)], ids=lambda W: W.kind)
def test_fd_memo_hit_equals_cold_solve_bit_for_bit(W, monkeypatch):
    calls = _count_eigsh(monkeypatch)
    cold = sch._ladder(W, 1.3, 3, 6.0, 51)
    hit = sch._ladder(W, 1.3, 3, 6.0, 51)
    assert calls == [24 * 24, 49 * 49]  # the coarse grid, then the fine one
    assert cold.shape == (2, fem.BLOCK) and np.array_equal(hit, cold)
    hit[0] = -1.0  # callers own what they get back
    assert np.array_equal(sch._ladder(W, 1.3, 3, 6.0, 51), cold)
    for n in range(2, fem.BLOCK + 1):  # another n within the block reads the same entry
        assert np.array_equal(sch._ladder(W, 1.3, n, 6.0, 51), cold)
    assert len(calls) == 2
    sch._ladder(W, 1.3, 1, 6.0, 51)  # a lone n = 1 is a block of its own
    sch._ladder(W, 1.4, 3, 6.0, 51)  # another operator
    assert len(calls) == 6


def test_schrodinger_right_hand_side_is_solved_once_over_three_maps(monkeypatch):
    maps = [g.LinearMap2.diagonal(1.2, 0.9), g.LinearMap2(1.1, 0.3, 0.0, 0.95), g.rotation(5, 1)]
    calls = _count_eigsh(monkeypatch)
    reports = [xp.verify_schrodinger_bound(sch.power_radial(4), 1.0, T, 2, MEMO_GRID) for T in maps]
    assert len(calls) == 2 + 2 * len(maps)  # the right-hand side's two grids, once
    calls = _count_eigsh(monkeypatch, memo_bytes=0)  # a memo that keeps nothing
    cold = [xp.verify_schrodinger_bound(sch.power_radial(4), 1.0, T, 2, MEMO_GRID) for T in maps]
    assert len(calls) == 4 * len(maps)
    assert [r.to_json() for r in reports] == [r.to_json() for r in cold]


def test_quarter_turn_reuses_the_right_hand_side(monkeypatch):
    calls = _count_eigsh(monkeypatch)
    rep = xp.verify_schrodinger_bound(sch.power_radial(4), 1.0, g.LinearMap2(0.0, -1.0, 1.0, 0.0), 2, MEMO_GRID)
    # W o T^-1 = W on the grid bit for bit and h' = h, so both sides are one operator
    assert len(calls) == 2
    assert rep.lhs == rep.rhs and rep.holds


def test_trisym_reflection_reuses_the_right_hand_side(monkeypatch):
    # x1^3 - 3 x1 x2^2 is even in x2: under diag(1, -1) trisym's grid operators are the unmapped ones
    W = sch.trisym(0.2)
    WR, hR = sch.transformed_problem(W, 1.0, REFLECTION)
    assert hR == 1.0 and sch._pullback(WR)[0] is None
    for p in (51, 101, 201):
        K, K0 = sch._grid_operator(WR, 1.0, 6.0, p), sch._grid_operator(W, 1.0, 6.0, p)
        for name in ("data", "indices", "indptr"):
            assert getattr(K, name).tobytes() == getattr(K0, name).tobytes(), (p, name)
    # every other signed permutation moves trisym's values, and keeps its map in the key
    others = [P for P in SIGNED_PERMUTATIONS if P != REFLECTION]
    assert all(sch._pullback(sch.transformed_problem(W, 1.0, P)[0])[0] is not None for P in others)
    calls = _count_eigsh(monkeypatch)
    rep = xp.verify_schrodinger_bound(W, 1.0, REFLECTION, 2, MEMO_GRID)
    assert len(calls) == 2  # one ladder, coarse grid then fine, serves both sides
    assert rep.lhs == rep.rhs and rep.holds
    _count_eigsh(monkeypatch, memo_bytes=0)  # a memo that keeps nothing: the reflected operator solved cold
    cold, unmapped = sch.schrodinger_spectrum(WR, 1.0, 2, MEMO_GRID), sch.schrodinger_spectrum(W, 1.0, 2, MEMO_GRID)
    assert cold.values.tobytes() == unmapped.values.tobytes()
    assert cold.error_estimates.tobytes() == unmapped.error_estimates.tobytes()


def test_fd_failures_are_not_memoized(monkeypatch):
    calls = _count_eigsh(monkeypatch)

    def fail(A, *args, **kwargs):
        calls.append(A.shape[0])
        raise RuntimeError("no convergence")

    monkeypatch.setattr(splinalg, "eigsh", fail)
    for _ in range(2):
        with pytest.raises(sch.SolverFailure, match="grid eigensolve failed"):
            sch._ladder(sch.power_radial(4), 1.0, 2, 6.0, 51)
    assert len(calls) == 2 and len(fem._VALUES._entries) == 0


def test_a_memo_hit_builds_no_grid_operator(monkeypatch):
    calls = _count_eigsh(monkeypatch)
    W, h = MAPPED_TRISYM
    cold = sch.schrodinger_spectrum(W, h, 3, MEMO_GRID)
    built = []
    grid_operator = sch._grid_operator
    monkeypatch.setattr(sch, "_grid_operator", lambda *args: built.append(args[-1]) or grid_operator(*args))
    hit = sch.schrodinger_spectrum(W, h, 3, MEMO_GRID)
    assert built == [] and len(calls) == 2
    assert np.array_equal(hit.values, cold.values) and np.array_equal(hit.error_estimates, cold.error_estimates)


#: The seven signed permutations other than the identity: each negates or swaps the coordinates.
SIGNED_PERMUTATIONS = [g.LinearMap2(*m) for m in ((-1, 0, 0, 1), (1, 0, 0, -1), (-1, 0, 0, -1),
                                                  (0, 1, 1, 0), (0, -1, 1, 0), (0, 1, -1, 0), (0, -1, -1, 0))]
QUARTER_TURN = g.LinearMap2(0.0, -1.0, 1.0, 0.0)
REFLECTION = g.LinearMap2(1.0, 0.0, 0.0, -1.0)
# the harmonic permutations share the unmapped harmonic's Kronecker-sum solve, the power ones its Lanczos ladder
LADDER_CASES = {  # (base potential, potential, h, L, points, whether it shares the base's ladder)
    **{f"{W.kind}-permutation-{i}": (W, sch.transformed_problem(W, 1.0, P)[0], 1.0, 6.0, 51, True)
       for W in (sch.harmonic(), sch.power_radial(4)) for i, P in enumerate(SIGNED_PERMUTATIONS)},
    "trisym-quarter-turn": (sch.trisym(0.2), sch.transformed_problem(sch.trisym(0.2), 1.0, QUARTER_TURN)[0],
                            1.0, 6.0, 51, False),
    "beta": (sch.trisym(0.2), sch.trisym(0.3), 1.0, 6.0, 51, False),
    "q": (sch.power_radial(4), sch.power_radial(6), 1.0, 6.0, 51, False),
    "h": (sch.power_radial(4), sch.power_radial(4), 1.1, 6.0, 51, False),
    "L": (sch.power_radial(4), sch.power_radial(4), 1.0, 6.5, 51, False),
    "points": (sch.power_radial(4), sch.power_radial(4), 1.0, 6.0, 53, False),
}


@pytest.mark.parametrize("case", list(LADDER_CASES))
def test_ladders_are_keyed_by_what_builds_their_operators(case, monkeypatch):
    base, W, h, L, points, shared = LADDER_CASES[case]
    calls = _count_eigsh(monkeypatch)
    cold = sch._ladder(base, 1.0, 2, 6.0, 51)
    built = []
    grid_operator = sch._grid_operator
    monkeypatch.setattr(sch, "_grid_operator", lambda *args: built.append(args[-1]) or grid_operator(*args))
    got = sch._ladder(W, h, 2, L, points)
    if not shared:  # another operator: a new ladder, coarse grid then fine
        assert built == [points, (points + 1) // 2] and len(calls) == 4
        return
    # h' = h, and both grids' operators equal the unmapped ones byte for byte, so one ladder serves both
    assert sch.transformed_problem(base, 1.0, W.pushforward)[1] == 1.0
    for p in (51, 26):
        K, K0 = grid_operator(W, 1.0, 6.0, p), grid_operator(base, 1.0, 6.0, p)
        for name in ("data", "indices", "indptr"):
            assert getattr(K, name).tobytes() == getattr(K0, name).tobytes(), (p, name)
    assert built == [] and len(calls) == 2 and np.array_equal(got, cold)


# ---------------------------------------------------------------------------
# the solve ladder: a minimum-degree symmetric factor handed to eigsh, the
# coarse grid's eigenvectors starting the fine Lanczos, every pair residual-checked
# ---------------------------------------------------------------------------

MAPPED_TRISYM = sch.transformed_problem(sch.trisym(0.2), 1.0, g.LinearMap2(2.0, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("points", [51, 101, 201])
@pytest.mark.parametrize(
    "W, h", [(TURNED_HARMONIC, 1.0), (sch.power_radial(4), 1.0), MAPPED_TRISYM],
    ids=["harmonic", "power", "mapped-trisym"],
)
def test_fd_values_match_a_plain_shift_invert_eigsh(W, h, points, monkeypatch):
    # the turned harmonic's near-clusters 4, 4 and 6, 6, 6 would show a value the warm start missed
    operators = []
    eigsh = splinalg.eigsh

    def keep(A, *args, **kwargs):
        operators.append(A)
        return eigsh(A, *args, **kwargs)

    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))
    monkeypatch.setattr(splinalg, "eigsh", keep)
    plain = {}
    for n in range(1, fem.BLOCK + 1):
        got = sch._ladder(W, h, n, 8.0, points)
        for row, K in enumerate(operators[:-3:-1]):  # the fine grid's operator, then the coarse one's
            b = got.shape[1]
            if (id(K), b) not in plain:  # eigsh's own factor: splu with its default COLAMD ordering
                v0 = np.random.default_rng(1).standard_normal(K.shape[0])
                plain[id(K), b] = np.sort(eigsh(K, k=b, sigma=0.0, v0=v0, return_eigenvectors=False))
            np.testing.assert_allclose(got[row, :n], plain[id(K), b][:n], rtol=1e-12, atol=0.0)
    assert len(operators) == 4  # n = 1, then one block for n = 2..6


def test_fd_factor_keeps_its_fill_small(monkeypatch):
    factors = []
    splu = splinalg.splu

    def keep(A, *args, **kwargs):
        factors.append(splu(A, *args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))
    monkeypatch.setattr(splinalg, "splu", keep)
    sch._ladder(sch.power_radial(4), 1.0, 1, 8.0, 101)
    # 364 676 stored entries with the minimum-degree ordering, 666 448 with COLAMD
    assert [f.shape[0] for f in factors] == [49 * 49, 99 * 99]
    assert factors[-1].L.nnz + factors[-1].U.nnz < 450_000


def test_one_factorization_per_grid_serves_n_2_to_6(monkeypatch):
    shapes = []
    splu = splinalg.splu

    def counted(A, *args, **kwargs):
        shapes.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))
    monkeypatch.setattr(splinalg, "splu", counted)
    W, h = MAPPED_TRISYM
    spectra = [sch.schrodinger_spectrum(W, h, n, MEMO_GRID) for n in range(2, fem.BLOCK + 1)]
    assert shapes == [24 * 24, 49 * 49]
    for s in spectra:
        np.testing.assert_array_equal(s.values, spectra[-1].values[: len(s.values)])


def test_the_coarse_modes_start_the_fine_lanczos(monkeypatch):
    runs = []
    eigsh = splinalg.eigsh

    def keep(A, *args, **kwargs):
        vals, vecs = eigsh(A, *args, **kwargs)
        runs.append((kwargs["v0"] / np.linalg.norm(kwargs["v0"]), vecs))
        return vals, vecs

    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))
    monkeypatch.setattr(splinalg, "eigsh", keep)
    sch._ladder(sch.power_radial(4), 1.0, 4, 8.0, 101)
    (coarse_start, coarse_vecs), (fine_start, fine_vecs) = runs
    assert fine_start.size == 99 * 99

    def outside(v, V):  # the part of the unit start vector outside the block it converged to
        return np.linalg.norm(v - V @ (V.T @ v))

    assert outside(fine_start, fine_vecs) < 0.05
    assert outside(coarse_start, coarse_vecs) > 0.9  # a random start is nowhere near it


def test_coarse_grid_functions_interpolate_bilinearly_onto_the_nested_grid():
    L, points = 8.0, 101
    tent = lambda x: L - np.abs(x)  # linear between coarse points: 0 is coarse point 25
    xf = np.linspace(-L, L, points)[1:-1]
    xc = np.linspace(-L, L, (points + 1) // 2)[1:-1]
    coarse = np.stack([np.outer(tent(xc), tent(xc)), np.outer(xc * tent(xc), tent(xc))])
    fine = sch._interpolate(coarse)
    assert fine.shape == (2, points - 2, points - 2)
    np.testing.assert_allclose(fine[0], np.outer(tent(xf), tent(xf)), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(fine[:, 1::2, 1::2], coarse)  # coarse point j is fine point 2j


@pytest.mark.parametrize("unknowns", [24 * 24, 49 * 49], ids=["coarse", "fine"])
def test_a_wrong_grid_eigenvalue_fails_the_residual_check(unknowns, monkeypatch):
    eigsh = splinalg.eigsh

    def perturbed(A, *args, **kwargs):
        vals, vecs = eigsh(A, *args, **kwargs)
        if A.shape[0] == unknowns:
            vals = vals.copy()
            vals[-1] *= 1.0 + 1e-6
        return vals, vecs

    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))
    monkeypatch.setattr(splinalg, "eigsh", perturbed)
    with pytest.raises(sch.SolverFailure, match="residual .* exceeds"):
        sch.schrodinger_spectrum(sch.power_radial(4), 1.0, 2, MEMO_GRID)
    assert len(fem._VALUES._entries) == 0


# ---------------------------------------------------------------------------
# axis-aligned quadratic potentials: each grid operator is a Kronecker sum of
# two tridiagonal 1-D operators, solved by dense eigh and the exact heap
# ---------------------------------------------------------------------------

AXIS_ALIGNED_MAPS = {
    "unmapped": None,
    "diag(1.3,0.8)": g.LinearMap2.diagonal(1.3, 0.8),
    "diag(-2,1)": g.LinearMap2.diagonal(-2.0, 1.0),
    "anti-diagonal": g.LinearMap2(0.0, 2.0, 1.0, 0.0),
}


def _harmonic_image(T):
    return (sch.harmonic(), 1.0) if T is None else sch.transformed_problem(sch.harmonic(), 1.0, T)


def test_only_axis_aligned_quadratic_potentials_are_solved_as_kronecker_sums():
    x = np.linspace(-8.0, 8.0, 51)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    separable = [sch.power_radial(2)] + [_harmonic_image(T)[0] for T in AXIS_ALIGNED_MAPS.values()]
    separable += [sch.transformed_problem(sch.harmonic(), 1.0, P)[0] for P in SIGNED_PERMUTATIONS]
    for W in separable:  # W's grid values are (c1 x1)^2 + (c2 x2)^2 bit for bit
        c1, c2 = sch._pullback(W)[1]
        assert np.array_equal(W.values(X1, X2), (c1 * X1) ** 2 + (c2 * X2) ** 2)
    assert sch._pullback(_harmonic_image(AXIS_ALIGNED_MAPS["anti-diagonal"])[0])[1] == (0.5, 1.0)
    shear = sch.transformed_problem(sch.harmonic(), 1.0, g.LinearMap2(1.1, 0.3, 0.0, 0.95))[0]
    for W in (sch.power_radial(4), sch.trisym(0.2), sch.trisym(0.0), shear, TURNED_HARMONIC,
              sch.transformed_problem(sch.power_radial(4), 1.0, g.LinearMap2.diagonal(2.0, 1.0))[0]):
        assert sch._pullback(W)[1] is None


def _separate_axes(W):
    """The route rule as two readings of W's map had it: (c1, c2) for W's grid values (c1 x1)^2 + (c2 x2)^2, or None."""
    if not (W.kind == "harmonic" or W.kind == "power" and W.q == 2):
        return None
    if W.pushforward is None:
        return 1.0, 1.0
    (a, b), (c, d) = W.pushforward.inverse().as_array()
    if b == 0.0 and c == 0.0:
        return abs(a), abs(d)
    if a == 0.0 and d == 0.0:
        return abs(c), abs(b)
    return None


def _separate_inverse_key(W):
    """The memo-key rule as two readings of W's map had it: the inverse's bytes, or None for the unmapped values."""
    if W.pushforward is None:
        return None
    inv = W.pushforward.inverse().as_array()
    if W.kind == "trisym":
        unmapped = np.array_equal(inv, np.diag([1.0, -1.0]))
    else:
        unmapped = any(np.array_equal(np.abs(inv), P) for P in (np.eye(2), np.eye(2)[::-1]))
    return None if unmapped else inv.tobytes()


def _pullback_maps():
    """Seeded maps, and the maps whose zeros decide route and key: signed permutations, diagonal and anti-diagonal
    maps with every sign of every zero, diag(1, -1) and maps with one zero entry."""
    rng = np.random.default_rng(89)
    maps = [None, REFLECTION, *SIGNED_PERMUTATIONS]
    maps += [g.LinearMap2.from_array(m) for m in rng.uniform(-3.0, 3.0, size=(200, 2, 2))]
    for zeros in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)):
        for a, b in rng.uniform(0.2, 3.0, size=(8, 2)) * rng.choice([-1.0, 1.0], size=(8, 2)):
            maps += [g.LinearMap2(a, zeros[0], zeros[1], b), g.LinearMap2(zeros[0], a, b, zeros[1])]
        maps += [g.LinearMap2(1.0, zeros[0], zeros[1], -1.0), g.LinearMap2(zeros[0], 1.0, -1.0, zeros[1])]
    for i in range(4):  # one zero entry: neither diagonal nor anti-diagonal
        for m in rng.uniform(0.5, 2.0, size=(8, 4)):
            m[i] = (0.0, -0.0)[i % 2]
            maps.append(g.LinearMap2(*m))
    return [T for T in maps if T is None or not T.is_singular()]


def test_one_reading_of_the_map_gives_the_separate_readings_key_and_route():
    potentials = [sch.harmonic(), sch.power_radial(2), sch.power_radial(4), sch.trisym(0.2), sch.trisym(0.0)]
    maps, pairs = _pullback_maps(), 0
    for base in potentials:
        for T in maps:
            for W in ([base] if T is None else [sch.PotentialSpec(base.kind, base.q, base.beta, T),
                                                sch.transformed_problem(base, 1.0, T)[0]]):
                key, axes = sch._pullback(W)
                assert key == _separate_inverse_key(W) and axes == _separate_axes(W), (W, T)
                assert axes is None or all(type(c) is type(w) for c, w in zip(axes, _separate_axes(W)))
                pairs += 1
    assert pairs > 2500
    routes = {sch._pullback(sch.PotentialSpec("harmonic", pushforward=T))[1] is not None for T in maps}
    keys = {sch._pullback(sch.PotentialSpec("trisym", beta=0.2, pushforward=T))[0] is None for T in maps}
    assert routes == keys == {True, False}  # both rules take both branches over these maps


@pytest.mark.parametrize("points", [51, 101, 201])
@pytest.mark.parametrize("T", list(AXIS_ALIGNED_MAPS.values()), ids=list(AXIS_ALIGNED_MAPS))
def test_kronecker_sum_blocks_match_a_plain_shift_invert_eigsh(T, points, monkeypatch):
    W, h = _harmonic_image(T)
    calls = _count_eigsh(monkeypatch)
    got = sch._ladder(W, h, 3, 8.0, points)
    coarse_points = (points + 1) // 2
    # both grids as Kronecker sums: no sparse factor, no Lanczos
    assert calls == [("kronecker sum", (points - 2) ** 2), ("kronecker sum", (coarse_points - 2) ** 2)]
    for row, p in enumerate((points, coarse_points)):
        K = sch._grid_operator(W, h, 8.0, p)
        v0 = np.random.default_rng(1).standard_normal(K.shape[0])
        plain = np.sort(splinalg.eigsh(K, k=fem.BLOCK, sigma=0.0, v0=v0, return_eigenvectors=False))
        np.testing.assert_allclose(got[row], plain, rtol=1e-12, atol=0.0)


def test_the_unmapped_harmonic_block_has_exact_multiplicities(monkeypatch):
    _count_eigsh(monkeypatch)
    for row in sch._ladder(sch.harmonic(), 1.0, fem.BLOCK, 8.0, 201):
        # 2 a0, then a0 + a1 = a1 + a0 and a0 + a2 = a2 + a0 to the bit; the five-point operator splits 2 a1 off
        _, counts = np.unique(row, return_counts=True)
        assert counts.tolist() == [1, 2, 2, 1]


def test_the_largest_n_the_block_rule_admits_is_served_and_the_next_is_refused(monkeypatch):
    calls = _count_eigsh(monkeypatch)
    most = 24 * 24 - 1  # below the coarse grid's unknowns
    fine, coarse = sch._ladder(sch.harmonic(), 1.0, most, 6.0, 51)
    assert len(calls) == 2 and fine.shape == coarse.shape == (most,)
    xi = np.linspace(-6.0, 6.0, 26)[1:-1]
    dx = xi[1] - xi[0]
    A = (2.0 * np.eye(24) - np.eye(24, k=1) - np.eye(24, k=-1)) / dx**2 + np.diag(xi**2)
    a = np.linalg.eigvalsh(A)
    np.testing.assert_allclose(coarse, np.sort(np.add.outer(a, a).ravel())[:most], rtol=1e-13)
    assert np.all(np.diff(fine) >= 0) and np.all(np.isfinite(fine))
    with pytest.raises(ValueError, match=f"need 1 <= n <= {most}"):
        sch._ladder(sch.harmonic(), 1.0, most + 1, 6.0, 51)
    assert len(calls) == 2


@pytest.mark.parametrize("side", [24, 49], ids=["coarse", "fine"])
def test_a_wrong_1d_eigenvalue_fails_the_residual_check(side, monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(A):
        vals, vecs = eigh(A)
        if A.shape[0] == side:
            vals = vals.copy()
            vals[-1] *= 1.0 + 1e-6  # a pair no block of n = 2 reads: every pair is checked
        return vals, vecs

    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))
    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(sch.SolverFailure, match="residual .* exceeds"):
        sch.schrodinger_spectrum(sch.harmonic(), 1.0, 2, MEMO_GRID)
    assert len(fem._VALUES._entries) == 0


@pytest.mark.parametrize("h, L", [(1e308, 6.0), (1.0, 1e200), (1.0, 1e-200)], ids=["h", "wide-box", "narrow-box"])
def test_a_1d_operator_out_of_range_is_refused_before_its_eigensolve(h, L, monkeypatch):
    calls = _count_eigsh(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # one typed failure, no numpy warning on the way
        with pytest.raises(sch.SolverFailure, match="operator is not finite"):
            sch._ladder(sch.harmonic(), h, 2, L, 51)
    assert len(calls) == 1 and len(fem._VALUES._entries) == 0  # the fine grid failed, the coarse was never tried
