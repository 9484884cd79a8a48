import math
import re

import numpy as np
import pytest
from scipy.linalg import eigh

from eigenplane import exact as ex

PI2 = math.pi**2


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def _series_J(m, x, terms=70):
    # plain power series of J_m, accurate for the argument range used here
    s = 0.0
    half = x / 2.0
    for k in range(terms):
        c = (-1) ** k / (math.factorial(k) * math.factorial(k + m))
        s += c * half ** (2 * k + m)
    return s


def _series_Jp(m, x):
    if m == 0:
        return -_series_J(1, x)
    return 0.5 * (_series_J(m - 1, x) - _series_J(m + 1, x))


def _bisect(f, a, b, iters=200):
    fa = f(a)
    assert fa * f(b) < 0
    for _ in range(iters):
        c = 0.5 * (a + b)
        if fa * f(c) <= 0:
            b = c
        else:
            a, fa = c, f(c)
    return 0.5 * (a + b)


def _robin_fd_oracle(l, sigma, count, n):
    # second-order FD with ghost-point Robin rows; trapezoid weights make the
    # generalized problem symmetric
    h = l / (n - 1)
    A = np.zeros((n, n))
    for i in range(1, n - 1):
        A[i, i - 1] = A[i, i + 1] = -1.0
        A[i, i] = 2.0
    A[0, 0] = A[n - 1, n - 1] = 2.0 + 2.0 * h * sigma
    A[0, 1] = A[n - 1, n - 2] = -2.0
    A /= h * h
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    K = np.diag(w) @ A
    vals = eigh((K + K.T) / 2, np.diag(w), eigvals_only=True)
    return np.sort(vals)[:count]


# values frozen from the oracles above
J01 = 2.404825557695773
J02 = 5.520078110286311
J1P1 = 1.841183781340659
ROBIN_L1_S1 = 1.7070529755509227  # first root of tan(w) = 2w/(w^2-1), squared


def test_oracle_reproduces_frozen_bessel_zeros():
    assert _bisect(lambda x: _series_J(0, x), 2, 3) == pytest.approx(J01, abs=1e-12)
    assert _bisect(lambda x: _series_J(0, x), 5, 6) == pytest.approx(J02, abs=1e-11)
    assert _bisect(lambda x: _series_Jp(1, x), 1, 2.5) == pytest.approx(J1P1, abs=1e-12)


def test_oracle_reproduces_frozen_robin_root():
    coarse = _robin_fd_oracle(1.0, 1.0, 1, 801)[0]
    fine = _robin_fd_oracle(1.0, 1.0, 1, 1601)[0]
    richardson = (4 * fine - coarse) / 3
    assert richardson == pytest.approx(ROBIN_L1_S1, abs=1e-7)


# ---------------------------------------------------------------------------
# bessel_zero
# ---------------------------------------------------------------------------

def test_bessel_zero_examples():
    assert ex.bessel_zero(ex.BesselZeroRequest(0, 1)) == pytest.approx(J01, abs=1e-12)
    assert ex.bessel_zero(ex.BesselZeroRequest(0, 2)) == pytest.approx(J02, abs=1e-12)
    assert ex.bessel_zero(ex.BesselZeroRequest(1, 1, derivative=True)) == pytest.approx(J1P1, abs=1e-12)


def test_bessel_zero_against_series_oracle_grid():
    for m in range(0, 5):
        for p in range(1, 4):
            z = ex.bessel_zero(ex.BesselZeroRequest(m, p))
            assert abs(_series_J(m, z)) < 1e-11
            zp = ex.bessel_zero(ex.BesselZeroRequest(m, p, derivative=True))
            assert abs(_series_Jp(m, zp)) < 1e-11


def test_bessel_zeros_interlace():
    for m in range(0, 6):
        jm = [ex.bessel_zero(ex.BesselZeroRequest(m, p)) for p in range(1, 6)]
        jm1 = [ex.bessel_zero(ex.BesselZeroRequest(m + 1, p)) for p in range(1, 6)]
        for p in range(4):
            assert jm[p] < jm1[p] < jm[p + 1]


def test_bessel_zero_rejects_bad_request():
    with pytest.raises(ValueError):
        ex.BesselZeroRequest(-1, 1)
    with pytest.raises(ValueError):
        ex.BesselZeroRequest(0, 0)


def _assert_tables_sorted(tables):
    for key, zeros in tables.items():
        assert all(a < b for a, b in zip(zeros, zeros[1:])), key  # increasing, no duplicates


def _start_empty(monkeypatch):
    """Let the next _zero call start from an empty table instead of the shipped snapshot."""
    monkeypatch.setattr(ex, "_ZEROS", None)
    monkeypatch.setattr(ex, "_load_snapshot", dict)


def test_each_bessel_zero_is_solved_once(monkeypatch):
    calls = []
    brentq = ex._brentq

    def counting(f, a, b, **kw):
        calls.append((a, b))
        return brentq(f, a, b, **kw)

    _start_empty(monkeypatch)
    monkeypatch.setattr(ex, "_brentq", counting)
    ex.disk_spectrum(1.0, ex.DIRICHLET, 500)
    ex.disk_spectrum(1.0, ex.NEUMANN, 500)
    entries = sum(len(zeros) for zeros in ex._ZEROS.values())
    assert len(calls) == entries > 1000
    _assert_tables_sorted(ex._ZEROS)
    # shorter requests read the tables and solve nothing
    ex.disk_spectrum(1.0, ex.NEUMANN, 200)
    for m in range(5):
        ex.bessel_zero(ex.BesselZeroRequest(m, 3))
        ex.bessel_zero(ex.BesselZeroRequest(m, 3, derivative=True))
    assert len(calls) == entries


def test_bessel_zero_tables_grow_the_same_under_threads(monkeypatch):
    import random
    import sys
    import threading

    requests = [(m, p, d) for m in range(12) for p in (1, 4, 9, 17) for d in (False, True)]
    _start_empty(monkeypatch)
    for m, p, d in requests:
        ex._zero(m, p, d)
    single = ex._ZEROS

    _start_empty(monkeypatch)
    got = []

    def work(seed):
        order = requests[:]
        random.Random(seed).shuffle(order)
        for req in order:
            got.append((req, ex._zero(*req)))

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
    assert ex._ZEROS == single
    _assert_tables_sorted(ex._ZEROS)
    assert len(got) == 4 * len(requests)
    assert all(zero == ex._zero(*req) for req, zero in got)


def test_high_order_bessel_zeros_need_no_recursion():
    import subprocess
    import sys

    code = (
        "import sys, scipy.optimize, scipy.special; from eigenplane import exact as ex; "
        "sys.setrecursionlimit(120); ex._load_snapshot = dict; "
        "print(*(repr(ex.bessel_zero(ex.BesselZeroRequest(m, p))) for m, p in [(150, 1), (149, 1), (149, 2)]))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    j150, j149_1, j149_2 = (float(x) for x in out.stdout.split())
    assert j149_1 < j150 < j149_2
    from scipy.special import jv

    assert jv(150, j150 * (1 - 1e-12)) * jv(150, j150 * (1 + 1e-12)) < 0


# ---------------------------------------------------------------------------
# the Brent root-finder: a port of scipy's brentq, equal to it bit for bit
# ---------------------------------------------------------------------------

def _brent_cases():
    """(f, a, b, keywords) over seeded brackets of J_m and J_m' zeros and of Robin roots."""
    from scipy.special import jv, jvp

    rng = np.random.default_rng(19)
    for m in [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 120, 150]:
        for derivative in (False, True):
            f = (lambda t, m=m: jvp(m, t)) if derivative else (lambda t, m=m: jv(m, t))
            for p in (1, 2, 5, 9):
                z = ex.bessel_zero(ex.BesselZeroRequest(m, p, derivative))
                # each side at most 0.3 of the gap to the neighbouring zeros, so the bracket holds z alone
                a, b = z - rng.uniform(1e-3, 0.3), z + rng.uniform(1e-3, 0.3)
                yield f, a, b, ex._BRENTQ_KW
    for sigma in np.logspace(-2, 14, 33):
        for l in (0.3, 1.0, 7.0):
            def f(w, s=float(sigma), l=l):
                return (w * w - s * s) * math.sin(w * l) - 2.0 * s * w * math.cos(w * l)

            for k in range(4):
                lo, hi = k * math.pi / l, (k + 1) * math.pi / l
                a, b = lo + rng.uniform(1e-13, 1e-9), hi - rng.uniform(1e-13, 1e-9)
                if f(a) * f(b) < 0:
                    yield f, a, b, {**ex._BRENTQ_KW, "xtol": 1e-13 * min(1.0, hi)}


def test_brent_port_equals_scipy_brentq_bit_for_bit():
    from scipy.optimize import brentq

    cases = list(_brent_cases())
    assert len(cases) > 400
    for f, a, b, kw in cases:
        got = ex._brentq(f, a, b, **kw)
        assert type(got) is float
        assert got == brentq(f, a, b, **kw), (a, b, kw)


def test_brent_port_edge_cases():
    f = lambda x: x - 1.0  # noqa: E731
    for a, b in [(1.0, 3.0), (-2.0, 1.0)]:  # a zero exactly at an endpoint is returned as is
        assert ex._brentq(f, a, b, **ex._BRENTQ_KW) == 1.0
    with pytest.raises(ex.NumericalFailure, match="same sign"):
        ex._brentq(f, 2.0, 3.0, **ex._BRENTQ_KW)
    with pytest.raises(ex.NumericalFailure, match="no root converged in 3 iterations"):
        ex._brentq(math.cos, 0.0, 3.0, xtol=1e-13, rtol=8.9e-16, maxiter=3)
    assert type(ex._brentq(math.cos, 0.0, 3.0, **ex._BRENTQ_KW)) is float
    assert type(ex._brentq(lambda x: np.float64(x) - 0.5, np.float64(0.0), np.float64(1.0), **ex._BRENTQ_KW)) is float


# ---------------------------------------------------------------------------
# boundary spec and spectrum
# ---------------------------------------------------------------------------

def test_boundary_spec_validation():
    with pytest.raises(ValueError):
        ex.BoundarySpec("robin", -1.0)
    with pytest.raises(ValueError):
        ex.BoundarySpec("mixed")
    assert ex.robin(0.0).is_neumann_like


def test_spectrum_requires_sorted_values():
    with pytest.raises(ValueError):
        ex.Spectrum([2.0, 1.0], "exact")


def test_spectrum_sum_first():
    s = ex.Spectrum([1.0, 2.0, 3.0], "exact")
    assert s.sum_first(2) == 3.0
    with pytest.raises(ValueError):
        s.sum_first(4)


# ---------------------------------------------------------------------------
# equilateral triangle
# ---------------------------------------------------------------------------

def test_equilateral_dirichlet_ground_state():
    s = ex.equilateral_spectrum(1.0, ex.DIRICHLET, 1)
    assert s.values[0] == pytest.approx(16 * PI2 / 3, rel=1e-14)


def test_equilateral_neumann_start():
    s = ex.equilateral_spectrum(1.0, ex.NEUMANN, 3)
    np.testing.assert_allclose(s.values, [0.0, 16 * PI2 / 9, 16 * PI2 / 9], rtol=1e-14)


def test_equilateral_scaling():
    s = ex.equilateral_spectrum(2.0, ex.DIRICHLET, 1)
    assert s.values[0] == pytest.approx(4 * PI2 / 3, rel=1e-14)


def test_equilateral_rejects_robin():
    with pytest.raises(ValueError):
        ex.equilateral_spectrum(1.0, ex.robin(1.0), 1)


def test_equilateral_first_ten_lattice_values():
    # Q = j1^2 + j1 j2 + j2^2 over ordered pairs, sorted: 3,7,7,12,13,13,19,19,21,21
    s = ex.equilateral_spectrum(1.0, ex.DIRICHLET, 10)
    q = np.array([3, 7, 7, 12, 13, 13, 19, 19, 21, 21], dtype=float)
    np.testing.assert_allclose(s.values, 16 * PI2 / 9 * q, rtol=1e-13)


# ---------------------------------------------------------------------------
# rectangles
# ---------------------------------------------------------------------------

def test_square_dirichlet():
    s = ex.rectangle_spectrum(1, 1, ex.DIRICHLET, 3)
    np.testing.assert_allclose(s.values, [2 * PI2, 5 * PI2, 5 * PI2], rtol=1e-14)


def test_square_neumann():
    s = ex.rectangle_spectrum(1, 1, ex.NEUMANN, 2)
    np.testing.assert_allclose(s.values, [0.0, PI2], rtol=1e-14)


def test_rectangle_2x1_ground_state():
    s = ex.rectangle_spectrum(2, 1, ex.DIRICHLET, 1)
    assert s.values[0] == pytest.approx(1.25 * PI2, rel=1e-14)


def test_rectangle_rejects_non_finite_sides():
    for l1 in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ex.rectangle_spectrum(l1, 1.0, ex.DIRICHLET, 1)


@pytest.mark.parametrize("l1,l2", [(1.0, 1.0), (2.0, 1.0), (1.0, 0.3), (1e6, 1.0)])
def test_rectangle_spectrum_matches_brute_force_enumeration(l1, l2):
    # the first n values have both indices below start + n; same arithmetic, so equal bits
    for bc, start in ((ex.DIRICHLET, 1), (ex.NEUMANN, 0)):
        for n in (1, 7, 50):
            js = range(start, start + n)
            brute = sorted(math.pi**2 * ((j1 / l1) ** 2 + (j2 / l2) ** 2) for j1 in js for j2 in js)[:n]
            assert ex.rectangle_spectrum(l1, l2, bc, n).values.tolist() == brute


def test_rectangle_robin_tensor_matches_brute_force():
    r1 = ex.robin_interval_eigs(2.0, 1.0, 6)
    r2 = ex.robin_interval_eigs(1.0, 1.0, 6)
    brute = np.sort((r1[:, None] + r2[None, :]).ravel())[:5]
    s = ex.rectangle_spectrum(2, 1, ex.robin(1.0), 5)
    np.testing.assert_allclose(s.values, brute, rtol=1e-12)


def test_rectangle_robin_zero_sigma_is_neumann():
    s0 = ex.rectangle_spectrum(2, 1, ex.robin(0.0), 4)
    sn = ex.rectangle_spectrum(2, 1, ex.NEUMANN, 4)
    np.testing.assert_allclose(s0.values, sn.values, atol=1e-14)


def _robin_rectangle_square_grid(l1, l2, sigma, n):
    """The first n tensor sums from a count x count grid of 1D roots, count doubled until complete."""
    count = max(4, int(math.isqrt(n)) + 3)
    while True:
        r1 = ex.robin_interval_eigs(l1, sigma, count)
        r2 = ex.robin_interval_eigs(l2, sigma, count)
        sums = np.sort((r1[:, None] + r2[None, :]).ravel())
        # any omitted pair has an index beyond `count` in some direction
        if r1[-1] + r2[0] > sums[n - 1] and r1[0] + r2[-1] > sums[n - 1]:
            return sums[:n]
        count *= 2


def test_rectangle_robin_row_enumeration_equals_the_square_grid():
    rng = np.random.default_rng(17)
    cases = [(2.0, 1.0, 0.5, 4), (1.0, 1.0, 1.0, 2000), (30.0, 1.0, 1.0, 1500), (1.0, 30.0, 1.0, 1500)]
    for _ in range(30):
        l1, l2 = float(np.exp(rng.uniform(-2.0, 3.0))), float(np.exp(rng.uniform(-1.0, 1.0)))
        cases.append((l1, l2, float(np.exp(rng.uniform(-4.0, 3.0))), int(rng.integers(1, 300))))
    for l1, l2, sigma, n in cases:
        got = ex.rectangle_spectrum(l1, l2, ex.robin(sigma), n).values
        assert np.array_equal(got, _robin_rectangle_square_grid(l1, l2, sigma, n)), (l1, l2, sigma, n)


@pytest.mark.parametrize("l1", [1e7, 1e8, 1e9])
def test_long_robin_side_roots_are_bracketed(l1, capsys):
    # here the first root lies within 1e-13 of pi / l, inside the bracket's usual margin
    from eigenplane import cli

    code = cli.run(["spectrum", "--shape", "rectangle", "--l1", repr(l1), "--bc", "robin", "-n", "3"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert len(captured.out.splitlines()) == 5  # seed comment, header, 3 rows
    sigma = 1.0

    def f(w):
        return (w * w - sigma * sigma) * math.sin(w * l1) - 2.0 * sigma * w * math.cos(w * l1)

    for k, rho in enumerate(ex.robin_interval_eigs(l1, sigma, 3)):
        w = math.sqrt(rho)
        assert k * math.pi / l1 < w < (k + 1) * math.pi / l1
        # f changes sign within brentq's tolerance of w
        tol = 2.0 * (1e-13 + 8.9e-16 * w)
        assert f(w - tol) * f(w + tol) <= 0, (l1, k, w)


def test_thin_robin_rectangle_stays_small():
    import subprocess
    import sys

    argv = ["spectrum", "--shape", "rectangle", "--l1", "3000", "--bc", "robin", "-n", "10000"]
    # the child reports its own high-water mark: the rusage of a forked child
    # also counts the pages it shared with this process before exec
    code = (
        f"import sys; from eigenplane import cli; status = cli.run({argv!r}); "
        "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')]; "
        "print(hwm[0].split()[1], file=sys.stderr); sys.exit(status)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    *err, peak_kb = out.stderr.splitlines()
    if out.returncode == 2:
        assert out.stdout == "" and len(err) == 1 and err[0].startswith("error: ")
    else:
        assert out.returncode == 0, out.stderr
        assert len(out.stdout.splitlines()) == 10_002  # seed comment, header, 10 000 rows
    assert int(peak_kb) / 1024 < 150


def test_long_robin_rectangle_solves_at_most_n_plus_one_roots_per_side(monkeypatch):
    solved = {}
    roots = ex._robin_roots

    def counting(l, sigma, start, stop):
        solved[l] = solved.get(l, 0) + stop - start
        return roots(l, sigma, start, stop)

    monkeypatch.setattr(ex, "_robin_roots", counting)
    n = 10_000
    assert ex.rectangle_spectrum(1e9, 1.0, ex.robin(1.0), n).n == n
    assert sorted(solved) == [1.0, 1e9]
    assert max(solved.values()) <= n + 1


# ---------------------------------------------------------------------------
# disks
# ---------------------------------------------------------------------------

def test_disk_dirichlet_ground_state():
    s = ex.disk_spectrum(1.0, ex.DIRICHLET, 1)
    assert s.values[0] == pytest.approx(J01**2, rel=1e-13)


def test_disk_neumann_start():
    s = ex.disk_spectrum(1.0, ex.NEUMANN, 3)
    np.testing.assert_allclose(s.values, [0.0, J1P1**2, J1P1**2], rtol=1e-12, atol=1e-14)


def test_disk_radius_scaling():
    s = ex.disk_spectrum(2.0, ex.DIRICHLET, 1)
    assert s.values[0] == pytest.approx(J01**2 / 4, rel=1e-13)


def test_disk_dirichlet_multiplicities():
    # j_{0,1}^2 < j_{1,1}^2 (twice) < j_{2,1}^2 (twice) < j_{0,2}^2
    s = ex.disk_spectrum(1.0, ex.DIRICHLET, 6)
    j11 = ex.bessel_zero(ex.BesselZeroRequest(1, 1))
    j21 = ex.bessel_zero(ex.BesselZeroRequest(2, 1))
    np.testing.assert_allclose(
        s.values, [J01**2, j11**2, j11**2, j21**2, j21**2, J02**2], rtol=1e-12
    )


def test_oversized_exact_spectra_are_refused_up_front(monkeypatch):
    n = ex.MAX_EIGENVALUES
    assert ex.rectangle_spectrum(1.0, 1.0, ex.DIRICHLET, n).n == n
    monkeypatch.setattr(ex, "_zero", None)  # the disk must fail before reading a zero
    for spectrum in (
        lambda: ex.equilateral_spectrum(1.0, ex.NEUMANN, n + 1),
        lambda: ex.rectangle_spectrum(1.0, 1.0, ex.robin(1.0), n + 1),
        lambda: ex.disk_spectrum(1.0, ex.DIRICHLET, n + 1),
    ):
        with pytest.raises(ValueError, match="more than 10000"):
            spectrum()


def test_disk_rejects_robin():
    with pytest.raises(ValueError):
        ex.disk_spectrum(1.0, ex.robin(1.0), 1)


# ---------------------------------------------------------------------------
# 1D Robin eigenvalues
# ---------------------------------------------------------------------------

def test_robin_interval_neumann_limit():
    np.testing.assert_allclose(ex.robin_interval_eigs(math.pi, 0.0, 3), [0, 1, 4], atol=1e-14)


def _robin_roots_mpmath(l, sigma, count):
    """Robin roots rho_k of (0, l) by 50-digit bisection of each bracket (k pi / l, (k + 1) pi / l)."""
    import mpmath

    with mpmath.workdps(50):
        l, sigma = mpmath.mpf(l), mpmath.mpf(sigma)

        def f(w):
            return (w * w - sigma * sigma) * mpmath.sin(w * l) - 2 * sigma * w * mpmath.cos(w * l)

        roots = []
        for k in range(count):
            # f(0) = 0, so the first bracket starts a quarter of the way in
            a, b = max(k, 0.25) * mpmath.pi / l, (k + 1) * mpmath.pi / l
            fa = f(a)
            for _ in range(200):
                mid = (a + b) / 2
                if (f(mid) < 0) == (fa < 0):
                    a = mid
                else:
                    b = mid
            roots.append(float(((a + b) / 2) ** 2))
    return roots


@pytest.mark.parametrize("l", [1e6, 1e7])
def test_long_robin_side_roots_are_accurate_relative_to_their_size(l):
    np.testing.assert_allclose(ex.robin_interval_eigs(l, 1.0, 2), _robin_roots_mpmath(l, 1.0, 2), rtol=1e-12, atol=0.0)


def test_robin_roots_beyond_double_precision_are_numerical_failures():
    # up to sigma = 1e14 the first root on (0, 2) still has a bracket; at 1e16 it lies within an ulp of pi / 2,
    # and at 1e308 sigma^2 overflows
    assert 0.0 < ex.robin_interval_eigs(2.0, 1e14, 3)[0] < (math.pi / 2.0) ** 2
    for sigma in (1e16, 1e308):
        with pytest.raises(ex.NumericalFailure, match=re.escape(f"k=0 of (0, 2) at sigma={sigma:g}")):
            ex.robin_interval_eigs(2.0, sigma, 3)


def test_robin_interval_first_root():
    got = ex.robin_interval_eigs(1.0, 1.0, 1)[0]
    assert got == pytest.approx(ROBIN_L1_S1, rel=1e-12)


def test_robin_interval_matches_fd_oracle():
    got = ex.robin_interval_eigs(1.0, 2.5, 3)
    coarse = _robin_fd_oracle(1.0, 2.5, 3, 801)
    fine = _robin_fd_oracle(1.0, 2.5, 3, 1601)
    richardson = (4 * fine - coarse) / 3
    np.testing.assert_allclose(got, richardson, rtol=1e-6)


def test_robin_interval_dirichlet_limit_monotone():
    # roots approach {1, 4, 9} on (0, pi) from below as sigma grows
    prev = ex.robin_interval_eigs(math.pi, 0.0, 3)
    for sigma in (0.5, 1, 2, 5, 20, 200):
        cur = ex.robin_interval_eigs(math.pi, sigma, 3)
        assert np.all(cur >= prev - 1e-12)
        prev = cur
    np.testing.assert_allclose(prev, [1, 4, 9], rtol=2e-2)
    assert np.all(prev < np.array([1, 4, 9]))


def test_robin_values_satisfy_transcendental_equation():
    for sigma in (0.3, 1.0, 4.0):
        for rho in ex.robin_interval_eigs(1.7, sigma, 4):
            w = math.sqrt(rho)
            resid = (w * w - sigma * sigma) * math.sin(w * 1.7) - 2 * sigma * w * math.cos(w * 1.7)
            assert abs(resid) < 1e-8 * max(1.0, w * w)


# ---------------------------------------------------------------------------
# module-level properties
# ---------------------------------------------------------------------------

def test_scaling_law_all_shapes():
    r = 2.7
    for base, scaled in [
        (ex.equilateral_spectrum(1.0, ex.DIRICHLET, 8), ex.equilateral_spectrum(r, ex.DIRICHLET, 8)),
        (ex.rectangle_spectrum(1.0, 2.0, ex.NEUMANN, 8), ex.rectangle_spectrum(r, 2 * r, ex.NEUMANN, 8)),
        (ex.disk_spectrum(1.0, ex.DIRICHLET, 8), ex.disk_spectrum(r, ex.DIRICHLET, 8)),
    ]:
        np.testing.assert_allclose(scaled.values, base.values / r**2, rtol=1e-12, atol=1e-15)


def test_ground_state_simple_and_positive():
    for s in [
        ex.equilateral_spectrum(1.0, ex.DIRICHLET, 2),
        ex.rectangle_spectrum(1.4, 1.0, ex.DIRICHLET, 2),
        ex.disk_spectrum(1.0, ex.DIRICHLET, 2),
    ]:
        assert s.values[0] > 0
        assert s.values[0] < s.values[1]


def test_robin_interpolates_between_neumann_and_dirichlet():
    n = 6
    neumann = ex.rectangle_spectrum(2, 1, ex.NEUMANN, n).values
    dirichlet = ex.rectangle_spectrum(2, 1, ex.DIRICHLET, n).values
    prev = neumann
    for sigma in (0.25, 1.0, 4.0, 16.0):
        cur = ex.rectangle_spectrum(2, 1, ex.robin(sigma), n).values
        assert np.all(cur >= prev - 1e-12)
        assert np.all(cur <= dirichlet + 1e-12)
        prev = cur


def test_weyl_ratio_unit_square():
    s = ex.rectangle_spectrum(1, 1, ex.DIRICHLET, 500)
    ns = np.arange(50, 501)
    ratio = s.values[49:] / (4 * math.pi * ns)
    assert np.all(ratio >= 0.85) and np.all(ratio <= 1.25)


def test_kroger_bound_square_and_disk():
    for spec, area in [
        (ex.rectangle_spectrum(1, 1, ex.NEUMANN, 100), 1.0),
        (ex.disk_spectrum(1.0, ex.NEUMANN, 100), math.pi),
    ]:
        sums = np.cumsum(spec.values)
        ns = np.arange(1, 101)
        assert np.all(sums * area / ns**2 <= 2 * math.pi)
