"""Reference values computed without eigenplane.

Nothing here imports the package under test.  Closed forms come from the
classical formulas (Bessel zeros, lattice spectra, the separable oscillator,
Mathieu functions for the ellipse); where the benchmark needs the exact
discrete value of a documented discretisation (the five-point finite
difference Schrodinger operator), it assembles and solves that operator with
its own code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import jn_zeros, jnp_zeros, mathieu_modcem1, mathieu_modsem1

PI2 = math.pi**2

#: Normalized Dirichlet n=1 sums lambda_1 A^3 / I on the published isosceles
#: curve, keyed by the aperture as printed with the values.
PUBLISHED_ISOSCELES = {0.5236: 104.1257, 1.0472: 118.4367, 1.5708: 111.0348, 2.0944: 96.8135}


# ---------------------------------------------------------------------------
# lattice spectra
# ---------------------------------------------------------------------------

def _smallest(form, start: int, n: int, keep=lambda i, j: True) -> np.ndarray:
    """n smallest values of form(i, j) over i, j >= start, with a growing box.

    form must increase in each index, so once the box edge's smallest value
    exceeds the n-th smallest value found inside, nothing outside can enter.
    """
    size = int(math.isqrt(n)) + 4
    while True:
        vals = sorted(form(i, j) for i in range(start, size) for j in range(start, size) if keep(i, j))
        if len(vals) >= n:
            nth = vals[n - 1]
            edge = min(form(size, start), form(start, size))
            if edge > nth:
                return np.array(vals[:n])
        size *= 2


def rectangle_eigs(l1: float, l2: float, kind: str, n: int) -> np.ndarray:
    start = 1 if kind == "dirichlet" else 0
    return _smallest(lambda i, j: PI2 * ((i / l1) ** 2 + (j / l2) ** 2), start, n)


def equilateral_eigs(side: float, kind: str, n: int) -> np.ndarray:
    start = 1 if kind == "dirichlet" else 0
    scale = 16.0 * PI2 / (9.0 * side * side)
    return _smallest(lambda i, j: scale * (i * i + i * j + j * j), start, n)


def right_isosceles_eigs(leg: float, kind: str, n: int) -> np.ndarray:
    """pi^2 (m^2 + k^2) / L^2 with m > k >= 1 (Dirichlet) or m >= k >= 0 (Neumann)."""
    if kind == "dirichlet":
        return _smallest(lambda i, j: PI2 * (i * i + j * j) / leg**2, 1, n, keep=lambda i, j: i > j)
    return _smallest(lambda i, j: PI2 * (i * i + j * j) / leg**2, 0, n, keep=lambda i, j: i >= j)


# ---------------------------------------------------------------------------
# disk and ellipse
# ---------------------------------------------------------------------------

def disk_eigs(radius: float, kind: str, n: int) -> np.ndarray:
    """Disk spectrum from scipy's Bessel zeros; orders m >= 1 count twice."""
    zeros = jn_zeros if kind == "dirichlet" else jnp_zeros
    count = int(math.isqrt(n)) + 4
    while True:
        vals = [] if kind == "dirichlet" else [0.0]
        tops = []
        m = 0
        while True:
            z = zeros(m, count)
            if vals and len(vals) >= n and z[0] ** 2 > sorted(vals)[n - 1]:
                break
            vals.extend(np.repeat(z * z, 1 if m == 0 else 2).tolist())
            tops.append(z[-1] ** 2)
            m += 1
        vals.sort()
        if len(vals) >= n and min(tops) > vals[n - 1]:
            return np.array(vals[:n]) / radius**2
        count *= 2


def ellipse_dirichlet_eigs(a: float, b: float, n: int, lam_max: float) -> np.ndarray:
    """Dirichlet eigenvalues below lam_max of the ellipse with semi-axes a > b.

    In elliptic coordinates with focal half-distance f the boundary is
    xi = arccosh(a / f), and each mode is a zero in q of the radial Mathieu
    function Mc_m(xi, q) (even) or Ms_m(xi, q) (odd), with lambda = 4 q / f^2.
    Roots are bracketed on a 0.02-wide grid in lambda.
    """
    f = math.sqrt(a * a - b * b)
    xi0 = math.acosh(a / f)
    grid = np.arange(0.5, lam_max, 0.02)
    found = []
    for m in range(0, 12):
        for radial, first in ((mathieu_modcem1, 0), (mathieu_modsem1, 1)):
            if m < first:
                continue

            def g(lam, m=m, radial=radial):
                return radial(m, lam * f * f / 4.0, xi0)[0]

            vals = np.array([g(x) for x in grid])
            sign = np.sign(vals)
            for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
                found.append(brentq(g, grid[i], grid[i + 1], xtol=1e-13))
    found.sort()
    if len(found) < n:
        raise ValueError(f"only {len(found)} ellipse eigenvalues below {lam_max}")
    return np.array(found[:n])


# ---------------------------------------------------------------------------
# 1D Robin and the Robin square
# ---------------------------------------------------------------------------

def robin_interval_roots(l: float, sigma: float, count: int) -> np.ndarray:
    """Eigenvalues of -u'' on (-l/2, l/2) with u' = -+sigma u at the ends.

    Even modes cos(w x) need u tan u = c and odd modes sin(w x) need
    u cot u = -c, with u = w l / 2 and c = sigma l / 2.  The even root lies
    in (k pi, k pi + pi/2) and the odd one in (k pi + pi/2, (k+1) pi).
    """
    c = sigma * l / 2.0
    eps = 1e-12
    roots = []
    for k in range(count):
        lo = k * math.pi
        roots.append(brentq(lambda u: u * math.sin(u) - c * math.cos(u), lo + eps, lo + math.pi / 2 - eps, xtol=1e-15))
        roots.append(brentq(lambda u: u * math.cos(u) + c * math.sin(u), lo + math.pi / 2 + eps, lo + math.pi - eps, xtol=1e-15))
    w = 2.0 * np.sort(roots) / l
    return (w * w)[:count]


def robin_square_eigs(side: float, sigma: float, n: int) -> np.ndarray:
    r = robin_interval_roots(side, sigma, int(math.isqrt(n)) + 4)
    return np.sort((r[:, None] + r[None, :]).ravel())[:n]


# ---------------------------------------------------------------------------
# Schrodinger operators
# ---------------------------------------------------------------------------

def oscillator_eigs(h: float, r1: float, r2: float, n: int) -> np.ndarray:
    """-h Lap + |T^-1 x|^2 with singular values r1, r2 of T: sqrt(h)((2a+1)/r1 + (2b+1)/r2)."""
    return _smallest(lambda i, j: math.sqrt(h) * ((2 * i + 1) / r1 + (2 * j + 1) / r2), 0, n)


def _fd_axis(half_width: float, points: int):
    x = np.linspace(-half_width, half_width, points)
    return x[1:-1], x[1] - x[0]


def fd_separable_eigs(h: float, r1: float, r2: float, half_width: float, points: int, n: int) -> np.ndarray:
    """Five-point FD eigenvalues of -h Lap + x1^2/r1^2 + x2^2/r2^2, zero on the box edge.

    The operator is a Kronecker sum of two tridiagonal 1D operators, so its
    eigenvalues are sums of theirs.
    """
    from scipy.linalg import eigh_tridiagonal

    xi, dx = _fd_axis(half_width, points)
    off = np.full(len(xi) - 1, -h / dx**2)
    e1 = eigh_tridiagonal(2.0 * h / dx**2 + xi**2 / r1**2, off, select="i", select_range=(0, n - 1))[0]
    e2 = eigh_tridiagonal(2.0 * h / dx**2 + xi**2 / r2**2, off, select="i", select_range=(0, n - 1))[0]
    return np.sort((e1[:, None] + e2[None, :]).ravel())[:n]


def fd_box_eigs(potential, h: float, half_width: float, points: int, n: int) -> np.ndarray:
    """Five-point FD eigenvalues of -h Lap + W(x1, x2) on the box, zero on its edge."""
    import scipy.sparse as sparse
    import scipy.sparse.linalg as splinalg

    xi, dx = _fd_axis(half_width, points)
    m = len(xi)
    lap1 = sparse.diags([np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)], [-1, 0, 1]) / dx**2
    eye = sparse.identity(m)
    X1, X2 = np.meshgrid(xi, xi, indexing="ij")
    A = (h * (sparse.kron(lap1, eye) + sparse.kron(eye, lap1)) + sparse.diags(potential(X1, X2).ravel())).tocsc()
    vals = splinalg.eigsh(A, k=n, sigma=0.0, which="LM", return_eigenvectors=False)
    return np.sort(vals)


def quartic(x1, x2):
    r2 = x1 * x1 + x2 * x2
    return r2 * r2


def trisym_potential(beta: float):
    def w(x1, x2):
        r2 = x1 * x1 + x2 * x2
        return r2 * r2 + beta * (x1**3 - 3.0 * x1 * x2 * x2)

    return w


# ---------------------------------------------------------------------------
# maps, moments and scans
# ---------------------------------------------------------------------------

def hs_inverse_half(m: np.ndarray) -> float:
    """||T^-1||_HS^2 / 2, the linear-map bound's coefficient."""
    return 0.5 * float(np.sum(np.linalg.inv(m) ** 2))


def isosceles_factor(aperture: float, leg: float = 1.0) -> float:
    """A^3 / I for the isosceles triangle, I = (A / 36)(sum of squared sides)."""
    area = 0.5 * leg * leg * math.sin(aperture)
    base = 2.0 * leg * math.sin(aperture / 2.0)
    inertia = area / 36.0 * (2.0 * leg * leg + base * base)
    return area**3 / inertia


def disk_vs_square_winners(n_max: int) -> list[int]:
    """n with the unit square's normalized Dirichlet n-sum above the disk's.

    A^3 / I is 6 for the unit square and 2 pi^2 for the unit disk.
    """
    sq = np.cumsum(rectangle_eigs(1.0, 1.0, "dirichlet", n_max)) * 6.0
    dk = np.cumsum(disk_eigs(1.0, "dirichlet", n_max)) * 2.0 * PI2
    return [i + 1 for i in range(n_max) if sq[i] > dk[i]]


def kroger_disk_rows(n_max: int) -> np.ndarray:
    """(mu_1 + ... + mu_k) A / k^2 for the unit disk's Neumann spectrum, k = 1..n_max."""
    k = np.arange(1, n_max + 1)
    return np.cumsum(disk_eigs(1.0, "neumann", n_max)) * math.pi / k**2
