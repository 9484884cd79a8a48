"""Closed-form spectra of model shapes, Bessel zeros, and 1D Robin eigenvalues.

Dirichlet/Neumann eigenvalues of equilateral triangles and rectangles come
from lattice enumeration of their classical formulas; disk eigenvalues from
Bessel zeros; rectangle Robin eigenvalues from tensor sums of the 1D Robin
problem.  Every enumeration uses a provable cutoff, so the first n values are
guaranteed complete; more than MAX_EIGENVALUES values are refused up front.
Each Bessel zero is solved once, into a grow-only table per order shared by
all callers, on a bracket that does not depend on how many zeros were asked
for.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoundarySpec",
    "DIRICHLET",
    "NEUMANN",
    "robin",
    "Spectrum",
    "BesselZeroRequest",
    "bessel_zero",
    "equilateral_spectrum",
    "rectangle_spectrum",
    "disk_spectrum",
    "robin_interval_eigs",
    "NumericalFailure",
]

# exact spectra longer than this are refused before any enumeration starts
MAX_EIGENVALUES = 10_000


class NumericalFailure(RuntimeError):
    """A computation could not reach an answer it can vouch for; the command line exits 3."""


@dataclass(frozen=True)
class BoundarySpec:
    """Boundary condition selector: dirichlet, neumann, or robin(sigma >= 0)."""

    kind: str
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann", "robin"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "robin" and not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("robin parameter must be finite and >= 0")
        if self.kind != "robin" and self.sigma != 0.0:
            raise ValueError("sigma only applies to robin boundaries")

    @property
    def is_dirichlet(self) -> bool:
        return self.kind == "dirichlet"

    @property
    def is_neumann_like(self) -> bool:
        # robin with sigma=0 is the same eigenproblem as neumann
        return self.kind == "neumann" or (self.kind == "robin" and self.sigma == 0.0)


DIRICHLET = BoundarySpec("dirichlet")
NEUMANN = BoundarySpec("neumann")


def robin(sigma: float) -> BoundarySpec:
    return BoundarySpec("robin", float(sigma))


@dataclass(eq=False)
class Spectrum:
    """Sorted eigenvalue list with per-value absolute error estimates."""

    values: np.ndarray
    method: str  # exact | fem | fd
    error_estimates: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.error_estimates is None:
            self.error_estimates = np.zeros_like(self.values)
        else:
            self.error_estimates = np.asarray(self.error_estimates, dtype=float)
        if self.values.shape != self.error_estimates.shape:
            raise ValueError("values and error_estimates must have equal length")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("eigenvalues must be sorted nondecreasing")
        if np.any(self.error_estimates < 0):
            raise ValueError("error estimates must be nonnegative")
        if self.method not in ("exact", "fem", "fd"):
            raise ValueError(f"unknown method tag {self.method!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def sum_first(self, k: int) -> float:
        if k > self.n:
            raise ValueError(f"spectrum holds {self.n} values, asked for {k}")
        return float(np.sum(self.values[:k]))

    def error_sum(self, k: int) -> float:
        return float(np.sum(self.error_estimates[:k]))


@dataclass(frozen=True)
class BesselZeroRequest:
    """p-th positive zero of J_m (or of J_m' when derivative is set)."""

    m: int
    p: int
    derivative: bool = False

    def __post_init__(self):
        if self.m < 0 or self.p < 1:
            raise ValueError("need order m >= 0 and index p >= 1")


# ---------------------------------------------------------------------------
# Bessel zeros
# ---------------------------------------------------------------------------

_BRENTQ_KW = dict(xtol=1e-13, rtol=8.9e-16, maxiter=200)

# (m, derivative) -> the first zeros of J_m (or J_m') found so far.  Tables only
# grow, and zero p is always solved on the same bracket, so each zero is solved
# once and its value never depends on how many zeros were asked for.
_ZEROS: dict[tuple[int, bool], list[float]] = {}
_ZEROS_LOCK = threading.Lock()


def _zeros(m: int, count: int, derivative: bool = False) -> list[float]:
    """First `count` positive zeros of J_m, or of J_m' when `derivative` is set.

    Zeros of consecutive orders strictly interlace
    (j_{m-1,p} < j_{m,p} < j_{m-1,p+1}), so each bracket from order m-1
    contains exactly one zero of order m.  The base order m=0 is bracketed by
    a unit-step sign scan from 2, safe because J_0's zero spacing exceeds 2.9.
    For m >= 1 the zeros of J_m' interlace with those of J_m:
    m < j'_{m,1} < j_{m,1} < j'_{m,2} < j_{m,2} < ...; J_0' = -J_1.
    """
    if derivative and m == 0:
        m, derivative = 1, False
    with _ZEROS_LOCK:
        table = _ZEROS.setdefault((m, derivative), [])
        if len(table) >= count:
            return table[:count]
        from scipy.optimize import brentq
        from scipy.special import jv, jvp

        # J_m's first `count` zeros need count + m - k zeros of each lower
        # order k; grow the short orders in a loop, from order 0 upward
        for k in range(m + 1):
            zs, want = _ZEROS.setdefault((k, False), []), count + m - k
            if k > 0:
                below = _ZEROS[(k - 1, False)]
                for p in range(len(zs), want):
                    zs.append(brentq(lambda t: jv(k, t), below[p], below[p + 1], **_BRENTQ_KW))
            elif len(zs) < want:
                # resume the scan at the unit step after the last zero found
                x = math.floor(zs[-1]) + 1.0 if zs else 2.0
                fx = jv(0, x)
                while len(zs) < want:
                    x2 = x + 1.0
                    fx2 = jv(0, x2)
                    if fx == 0.0:
                        zs.append(x)
                    elif fx * fx2 < 0:
                        zs.append(brentq(lambda t: jv(0, t), x, x2, **_BRENTQ_KW))
                    x, fx = x2, fx2
        if derivative:
            brackets = [float(m)] + _ZEROS[(m, False)]
            for p in range(len(table), count):
                table.append(brentq(lambda t: jvp(m, t), brackets[p], brackets[p + 1], **_BRENTQ_KW))
        return table[:count]


def bessel_zero(req: BesselZeroRequest) -> float:
    """Positive zero j_{m,p} of J_m, or j'_{m,p} of J_m', to ~1e-12 absolute."""
    return _zeros(req.m, req.p, req.derivative)[req.p - 1]


# ---------------------------------------------------------------------------
# lattice spectra
# ---------------------------------------------------------------------------

def _check_count(n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_EIGENVALUES:
        raise ValueError(f"asked for {n} exact eigenvalues, more than {MAX_EIGENVALUES}")


def _first_n_sorted(candidates: list[float], n: int) -> np.ndarray:
    arr = np.sort(np.asarray(candidates, dtype=float))
    return arr[:n]


def equilateral_spectrum(side: float, bc: BoundarySpec, n: int) -> Spectrum:
    """First n Laplace eigenvalues of an equilateral triangle of the given side.

    Values are (16 pi^2 / 9)(j1^2 + j1 j2 + j2^2) / side^2 over integer pairs,
    j1, j2 >= 1 for Dirichlet and >= 0 for Neumann; ordered-pair counting gives
    the physical multiplicities.
    """
    if side <= 0:
        raise ValueError("side must be positive")
    _check_count(n)
    if bc.kind == "robin" and bc.sigma != 0.0:
        raise ValueError("no closed-form Robin spectrum for triangles")
    start = 1 if bc.is_dirichlet else 0
    scale = 16.0 * math.pi**2 / (9.0 * side * side)
    # Q(j1,j2) >= max(j1,j2)^2 for j >= 0, so enumerating j <= sqrt(B) is complete up to B
    bound = float(3 * n + 9)
    while True:
        jmax = int(math.isqrt(int(bound))) + 1
        forms = [
            float(j1 * j1 + j1 * j2 + j2 * j2)
            for j1 in range(start, jmax + 1)
            for j2 in range(start, jmax + 1)
            if j1 * j1 + j1 * j2 + j2 * j2 <= bound
        ]
        if len(forms) >= n:
            vals = scale * _first_n_sorted(forms, n)
            return Spectrum(vals, "exact", 1e-14 * vals)
        bound *= 2.0


def rectangle_spectrum(l1: float, l2: float, bc: BoundarySpec, n: int) -> Spectrum:
    """First n eigenvalues of an l1 x l2 rectangle, any boundary condition.

    Dirichlet/Neumann: pi^2 ((j1/l1)^2 + (j2/l2)^2) with j >= 1 / j >= 0.
    Robin: tensor sums of 1D Robin eigenvalues in each direction.
    """
    if not (0 < l1 < math.inf and 0 < l2 < math.inf):
        raise ValueError("side lengths must be positive and finite")
    _check_count(n)
    if bc.kind == "robin" and bc.sigma > 0:
        return _rectangle_robin(l1, l2, bc.sigma, n)
    start = 1 if bc.is_dirichlet else 0
    last = start + n - 1
    value = lambda j1, j2: math.pi**2 * ((j1 / l1) ** 2 + (j2 / l2) ** 2)  # noqa: E731
    # n values of the first row or column lie at or below `cap`: enumerating
    # row by row, no index passes `last`, and the cutoff stops growing at `cap`
    cap = min(value(last, start), value(start, last))
    bound = min(math.pi**2 * (n + 4) * (1.0 / l1**2 + 1.0 / l2**2), cap)
    while True:
        vals = []
        for j2 in range(start, last + 1):
            if value(start, j2) > bound:
                break
            for j1 in range(start, last + 1):
                if (v := value(j1, j2)) > bound:
                    break
                vals.append(v)
        if len(vals) >= n:
            out = _first_n_sorted(vals, n)
            return Spectrum(out, "exact", 1e-14 * np.maximum(out, 1.0))
        bound = min(2.0 * bound, cap)


def _rectangle_robin(l1: float, l2: float, sigma: float, n: int) -> Spectrum:
    r1, r2 = _robin_roots(l1, sigma, 0, 1), _robin_roots(l2, sigma, 0, 1)
    # Weyl's law counts about area x / (4 pi) values within x of the lowest
    excess = 4.0 * math.pi * n / (l1 * l2)
    while True:
        bound = r1[0] + r2[0] + excess
        for r, l, other in ((r1, l1, r2[0]), (r2, l2, r1[0])):
            # rho_k > (k pi / l)^2, and a sum is at most bound only if this root is
            # at most bound - other; beyond the first n roots of a direction no
            # sum is needed, since row 0 already holds n smaller ones
            top = l * math.sqrt(bound - other + 1e-15 * bound) / math.pi
            r += _robin_roots(l, sigma, len(r), min(n, int(top) + 2))
        short, long = sorted((r1, r2), key=len)
        long_arr = np.asarray(long)
        # row by row along the shorter direction, keeping the sums up to bound
        vals = np.concatenate([row[row <= bound] for row in (long_arr + x for x in short)])
        if len(vals) >= n:
            vals = _first_n_sorted(vals, n)
            return Spectrum(vals, "exact", 1e-11 * np.maximum(vals, 1.0))
        excess *= 2.0


def disk_spectrum(radius: float, bc: BoundarySpec, n: int) -> Spectrum:
    """First n eigenvalues of a disk from Bessel zeros.

    Dirichlet values are (j_{m,p}/radius)^2; Neumann are (j'_{m,p}/radius)^2
    over positive zeros, with the zero eigenvalue of the constant mode added
    explicitly.  Angular orders m >= 1 carry multiplicity two.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    _check_count(n)
    if bc.kind == "robin" and bc.sigma != 0.0:
        raise ValueError("no closed-form Robin spectrum for disks")
    # zero cutoff, grown until complete.  Weyl's law counts about B^2/4 -+ B/2
    # Dirichlet (Neumann) zeros below B, so Dirichlet starts 2 higher; then
    # every n up to MAX_EIGENVALUES is complete in one pass
    bound = math.sqrt(4.0 * n + 40.0) + (2.0 if bc.is_dirichlet else 0.0)
    while True:
        vals: list[float] = [] if bc.is_dirichlet else [0.0]
        for m in itertools.count():
            p = 0
            while (z := _zeros(m, p + 1, not bc.is_dirichlet)[p]) <= bound:
                vals.extend([z * z] if m == 0 else [z * z, z * z])
                p += 1
            # zeros increase with both order and index, so stop at the first
            # order whose smallest zero clears the cutoff
            if p == 0:
                break
        if len(vals) >= n:
            out = _first_n_sorted(vals, n) / radius**2
            err = 2.0 * np.sqrt(np.maximum(out, 0.0)) * 1e-12 / radius
            return Spectrum(out, "exact", err)
        bound *= 1.5


# ---------------------------------------------------------------------------
# 1D Robin eigenvalues
# ---------------------------------------------------------------------------

def robin_interval_eigs(l: float, sigma: float, count: int) -> np.ndarray:
    """First `count` eigenvalues of -u'' = rho u on (0, l) with du/dn + sigma u = 0.

    sigma = 0 gives the Neumann values (pi k / l)^2; for sigma > 0 the k-th
    root satisfies tan(w l) = 2 sigma w / (w^2 - sigma^2) with
    w = sqrt(rho) in ((k-1) pi / l, k pi / l), found by bracketed root solving.
    """
    if l <= 0:
        raise ValueError("interval length must be positive")
    if sigma < 0:
        raise ValueError("robin parameter must be >= 0")
    if count < 1:
        raise ValueError("need count >= 1")
    if sigma == 0.0:
        return (math.pi * np.arange(count) / l) ** 2
    return np.asarray(_robin_roots(l, sigma, 0, count))


def _robin_roots(l: float, sigma: float, start: int, stop: int) -> list[float]:
    """Robin roots rho_k of (0, l) for start <= k < stop (sigma > 0), each bracketed on its own."""
    from scipy.optimize import brentq

    def f(w: float) -> float:
        return (w * w - sigma * sigma) * math.sin(w * l) - 2.0 * sigma * w * math.cos(w * l)

    out = []
    for k in range(start, stop):
        lo, hi = k * math.pi / l, (k + 1) * math.pi / l
        # the margin keeps both ends off the zeros of sin(w l).  A long side puts
        # the root within about 2 (k + 1) pi / (sigma l^2) of hi, inside 1e-13
        # once l passes ~8e6 / sqrt(sigma); only then shrink it to a few ulps
        a, b = lo + 1e-13, hi - 1e-13
        if f(a) * f(b) > 0:
            a, b = lo + 4 * math.ulp(hi), hi - 4 * math.ulp(hi)
        # below 1 the absolute tolerance shrinks with the bracket, keeping small roots accurate relative to their size
        w = brentq(f, a, b, **{**_BRENTQ_KW, "xtol": _BRENTQ_KW["xtol"] * min(1.0, hi)})
        out.append(w * w)
    return out
