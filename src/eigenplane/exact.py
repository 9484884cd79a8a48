"""Closed-form spectra of model shapes, Bessel zeros, and 1D Robin eigenvalues.

Dirichlet/Neumann eigenvalues of equilateral triangles and rectangles come
from their classical lattice formulas; disk eigenvalues from Bessel zeros;
rectangle Robin eigenvalues from tensor sums of the 1D Robin problem.  Each
spectrum is a 2-D array of values, nondecreasing along every row and down the
first column, read in ascending order by one heap enumeration (_smallest):
complete with no cutoff, and it evaluates only the cells next to those it has
already taken.  More than MAX_EIGENVALUES values are refused up front.  Each
Bessel zero is solved once, into a grow-only table per order shared by all
callers, on a bracket that does not depend on how many zeros were asked for.
The table starts from a snapshot shipped as package data
(data/bessel_zeros.npz): the exact state it reaches from empty after the
MAX_EIGENVALUES-value disk spectra under Dirichlet and Neumann conditions.
The first Bessel zero asked for reads it, not the import of this module.
Since no bracket depends on what was solved before, growth past the snapshot
gives the same bits as growth from an empty table.

Every bracketed root (Bessel zeros, 1D Robin roots) is solved by _brentq, a
line-for-line port of Brent's zeroin (R. P. Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 4) as scipy's C brentq
(scipy/optimize/Zeros/brentq.c) implements it, so the roots equal scipy's
bit for bit without importing scipy.optimize.  scipy.special is imported
only when a zero beyond the snapshot is solved.
"""

from __future__ import annotations

import heapq
import math
import os
import sys
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
        # count_nonzero, not .any(): a fraction of the cost on the few values of a bound's partial sum
        if np.count_nonzero(self.values[1:] < self.values[:-1]):
            raise ValueError("eigenvalues must be sorted nondecreasing")
        if np.count_nonzero(self.error_estimates < 0):
            raise ValueError("error estimates must be nonnegative")
        finite = np.count_nonzero(np.isfinite(self.values)) + np.count_nonzero(np.isfinite(self.error_estimates))
        if finite < 2 * self.n:
            raise ValueError(f"{self.method} eigenvalues or error estimates beyond double precision")
        if self.method not in ("exact", "fem", "fd"):
            raise ValueError(f"unknown method tag {self.method!r}")

    @property
    def n(self) -> int:
        return len(self.values)

    def sum_first(self, k: int) -> float:
        if k > self.n:
            raise ValueError(f"spectrum holds {self.n} values, asked for {k}")
        return float(self.values[:k].sum())

    def error_sum(self, k: int) -> float:
        return float(self.error_estimates[:k].sum())


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


def _brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to xtol + rtol |x|.

    Brent's zeroin, step for step as scipy.optimize.brentq: the same
    evaluations in the same order and the same IEEE double arithmetic, so the
    same float.  A bracket without a sign change, or maxiter iterations
    without convergence, raises NumericalFailure.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise NumericalFailure(f"f({xpre!r}) and f({xcur!r}) have the same sign: no root is bracketed")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:  # C's inf or nan, which never passes the test below
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise NumericalFailure(f"no root converged in {maxiter} iterations on [{a!r}, {b!r}]; last {xcur!r}")

# (m, derivative) -> the first zeros of J_m (or J_m') found so far.  Tables only
# grow, and zero p is always solved on the same bracket, so each zero is solved
# once and its value never depends on how many zeros were asked for.  None until
# the first _zero call fills it from the snapshot.
_ZEROS: dict[tuple[int, bool], list[float]] | None = None
_ZEROS_LOCK = threading.Lock()
_SNAPSHOT = os.path.join(os.path.dirname(__file__), "data", "bessel_zeros.npz")


def _load_snapshot() -> dict[tuple[int, bool], list[float]]:
    """The zero tables shipped in _SNAPSHOT: row i holds the counts[i] zeros of order keys[i] = (m, derivative)."""
    with np.load(_SNAPSHOT, allow_pickle=False) as data:
        keys, counts, zeros = data["keys"], data["counts"], data["zeros"]
    ends = np.cumsum(counts).tolist()
    return {(m, bool(d)): zeros[end - count:end].tolist()
            for (m, d), count, end in zip(keys.tolist(), counts.tolist(), ends)}


def _save_snapshot(tables: dict[tuple[int, bool], list[float]]) -> None:
    """Write zero tables to _SNAPSHOT as _load_snapshot reads them, rows in key order."""
    keys = sorted(tables)
    np.savez(_SNAPSHOT,
             keys=np.array(keys, dtype=np.int64).reshape(-1, 2),
             counts=np.array([len(tables[key]) for key in keys], dtype=np.int64),
             zeros=np.array([z for key in keys for z in tables[key]], dtype=np.float64))


def _zero(m: int, p: int, derivative: bool = False) -> float:
    """The p-th positive zero of J_m, or of J_m' when `derivative` is set.

    Zeros of consecutive orders strictly interlace
    (j_{m-1,p} < j_{m,p} < j_{m-1,p+1}), so each bracket from order m-1
    contains exactly one zero of order m.  The base order m=0 is bracketed by
    a unit-step sign scan from 2, safe because J_0's zero spacing exceeds 2.9.
    For m >= 1 the zeros of J_m' interlace with those of J_m:
    m < j'_{m,1} < j_{m,1} < j'_{m,2} < j_{m,2} < ...; J_0' = -J_1.
    """
    global _ZEROS
    if derivative and m == 0:
        m, derivative = 1, False
    with _ZEROS_LOCK:
        if _ZEROS is None:
            _ZEROS = _load_snapshot()
        tables = _ZEROS
        table = tables.setdefault((m, derivative), [])
        if len(table) >= p:
            return table[p - 1]
        from scipy.special import jv, jvp

        # J_m's first p zeros need p + m - k zeros of each lower order k;
        # grow the short orders in a loop, from order 0 upward
        for k in range(m + 1):
            zs, want = tables.setdefault((k, False), []), p + m - k
            if k > 0:
                below = tables[(k - 1, False)]
                for i in range(len(zs), want):
                    zs.append(_brentq(lambda t: jv(k, t), below[i], below[i + 1], **_BRENTQ_KW))
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
                        zs.append(_brentq(lambda t: jv(0, t), x, x2, **_BRENTQ_KW))
                    x, fx = x2, fx2
        if derivative:
            brackets = [float(m)] + tables[(m, False)]
            for i in range(len(table), p):
                table.append(_brentq(lambda t: jvp(m, t), brackets[i], brackets[i + 1], **_BRENTQ_KW))
        return table[p - 1]


def bessel_zero(req: BesselZeroRequest) -> float:
    """Positive zero j_{m,p} of J_m, or j'_{m,p} of J_m', to ~1e-12 absolute."""
    return _zero(req.m, req.p, req.derivative)


# ---------------------------------------------------------------------------
# lattice spectra
# ---------------------------------------------------------------------------

def _check_count(n: int) -> None:
    if n < 1:
        raise ValueError("need n >= 1")
    if n > MAX_EIGENVALUES:
        raise ValueError(f"asked for {n} exact eigenvalues, more than {MAX_EIGENVALUES}")


def _smallest(value, n: int, start: int = 0) -> np.ndarray:
    """The n smallest of value(i, j) over integers i, j >= start, ascending.

    value must be nondecreasing along each row (in j) and down the first
    column (in i at j = start).  Then each cell's parent, (i, j - 1) or
    (i - 1, start), is no larger than the cell, and a heap of the children of
    the cells popped so far pops every cell in order: complete without a
    cutoff, however thin the array.
    """
    heap = [(value(start, start), start, start)]
    out = np.empty(n)
    for k in range(n):
        out[k], i, j = heapq.heappop(heap)
        heapq.heappush(heap, (value(i, j + 1), i, j + 1))
        if j == start:
            heapq.heappush(heap, (value(i + 1, start), i + 1, start))
    return out


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
    scale = 16.0 * math.pi**2 / (9.0 * side * side)
    vals = scale * _smallest(lambda j1, j2: j1 * j1 + j1 * j2 + j2 * j2, n, 1 if bc.is_dirichlet else 0)
    return Spectrum(vals, "exact", 1e-14 * vals)


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
    value = lambda j1, j2: math.pi**2 * ((j1 / l1) ** 2 + (j2 / l2) ** 2)  # noqa: E731
    out = _smallest(value, n, 1 if bc.is_dirichlet else 0)
    return Spectrum(out, "exact", 1e-14 * np.maximum(out, 1.0))


def _rectangle_robin(l1: float, l2: float, sigma: float, n: int) -> Spectrum:
    r1: list[float] = []
    r2: list[float] = []

    def value(i: int, j: int) -> float:
        # each side's roots are solved as the enumeration first reaches them
        for r, l, k in ((r1, l1, i), (r2, l2, j)):
            if k == len(r):
                r += _robin_roots(l, sigma, k, k + 1)
        return r1[i] + r2[j]

    vals = _smallest(value, n)
    return Spectrum(vals, "exact", 1e-11 * np.maximum(vals, 1.0))


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
    neumann = not bc.is_dirichlet

    def value(row: int, p: int) -> float:
        # rows 2m - 1 and 2m both hold order m, one row per mode.  Under Neumann
        # the constant mode heads order 0; first zeros increase with the order,
        # so the first column is nondecreasing
        m = (row + 1) // 2
        if neumann and m == 0:
            if p == 0:
                return 0.0
            p -= 1
        z = _zero(m, p + 1, neumann)
        return z * z

    try:
        square = radius**2
    except OverflowError:
        square = math.inf
    if not sys.float_info.min <= square < math.inf:
        raise ValueError(f"a disk of radius {radius:g} has eigenvalues beyond double precision")
    with np.errstate(over="ignore"):  # a value beyond double precision is refused by Spectrum
        out = _smallest(value, n) / square
        err = 2.0 * np.sqrt(np.maximum(out, 0.0)) * 1e-12 / radius
    return Spectrum(out, "exact", err)


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
        if not f(a) * f(b) <= 0:
            # a huge sigma puts the root within an ulp of hi, or overflows f to NaN
            raise NumericalFailure(f"no bracket holds the Robin root k={k} of (0, {l:g}) at sigma={sigma:g}: "
                                   f"sigma is too large for double precision")
        # below 1 the absolute tolerance shrinks with the bracket, keeping small roots accurate relative to their size
        w = _brentq(f, a, b, **{**_BRENTQ_KW, "xtol": _BRENTQ_KW["xtol"] * min(1.0, hi)})
        out.append(w * w)
    return out
