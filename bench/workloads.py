"""The benchmark's workloads: seeded inputs, one public call per operation, checks.

Each builder returns the fixed list of operations for a run of `rounds`
rounds.  Inputs are drawn from numpy's PCG64 seeded with (seed, workload
index); eigenplane receives only the resulting domains, maps and potentials.
Every operation carries its check and the perturbations the self-test
applies to show that the check rejects a wrong output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

import checks as ck
import reference as ref
from eigenplane import exact as ex
from eigenplane import experiments as xp
from eigenplane import fem
from eigenplane import geometry as g
from eigenplane import schrodinger as sch


@dataclass
class Op:
    """One public call and how to judge its output."""

    kind: str  # check family; the self-test takes one operation per kind
    call: Callable[[], object]
    check: Callable[[dict], None]
    perturb: tuple = ()
    known_fault: bool = False
    label: str = ""


BCS = {"dirichlet": ex.DIRICHLET, "neumann": ex.NEUMANN}


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_invertible(rng) -> np.ndarray:
    """Entries uniform in [-2, 2], |det| >= 0.1 (the criterion-7 distribution)."""
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        if abs(np.linalg.det(m)) >= 0.1:
            return m


# ---------------------------------------------------------------------------
# bound_matrix
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _model_sum(shape: str, kind: str, n: int) -> float:
    if shape == "equilateral":
        return float(ref.equilateral_eigs(1.0, kind, n).sum())
    return float(ref.rectangle_eigs(1.0, 1.0, kind, n).sum())


def _linear_map_op(kind, d, shape, m, bc, n, extra=None) -> Op:
    T = g.LinearMap2.from_array(m)
    coef = ref.hs_inverse_half(m)

    def check(r):
        ck.report_holds(r)
        if shape != "hexagon":
            ck.report_side(r, "rhs", coef * _model_sum(shape, bc.kind, n), ck.EXACT_REL)
        if extra is not None:
            extra(r)

    # a Neumann 1-sum is the kernel value 0, which no scaling perturbs
    scalable = shape != "hexagon" and not (bc.is_neumann_like and n == 1)
    perturb = (ck.flip_holds, ck.scale_report) if scalable else (ck.flip_holds,)
    return Op(kind, lambda: xp.verify_linear_map_bound(d, T, bc, n), check, perturb,
              label=f"{kind}/{shape}/{bc.kind}/n={n}")


def _hexagon_bracket(coef: float, kind: str, n: int):
    """Dirichlet: domain monotonicity between the circumscribed and inscribed disks.
    Neumann: Kroger's bound, sum of the first n values <= 2 pi n^2 / A."""
    area = 1.5 * math.sqrt(3.0)

    def check(r):
        s = r["rhs"] / coef
        if kind == "dirichlet":
            lo = ref.disk_eigs(1.0, kind, n).sum()
            hi = ref.disk_eigs(math.sqrt(3.0) / 2.0, kind, n).sum()
            ck.require(lo <= s <= hi, f"hexagon Dirichlet sum {s!r} outside disk bracket [{lo!r}, {hi!r}]")
        else:
            top = 2.0 * math.pi * n * n / area
            ck.require(-1e-9 * top <= s <= top, f"hexagon Neumann sum {s!r} outside [0, {top!r}] (Kroger)")

    return check


def _right_isosceles_map(rng, triangle: np.ndarray) -> tuple[np.ndarray, float]:
    """Map sending the equilateral triangle onto a right isosceles one with legs L."""
    leg = rng.uniform(0.6, 1.8)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    corner = int(rng.integers(0, 3))
    target = np.zeros((3, 2))
    target[(corner + 1) % 3] = leg * np.array([math.cos(theta), math.sin(theta)])
    target[(corner + 2) % 3] = leg * np.array([-math.sin(theta), math.cos(theta)])
    if rng.uniform() < 0.5:
        target[:, 1] *= -1.0
    P = (triangle[1:] - triangle[0]).T
    Q = (target[1:] - target[0]).T
    return Q @ np.linalg.inv(P), leg


def bound_matrix(rng, rounds: int, cli) -> list[Op]:
    eq, sq, hexagon = g.equilateral_triangle(), g.square(1.0), g.regular_polygon(6)
    ops: list[Op] = []
    for _ in range(rounds):
        for _ in range(10):
            m = random_invertible(rng)
            for shape, d in (("equilateral", eq), ("square", sq)):
                for bc in BCS.values():
                    for n in range(1, 7):
                        ops.append(_linear_map_op("random_map", d, shape, m, bc, n))
        # Neumann hexagon reports are the slowest operations; twenty per run put
        # op_tail_ms (the 11th slowest) in the middle of that group
        for bc in (ex.DIRICHLET,) + (ex.NEUMANN,) * 4:
            m = random_invertible(rng)
            n = int(rng.integers(1, 7))
            extra = _hexagon_bracket(ref.hs_inverse_half(m), bc.kind, n)
            ops.append(_linear_map_op("hexagon", hexagon, "hexagon", m, bc, n, extra))
        for k in range(4):
            scale = rng.uniform(0.4, 2.5)
            flip = np.diag([1.0, 1.0 if rng.uniform() < 0.5 else -1.0])
            m = scale * _rotation(rng.uniform(0.0, 2.0 * math.pi)) @ flip
            shape, d = (("equilateral", eq), ("square", sq))[k % 2]
            bc = (ex.DIRICHLET, ex.NEUMANN)[k // 2]
            ops.append(_linear_map_op("scalar_orthogonal", d, shape, m, bc, int(rng.integers(1, 7)),
                                      ck.report_equality))
        for k in range(4):
            m, leg = _right_isosceles_map(rng, eq.vertices)
            bc = (ex.DIRICHLET, ex.NEUMANN)[k % 2]
            n = int(rng.integers(1, 7))
            exact_lhs = float(ref.right_isosceles_eigs(leg, bc.kind, n).sum())

            def lhs_closed_form(r, exact_lhs=exact_lhs):
                ck.require(abs(r["lhs"] - exact_lhs) <= r["tolerance"],
                           f"right-isosceles lhs {r['lhs']!r} vs closed form {exact_lhs!r} beyond tolerance")

            ops.append(_linear_map_op("right_isosceles", eq, "equilateral", m, bc, n, lhs_closed_form))
    return ops


# ---------------------------------------------------------------------------
# fine_spectra
# ---------------------------------------------------------------------------

ELLIPSE = (1.5, 0.6, 0.3)


@lru_cache(maxsize=None)
def _fine_reference(case: str) -> np.ndarray:
    if case == "disk/dirichlet":
        return ref.disk_eigs(1.0, "dirichlet", 5)
    if case == "disk/neumann":
        return ref.disk_eigs(1.0, "neumann", 5)
    if case == "ellipse/dirichlet":
        return ref.ellipse_dirichlet_eigs(ELLIPSE[0], ELLIPSE[1], 5, 34.0)
    if case == "square/dirichlet":
        return ref.rectangle_eigs(1.0, 1.0, "dirichlet", 5)
    if case == "square/robin":
        return ref.robin_square_eigs(1.0, 1.0, 5)
    if case == "equilateral/neumann":
        return ref.equilateral_eigs(1.0, "neumann", 5)
    raise KeyError(case)


def _spectrum_op(kind: str, d, bc, n: int, check) -> Op:
    return Op(kind, lambda: xp.spectrum_of(d, bc, n, engine="fem"), check, (ck.scale_values,), label=kind)


def _versus(case: str):
    return lambda s: ck.spectrum_close(s, _fine_reference(case), ck.FEM_REL, case)


def fine_spectra(rng, rounds: int, cli) -> list[Op]:
    def moved(poly: g.Polygon) -> g.Polygon:
        # a seeded rigid motion leaves the spectrum unchanged
        R = _rotation(rng.uniform(0.0, 2.0 * math.pi))
        return g.Polygon(poly.vertices @ R.T + rng.uniform(-1.0, 1.0, 2))

    a, b, theta = ELLIPSE

    def ellipse_check(s):
        _versus("ellipse/dirichlet")(s)
        ck.ellipse_properties(s, a, b, _fine_reference("disk/dirichlet"))

    ops: list[Op] = []
    for _ in range(rounds):
        for bc in (ex.DIRICHLET, ex.NEUMANN):
            disk = g.Ellipse(rng.uniform(-1.0, 1.0, 2), (1.0, 1.0))
            ops.append(_spectrum_op(f"disk/{bc.kind}", disk, bc, 5, _versus(f"disk/{bc.kind}")))
        ellipse = g.Ellipse(rng.uniform(-1.0, 1.0, 2), (a, b), theta)
        ops.append(_spectrum_op("ellipse/dirichlet", ellipse, ex.DIRICHLET, 5, ellipse_check))
        ops.append(_spectrum_op("square/dirichlet", moved(g.square(1.0)), ex.DIRICHLET, 5,
                                _versus("square/dirichlet")))
        ops.append(_spectrum_op("square/robin", moved(g.square(1.0)), ex.robin(1.0), 5, _versus("square/robin")))
        ops.append(_spectrum_op("equilateral/neumann", moved(g.equilateral_triangle()), ex.NEUMANN, 5,
                                _versus("equilateral/neumann")))
        for aperture, published in ref.PUBLISHED_ISOSCELES.items():
            factor = ref.isosceles_factor(aperture)

            def curve(s, factor=factor, published=published):
                ck.close([s["values"][0] * factor], [published], ck.PUBLISHED_REL, "published isosceles value")

            ops.append(_spectrum_op("isosceles", moved(g.isosceles_triangle(aperture)), ex.DIRICHLET, 1, curve))
    return ops


# ---------------------------------------------------------------------------
# schrodinger_fd
# ---------------------------------------------------------------------------

POTENTIALS = {
    "harmonic": (sch.harmonic(), sch.GridSpec()),
    "power": (sch.power_radial(4), sch.GridSpec()),
    "trisym": (sch.trisym(0.2), sch.GridSpec(6.0, 201)),
}


@lru_cache(maxsize=None)
def _fd_base(label: str) -> np.ndarray:
    """First four FD eigenvalues of the unmapped problem at h = 1."""
    W, grid = POTENTIALS[label]
    L, p = grid.half_width, grid.points_per_side
    if label == "harmonic":
        return ref.fd_separable_eigs(1.0, 1.0, 1.0, L, p, 4)
    potential = ref.quartic if label == "power" else ref.trisym_potential(0.2)
    return ref.fd_box_eigs(potential, 1.0, L, p, 4)


def _schrodinger_op(kind: str, label: str, m: np.ndarray, n: int, extra=None) -> Op:
    W, grid = POTENTIALS[label]
    T = g.LinearMap2.from_array(m)

    def check(r):
        ck.report_holds(r)
        ck.report_side(r, "rhs", float(_fd_base(label)[:n].sum()), ck.EXACT_REL)
        if extra is not None:
            extra(r)

    return Op(kind, lambda: xp.verify_schrodinger_bound(W, 1.0, T, n, grid), check,
              (ck.flip_holds, ck.scale_report), label=f"{kind}/{label}/n={n}")


def _lhs_close(want: float, rel: float):
    return lambda r: ck.report_side(r, "lhs", want, rel)


def _stretch_shear(rng) -> np.ndarray:
    """R(phi) [[s, t], [0, 1/s]] with singular values in [0.6, 1.7], so the box stays wide."""
    while True:
        s, t = rng.uniform(1.1, 1.5), rng.uniform(-0.4, 0.4)
        m = _rotation(rng.uniform(0.0, 2.0 * math.pi)) @ np.array([[s, t], [0.0, 1.0 / s]])
        sv = np.linalg.svd(m, compute_uv=False)
        if 0.6 <= sv[1] and sv[0] <= 1.7:
            return m


def schrodinger_fd(rng, rounds: int, cli) -> list[Op]:
    ops: list[Op] = []
    for _ in range(rounds):
        for label, (_, grid) in POTENTIALS.items():
            L, p = grid.half_width, grid.points_per_side
            # n is fixed per kind: the solve's cost depends on it, the maps' cost barely
            m = _stretch_shear(rng)
            n = 2
            extra = None
            if label == "harmonic":
                r1, r2 = np.linalg.svd(m, compute_uv=False)
                h_image = 2.0 / float(np.sum(np.linalg.inv(m) ** 2))
                extra = _lhs_close(float(ref.oscillator_eigs(h_image, r1, r2, n).sum()), ck.FD_CONTINUUM_REL)
            ops.append(_schrodinger_op("stretch_shear", label, m, n, extra))

            r1, r2 = rng.uniform(1.1, 1.6), rng.uniform(0.65, 0.95)
            n = 3
            extra = None
            if label == "harmonic":
                h_image = 2.0 / (r1**-2 + r2**-2)
                extra = _lhs_close(float(ref.fd_separable_eigs(h_image, r1, r2, L, p, n).sum()), ck.EXACT_REL)
            ops.append(_schrodinger_op("diagonal", label, np.diag([r1, r2]), n, extra))

            if label != "trisym":  # only radial potentials are fixed by a quarter turn
                sign = 1.0 if rng.uniform() < 0.5 else -1.0
                m = np.array([[0.0, -sign], [sign, 0.0]])
                ops.append(_schrodinger_op("quarter_turn", label, m, 4,
                                           lambda r: ck.report_equality(r, rel=ck.EXACT_REL)))
    return ops


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

SMALL_BOX = ["verify", "schrodinger", "--half-width", "1.5", "--points", "51", "--map", "2,0,0,1", "-n", "2"]


def cli_cold(rng, rounds: int, cli) -> list[Op]:
    ops: list[Op] = []
    for _ in range(rounds):
        seed = int(rng.integers(0, 100_000))
        tail = ["--seed", str(seed)]

        def op(kind, argv, check, perturb, known_fault=False, tail=tail):
            ops.append(Op(kind, lambda: cli(argv + tail), check, perturb, known_fault, " ".join(argv)))

        op("kroger", ["sweep", "kroger", "--shape", "disk", "--n-max", "100"],
           lambda c, s=seed: ck.kroger_rows(c, s, ref.kroger_disk_rows(100)), (ck.scale_csv,))
        op("winners", ["conjecture", "disk-vs-square", "--n-max", "50"],
           lambda c, s=seed: ck.winners(c, s, 50, ref.disk_vs_square_winners(50)), (ck.move_winner,))
        for kind in ("dirichlet", "neumann"):
            op("disk_exact", ["spectrum", "--shape", "disk", "--engine", "exact", "-n", "200", "--bc", kind],
               lambda c, s=seed, k=kind: ck.csv_values(c, s, ref.disk_eigs(1.0, k, 200)), (ck.scale_csv,))
        verify = ["verify", "theorem1", "--shape", "equilateral", "--random", "5", "--bc", "neumann", "-n", "3"]
        first: dict = {}

        def theorem1(c, s=seed, first=first):
            ck.theorem1_records(c, s, 5, 3, float(ref.equilateral_eigs(1.0, "neumann", 3).sum()))
            first.setdefault("out", c)

        op("theorem1", verify, theorem1, (ck.flip_first_record,))
        op("moments", ["moments", "--shape", "square"], lambda c, s=seed: ck.unit_square_moments(c, s),
           (ck.scale_area,))
        op("small_box", SMALL_BOX, lambda c: ck.widen_grid_message(c, 1.5), (ck.exit_zero,), known_fault=True)

        def repeated(c, theorem1=theorem1, first=first):
            ck.same_bytes(c, first["out"])
            theorem1(c)

        op("repeat", verify, repeated, (ck.flip_byte,))
    return ops


BUILDERS = {
    "bound_matrix": bound_matrix,
    "fine_spectra": fine_spectra,
    "schrodinger_fd": schrodinger_fd,
    "cli_cold": cli_cold,
}


def build(workload: str, seed: int, rounds: int, cli) -> list[Op]:
    rng = np.random.default_rng([seed, list(BUILDERS).index(workload)])
    return BUILDERS[workload](rng, rounds, cli)


def warm_up(workload: str, cli) -> None:
    """Small untimed calls that load what the first timed operation would."""
    if workload == "bound_matrix":
        xp.verify_linear_map_bound(g.equilateral_triangle(), g.LinearMap2.diagonal(1.3, 0.8), ex.DIRICHLET, 2)
        xp.verify_linear_map_bound(g.square(1.0), g.LinearMap2(1.0, 0.4, 0.0, 1.0), ex.NEUMANN, 2)
    elif workload == "fine_spectra":
        xp.spectrum_of(g.square(1.0), ex.DIRICHLET, 2, engine="fem", opts=fem.FemOptions(max_refinement=3))
        disk = g.Ellipse((0.0, 0.0), (1.0, 1.0))
        xp.spectrum_of(disk, ex.NEUMANN, 2, engine="fem", opts=fem.FemOptions(max_refinement=2, dense_threshold=100))
    elif workload == "schrodinger_fd":
        xp.verify_schrodinger_bound(sch.harmonic(), 1.0, g.LinearMap2.diagonal(1.2, 0.8), 1, sch.GridSpec(8.0, 51))
    else:
        cli(["moments", "--shape", "square"])
