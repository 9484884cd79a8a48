"""Command-line front end: spectra, bound verification, sweeps, conjecture scans.

Exit codes: 0 success (all checked inequalities hold), 1 a verified bound was
violated, 2 usage or configuration error, 3 numerical failure (an eigensolver
did not converge, or the Schrodinger box is too small).  Every output records
the seed, and identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import experiments as xp
from . import fem, schrodinger
from .exact import DIRICHLET, NEUMANN, BoundarySpec, robin
from .geometry import (
    Ellipse,
    LinearMap2,
    PiecewiseLinearMap,
    domain_from_text,
    equilateral_triangle,
    isosceles_triangle,
    moments,
    rectangle,
    square,
)

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _parse_bc(name: str, sigma: float) -> BoundarySpec:
    if name == "dirichlet":
        return DIRICHLET
    if name == "neumann":
        return NEUMANN
    if name == "robin":
        return robin(sigma)
    raise UsageError(f"unknown boundary condition {name!r}")


def _parse_map(text: str) -> LinearMap2:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 4:
        raise UsageError("--map needs four comma-separated entries a11,a12,a21,a22")
    try:
        a11, a12, a21, a22 = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad --map entry: {exc}") from exc
    return LinearMap2(a11, a12, a21, a22)


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"bad numeric list: {exc}") from exc


def _parse_pieces(text: str) -> PiecewiseLinearMap:
    pieces = _parse_floats(text)
    if len(pieces) != 4:
        raise UsageError("--pieces needs a,b,c_plus,c_minus")
    return PiecewiseLinearMap(*pieces)


def _apertures(args) -> list[float]:
    """--apertures if given, else --steps evenly spaced apertures from --from to --to."""
    if args.apertures:
        return _parse_floats(args.apertures)
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    return [args.start + i * (args.stop - args.start) / (args.steps - 1) for i in range(args.steps)]


def _domain_from_args(args) -> object:
    shape = args.shape
    for name in ("side", "l1", "l2", "radius", "s1", "s2"):
        if getattr(args, name, 1.0) <= 0:
            raise UsageError(f"--{name} must be positive")
    if shape == "equilateral":
        return equilateral_triangle(args.side)
    if shape == "square":
        return square(args.side)
    if shape == "rectangle":
        return rectangle(args.l1, args.l2)
    if shape == "disk":
        return Ellipse((0.0, 0.0), (args.radius, args.radius))
    if shape == "ellipse":
        return Ellipse((0.0, 0.0), (args.s1, args.s2), args.theta)
    if shape == "isosceles":
        return isosceles_triangle(args.aperture)
    if shape == "file":
        if not args.domain_file:
            raise UsageError("--shape file requires --domain-file")
        with open(args.domain_file) as f:
            return domain_from_text(f.read())
    raise UsageError(f"unknown shape {shape!r}")


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _csv(args, rows: list[xp.SweepRow]) -> str:
    return f"# seed={args.seed}\n" + xp.rows_to_csv(rows)


def _fem_opts(args) -> fem.FemOptions:
    return fem.FemOptions(max_refinement=args.levels, extrapolate=not args.no_extrapolate)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_spectrum(args) -> int:
    bc = _parse_bc(args.bc, args.sigma)
    d = _domain_from_args(args)
    spec = xp.spectrum_of(d, bc, args.n, engine=args.engine, opts=_fem_opts(args))
    rows = [
        xp.SweepRow(float(i + 1), float(v), spec.method, float(e))
        for i, (v, e) in enumerate(zip(spec.values, spec.error_estimates))
    ]
    _emit(args, _csv(args, rows))
    return 0


def _cmd_moments(args) -> int:
    d = _domain_from_args(args)
    m = moments(d)
    rec = {
        "seed": args.seed,
        "area": m.area,
        "centroid": list(m.centroid),
        "moment_matrix": [list(r) for r in m.moment_matrix],
        "inertia_centroid": m.inertia_centroid,
        "inertia_origin": m.inertia_origin,
        "perimeter": m.perimeter,
    }
    _emit(args, json.dumps(rec, sort_keys=True) + "\n")
    return 0


def _report_block(args, reports: list[xp.BoundReport]) -> int:
    recs = []
    for r in reports:
        rec = json.loads(r.to_json())
        rec["seed"] = args.seed
        recs.append(json.dumps(rec, sort_keys=True))
    _emit(args, "\n".join(recs) + "\n")
    return 0 if all(r.holds for r in reports) else 1


def _cmd_verify(args) -> int:
    opts = _fem_opts(args)
    if args.random < 0:
        raise UsageError("--random must be >= 0")
    if args.random and args.bound != "theorem1":
        raise UsageError(f"--random applies only to theorem1, not to {args.bound}")
    if args.bound == "theorem1":
        bc = _parse_bc(args.bc, 0.0)
        d = _domain_from_args(args)
        if args.random:
            maps = xp.random_invertible_maps(args.random, args.seed)
        else:
            maps = [_parse_map(args.map)]
        reports = [xp.verify_linear_map_bound(d, T, bc, args.n, opts) for T in maps]
        return _report_block(args, reports)
    if args.bound == "robin":
        d = _domain_from_args(args)
        reports = [xp.verify_robin_bound(d, _parse_map(args.map), args.sigma, args.n, opts)]
        return _report_block(args, reports)
    if args.bound == "schrodinger":
        if args.potential == "harmonic":
            W = schrodinger.harmonic()
        elif args.potential == "power":
            W = schrodinger.power_radial(args.q)
        elif args.potential == "trisym":
            W = schrodinger.trisym(args.beta)
        else:
            raise UsageError(f"unknown potential {args.potential!r}")
        grid = schrodinger.GridSpec(args.half_width, args.points)
        reports = [xp.verify_schrodinger_bound(W, args.h, _parse_map(args.map), args.n, grid)]
        return _report_block(args, reports)
    if args.bound == "quad":
        bc = _parse_bc(args.bc, 0.0)
        reports = [xp.verify_quad_bound(_parse_pieces(args.pieces), bc, args.n, opts)]
        return _report_block(args, reports)
    raise UsageError(f"unknown bound {args.bound!r}")


# sweep options that only the isosceles family reads: (flag, dest, default);
# the parser leaves them None so that the other families can refuse them
_ISOSCELES_OPTIONS = [
    ("--from", "start", 0.3),
    ("--to", "stop", 2.8),
    ("--steps", "steps", 26),
    ("--apertures", "apertures", None),
    ("--bc", "bc", "dirichlet"),
    ("--sigma", "sigma", 1.0),
]


def _cmd_sweep(args) -> int:
    given = [flag for flag, dest, _ in _ISOSCELES_OPTIONS if getattr(args, dest) is not None]
    if given and args.family != "isosceles":
        raise UsageError(f"{given[0]} applies only to sweep isosceles, not to {args.family}")
    if args.family == "isosceles":
        for _, dest, default in _ISOSCELES_OPTIONS:
            if getattr(args, dest) is None:
                setattr(args, dest, default)
        bc = _parse_bc(args.bc, args.sigma)
        rows = xp.sweep_isosceles(args.n, _apertures(args), bc, _fem_opts(args))
        _emit(args, _csv(args, rows))
        return 0
    if args.family == "rectangles":
        rows = xp.rectangle_sum_family(args.n, _parse_floats(args.aspects))
        _emit(args, _csv(args, rows))
        return 0
    if args.family == "kroger":
        kroger, weyl = xp.kroeger_weyl_check(args.shape, args.n_max)
        rows = kroger if args.series == "kroger" else weyl
        bound = 2.0 * math.pi
        _emit(args, _csv(args, rows))
        if args.series == "kroger" and any(r.value > bound for r in rows):
            return 1
        return 0
    raise UsageError(f"unknown sweep family {args.family!r}")


def _cmd_conjecture(args) -> int:
    if args.scan == "c1":
        apertures = _apertures(args)
        grid = [isosceles_triangle(a) for a in apertures]
        rows = xp.conjecture_scan_c1(grid, _fem_opts(args))
        # re-key rows by aperture for readability
        rows = [xp.SweepRow(a, r.value, r.method, r.error) for a, r in zip(apertures, rows)]
        _emit(args, _csv(args, rows))
        return 0
    if args.scan == "disk-vs-square":
        winners = xp.disk_vs_square(args.n_max)
        rec = {"seed": args.seed, "n_max": args.n_max, "square_larger": sorted(winners)}
        _emit(args, json.dumps(rec, sort_keys=True) + "\n")
        return 0
    if args.scan == "quad-inertia":
        bc = _parse_bc(args.bc, 0.0)
        rep = xp.quad_bound_centroid_variant(_parse_pieces(args.pieces), bc, args.n, _fem_opts(args))
        _report_block(args, [rep])
        return 0  # conjecture scans report, never fail
    raise UsageError(f"unknown conjecture scan {args.scan!r}")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; command-line flags override")
    p.add_argument("--output", help="write results here instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="seed recorded in the output")
    p.add_argument("--levels", type=int, default=5, help="finest FEM refinement level")
    p.add_argument("--no-extrapolate", action="store_true", help="skip Richardson extrapolation")


def _add_shape(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", default="square",
                   choices=["equilateral", "square", "rectangle", "disk", "ellipse", "isosceles", "file"])
    p.add_argument("--side", type=float, default=1.0)
    p.add_argument("--l1", type=float, default=1.0)
    p.add_argument("--l2", type=float, default=1.0)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--s1", type=float, default=1.0)
    p.add_argument("--s2", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--aperture", type=float, default=math.pi / 3)
    p.add_argument("--domain-file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eigenplane",
                                 description="Eigenvalue sums of plane domains: spectra, bounds, sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="first n eigenvalues of a domain")
    _add_shape(p)
    p.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann", "robin"])
    p.add_argument("--sigma", type=float, default=1.0, help="Robin parameter")
    p.add_argument("-n", "--n", dest="n", type=int, default=5)
    p.add_argument("--engine", default="auto", choices=["auto", "exact", "fem"])
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("moments", help="area, centroid, moments of inertia")
    _add_shape(p)
    _add_common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("verify", help="check one of the eigenvalue-sum bounds")
    p.add_argument("bound", choices=["theorem1", "robin", "schrodinger", "quad"])
    _add_shape(p)
    p.add_argument("--map", default="1,0,0,1", help="linear map a11,a12,a21,a22")
    p.add_argument("--random", type=int, default=0, help="use this many seeded random maps instead")
    p.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann"])
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("-n", "--n", dest="n", type=int, default=1)
    p.add_argument("--pieces", default="1,1,0,0", help="piecewise map a,b,c_plus,c_minus")
    p.add_argument("--potential", default="harmonic", choices=["harmonic", "power", "trisym"])
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--beta", type=float, default=schrodinger.DEFAULT_TRISYM_BETA)
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--half-width", type=float, default=8.0)
    p.add_argument("--points", type=int, default=201)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="tabulate the normalized sum over a family")
    p.add_argument("family", choices=["isosceles", "rectangles", "kroger"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--from", dest="start", type=float, help="isosceles only")
    p.add_argument("--to", dest="stop", type=float, help="isosceles only")
    p.add_argument("--steps", type=int, help="isosceles only")
    p.add_argument("--apertures", help="isosceles only: explicit comma-separated apertures")
    p.add_argument("--aspects", default="1,1.2,1.5", help="rectangle aspect ratios")
    p.add_argument("--bc", choices=["dirichlet", "neumann", "robin"], help="isosceles only")
    p.add_argument("--sigma", type=float, help="isosceles only")
    p.add_argument("--shape", default="square", choices=["square", "disk", "equilateral"])
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--series", default="kroger", choices=["kroger", "weyl"])
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("conjecture", help="exploratory scans (never fail the run)")
    p.add_argument("scan", choices=["c1", "disk-vs-square", "quad-inertia"])
    p.add_argument("--apertures")
    p.add_argument("--from", dest="start", type=float, default=0.3)
    p.add_argument("--to", dest="stop", type=float, default=2.8)
    p.add_argument("--steps", type=int, default=26)
    p.add_argument("--n-max", type=int, default=50)
    p.add_argument("--pieces", default="1,1,0.3,-0.2")
    p.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann"])
    p.add_argument("--n", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_conjecture)

    return ap


def _apply_config(argv: list[str]) -> list[str]:
    """Splice key=value pairs from a --config file in ahead of explicit flags."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    injected: list[str] = []
    for ln in lines:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise UsageError(f"config lines must be key=value, got {ln!r}")
        key, value = ln.split("=", 1)
        injected += [f"--{key.strip()}", value.strip()]
    # positionals (command names) stay first; injected flags precede explicit
    # ones so explicit flags win under argparse's last-wins rule
    n_pos = 0
    while n_pos < len(rest) and not rest[n_pos].startswith("-"):
        n_pos += 1
    return rest[:n_pos] + injected + rest[n_pos:]


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        argv = _apply_config(argv)
        args = ap.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (fem.SolverFailure, schrodinger.WidenGridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
