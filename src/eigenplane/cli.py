"""Command-line front end: spectra, bound verification, sweeps, conjecture scans.

Exit codes: 0 success (all checked inequalities hold), 1 a verified bound was
violated, 2 usage or configuration error (including a size, angle or
coefficient whose area, moments, spectrum or bound leaves double precision),
3 numerical failure (an eigensolver did not converge, the Schrodinger box is
too small, or a comparison's margin is too small to decide).  Every output
records the seed, and identical invocations are byte-identical.

Each leaf command (`spectrum`, `moments`, `verify theorem1`, `sweep kroger`,
...) accepts only the options its handler reads, so `eigenplane verify robin
--help` lists exactly those.  Any other option, and any abbreviated flag, is
a usage error: exit 2 with one `error:` line on stderr.  So is an option that
the value of another leaves unread, such as `--l1` without `--shape
rectangle`, `--sigma` without `--bc robin`, `--q` without `--potential
power`, `--beta` without `--potential trisym`, `--map` with `--random N`,
or `--steps`, `--from` or `--to` with `--apertures`.  `--levels` and
`--no-extrapolate` are refused the same way, before anything is written,
when no spectrum, row or report the command made came from FEM: with
`--engine exact`, or where every domain involved has a closed-form spectrum
(`spectrum --shape disk`, or `verify quad` with its default pieces).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import experiments as xp
from . import fem, schrodinger
from .exact import DIRICHLET, NEUMANN, BoundarySpec, NumericalFailure, robin
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


def _parse_bc(name: str, sigma: float) -> BoundarySpec:
    return robin(sigma) if name == "robin" else {"dirichlet": DIRICHLET, "neumann": NEUMANN}[name]


def _parse_map(text: str) -> LinearMap2:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 4:
        raise UsageError("--map needs four comma-separated entries a11,a12,a21,a22")
    try:
        a11, a12, a21, a22 = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad --map entry: {exc}") from exc
    T = LinearMap2(a11, a12, a21, a22)
    if not (math.isfinite(T.det) and math.isfinite(T.hs_norm_sq())):  # a non-finite entry makes both so
        raise UsageError("--map entries, determinant and HS norm must be finite")
    return T


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
    if not args.domain_file:  # --shape file
        raise UsageError("--shape file requires --domain-file")
    with open(args.domain_file) as f:
        return domain_from_text(f.read())


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _refuse_unread_fem(args, methods) -> None:
    """Refuse --levels or --no-extrapolate when no spectrum the command made came from FEM."""
    unread = sorted(set(getattr(args, "given", ())) & {"levels", "no_extrapolate"})
    if unread and "fem" not in methods:
        flag = unread[0].replace("_", "-")
        raise UsageError(f"--{flag} is read only by the FEM engine, and no spectrum here came from it")


def _csv(args, rows: list[xp.SweepRow]) -> int:
    """Write the rows as seeded CSV; exit code 0."""
    _refuse_unread_fem(args, {r.method for r in rows})
    _emit(args, f"# seed={args.seed}\n" + xp.rows_to_csv(rows))
    return 0


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
    return _csv(args, rows)


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
    _emit(args, json.dumps(rec, sort_keys=True, allow_nan=False) + "\n")  # NaN and Infinity are not JSON
    return 0


def _report_block(args, reports: list[xp.BoundReport]) -> int:
    _refuse_unread_fem(args, {r.inputs.get(side) for r in reports for side in ("lhs_method", "rhs_method")})
    recs = []
    for r in reports:
        rec = json.loads(r.to_json())
        rec["seed"] = args.seed
        recs.append(json.dumps(rec, sort_keys=True, allow_nan=False))
    _emit(args, "\n".join(recs) + "\n")
    return 0 if all(r.holds for r in reports) else 1


def _verify_theorem1(args) -> int:
    opts = _fem_opts(args)
    if args.random < 0:
        raise UsageError("--random must be >= 0")
    bc = _parse_bc(args.bc, 0.0)
    d = _domain_from_args(args)
    maps = xp.random_invertible_maps(args.random, args.seed) if args.random else [_parse_map(args.map)]
    return _report_block(args, [xp.verify_linear_map_bound(d, T, bc, args.n, opts) for T in maps])


def _verify_robin(args) -> int:
    opts = _fem_opts(args)
    d = _domain_from_args(args)
    return _report_block(args, [xp.verify_robin_bound(d, _parse_map(args.map), args.sigma, args.n, opts)])


def _verify_schrodinger(args) -> int:
    W = {"harmonic": schrodinger.harmonic, "power": lambda: schrodinger.power_radial(args.q),
         "trisym": lambda: schrodinger.trisym(args.beta)}[args.potential]()
    grid = schrodinger.GridSpec(args.half_width, args.points)
    return _report_block(args, [xp.verify_schrodinger_bound(W, args.h, _parse_map(args.map), args.n, grid)])


def _verify_quad(args) -> int:
    opts = _fem_opts(args)
    bc = _parse_bc(args.bc, 0.0)
    return _report_block(args, [xp.verify_quad_bound(_parse_pieces(args.pieces), bc, args.n, opts)])


def _sweep_isosceles(args) -> int:
    bc = _parse_bc(args.bc, args.sigma)
    return _csv(args, xp.sweep_isosceles(args.n, _apertures(args), bc, _fem_opts(args)))


def _sweep_rectangles(args) -> int:
    return _csv(args, xp.rectangle_sum_family(args.n, _parse_floats(args.aspects)))


def _sweep_kroger(args) -> int:
    kroger, weyl = xp.kroeger_weyl_check(args.shape, args.n_max)
    rows = kroger if args.series == "kroger" else weyl
    _csv(args, rows)
    return int(args.series == "kroger" and any(r.value > 2.0 * math.pi for r in rows))


def _conjecture_disk_vs_square(args) -> int:
    winners = xp.disk_vs_square(args.n_max)
    rec = {"seed": args.seed, "n_max": args.n_max, "square_larger": sorted(winners)}
    _emit(args, json.dumps(rec, sort_keys=True) + "\n")
    return 0


def _conjecture_quad_inertia(args) -> int:
    bc = _parse_bc(args.bc, 0.0)
    rep = xp.quad_bound_centroid_variant(_parse_pieces(args.pieces), bc, args.n, _fem_opts(args))
    _report_block(args, [rep])
    return 0  # conjecture scans report, never fail


# ---------------------------------------------------------------------------
# argument plumbing: one parser leaf per handler, declaring only what it reads
# ---------------------------------------------------------------------------

class _Given:
    """Does what the argparse action it is mixed into does, and notes the option in `given`."""

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, values, option_string)
        namespace.given = getattr(namespace, "given", frozenset()) | {self.dest}


class _Store(_Given, argparse._StoreAction):
    pass


class _StoreTrue(_Given, argparse._StoreTrueAction):
    pass


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated flags and turns every parse error into a UsageError."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self.register("action", None, _Store)
        self.register("action", "store", _Store)
        self.register("action", "store_true", _StoreTrue)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


# options read only under some values of another option of the same leaf:
# dest -> (that option's dest, the values); None stands for that option left out
_READ_ONLY_WITH = {
    "side": ("shape", ("equilateral", "square")),
    "l1": ("shape", ("rectangle",)),
    "l2": ("shape", ("rectangle",)),
    "radius": ("shape", ("disk",)),
    "s1": ("shape", ("ellipse",)),
    "s2": ("shape", ("ellipse",)),
    "theta": ("shape", ("ellipse",)),
    "aperture": ("shape", ("isosceles",)),
    "domain_file": ("shape", ("file",)),
    "sigma": ("bc", ("robin",)),
    "q": ("potential", ("power",)),
    "beta": ("potential", ("trisym",)),
    "map": ("random", (0,)),
    "start": ("apertures", (None, "")),
    "stop": ("apertures", (None, "")),
    "steps": ("apertures", (None, "")),
}


def _refuse_unread(args) -> None:
    """Refuse an option given where the value of the option it depends on leaves it unread."""
    for dest in sorted(set(getattr(args, "given", ())) & set(_READ_ONLY_WITH)):
        on, values = _READ_ONLY_WITH[dest]
        if hasattr(args, on) and getattr(args, on) not in values:
            flag = {"start": "from", "stop": "to"}.get(dest, dest).replace("_", "-")
            needs = f"without --{on}" if None in values else f"with --{on} {' or '.join(map(str, values))}"
            raise UsageError(f"--{flag} is read only {needs}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; command-line flags override")
    p.add_argument("--output", help="write results here instead of stdout")
    p.add_argument("--seed", type=int, default=0, help="seed recorded in the output")


def _add_fem(p: argparse.ArgumentParser) -> None:
    p.add_argument("--levels", type=int, default=5, help="finest FEM refinement level")
    p.add_argument("--no-extrapolate", action="store_true", help="skip Richardson extrapolation")


def _add_apertures(p: argparse.ArgumentParser) -> None:
    p.add_argument("--from", dest="start", type=float, default=0.3)
    p.add_argument("--to", dest="stop", type=float, default=2.8)
    p.add_argument("--steps", type=int, default=26)
    p.add_argument("--apertures", help="explicit comma-separated apertures")


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


def _leaf(sub, name: str, func, summary: str, *adders) -> argparse.ArgumentParser:
    """One leaf command: the --config/--output/--seed options, `adders`, and its handler."""
    p = sub.add_parser(name, help=summary)
    for add in (_add_common, *adders):
        add(p)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="eigenplane", description="Eigenvalue sums of plane domains: spectra, bounds, sweeps.")
    sub = ap.add_subparsers(dest="command", required=True)
    map_opt = dict(default="1,0,0,1", help="linear map a11,a12,a21,a22")

    p = _leaf(sub, "spectrum", _cmd_spectrum, "first n eigenvalues of a domain", _add_shape, _add_fem)
    p.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann", "robin"])
    p.add_argument("--sigma", type=float, default=1.0, help="Robin parameter")
    p.add_argument("-n", "--n", dest="n", type=int, default=5)
    p.add_argument("--engine", default="auto", choices=["auto", "exact", "fem"])

    _leaf(sub, "moments", _cmd_moments, "area, centroid, moments of inertia", _add_shape)

    verify = sub.add_parser("verify", help="check one of the eigenvalue-sum bounds")
    bounds = verify.add_subparsers(dest="bound", required=True)
    p = _leaf(bounds, "theorem1", _verify_theorem1, "linear images of a symmetric domain", _add_shape, _add_fem)
    p.add_argument("--map", **map_opt)
    p.add_argument("--random", type=int, default=0, help="use this many seeded random maps instead")
    p.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann"])
    p.add_argument("-n", "--n", dest="n", type=int, default=1)
    p = _leaf(bounds, "robin", _verify_robin, "the Robin analogue", _add_shape, _add_fem)
    p.add_argument("--map", **map_opt)
    p.add_argument("--sigma", type=float, default=1.0, help="Robin parameter")
    p.add_argument("-n", "--n", dest="n", type=int, default=1)
    p = _leaf(bounds, "schrodinger", _verify_schrodinger, "the Schrodinger analogue")
    p.add_argument("--map", **map_opt)
    p.add_argument("-n", "--n", dest="n", type=int, default=1)
    p.add_argument("--potential", default="harmonic", choices=["harmonic", "power", "trisym"])
    p.add_argument("--q", type=int, default=4, help="power potential exponent")
    p.add_argument("--beta", type=float, default=schrodinger.DEFAULT_TRISYM_BETA, help="trisym coefficient")
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--half-width", type=float, default=8.0)
    p.add_argument("--points", type=int, default=201)
    p = _leaf(bounds, "quad", _verify_quad, "the equal-area-half quadrilateral bound", _add_fem)
    p.add_argument("--pieces", default="1,1,0,0", help="piecewise map a,b,c_plus,c_minus")
    p.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann"])
    p.add_argument("-n", "--n", dest="n", type=int, default=1)

    sweep = sub.add_parser("sweep", help="tabulate the normalized sum over a family")
    families = sweep.add_subparsers(dest="family", required=True)
    p = _leaf(families, "isosceles", _sweep_isosceles, "isosceles triangles by aperture", _add_apertures, _add_fem)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann", "robin"])
    p.add_argument("--sigma", type=float, default=1.0, help="Robin parameter")
    p = _leaf(families, "rectangles", _sweep_rectangles, "rectangles by aspect ratio")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--aspects", default="1,1.2,1.5", help="rectangle aspect ratios")
    p = _leaf(families, "kroger", _sweep_kroger, "the Neumann sum bound and the Weyl trend")
    p.add_argument("--shape", default="square", choices=["square", "disk", "equilateral"])
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--series", default="kroger", choices=["kroger", "weyl"])

    conjecture = sub.add_parser("conjecture", help="exploratory scans (never fail the run)")
    scans = conjecture.add_subparsers(dest="scan", required=True)
    p = _leaf(scans, "c1", _sweep_isosceles, "Dirichlet fundamental tone over isosceles apertures",
              _add_apertures, _add_fem)
    p.set_defaults(n=1, bc="dirichlet", sigma=0.0)
    p = _leaf(scans, "disk-vs-square", _conjecture_disk_vs_square, "the n where the square beats the disk")
    p.add_argument("--n-max", type=int, default=50)
    p = _leaf(scans, "quad-inertia", _conjecture_quad_inertia,
              "the quadrilateral bound with the centroidal moment", _add_fem)
    p.add_argument("--pieces", default="1,1,0.3,-0.2", help="piecewise map a,b,c_plus,c_minus")
    p.add_argument("--bc", default="dirichlet", choices=["dirichlet", "neumann"])
    p.add_argument("--n", type=int, default=1)

    return ap


def _apply_config(argv: list[str]) -> list[str]:
    """Splice key=value pairs from a --config file in ahead of explicit flags.

    The file is named as `--config PATH` or `--config=PATH`, at most once.
    """
    found = [i for i, a in enumerate(argv) if a == "--config" or a.startswith("--config=")]
    if not found:
        return argv
    if len(found) > 1:
        raise UsageError("--config given more than once")
    i = found[0]
    if argv[i] != "--config":
        path, rest = argv[i].partition("=")[2], argv[:i] + argv[i + 1:]
    elif i + 1 < len(argv):
        path, rest = argv[i + 1], argv[:i] + argv[i + 2:]
    else:
        raise UsageError("--config needs a file path")
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
        _refuse_unread(args)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an option whose size leaves double precision, where no check names it
        print(f"error: arithmetic beyond double precision: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
