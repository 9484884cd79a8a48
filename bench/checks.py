"""Checks on eigenplane's outputs, and the perturbations each check must reject.

Outputs are first reduced to plain data (see `summarize`): a spectrum to its
eigenvalues, a bound report to its fields, a CLI invocation to its exit code
and streams.  Every check raises CheckError on a wrong output.  Reference
values come from `reference`, which imports nothing from eigenplane.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from reference import hs_inverse_half

#: Relative tolerance for FEM eigenvalues at refinement level 5 against closed
#: forms.  The worst error today is 3.3e-4; a 1e-3 scaling must still fail.
FEM_REL = 5e-4
#: Relative tolerance against the published isosceles curve (4 decimals).
#: The worst error today is 5.0e-4, at aperture 2.0944.
PUBLISHED_REL = 7e-4
#: Exact engines and own re-computations of the same discrete problem.
EXACT_REL = 1e-9
#: Continuous oscillator against the 201-point FD grid, whose error is ~1e-3.
FD_CONTINUUM_REL = 3e-3

CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


class CheckError(Exception):
    """An output disagrees with its reference or property."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def summarize(out):
    """Plain-data view of one operation's output."""
    if isinstance(out, dict):  # CLI invocation
        return out
    if hasattr(out, "holds"):  # BoundReport
        return {k: getattr(out, k) for k in ("lhs", "rhs", "slack", "tolerance", "holds", "inputs")}
    return {"values": np.asarray(out.values, dtype=float)}  # Spectrum


def close(got, want, rel: float, what: str, abs_floor: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{what}: got {got.shape} values, want {want.shape}")
    err = np.abs(got - want)
    bad = err > rel * np.abs(want) + abs_floor
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckError(f"{what}: value {i + 1} is {got[i]!r}, reference {want[i]!r} (rel tol {rel:g})")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def spectrum_close(s: dict, ref, rel: float, what: str) -> None:
    ref = np.asarray(ref, dtype=float)
    # a zero reference (Neumann kernel) is met to 1e-8 of the spectrum's scale
    close(s["values"], ref, rel, what, abs_floor=1e-8 * float(np.max(np.abs(ref))) * (ref == 0))


def ellipse_properties(s: dict, a: float, b: float, disk_dirichlet) -> None:
    """Faber-Krahn and the linear-map disk bound for the ellipse diag(a, b)(unit disk)."""
    v = s["values"]
    require(v[0] >= disk_dirichlet[0] / (a * b), f"Faber-Krahn: lambda_1 {v[0]!r} < {disk_dirichlet[0] / (a * b)!r}")
    coef = 0.5 * (a**-2 + b**-2)
    lhs = np.cumsum(v)
    rhs = coef * np.cumsum(disk_dirichlet[: len(v)])
    require(bool(np.all(lhs <= rhs)), f"disk bound: sums {lhs.tolist()} exceed {rhs.tolist()}")


def scale_values(s: dict, factor: float = 1.0 + 1e-3) -> dict:
    return {**s, "values": np.asarray(s["values"]) * factor}


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

def report_holds(r: dict) -> None:
    """The report is self-consistent and the bound holds."""
    require(r["holds"] is True, f"bound reported violated: {r!r}")
    scale = max(abs(r["lhs"]), abs(r["rhs"]))
    require(abs(r["slack"] - (r["rhs"] - r["lhs"])) <= 1e-12 * scale, "slack != rhs - lhs")
    require(r["slack"] >= -r["tolerance"], f"holds=True with slack {r['slack']!r} < -tolerance {r['tolerance']!r}")


def report_side(r: dict, side: str, ref: float, rel: float) -> None:
    close([r[side]], [ref], rel, side)


def report_equality(r: dict, rel: float | None = None) -> None:
    """Equality case: |slack| <= tolerance, or <= rel * rhs when rel is given."""
    limit = r["tolerance"] if rel is None else rel * abs(r["rhs"])
    require(abs(r["slack"]) <= limit, f"equality case has |slack| {abs(r['slack'])!r} > {limit!r}")


def flip_holds(r: dict) -> dict:
    return {**r, "holds": not r["holds"]}


def scale_report(r: dict, factor: float = 1.0 + 1e-3) -> dict:
    """Both eigenvalue sums scaled; slack follows, the verdict stays."""
    return {**r, "lhs": r["lhs"] * factor, "rhs": r["rhs"] * factor, "slack": r["slack"] * factor}


# ---------------------------------------------------------------------------
# CLI invocations
# ---------------------------------------------------------------------------

def exit_code(c: dict, want: int) -> None:
    require(c["code"] == want, f"exit code {c['code']}, want {want}; stderr: {c['stderr'][-400:]!r}")


def csv_rows(c: dict, seed: int, count: int) -> np.ndarray:
    """Rows (param, value, error) of a sweep/spectrum CSV, format-checked."""
    lines = c["stdout"].splitlines()
    require(lines[:2] == [f"# seed={seed}", "param,value,method,error"], f"bad CSV header {lines[:2]!r}")
    require(len(lines) == count + 2, f"{len(lines) - 2} CSV rows, want {count}")
    rows = []
    for ln in lines[2:]:
        p, v, method, e = ln.split(",")
        require(method == "exact", f"method {method!r}, want exact")
        for cell in (p, v, e):
            require(bool(CELL.match(cell)), f"cell {cell!r} lacks 12 significant digits")
        rows.append((float(p), float(v), float(e)))
    rows = np.array(rows)
    close(rows[:, 0], np.arange(1, count + 1), 0.0, "CSV param column")
    return rows


def csv_values(c: dict, seed: int, ref, rel: float = EXACT_REL) -> np.ndarray:
    exit_code(c, 0)
    rows = csv_rows(c, seed, len(ref))
    ref = np.asarray(ref, dtype=float)
    close(rows[:, 1], ref, rel, "CSV values", abs_floor=1e-12 * float(np.max(np.abs(ref))) * (ref == 0))
    return rows[:, 1]


def scale_csv(c: dict, factor: float = 1.0 + 1e-3) -> dict:
    lines = c["stdout"].splitlines()
    out = lines[:2]
    for ln in lines[2:]:
        p, v, method, e = ln.split(",")
        out.append(f"{p},{float(v) * factor:.11e},{method},{e}")
    return {**c, "stdout": "\n".join(out) + "\n"}


def json_records(c: dict) -> list[dict]:
    return [json.loads(ln) for ln in c["stdout"].splitlines() if ln.strip()]


def winners(c: dict, seed: int, n_max: int, ref: list[int]) -> None:
    exit_code(c, 0)
    (rec,) = json_records(c)
    require(rec == {"n_max": n_max, "seed": seed, "square_larger": ref}, f"winner record {rec!r}, want {ref!r}")


def move_winner(c: dict) -> dict:
    rec = json.loads(c["stdout"])
    last = rec["square_larger"][-1]
    rec["square_larger"][-1] = last + 1
    return {**c, "stdout": json.dumps(rec, sort_keys=True) + "\n"}


def theorem1_records(c: dict, seed: int, count: int, n: int, rhs_sum: float) -> None:
    """Every record holds; each rhs is ||T^-1||_HS^2 / 2 times the closed-form n-sum."""
    recs = json_records(c)
    require(len(recs) == count, f"{len(recs)} records, want {count}")
    for r in recs:
        require(r["seed"] == seed and r["inputs"]["n"] == n, f"record inputs {r['inputs']!r}")
        report_holds(r)
        coef = hs_inverse_half(np.array(r["inputs"]["map"], dtype=float).reshape(2, 2))
        report_side(r, "rhs", coef * rhs_sum, EXACT_REL)
    exit_code(c, 0)


def flip_first_record(c: dict) -> dict:
    recs = json_records(c)
    recs[0]["holds"] = not recs[0]["holds"]
    return {**c, "stdout": "\n".join(json.dumps(r, sort_keys=True) for r in recs) + "\n"}


def unit_square_moments(c: dict, seed: int) -> None:
    exit_code(c, 0)
    (rec,) = json_records(c)
    require(rec.get("seed") == seed, "seed not recorded")
    got = [rec["area"], *rec["centroid"], *np.ravel(rec["moment_matrix"]), rec["inertia_centroid"],
           rec["inertia_origin"], rec["perimeter"]]
    want = [1.0, 0.0, 0.0, 1 / 12, 0.0, 0.0, 1 / 12, 1 / 6, 1 / 6, 4.0]
    close(got, want, 1e-12, "unit-square moments", abs_floor=1e-15)


def scale_area(c: dict) -> dict:
    rec = json.loads(c["stdout"])
    rec["area"] *= 1.0 + 1e-3
    return {**c, "stdout": json.dumps(rec, sort_keys=True) + "\n"}


def widen_grid_message(c: dict, half_width: float) -> None:
    """A too-small box must exit with its own code and one line naming the half-width."""
    require(c["code"] not in (0, 1), f"exit code {c['code']} is reserved for success / a violated bound")
    lines = c["stderr"].strip().splitlines()
    require(len(lines) == 1 and "Traceback" not in c["stderr"], f"stderr is not one line: {c['stderr'][-300:]!r}")
    m = re.search(r"half[-_ ]width\D*?(\d+(?:\.\d+)?)", lines[0])
    require(m is not None and float(m.group(1)) > half_width, f"no suggested half-width in {lines[0]!r}")


def exit_zero(c: dict) -> dict:
    return {**c, "code": 0}


def same_bytes(c: dict, first: dict) -> None:
    require(c["stdout"] == first["stdout"], "repeated invocation is not byte-identical")


def flip_byte(c: dict) -> dict:
    s = c["stdout"]
    return {**c, "stdout": s[:-2] + ("0" if s[-2] != "0" else "1") + s[-1:]}


def kroger_rows(c: dict, seed: int, ref) -> None:
    vals = csv_values(c, seed, ref)
    require(bool(np.all(vals <= 2.0 * math.pi)), "a Kroger row exceeds 2 pi")
