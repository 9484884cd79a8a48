import argparse
import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenplane import cli
from eigenplane import experiments as xp
from eigenplane import fem
from eigenplane import schrodinger as sch
from eigenplane.exact import Spectrum

PI2 = math.pi**2


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(out):
    lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
    assert lines[0] == "param,value,method,error"
    rows = []
    for ln in lines[1:]:
        p, v, m, e = ln.split(",")
        rows.append((float(p), float(v), m, float(e)))
    return rows


def test_spectrum_equilateral(capsys):
    code, out = run_capture(
        capsys, ["spectrum", "--shape", "equilateral", "--side", "1", "--bc", "dirichlet", "-n", "5"]
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 5
    assert rows[0][1] == pytest.approx(16 * PI2 / 3, rel=1e-12)
    assert out.startswith("# seed=0\n")


def test_spectrum_cells_have_12_significant_digits(capsys):
    _, out = run_capture(capsys, ["spectrum", "--shape", "square", "-n", "1"])
    value_cell = out.strip().splitlines()[-1].split(",")[1]
    mantissa = value_cell.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 12


def test_verify_theorem1_equality(capsys):
    code, out = run_capture(
        capsys,
        ["verify", "theorem1", "--shape", "square", "--map", "2,0,0,1", "--bc", "dirichlet", "-n", "1"],
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["holds"] is True
    assert rec["lhs"] == pytest.approx(1.25 * PI2, rel=1e-12)
    assert abs(rec["slack"]) <= rec["tolerance"]
    assert rec["seed"] == 0


def test_verify_random_batch(capsys):
    code, out = run_capture(
        capsys,
        ["verify", "theorem1", "--shape", "equilateral", "--random", "3", "--seed", "5",
         "--bc", "neumann", "-n", "2", "--levels", "3"],
    )
    assert code == 0
    recs = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(recs) == 3 and all(r["holds"] for r in recs)
    assert all(r["seed"] == 5 for r in recs)


def test_verify_quad(capsys):
    code, out = run_capture(
        capsys, ["verify", "quad", "--pieces", "1,1,0.3,-0.2", "--bc", "dirichlet", "-n", "1", "--levels", "4"]
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_sweep_isosceles_csv(capsys):
    code, out = run_capture(
        capsys, ["sweep", "isosceles", "--n", "1", "--from", "0.9", "--to", "1.2", "--steps", "3", "--levels", "4"]
    )
    assert code == 0
    rows = parse_csv(out)
    assert [r[0] for r in rows] == pytest.approx([0.9, 1.05, 1.2])
    assert all(r[2] == "fem" for r in rows)


def test_sweep_rectangles(capsys):
    code, out = run_capture(capsys, ["sweep", "rectangles", "--n", "3", "--aspects", "1,1.5"])
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][1] == pytest.approx(72 * PI2, rel=1e-12)
    assert rows[1][1] == pytest.approx(72 * PI2, rel=1e-12)


def test_sweep_kroger(capsys):
    code, out = run_capture(capsys, ["sweep", "kroger", "--shape", "disk", "--n-max", "30"])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 30
    assert all(r[1] <= 2 * math.pi for r in rows)


def test_conjecture_disk_vs_square(capsys):
    code, out = run_capture(capsys, ["conjecture", "disk-vs-square", "--n-max", "50"])
    assert code == 0
    rec = json.loads(out)
    assert rec["square_larger"] == [1, 2, 3, 5, 6, 9, 10, 12]


def test_moments_json(capsys):
    code, out = run_capture(capsys, ["moments", "--shape", "rectangle", "--l1", "2", "--l2", "1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["area"] == pytest.approx(2.0)
    assert rec["inertia_centroid"] == pytest.approx(5 / 6)


def _fresh_caches(monkeypatch):
    """An empty eigenvalue memo: a rerun then repeats every solve instead of recalling it."""
    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))


def test_byte_identical_reruns(capsys, monkeypatch):
    argv = ["sweep", "isosceles", "--n", "1", "--apertures", "1.0,1.1", "--levels", "3", "--seed", "9"]
    _fresh_caches(monkeypatch)
    _, out1 = run_capture(capsys, argv)
    _fresh_caches(monkeypatch)
    _, out2 = run_capture(capsys, argv)
    assert out1 == out2
    assert "# seed=9" in out1


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, _ = run_capture(capsys, ["spectrum", "--shape", "square", "-n", "2", "--output", str(path)])
    assert code == 0
    assert path.read_text().startswith("# seed=0\nparam,value,method,error\n")


def test_config_file_defaults_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("shape=equilateral\nside=1\nbc=dirichlet\nn=2\n")
    code, out = run_capture(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 0
    assert len(parse_csv(out)) == 2
    # explicit flag wins over the config value
    code, out = run_capture(capsys, ["spectrum", "--config", str(cfg), "-n", "4"])
    assert code == 0
    assert len(parse_csv(out)) == 4


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value pair\n")
    code, _ = run_capture(capsys, ["spectrum", "--config", str(cfg)])
    assert code == 2


def test_missing_config_exits_2(capsys):
    code, _ = run_capture(capsys, ["spectrum", "--config", "/nonexistent/path.cfg"])
    assert code == 2


def test_config_with_equals_sign_is_read(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("shape=disk\n")
    _, disk = run_capture(capsys, ["moments", "--shape", "disk"])
    code, out = run_capture(capsys, ["moments", f"--config={cfg}"])
    assert code == 0
    assert out == disk


def test_repeated_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("shape=disk\n")
    for argv in (["--config", str(cfg), "--config", str(cfg)], ["--config", str(cfg), f"--config={cfg}"]):
        assert_usage_error(capsys, ["moments", *argv])


def assert_usage_error(capsys, argv):
    """cli.run returns 2, prints nothing on stdout and one `error:` line on stderr."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == "", argv
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, captured.err)


def test_unknown_flag_exits_2(capsys):
    assert_usage_error(capsys, ["spectrum", "--frequency", "7"])


def test_unknown_subcommand_exits_2(capsys):
    assert_usage_error(capsys, ["transmogrify"])


def test_invalid_domain_parameters_exit_2(capsys):
    code, _ = run_capture(capsys, ["spectrum", "--shape", "rectangle", "--l1", "-1"])
    assert code == 2


def test_violated_report_exit_code(capsys):
    # the wiring contract: any non-holding report flips the exit code to 1
    bad = xp.BoundReport(lhs=2.0, rhs=1.0, slack=-1.0, tolerance=0.0, holds=False, inputs={})
    good = xp.BoundReport(lhs=1.0, rhs=2.0, slack=1.0, tolerance=0.0, holds=True, inputs={})

    class Args:
        output = None
        seed = 0

    assert cli._report_block(Args(), [good, bad]) == 1
    capsys.readouterr()
    assert cli._report_block(Args(), [good]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "theorem1", "--shape", "disk", "--map", "1.5,0.3,-0.2,0.9", "-n", "3", "--levels", "4"],
        ["spectrum", "--shape", "disk", "--engine", "fem", "--bc", "neumann", "--levels", "4"],
        ["verify", "schrodinger", "--map", "1.2,0.3,0,0.9", "-n", "3"],
    ],
    ids=["theorem1-disk", "spectrum-disk-fem", "schrodinger"],
)
def test_shift_invert_reruns_are_byte_identical(capsys, monkeypatch, argv):
    # these runs go through shift-invert Lanczos, whose start vector is fixed
    _fresh_caches(monkeypatch)
    code1, out1 = run_capture(capsys, argv)
    _fresh_caches(monkeypatch)
    code2, out2 = run_capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_small_schrodinger_box_exits_3_with_one_line(capsys):
    code = cli.run(["verify", "schrodinger", "--half-width", "1.5", "--points", "51", "--map", "2,0,0,1", "-n", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    suggested = float(lines[0].rsplit("half_width >= ", 1)[1])
    assert suggested > 1.5


def test_undecidable_disk_vs_square_exits_3_with_one_line(capsys, monkeypatch):
    disk_spectrum = xp.disk_spectrum

    def blurred(radius, bc, n):  # error estimates wider than every margin: a forced tie
        spec = disk_spectrum(radius, bc, n)
        return Spectrum(spec.values, spec.method, np.ones(n))

    monkeypatch.setattr(xp, "disk_spectrum", blurred)
    code = cli.run(["conjecture", "disk-vs-square", "--n-max", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: margin too small to decide at n=[1, 2, 3, 4, 5]\n"


def test_solver_failure_exits_3(capsys, monkeypatch):
    # no residual meets a negative tolerance, whichever solver path the spectrum takes
    _fresh_caches(monkeypatch)
    monkeypatch.setattr(fem, "EIG_TOLERANCE", -1.0)
    code = cli.run(["spectrum", "--shape", "isosceles", "--aperture", "1.0", "-n", "2", "--levels", "3"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: residual ") and err.count("\n") == 1


def test_large_robin_sigma_fem_spectrum_passes_its_residual_check(capsys, monkeypatch):
    # the roundoff of the dense solves grows like sigma; at 1e8 it is still far below the reported error
    _fresh_caches(monkeypatch)
    base = "spectrum --shape square --bc robin --sigma 1e8 --engine fem -n 3 --levels".split()
    rows = []
    for levels in ("4", "6"):
        assert cli.run(base + [levels]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows.append(np.array([[float(x) for x in ln.split(",")[1:4:2]] for ln in captured.out.splitlines()[2:]]))
    (coarse, coarse_err), (fine, fine_err) = (r.T for r in rows)
    assert np.all(np.abs(coarse - fine) <= coarse_err + fine_err)


def test_strongly_stretched_neumann_image_passes_its_residual_check(capsys, monkeypatch):
    # ||K|| grows like ||S|| ~ 1e5, and the roundoff of every pair's residual with it
    _fresh_caches(monkeypatch)
    assert cli.run("verify theorem1 --shape equilateral --map 1,0.3,0,0.002 --bc neumann -n 2".split()) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out.splitlines()[-1])["holds"]


@pytest.mark.parametrize("levels", ["3", "4", "5"])
@pytest.mark.parametrize("shape", ["square", "equilateral"])
def test_the_neumann_kernel_is_exact_under_a_strongly_stretching_map(capsys, monkeypatch, shape, levels):
    # det T = 1e-3: the kernel value was roundoff of ||S|| ~ 1e6, and its residual failed at levels 4 and 5
    _fresh_caches(monkeypatch)
    argv = f"verify theorem1 --shape {shape} --map 1,0.3,0,0.001 --bc neumann -n 2 --levels {levels}".split()
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["holds"]


def test_a_map_of_det_1e_4_is_refused_on_its_second_value(capsys, monkeypatch):
    # the kernel is exact; the first nonzero value of the image is what roundoff spoils at det 1e-4
    _fresh_caches(monkeypatch)
    assert cli.run("verify theorem1 --map 1,0.3,0,0.0001 --bc neumann -n 2 --levels 4".split()) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    named = float(re.fullmatch(r"error: residual \S+ exceeds \S+ for eigenvalue (\S+)\n", captured.err).group(1))
    assert named == pytest.approx(11.009, rel=1e-3)  # lambda_2 of the image, not its kernel


def test_a_neumann_linear_map_report_is_scale_covariant(capsys, monkeypatch):
    # at side 1e5 the old positive shift, ~4e-8, lay above lambda_2 ~ 1e-9, and the report exited 1
    _fresh_caches(monkeypatch)
    lhs = {}
    for side in ("1", "1e5"):
        argv = f"verify theorem1 --shape square --side {side} --map 1.5,0.3,-0.2,0.9 --bc neumann -n 3".split()
        assert cli.run(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"]
        lhs[side] = report["lhs"]
    assert lhs["1e5"] * 1e10 == pytest.approx(lhs["1"], rel=1e-10)


@pytest.mark.parametrize("levels", ["4", "5"])
@pytest.mark.parametrize("shape, size", [("square", "--side 1e-6"), ("square", "--side 1e5"), ("disk", "--radius 1e6")])
def test_neumann_fem_spectra_print_an_exact_kernel_at_every_size(capsys, monkeypatch, shape, size, levels):
    _fresh_caches(monkeypatch)
    rows = {}
    for given in (size.split()[0] + " 1", size):
        argv = f"spectrum --shape {shape} {given} --bc neumann --engine fem -n 4 --levels {levels}".split()
        code, out = run_capture(capsys, argv)
        assert code == 0
        rows[given] = parse_csv(out)
        assert rows[given][0][1:] == (0.0, "fem", 0.0)
    scale = float(size.split()[1]) ** 2
    for (_, v, _, _), (_, w, _, _) in zip(rows[size.split()[0] + " 1"][1:], rows[size][1:]):
        assert w * scale == pytest.approx(v, rel=1e-10)


def test_no_neumann_fem_spectrum_prints_a_negative_value(capsys, monkeypatch):
    # a semi-axis ratio of 1e7: lambda_2 ~ 4e-14 is below what the solve resolves; it printed lambda_1 = 0.0646
    _fresh_caches(monkeypatch)
    argv = "spectrum --shape ellipse --s1 1e7 --s2 1 --bc neumann --engine fem -n 2 --levels 4".split()
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_huge_disks_write_nothing_to_stdout_below_python(capfd, monkeypatch):
    # ARPACK and LAPACK write to the process's stdout directly: capfd sees what capsys cannot.  A disk of
    # radius 1e100 under Robin sigma = 1 is refused; at sigma = 1e-100 its values are the unit disk's at 1e-200
    _fresh_caches(monkeypatch)
    big = "spectrum --shape disk --radius 1e100 --bc robin --sigma {} --engine fem -n 2 --levels 2"
    assert cli.run(big.format("1").split()) == 3
    captured = capfd.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert cli.run(big.format("1e-100").split()) == 0
    scaled = parse_csv(capfd.readouterr().out)
    assert cli.run("spectrum --shape disk --radius 1 --bc robin --sigma 1 --engine fem -n 2 --levels 2".split()) == 0
    for (_, v, _, e), (_, w, _, f) in zip(parse_csv(capfd.readouterr().out), scaled):
        assert w * 1e200 == pytest.approx(v, rel=1e-10) and f * 1e200 == pytest.approx(e, rel=1e-6)


@pytest.mark.parametrize("levels, code", [("2", 2), ("3", 0)])
def test_a_huge_square_is_classified_without_overflow(capsys, monkeypatch, levels, code):
    # side 1e120: the centroid of the symmetry test overflowed, so the square had order 1 and was refused
    _fresh_caches(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cli.run(f"verify theorem1 --shape square --side 1e120 --map 1.2,0.3,0.1,-0.9 -n 2 --levels {levels}"
                      .split())
    captured = capsys.readouterr()
    assert got == code and "has 1" not in captured.err
    if code == 2:  # the coarse level has one interior node, at any size
        assert captured.out == "" and captured.err == "error: need 1 <= n <= 1 on 1 unknowns, got n = 2\n"
    else:
        assert captured.err == "" and json.loads(captured.out)["holds"]


def test_a_huge_squares_tolerance_scales_as_its_values(capsys, monkeypatch):
    # the rectangle's closed-form error estimate is relative: with an absolute floor of 1e-14, the side-1e120
    # report's tolerance was 1.9e-14 against values of 6e-239
    _fresh_caches(monkeypatch)
    tolerance = {}
    for side in (1.0, 1e60, 1e120):
        argv = f"verify theorem1 --shape square --side {side:g} --map 1.2,0.3,0.1,-0.9 -n 2 --levels 3".split()
        assert cli.run(argv) == 0
        tolerance[side] = json.loads(capsys.readouterr().out)["tolerance"]
    for side, tol in tolerance.items():
        assert tol * side**2 == pytest.approx(tolerance[1.0], rel=1e-10)


@pytest.mark.parametrize("argv", [
    "spectrum --shape rectangle --l1 2 --l2 1 --bc robin --sigma 1e16 -n 2",  # the root is within an ulp of pi / l
    "verify robin --shape square --map 2,0,0,1 --sigma 1e308 -n 2",  # sigma^2 overflows
    "spectrum --shape square --bc robin --sigma 1e300 --engine fem -n 3 --levels 3",  # the residual overflows
    "spectrum --shape square --bc robin --sigma 1e308 --engine fem -n 3 --levels 3",  # the reduced matrix does
])
def test_huge_robin_sigma_exits_3_with_one_line(capsys, monkeypatch, argv):
    _fresh_caches(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would be a second line on stderr
        code = cli.run(argv.split())
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1



def test_a_grid_eigenpair_failing_its_residual_check_exits_3_with_one_line(capsys, monkeypatch):
    import scipy.sparse.linalg as splinalg

    eigsh = splinalg.eigsh

    def perturbed(A, *args, **kwargs):
        vals, vecs = eigsh(A, *args, **kwargs)
        return vals * (1.0 + 1e-6), vecs

    _fresh_caches(monkeypatch)
    monkeypatch.setattr(splinalg, "eigsh", perturbed)
    code = cli.run(["verify", "schrodinger", "--points", "51", "--half-width", "6", "--map", "1.2,0.3,0,0.9", "-n", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: residual ")

# numeric arguments: counts (steps, maps, eigenvalues, n_max) and FEM levels,
# each on a command cheap enough to run at every value drawn
COUNT_COMMANDS = [
    "sweep isosceles --levels 2 --steps {}",
    "conjecture c1 --levels 2 --steps {}",
    "verify theorem1 --shape equilateral --levels 2 --random {}",
    "verify theorem1 --shape square -n {}",
    "verify schrodinger --points 51 --half-width 6 -n {}",
    "spectrum --shape disk -n {}",
    "spectrum --shape isosceles --aperture 1 --levels 2 -n {}",
    "sweep rectangles -n {}",
    "sweep kroger --shape disk --n-max {}",
    "conjecture disk-vs-square --n-max {}",
]
LEVEL_COMMANDS = [
    "spectrum --shape square --engine fem --levels {}",
    "verify quad -n 1 --levels {}",
    "conjecture quad-inertia --levels {}",
]


@given(
    st.one_of(
        st.tuples(st.sampled_from(COUNT_COMMANDS), st.integers(-3, 40)),
        st.tuples(st.sampled_from(LEVEL_COMMANDS), st.integers(-2, 3)),
    )
)
@example(("sweep isosceles --levels 2 --steps {}", 1))
@example(("conjecture c1 --levels 2 --steps {}", 1))
@example(("verify theorem1 --shape equilateral --levels 2 --random {}", -3))
@example(("spectrum --shape disk --engine fem --levels {}", 8))
@example(("spectrum --shape square --engine fem --levels 6 -n {}", 961))
@example(("verify schrodinger --points 51 --half-width 30 -n {}", 600))
@settings(max_examples=50, deadline=None)
def test_numeric_arguments_never_raise_a_traceback(case):
    template, value = case
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(template.format(value).split())
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# float options: sizes, the ellipse's angle, and the Schrodinger coefficients, each on a command cheap enough to run
# at every value drawn (exact engines, FEM at level 2, 51 grid points)
FLOAT_COMMANDS = [
    "moments --shape disk --radius {}",
    "moments --shape square --side {}",
    "moments --shape ellipse --s1 {} --s2 1",
    "moments --shape ellipse --s1 1 --s2 {}",
    "moments --shape ellipse --s1 2 --theta {}",
    "spectrum --shape disk --radius {} -n 2",
    "spectrum --shape square --side {} -n 2",
    "spectrum --shape ellipse --s1 2 --theta {} --levels 2 -n 2",
    "verify theorem1 --shape disk --radius {} --map 2,0,0,1",
    "verify theorem1 --shape square --side {} --map 2,0,0,1 -n 2",
    "verify robin --shape disk --radius {} --map 2,0,0,1 --levels 2",
    "verify robin --shape square --side {} --map 2,0,0,1 --levels 2",
    "verify schrodinger --points 51 -n 1 --h {}",
    "verify schrodinger --points 51 -n 1 --half-width {}",
    "verify schrodinger --points 51 -n 1 --map 1.2,0.3,0,0.9 --half-width {}",
    "verify schrodinger --points 51 -n 1 --potential trisym --beta {}",
]
# each exited 1 with a traceback, exited 3 only after building its grids, or printed inf or NaN with exit 0
OUT_OF_RANGE = [
    ("moments --shape disk --radius {}", "1e200"),
    ("moments --shape ellipse --s1 {} --s2 1", "1e120"),
    ("verify theorem1 --shape disk --radius {} --map 2,0,0,1", "1e200"),
    ("verify robin --shape disk --radius {} --map 2,0,0,1 --levels 2", "1e200"),
    ("verify theorem1 --shape disk --radius {} --map 2,0,0,1", "1e-200"),
    ("spectrum --shape disk --radius {} -n 2", "1e-170"),
    ("moments --shape ellipse --theta {}", "nan"),
    ("moments --shape ellipse --theta {}", "inf"),
    ("verify schrodinger --points 51 -n 1 --potential trisym --beta {}", "nan"),
    ("verify schrodinger --points 51 -n 1 --h {}", "nan"),
    ("verify schrodinger --points 51 -n 1 --h {}", "inf"),
    ("verify schrodinger --points 51 -n 1 --half-width {}", "nan"),
    ("verify schrodinger --points 51 -n 1 --half-width {}", "inf"),
    ("verify robin --shape disk --radius {} --map 2,0,0,1 --levels 2", "1e140"),  # meshed and solved, then refused
]


def _strict_json(line):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(line, parse_constant=refuse)


@given(
    st.sampled_from(FLOAT_COMMANDS),
    st.one_of(
        st.floats(1e-300, 1e300).map(repr),
        st.integers(-300, 300).map(lambda e: f"1e{e}"),
        st.sampled_from(["inf", "nan", "0", "-1"]),
    ),
)
@example(*OUT_OF_RANGE[0])
@example(*OUT_OF_RANGE[1])
@example(*OUT_OF_RANGE[2])
@example(*OUT_OF_RANGE[3])
@example(*OUT_OF_RANGE[4])
@example(*OUT_OF_RANGE[5])
@example(*OUT_OF_RANGE[6])
@example(*OUT_OF_RANGE[7])
@example(*OUT_OF_RANGE[8])
@example(*OUT_OF_RANGE[9])
@example(*OUT_OF_RANGE[10])
@example(*OUT_OF_RANGE[11])
@example(*OUT_OF_RANGE[12])
@example(*OUT_OF_RANGE[13])
@settings(max_examples=60, deadline=None)
def test_float_arguments_never_raise_a_traceback(template, value):
    out, err = io.StringIO(), io.StringIO()
    argv = template.format(value).split()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2, 3) if argv[0] == "verify" else code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0 and argv[0] != "spectrum":
        for line in out.getvalue().splitlines():
            _strict_json(line)
    if code == 0 and argv[0] == "spectrum":
        assert not re.search(r"inf|nan", out.getvalue()), out.getvalue()


@pytest.mark.parametrize("template, value", OUT_OF_RANGE,
                         ids=[re.sub(r"[^\w.+-]+", "-", template.format(value)) for template, value in OUT_OF_RANGE])
def test_out_of_range_floats_exit_2_with_one_line(capsys, monkeypatch, template, value):
    # the input alone decides each: refused before any meshing or grid, with no warning on stderr
    monkeypatch.setattr(fem, "_VALUES", fem._ReferenceCache(fem.VALUE_CACHE_BYTES))
    monkeypatch.setattr(fem, "mesh_domain", lambda *args: pytest.fail("meshed"))
    for builder in ("_kronecker_sum_eigs", "_grid_operator"):
        monkeypatch.setattr(sch, builder, lambda *args: pytest.fail("grid built"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_usage_error(capsys, template.format(value).split())


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "isosceles", "--steps", "1"],
        ["conjecture", "c1", "--steps", "1"],
        ["verify", "theorem1", "--random", "-3"],
        ["verify", "robin", "--shape", "square", "--map", "2,0,0,1", "--random", "5"],
        ["verify", "schrodinger", "--random", "2"],
        ["verify", "quad", "--random", "3"],
        ["spectrum", "--shape", "disk", "--engine", "fem", "--levels", "8"],
        ["spectrum", "--shape", "square", "--engine", "exact", "-n", "10001"],
        ["spectrum", "--shape", "equilateral", "--engine", "exact", "-n", "10001"],
        ["sweep", "kroger", "--n-max", "10001"],
        ["sweep", "rectangles", "--aspects", "1", "--bc", "robin", "--sigma", "3"],
        ["sweep", "rectangles", "--steps", "1", "--aspects", "1"],
        ["sweep", "rectangles", "--apertures", "1.0"],
        ["sweep", "kroger", "--from", "0.5"],
        ["sweep", "kroger", "--to", "2.0"],
        ["sweep", "kroger", "--sigma", "2"],
        ["moments", "--shape", "square", "--l1", "5"],
        ["spectrum", "--shape", "disk", "--l2", "2"],
        ["verify", "theorem1", "--shape", "square", "--radius", "2"],
        ["moments", "--shape", "disk", "--domain-file", "shape.txt"],
        ["spectrum", "--shape", "square", "--bc", "dirichlet", "--sigma", "3", "-n", "1"],
        ["sweep", "isosceles", "--bc", "neumann", "--sigma", "3"],
        ["verify", "schrodinger", "--q", "6"],
        ["verify", "schrodinger", "--potential", "trisym", "--q", "6"],
        ["verify", "schrodinger", "--beta", "0.3"],
        ["verify", "schrodinger", "--potential", "power", "--beta", "0.3"],
        ["verify", "schrodinger", "--points", "1003", "-n", "1"],
        ["verify", "theorem1", "--map", "2,0,0,1", "--random", "2"],
        ["sweep", "isosceles", "--steps", "5", "--apertures", "1.0,1.1"],
        ["sweep", "isosceles", "--from", "0.5", "--apertures", "1.0,1.1"],
        ["conjecture", "c1", "--to", "2.0", "--apertures", "1.0,1.1"],
        ["spectrum", "--shape", "square", "--engine", "exact", "--levels", "3", "-n", "1"],
        ["spectrum", "--shape", "square", "--engine", "exact", "--no-extrapolate", "-n", "1"],
        ["spectrum", "--shape", "disk", "--levels", "3", "-n", "2"],
        ["verify", "theorem1", "--no-extrapolate", "--levels", "3", "-n", "2"],
        ["verify", "quad", "--levels", "3"],
        ["verify", "robin", "--shape", "square", "--map", "2,0,0,1", "--levels", "3"],
        ["verify", "theorem1", "--map", "1,2,2,4"],
        ["verify", "robin", "--map", "1,2,2,4"],
        ["verify", "schrodinger", "--map", "1,2,2,4"],
        ["verify", "theorem1", "--map", "1e300,0,0,1e300"],
        ["verify", "robin", "--map", "1e300,0,0,1e300"],
        ["verify", "schrodinger", "--map", "1e300,0,0,1e300"],
        ["verify", "schrodinger", "--map", "nan,0,0,1"],
    ],
    ids=["sweep-steps-1", "c1-steps-1", "random-negative", "robin-random", "schrodinger-random",
         "quad-random", "levels-8", "square-n-10001", "equilateral-n-10001", "kroger-n-max-10001",
         "rectangles-bc-sigma", "rectangles-steps", "rectangles-apertures", "kroger-from",
         "kroger-to", "kroger-sigma", "square-l1", "disk-l2", "square-radius", "disk-domain-file",
         "dirichlet-sigma", "isosceles-neumann-sigma", "harmonic-q", "trisym-q", "harmonic-beta",
         "power-beta", "schrodinger-points-1003", "random-map", "apertures-steps", "apertures-from",
         "c1-apertures-to", "exact-levels", "exact-no-extrapolate", "auto-exact-levels",
         "theorem1-exact-levels", "quad-exact-levels", "robin-exact-levels", "theorem1-singular-map",
         "robin-singular-map", "schrodinger-singular-map", "theorem1-overflowing-map",
         "robin-overflowing-map", "schrodinger-overflowing-map", "schrodinger-nan-map"],
)
def test_bad_counts_exit_2_with_one_line(capsys, argv):
    assert_usage_error(capsys, argv)


@pytest.mark.parametrize("m", ["1,2,2,4", "1e-8,0,0,1e-7"])
def test_singular_maps_exit_2_naming_the_map(capsys, m):
    code = cli.run(["verify", "theorem1", "--map", m])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == "error: map is singular, cannot invert\n"


@pytest.mark.parametrize(
    "args",
    [
        "spectrum --shape square --engine fem -n -2 --levels 3",
        "spectrum --shape square --engine fem -n 0 --levels 3",
        "sweep isosceles --n -2 --steps 2 --levels 3",
        "sweep isosceles --n 0 --steps 2 --levels 3",
        # Lanczos converges at most dim - 1 values: the coarse level has 961 unknowns
        "spectrum --shape square --engine fem --levels 6 -n 961",
        # the coarse grid has 24^2 = 576 unknowns
        "verify schrodinger --points 51 --half-width 30 -n 600",
        # the disk's coarse level 6 has 129025 interior unknowns, counted without meshing
        "spectrum --shape disk --engine fem --levels 7 -n 200000",
    ],
)
def test_counts_the_solve_cannot_serve_exit_2_naming_n(capsys, args):
    code = cli.run(args.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    [line] = captured.err.splitlines()
    n = re.search(r"-n (-?\d+)", args).group(1)
    assert line.startswith("error: need 1 <= n <= ") and line.endswith(f"got n = {n}"), line


def test_an_oversized_fem_level_is_named_by_the_finest_level(capsys):
    # every level is counted before any meshing, the finest first: the coarse level 11 is too large as well
    code = cli.run("spectrum --shape square --engine fem --levels 12 -n 2".split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: level 12 would mesh 2 x 4^12 triangles, more than 1048576\n"


def test_fem_options_are_read_when_any_spectrum_comes_from_fem(capsys):
    code, out = run_capture(capsys, ["verify", "theorem1", "--random", "2", "--levels", "3"])
    assert code == 0
    recs = [json.loads(ln) for ln in out.splitlines()]
    assert len(recs) == 2 and all(r["inputs"]["lhs_method"] == "fem" for r in recs)


def _scipy_modules_loaded(argv):
    """The scipy modules that a fresh interpreter holds after importing eigenplane.cli and running argv, if any."""
    import subprocess
    import sys

    run = "" if argv is None else f"cli.run({argv!r}); "
    code = (f"import sys, eigenplane.cli as cli; {run}"
            "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(out.stderr.split())


def test_cli_import_leaves_scipy_special_and_optimize_unloaded():
    assert _scipy_modules_loaded(None) == set()  # nor any other part of scipy


def test_moments_load_no_scipy():
    assert _scipy_modules_loaded(["moments", "--shape", "square"]) == set()


def test_exact_disk_commands_load_no_scipy():
    # their Bessel zeros come from the shipped snapshot, their A^3/I needs no elliptic integral
    for command in ["spectrum --shape disk --engine exact -n 200 --bc dirichlet",
                    "spectrum --shape disk --engine exact -n 200 --bc neumann",
                    "sweep kroger --shape disk --n-max 100",
                    "conjecture disk-vs-square --n-max 50"]:
        assert _scipy_modules_loaded(command.split()) == set(), command


def _leaves(parser, path=()):
    """(command words, parser) for every leaf of the parser tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, path + (name,))


def _options(parser):
    """The leaf's option actions, help aside."""
    return [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]


def _use(action):
    """Arguments for one use of an option: its default, else a valid choice, else "1"."""
    if action.nargs == 0:
        return []
    if action.default is not None:
        return [str(action.default)]
    return [action.choices[0] if action.choices else "1"]


LEAVES = dict(_leaves(cli.build_parser()))
# every option string some leaf accepts, with a use of it that some leaf takes
USES = {opt: [opt, *_use(a)] for leaf in LEAVES.values() for a in _options(leaf) for opt in a.option_strings}


def test_each_leaf_declares_only_the_options_it_reads():
    assert sorted(" ".join(path) for path in LEAVES) == [
        "conjecture c1", "conjecture disk-vs-square", "conjecture quad-inertia", "moments", "spectrum",
        "sweep isosceles", "sweep kroger", "sweep rectangles",
        "verify quad", "verify robin", "verify schrodinger", "verify theorem1",
    ]
    assert sum(len(_options(p)) for p in LEAVES.values()) == 132


@pytest.mark.parametrize("path", list(LEAVES), ids=" ".join)
def test_each_leaf_refuses_options_it_does_not_read(capsys, path):
    own = {opt for action in _options(LEAVES[path]) for opt in action.option_strings}
    foreign = sorted(set(USES) - own)
    assert foreign
    for opt in foreign:
        assert_usage_error(capsys, [*path, *USES[opt]])


def test_abbreviated_flags_are_refused(capsys):
    assert_usage_error(capsys, ["sweep", "kroger", "--n", "3"])  # not --n-max
    assert_usage_error(capsys, ["verify", "schrodinger", "--half", "6"])


CONFIG_LEAVES = ["moments", "sweep rectangles", "sweep kroger", "conjecture disk-vs-square"]
# every long option as a config key, except the two that name files
CONFIG_KEYS = sorted({opt[2:] for opt in USES if opt.startswith("--")} - {"config", "output"})


@given(
    st.sampled_from(CONFIG_LEAVES),
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(CONFIG_KEYS), st.text("abcn-_ =#", max_size=6)),
            st.one_of(
                st.integers(-3, 60).map(str),
                st.floats().map(repr),
                st.sampled_from(["square", "disk", "equilateral", "rectangle", "weyl", "1,1.5", ""]),
                st.text("0123456789.,-e ", max_size=8),
            ),
        ),
        max_size=4,
    ),
)
@example("sweep rectangles", [("aspects", "inf")])
@example("sweep rectangles", [("aspects", "1e12"), ("n", "40")])
@example("sweep rectangles", [("aspects", "nan")])
@settings(max_examples=60, deadline=None)
def test_config_files_never_raise_a_traceback(leaf, pairs):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "job.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in pairs))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run([*leaf.split(), "--config", str(cfg)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
