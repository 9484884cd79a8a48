"""Recorded CLI outputs: every README command line, plus probes of each code path.

Outputs of exact spectra, moments and winner sets must match the recording
byte for byte.  FEM and finite-difference outputs must match in every key and
every piece of text, with each number within 1e-9 of the largest magnitude on
its line, which leaves room for LAPACK builds that differ in the last bits.

Re-record the command lines whose output is meant to change, each quoted
whole, with

    PYTHONPATH=src python tests/test_cli_outputs.py "moments --shape isosceles --aperture 1.2"

which leaves every other entry byte for byte.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from eigenplane import cli

DATA = Path(__file__).parent / "data"
RECORDING = DATA / "cli_outputs.json"
REL_TOL = 1e-9

# (command line, byte-exact?); {data} stands for the tests/data directory
COMMANDS = [
    # README, "Command line"
    ("spectrum --shape equilateral --side 1 --bc dirichlet -n 5", True),
    ("verify theorem1 --shape square --map 2,0,0,1 --bc dirichlet -n 1", True),
    ("verify theorem1 --shape equilateral --random 100 --seed 7 --bc neumann -n 3", False),
    ("verify robin --shape square --map 2,0,0,1 --sigma 1 -n 2", True),
    ("verify schrodinger --potential trisym --map 2,0,0,1 -n 2", False),
    ("verify quad --pieces 1,1,0.3,-0.2 --bc dirichlet -n 2", False),
    ("sweep isosceles --n 1 --from 0.3 --to 2.8 --steps 40", False),
    ("sweep rectangles --n 3 --aspects 1,1.2,1.5,1.633", True),
    ("sweep kroger --shape disk --n-max 100", True),
    ("conjecture c1 --steps 26", False),
    ("conjecture disk-vs-square --n-max 50", True),
    ("conjecture quad-inertia --pieces 1,1,0.5,0.5 --bc neumann --n 2", False),
    ("spectrum --shape file --domain-file {data}/l_shape.txt --bc neumann -n 4", False),
    # mapped disk mesh, seeded random maps, Robin images, other potentials
    ("verify theorem1 --shape disk --map 1.5,0.3,-0.2,0.9 -n 3 --levels 4", False),
    ("verify theorem1 --random 5 --seed 3", False),
    ("verify robin --shape equilateral --map 1.2,0.3,0,0.9 --sigma 1 -n 2 --levels 4", False),
    ("verify schrodinger --potential harmonic --map 1.2,0.3,0,0.9 -n 3 --points 101", False),
    ("sweep isosceles --apertures 0.5,1.2 --bc robin --sigma 2 --levels 4", False),
    ("sweep kroger --shape equilateral --n-max 30 --series weyl", True),
    ("moments --shape ellipse --s1 2 --s2 0.5 --theta 0.3", True),
    ("moments --shape isosceles --aperture 1.2", True),
    ("spectrum --shape disk --bc neumann -n 6", True),
    ("spectrum --shape rectangle --l1 2 --l2 1 --bc robin --sigma 0.5 -n 4", True),
    ("spectrum --shape disk --engine exact -n 200 --bc dirichlet", True),
    ("spectrum --shape disk --engine exact -n 200 --bc neumann", True),
    # a non-disk ellipse by FEM under each boundary condition
    ("spectrum --shape ellipse --s1 2 --s2 0.5 --theta 0.3 --engine fem -n 4 --levels 4 --bc dirichlet", False),
    ("spectrum --shape ellipse --s1 2 --s2 0.5 --theta 0.3 --engine fem -n 4 --levels 4 --bc neumann", False),
    ("spectrum --shape ellipse --s1 2 --s2 0.5 --theta 0.3 --engine fem -n 4 --levels 4 --bc robin --sigma 1", False),
    # usage errors: nothing on stdout, exit 2
    ("verify theorem1 --shape rectangle --l1 2 --map 1,0,0,1", True),
    ("verify robin --shape ellipse --s1 2 --map 1,0,0,1", True),
    ("verify quad --pieces 1,1,0", True),
]

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _run(command: str) -> tuple[int, str]:
    argv = command.format(data=DATA).split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _assert_close(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g_line, w_line in zip(got_lines, want_lines):
        assert _NUMBER.split(g_line) == _NUMBER.split(w_line), (g_line, w_line)
        g_nums = [float(x) for x in _NUMBER.findall(g_line)]
        w_nums = [float(x) for x in _NUMBER.findall(w_line)]
        scale = max((abs(x) for x in w_nums), default=0.0)
        for g_num, w_num in zip(g_nums, w_nums):
            assert abs(g_num - w_num) <= REL_TOL * scale, (g_num, w_num, w_line)


@pytest.fixture(scope="module")
def recording():
    return json.loads(RECORDING.read_text())


@pytest.mark.parametrize("command,exact", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_output_matches_recording(recording, command, exact):
    code, out = _run(command)
    want = recording[command]
    assert code == want["exit"]
    if exact:
        assert out == want["stdout"]
    else:
        _assert_close(out, want["stdout"])


def test_recording_covers_exactly_the_commands(recording):
    assert sorted(recording) == sorted(c for c, _ in COMMANDS)


def record(commands, path=RECORDING):
    """Re-record the given command lines of COMMANDS in the recording at path, leaving every other entry as it is."""
    unknown = sorted(set(commands) - {c for c, _ in COMMANDS})
    if unknown:
        raise ValueError(f"not a recorded command line: {unknown}")
    rec = json.loads(path.read_text())
    for command in commands:
        code, out = _run(command)
        rec[command] = {"exit": code, "stdout": out}
        print(code, command, file=sys.stderr)
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")


def test_the_recorder_rewrites_only_the_command_lines_it_is_given(recording, tmp_path):
    path = tmp_path / RECORDING.name
    target, other = "moments --shape isosceles --aperture 1.2", "sweep kroger --shape disk --n-max 100"
    stale = {**recording, target: {"exit": 1, "stdout": "stale\n"}, other: {"exit": 1, "stdout": "stale\n"}}
    path.write_text(json.dumps(stale, indent=1, sort_keys=True) + "\n")
    record([target], path)
    assert json.loads(path.read_text()) == {**stale, target: recording[target]}
    path.write_text(RECORDING.read_text())
    record([target], path)
    assert path.read_bytes() == RECORDING.read_bytes()  # every other entry byte for byte
    with pytest.raises(ValueError, match="not a recorded command line"):
        record(["moments --shape pentagon"], path)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    record(sys.argv[1:])
