"""Self-test of the checks: each one accepts today's output and rejects a perturbed one.

Runs one round of every workload without timing anything.  For each
operation, the unperturbed output must pass its check (except the kept
fault, whose check must instead accept a well-formed stand-in), and every
perturbation listed with the operation must fail it.  Exits 1 on any miss.
"""

from __future__ import annotations

import sys

import checks as ck
import workloads
from worker import CliRunner


def passes(check, output) -> bool:
    try:
        check(output)
    except Exception:  # any exception is a rejection
        return False
    return True


def main() -> int:
    misses = []
    tested = 0
    cli = CliRunner()
    for name in workloads.BUILDERS:
        for op in workloads.build(name, 0, 1, cli):
            out = ck.summarize(op.call())
            if op.known_fault:
                # the contract the fault breaks: own exit code, one line naming the half-width
                good = {"code": 3, "stdout": "", "stderr": "error: box too small; use half_width >= 4.2\n"}
                if not passes(op.check, good):
                    misses.append(f"{op.label}: check rejects a well-formed failure")
            elif not passes(op.check, out):
                misses.append(f"{op.label}: check rejects today's output")
            for perturb in op.perturb:
                tested += 1
                if passes(op.check, perturb(out)):
                    misses.append(f"{op.label}: check accepts {perturb.__name__}")
        print(f"self-test {name}: done", flush=True)
    for m in misses:
        print(f"MISS {m}")
    print(f"self-test: {tested} perturbations, {len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
