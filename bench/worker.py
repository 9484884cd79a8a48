"""One workload process: set up, run the fixed operation list, check every output.

Started by run.py in a fresh interpreter with BLAS pinned to one thread and
`src` on the path.  Prints one JSON object as its last stdout line.  With
--setup-only it stops right before the first timed operation, so the parent
can time set-up alone.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"


class CliRunner:
    """Runs one CLI invocation in a fresh interpreter, one child at a time.

    Untraced children start as `python -m eigenplane.cli`; traced ones start
    through cli_launcher.py, whose spans are adopted under the current span.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.children = 0

    def __call__(self, argv: list[str]) -> dict:
        self.children += 1
        if self.tracer is None:
            cmd = [sys.executable, "-m", "eigenplane.cli", *argv]
        else:
            path = OUT / f"child-{os.getpid()}-{self.children}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_launcher.py")), str(path), *argv]
        p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if self.tracer is not None:
            with open(path) as f:
                self.tracer.adopt(json.load(f), parent=self.tracer.current())
            path.unlink()
        return {"code": p.returncode, "stdout": p.stdout, "stderr": p.stderr}


def run_ops(ops, tracer=None) -> tuple[list, list[float], float]:
    outputs, latencies = [], []
    t0 = time.perf_counter()
    for op in ops:
        span = tracer.begin("bench.op") if tracer is not None else None
        a = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation is a failed one, judged below
            out = exc
        latencies.append(time.perf_counter() - a)
        if span is not None:
            tracer.end(span)
        outputs.append(out)
    return outputs, latencies, time.perf_counter() - t0


def judge(ops, outputs) -> tuple[int, bool, list[str]]:
    """(failed, correct, messages).  Only known faults may fail with correct=True."""
    from checks import summarize

    failed, correct, messages = 0, True, []
    for op, out in zip(ops, outputs):
        try:
            if isinstance(out, Exception):
                raise RuntimeError(f"raised {type(out).__name__}: {out}")
            op.check(summarize(out))
        except Exception as exc:  # any exception from a check is a wrong output
            failed += 1
            if not op.known_fault:
                correct = False
                messages.append(f"{op.label}: {exc}")
    return failed, correct, messages


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t = time.perf_counter()
    import eigenplane.cli  # noqa: F401  (imports every layer)

    import_ms = 1e3 * (time.perf_counter() - t)
    import workloads
    from spans import Tracer, layer_metrics, write

    tracer = Tracer() if args.trace else None
    cli = CliRunner(tracer)
    ops = workloads.build(args.workload, args.seed, args.rounds, cli)
    workloads.warm_up(args.workload, CliRunner())  # untraced: warm-up is set-up, not loop time
    t_first = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"t_first": t_first}))
        return 0

    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.install()
    outputs, latencies, loop_s = run_ops(ops, tracer)
    if tracer is not None:
        tracer.uninstall()
    failed, correct, messages = judge(ops, outputs)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    result = {
        "t_first": t_first,
        "attempted": len(ops),
        "failed": failed,
        "correct": correct,
        "errors": messages[:10],
        "latencies_ms": [1e3 * x for x in latencies],
        "loop_s": loop_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        if args.workload == "cli_cold":
            imports = sorted(e - s for n, s, e in zip(tracer.names, tracer.starts, tracer.ends) if n == "cli.import")
            import_ms = 1e3 * imports[len(imports) // 2]
        result["layers"] = layer_metrics(tracer, loop_s, len(ops), import_ms)
        write(OUT / f"spans-{args.workload}-{args.seed}.json", tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
