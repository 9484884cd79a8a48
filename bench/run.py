"""eigenplane benchmark: fixed seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload bound_matrix --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn
    python3 bench/run.py --self-test                    # every check rejects a wrong output

Each run starts fresh workload processes (bench/worker.py) with BLAS pinned
to one thread and `src` on the path.  The operation list depends only on the
workload, --seed and --seconds: --seconds scales a fixed number of rounds
per workload, never from measured speed.  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent

#: Rounds per run at --seconds 25, scaled linearly for other run lengths.
ROUNDS = {"bound_matrix": 5, "fine_spectra": 3, "schrodinger_fd": 2, "cli_cold": 2}
#: Set-up-only processes started before the measured one; set-up is the median of all.
SETUP_PROBES = 2
#: Fewest operations for which op_tail_ms is a percentile with 10 samples above it.
TAIL_MIN_OPS = 40
TIMEOUT_S = 170

UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles the package alike
    env["PYTHONHASHSEED"] = "0"
    return env


def start(script: str, args: list[str], deadline: float) -> tuple[dict, float]:
    """Run a bench script to completion; (its last-line JSON, perf_counter at spawn)."""
    t_spawn = time.perf_counter()
    p = subprocess.run([sys.executable, str(BENCH / script), *args], capture_output=True, text=True,
                       cwd=ROOT, env=worker_env(), timeout=max(1.0, deadline - time.monotonic()))
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-4000:])
        raise SystemExit(f"{script} {' '.join(args)} exited with code {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1]), t_spawn


def tail_ms(latencies: list[float]) -> float:
    """Highest percentile with 10 samples above it.

    Below TAIL_MIN_OPS samples no percentile is a tail, so the median stands in.
    """
    lat = sorted(latencies)
    return lat[len(lat) - 11] if len(lat) >= TAIL_MIN_OPS else statistics.median(lat)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    rounds = max(1, round(ROUNDS[workload] * seconds / 25))
    args = ["--workload", workload, "--seed", str(seed), "--rounds", str(rounds)]
    if trace:
        res, _ = start("worker.py", args + ["--trace"], deadline)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["layers"].items()}
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, t_spawn = start("worker.py", args + ["--setup-only"], deadline)
            setups.append(probe["t_first"] - t_spawn)
        res, t_spawn = start("worker.py", args, deadline)
        setups.append(res["t_first"] - t_spawn)
        values = {
            "ops_per_s": res["attempted"] / res["loop_s"],
            "op_p50_ms": statistics.median(res["latencies_ms"]),
            "op_tail_ms": tail_ms(res["latencies_ms"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    for msg in res["errors"]:
        print(f"check failed: {msg}", file=sys.stderr)
    return {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_share")):
        return "1"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*ROUNDS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true", help="check that every check rejects a wrong output")
    args = ap.parse_args()
    if not (ROOT / "src" / "eigenplane" / "__init__.py").is_file():
        print(f"error: no eigenplane sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        p = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=ROOT, env=worker_env())
        return p.returncode
    if args.workload is None:
        ap.error("--workload is required")

    names = list(ROUNDS) if args.workload == "all" else [args.workload]
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} attempted = {res['attempted']} failed = {res['failed']} correct = {res['correct']}")
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
