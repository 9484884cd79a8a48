"""Spans and counts recorded around calls into eigenplane's public functions.

`Tracer.install` replaces every public function of the six modules with a
timing wrapper, at every eigenplane namespace that holds it (the defining
module, modules that imported it by name, and the package root).  Spans are
kept in memory and written out when the run ends.  Counts are taken at the
same boundaries inside a `bench.count` span, so the cost of taking them is
the benchmark's own time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("geometry", "exact", "fem", "schrodinger", "experiments", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.keys: dict[str, list] = defaultdict(list)
        self.sums: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(i)
            if count is not None:
                j = self.begin("bench.count")
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self, name, bound.arguments, out, self.ends[i] - self.starts[i])
                finally:
                    self.end(j)
            return out

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"eigenplane.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    originals[id(fn)] = (fn, self.wrap(fn, name, COUNTERS.get(name)))
        for modname, mod in list(sys.modules.items()):
            if modname != "eigenplane" and not modname.startswith("eigenplane."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "keys": dict(self.keys),
            "sums": dict(self.sums),
        }

    def adopt(self, other: dict, parent: int) -> None:
        """Append another process's spans, hanging its roots under `parent`."""
        base = len(self.names)
        self.names += other["names"]
        self.starts += other["starts"]
        self.ends += other["ends"]
        self.parents += [parent if p < 0 else p + base for p in other["parents"]]
        for k, v in other["keys"].items():
            self.keys[k] += v
        for k, v in other["sums"].items():
            self.sums[k] += v


# ---------------------------------------------------------------------------
# counts taken at span boundaries
# ---------------------------------------------------------------------------

def _digest(*mats) -> str:
    import numpy as np

    h = hashlib.sha1()
    for A in mats:
        A = A.tocsr() if hasattr(A, "tocsr") else np.asarray(A)
        if hasattr(A, "indptr"):
            for arr in (A.indptr, A.indices, A.data):
                h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(np.ascontiguousarray(A).tobytes())
        h.update(repr(A.shape).encode())
    return h.hexdigest()


def _count_mesh(t: Tracer, name, a, mesh, dur) -> None:
    d = a["d"]
    if hasattr(d, "vertices"):
        key = ("polygon", d.vertices.tobytes(), a["level"])
    else:
        key = ("ellipse", d.center.tobytes(), d.semi_axes, d.rotation, a["level"])
    t.keys[name].append(hashlib.sha1(repr(key).encode()).hexdigest())
    t.sums[f"{name}.triangles"] += len(mesh.triangles)


def _count_assemble(t: Tracer, name, a, out, dur) -> None:
    t.sums[f"{name}.nnz"] += sum(m.nnz for m in out)


def _count_solve(t: Tracer, name, a, out, dur) -> None:
    dim = a["K"].shape[0]
    t.keys[name].append(_digest(a["K"], a["M"]))
    t.sums[f"{name}.dofs"] += dim
    path = "dense" if dim <= a["dense_threshold"] else "sparse"
    t.sums[f"{name}.{path}_calls"] += 1
    t.sums[f"{name}.{path}_ms"] += 1e3 * dur


def _count_fd(t: Tracer, name, a, out, dur) -> None:
    p = a["grid"].points_per_side
    t.sums[f"{name}.unknowns"] += (p - 2) ** 2 + ((p + 1) // 2 - 2) ** 2


COUNTERS = {
    "fem.mesh_domain": _count_mesh,
    "fem.assemble": _count_assemble,
    "fem.solve_eigs": _count_solve,
    "schrodinger.schrodinger_spectrum": _count_fd,
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: Self-time metrics and the span names each one sums.
BUCKETS = {
    "geometry.self_ms": lambda n: n.startswith("geometry."),
    "fem.mesh_domain.self_ms": lambda n: n == "fem.mesh_domain",
    "fem.assemble.self_ms": lambda n: n == "fem.assemble",
    "fem.spectrum_fem.self_ms": lambda n: n == "fem.spectrum_fem",
    "exact.lattice.self_ms": lambda n: n in ("exact.equilateral_spectrum", "exact.rectangle_spectrum"),
    "exact.disk_spectrum.self_ms": lambda n: n == "exact.disk_spectrum",
    "schrodinger.schrodinger_spectrum.self_ms": lambda n: n == "schrodinger.schrodinger_spectrum",
    "schrodinger.transformed_problem.self_ms": lambda n: n == "schrodinger.transformed_problem",
    "experiments.verify.self_ms": lambda n: n.startswith("experiments.verify_"),
    "experiments.spectrum_of.self_ms": lambda n: n == "experiments.spectrum_of",
    "experiments.scan.self_ms": lambda n: n in ("experiments.disk_vs_square", "experiments.kroeger_weyl_check"),
    "cli.run.self_ms": lambda n: n == "cli.run",
}

CALLS = ("geometry.apply_map", "fem.mesh_domain", "fem.solve_eigs", "exact.disk_spectrum",
         "schrodinger.schrodinger_spectrum")


def self_times(t: Tracer):
    import numpy as np

    dur = np.asarray(t.ends) - np.asarray(t.starts)
    child = np.zeros_like(dur)
    parents = np.asarray(t.parents, dtype=int)
    has = parents >= 0
    np.add.at(child, parents[has], dur[has])
    return dur - child


def layer_metrics(t: Tracer, loop_s: float, ops: int, import_ms: float) -> dict[str, float]:
    own = self_times(t)
    names = t.names
    out: dict[str, float] = {}
    for call in CALLS:
        out[f"{call}.calls"] = float(sum(1 for n in names if n == call))
    for metric, match in BUCKETS.items():
        out[metric] = 1e3 * float(sum(s for n, s in zip(names, own) if match(n)))
    for call in ("fem.mesh_domain", "fem.solve_eigs"):
        keys = t.keys.get(call, [])
        out[f"{call}.unique_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    for key in ("fem.mesh_domain.triangles", "fem.assemble.nnz", "fem.solve_eigs.dofs",
                "fem.solve_eigs.dense_calls", "fem.solve_eigs.dense_ms", "fem.solve_eigs.sparse_ms",
                "schrodinger.schrodinger_spectrum.unknowns"):
        out[key] = float(t.sums.get(key, 0.0))
    layer_ms = 1e3 * float(sum(s for n, s in zip(names, own) if n.split(".")[0] in LAYERS))
    bench_ms = 1e3 * float(sum(s for n, s in zip(names, own) if n.startswith("bench.")))
    out["cli.import_ms"] = import_ms
    out["trace.ops_per_s"] = ops / loop_s
    out["trace.loop_ms"] = 1e3 * loop_s
    out["trace.layer_ms"] = layer_ms
    out["trace.bench_self_ms"] = bench_ms
    out["trace.unaccounted_share"] = abs(1e3 * loop_s - layer_ms - bench_ms) / (1e3 * loop_s)
    return out


def write(path, t: Tracer) -> None:
    with open(path, "w") as f:
        json.dump(t.dump(), f)
