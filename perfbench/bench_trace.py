"""In-memory span recorder for the traced pass, and the per-layer metrics.

The recorder wraps the public functions of every traction_gap module from
outside the package and rebinds each wrapped name in every module namespace
that imported it (``assemble`` lives in both ``galerkin`` and ``limits``,
``exp_so3`` in ``limits``, ``loads`` and ``scaled``).  It also wraps
``GalerkinSpace.tables`` and the CLI's subcommand functions.  A span is
(id, name, start, end, parent id, counts); spans stay in memory and are
written out once, when the pass ends.

A span's self time is its duration minus the time its child spans cover.
Calls are single-threaded, so children never overlap and that is a sum.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import weakref

import numpy as np

# module -> layer; the numba/numpy kernels belong to the energy layer
MODULE_LAYER = {
    "geometry": "geometry",
    "profiles": "profiles",
    "rotations": "rotations",
    "energy": "energy",
    "_kernels": "energy",
    "loads": "loads",
    "galerkin": "galerkin",
    "limits": "limits",
    "scaled": "scaled",
    "cli": "cli",
}
LAYERS = tuple(dict.fromkeys(MODULE_LAYER.values()))

KERNELS = (
    "ksv_density_sum",
    "ksv_weighted_stress",
    "det_penalty_sum",
    "det_penalty_weighted_stress",
    "sym_norm_sq_sum",
)
SEARCHES = ("limits.min_limit", "limits.rotated_no_gap_check")


def _solve_counts(args, out):
    return {"iterations": out.iterations}


def _assemble_counts(args, out):
    K, N = out.A.shape[0], out.rules.volume.weights.size
    return {"gflop": 2.0 * K * K * 9 * N / 1e9}  # the K x 9N strain Gram product


def _minimize_counts(args, out):
    return {"rounds": out.rounds}


def _kernel_counts(args, out):
    arrays = [a for a in (*args, out) if isinstance(a, np.ndarray)]
    return {"batch": args[0].shape[0], "bytes": sum(a.nbytes for a in arrays)}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._tables = weakref.WeakValueDictionary()  # id -> value table seen
        self.originals: dict[str, object] = {}

    def wrap(self, name: str, fn, counts=None):
        self.originals[name] = fn
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": stack[-1]["id"] if stack else None,
                "counts": {},
            }
            spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span["counts"] = counts(args, out)
            return out

        return traced

    def _table_counts(self, args, out):
        vals = out[0]
        if self._tables.get(id(vals)) is vals:
            return {"built": 0, "bytes": 0}
        self._tables[id(vals)] = vals
        K, N = vals.shape[:2]
        return {"built": 1, "bytes": K * N * 12 * 8}  # values + gradients, float64

    def install(self, package: str = "traction_gap") -> None:
        """Wrap the package's public functions everywhere they are bound."""
        counters = {
            "galerkin.solve_quadratic": _solve_counts,
            "galerkin.assemble": _assemble_counts,
            "scaled.minimize_scaled": _minimize_counts,
            **{f"energy.{k}": _kernel_counts for k in KERNELS},
        }
        modules = {m: importlib.import_module(f"{package}.{m}") for m in MODULE_LAYER}
        wrapped = {}  # id(original) -> wrapper
        for mod_name, mod in modules.items():
            # shortest alias first, so ksv_density_sum names ksv_density_sum_np
            for attr, obj in sorted(vars(mod).items(), key=lambda kv: (len(kv[0]), kv[0])):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or id(obj) in wrapped):
                    continue
                name = f"{MODULE_LAYER[mod_name]}.{attr}"
                wrapped[id(obj)] = self.wrap(name, obj, counters.get(name))
        for mod in (importlib.import_module(package), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        space = modules["galerkin"].GalerkinSpace
        space.tables = self.wrap("galerkin.tables", space.tables, self._table_counts)
        subcommands = modules["cli"].SUBCOMMANDS
        for sub, fn in subcommands.items():
            subcommands[sub] = self.wrap(f"cli.cmd.{sub}", fn)


def time_kernels(kernels: dict, batch: int, repeats: int = 50) -> dict[str, float]:
    """Median seconds per call of each kernel on one batch of 3x3 matrices.

    The inputs are fixed (seed 0); only the batch size comes from the pass.
    """
    rng = np.random.default_rng(0)
    F = np.ascontiguousarray(np.eye(3) + 0.1 * rng.normal(size=(batch, 3, 3)))
    w = np.ascontiguousarray(rng.uniform(0.1, 1.0, batch))
    out = {}
    for name, fn in kernels.items():
        fn(F, w)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(F, w)
            samples.append(time.perf_counter() - t0)
        out[name] = float(np.median(samples))
    return out


class SpanIndex:
    """Queries over a finished span list (ids are list positions)."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.by_name: dict[str, list[dict]] = {}
        for s in spans:
            self.by_name.setdefault(s["name"], []).append(s)
            if s["parent"] is not None:
                self.child_time[s["parent"]] += s["end"] - s["start"]

    def named(self, *names: str) -> list[dict]:
        return [s for name in names for s in self.by_name.get(name, ())]

    def has_ancestor(self, span: dict, names) -> bool:
        p = span["parent"]
        while p is not None:
            if self.spans[p]["name"] in names:
                return True
            p = self.spans[p]["parent"]
        return False

    def covered(self, *names: str) -> float:
        """Wall time inside any of the named spans, nested ones counted once."""
        return sum(s["end"] - s["start"] for s in self.named(*names)
                   if not self.has_ancestor(s, names))

    def self_time(self, *names: str) -> float:
        return sum(s["end"] - s["start"] - self.child_time[s["id"]] for s in self.named(*names))

    def count(self, key: str, *names: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.named(*names))

    def layer_busy(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s["end"] - s["start"] - self.child_time[s["id"]]
                   for s in self.spans if s["name"].startswith(prefix))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[dict], traced_pass_s: float, untraced_pass_s: float,
                  report_bytes: int, kernel_call_s: dict[str, float],
                  kernel_batch: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    ix = SpanIndex(spans)
    solve, cg = "galerkin.solve_quadratic", "galerkin.projected_cg"
    kernels = [f"energy.{k}" for k in KERNELS]
    search_solves = [s for s in ix.named(solve) if ix.has_ancestor(s, SEARCHES)]
    search_rotations = [s for s in ix.named("rotations.exp_so3") if ix.has_ancestor(s, SEARCHES)]
    searches = len(ix.named(*SEARCHES))
    assemble_s = ix.covered("galerkin.assemble")
    assemble_gflop = ix.count("gflop", "galerkin.assemble")
    kernel_s = ix.covered(*kernels)
    energy_evals = len(ix.named("scaled.scaled_energy"))
    gradient_evals = len(ix.named("energy.ksv_weighted_stress"))
    main_s = ix.covered("cli.main")
    subcommand_s = ix.covered(*(n for n in ix.by_name if n.startswith("cli.cmd.")))
    return {
        "galerkin.solve_s": (ix.covered(solve), "s"),
        "galerkin.solve_calls": (len(ix.named(solve)), "count"),
        "galerkin.cg_s": (ix.covered(cg), "s"),
        "galerkin.cg_iterations": (ix.count("iterations", solve), "count"),
        "galerkin.solve_self_s": (ix.covered(solve) - ix.covered(cg), "s"),
        "galerkin.assemble_s": (assemble_s, "s"),
        "galerkin.assemble_calls": (len(ix.named("galerkin.assemble")), "count"),
        "galerkin.assemble_gflop": (assemble_gflop, "GFLOP"),
        "galerkin.assemble_gflops": (_ratio(assemble_gflop, assemble_s), "GFLOP/s"),
        "galerkin.tables_s": (ix.covered("galerkin.tables"), "s"),
        "galerkin.tables_calls": (len(ix.named("galerkin.tables")), "count"),
        "galerkin.table_mb": (ix.count("bytes", "galerkin.tables") / 1e6, "MB"),
        "limits.min_limit_s": (ix.covered("limits.min_limit"), "s"),
        "limits.min_limit_calls": (len(ix.named("limits.min_limit")), "count"),
        "limits.search_solves": (len(search_solves), "count"),
        "limits.search_useful_ratio": (_ratio(searches, len(search_solves)), "ratio"),
        "limits.search_rotations": (len(search_rotations), "count"),
        "limits.incompressible_bounds_s": (ix.covered("limits.incompressible_linear_bounds"), "s"),
        "limits.explicit_s": (ix.covered("limits.explicit_minimizers", "limits.verify_explicit",
                                         "limits.nonuniqueness_check"), "s"),
        "limits.gap_report_self_s": (ix.self_time("limits.gap_report"), "s"),
        "limits.rotated_check_self_s": (ix.self_time("limits.rotated_no_gap_check"), "s"),
        "scaled.context_s": (ix.covered("scaled.nonlinear_context"), "s"),
        "scaled.minimize_s": (ix.covered("scaled.minimize_scaled"), "s"),
        "scaled.minimize_calls": (len(ix.named("scaled.minimize_scaled")), "count"),
        "scaled.rounds": (ix.count("rounds", "scaled.minimize_scaled"), "count"),
        "scaled.energy_evals": (energy_evals, "count"),
        "scaled.gradient_evals": (gradient_evals, "count"),
        "scaled.armijo_accept_ratio": (_ratio(gradient_evals, energy_evals), "ratio"),
        "scaled.study_self_s": (ix.self_time("scaled.convergence_study"), "s"),
        "scaled.strain_norm_s": (ix.covered("scaled.rescaled_strain_norm"), "s"),
        "energy.kernel_s": (kernel_s, "s"),
        "energy.kernel_calls": (len(ix.named(*kernels)), "count"),
        "energy.kernel_gb": (ix.count("bytes", *kernels) / 1e9, "GB"),
        "energy.kernel_share": (_ratio(kernel_s, traced_pass_s), "ratio"),
        "energy.kernel_batch": (kernel_batch, "count"),
        **{f"energy.{k}_us": (1e6 * kernel_call_s.get(k, 0.0), "us") for k in KERNELS},
        "loads.compatibility_report_s": (ix.covered("loads.compatibility_report"), "s"),
        "loads.compatibility_report_calls": (len(ix.named("loads.compatibility_report")), "count"),
        "loads.witness_s": (ix.covered("loads.reversed_compatibility_witness"), "s"),
        "geometry.quadrature_s": (ix.covered("geometry.volume_quadrature",
                                             "geometry.surface_quadrature"), "s"),
        "geometry.quadrature_calls": (len(ix.named("geometry.volume_quadrature",
                                                   "geometry.surface_quadrature")), "count"),
        "cli.self_s": (main_s - subcommand_s, "s"),
        "cli.report_bytes": (report_bytes, "B"),
        **{f"{layer}.busy_s": (ix.layer_busy(layer), "s") for layer in LAYERS},
        "trace.overhead": (_ratio(traced_pass_s, untraced_pass_s) - 1.0, "ratio"),
    }
