"""Command-line driver: configuration parsing, experiment orchestration, and
report emission.

Usage:  traction-gap <subcommand> --config <path> [--out <dir>]

Subcommands: check-loads, kernel, solve-linear, solve-limit, gap-report,
verify-explicit, nonlinear-study, rotated-check, nonuniqueness.

Reports are written as ``report.json`` (deterministic: identical config and
version produce byte-identical output) plus ``report.csv`` for the tabular
subcommands; wall time, the process's peak RSS, the numpy version, the
subcommand, the BLAS thread and bytecode environment variables and, for
``nonlinear-study``, each row's descent work (alternation rounds, descent
steps, Armijo backtracks, stop reasons) go to ``meta.json`` so the main
report stays reproducible.
``config_hash`` in ``report.json`` is the SHA-256 of the canonical config
JSON, computed with CPython's built-in hash module, without OpenSSL.
Exit codes: 0 success (and ``-h`` after a subcommand), 1 usage, 2 invalid
configuration, 3 solver failure, 4 a certification check failed.

CSV columns (fixed):
  nonlinear-study : h,value_Gh,gap_to_limit,rot_dist,strain_rescaled
                    (gap_to_limit = value_Gh - limit, signed)
  gap-report      : theta,value,predicted,residual
  kernel          : wx,wy,wz,work_quadratic
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

try:  # CPython's own SHA-256: ``import hashlib`` maps OpenSSL's libcrypto (3.5 MB RSS)
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # a build without the built-in module
        from hashlib import sha256

from . import __version__
from .galerkin import (AssemblyError, SolverError, assemble, build_space, divergence_free,
                       solve_quadratic)
from .geometry import ORDER_CAP, Domain, IntegrationError
from .limits import (
    explicit_minimizers,
    gap_report,
    min_limit,
    nonuniqueness_check,
    rotated_no_gap_check,
    verify_explicit,
)
from .loads import (
    KernelReport,
    LoadError,
    LoadSpec,
    compatibility_report,
    fibonacci_directions,
    reversed_compatibility_witness,
    spin_form,
)
from .scaled import convergence_study

USAGE = __doc__

DEFAULT_CONFIG: dict = {
    "domain": {"kind": "cylinder", "radius": 1.0, "height": 1.0},
    "phi_coeffs": [-1.0, 0.0, 6.0, 0.0, -9.0, 0.0, 4.0],
    "psi_coeffs": [-0.5, 1.0],
    "beta": 0.01,
    "surface_pressure": None,
    "builtin": None,
    "basis": {"degree": 8},
    "quadrature_order": 16,
    "kernel_samples": 200,
    "h_schedule": [0.2, 0.1, 0.05, 0.02],
    "nonlinear_degree": 4,
    "tolerances": {
        "classification": 1.0e-9,
        "rotated_relative": 1.0e-6,
        "nonuniqueness_relative": 1.0e-8,
        "explicit_residual": 1.0e-8,
    },
}


# Upper bounds of the size parameters.  On both domains the linear systems
# are assembled from 1D tables of the rule's tensor terms straight into their
# parity blocks (at most 196 rows), eigendecomposed, solved and reduced to
# the rotation form block by block; no K x K array is formed, and a system
# keeps its blocks of A and A^+ and 6 x K rigid rows: K = 1365 for full and
# 1001 for its divergence-free restriction at degree 12 (solve-linear, which
# assembles the one and restricts it, takes 0.07-0.11 s and 48 MB peak RSS
# there on the cylinder, 0.10-0.12 s and 49 MB on the ball, by meta.json on
# 2 cores, 3 runs each; importing this module with numpy takes about 30 MB
# of that).
# The nonlinear context assembles its ansatz space on the space's own rule
# and tabulates it on the cylinder rule's planar and axial factors (6.5 MB
# of traced allocations at nonlinear degree 6, where nonlinear-study peaks
# at 41 MB).  Past geometry.ORDER_CAP a derived rule order exits 2.
SIZE_CAPS = {
    "basis.degree": 12,
    "nonlinear_degree": 6,
    "quadrature_order": ORDER_CAP,
    "kernel_samples": 100_000,
}


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config field '{path}': {message}")
        self.path = path


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise ConfigError(path, message)


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown field")
        if isinstance(base[key], dict):
            _require(isinstance(value, dict), here, "must be an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("(file)", f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError("(file)", f"not valid JSON: {err}")
    if not isinstance(raw, dict):
        raise ConfigError("(root)", "config must be a JSON object")
    return _merge(DEFAULT_CONFIG, raw)


def _finite(value) -> bool:
    """A JSON number that converts to a finite float (not NaN, inf or a huge int)."""
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def validate_config(cfg: dict) -> dict:
    dom = cfg["domain"]
    _require(dom["kind"] in ("cylinder", "ball"), "domain.kind", "must be cylinder|ball")
    for key in ("radius", "height"):
        _require(_finite(dom[key]) and dom[key] > 0, f"domain.{key}",
                 "must be a positive finite number")
    for key in ("phi_coeffs", "psi_coeffs", "h_schedule"):
        _require(isinstance(cfg[key], list) and all(_finite(v) for v in cfg[key]), key,
                 "must be an array of finite numbers")
    _require(_finite(cfg["beta"]), "beta", "must be a finite number")
    if cfg["surface_pressure"] is not None:
        _require(_finite(cfg["surface_pressure"]), "surface_pressure",
                 "must be a finite number or null")
    if cfg["builtin"] is not None:
        _require(cfg["builtin"] == "ball_pull_in", "builtin",
                 "the only builtin load is 'ball_pull_in'")
    for path, cap in SIZE_CAPS.items():
        value = cfg["basis"]["degree"] if path == "basis.degree" else cfg[path]
        _require(type(value) is int and 1 <= value <= cap, path,  # bool is not a size
                 f"must be an integer in [1, {cap}]")
    hs = cfg["h_schedule"]
    _require(len(hs) > 0, "h_schedule", "must have at least one entry")
    _require(all(0 < h < 1 for h in hs), "h_schedule", "entries must lie in (0, 1)")
    _require(all(b < a for a, b in zip(hs, hs[1:])), "h_schedule",
             "must be strictly decreasing")
    for key, value in cfg["tolerances"].items():
        _require(_finite(value) and type(value) is not bool and value > 0, f"tolerances.{key}",
                 "must be a positive finite number")
    return cfg


def spec_from_config(cfg: dict) -> LoadSpec:
    """The config's load; a builtin load ignores the profile keys but keeps the
    domain and the surface pressure, which LoadSpec then checks."""
    domain = Domain(cfg["domain"]["kind"], cfg["domain"]["radius"], cfg["domain"]["height"])
    builtin = cfg["builtin"]
    beta = float(cfg["beta"])
    psi = tuple(beta * float(c) for c in cfg["psi_coeffs"]) if beta != 0.0 else ()
    try:
        if builtin is not None:
            return LoadSpec(surface_pressure=cfg["surface_pressure"], builtin=builtin,
                            domain=domain)
        return LoadSpec(
            phi_coeffs=tuple(float(c) for c in cfg["phi_coeffs"]),
            psi_coeffs=psi,
            surface_pressure=cfg["surface_pressure"],
            domain=domain,
        )
    except LoadError as err:
        raise ConfigError("builtin" if builtin else "phi_coeffs/psi_coeffs", str(err))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def config_hash(cfg: dict) -> str:
    canon = json.dumps(_jsonable(cfg), sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (results dict, csv rows or None,
# exit code), and optionally a dict of run facts for meta.json


def _classify(spec, cfg) -> KernelReport:
    """The load's rotation kernel with the config's tolerance; every
    subcommand that needs it classifies once, here."""
    return compatibility_report(spec, tol=cfg["tolerances"]["classification"])


def _kernel_leaves(rep: KernelReport) -> dict:
    return {
        "classification": rep.classification,
        "axis": rep.axis,
        "resultant": rep.resultant,
        "momentum_max": rep.momentum_max,
        "spin_form_eigenvalues": rep.eigenvalues,
    }


def _cmd_check_loads(spec, cfg):
    rep = _classify(spec, cfg)
    witness = reversed_compatibility_witness(rep.moments, tol=rep.tol)
    return {**_kernel_leaves(rep), "reversed_witness": witness}, None, 0


def _cmd_kernel(spec, cfg):
    """The kernel leaves, and the spin form d' M d on ``kernel_samples``
    Fibonacci axes d (rounded to 12 digits) as the CSV."""
    rep = _classify(spec, cfg)
    dirs = fibonacci_directions(cfg["kernel_samples"])
    vals = np.einsum("ni,ij,nj->n", dirs, spin_form(rep.moments), dirs)
    samples = dict(zip(map(tuple, np.round(dirs, 12).tolist()), vals.tolist()))
    rows = [("wx", "wy", "wz", "work_quadratic")] + [(*d, v) for d, v in samples.items()]
    return {**_kernel_leaves(rep), "samples": len(samples)}, rows, 0


def _cmd_solve_linear(spec, cfg):
    degree = cfg["basis"]["degree"]
    system = assemble(build_space("full", degree, spec.domain), spec)
    res = solve_quadratic(system)
    try:  # the dual bound needs the closed-form compressible minimizer
        lower = explicit_minimizers(spec).min_incompressible_lower
    except LoadError:
        lower = None
    results = {
        "value": res.value,
        "iterations": res.iterations,
        "residual_norm": res.residual_norm,
        "degree": degree,
        "incompressible": {"upper": solve_quadratic(divergence_free(system)).value,
                           "lower": lower},
    }
    return results, None, 0


def _cmd_solve_limit(spec, cfg):
    res = min_limit(spec, degree=cfg["basis"]["degree"], report=_classify(spec, cfg))
    results = {
        "value": res.value,
        "rotation": res.rotation,
        "iterations": res.iterations,
        "residual_norm": res.residual_norm,
        "degree": cfg["basis"]["degree"],
    }
    return results, None, 0


def _cmd_gap_report(spec, cfg):
    rep = gap_report(spec, degree=cfg["basis"]["degree"], order=cfg["quadrature_order"],
                     report=_classify(spec, cfg))
    rows = [("theta", "value", "predicted", "residual")] + [
        (r.theta, r.value, r.predicted, r.residual) for r in rep.decomposition
    ]
    margin = rep.margin if rep.margin is not None else rep.margin_lower
    code = 0 if (margin > 0 and rep.incompressible.certified) else 4
    return _jsonable(rep.leaves()), rows, code


def _cmd_verify_explicit(spec, cfg):
    res = verify_explicit(spec)
    tol = cfg["tolerances"]["explicit_residual"]
    checked = {
        k: v
        for k, v in res.items()
        if k not in ("strain_orthogonality_full", "axial_overlap")
    }
    code = 0 if all(v <= tol for v in checked.values()) else 4
    return {**res, "tolerance": tol}, None, code


def _cmd_nonlinear_study(spec, cfg):
    work = []
    rows = convergence_study(spec, tuple(cfg["h_schedule"]), degree=cfg["nonlinear_degree"],
                             report=_classify(spec, cfg), work=work)
    table = [("h", "value_Gh", "gap_to_limit", "rot_dist", "strain_rescaled")] + [
        (r.h, r.value, r.gap_to_limit, r.rotation_distance, r.strain_rescaled)
        for r in rows
    ]
    failed = [r for r in rows if r.status.startswith("error")]
    results = {"rows": rows, "errors": len(failed)}
    return _jsonable(results), table, 3 if failed else 0, {"descent": work}


def _cmd_rotated_check(spec, cfg):
    res = rotated_no_gap_check(spec, degree=cfg["basis"]["degree"], report=_classify(spec, cfg))
    tol = cfg["tolerances"]["rotated_relative"]
    ok = res.relative_difference < tol and res.kernel_unchanged
    return {**_jsonable(res), "tolerance": tol}, None, 0 if ok else 4


def _cmd_nonuniqueness(spec, cfg):
    res = nonuniqueness_check(spec, order=cfg["quadrature_order"], report=_classify(spec, cfg))
    tol = cfg["tolerances"]["nonuniqueness_relative"]
    ok = res.relative_value_difference < tol and res.distinct
    return {**_jsonable(res), "tolerance": tol}, None, 0 if ok else 4


SUBCOMMANDS = {
    "check-loads": _cmd_check_loads,
    "kernel": _cmd_kernel,
    "solve-linear": _cmd_solve_linear,
    "solve-limit": _cmd_solve_limit,
    "gap-report": _cmd_gap_report,
    "verify-explicit": _cmd_verify_explicit,
    "nonlinear-study": _cmd_nonlinear_study,
    "rotated-check": _cmd_rotated_check,
    "nonuniqueness": _cmd_nonuniqueness,
}


# The BLAS thread variables (OpenBLAS reads them when numpy loads, after the
# package's own defaults) and the bytecode-cache switch, which moves start-up.
META_ENVIRONMENT = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")


def _peak_rss_mb() -> float:
    """The process's own high-water mark of resident memory so far, in MB.

    On Linux ``ru_maxrss`` keeps the launching process's mark across ``exec``,
    so ``VmHWM`` is read where ``/proc/self/status`` exists (both in KiB on Linux).
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _write_csv(path: Path, rows) -> None:
    lines = [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _parse_options(sub: str, args: list[str]) -> tuple[str | None, str] | int:
    """(config path, output directory) from the options after a subcommand.

    Each option takes its value as the next argument or after ``=``, and the
    last occurrence wins.  ``-h``/``--help`` prints the usage and gives 0; an
    unknown option or one without its value prints the usage and the error
    to stderr and gives 1.
    """
    usage = f"usage: traction-gap {sub} [-h] [--config CONFIG] [--out OUT]"
    values: dict[str, str | None] = {"--config": None, "--out": "."}
    unknown = []
    rest = iter(args)
    for arg in rest:
        if arg in ("-h", "--help"):
            print(f"{usage}\n\n  --config CONFIG  path to a JSON config (default: the built-in "
                  f"config)\n  --out OUT        output directory for reports (default: .)")
            return 0
        name, eq, value = arg.partition("=")
        if name not in values:
            unknown.append(arg)
            continue
        if not eq:
            value = next(rest, None)
            if value is None or (value.startswith("-") and value != "-"):
                print(f"{usage}\ntraction-gap {sub}: error: argument {name}: expected one argument",
                      file=sys.stderr)
                return 1
        values[name] = value
    if unknown:
        print(f"{usage}\ntraction-gap {sub}: error: unrecognized arguments: {' '.join(unknown)}",
              file=sys.stderr)
        return 1
    return values["--config"], values["--out"]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0 if argv else 1
    sub = argv[0]
    if sub not in SUBCOMMANDS:
        print(f"unknown subcommand: {sub!r}\n", file=sys.stderr)
        print(USAGE, file=sys.stderr)
        return 1
    options = _parse_options(sub, argv[1:])
    if isinstance(options, int):  # -h has printed the usage (0), or a usage error (1)
        return options
    config_path, out_dir = options

    t0 = time.perf_counter()
    try:
        cfg = validate_config(load_config(config_path))
        spec = spec_from_config(cfg)
    except ConfigError as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return 2

    try:
        results, csv_rows, code, *run_facts = SUBCOMMANDS[sub](spec, cfg)
    except (SolverError, AssemblyError, np.linalg.LinAlgError) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 3
    except (LoadError, IntegrationError) as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return 2

    report = {
        "subcommand": sub,
        "version": __version__,
        "config_hash": config_hash(cfg),
        "tolerances": cfg["tolerances"],
        "results": _jsonable(results),
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )
    if csv_rows is not None:
        _write_csv(out / "report.csv", csv_rows)
    meta = {
        "wall_time_s": time.perf_counter() - t0,
        "subcommand": sub,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy_version": np.__version__,
        "environment": {var: os.environ.get(var) for var in META_ENVIRONMENT},
    }
    for facts in run_facts:
        meta.update(facts)
    (out / "meta.json").write_text(json.dumps(meta) + "\n")
    print(f"{sub}: exit {code}; report in {out / 'report.json'}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
