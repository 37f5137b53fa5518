"""Benchmark workloads and the correctness gates every report must pass.

A workload is a config (overrides of the CLI's DEFAULT_CONFIG) plus the
subcommands one pass runs on it.  The workload seed only shuffles the order
of those subcommands; no config value depends on it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

ALL_SUBCOMMANDS = (
    "check-loads",
    "kernel",
    "solve-linear",
    "solve-limit",
    "gap-report",
    "verify-explicit",
    "nonlinear-study",
    "rotated-check",
    "nonuniqueness",
)

# Calls too short to repeat within a tenth on their own: they count only in
# pass_s.
SHORT_SUBCOMMANDS = ("check-loads", "kernel", "verify-explicit", "nonuniqueness")

GAP_MARGIN = 3.0 * math.pi / 560.0  # closed-form compressible gap of the preset
MARGIN_ABS_TOL = 1e-12
GALERKIN_REL_TOL = 1e-8  # Galerkin minima against their closed forms
ROTATED_REL_TOL = 1e-6
SO3_SLACK = 1e-12  # round-off allowance on the full-SO(3) upper bound


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    subcommands: tuple[str, ...]
    classification: str  # expected rotation-kernel class of the load

    def config_json(self) -> str:
        return json.dumps(self.config, sort_keys=True)

    def order(self, seed: int, pass_index: int) -> list[str]:
        subs = list(self.subcommands)
        random.Random(f"{seed}:{pass_index}").shuffle(subs)
        return subs


# Why each workload exists is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cylinder_axis",
            config={},
            subcommands=ALL_SUBCOMMANDS,
            classification="axis_subgroup",
        ),
        Workload(
            name="cylinder_so3",
            config={"beta": 0.0, "basis": {"degree": 6}},
            subcommands=("check-loads", "kernel", "solve-limit"),
            classification="full_so3",
        ),
        Workload(
            name="thin_film",
            config={
                "nonlinear_degree": 5,
                "h_schedule": [0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005],
            },
            subcommands=("nonlinear-study",),
            classification="axis_subgroup",
        ),
    )
}


@dataclass(frozen=True)
class References:
    """Values the reports are checked against, computed outside the passes."""

    min_linear: float  # closed-form minimum of the linear energy
    min_swirl: float  # closed-form minimum of the limit energy
    so3_upper: float | None  # Galerkin value at R_z(-pi/2), full-SO(3) loads only


def compute_references(workload: Workload, config_path: str) -> References:
    """Closed forms, plus one Galerkin solve at R_z(-pi/2) on full-SO(3) loads.

    That solve is a feasible point of the SO(3) search, so its value bounds
    the searched minimum from above.
    """
    import numpy as np

    from traction_gap import cli
    from traction_gap.galerkin import assemble, build_space, solve_quadratic
    from traction_gap.limits import explicit_minimizers
    from traction_gap.rotations import rotation_about_z

    cfg = cli.validate_config(cli.load_config(config_path))
    spec = cli.spec_from_config(cfg)
    sol = explicit_minimizers(spec)
    so3_upper = None
    if workload.classification == "full_so3":
        space = build_space("full", cfg["basis"]["degree"], spec.domain)
        system = assemble(space, spec)
        so3_upper = solve_quadratic(system, R=rotation_about_z(-0.5 * np.pi)).value
    return References(sol.min_linear_value, sol.min_swirl_value, so3_upper)


def check_report(workload: Workload, refs: References, sub: str, code, results) -> list[str]:
    """Problems with one subcommand call; an empty list means it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    if results is None:
        return problems + ["no report.json"]

    def close(label: str, got: float, want: float, tol: float) -> None:
        if not abs(got - want) <= tol * abs(want):
            problems.append(f"{label} = {got!r}, expected {want!r} to relative {tol:g}")

    tol = GALERKIN_REL_TOL
    if sub in ("check-loads", "kernel"):
        if results["classification"] != workload.classification:
            problems.append(
                f"classification {results['classification']!r}, "
                f"expected {workload.classification!r}"
            )
    elif sub == "solve-linear":
        close("min_E", results["value"], refs.min_linear, tol)
    elif sub == "solve-limit":
        if refs.so3_upper is not None:
            bound = refs.so3_upper + SO3_SLACK * max(1.0, abs(refs.so3_upper))
            if not results["value"] <= bound:
                problems.append(
                    f"min_G = {results['value']!r} above the R_z(-pi/2) value "
                    f"{refs.so3_upper!r}"
                )
        else:
            close("min_G", results["value"], refs.min_swirl, tol)
    elif sub == "gap-report":
        close("galerkin min_E", results["galerkin_min_E"], refs.min_linear, tol)
        close("galerkin min_G", results["galerkin_min_G"], refs.min_swirl, tol)
        if not abs(results["margin"] - GAP_MARGIN) <= MARGIN_ABS_TOL:
            problems.append(f"margin = {results['margin']!r}, expected 3 pi / 560")
        if results["incompressible"]["certified"] is not True:
            problems.append("incompressible gap not certified")
    elif sub == "rotated-check":
        if not results["relative_difference"] < ROTATED_REL_TOL:
            problems.append(f"rotated relative difference {results['relative_difference']!r}")
    elif sub == "nonlinear-study":
        if results["errors"] != 0:
            problems.append(f"{results['errors']} nonlinear rows failed")
        gaps = [row["gap_to_limit"] for row in results["rows"]]
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            problems.append(f"gap_to_limit does not strictly decrease: {gaps}")
    return problems
