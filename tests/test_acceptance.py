"""Acceptance suite: one test per criterion, each at its stated tolerance
and runtime budget.  A PASS/FAIL line per criterion is printed in the
terminal summary.

Criterion 3 carries a known red sub-check: the degree-6 full space cannot
represent the degree-7 closed-form minimizers, so its Galerkin minima sit
exactly at 14/15 of the true values (6.67 % relative, established both
analytically and numerically); the 1 % cross-check is therefore asserted
as stated and fails.  The same cross-check at degree 7 agrees with the
closed forms to 2e-15 and is printed alongside.
"""

import time

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from conftest import ACCEPTANCE_LINES
from traction_gap.energy import density, density_gradient, quadratic_form
from traction_gap.galerkin import assemble, build_space, solve_quadratic
from traction_gap.geometry import Domain, volume_quadrature
from traction_gap.limits import (
    explicit_minimizers,
    gap_report,
    min_limit,
    min_linear,
    nonuniqueness_check,
    rotated_no_gap_check,
    rotated_energy_value,
    verify_explicit,
)
from traction_gap.loads import (
    LoadSpec,
    compatibility_report,
    default_rules,
    placement_moments,
    reversed_compatibility_witness,
    rigid_projection,
)
from traction_gap.profiles import radial_conditions
from traction_gap.rotations import coercivity_profile, exp_so3
from traction_gap.scaled import convergence_study

BETA = 0.01
PRESET = LoadSpec.cylinder_preset(beta=BETA)


def _record(num: int, checks: dict[str, bool], elapsed: float, budget: float, extra: str = ""):
    checks = dict(checks)
    checks[f"runtime<{budget:g}s"] = elapsed < budget
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    status = "PASS" if ok else f"FAIL ({', '.join(failed)})"
    line = f"ACCEPTANCE {num:2d}: {status}  [{elapsed:.2f}s]"
    if extra:
        line += f"  {extra}"
    ACCEPTANCE_LINES.append((num, line))
    assert ok, line


def test_criterion_01_profile_constraints():
    t0 = time.perf_counter()
    cond = radial_conditions(PRESET.phi)
    total = abs(cond["value_at_1"]) + abs(cond["slope_at_1"]) + abs(cond["moment"])
    elapsed = time.perf_counter() - t0
    _record(1, {"profile_constraints<1e-12": total < 1e-12}, elapsed, 1.0,
            extra=f"sum={total:.2e}")


def test_criterion_02_explicit_solution_residuals():
    t0 = time.perf_counter()
    res = verify_explicit(PRESET)
    elapsed = time.perf_counter() - t0
    checks = {
        "ode<1e-12": res["ode_residual"] < 1e-12,
        "euler_lagrange<1e-8": res["euler_lagrange_interior"] < 1e-8,
        "boundary<1e-8": res["boundary_traction"] < 1e-8,
        "biharmonic<1e-8": res["biharmonic_residual"] < 1e-8,
        # the minimizers share the axial strain, so the orthogonality that
        # the decomposition uses (and that is asserted here) is that of the
        # differing planar parts; the full contraction equals the shared
        # axial energy exactly
        "orthogonality<1e-10": res["strain_orthogonality"] < 1e-10,
        "full_contraction_characterized": abs(
            res["strain_orthogonality_full"] - np.pi * BETA**2 / 7680.0
        ) < 1e-12,
    }
    _record(2, checks, elapsed, 10.0,
            extra=f"planar={res['strain_orthogonality']:.1e} full={res['strain_orthogonality_full']:.3e}")


def test_criterion_03_compressible_gap():
    t0 = time.perf_counter()
    sol = explicit_minimizers(PRESET)
    margin = sol.margin
    rel_margin = margin / abs(sol.min_linear_value)

    lin6 = min_linear(PRESET, degree=6)
    lim6 = min_limit(PRESET, degree=6)
    err_e6 = abs(lin6.value - sol.min_linear_value) / abs(sol.min_linear_value)
    err_g6 = abs(lim6.value - sol.min_swirl_value) / abs(sol.min_swirl_value)

    lin7 = min_linear(PRESET, degree=7)
    lim7 = min_limit(PRESET, degree=7)
    err_e7 = abs(lin7.value - sol.min_linear_value) / abs(sol.min_linear_value)
    err_g7 = abs(lim7.value - sol.min_swirl_value) / abs(sol.min_swirl_value)
    elapsed = time.perf_counter() - t0

    checks = {
        "margin>0": margin > 0.0,
        "relative_margin>1e-3": rel_margin > 1e-3,
        # known red: degree-6 spaces cannot contain the degree-7 minimizers
        # (best value is exactly 14/15 of the truth; parity: degree 6 adds
        # nothing over 5 in the odd-degree sector that carries the minimizer)
        "galerkin_deg6_minE_within_1%": err_e6 < 1e-2,
        "galerkin_deg6_minG_within_1%": err_g6 < 1e-2,
    }
    _record(
        3, checks, elapsed, 120.0,
        extra=(f"margin={margin:.6f} rel={rel_margin:.3f}; deg6 errs=({err_e6:.4f},{err_g6:.4f}); "
               f"deg7 errs=({err_e7:.1e},{err_g7:.1e})"),
    )


def test_criterion_04_decomposition_identity():
    t0 = time.perf_counter()
    sol = explicit_minimizers(PRESET)
    rules = default_rules(PRESET, 16)
    worst = 0.0
    for theta in (-np.pi / 2, -np.pi / 4, 0.0, np.pi / 4, np.pi / 2):
        value = rotated_energy_value(PRESET, sol.minimizer_field(theta), theta, rules)
        predicted = sol.min_rotated_value(theta)
        worst = max(worst, abs(value - predicted))
    elapsed = time.perf_counter() - t0
    bound = 1e-8 * abs(sol.min_linear_value)
    _record(4, {"decomposition<1e-8*|minE|": worst < bound}, elapsed, 120.0,
            extra=f"worst={worst:.2e} bound={bound:.2e}")


def test_criterion_05_kernel_classifications():
    t0 = time.perf_counter()
    rep_axis = compatibility_report(PRESET)
    beta0 = LoadSpec.cylinder_preset(beta=0.0)
    rep_full = compatibility_report(beta0)
    ball = LoadSpec.ball_pull_in()
    rep_ball = compatibility_report(ball)
    pressure = LoadSpec(surface_pressure=-1.0)
    witness = reversed_compatibility_witness(placement_moments(pressure)[0])
    elapsed = time.perf_counter() - t0
    checks = {
        "preset->axis_subgroup(e_z)": rep_axis.classification == "axis_subgroup"
        and np.allclose(rep_axis.axis, [0, 0, 1], atol=1e-8),
        "beta0->full_so3": rep_full.classification == "full_so3",
        "pull_in->incompatible": rep_ball.classification == "incompatible",
        "compressive_pressure->witness": witness is not None,
    }
    _record(5, checks, elapsed, 10.0)


def test_criterion_06_rotated_no_gap():
    t0 = time.perf_counter()
    res = rotated_no_gap_check(PRESET, degree=8)
    elapsed = time.perf_counter() - t0
    checks = {
        "relative_difference<1e-6": res.relative_difference < 1e-6,
        "kernel_unchanged": res.kernel_unchanged,
    }
    _record(6, checks, elapsed, 120.0, extra=f"rel={res.relative_difference:.2e}")


def test_criterion_07_nonuniqueness():
    t0 = time.perf_counter()
    res = nonuniqueness_check(PRESET)
    elapsed = time.perf_counter() - t0
    checks = {
        "values_match<1e-8": res.relative_value_difference < 1e-8,
        "strain_distance>0.1*norm": res.strain_distance > 0.1 * res.strain_norm,
    }
    _record(7, checks, elapsed, 30.0,
            extra=f"rel={res.relative_value_difference:.2e} dist/norm={res.strain_distance / res.strain_norm:.2f}")


def test_criterion_08_convergence_study():
    t0 = time.perf_counter()
    rows = convergence_study(PRESET, (0.2, 0.1, 0.05, 0.02), degree=4)
    elapsed = time.perf_counter() - t0
    limit = explicit_minimizers(PRESET).min_swirl_value
    gaps = [r.gap_to_limit for r in rows]
    checks = {
        "gap_strictly_decreasing": all(a > b for a, b in zip(gaps, gaps[1:])),
        "final_gap<5%": gaps[-1] < 0.05 * abs(limit),
        "strain_ratio>2": rows[-1].strain_rescaled > 2.0 * rows[0].strain_rescaled,
        "all_rows_solved": all(not r.status.startswith("error") for r in rows),
    }
    _record(8, checks, elapsed, 600.0,
            extra=f"gaps={['%.1e' % g for g in gaps]} strain x{rows[-1].strain_rescaled / rows[0].strain_rescaled:.1f}")


def test_criterion_09_incompressible_gap():
    t0 = time.perf_counter()
    rep = gap_report(PRESET, degree=8)
    inc = rep.incompressible
    retried = False
    if not inc.certified:
        retried = True
        rep = gap_report(PRESET, degree=10)
        inc = rep.incompressible
    elapsed = time.perf_counter() - t0
    checks = {"certified": inc.certified}
    _record(
        9, checks, elapsed, 600.0,
        extra=(f"GI_upper={inc.min_GI_upper:.6f} < EI_lower={inc.min_EI_lower:.6f}"
               + (" (after degree+2 refinement)" if retried else "")),
    )


def test_criterion_10_property_suites(rng):
    t0 = time.perf_counter()
    ok_frame = True
    for _ in range(1000):
        R = exp_so3(rng.uniform(-np.pi, np.pi, 3))
        F = rng.normal(size=(3, 3))
        if abs(density(R @ F) - density(F)) > 1e-12 * max(1.0, density(F)):
            ok_frame = False
            break

    ok_profile = True
    volume = np.pi
    rule = volume_quadrature(Domain.cylinder(), 8)
    for p in (1.2, 1.7, 2.0):
        s = rng.uniform(0, 5, 200)
        t = rng.uniform(0, 5, 200)
        lam = rng.uniform(0.01, 0.99, 200)
        mid = coercivity_profile(lam * s + (1 - lam) * t, p)
        chord = lam * coercivity_profile(s, p) + (1 - lam) * coercivity_profile(t, p)
        if np.any(mid > chord + 1e-10):
            ok_profile = False
        for h in (0.5, 0.05):
            eta = rng.normal(scale=2.0, size=len(rule))
            lhs = float(np.dot(rule.weights, coercivity_profile(h * np.abs(eta), p))) / h**2
            rhs = float(np.dot(rule.weights, np.abs(eta) ** p)) - (2 - p) / p * volume
            if lhs < rhs - 1e-10:
                ok_profile = False

    v4 = solve_quadratic(assemble(build_space("full", 4, Domain.cylinder()), PRESET)).value
    v6 = solve_quadratic(assemble(build_space("full", 6, Domain.cylinder()), PRESET)).value
    ok_monotone = v6 <= v4 + 1e-12

    ok_grad = True
    step = 1e-6
    for _ in range(100):
        F = rng.normal(size=(3, 3))
        G = density_gradient(F)
        i, j = rng.integers(0, 3, 2)
        E = np.zeros((3, 3))
        E[i, j] = step
        fd = (density(F + E) - density(F - E)) / (2 * step)
        if abs(G[i, j] - fd) > 1e-6 * max(1.0, abs(G[i, j])):
            ok_grad = False
            break

    part = rigid_projection(rng.normal(size=(len(rule), 3)), rule)
    again = rigid_projection(part.values(rule.points), rule)
    ok_idem = np.allclose(again.translation, part.translation, atol=1e-12) and np.allclose(
        again.omega, part.omega, atol=1e-12
    )
    elapsed = time.perf_counter() - t0
    checks = {
        "frame_indifference_1e-12": ok_frame,
        "growth_profile_properties": ok_profile,
        "galerkin_monotone": ok_monotone,
        "gradient_fd_1e-6": ok_grad,
        "rigid_projection_idempotent": ok_idem,
    }
    _record(10, checks, elapsed, 60.0)
