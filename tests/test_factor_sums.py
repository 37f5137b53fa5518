"""Factor sums and closed forms against node sums, and the profile algebra
against numpy.polynomial.

The loads' placement moments are closed forms; their other moments and the
closed-form fields' integrals are formed from sums over a rule term's planar
and axial factors.  Each is checked here against the explicit weighted sum
over a rule's nodes, at 1e-14 (placement moments) or 1e-13 of the
quantity's scale.  The coefficient-array profile algebra is checked against
the same formulas written with ``numpy.polynomial.Polynomial``, and the
residual bounds against the polynomials' maxima on a grid.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from conftest import (DUAL_BOUND_LOADS, SurfaceRule, at_points, body_force_at, node_moment,
                      surface_quadrature)
from traction_gap import cli, galerkin, limits, loads
from traction_gap.energy import strain
from traction_gap.galerkin import build_space, load_moments
from traction_gap.geometry import Domain, QuadratureRule, exact_order, volume_quadrature
from traction_gap.limits import (
    DECOMPOSITION_THETAS,
    StructuredField,
    explicit_minimizers,
    nonuniqueness_check,
    quadratic_energy,
    rotated_energy_value,
    verify_explicit,
)
from traction_gap.loads import LoadSpec, compatibility_report, default_rules, placement_moments
from traction_gap.profiles import (
    axial_conditions,
    axial_displacement_profile,
    axial_strain_integral,
    biharmonic_residual,
    coefficient_bound,
    planar_profile,
    radial_conditions,
    radial_displacement_profile,
    radial_ode_residual,
    radial_strain_integral,
    swirl_strain_integral,
)
from traction_gap.rotations import best_axis_rotation, rotation_about_z

REL = 1e-13
PRESET = LoadSpec.cylinder_preset()
ODD_POWER_PHI = LoadSpec(phi_coeffs=tuple(c / 7.0 for c in (-2.0, 0.0, 20.0, -25.0, 0.0, 7.0)))
LOADS = {
    "preset": PRESET,
    "beta0": LoadSpec.cylinder_preset(beta=0.0),
    "odd_power_phi": ODD_POWER_PHI,
    "ball_pull_in": LoadSpec.ball_pull_in(),
    "pressure": LoadSpec(phi_coeffs=PRESET.phi_coeffs, psi_coeffs=PRESET.psi_coeffs,
                         surface_pressure=0.5),
}


def _close(got, want, scale):
    assert float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) <= REL * scale


# -- the loads' moments ------------------------------------------------------------


def _sphere_rule(n: int) -> SurfaceRule:
    """The unit sphere with outward normals: Gauss in z times 2n angles,
    exact for polynomials of degree 2n - 1."""
    z, wz = np.polynomial.legendre.leggauss(n)
    th = 2.0 * np.pi * (np.arange(2 * n) + 0.5) / (2 * n)
    Z, TH = np.meshgrid(z, th, indexing="ij")
    rho = np.sqrt(1.0 - Z ** 2)
    pts = np.stack([rho * np.cos(TH), rho * np.sin(TH), Z], axis=-1).reshape(-1, 3)
    return SurfaceRule(pts, np.repeat(wz, 2 * n) * np.pi / n, normals=pts)


MOMENT_LOADS = {
    **LOADS,
    # psi of zero resultant on each domain: beta (z - 1/4) on [0, 1/2], and
    # z^2 - 1/5 against the ball's slice areas pi (1 - z^2) on [-1, 1]
    "radius_2_height_half": LoadSpec(phi_coeffs=PRESET.phi_coeffs,
                                     psi_coeffs=(-0.25 * PRESET.psi_coeffs[1], PRESET.psi_coeffs[1]),
                                     domain=Domain.cylinder(2.0, 0.5)),
    "ball_even_profiles": LoadSpec(phi_coeffs=PRESET.phi_coeffs, psi_coeffs=(-0.2, 0.0, 1.0),
                                   surface_pressure=-0.2, domain=Domain.unit_ball()),
}


@pytest.mark.parametrize("name", sorted(MOMENT_LOADS))
def test_moments_and_resultant_match_the_node_sums(name):
    # T and the resultant in closed form against the work of the forces
    # (and of the pressure lambda n on the surface nodes) at order 32
    load = MOMENT_LOADS[name]
    rules = default_rules(load, 32)
    vol = rules.volume
    surf = None
    if load.has_surface_term:
        surf = (surface_quadrature(load.domain, 32) if load.domain.kind == "cylinder"
                else _sphere_rule(32))
    T, res = placement_moments(load)
    ones = None if surf is None else np.ones((len(surf), 1))
    T_nodes = node_moment(load, rules, vol.points, surf, None if surf is None else surf.points)
    res_nodes = node_moment(load, rules, np.ones((len(vol), 1)), surf, ones)[:, 0]
    # most entries are exact zeros: the scale of a sum is that of its summands,
    # sum w |f| |x| and sum w |f|
    f, x = np.linalg.norm(body_force_at(load, vol.points), axis=1), np.linalg.norm(vol.points, axis=1)
    scale_T, scale_res = float(vol.weights @ (f * x)), float(vol.weights @ f)
    if surf is not None:
        g = abs(load.surface_pressure)
        scale_T += g * float(surf.weights @ np.linalg.norm(surf.points, axis=1))
        scale_res += g * float(np.sum(surf.weights))
    assert float(np.max(np.abs(T - T_nodes))) <= 1e-14 * scale_T
    assert float(np.max(np.abs(res - res_nodes))) <= 1e-14 * scale_res
    # the mirror symmetries of both domains zero these entries exactly
    assert np.all(T[~np.eye(3, dtype=bool)] == 0.0)
    assert res[0] == 0.0 and res[1] == 0.0


def _node_load_moments(space, load, rules):
    """The load moments from forces evaluated at the volume nodes, through the
    same (P w) F_i (Z w)' contraction as ``galerkin.load_moments``."""
    vol = rules.volume
    pts = vol.points
    if load.builtin is not None:
        f = -pts
    else:
        f = np.zeros_like(pts)
        if np.any(load.phi.coef):
            ratio = Polynomial(load.phi.deriv().coef[1:])
            vals = ratio(np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2))
            f[:, 0], f[:, 1] = vals * pts[:, 0], vals * pts[:, 1]
        if np.any(load.psi.coef):
            f[:, 2] = load.psi(pts[:, 2])
    Y, start = 0.0, 0
    for (px, py, pw), (z, wz) in vol.terms:
        P, Z = space._planar(px, py) * pw, space._axial(z) * wz
        F = f[start:start + pw.size * wz.size].reshape(pw.size, wz.size, 3)
        start += pw.size * wz.size
        Y = Y + np.stack([(P @ F[..., i]) @ Z.T for i in range(3)])
    sign, pidx, zidx = space._slots
    return sign[:, None, :3] * Y[:, pidx[:, :3], zidx[:, :3]].transpose(1, 0, 2)


@pytest.mark.parametrize("name", ["preset", "beta0", "odd_power_phi", "ball_pull_in"])
def test_load_moments_are_the_node_force_contraction_bit_for_bit(name):
    load = LOADS[name]
    space = build_space("full", 4, load.domain)
    rules = default_rules(load, 8)
    assert np.array_equal(load_moments(space, load, rules), _node_load_moments(space, load, rules))


# -- the closed-form fields' integrals ---------------------------------------------


def _node_strains(field, rule):
    return strain(at_points(field, rule.points)[1])


def _norm_sq(E, w):
    return float(w @ np.einsum("nij,nij->n", E, E))


def test_quadratic_energy_matches_the_node_sum():
    sol = explicit_minimizers(PRESET)
    rules = default_rules(PRESET, 16)
    for theta in DECOMPOSITION_THETAS:
        field = sol.minimizer_field(theta)
        want = 4.0 * _norm_sq(_node_strains(field, rules.volume), rules.volume.weights)
        _close(quadratic_energy(field, rules), want, abs(want))


@pytest.mark.parametrize("beta", [0.01, 0.0])
def test_decomposition_values_match_the_node_sums(beta):
    spec = LoadSpec.cylinder_preset(beta=beta)
    sol = explicit_minimizers(spec)
    rules = default_rules(spec, 16)
    vol = rules.volume
    f = body_force_at(spec, vol.points)
    for theta in DECOMPOSITION_THETAS:
        field = sol.minimizer_field(theta)
        values, grads = at_points(field, vol.points)
        work = float(vol.weights @ np.einsum("ni,ni->n", f, values @ rotation_about_z(theta).T))
        want = 4.0 * _norm_sq(strain(grads), vol.weights) - work
        _close(rotated_energy_value(spec, field, theta, rules), want, abs(want))


def test_pressure_work_matches_the_surface_node_sum():
    # the pressure's work is lambda times the integral of div u, on the
    # factors; its definition is the sum of lambda n . R u over the surface
    load = LOADS["pressure"]
    sol = explicit_minimizers(PRESET)
    rules = default_rules(load, 16)
    vol, surf = rules.volume, surface_quadrature(load.domain, 16)
    for theta in DECOMPOSITION_THETAS:
        field = sol.minimizer_field(theta)
        values, grads = at_points(field, vol.points)
        Y = node_moment(load, rules, values, surf, at_points(field, surf.points)[0])
        want = 4.0 * _norm_sq(strain(grads), vol.weights) - float(np.sum(rotation_about_z(theta) * Y))
        _close(rotated_energy_value(load, field, theta, rules), want, abs(want))


def _assert_dual_bound_is_the_node_sum(sol):
    degree = max(4 * sol.planar.degree(), 2 * sol.axial.degree() - 2)
    vol = volume_quadrature(Domain.cylinder(), exact_order(degree))
    E = _node_strains(sol.u0, vol)
    dev = E - np.trace(E, axis1=1, axis2=2)[:, None, None] * (np.eye(3) / 3.0)
    want = -4.0 * _norm_sq(dev, vol.weights)
    _close(sol.min_incompressible_lower, want, abs(want))


@pytest.mark.parametrize("spec", DUAL_BOUND_LOADS)
def test_incompressible_lower_bound_matches_the_node_sum(spec):
    _assert_dual_bound_is_the_node_sum(explicit_minimizers(spec))


def test_incompressible_lower_bound_keeps_the_wall_terms():
    # admissible loads have eta(1) = p(1) = 0, which hides the closed form's
    # eta(1) terms; the identity holds for every eta and w, so a u0 moved off
    # the wall (eta gains 0.05 r - 0.02 r^3, min_E moves with it) checks them
    sol = explicit_minimizers(LoadSpec.cylinder_preset(beta=0.3))
    planar = sol.planar + Polynomial([0.05, -0.02])
    eta = Polynomial([0.0, 1.0]) * planar(Polynomial([0.0, 0.0, 1.0]))
    moved = dataclasses.replace(sol, planar=planar, radial_integral=radial_strain_integral(eta))
    assert float(moved.planar(1.0)) == pytest.approx(0.03)
    assert float(moved.axial(1.0) - moved.axial(0.0)) == pytest.approx(0.3 / 96.0)
    _assert_dual_bound_is_the_node_sum(moved)


def test_nonuniqueness_values_and_norms_match_the_node_sums():
    report = compatibility_report(PRESET)
    res = nonuniqueness_check(PRESET, order=16, report=report)
    sol = explicit_minimizers(PRESET)
    rules = default_rules(PRESET, 16)
    vol = rules.volume
    u_star = sol.u_swirl
    u_hat = StructuredField(-u_star.a, -u_star.b, u_star.p, u_star.w)
    E_star, E_hat = _node_strains(u_star, vol), _node_strains(u_hat, vol)
    norm = np.sqrt(_norm_sq(E_star, vol.weights))
    distance = np.sqrt(_norm_sq(E_hat - E_star, vol.weights))
    _close(res.strain_norm, norm, norm)
    _close(res.strain_distance, distance, distance)
    for fld, got in ((u_star, res.value_at_minimizer), (u_hat, res.value_at_mirror)):
        Y = node_moment(PRESET, rules, at_points(fld, vol.points)[0])
        _, R = best_axis_rotation(Y, report.axis)
        want = 4.0 * _norm_sq(_node_strains(fld, vol), vol.weights) - float(np.sum(R * Y))
        _close(got, want, abs(want))


def test_factor_sums_refuse_a_rule_without_terms():
    rule = volume_quadrature(Domain.cylinder(), 6)
    nodes_only = loads.LoadRules(volume=QuadratureRule(rule.points, rule.weights))
    with pytest.raises(ValueError, match="planar-by-axial"):
        quadratic_energy(explicit_minimizers(PRESET).u0, nodes_only)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite input on purpose
def test_non_finite_work_is_a_load_error():
    sol = explicit_minimizers(PRESET)
    field = StructuredField(np.inf, 0.0, sol.planar, sol.axial)
    with pytest.raises(loads.LoadError, match="non-finite"):
        rotated_energy_value(PRESET, field, 0.3, default_rules(PRESET, 8))


# -- no node work on the default config ----------------------------------------------


def test_closed_form_subcommands_stay_on_the_factors(tmp_path, monkeypatch):
    # check-loads, gap-report, verify-explicit and nonuniqueness evaluate the
    # force and the structured fields on factors of at most 2 n^2 points, the
    # planar factor of the largest rule they use (order n = quadrature_order,
    # or verify-explicit's exact order, which takes no floor); a field has no
    # 3D evaluation, and 3D points given to its factors would number N_P N_z
    sol = explicit_minimizers(PRESET)
    largest = {sub: 2 * cli.DEFAULT_CONFIG["quadrature_order"] ** 2
               for sub in ("gap-report", "nonuniqueness")}
    largest["verify-explicit"] = 2 * sol.exact_order ** 2
    sizes = []

    def recording(fn, count):
        def wrapped(*args):
            sizes.append(count(args))
            return fn(*args)
        return wrapped

    forces = recording(loads.factor_forces, lambda a: max(a[1][0][0].size, a[1][1][0].size))
    for module in (loads, limits, galerkin):
        monkeypatch.setattr(module, "factor_forces", forces)
    for name in ("planar", "axial"):
        monkeypatch.setattr(StructuredField, name,
                            recording(getattr(StructuredField, name), lambda a: a[1].size))
    assert not hasattr(StructuredField, "at_points")
    for sub in ("check-loads", "gap-report", "verify-explicit", "nonuniqueness"):
        sizes.clear()
        assert cli.main([sub, "--out", str(tmp_path / sub)]) == 0
        if sub == "check-loads":  # the moments are closed forms
            assert not sizes
            continue
        assert sizes, sub
        assert max(sizes) <= largest[sub], sub


# -- the profile algebra -------------------------------------------------------------


def _admissible_phi(t: list[float]) -> Polynomial:
    """phi(r) = q(r^2) with q(s) = (s - 1)^2 t(s), its constant shifted so
    that integral_0^1 q = 0: then phi(1) = phi'(1) = 0, phi'(0) = 0 and the
    moment integral_0^1 r^2 phi'(r) dr = -integral_0^1 q(s) ds vanishes."""
    q = Polynomial([1.0, -2.0, 1.0]) * Polynomial(t)
    q = q - 3.0 * q.integ()(1.0) * Polynomial([1.0, -2.0, 1.0])
    coef = np.zeros(2 * q.coef.size - 1)
    coef[::2] = q.coef
    return Polynomial(coef)


def _reference_eta(phi: Polynomial) -> Polynomial:
    r = Polynomial([0.0, 1.0])
    inner = (r * r * phi.deriv()).integ().coef
    divided = Polynomial(inner[1:] if inner.size > 1 else [0.0])
    return Polynomial([0.0, -1.0 / 16.0]) * phi + divided / 16.0


def _reference_laplacian(g: Polynomial) -> Polynomial:
    d1 = g.deriv()
    return d1.deriv() + Polynomial(d1.coef[1:] if d1.coef.size > 1 else [0.0])


# coefficients are 0 or at least 1e-6 in size: far smaller ones drive the
# strain integrals into the subnormal range, where no relative bound holds
coefficient = st.floats(-3.0, 3.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-6)
coefficients = st.lists(coefficient, min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(t=coefficients, psi_tail=coefficients)
def test_profile_algebra_matches_numpy_polynomial(t, psi_tail):
    phi = _admissible_phi(t)
    scale = max(1.0, float(np.max(np.abs(phi.coef))))
    r = Polynomial([0.0, 1.0])
    grid = np.linspace(1e-3, 1.0, 50)

    cond = radial_conditions(phi)
    dphi = phi.deriv()
    _close([cond["value_at_1"], cond["slope_at_1"], cond["moment"], cond["slope_at_0"]],
           [phi(1.0), dphi(1.0), (r * r * dphi).integ()(1.0), dphi(0.0)], scale)

    eta = radial_displacement_profile(phi)
    want = _reference_eta(phi)
    assert eta.degree() == want.degree()
    eta_scale = float(np.max(np.abs(want.coef)))
    _close(eta.coef, want.coef, eta_scale)

    want_p = Polynomial(want.coef[1::2] if want.coef.size > 1 else [0.0])
    over_r = want_p(r * r)
    d = want.deriv()
    _close(planar_profile(eta).coef, want_p.coef, eta_scale)
    _close(radial_strain_integral(eta), ((d * d + over_r * over_r) * r).integ()(1.0),
           eta_scale ** 2)
    _close(swirl_strain_integral(eta), (2.0 * (d - over_r) ** 2 * r).integ()(1.0),
           eta_scale ** 2)

    # both residuals vanish identically: their scale is that of the terms that cancel
    ode = [r * r * d.deriv(), r * d, -want, 0.125 * r * r * dphi]
    _close(Polynomial(radial_ode_residual(eta, phi))(grid), sum(ode)(grid),
           sum(np.max(np.abs(term(grid))) for term in ode))
    biharmonic = [8.0 * _reference_laplacian(_reference_laplacian(want.integ(lbnd=0.0))),
                  _reference_laplacian(phi)]
    _close(Polynomial(biharmonic_residual(eta, phi))(grid), sum(biharmonic)(grid),
           sum(np.max(np.abs(term(grid))) for term in biharmonic))

    # an axial profile of zero mean: psi = tail - its mean
    tail = Polynomial(psi_tail)
    psi = tail - tail.integ()(1.0)
    psi_scale = max(1.0, float(np.max(np.abs(psi.coef))))
    _close(axial_conditions(psi)["first_moment"], (r * psi).integ()(1.0), psi_scale)
    w = axial_displacement_profile(psi)
    want_w = -psi.integ(2, lbnd=0.0) / 8.0
    assert w.degree() == want_w.degree()
    _close(w.coef, want_w.coef, psi_scale)
    dw = want_w.deriv()
    _close(axial_strain_integral(w), (dw * dw).integ()(1.0), psi_scale ** 2)


# -- the residual bounds -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(c=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=13))
def test_coefficient_bound_dominates_the_maximum(c):
    # |c_k r^k| <= |c_k| on [0, 1]; the slack covers the round-off of the two sums
    grid = np.linspace(0.0, 1.0, 10_000)
    bound = coefficient_bound(c)
    assert float(np.max(np.abs(Polynomial(c)(grid)))) <= bound * (1.0 + 1e-14)


def test_residual_bounds_are_round_off_on_admissible_profiles():
    # random even admissible phi of degree 10 with psi = 0.3 (z - 1/2): the
    # closed form solves the equations, and every bound reads round-off
    rng = np.random.default_rng(0)
    for _ in range(10):
        spec = LoadSpec(phi_coeffs=tuple(_admissible_phi(list(rng.normal(size=4))).coef),
                        psi_coeffs=(-0.15, 0.3))
        res = verify_explicit(spec)
        for key in ("ode_residual", "biharmonic_residual", "euler_lagrange_interior",
                    "boundary_traction"):
            assert res[key] <= 1e-12, key
