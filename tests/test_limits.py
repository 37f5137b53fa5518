import dataclasses

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from conftest import DUAL_BOUND_LOADS, at_points, node_moment, surface_quadrature
from traction_gap.energy import strain
from traction_gap.galerkin import SolverError, assemble, build_space, divergence_free, solve_quadratic
from traction_gap.geometry import Domain, volume_quadrature
from traction_gap import cli, limits
from traction_gap.limits import (
    _axis_minimum,
    _rotation_values,
    _search,
    _tangent_derivatives,
    explicit_minimizers,
    gap_report,
    min_limit,
    min_linear,
    nonuniqueness_check,
    quadratic_energy,
    rotated_no_gap_check,
    verify_explicit,
)
from traction_gap.loads import LoadSpec, default_rules
from traction_gap.geometry import gauss_legendre
from traction_gap.profiles import coefficient_bound, radial_displacement_profile, radial_ode_residual
from traction_gap.rotations import (
    best_axis_rotation,
    exp_so3,
    nearest_rotation,
    rotation_about_z,
    skew_from_axis,
)

# closed forms for the preset profile, from one-dimensional quadrature of
# eta(r) = r (1 - r^2)^3 / 16 and the axial displacement of beta (z - 1/2)
BETA = 0.01
MIN_E = -3 * np.pi / 560 - np.pi * BETA**2 / 1920
MIN_G = -3 * np.pi / 280 - np.pi * BETA**2 / 1920
MARGIN = 3 * np.pi / 560


def test_radial_profile_closed_form(preset):
    eta = radial_displacement_profile(preset.phi)
    r = np.linspace(0.0, 1.0, 500)
    expected = r * (1.0 - r * r) ** 3 / 16.0
    assert np.max(np.abs(eta(r) - expected)) < 1e-15
    assert eta(0.0) == 0.0
    assert abs(eta.deriv()(1.0)) < 1e-15


def test_radial_profile_rejects_inadmissible():
    with pytest.raises(ValueError):
        radial_displacement_profile(Polynomial([0.0, 0.0, 1.0]))  # phi = r^2


def test_ode_residual_detects_defects(preset):
    eta = radial_displacement_profile(preset.phi)
    assert coefficient_bound(radial_ode_residual(eta, preset.phi)) < 1e-12
    perturbed = eta + Polynomial([0.0, 0.0, 0.01])
    assert coefficient_bound(radial_ode_residual(perturbed, preset.phi)) > 1e-3
    zero = Polynomial([0.0])
    assert coefficient_bound(radial_ode_residual(zero, zero)) == 0.0


def test_explicit_solution_values(preset):
    sol = explicit_minimizers(preset)
    assert np.isclose(sol.min_linear_value, MIN_E, rtol=1e-13)
    assert np.isclose(sol.min_swirl_value, MIN_G, rtol=1e-13)
    assert np.isclose(sol.margin, MARGIN, rtol=1e-13)
    assert sol.margin > 0.0


def test_explicit_residuals(preset):
    res = verify_explicit(preset)
    assert res["ode_residual"] < 1e-12
    assert res["euler_lagrange_interior"] < 1e-8
    assert res["boundary_traction"] < 1e-8
    assert res["biharmonic_residual"] < 1e-8
    assert res["strain_orthogonality"] < 1e-10
    # the full contraction carries the shared axial strain exactly
    assert np.isclose(
        res["strain_orthogonality_full"], np.pi * BETA**2 / 7680.0, atol=1e-12
    )
    assert res["axial_slope_at_0"] < 1e-12 and res["axial_slope_at_1"] < 1e-12


def test_explicit_minimizers_require_cylinder():
    with pytest.raises(ValueError):
        explicit_minimizers(LoadSpec.ball_pull_in())


def test_min_linear_matches_closed_form(preset):
    res = min_linear(preset, degree=8)
    assert abs(res.value - MIN_E) / abs(MIN_E) < 1e-10
    # degree 6 sits at the polynomial-containment limit: the minimizer is a
    # degree-7 field, and the best degree-6 value is exactly 14/15 of the truth
    res6 = min_linear(preset, degree=6)
    assert abs(res6.value - MIN_E) / abs(MIN_E) == pytest.approx(1 / 15, abs=2e-4)


def test_min_linear_zero_loads():
    res = min_linear(LoadSpec(), degree=2)
    assert res.value == 0.0


def test_min_linear_of_the_pull_in_load():
    # f = -x on the unit ball has a null resultant and momentum, so its linear
    # minimum exists although its spin form makes it incompatible.  The
    # minimizer (r^2 - 3) x / 80 is cubic, with value -2 pi / 175; the best
    # quadratic field reaches -pi / 100
    spec = LoadSpec.ball_pull_in()
    assert min_linear(spec, degree=2).value == pytest.approx(-np.pi / 100.0, rel=1e-14)
    for degree in (3, 8):
        assert min_linear(spec, degree=degree).value == pytest.approx(-2.0 * np.pi / 175.0,
                                                                      rel=1e-13)


def test_min_limit_axis_subgroup(preset):
    res = min_limit(preset, degree=8)
    assert abs(res.value - MIN_G) / abs(MIN_G) < 1e-6
    # optimal rotation is the quarter turn about the kernel axis
    assert np.isclose(abs(res.rotation[0, 1]), 1.0, atol=1e-5)
    assert np.isclose(res.rotation[2, 2], 1.0, atol=1e-8)


def test_min_limit_identity_only_reduces_to_linear():
    spec = LoadSpec(surface_pressure=1.0)
    limit = min_limit(spec, degree=4)
    linear = min_linear(spec, degree=4)
    assert np.isclose(limit.value, linear.value, rtol=1e-12)
    assert limit.value < 0.0


def test_min_limit_zero_loads():
    res = min_limit(LoadSpec(), degree=2)
    assert res.value == 0.0


def _rotation_derivatives(Q, R):
    """Gradient and Hessian of t -> m(R exp(sum_i t_i W_i)) at t = 0, with
    W_i the generator of rotations about the i-th coordinate axis."""
    gens = [skew_from_axis(a) for a in np.eye(3)]
    Qr = Q @ R.ravel()
    V = np.stack([(R @ W).ravel() for W in gens])
    curvature = np.array([[Qr @ (R @ (Wi @ Wj + Wj @ Wi)).ravel() for Wj in gens]
                          for Wi in gens])
    return -V @ Qr, -V @ Q @ V.T - 0.5 * curvature


def test_min_limit_full_so3_explores_beyond_the_axis():
    # with the axial profile off, the kernel is all of SO(3) and the search
    # undercuts the swirl-family value; it ends at a minimum of the rotation
    # form: vanishing Riemannian gradient, no negative curvature
    spec = LoadSpec.cylinder_preset(beta=0.0)
    res = min_limit(spec, degree=6)
    system = assemble(build_space("full", 6, Domain.cylinder()), spec)
    swirl6 = solve_quadratic(system, R=rotation_about_z(-np.pi / 2))
    assert res.value <= swirl6.value + 1e-10
    assert res.value <= -0.03695255
    grad, hess = _rotation_derivatives(system.rotation_form, res.rotation)
    assert np.linalg.norm(grad) < 1e-14
    assert np.linalg.eigvalsh(hess).min() > -1e-12


def test_limit_below_linear(preset):
    assert min_limit(preset, degree=6).value <= min_linear(preset, degree=6).value + 1e-12


def test_gap_report(preset):
    rep = gap_report(preset, degree=8)
    assert rep.margin > 0.0
    assert rep.relative_margin > 1e-3
    assert np.isclose(rep.margin, MARGIN, rtol=1e-12)
    assert abs(abs(rep.optimal_theta) - np.pi / 2) < 1e-6
    assert rep.galerkin_rel_err_E < 1e-10
    assert rep.galerkin_rel_err_G < 1e-6
    for row in rep.decomposition:
        assert row.residual < 1e-8 * abs(rep.min_E)
    inc = rep.incompressible
    assert inc.certified
    assert inc.min_GI_upper < inc.min_EI_lower
    # sandwich orientation: dual lower bound below the feasible upper bound
    assert inc.min_EI_lower <= inc.min_EI_upper
    # constrained minima dominate the unconstrained ones
    assert inc.min_EI_lower >= rep.galerkin_min_E - 1e-10
    assert inc.min_GI_upper >= rep.galerkin_min_G - 1e-10


def test_incompressible_relaxed_bound_searches_the_whole_kernel():
    # at beta = 0 the kernel is all of SO(3): the divergence-free relaxed minimum
    # lies below its value at the quarter turn about e_z (-0.03366), and
    # above the unconstrained relaxed minimum
    rep = gap_report(LoadSpec.cylinder_preset(beta=0.0), degree=8)
    assert rep.classification == "full_so3"
    assert rep.incompressible.min_GI_upper <= -0.0362
    assert rep.incompressible.min_GI_upper >= rep.galerkin_min_G - 1e-10


def test_gap_margin_survives_zero_axial_profile():
    sol = explicit_minimizers(LoadSpec.cylinder_preset(beta=0.0))
    assert np.isclose(sol.margin, MARGIN, rtol=1e-13)
    assert sol.margin > 0.0


# min_EI_upper and min_GI_upper of gap_report as the gauge-fixed curl basis
# gave them, before the divergence-free fields became the kernel of div in full
INCOMPRESSIBLE_UPPER = {
    (0.01, 3): (-0.0025730948284711126, -0.011781070625732144),
    (0.01, 8): (-0.006144854943195414, -0.03366002178053691),
    (0.0, 3): (-0.0025770877236478765, -0.0126872011010357),
    (0.0, 8): (-0.006145403500501499, -0.03621338119652493),
}


@pytest.mark.parametrize("beta,degree", list(INCOMPRESSIBLE_UPPER))
def test_restricted_upper_bounds_match_the_curl_basis(beta, degree):
    inc = gap_report(LoadSpec.cylinder_preset(beta=beta), degree=degree).incompressible
    for got, want in zip((inc.min_EI_upper, inc.min_GI_upper), INCOMPRESSIBLE_UPPER[beta, degree]):
        assert got == pytest.approx(want, rel=1e-12)


def _incompressible_upper(spec, degree) -> float:
    """The linear minimum over the divergence-free fields of degree <= degree."""
    return solve_quadratic(divergence_free(assemble(build_space("full", degree, spec.domain),
                                                    spec))).value


def test_incompressible_bounds_standalone(preset):
    lower = explicit_minimizers(preset).min_incompressible_lower
    assert lower <= _incompressible_upper(preset, 6)


def test_incompressible_lower_bound_sits_below_every_upper_bound(preset):
    # the dual bound is proven, so it holds against any feasible value,
    # whatever the degree of the feasible space
    lower = explicit_minimizers(preset).min_incompressible_lower
    for degree in (3, 7):
        assert lower <= _incompressible_upper(preset, degree)


def test_residual_bounds_dominate_the_sampled_maxima(preset, monkeypatch):
    # on a wrong field, p(s) + 1e-3 s and w(z) + 1e-3 z^3, each bound sits
    # above the maximum it replaces: over an r grid, over the volume rule's
    # nodes (the equilibrium operator in cylindrical form) or over the
    # surface rule's nodes (the traction E n)
    exact = explicit_minimizers

    def perturbed(spec):
        sol = exact(spec)
        return dataclasses.replace(sol, planar=sol.planar + Polynomial([0.0, 1e-3]),
                                   axial=sol.axial + Polynomial([0.0, 0.0, 0.0, 1e-3]))

    monkeypatch.setattr(limits, "explicit_minimizers", perturbed)
    res = verify_explicit(preset)
    sol = perturbed(preset)
    phi, psi, w = preset.phi, preset.psi, sol.axial
    over_r = sol.planar(Polynomial([0.0, 0.0, 1.0]))  # eta / r = p(r^2)
    eta = Polynomial([0.0, 1.0]) * over_r

    r = np.linspace(1e-3, 1.0, 1000)
    ode = r * r * eta.deriv(2)(r) + r * eta.deriv()(r) - eta(r) + r * r * phi.deriv()(r) / 8.0

    def lap(g, r):  # g'' + g' / r of a radial function
        return g.deriv(2)(r) + g.deriv()(r) / r

    biharmonic = 8.0 * lap(eta.deriv() + over_r, r) + lap(phi, r)  # Lap Phi = eta' + eta / r
    ((px, py, _), (z, _)), = volume_quadrature(Domain.cylinder(), 16).terms
    rn = np.hypot(px, py)
    planar = -8.0 * (eta.deriv(2)(rn) + eta.deriv()(rn) / rn - eta(rn) / rn ** 2) - phi.deriv()(rn)
    interior = max(np.max(np.abs(planar)), np.max(np.abs(-8.0 * w.deriv(2)(z) - psi(z))))
    surf = surface_quadrature(Domain.cylinder(), 16)
    traction = np.einsum("nij,nj->ni", strain(at_points(sol.u0, surf.points)[1]), surf.normals)
    for key, sampled in (("ode_residual", np.max(np.abs(ode))),
                         ("biharmonic_residual", np.max(np.abs(biharmonic))),
                         ("euler_lagrange_interior", interior),
                         ("boundary_traction", np.max(np.abs(traction)))):
        # the biharmonic bound is attained at r = 1: the slack is the
        # round-off of the sampled side
        assert 0.5 * res[key] < sampled <= res[key] * (1.0 + 1e-12), key


def _dual_bound_by_profiles(spec) -> float:
    # u0 = eta(r) e_r + w(z) e_z has the cylindrical strain diag(eta', eta/r, w');
    # tensor Gauss in (r, z), independent of the 3D rule and field evaluators;
    # 64 points are exact through degree 127
    sol = explicit_minimizers(spec)
    t, wt = gauss_legendre(64)
    r, z = t[:, None], t[None, :]
    e_rr = radial_displacement_profile(spec.phi).deriv()(r)
    e_tt = sol.planar(r * r)
    e_zz = sol.axial.deriv()(z)
    trace = e_rr + e_tt + e_zz
    dev_sq = e_rr ** 2 + e_tt ** 2 + e_zz ** 2 - trace ** 2 / 3.0
    return -4.0 * 2.0 * np.pi * float(wt @ (dev_sq * r) @ wt)


@pytest.mark.parametrize("spec", DUAL_BOUND_LOADS)
def test_incompressible_lower_bound_is_the_dual_value(spec):
    expected = _dual_bound_by_profiles(spec)
    lower = explicit_minimizers(spec).min_incompressible_lower
    assert lower == pytest.approx(expected, rel=1e-13)
    # between the unconstrained minimum and zero
    assert explicit_minimizers(spec).min_linear_value < expected < 0.0


def test_rotated_no_gap(preset):
    res = rotated_no_gap_check(preset, degree=6)
    assert res.relative_difference < 1e-6
    assert res.kernel_unchanged
    assert res.gap_at_identity > 0.0
    assert abs(abs(res.rotation_theta) - np.pi / 2) < 1e-6


def test_nonuniqueness(preset):
    res = nonuniqueness_check(preset)
    assert res.relative_value_difference < 1e-8
    assert res.distinct
    assert res.strain_distance > 0.1 * res.strain_norm
    # the mirror optimum is the original rotation composed with diag(-1,-1,1)
    axis = np.array([0.0, 0.0, 1.0])
    R_star = exp_so3(np.pi / 2 * axis)
    R_hat = exp_so3(res.mirror_theta * axis)
    assert np.allclose(R_hat, np.diag([-1.0, -1.0, 1.0]) @ R_star, atol=1e-10)


def test_discrete_decomposition_identity(preset):
    # the per-rotation Galerkin minima inherit the closed-form decomposition
    # exactly: the total-degree spaces are invariant under kernel rotations
    system = assemble(build_space("full", 6, Domain.cylinder()), preset)
    m_e = solve_quadratic(system).value
    m_g = solve_quadratic(system, R=rotation_about_z(-np.pi / 2)).value
    for theta in np.linspace(-np.pi, np.pi, 9):
        m_theta = solve_quadratic(system, R=rotation_about_z(theta)).value
        predicted = np.cos(theta) ** 2 * m_e + np.sin(theta) ** 2 * m_g
        assert abs(m_theta - predicted) < 1e-10 * abs(m_e)


def test_ansatz_minimum_attains_the_structured_bound(preset):
    # the structured-space minimum under the swirl rotation equals the
    # closed-form value (the continuum minimizer lives in the ansatz class)
    system = assemble(
        build_space("ansatz_k", 8, Domain.cylinder(), degree1d=4), preset
    )
    value = solve_quadratic(system, R=rotation_about_z(-np.pi / 2)).value
    assert value < -1e-6
    assert np.isclose(value, MIN_G, rtol=1e-12)


def test_limit_value_invariant_under_rigid_shift(preset, preset_rules, rng):
    # adding an infinitesimal rigid displacement leaves the limit value alone
    sol = explicit_minimizers(preset)
    u = sol.u_swirl
    vol = preset_rules.volume
    axis = np.array([0.0, 0.0, 1.0])

    def best_work(Y):
        return float(np.sum(best_axis_rotation(Y, axis)[1] * Y))

    base_vals = at_points(u, vol.points)[0]
    Y = node_moment(preset, preset_rules, base_vals)
    v_base = quadratic_energy(u, preset_rules) - best_work(Y)

    a = rng.normal(size=3)
    omega = rng.normal(size=3)
    shifted_vals = base_vals + a[None, :] + np.cross(np.broadcast_to(omega, base_vals.shape), vol.points)
    Y2 = node_moment(preset, preset_rules, shifted_vals)
    # strain unchanged by the rigid shift, so reuse the quadratic part
    v_shift = quadratic_energy(u, preset_rules) - best_work(Y2)
    assert abs(v_shift - v_base) < 1e-10 * max(1.0, abs(v_base))


# -- the closed-form minimum on a kernel axis ---------------------------------------


def _axis_values(Q, axis, thetas):
    W = skew_from_axis(axis)
    R = (np.eye(3) + np.sin(thetas)[:, None, None] * W
         + (1.0 - np.cos(thetas))[:, None, None] * (W @ W))
    return _rotation_values(Q, R)


def test_axis_minimum_sits_below_dense_sampling(rng):
    thetas = np.linspace(-np.pi, np.pi, 20001)
    for trial in range(40):
        A = rng.normal(size=(9, 9))
        Q = A @ A.T if trial % 2 else A + A.T  # positive semidefinite or indefinite
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        R = _axis_minimum(Q, axis)
        # a rotation about the axis, below every sampled angle
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-13)
        assert np.allclose(R @ axis, axis, atol=1e-13)
        value = _rotation_values(Q, R[None])[0]
        assert value <= _axis_values(Q, axis, thetas).min() + 1e-12 * np.abs(Q).sum()


def test_axis_minimum_of_a_zero_form_is_an_axis_rotation():
    axis = np.array([0.0, 0.6, 0.8])
    R = _axis_minimum(np.zeros((9, 9)), axis)
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-15)
    assert np.allclose(R @ axis, axis, atol=1e-15)


@pytest.mark.parametrize("beta", [BETA, 0.0])
def test_axis_minimum_of_the_preset_is_the_negative_quarter_turn(beta):
    # the mirror angles +-pi/2 tie; the tie-break returns -pi/2 to the last
    # digit, also for the form of the transposed rotations (R_t' = R_-t, so
    # the two sides of the pair swap)
    spec = LoadSpec.cylinder_preset(beta=beta)
    system = assemble(build_space("full", 6, Domain.cylinder()), spec)
    axis = np.array([0.0, 0.0, 1.0])
    swap = np.eye(9).reshape(3, 3, 9).transpose(1, 0, 2).reshape(9, 9)  # vec R -> vec R'
    for Q in (system.rotation_form, swap @ system.rotation_form @ swap):
        R = _axis_minimum(Q, axis)
        assert best_axis_rotation(R, axis)[0] == -0.5 * np.pi
        mirror = _axis_values(Q, axis, np.array([0.5 * np.pi]))[0]
        assert _rotation_values(Q, R[None])[0] == pytest.approx(mirror, rel=1e-14)
        # a nudge at round-off level that favours +pi/2 does not flip the choice:
        # m changes by -2 delta sin t (1 + 2 cos t)
        s, trace = skew_from_axis(axis).ravel(), np.eye(3).ravel()
        nudge = 1e-16 * np.abs(Q).sum() * (np.outer(s, trace) + np.outer(trace, s))
        theta = best_axis_rotation(_axis_minimum(Q + nudge, axis), axis)[0]
        assert theta == pytest.approx(-0.5 * np.pi, abs=1e-10)


def test_axis_kernel_never_reaches_the_so3_search(monkeypatch, tmp_path):
    # only the full-SO(3) search has no closed form; the axis kernel runs
    # without it in every subcommand that minimizes over it
    def refuse(*args):
        raise RuntimeError("SO(3) search called")

    monkeypatch.setattr(limits, "_search", refuse)
    for sub in ("solve-limit", "gap-report", "rotated-check"):
        assert cli.main([sub, "--out", str(tmp_path / sub)]) == 0
    config = tmp_path / "beta0.json"
    config.write_text('{"beta": 0.0, "basis": {"degree": 3}}')
    with pytest.raises(RuntimeError, match="SO\\(3\\) search called"):
        cli.main(["solve-limit", "--config", str(config), "--out", str(tmp_path / "so3")])


def _procrustes_step(Q, R):
    return nearest_rotation((Q @ R.ravel()).reshape(3, 3))[0]


def test_search_is_a_procrustes_fixed_point_below_every_axis(rng):
    # on a positive semidefinite form (every full-SO(3) kernel's) the search
    # ends where the ascent step no longer moves, and no rotation about any
    # axis does better
    for _ in range(20):
        A = rng.normal(size=(9, 9))
        Q = A @ A.T
        R = _search(Q)
        assert np.max(np.abs(_procrustes_step(Q, R) - R)) < 1e-13
        value = _rotation_values(Q, R[None])[0]
        tol = 1e-12 * np.abs(Q).sum()
        for axis in rng.normal(size=(10, 3)):
            R_axis = _axis_minimum(Q, axis / np.linalg.norm(axis))
            assert value <= _rotation_values(Q, R_axis[None])[0] + tol


def _trigonometric_derivatives(f):
    """f'(0) and f''(0) of f(s) = c0 + c1 cos s + d1 sin s + c2 cos 2s + d2 sin 2s
    by central differences at the steps pi/4, pi/2 and pi, whose combination
    cancels the truncation error of both frequencies."""
    odd = {h: 0.5 * (f(h) - f(-h)) for h in (np.pi / 4, np.pi / 2)}  # d1 sin h + d2 sin 2h
    even = {h: 0.5 * (f(h) + f(-h)) - f(0.0) for h in (np.pi / 2, np.pi)}
    d1 = odd[np.pi / 2]
    d2 = odd[np.pi / 4] - d1 * np.sin(np.pi / 4)
    c1 = -0.5 * even[np.pi]  # c1 (cos h - 1) + c2 (cos 2h - 1)
    c2 = -0.5 * (even[np.pi / 2] + c1)
    return d1 + 2.0 * d2, -c1 - 4.0 * c2


def _difference_derivatives(Q, R):
    # along a unit axis u, s -> m(R exp(s W_u)) is a trigonometric polynomial
    # of degree 2, with second derivative u' H u; H_ij follows by polarization
    def along(u):
        return _trigonometric_derivatives(
            lambda s: _rotation_values(Q, (R @ exp_so3(s * u))[None])[0])

    axes = np.eye(3)
    grad, diag = np.array([along(u) for u in axes]).T
    hess = np.diag(diag)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        hess[i, j] = hess[j, i] = along((axes[i] + axes[j]) / np.sqrt(2.0))[1] - 0.5 * (diag[i] + diag[j])
    return grad, hess


def test_batched_tangent_derivatives_match_the_reference_and_differences(rng):
    # 20 (Q, R) pairs: 4 forms, positive semidefinite or indefinite, with a
    # stack of 5 rotations each
    for trial in range(4):
        A = rng.normal(size=(9, 9))
        Q = A @ A.T if trial % 2 else A + A.T
        R = exp_so3(rng.uniform(-np.pi, np.pi, (5, 3)))
        grad, hess = _tangent_derivatives(Q, R, (R.reshape(-1, 9) @ Q).reshape(-1, 3, 3))
        for k, Rk in enumerate(R):
            for g_ref, h_ref in (_rotation_derivatives(Q, Rk), _difference_derivatives(Q, Rk)):
                assert np.linalg.norm(grad[k] - g_ref) <= 1e-12 * np.linalg.norm(g_ref)
                assert np.linalg.norm(hess[k] - h_ref) <= 1e-12 * np.linalg.norm(h_ref)


def _procrustes_ascent(Q):
    """The plain Procrustes ascent from the search's grid starts, stopped by
    the search's fixed-point test: the reference value of the search."""
    grid = limits.SO3_ROTATIONS
    R = grid[np.argsort(_rotation_values(Q, grid), kind="stable")[:limits.POLISH_STARTS]]
    for _ in range(100_000):
        step = nearest_rotation((R.reshape(-1, 9) @ Q).reshape(-1, 3, 3))[0]
        if np.max(np.abs(step - R)) <= limits.ROUNDOFF_TOL:
            return step[int(np.argmin(_rotation_values(Q, step)))]
        R = step
    raise AssertionError("the reference ascent did not converge")


def test_search_matches_a_plain_procrustes_ascent(rng):
    spec = LoadSpec.cylinder_preset(beta=0.0)
    forms = [assemble(build_space("full", 6, Domain.cylinder()), spec).rotation_form]
    for _ in range(100):
        A = rng.normal(size=(9, rng.integers(1, 10)))
        forms.append(A @ A.T)
    for Q in forms:
        value = _rotation_values(Q, _search(Q)[None])[0]
        reference = _rotation_values(Q, _procrustes_ascent(Q)[None])[0]
        assert abs(value - reference) <= 1e-14 * np.abs(Q).sum()


def test_search_on_a_minimizer_family_takes_few_newton_steps(monkeypatch):
    # at beta = 0 the minimizers form a family, where H is singular; |H|^+
    # drops that direction and the loop ends in 3 Newton steps (10 without
    # the cut, 65 Procrustes steps without Newton)
    steps = []
    monkeypatch.setattr(limits, "exp_so3", lambda t: steps.append(t) or exp_so3(t))
    spec = LoadSpec.cylinder_preset(beta=0.0)
    _search(assemble(build_space("full", 6, Domain.cylinder()), spec).rotation_form)
    assert len(steps) <= 5


def test_search_converges_on_nearly_flat_forms(rng):
    # on SO(3), I adds the constant -3/2 to m: the search of I + d A A' ends
    # at a fixed point as low as that of d A A', where the Procrustes step
    # alone would move by about d per step
    for d in 10.0 ** -np.arange(1, 9):
        A = rng.normal(size=(9, 9))
        Q = np.eye(9) + d * (A @ A.T)
        R = _search(Q)
        assert np.max(np.abs(_procrustes_step(Q, R) - R)) < 1e-13
        value = _rotation_values(Q, R[None])[0]
        flat = _rotation_values(Q, _search(d * (A @ A.T))[None])[0]
        assert value <= flat + 1e-14 * np.abs(Q).sum()


def test_search_out_of_steps_is_a_solver_error(monkeypatch, tmp_path):
    monkeypatch.setattr(limits, "POLISH_MAX_STEPS", 1)
    config = tmp_path / "beta0.json"
    config.write_text('{"beta": 0.0, "basis": {"degree": 6}}')
    assert cli.main(["solve-limit", "--config", str(config), "--out", str(tmp_path / "so3")]) == 3
    with pytest.raises(SolverError, match="in 1 steps"):
        _search(assemble(build_space("full", 3, Domain.cylinder()),
                         LoadSpec.cylinder_preset(beta=0.0)).rotation_form)


def test_gap_report_on_a_full_so3_kernel_bounds_the_gap():
    # the closed form minimizes over the rotations about e_z alone: it is
    # reported as an upper bound, and the gap's proven lower bound is min_E
    # less the Galerkin relaxed value (-0.0412950 at degree 8, below the
    # axis value -0.0336599)
    rep = gap_report(LoadSpec.cylinder_preset(beta=0.0), degree=8)
    assert rep.classification == "full_so3"
    leaves = rep.leaves()
    for name in ("min_G", "margin", "relative_margin", "galerkin_rel_err_G"):
        assert name not in leaves
    assert rep.min_G_axis_upper == pytest.approx(-3.0 * np.pi / 280.0, rel=1e-13)
    assert rep.galerkin_min_G < rep.min_G_axis_upper - 7e-3
    assert rep.margin_lower == rep.min_E - rep.galerkin_min_G
    assert rep.margin_lower == pytest.approx(0.0244650, abs=1e-7)
    assert rep.relative_margin_lower == rep.margin_lower / abs(rep.min_E)
    # an axis kernel keeps the closed-form minimum and the exact margin
    axis = gap_report(LoadSpec.cylinder_preset(beta=0.01), degree=3).leaves()
    assert {"min_G", "margin", "relative_margin", "galerkin_rel_err_G"} <= axis.keys()
    assert not {"min_G_axis_upper", "margin_lower", "relative_margin_lower"} & axis.keys()


def test_gap_report_angle_is_the_rotated_check_angle_on_so3():
    # on a full-SO(3) kernel both reports give the rotation angle of the same R*
    spec = LoadSpec.cylinder_preset(beta=0.0)
    gap = gap_report(spec, degree=6)
    check = rotated_no_gap_check(spec, degree=6)
    assert gap.classification == "full_so3"
    assert gap.optimal_theta == check.rotation_theta
    assert abs(check.min_G_rotated - gap.galerkin_min_G) <= 1e-12 * abs(gap.galerkin_min_G)
    assert abs(check.rotation_theta - 2.005688783074093) < 1e-8


@pytest.mark.parametrize("beta", [0.01, 0.0], ids=["axis", "so3"])
def test_rotated_check_searches_the_conjugated_form(monkeypatch, beta):
    # the folded loads' relaxed minimum is searched, like min_limit's, on
    # their rotation form L' Q L with L = R* (x) I, and lands on min_limit's value
    forms = []
    search = limits._kernel_minimum

    def spy(Q, report):
        forms.append(Q)
        return search(Q, report)

    monkeypatch.setattr(limits, "_kernel_minimum", spy)
    spec = LoadSpec.cylinder_preset(beta=beta)
    check = rotated_no_gap_check(spec, degree=4)
    limit = min_limit(spec, degree=4)
    assert len(forms) == 3  # R* of the check, the folded search, R* of min_limit
    L = np.kron(limit.rotation, np.eye(3))
    assert np.array_equal(forms[1], L.T @ forms[0] @ L)
    assert abs(check.min_G_rotated - limit.value) <= 1e-12 * abs(limit.value)
    assert check.min_E_rotated == limit.value
