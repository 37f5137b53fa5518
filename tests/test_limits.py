import numpy as np
import pytest
from numpy.polynomial import Polynomial

from conftest import node_moment
from traction_gap.galerkin import assemble, build_space, solve_quadratic
from traction_gap.geometry import Domain
from traction_gap import cli, limits
from traction_gap.limits import (
    _axis_minimum,
    _rotation_values,
    _search,
    explicit_minimizers,
    gap_report,
    incompressible_linear_bounds,
    min_limit,
    min_linear,
    nonuniqueness_check,
    quadratic_energy,
    rotated_no_gap_check,
    verify_explicit,
)
from traction_gap.loads import LoadSpec, default_rules
from traction_gap.geometry import gauss_legendre
from traction_gap.profiles import radial_displacement_profile, radial_ode_residual
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
    grid = np.linspace(1e-3, 1.0, 1000)
    assert radial_ode_residual(eta, preset.phi, grid) < 1e-12
    perturbed = eta + Polynomial([0.0, 0.0, 0.01])
    assert radial_ode_residual(perturbed, preset.phi, grid) > 1e-3
    zero = Polynomial([0.0])
    assert radial_ode_residual(zero, zero, grid) == 0.0


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
    # at beta = 0 the kernel is all of SO(3): the div_free relaxed minimum
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


def test_incompressible_bounds_standalone(preset):
    bounds = incompressible_linear_bounds(preset, degree=6)
    assert bounds.lower <= bounds.upper.value


def test_incompressible_lower_bound_sits_below_every_upper_bound(preset):
    # the dual bound is proven, so it holds against any feasible value,
    # whatever the degree either side is computed at
    assert incompressible_linear_bounds(preset, degree=3).lower <= (
        incompressible_linear_bounds(preset, degree=7).upper.value
    )


def _dual_bound_by_profiles(spec) -> float:
    # u0 = eta(r) e_r + w(z) e_z has the cylindrical strain diag(eta', eta/r, w');
    # tensor Gauss in (r, z), independent of the 3D rule and field evaluators;
    # 64 points are exact through degree 127
    sol = explicit_minimizers(spec)
    t, wt = gauss_legendre(64)
    r, z = t[:, None], t[None, :]
    e_rr = sol.eta.deriv()(r)
    e_tt = sol.planar(r * r)
    e_zz = sol.axial.deriv()(z)
    trace = e_rr + e_tt + e_zz
    dev_sq = e_rr ** 2 + e_tt ** 2 + e_zz ** 2 - trace ** 2 / 3.0
    return -4.0 * 2.0 * np.pi * float(wt @ (dev_sq * r) @ wt)


@pytest.mark.parametrize("beta", [0.01, 0.0])
def test_incompressible_lower_bound_is_the_dual_value(beta):
    spec = LoadSpec.cylinder_preset(beta=beta)
    expected = _dual_bound_by_profiles(spec)
    for degree in (3, 8):
        lower = incompressible_linear_bounds(spec, degree=degree).lower
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

    base_vals = u.at_points(vol.points)[0]
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
