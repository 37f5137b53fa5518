import numpy as np
import pytest

from conftest import body_force_at, node_moment, random_rotations, surface_quadrature
from traction_gap import geometry, loads
from traction_gap.galerkin import assemble, build_space
from traction_gap.geometry import Domain
from traction_gap.loads import (
    AXIS_SUBGROUP,
    FULL_SO3,
    IDENTITY_ONLY,
    INCOMPATIBLE,
    LoadError,
    LoadSpec,
    classify_moments,
    compatibility_report,
    default_rules,
    factor_forces,
    factor_moment,
    fibonacci_directions,
    placement_moments,
    reversed_compatibility_witness,
    rigid_projection,
)
from traction_gap.profiles import axial_conditions
from traction_gap.rotations import exp_so3, rotation_about_z, skew_from_axis


def _force_at(load, point):
    """factor_forces on the one-node term at the point, as its force vector."""
    x, y, z = (np.array([c]) for c in point)
    planar, axial = factor_forces(load, ((x, y, np.ones(1)), (z, np.ones(1))))
    return np.append(planar[0], axial[0])


def test_body_force_preset_axis_value(preset):
    psi0 = preset.psi(0.0)
    f = _force_at(preset, (0.0, 0.0, 0.0))
    assert np.allclose(f, [0.0, 0.0, psi0])


def test_body_force_ball_pull_in():
    spec = LoadSpec.ball_pull_in()
    f = _force_at(spec, (1.0, 0.0, 0.0))
    assert np.allclose(f, [-1.0, 0.0, 0.0])


def test_body_force_axial_profile():
    spec = LoadSpec(psi_coeffs=(-0.5, 1.0))
    f = _force_at(spec, (0.0, 0.0, 1.0))
    assert np.allclose(f, [0.0, 0.0, 0.5])


def test_profile_validation():
    with pytest.raises(LoadError, match="value_at_1"):
        LoadSpec(phi_coeffs=(1.0, 0.0, 1.0))
    with pytest.raises(LoadError, match="nonzero resultant"):
        LoadSpec(psi_coeffs=(1.0,))
    with pytest.raises(LoadError, match="first moment"):
        LoadSpec(psi_coeffs=(0.5, -1.0))  # zero mean but negative moment
    # a pressure's work is a volume integral, so it needs no surface rule
    assert LoadSpec(surface_pressure=1.0, domain=Domain.unit_ball()).has_surface_term
    with pytest.raises(LoadError, match="builtin"):
        LoadSpec(builtin="unknown")


def test_load_kills_constants_and_spins(preset):
    # L(c) = c . res and L(W x) = <W, T>
    T, res = placement_moments(preset)
    for c in np.eye(3):
        assert abs(float(c @ res)) < 1e-12
    for axis in [(0, 0, -1), (0, 1, 0), (-1, 0, 0), (-0.8, -0.5, -0.3)]:
        W = skew_from_axis(np.array(axis, dtype=float))
        assert abs(float(np.sum(W * T))) < 1e-12


def test_load_quadratic_spin_work_formula(preset):
    # work of W^2 x is -pi (b^2 + c^2) * first moment of the axial profile
    moment = axial_conditions(preset.psi)["first_moment"]
    T = placement_moments(preset)[0]
    for a, b, c in [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.2, -0.7, 1.1)]:
        W = skew_from_axis(np.array([-c, b, -a]))
        val = float(np.sum((W @ W) * T))
        assert np.isclose(val, -np.pi * (b * b + c * c) * moment, atol=1e-12)


def test_load_linearity(preset, preset_rules, rng):
    # the work moment of a field split by factor is linear in the field
    term = preset_rules.volume.terms[0]
    force = factor_forces(preset, term)
    n_p, n_z = term[0][0].size, term[1][0].size
    u = rng.normal(size=(n_p, 2)), rng.normal(size=n_z)
    v = rng.normal(size=(n_p, 2)), rng.normal(size=n_z)
    a, b = 0.83, -1.91
    lhs = np.trace(factor_moment(term, force, tuple(a * x + b * y for x, y in zip(u, v))))
    rhs = (a * np.trace(factor_moment(term, force, u))
           + b * np.trace(factor_moment(term, force, v)))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_classification_preset(preset):
    rep = compatibility_report(preset)
    assert rep.classification == AXIS_SUBGROUP
    assert np.allclose(rep.axis, [0.0, 0.0, 1.0], atol=1e-10)
    assert rep.momentum_max < 1e-12
    assert np.linalg.norm(rep.resultant) < 1e-12
    # the two negative eigenvalues equal -pi * axial moment
    expected = -np.pi * axial_conditions(preset.psi)["first_moment"]
    assert np.allclose(np.sort(rep.eigenvalues)[:2], expected, atol=1e-12)


def test_classification_full_so3():
    spec = LoadSpec.cylinder_preset(beta=0.0)
    rep = compatibility_report(spec)
    assert rep.classification == FULL_SO3


def test_classification_ball_pull_in():
    spec = LoadSpec.ball_pull_in()
    rep = compatibility_report(spec)
    assert rep.classification == INCOMPATIBLE
    # the quadratic spin work of the pull-in load is 8 pi / 15 on every unit axis
    assert np.isclose(rep.eigenvalues[-1], 8 * np.pi / 15, atol=1e-10)
    assert np.linalg.norm(rep.resultant) < 1e-12
    assert rep.momentum_max < 1e-12


def test_classification_identity_only():
    spec = LoadSpec(surface_pressure=1.0)
    rep = compatibility_report(spec)
    assert rep.classification == IDENTITY_ONLY
    # tension pressure: spin form is -2 lambda pi I
    assert np.allclose(rep.eigenvalues, -2.0 * np.pi, atol=1e-10)


@pytest.mark.parametrize("spec", [
    LoadSpec.cylinder_preset(), LoadSpec.cylinder_preset(beta=0.0),
    LoadSpec(phi_coeffs=tuple(c / 7.0 for c in (-2.0, 0.0, 20.0, -25.0, 0.0, 7.0))),
    LoadSpec(psi_coeffs=(-0.25, 1.0), surface_pressure=0.5, domain=Domain.cylinder(2.0, 0.5)),
    LoadSpec(phi_coeffs=LoadSpec.cylinder_preset().phi_coeffs, psi_coeffs=(-0.2, 0.0, 1.0),
             surface_pressure=-0.2, domain=Domain.unit_ball()),
    LoadSpec.ball_pull_in()],
    ids=["preset", "beta0", "odd_power_phi", "pressure", "ball_profile", "pull_in"])
def test_classification_builds_no_rule(spec, monkeypatch):
    # the moments are closed forms on every load family: no rule order is
    # chosen, and no rule is built, to classify
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature rule was built to classify the loads")

    for module in (geometry, loads):
        monkeypatch.setattr(module, "volume_quadrature", refuse)
    monkeypatch.setattr(geometry, "gauss_legendre", refuse)
    compatibility_report(spec)


def test_reversed_witness_compressive_pressure():
    spec = LoadSpec(surface_pressure=-1.0)
    T = placement_moments(spec)[0]
    R = reversed_compatibility_witness(T)
    assert R is not None
    work = float(np.sum((R - np.eye(3)) * T))
    assert work > 0.0
    # matches lambda * Tr(R - I) * |Omega| for the pressure load
    assert np.isclose(work, -1.0 * (np.trace(R) - 3.0) * np.pi, atol=1e-10)


def _sweep_rotations():
    # the axis-angle sweep the witness once searched: 60 axes times 24 angles
    for axis in fibonacci_directions(60):
        for theta in np.linspace(-np.pi, np.pi, 24, endpoint=False):
            yield exp_so3(theta * axis)


@pytest.mark.parametrize("spec, maximum", [(LoadSpec(surface_pressure=-1.0), 4.0 * np.pi),
                                           (LoadSpec.ball_pull_in(), 16.0 * np.pi / 15.0)],
                         ids=["pressure", "pull_in"])
def test_reversed_witness_does_the_most_work(spec, maximum):
    # T = c I with c < 0 for both loads, so <R - I, T> = c (tr R - 3) peaks at
    # 4|c| on the half turns
    T = placement_moments(spec)[0]
    R = reversed_compatibility_witness(T)
    assert np.allclose(R.T @ R, np.eye(3), atol=1e-14) and np.linalg.det(R) > 0.0
    work = float(np.sum((R - np.eye(3)) * T))
    assert work == pytest.approx(maximum, rel=1e-13)
    # the sweep's half turns reach the maximum too, up to round-off
    sweep = max(float(np.sum((S - np.eye(3)) * T)) for S in _sweep_rotations())
    assert work >= sweep * (1.0 - 1e-14)


def test_reversed_witness_absent_for_compatible(preset):
    assert reversed_compatibility_witness(placement_moments(preset)[0]) is None
    zero = LoadSpec()
    assert reversed_compatibility_witness(placement_moments(zero)[0]) is None


def test_kernel_rotations_do_no_work(preset):
    T = placement_moments(preset)[0]
    for theta in np.linspace(-np.pi, np.pi, 100):
        R = rotation_about_z(theta)
        val = float(np.sum((R - np.eye(3)) * T))
        assert abs(val) < 1e-10


def test_kernel_subgroup_property(preset, rng):
    # products and transposes of kernel rotations stay in the kernel
    T = placement_moments(preset)[0]
    for _ in range(20):
        R = rotation_about_z(rng.uniform(-np.pi, np.pi))
        S = rotation_about_z(rng.uniform(-np.pi, np.pi))
        assert abs(float(np.sum((R @ S - np.eye(3)) * T))) < 1e-12
        assert abs(float(np.sum((R.T - np.eye(3)) * T))) < 1e-12


def test_rigid_projection_constant(cylinder_rule):
    part = rigid_projection(lambda p: np.tile([1.0, -2.0, 0.5], (len(p), 1)), cylinder_rule)
    assert np.allclose(part.translation, [1.0, -2.0, 0.5], atol=1e-12)
    assert np.allclose(part.omega, 0.0, atol=1e-12)


def test_rigid_projection_spin(cylinder_rule):
    omega = np.array([0.4, -0.1, 0.9])
    part = rigid_projection(
        lambda p: np.cross(np.broadcast_to(omega, (len(p), 3)), p), cylinder_rule
    )
    assert np.allclose(part.omega, omega, atol=1e-12)
    assert np.allclose(part.translation, 0.0, atol=1e-12)


def test_rigid_projection_identity_field(cylinder_rule):
    # symmetric gradient has no skew part; the fit keeps only the centroid
    part = rigid_projection(lambda p: p.copy(), cylinder_rule)
    assert np.allclose(part.omega, 0.0, atol=1e-12)
    assert np.allclose(part.translation, [0.0, 0.0, 0.5], atol=1e-12)


def test_rigid_projection_idempotent(cylinder_rule, rng):
    vals = rng.normal(size=(len(cylinder_rule), 3))
    part = rigid_projection(vals, cylinder_rule)
    again = rigid_projection(part.values(cylinder_rule.points), cylinder_rule)
    assert np.allclose(again.translation, part.translation, atol=1e-12)
    assert np.allclose(again.omega, part.omega, atol=1e-12)


def _folded_quadrature(spec, rules, surf, R, values, surface_values):
    """sum w (f R) (x) v + sum w_s (g R) (x) v_s: the forces R' f, R' g of the
    loads v -> L(R v), integrated directly on the volume and surface nodes."""
    vol = rules.volume
    out = np.einsum("n,ni,...nj->...ij", vol.weights, body_force_at(spec, vol.points) @ R, values)
    g = spec.surface_pressure * surf.normals @ R
    return out + np.einsum("n,ni,...nj->...ij", surf.weights, g, surface_values)


def test_folded_moments_are_the_rotated_force_quadrature(rng):
    # R' T, R' res and b(R) are the moments and the load vector of the
    # rotated forces R' f, R' g; the preset's profiles plus a pressure give
    # both volume and surface forces
    spec = LoadSpec(phi_coeffs=LoadSpec.cylinder_preset().phi_coeffs, psi_coeffs=(-0.5, 1.0),
                    surface_pressure=0.5)
    rules = default_rules(spec, 10)
    vol, surf = rules.volume, surface_quadrature(spec.domain, 10)
    report = compatibility_report(spec)
    system = assemble(build_space("full", 3, spec.domain), spec, rules=rules)
    vals, _ = system.space.tables(vol)
    svals, _ = system.space.tables(surf)
    for R in random_rotations(rng, 4):
        T_rot = _folded_quadrature(spec, rules, surf, R, vol.points, surf.points)
        ones = np.ones((len(vol), 1)), np.ones((len(surf), 1))
        res_rot = _folded_quadrature(spec, rules, surf, R, *ones)[:, 0]
        b_rot = np.trace(_folded_quadrature(spec, rules, surf, R, vals, svals), axis1=1, axis2=2)
        assert np.max(np.abs(R.T @ report.moments - T_rot)) < 1e-14
        assert np.max(np.abs(R.T @ report.resultant - res_rot)) < 1e-14
        assert np.max(np.abs(system.load_vector(R) - b_rot)) < 1e-14


def test_rotate_loads_identity(preset, preset_rules):
    # folding R = I into the moments leaves the load unchanged: b(I) is the
    # work of the unrotated load against each basis field
    system = assemble(build_space("full", 3, preset.domain), preset, rules=preset_rules)
    vals, _ = system.space.tables(preset_rules.volume)
    direct = np.trace(node_moment(preset, preset_rules, vals), axis1=1, axis2=2)
    assert np.max(np.abs(system.load_vector(np.eye(3)) - direct)) < 1e-14
    assert np.array_equal(system.load_vector(), system.load_vector(np.eye(3)))


def test_rotate_loads_swirl_forces(preset, preset_rules):
    # the quarter-turn kernel element swaps the planar force components:
    # R' f = (f_2, -f_1, f_3), and R' T is the moment of the swapped forces
    R = rotation_about_z(np.pi / 2).T  # the swirl rotation
    vol = preset_rules.volume
    f = body_force_at(preset, vol.points)
    swapped = np.stack([f[:, 1], -f[:, 0], f[:, 2]], axis=1)
    assert np.allclose(f @ R, swapped, atol=1e-14)
    T_swapped = np.einsum("n,ni,nj->ij", vol.weights, swapped, vol.points)
    T = compatibility_report(preset).moments
    assert np.max(np.abs(R.T @ T - T_swapped)) < 1e-14


def test_folded_moments_keep_the_kernel(preset):
    # for kernel rotations R, S: L_R((S - I) x) = <S - I, R' T> = L((R S - I) x) = 0,
    # and the folded loads classify as the axis subgroup about the same axis
    base = compatibility_report(preset)
    R = rotation_about_z(0.9)
    T_rot = R.T @ base.moments
    for theta in (-2.0, 0.3, 2.7):
        S = rotation_about_z(theta)
        assert abs(float(np.sum((S - np.eye(3)) * T_rot))) < 1e-12
    folded = classify_moments(T_rot, R.T @ base.resultant)
    assert folded.classification == AXIS_SUBGROUP
    assert np.allclose(folded.axis, base.axis, atol=1e-12)
