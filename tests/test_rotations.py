import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traction_gap.rotations import (
    coercivity_profile,
    distance_to_axis_rotations,
    exp_so3,
    nearest_rotation,
    rotation_about_z,
    rotation_angle,
    skew_from_axis,
)

# the unit axis whose skew matrix has rows (0, 1, 0), (-1, 0, 0), (0, 0, 0):
# exp(t W) about it is rotation_about_z(t)
Z_GENERATOR_AXIS = np.array([0.0, 0.0, -1.0])


def test_skew_matrix_zero():
    assert np.array_equal(skew_from_axis(np.zeros(3)), np.zeros((3, 3)))


def test_skew_matrix_single_entry_is_z_generator():
    W = skew_from_axis(Z_GENERATOR_AXIS)
    x = np.array([1.0, 2.0, 3.0])
    # acts in the xy-plane only: W x = (y, -x, 0)
    assert np.allclose(W @ x, [2.0, -1.0, 0.0])
    assert np.allclose(W + W.T, 0.0)


def test_skew_matrix_norm_identity():
    W = skew_from_axis(np.array([-1.0, 1.0, -1.0]))
    assert np.isclose(np.sum(W * W), 6.0)  # |W|^2 = 2 |omega|^2


def test_skew_params_axis():
    # the skew matrix with rows (0, a, b), (-a, 0, c), (-b, -c, 0) has axis
    # omega = (-c, b, -a), and W x = omega x x
    a, b, c = 0.3, -0.2, 0.9
    W = skew_from_axis(np.array([-c, b, -a]))
    assert np.array_equal(W, [[0.0, a, b], [-a, 0.0, c], [-b, -c, 0.0]])
    x = np.array([0.4, -1.2, 2.0])
    assert np.allclose(W @ x, np.cross([-c, b, -a], x))


def test_rodrigues_zero_angle():
    assert np.allclose(exp_so3(0.0 * Z_GENERATOR_AXIS), np.eye(3))


def test_rodrigues_pi_about_z():
    R = exp_so3(np.pi * Z_GENERATOR_AXIS)
    assert np.allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


def test_rodrigues_quarter_turn_matches_swirl_rotation():
    R = exp_so3(0.5 * np.pi * Z_GENERATOR_AXIS)
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(R, expected, atol=1e-15)
    assert np.allclose(R, rotation_about_z(np.pi / 2))


def test_rodrigues_random_generators_give_rotations(rng):
    for _ in range(1000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        theta = rng.uniform(-np.pi, np.pi)
        R = exp_so3(theta * v)
        assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_exp_so3_matches_rodrigues():
    # exp about e_z by theta equals Rodrigues' formula on the unit generator
    W = skew_from_axis(np.array([0.0, 0.0, 1.0]))
    for theta in (0.0, 1e-14, 0.3, -2.5):
        R1 = exp_so3(np.array([0.0, 0.0, theta]))
        R2 = np.eye(3) + np.sin(theta) * W + (1.0 - np.cos(theta)) * (W @ W)
        assert np.allclose(R1, R2, atol=1e-12)


def test_exp_so3_of_a_stack_matches_single_calls(rng):
    omega = rng.normal(size=(4, 5, 3)) * rng.uniform(0.0, np.pi, size=(4, 5, 1))
    omega[0, :3] *= 1e-13  # below the series cut
    omega[1, 0] = 0.0
    R = exp_so3(omega)
    assert R.shape == (4, 5, 3, 3)
    for idx in np.ndindex(*omega.shape[:2]):
        assert np.max(np.abs(R[idx] - exp_so3(omega[idx]))) <= 1e-15
    assert np.array_equal(exp_so3(omega[1, 0]), np.eye(3))


def test_nearest_rotation_identity():
    R, dist = nearest_rotation(np.eye(3))
    assert np.allclose(R, np.eye(3))
    assert dist == 0.0


def test_nearest_rotation_uniform_stretch():
    R, dist = nearest_rotation(2.0 * np.eye(3))
    assert np.allclose(R, np.eye(3))
    assert np.isclose(dist, np.sqrt(3.0))


def test_nearest_rotation_fixes_rotations(rng):
    for _ in range(50):
        R0 = exp_so3(rng.uniform(-np.pi, np.pi, 3))
        R, dist = nearest_rotation(R0)
        assert np.allclose(R, R0, atol=1e-13)
        assert dist < 1e-13


def test_nearest_rotation_negative_determinant():
    F = np.diag([1.0, 1.0, -1.0])
    R, dist = nearest_rotation(F)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    assert np.isfinite(dist)


def test_nearest_rotation_of_a_stack_matches_single_calls(rng):
    F = rng.normal(size=(4, 5, 3, 3))
    F[0, 0] = np.diag([1.0, 1.0, -1.0])
    assert np.any(np.linalg.det(F) < 0.0) and np.any(np.linalg.det(F) > 0.0)
    R, dist = nearest_rotation(F)
    assert R.shape == F.shape and dist.shape == F.shape[:2]
    for idx in np.ndindex(*F.shape[:2]):
        R1, d1 = nearest_rotation(F[idx])
        assert np.array_equal(R[idx], R1)
        assert dist[idx] == d1
        assert abs(np.linalg.det(R1) - 1.0) < 1e-12


def test_nearest_rotation_beats_random_sampling(rng):
    for _ in range(5):
        F = rng.normal(size=(3, 3))
        _, dist = nearest_rotation(F)
        sampled = min(
            np.linalg.norm(F - exp_so3(rng.uniform(-np.pi, np.pi, 3)))
            for _ in range(10_000)
        )
        assert dist <= sampled + 1e-12


def test_coercivity_profile_junction_and_p2():
    for p in (1.1, 1.5, 2.0):
        assert np.isclose(coercivity_profile(1.0, p), 1.0)
    t = np.linspace(0.0, 5.0, 101)
    assert np.allclose(coercivity_profile(t, 2.0), t * t)


def test_coercivity_profile_value():
    expected = (4.0 / 3.0) * 2.0 ** 1.5 - 4.0 / 3.0 + 1.0  # ~3.4379
    assert np.isclose(coercivity_profile(2.0, 1.5), expected)
    assert np.isclose(expected, 3.437902, atol=1e-6)


def test_coercivity_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        coercivity_profile(-0.1, 1.5)
    with pytest.raises(ValueError):
        coercivity_profile(1.0, 2.5)
    with pytest.raises(ValueError):
        coercivity_profile(1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    s=st.floats(0.0, 50.0),
    t=st.floats(0.0, 50.0),
    lam=st.floats(0.01, 0.99),
    p=st.floats(1.01, 2.0),
)
def test_coercivity_profile_monotone_convex(s, t, lam, p):
    lo, hi = min(s, t), max(s, t)
    assert coercivity_profile(lo, p) <= coercivity_profile(hi, p) + 1e-12
    mid = lam * lo + (1.0 - lam) * hi
    chord = lam * coercivity_profile(lo, p) + (1.0 - lam) * coercivity_profile(hi, p)
    assert coercivity_profile(mid, p) <= chord + 1e-10


def test_discrete_growth_inequality(rng, cylinder_rule):
    # h^-2 sum w g_p(h|eta|) >= sum w |eta|^p - (2-p)/p * |Omega|
    w = cylinder_rule.weights
    volume = float(np.sum(w))
    for p in (1.2, 1.5, 2.0):
        for h in (0.9, 0.5, 0.1, 0.01):
            eta = rng.normal(scale=3.0, size=w.size)
            lhs = float(np.dot(w, coercivity_profile(h * np.abs(eta), p))) / h**2
            rhs = float(np.dot(w, np.abs(eta) ** p)) - (2.0 - p) / p * volume
            assert lhs >= rhs - 1e-10


def test_distance_to_axis_rotations():
    axis = np.array([0.0, 0.0, 1.0])
    R = exp_so3(np.array([0.0, 0.0, 0.7]))
    assert distance_to_axis_rotations(R, axis) < 1e-14
    tilted = exp_so3(np.array([0.5, 0.0, 0.0]))
    assert distance_to_axis_rotations(tilted, axis) > 0.1


def test_rotation_angle_of_axis_rotations(rng):
    for t in (0.0, 1e-9, 0.3, -2.0, np.pi / 2, np.pi - 1e-9, np.pi):
        assert rotation_angle(rotation_about_z(t)) == pytest.approx(abs(t), abs=1e-15)
    for _ in range(20):
        omega = rng.normal(size=3)
        omega *= rng.uniform(0.0, np.pi) / np.linalg.norm(omega)
        assert rotation_angle(exp_so3(omega)) == pytest.approx(np.linalg.norm(omega), abs=1e-14)
