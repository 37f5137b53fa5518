import numpy as np

from traction_gap.energy import density, density_gradient, ksv_density_sum, quadratic_form
from traction_gap.rotations import exp_so3, nearest_rotation, coercivity_profile, skew_from_axis


def taylor_residual(B, h):
    """|h^-2 W(I + h B) - Q(B)|, the defect of density's linearization;
    W(I + D) is evaluated on D = h B, not on I + h B."""
    B = np.asarray(B, dtype=float)
    return abs(ksv_density_sum(h * B[None], np.ones(1)) / h ** 2 - quadratic_form(B))


def test_density_examples():
    assert density(np.eye(3)) == 0.0
    assert np.isclose(density(2.0 * np.eye(3)), 27.0)


def test_density_vanishes_on_rotations(rng):
    for _ in range(200):
        R = exp_so3(rng.uniform(-np.pi, np.pi, 3))
        assert density(R) < 1e-28


def test_frame_indifference(rng):
    for _ in range(1000):
        R = exp_so3(rng.uniform(-np.pi, np.pi, 3))
        F = rng.normal(size=(3, 3))
        assert abs(density(R @ F) - density(F)) <= 1e-12 * max(1.0, density(F))


def test_density_gradient_examples(rng):
    assert np.allclose(density_gradient(np.eye(3)), 0.0)
    R = exp_so3(np.array([0.4, -1.0, 0.2]))
    assert np.allclose(density_gradient(R), 0.0, atol=1e-14)
    assert np.allclose(density_gradient(2.0 * np.eye(3)), 24.0 * np.eye(3))


def test_density_gradient_matches_finite_differences(rng):
    step = 1e-6
    for _ in range(100):
        F = rng.normal(size=(3, 3))
        G = density_gradient(F)
        fd = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                E = np.zeros((3, 3))
                E[i, j] = step
                fd[i, j] = (density(F + E) - density(F - E)) / (2 * step)
        scale = max(1.0, float(np.max(np.abs(G))))
        assert np.max(np.abs(G - fd)) < 1e-6 * scale


def test_quadratic_form():
    assert np.isclose(quadratic_form(np.eye(3)), 12.0)
    assert quadratic_form(skew_from_axis(np.array([-2.0, -0.3, -1.0]))) == 0.0


def test_quadratic_form_symmetrizes(rng):
    for _ in range(100):
        F = rng.normal(size=(3, 3))
        S = 0.5 * (F + F.T)
        assert np.isclose(quadratic_form(F), quadratic_form(S), rtol=1e-14)


def test_taylor_residual_skew_direction():
    B = skew_from_axis(np.array([-0.4, -0.2, -0.7]))
    prev = None
    for h in (1e-2, 1e-3, 1e-4):
        res = taylor_residual(B, h)
        if prev is not None:
            assert res < prev
        prev = res
    assert prev < 1e-4


def test_taylor_residual_identity_direction():
    # density(I + hI) = 3 (2h + h^2)^2, so the residual is exactly 12h + 3h^2;
    # evaluated on hI, not on I + hI, it keeps its relative precision at small h
    for h in (1e-2, 1e-3, 1e-4, 1e-6):
        assert np.isclose(taylor_residual(np.eye(3), h), 12.0 * h + 3.0 * h * h,
                          rtol=1e-8, atol=0.0)


def test_taylor_residual_halving_ratio(rng):
    for _ in range(20):
        B = rng.normal(size=(3, 3))
        B /= np.linalg.norm(B)
        h = 1e-3
        r1 = taylor_residual(B, h)
        r2 = taylor_residual(B, h / 2)
        assert r2 <= 0.6 * r1 + 1e-12


def test_coercivity_spot_check(rng):
    # density >= profile(distance to rotations) on bounded singular values
    for _ in range(1000):
        U = exp_so3(rng.uniform(-np.pi, np.pi, 3))
        V = exp_so3(rng.uniform(-np.pi, np.pi, 3))
        sv = rng.uniform(0.5, 2.0, 3)
        F = U @ np.diag(sv) @ V
        _, dist = nearest_rotation(F)
        assert density(F) >= coercivity_profile(dist, 2.0) - 1e-12
