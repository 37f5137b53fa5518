import numpy as np
import pytest

from traction_gap.geometry import (
    Domain,
    IntegrationError,
    gauss_legendre,
    integrate_dot,
    integrate_scalar,
    surface_quadrature,
    volume_quadrature,
)


def test_cylinder_volume_and_moments():
    rule = volume_quadrature(Domain.cylinder(), 8)
    ones = np.ones(len(rule))
    assert np.isclose(integrate_scalar(ones, rule), np.pi, atol=1e-12)
    assert np.isclose(integrate_scalar(lambda p: p[:, 2], rule), np.pi / 2, atol=1e-12)
    assert np.isclose(
        integrate_scalar(lambda p: p[:, 0] ** 2 + p[:, 1] ** 2, rule), np.pi / 2, atol=1e-12
    )
    zz = integrate_scalar(lambda p: p[:, 2] * (p[:, 2] - 1.0), rule)
    assert np.isclose(zz, -np.pi / 6, atol=1e-12)


def test_ball_volume():
    rule = volume_quadrature(Domain.unit_ball(), 8)
    assert np.isclose(float(np.sum(rule.weights)), 4 * np.pi / 3, atol=1e-12)
    r2 = integrate_scalar(lambda p: np.einsum("ni,ni->n", p, p), rule)
    assert np.isclose(r2, 4 * np.pi / 5, atol=1e-12)


def test_cylinder_surface_rule():
    surf = surface_quadrature(Domain.cylinder(), 8)
    assert np.isclose(float(np.sum(surf.weights)), 4 * np.pi, atol=1e-12)
    # closed-surface identities
    assert np.allclose(surf.weights @ surf.normals, 0.0, atol=1e-12)
    nx = float(np.dot(surf.weights, np.einsum("ni,ni->n", surf.normals, surf.points)))
    assert np.isclose(nx, 3 * np.pi, atol=1e-10)
    assert np.allclose(np.linalg.norm(surf.normals, axis=1), 1.0)


def test_ball_surface_unsupported():
    with pytest.raises(ValueError, match="unsupported"):
        surface_quadrature(Domain.unit_ball(), 8)


def _random_poly_field(rng, deg=3):
    coeffs = rng.normal(size=(3, deg + 1, deg + 1, deg + 1))

    def field(p):
        out = np.zeros((p.shape[0], 3))
        for c in range(3):
            acc = np.zeros(p.shape[0])
            for i in range(deg + 1):
                for j in range(deg + 1):
                    for k in range(deg + 1):
                        if i + j + k > deg:
                            continue
                        acc += coeffs[c, i, j, k] * p[:, 0] ** i * p[:, 1] ** j * p[:, 2] ** k
            out[:, c] = acc
        return out

    def divergence(p):
        acc = np.zeros(p.shape[0])
        for i in range(deg + 1):
            for j in range(deg + 1):
                for k in range(deg + 1):
                    if i + j + k > deg:
                        continue
                    if i >= 1:
                        acc += coeffs[0, i, j, k] * i * p[:, 0] ** (i - 1) * p[:, 1] ** j * p[:, 2] ** k
                    if j >= 1:
                        acc += coeffs[1, i, j, k] * j * p[:, 0] ** i * p[:, 1] ** (j - 1) * p[:, 2] ** k
                    if k >= 1:
                        acc += coeffs[2, i, j, k] * k * p[:, 0] ** i * p[:, 1] ** j * p[:, 2] ** (k - 1)
        return acc

    return field, divergence


def test_divergence_theorem_on_random_fields(rng):
    vol = volume_quadrature(Domain.cylinder(), 8)
    surf = surface_quadrature(Domain.cylinder(), 8)
    for _ in range(20):
        field, divergence = _random_poly_field(rng)
        flux = float(
            np.dot(surf.weights, np.einsum("ni,ni->n", field(surf.points), surf.normals))
        )
        bulk = integrate_scalar(divergence, vol)
        assert abs(flux - bulk) < 1e-10


def test_doubling_order_is_stable_on_load_profiles(preset):
    # the load profiles are polynomial, so the rules are exact and doubling
    # the order leaves their first moments untouched
    from traction_gap.loads import body_force

    for order in (8, 16):
        r1 = volume_quadrature(Domain.cylinder(), order)
        r2 = volume_quadrature(Domain.cylinder(), 2 * order)
        m1 = np.einsum("n,ni,nj->ij", r1.weights, body_force(preset, r1.points), r1.points)
        m2 = np.einsum("n,ni,nj->ij", r2.weights, body_force(preset, r2.points), r2.points)
        assert np.max(np.abs(m1 - m2)) < 1e-12


def test_integration_errors():
    rule = volume_quadrature(Domain.cylinder(), 4)
    with pytest.raises(IntegrationError, match="non-finite"):
        integrate_scalar(lambda p: np.where(p[:, 0] > 0, np.inf, 1.0), rule)
    with pytest.raises(ValueError):
        volume_quadrature(Domain.cylinder(), 0)


def test_integrate_dot():
    rule = volume_quadrature(Domain.cylinder(), 6)
    a = np.ones((len(rule), 3))
    assert np.isclose(integrate_dot(a, a, rule), 3 * np.pi, atol=1e-12)


def test_domain_validation():
    with pytest.raises(ValueError):
        Domain("cube")
    with pytest.raises(ValueError):
        Domain("cylinder", radius=-1.0)


def test_gauss_legendre_is_memoized_read_only_and_exact():
    x, w = gauss_legendre(9, -1.0, 1.0)
    ref_x, ref_w = np.polynomial.legendre.leggauss(9)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    u, v = gauss_legendre(9)
    assert np.array_equal(u, 0.5 * (ref_x + 1.0)) and np.array_equal(v, 0.5 * ref_w)
    assert gauss_legendre(9)[0] is u
    with pytest.raises(ValueError):
        u[0] = 0.0
    assert float(v @ u ** 17) == pytest.approx(1.0 / 18.0, rel=1e-14)
