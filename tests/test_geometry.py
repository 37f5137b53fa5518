from math import gamma

import numpy as np
import pytest

from conftest import surface_quadrature
from traction_gap.geometry import (
    ORDER_CAP,
    Domain,
    IntegrationError,
    exact_order,
    gauss_legendre,
    volume_quadrature,
)


def test_cylinder_volume_and_moments():
    rule = volume_quadrature(Domain.cylinder(), 8)
    x, y, z = rule.points.T
    assert np.isclose(float(np.sum(rule.weights)), np.pi, atol=1e-12)
    assert np.isclose(rule.weights @ z, np.pi / 2, atol=1e-12)
    assert np.isclose(rule.weights @ (x ** 2 + y ** 2), np.pi / 2, atol=1e-12)
    assert np.isclose(rule.weights @ (z * (z - 1.0)), -np.pi / 6, atol=1e-12)


def test_ball_volume():
    rule = volume_quadrature(Domain.unit_ball(), 8)
    assert np.isclose(float(np.sum(rule.weights)), 4 * np.pi / 3, atol=1e-12)
    r2 = rule.weights @ np.einsum("ni,ni->n", rule.points, rule.points)
    assert np.isclose(r2, 4 * np.pi / 5, atol=1e-12)


def _monomial_integrals(kind: str, i: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form integrals of x^i y^j z^k and of |x^i y^j z^k| over the unit
    cylinder or ball, as (j, k) arrays for j + k <= degree - i."""
    G = np.array([gamma((n + 1) / 2) for n in range(3 * degree + 6)])  # G[n] = gamma((n + 1) / 2)
    j, k = np.ogrid[:degree + 1 - i, :degree + 1 - i]
    odd = (i % 2) | (j % 2)
    if kind == "cylinder":  # unit disk times z in [0, 1]
        size = G[i] * G[j] / G[i + j + 3] / (k + 1)
    else:
        size = 2.0 * G[i] * G[j] * G[k] / (G[i + j + k + 2] * (i + j + k + 3))
        odd = odd | (k % 2)
    return np.where(odd, 0.0, size), size


@pytest.mark.parametrize("kind", ["cylinder", "ball"])
@pytest.mark.parametrize("degree", [0, 1, 4, 9, 16, 25, 2 * ORDER_CAP - 1])
def test_exact_order_integrates_every_monomial_exactly(kind, degree):
    # every x^i y^j z^k with i + j + k <= degree, against its closed form; the
    # error is measured against the integral of |x^i y^j z^k|, so the tiny
    # integrals of high mixed monomials are held to round-off as well
    rule = volume_quadrature(Domain(kind), exact_order(degree))
    powers = np.ones((3, degree + 1, len(rule)))
    for n in range(degree):
        powers[:, n + 1] = powers[:, n] * rule.points.T
    for i in range(degree + 1):
        Y, Z = powers[1, :degree + 1 - i], powers[2, :degree + 1 - i]
        got = (rule.weights * powers[0, i] * Y) @ Z.T  # (j, k); only j + k <= degree - i is checked
        ref, size = _monomial_integrals(kind, i, degree)
        j, k = np.ogrid[:degree + 1 - i, :degree + 1 - i]
        assert np.all((np.abs(got - ref) <= 1e-13 * size + 1e-15) | (j + k > degree - i)), i


def test_ball_terms_are_mirror_pairs_of_slices():
    # n + 1 slices, paired with their mirror images (the middle one alone),
    # each a scaled disk rule; the terms' nodes follow one another
    for order in (1, 2, 5):
        rule = volume_quadrature(Domain.unit_ball(), order)
        z = np.concatenate([t[1][0] for t in rule.terms])
        assert z.size == order + 1 and len(rule.terms) == (order + 2) // 2
        start = 0
        for (px, py, pw), (tz, tw) in rule.terms:
            assert np.array_equal(tz, -tz[::-1]) and np.array_equal(tw, tw[::-1])
            n = pw.size * tz.size
            assert np.isclose(pw.sum(), np.pi * (1.0 - tz[0] ** 2), rtol=1e-14)  # disk of radius rho
            assert np.array_equal(rule.points[start:start + n],
                                  np.stack([np.repeat(px, tz.size), np.repeat(py, tz.size),
                                            np.tile(tz, pw.size)], axis=1))
            assert np.array_equal(rule.weights[start:start + n], np.outer(pw, tw).ravel())
            start += n
        assert start == len(rule)


def test_exact_order_refuses_past_the_cap():
    assert exact_order(2 * ORDER_CAP - 1) == ORDER_CAP
    with pytest.raises(IntegrationError, match=f"past the cap {ORDER_CAP}"):
        exact_order(2 * ORDER_CAP)


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
        bulk = vol.weights @ divergence(vol.points)
        assert abs(flux - bulk) < 1e-10


def test_integration_errors():
    with pytest.raises(ValueError):
        volume_quadrature(Domain.cylinder(), 0)


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
