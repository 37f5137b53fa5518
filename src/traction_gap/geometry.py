"""Reference configurations and quadrature.

Two preset domains: a cylinder of unit radius and height with its axis on
z and base at z = 0, and the unit ball.  Volume rules are tensor products
of Gauss-Legendre in the radial/axial directions and a uniform (periodic)
rule in the angle; the angular direction carries 2*order nodes.  Every
rule order in the package comes from ``exact_order``, the lowest order
integrating all polynomials of a given total degree exactly.
The cylinder's volume rule also carries its two factors, a planar (r, theta)
rule and a Gauss rule in z: node planar_index * N_z + z_index sits at
(x_p, y_p, z_k) with weight w_p * w_k, which lets Galerkin assembly integrate
products of planar and axial functions factor by factor.
Integration sums in fixed node order (numpy pairwise summation), so
results are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class IntegrationError(ValueError):
    pass


@dataclass(frozen=True)
class Domain:
    kind: str  # "cylinder" | "ball"
    radius: float = 1.0
    height: float = 1.0

    def __post_init__(self):
        if self.kind not in ("cylinder", "ball"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("radius and height must be positive")

    @property
    def volume(self) -> float:
        if self.kind == "cylinder":
            return np.pi * self.radius ** 2 * self.height
        return 4.0 * np.pi * self.radius ** 3 / 3.0

    @staticmethod
    def cylinder(radius: float = 1.0, height: float = 1.0) -> "Domain":
        return Domain("cylinder", radius, height)

    @staticmethod
    def unit_ball() -> "Domain":
        return Domain("ball", 1.0, 1.0)


@dataclass(frozen=True)
class QuadratureRule:
    points: np.ndarray  # (N, 3)
    weights: np.ndarray  # (N,)
    normals: np.ndarray | None = None  # (N, 3) outward units, surface rules only
    label: str = ""
    planar: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # (x, y, w), tensor rules only
    axial: tuple[np.ndarray, np.ndarray] | None = None  # (z, w), tensor rules only

    def __len__(self) -> int:
        return self.points.shape[0]


@lru_cache(maxsize=None)
def gauss_legendre(n: int, lo: float = 0.0, hi: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi].

    Memoized per (n, lo, hi); the arrays are read-only.  On [-1, 1] they are
    numpy's own nodes and weights, bit for bit.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x, w = mid + half * x, half * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


ORDER_CAP = 32  # largest order exact_order returns


def exact_order(domain: Domain, degree: int) -> int:
    """Rule order exact for every polynomial of total degree `degree`: each
    factor of the order-n rule is exact through degree 2n - 1, and the
    jacobian adds r on the cylinder, r^2 on the ball.  IntegrationError past
    ORDER_CAP."""
    order = degree // 2 + 1 if domain.kind == "cylinder" else (degree + 4) // 2
    if order > ORDER_CAP:
        raise IntegrationError(f"integrands of degree {degree} need quadrature order {order}, "
                               f"past the cap {ORDER_CAP}")
    return order


def _angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return th, np.full(n, 2.0 * np.pi / n)


def volume_quadrature(domain: Domain, order: int) -> QuadratureRule:
    if order < 1:
        raise ValueError("order must be >= 1")
    ntheta = 2 * order
    if domain.kind == "cylinder":
        rr, wr = gauss_legendre(order)
        r = domain.radius * rr
        wr = domain.radius * wr * r  # jacobian r
        th, wt = _angles(ntheta)
        zz, wz = gauss_legendre(order)
        z = domain.height * zz
        wz = domain.height * wz
        R, T = np.meshgrid(r, th, indexing="ij")
        px, py = (R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()
        pw = (wr[:, None] * wt[None, :]).ravel()
        pts = np.stack([np.repeat(px, z.size), np.repeat(py, z.size), np.tile(z, pw.size)], axis=1)
        return QuadratureRule(pts, (pw[:, None] * wz[None, :]).ravel(), label=f"cylinder-vol-{order}",
                              planar=(px, py, pw), axial=(z, wz))
    # ball: r in [0,1] with r^2 jacobian, t = cos(polar) in [-1,1], uniform azimuth
    rr, wr = gauss_legendre(order)
    r = domain.radius * rr
    wr = domain.radius * wr * r * r
    tt, wt = gauss_legendre(order, -1.0, 1.0)
    th, wa = _angles(ntheta)
    R, T, A = np.meshgrid(r, tt, th, indexing="ij")
    W = wr[:, None, None] * wt[None, :, None] * wa[None, None, :]
    sin_pol = np.sqrt(1.0 - T * T)
    pts = np.stack(
        [(R * sin_pol * np.cos(A)).ravel(), (R * sin_pol * np.sin(A)).ravel(), (R * T).ravel()],
        axis=1,
    )
    return QuadratureRule(pts, W.ravel(), label=f"ball-vol-{order}")


def surface_quadrature(domain: Domain, order: int) -> QuadratureRule:
    """Lateral wall plus both caps of the cylinder, with outward normals."""
    if domain.kind != "cylinder":
        raise ValueError("surface quadrature is unsupported for this domain")
    if order < 1:
        raise ValueError("order must be >= 1")
    ntheta = 2 * order
    th, wt = _angles(ntheta)
    zz, wz = gauss_legendre(order)
    z = domain.height * zz
    wz = domain.height * wz
    a = domain.radius

    # lateral wall: dH^2 = a dtheta dz, normal (cos, sin, 0)
    T, Z = np.meshgrid(th, z, indexing="ij")
    lat_pts = np.stack([a * np.cos(T).ravel(), a * np.sin(T).ravel(), Z.ravel()], axis=1)
    lat_w = (a * wt[:, None] * wz[None, :]).ravel()
    lat_n = np.stack([np.cos(T).ravel(), np.sin(T).ravel(), np.zeros(lat_w.size)], axis=1)

    # caps: dH^2 = r dr dtheta, normals -e_z (base) and +e_z (top)
    rr, wr = gauss_legendre(order)
    r = a * rr
    wr = a * wr * r
    Rc, Tc = np.meshgrid(r, th, indexing="ij")
    cap_w = (wr[:, None] * wt[None, :]).ravel()
    x_c = (Rc * np.cos(Tc)).ravel()
    y_c = (Rc * np.sin(Tc)).ravel()
    bot_pts = np.stack([x_c, y_c, np.zeros(cap_w.size)], axis=1)
    top_pts = np.stack([x_c, y_c, np.full(cap_w.size, domain.height)], axis=1)
    ez = np.zeros((cap_w.size, 3))
    ez[:, 2] = 1.0

    pts = np.concatenate([lat_pts, bot_pts, top_pts], axis=0)
    wts = np.concatenate([lat_w, cap_w, cap_w])
    nrm = np.concatenate([lat_n, -ez, ez], axis=0)
    return QuadratureRule(pts, wts, normals=nrm, label=f"cylinder-surf-{order}")


def _node_values(field, rule: QuadratureRule) -> np.ndarray:
    vals = field(rule.points) if callable(field) else np.asarray(field, dtype=float)
    if vals.shape[0] != len(rule):
        raise IntegrationError(
            f"field produced {vals.shape[0]} values for {len(rule)} nodes"
        )
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(np.atleast_2d(vals.T).T))[0][0]
        raise IntegrationError(
            f"non-finite field value at node {bad}, x = {rule.points[bad]}"
        )
    return vals


def integrate_scalar(field, rule: QuadratureRule) -> float:
    """Sum of w_i * field(x_i); field is callable on (N, 3) or an (N,) array."""
    vals = _node_values(field, rule)
    if vals.ndim != 1:
        raise IntegrationError("integrate_scalar expects scalar node values")
    return float(np.dot(rule.weights, vals))


def integrate_dot(field_a, field_b, rule: QuadratureRule) -> float:
    """Sum of w_i * a(x_i) . b(x_i) for vector- or matrix-valued fields."""
    va = _node_values(field_a, rule)
    vb = _node_values(field_b, rule)
    prod = (va * vb).reshape(len(rule), -1).sum(axis=1)
    return float(np.dot(rule.weights, prod))
