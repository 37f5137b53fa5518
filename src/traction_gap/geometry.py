"""Reference configurations and quadrature.

Two preset domains: a cylinder of unit radius and height with its axis on
z and base at z = 0, and the unit ball.  Every volume rule is a sum of
tensor terms, each a planar (r, theta) rule times a Gauss rule in z: the
planar rule of order n is Gauss-Legendre in r (jacobian r) times a uniform
(periodic) rule of 2n angles.  The cylinder is one term, with n Gauss nodes
in z.  The ball is sliced at n + 1 Gauss nodes z_t on [-a, a]; slice t
carries the planar rule scaled to the radius rho_t = sqrt(a^2 - z_t^2), and
the two slices of a mirror pair {z_t, -z_t} (or the middle slice, alone)
form one term.  Node planar_index * N_z + z_index of a term sits at
(x_p, y_p, z_k) with weight w_p * w_k, and the terms' nodes follow one
another, which lets Galerkin assembly integrate products of planar and
axial functions factor by factor, term by term.  Every rule order in the
package comes from ``exact_order``, the lowest order integrating all
polynomials of a given total degree exactly.
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
    label: str = ""
    terms: tuple = ()  # volume rules: ((x, y, w) planar, (z, w) axial) per tensor term

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


def exact_order(degree: int) -> int:
    """Rule order exact for every polynomial of total degree `degree`, on both
    domains: the order-n rule integrates degree 2n - 1.  A planar monomial of
    odd degree (< 2n) averages out over the 2n angles; one of even degree k
    needs r^(k+1) from the n radial nodes, so k <= 2n - 2.  On the cylinder
    its z factor, of degree <= 2n - 1 - k, needs the n Gauss nodes.  On a
    ball slice of radius rho the planar part integrates to c rho^(k+2), a
    polynomial in z, so the whole integrand has degree <= 2n + 1 in z, exact
    on the n + 1 slices.  IntegrationError past ORDER_CAP."""
    order = degree // 2 + 1
    if order > ORDER_CAP:
        raise IntegrationError(f"integrands of degree {degree} need quadrature order {order}, "
                               f"past the cap {ORDER_CAP}")
    return order


def _angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    return th, np.full(n, 2.0 * np.pi / n)


def _disk(order: int, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, w) of the order-`order` planar rule on the disk of `radius`."""
    rr, wr = gauss_legendre(order)
    r = radius * rr
    wr = radius * wr * r  # jacobian r
    th, wt = _angles(2 * order)
    R, T = np.meshgrid(r, th, indexing="ij")
    return (R * np.cos(T)).ravel(), (R * np.sin(T)).ravel(), (wr[:, None] * wt[None, :]).ravel()


def _tensor_rule(terms, label: str = "") -> QuadratureRule:
    """The rule of the given ((x, y, w), (z, w)) terms, their nodes in turn."""
    pts, wts = [], []
    for (px, py, pw), (z, wz) in terms:
        pts.append(np.stack([np.repeat(px, z.size), np.repeat(py, z.size), np.tile(z, pw.size)],
                            axis=1))
        wts.append((pw[:, None] * wz[None, :]).ravel())
    return QuadratureRule(np.concatenate(pts), np.concatenate(wts), label=label, terms=tuple(terms))


def volume_quadrature(domain: Domain, order: int) -> QuadratureRule:
    if order < 1:
        raise ValueError("order must be >= 1")
    if domain.kind == "cylinder":
        zz, wz = gauss_legendre(order)
        axial = (domain.height * zz, domain.height * wz)
        return _tensor_rule([(_disk(order, domain.radius), axial)], f"cylinder-vol-{order}")
    # ball: slices at the n + 1 Gauss nodes, which numpy places mirror-symmetrically
    a = domain.radius
    z, wz = gauss_legendre(order + 1, -a, a)
    rho = np.sqrt(a * a - z * z)
    px, py, pw = _disk(order, 1.0)
    terms = []
    for t in range((z.size + 1) // 2):
        pair = np.unique([t, z.size - 1 - t])
        terms.append(((rho[t] * px, rho[t] * py, rho[t] ** 2 * pw), (z[pair], wz[pair])))
    return _tensor_rule(terms, f"ball-vol-{order}")
