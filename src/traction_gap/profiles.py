"""Polynomial radial/axial profiles and their closed-form equilibrium solutions.

The radial body-force potential is a polynomial phi(r); the axial profile is
a polynomial psi(z).  The planar equilibrium displacement is radial with
profile eta(r) solving  r^2 eta'' + r eta' - eta = -(1/8) r^2 phi'(r),
eta(0) = 0, eta'(1) = 0; the explicit solution is

    eta(r) = -(1/16) r phi(r) + (1/(16 r)) * integral_0^r t^2 phi'(t) dt,

a polynomial whenever phi is.  The axial displacement solves -8 w'' = psi
with w'(0) = w'(1) = 0.  All integrals here are one-dimensional integrals
of polynomials, evaluated exactly through their antiderivatives; they serve
as the independent oracle for the 3D solvers.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial


def as_poly(coeffs) -> Polynomial:
    if isinstance(coeffs, Polynomial):
        return coeffs
    return Polynomial(np.asarray(coeffs, dtype=float))


def radial_conditions(phi: Polynomial) -> dict[str, float]:
    """Constraint residuals for the radial profile.

    Keys: value_at_1, slope_at_1, moment (integral of r^2 phi'), slope_at_0.
    All four must vanish for an admissible profile.
    """
    phi = as_poly(phi)
    dphi = phi.deriv()
    moment = (Polynomial([0.0, 0.0, 1.0]) * dphi).integ()(1.0)
    return {
        "value_at_1": float(phi(1.0)),
        "slope_at_1": float(dphi(1.0)),
        "moment": float(moment),
        "slope_at_0": float(dphi(0.0)),
    }


def axial_conditions(psi: Polynomial) -> dict[str, float]:
    """Mean and first moment of the axial profile on (0, 1)."""
    psi = as_poly(psi)
    return {
        "mean": float(psi.integ()(1.0)),
        "first_moment": float((Polynomial([0.0, 1.0]) * psi).integ()(1.0)),
    }


def radial_displacement_profile(phi: Polynomial) -> Polynomial:
    """Closed-form solution eta(r) of the planar radial equilibrium ODE."""
    phi = as_poly(phi)
    cond = radial_conditions(phi)
    err = abs(cond["value_at_1"]) + abs(cond["slope_at_1"]) + abs(cond["moment"])
    if err > 1e-12:
        raise ValueError(f"radial profile violates the admissibility conditions: {cond}")
    dphi = phi.deriv()
    inner = (Polynomial([0.0, 0.0, 1.0]) * dphi).integ()  # integral of t^2 phi'
    coef = inner.coef
    if coef.size and abs(coef[0]) > 0:
        raise ValueError("internal error: integral should have no constant term")
    # division by r is exact: the integral starts at degree >= 3
    divided = Polynomial(coef[1:]) if coef.size > 1 else Polynomial([0.0])
    return Polynomial([0.0, -1.0 / 16.0]) * phi + divided / 16.0


def radial_ode_residual(eta: Polynomial, phi: Polynomial, r_grid: np.ndarray) -> float:
    """Max over the grid of |r^2 eta'' + r eta' - eta + (1/8) r^2 phi'|."""
    eta = as_poly(eta)
    phi = as_poly(phi)
    r = np.asarray(r_grid, dtype=float)
    d1 = eta.deriv()
    d2 = d1.deriv()
    res = r * r * d2(r) + r * d1(r) - eta(r) + 0.125 * r * r * phi.deriv()(r)
    return float(np.max(np.abs(res)))


def axial_displacement_profile(psi: Polynomial) -> Polynomial:
    """Closed-form axial displacement: -(1/8) double integral of psi from 0."""
    psi = as_poly(psi)
    return -psi.integ(2, lbnd=0.0) / 8.0


def planar_profile(eta: Polynomial) -> Polynomial:
    """p(s) with eta(r) = r p(r^2); exact when eta is odd.

    For general admissible phi the solution eta may contain even powers as
    well; those are handled by the field evaluators directly and this helper
    rejects them.
    """
    eta = as_poly(eta)
    coef = eta.coef.copy()
    if coef.size and np.max(np.abs(coef[0::2])) > 1e-14 * max(1.0, np.max(np.abs(coef))):
        raise ValueError("eta is not an odd polynomial; no profile in r^2 exists")
    return Polynomial(coef[1::2]) if coef.size > 1 else Polynomial([0.0])


def radial_strain_integral(eta: Polynomial) -> float:
    """integral_0^1 (eta'^2 + (eta/r)^2) r dr for the in-plane radial field."""
    eta = as_poly(eta)
    r = Polynomial([0.0, 1.0])
    over_r = planar_profile(eta)(r * r)  # eta/r = p(r^2)
    d = eta.deriv()
    return float(((d * d + over_r * over_r) * r).integ()(1.0))


def swirl_strain_integral(eta: Polynomial) -> float:
    """integral_0^1 2 (eta' - eta/r)^2 r dr for the in-plane swirl field."""
    eta = as_poly(eta)
    r = Polynomial([0.0, 1.0])
    diff = eta.deriv() - planar_profile(eta)(r * r)
    return float((2.0 * diff * diff * r).integ()(1.0))


def axial_strain_integral(axial: Polynomial) -> float:
    """integral_0^1 w'(z)^2 dz."""
    d = as_poly(axial).deriv()
    return float((d * d).integ()(1.0))


def planar_laplacian(radial_fn: Polynomial) -> Polynomial:
    """Laplacian g'' + g'/r of a radial function given as g(r), exact.

    Requires g even (a genuine smooth planar radial function), so that
    g'(r)/r is again a polynomial.
    """
    g = as_poly(radial_fn)
    coef = g.coef.copy()
    if coef.size > 1 and np.max(np.abs(coef[1::2])) > 1e-13 * max(1.0, np.max(np.abs(coef))):
        raise ValueError("radial function must be even for a smooth planar Laplacian")
    d1 = g.deriv()
    over_r = Polynomial(d1.coef[1:]) if d1.coef.size > 1 else Polynomial([0.0])
    if d1.coef.size and abs(d1.coef[0]) > 1e-13 * max(1.0, np.max(np.abs(coef))):
        raise ValueError("derivative has a constant term; cannot divide by r")
    return d1.deriv() + over_r


def biharmonic_residual(eta: Polynomial, phi: Polynomial, r_grid: np.ndarray) -> float:
    """Max over the grid of |8 Lap^2 Phi + Lap phi| where Phi' = eta."""
    eta = as_poly(eta)
    phi = as_poly(phi)
    big_phi = eta.integ(lbnd=0.0)
    lap1 = planar_laplacian(big_phi)
    lap2 = planar_laplacian(lap1)
    lap_phi = planar_laplacian(phi)
    r = np.asarray(r_grid, dtype=float)
    return float(np.max(np.abs(8.0 * lap2(r) + lap_phi(r))))
