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

The algebra runs on power-basis coefficient arrays (``np.convolve`` and
``numpy.polynomial.polynomial``); ``Polynomial`` appears only where a
profile is taken or returned.  The residuals of the defining equations are
coefficient arrays too: on [0, 1], |c_k r^k| <= |c_k|, so the sum of the
coefficients' magnitudes (``coefficient_bound``) is a proven bound of a
residual's maximum there, with no sample grid.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyadd, polyder, polyint, polymulx, polysub, polyval


def _coef(p) -> np.ndarray:
    """The coefficient array of a Polynomial or of a coefficient sequence."""
    return np.atleast_1d(np.asarray(getattr(p, "coef", p), dtype=float))


def _over_r(c: np.ndarray) -> np.ndarray:
    """c / r, for c without a constant term."""
    return c[1:] if c.size > 1 else 0.0 * c


def _integral(c: np.ndarray) -> float:
    """integral_0^1 of the polynomial c."""
    return float(polyval(1.0, polyint(c)))


def _in_r_squared(p: np.ndarray) -> np.ndarray:
    """p(r^2) as a polynomial in r."""
    out = np.zeros(2 * p.size - 1)
    out[::2] = p
    return out


def radial_conditions(phi) -> dict[str, float]:
    """Constraint residuals for the radial profile.

    Keys: value_at_1, slope_at_1, moment (integral of r^2 phi'), slope_at_0.
    All four must vanish for an admissible profile.
    """
    c = _coef(phi)
    d = polyder(c)
    return {
        "value_at_1": float(polyval(1.0, c)),
        "slope_at_1": float(polyval(1.0, d)),
        "moment": _integral(polymulx(polymulx(d))),
        "slope_at_0": float(polyval(0.0, d)),
    }


def axial_conditions(psi) -> dict[str, float]:
    """First moment of the axial profile on (0, 1)."""
    return {"first_moment": _integral(polymulx(_coef(psi)))}


def radial_displacement_profile(phi) -> Polynomial:
    """Closed-form solution eta(r) of the planar radial equilibrium ODE."""
    c = _coef(phi)
    cond = radial_conditions(c)
    err = abs(cond["value_at_1"]) + abs(cond["slope_at_1"]) + abs(cond["moment"])
    if err > 1e-12:
        raise ValueError(f"radial profile violates the admissibility conditions: {cond}")
    # the integral of t^2 phi' starts at degree >= 3, so the division by r is exact
    inner = polyint(polymulx(polymulx(polyder(c))))
    return Polynomial(polyadd(polymulx(c) * (-1.0 / 16.0), _over_r(inner) / 16.0))


def coefficient_bound(c) -> float:
    """sum_k |c_k|, a bound of max |p| on [0, 1] for p(r) = sum_k c_k r^k."""
    return float(np.sum(np.abs(_coef(c))))


def radial_ode_residual(eta, phi) -> np.ndarray:
    """Coefficients of r^2 eta'' + r eta' - eta + (1/8) r^2 phi'."""
    e = _coef(eta)
    d1 = polyder(e)
    lhs = polysub(polyadd(polymulx(polymulx(polyder(d1))), polymulx(d1)), e)
    return polyadd(lhs, polymulx(polymulx(polyder(_coef(phi)))) / 8.0)


def axial_displacement_profile(psi) -> Polynomial:
    """Closed-form axial displacement: -(1/8) double integral of psi from 0."""
    return Polynomial(-polyint(_coef(psi), 2) / 8.0)


def planar_profile(eta) -> Polynomial:
    """p(s) with eta(r) = r p(r^2); exact when eta is odd.

    For general admissible phi the solution eta may contain even powers as
    well; those are handled by the field evaluators directly and this helper
    rejects them.
    """
    e = _coef(eta)
    if np.max(np.abs(e[0::2])) > 1e-14 * max(1.0, np.max(np.abs(e))):
        raise ValueError("eta is not an odd polynomial; no profile in r^2 exists")
    return Polynomial(e[1::2] if e.size > 1 else [0.0])


def radial_strain_integral(eta) -> float:
    """integral_0^1 (eta'^2 + (eta/r)^2) r dr for the in-plane radial field."""
    e = _coef(eta)
    over_r = _in_r_squared(planar_profile(e).coef)  # eta/r = p(r^2)
    d = polyder(e)
    return _integral(polymulx(polyadd(np.convolve(d, d), np.convolve(over_r, over_r))))


def swirl_strain_integral(eta) -> float:
    """integral_0^1 2 (eta' - eta/r)^2 r dr for the in-plane swirl field."""
    e = _coef(eta)
    diff = polysub(polyder(e), _in_r_squared(planar_profile(e).coef))
    return _integral(polymulx(np.convolve(2.0 * diff, diff)))


def axial_strain_integral(axial) -> float:
    """integral_0^1 w'(z)^2 dz."""
    d = polyder(_coef(axial))
    return _integral(np.convolve(d, d))


def _planar_laplacian(g: np.ndarray) -> np.ndarray:
    """Laplacian g'' + g'/r of a radial function given as g(r), exact.

    Requires g even (a genuine smooth planar radial function), so that
    g'(r)/r is again a polynomial.
    """
    scale = max(1.0, np.max(np.abs(g)))
    if g.size > 1 and np.max(np.abs(g[1::2])) > 1e-13 * scale:
        raise ValueError("radial function must be even for a smooth planar Laplacian")
    d1 = polyder(g)
    if abs(d1[0]) > 1e-13 * scale:
        raise ValueError("derivative has a constant term; cannot divide by r")
    return polyadd(polyder(d1), _over_r(d1))


def biharmonic_residual(eta, phi) -> np.ndarray:
    """Coefficients of 8 Lap^2 Phi + Lap phi, where Phi' = eta."""
    lap2 = _planar_laplacian(_planar_laplacian(polyint(_coef(eta))))
    return polyadd(8.0 * lap2, _planar_laplacian(_coef(phi)))
