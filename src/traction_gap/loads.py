"""Body/surface loads, the work functional, and its rotation kernel.

A load is either a cylinder profile load

    f(x, y, z) = (phi'(r) x / r, phi'(r) y / r, psi(z)),   g = lambda * n,

with polynomial radial potential phi and axial profile psi, or the built-in
ball load f(x) = -x.  The radial factor phi'(r)/r is evaluated through its
polynomial extension, so the axis r = 0 is regular; this requires
phi'(0) = 0, which validation enforces.

Admissibility of the profiles:

* phi(1) = phi'(1) = 0 and the moment integral of r^2 phi'(r) vanishes;
* the axial resultant, the integral of psi over the domain, vanishes, and
  psi has nonnegative first moment on (0, 1).

The work functional L(v) is linear, kills constants, and does no work on
infinitesimal rotations; the set of finite rotations with L((R - I) x) = 0
forms a subgroup of SO(3) classified by ``compatibility_report``.  All the
classification data is carried by the moment matrix T_ij = L(x_j e_i):

    L((R - I) x) = <R - I, T>,
    L(W x)       = <W, T>            for skew W,
    L(W^2 x)     = omega' M omega,   M = sym T - tr(T) I,

where omega is the rotation axis of W.  The report classifies by the
exact eigenvalues of M, with no sampling.  The work
<R - I, T> is linear in R, so the rotation doing the most of it is the
Procrustes rotation of T, which ``reversed_compatibility_witness`` returns.

Every work is a first-moment tensor Y = integral f (x) v, with
L(R v) = <R, Y>, and the loads folded by a rotation R, v -> L(R v), have
the moments R' Y.  T, Y of the placement x, and the resultant are closed
forms (``placement_moments``).  Otherwise Y is a rule's sum: every body
force splits by the factors of a volume rule's terms (``factor_forces``), so
for a field that splits the same way Y is a sum of planar and axial factor
sums (``factor_moment``).  A pressure lambda n does the work lambda times the
integral of div v (divergence theorem), so its moment, lambda times the
integral of (grad v)', is a volume integral on the same factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyder, polyint, polymulx, polyval

from .geometry import Domain, QuadratureRule, volume_quadrature
from .profiles import axial_conditions, radial_conditions
from .rotations import nearest_rotation, skew_from_axis

PROFILE_TOL = 1e-12
CLASSIFICATION_TOL = 1e-9

BALL_PULL_IN = "ball_pull_in"


class LoadError(ValueError):
    pass


@dataclass(frozen=True)
class LoadSpec:
    phi_coeffs: tuple[float, ...] = ()
    psi_coeffs: tuple[float, ...] = ()
    surface_pressure: float | None = None
    builtin: str | None = None
    domain: Domain = field(default_factory=Domain.cylinder)

    def __post_init__(self):
        if self.builtin is not None:
            if self.builtin != BALL_PULL_IN:
                raise LoadError(f"unknown builtin load {self.builtin!r}")
            if self.domain.kind != "ball":
                raise LoadError("the pull-in load lives on a ball")
            if self.phi_coeffs or self.psi_coeffs or self.surface_pressure is not None:
                raise LoadError("builtin loads take no profile or pressure fields")
            return
        phi, psi = self.phi, self.psi
        if _nonzero(phi):
            cond = radial_conditions(phi)
            for key in ("value_at_1", "slope_at_1", "moment", "slope_at_0"):
                if abs(cond[key]) > PROFILE_TOL:
                    raise LoadError(f"radial profile fails {key} = {cond[key]:.3e}")
            if self.domain.kind == "ball" and np.any(phi.coef[1::2]):
                raise LoadError("radial profile has odd powers of r, which no ball "
                                "rule integrates exactly")
            if not np.any(phi.coef[2:]):  # the Laplacian phi'' + phi'/r has k^2 c_k r^(k-2)
                raise LoadError("radial profile has identically zero Laplacian")
        if _nonzero(psi):
            # the closed-form resultant on the load's own domain, per unit volume
            a, resultant = self.domain.radius, placement_moments(self)[1][2]
            extent = 4.0 * a / 3.0 if self.domain.kind == "ball" else self.domain.height
            if abs(resultant) > PROFILE_TOL * np.pi * a * a * extent:
                raise LoadError(f"load has a nonzero resultant: axial component {resultant:.3e}")
            moment = axial_conditions(psi)["first_moment"]
            if moment < -PROFILE_TOL:
                raise LoadError(f"axial profile has negative first moment {moment:.3e}")

    @property
    def phi(self) -> Polynomial:
        return Polynomial(self.phi_coeffs or [0.0])

    @property
    def psi(self) -> Polynomial:
        return Polynomial(self.psi_coeffs or [0.0])

    @property
    def has_surface_term(self) -> bool:
        return self.surface_pressure is not None and self.surface_pressure != 0.0

    @staticmethod
    def cylinder_preset(beta: float = 0.01) -> "LoadSpec":
        """Radial profile 4r^6 - 9r^4 + 6r^2 - 1 with psi(z) = beta (z - 1/2)."""
        return LoadSpec(
            phi_coeffs=(-1.0, 0.0, 6.0, 0.0, -9.0, 0.0, 4.0),
            psi_coeffs=(-0.5 * beta, 1.0 * beta) if beta != 0.0 else (),
        )

    @staticmethod
    def ball_pull_in() -> "LoadSpec":
        return LoadSpec(builtin=BALL_PULL_IN, domain=Domain.unit_ball())


def _nonzero(p: Polynomial) -> bool:
    return bool(np.any(np.abs(p.coef) > 0.0))


def factor_forces(load, term) -> tuple[np.ndarray, np.ndarray]:
    """The body force on one tensor term ((x, y, w), (z, w)) of a volume rule,
    as a planar (N_P, 2) and an axial (N_z,) factor: at the node
    (x_p, y_p, z_k) the force is (f_P[p], f_z[k]).  Every load splits so: a
    profile load's in-plane force phi'(r)/r (x, y) depends on the planar
    point alone and psi(z) on the height alone, and -x is -(x, y) and -z."""
    (px, py, _), (z, _) = term
    xy = np.stack([px, py], axis=1)
    if load.builtin == BALL_PULL_IN:
        return -xy, -z
    phi, psi = load.phi, load.psi
    planar = np.zeros_like(xy)
    if _nonzero(phi):
        ratio = Polynomial(phi.deriv().coef[1:])  # phi'(r)/r, even extension
        planar = ratio(np.sqrt(px ** 2 + py ** 2))[:, None] * xy
    return planar, psi(z) if _nonzero(psi) else np.zeros_like(z)


@dataclass
class LoadRules:
    volume: QuadratureRule


def default_rules(load, order: int) -> LoadRules:
    return LoadRules(volume=volume_quadrature(load.domain, order))


def force_degree(load) -> int:
    """Degree of the body forces, for the orders of the rules their work is
    integrated on: deg psi, 1 for -x, and k - 1 + k % 2 per term r^k of phi;
    a pressure's work integrates div v, of lower degree than v, and adds
    none.  For odd k, k r^(k-2) (x, y) is no polynomial and does not average
    out over the angle, so it counts one degree more (LoadSpec refuses odd k
    on the ball, where no order integrates it exactly)."""
    if load.builtin is not None:
        return 1
    planar = max((k - 1 + k % 2 for k, c in enumerate(load.phi.coef) if c and k > 1), default=0)
    return max(planar, load.psi.trim().degree())


def factor_moment(term, force, field) -> np.ndarray:
    """Y = sum w f (x) v over one tensor term of a volume rule, for a force and
    a field whose x and y components depend on the planar point alone and
    whose z component on the height alone, each given as its planar (N_P, 2)
    and axial (N_z,) factor.  With the term's planar and axial weight totals
    W_p and W_z, Y sums factor by factor:

        Y[:2, :2] = W_z sum_p w_p f_P (x) v_P,   Y[:2, 2] = (sum_p w_p f_P)(sum_z w_z v_z),
        Y[2, :2] = (sum_z w_z f_z)(sum_p w_p v_P),   Y[2, 2] = W_p sum_z w_z f_z v_z.
    """
    (_, _, pw), (_, zw) = term
    (fP, fz), (vP, vz) = force, field
    Y = np.empty((3, 3))
    Y[:2, :2] = np.sum(zw) * ((pw[:, None] * fP).T @ vP)
    Y[:2, 2] = (pw @ fP) * (zw @ vz)
    Y[2, :2] = (zw @ fz) * (pw @ vP)
    Y[2, 2] = np.sum(pw) * (zw @ (fz * vz))
    return Y


def placement_moments(load) -> tuple[np.ndarray, np.ndarray]:
    """The moment matrix T (T_ij the work against x_j e_i) and the resultant
    (the work against the unit translations) in closed form.  The mirrors
    x -> -x, y -> -y leave T = diag(t, t, t_z) and the resultant (0, 0, r_z),
    1D integrals over the slices z of area A = pi rho^2 (rho = a on [0, H],
    or rho^2 = a^2 - z^2 on the ball's [-a, a], where phi is even):

        t = pi int dz int_0^rho phi'(r) r^2 dr,   t_z = int psi z A dz,   r_z = int psi A dz.

    The pull-in load -x gives -(4 pi / 15) a^5 I; a pressure lambda adds
    lambda times the integral of (grad x)' = I, lambda |Omega| I."""
    a, ball = load.domain.radius, load.domain.kind == "ball"
    lo, hi = (-a, a) if ball else (0.0, load.domain.height)
    rho_sq = np.array([a * a, 0.0, -1.0] if ball else [a * a])
    area = np.pi * rho_sq

    def integral(c) -> float:
        c = polyint(c)
        return float(polyval(hi, c) - polyval(lo, c))

    T, res = np.zeros((3, 3)), np.zeros(3)
    if load.builtin == BALL_PULL_IN:
        T -= 4.0 * np.pi / 15.0 * a ** 5 * np.eye(3)
    else:
        inner = polyint(polymulx(polymulx(polyder(load.phi.coef))))  # of phi' r^2, in rho
        inner = Polynomial(inner[::2])(Polynomial(rho_sq)).coef if ball else [polyval(a, inner)]
        psi_area = np.convolve(load.psi.coef, area)
        T[0, 0] = T[1, 1] = np.pi * integral(inner)
        T[2, 2] = integral(polymulx(psi_area))
        res[2] = integral(psi_area)
    if load.has_surface_term:
        T += load.surface_pressure * integral(area) * np.eye(3)
    return T, res


def fibonacci_directions(n: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    ang = golden * i
    return np.stack([rho * np.cos(ang), rho * np.sin(ang), z], axis=1)


IDENTITY_ONLY = "identity_only"
AXIS_SUBGROUP = "axis_subgroup"
FULL_SO3 = "full_so3"
INCOMPATIBLE = "incompatible"


@dataclass
class KernelReport:
    classification: str
    axis: np.ndarray | None
    moments: np.ndarray  # T, the moment matrix classified
    resultant: np.ndarray
    momentum_max: float
    eigenvalues: np.ndarray  # of the spin form M, ascending
    tol: float


def spin_form(T: np.ndarray) -> np.ndarray:
    """M = sym T - tr(T) I, with L(W^2 x) = omega' M omega."""
    return 0.5 * (T + T.T) - np.trace(T) * np.eye(3)


def compatibility_report(load, tol: float = CLASSIFICATION_TOL) -> KernelReport:
    """Classify the rotation kernel of the load functional from its moment
    matrix and resultant (``classify_moments``)."""
    return classify_moments(*placement_moments(load), tol)


def classify_moments(T: np.ndarray, res: np.ndarray,
                     tol: float = CLASSIFICATION_TOL) -> KernelReport:
    """The rotation kernel of the loads with moment matrix T and resultant res.

    The exact quadratic form M of the spin directions has the extremes of
    omega' M omega over unit axes as its eigenvalues, and its eigenstructure
    separates the four cases.  Loads folded by a rotation R, v -> L(R v),
    have the moments R' T and R' res.
    """
    momentum = np.array([float(np.sum(skew_from_axis(np.eye(3)[k]) * T)) for k in range(3)])
    momentum_max = float(np.max(np.abs(momentum)))
    eigvals, eigvecs = np.linalg.eigh(spin_form(T))  # ascending
    axis = None
    if float(np.linalg.norm(res)) > tol or momentum_max > tol or eigvals[-1] > tol:
        cls = INCOMPATIBLE
    elif np.all(np.abs(eigvals) <= tol):
        cls = FULL_SO3
    elif abs(eigvals[-1]) <= tol and eigvals[-2] < -tol:
        cls = AXIS_SUBGROUP
        axis = eigvecs[:, -1].copy()
        k = int(np.argmax(np.abs(axis)))
        if axis[k] < 0:
            axis = -axis
    else:
        cls = IDENTITY_ONLY
    return KernelReport(classification=cls, axis=axis, moments=T, resultant=res,
                        momentum_max=momentum_max, eigenvalues=eigvals, tol=tol)


def reversed_compatibility_witness(T: np.ndarray, tol: float = CLASSIFICATION_TOL) -> np.ndarray | None:
    """The rotation doing the most work L((R - I) x) = <R - I, T> on the
    reference placement, given the moment matrix T, when that work exceeds
    tol.

    The work is linear in R, so its maximum over SO(3) is attained at the
    special orthogonal Procrustes rotation of T.  None therefore proves that
    no rotation does more than tol work.  The maximizer need not be unique:
    for T = c I with c < 0 (a compressive pressure, ``ball_pull_in``) every
    half-turn does the same maximal work -4c, and the one returned is the
    half-turn about e_z, where the SVD's sign flip of the last singular
    vector puts it.
    """
    R, _ = nearest_rotation(T)
    return R if float(np.sum((R - np.eye(3)) * T)) > tol else None


@dataclass
class RigidPart:
    translation: np.ndarray
    omega: np.ndarray

    def values(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self.translation[None, :] + np.cross(
            np.broadcast_to(self.omega, points.shape), points
        )


def rigid_projection(v, rule: QuadratureRule) -> RigidPart:
    """L^2 projection of a vector field onto a + omega x x (least squares)."""
    vals = v(rule.points) if callable(v) else np.asarray(v, dtype=float)
    w, x = rule.weights, rule.points
    wsum = float(np.sum(w))
    wx = w @ x
    # normal equations for (a, omega) with model a - hat(x) omega
    M = np.zeros((6, 6))
    rhs = np.zeros(6)
    M[:3, :3] = wsum * np.eye(3)
    Sx = skew_from_axis(wx)
    M[:3, 3:] = -Sx
    M[3:, :3] = Sx
    xx = np.einsum("n,ni,nj->ij", w, x, x)
    M[3:, 3:] = np.trace(xx) * np.eye(3) - xx
    rhs[:3] = w @ vals
    rhs[3:] = np.einsum("n,ni->i", w, np.cross(x, vals))
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return RigidPart(translation=sol[:3], omega=sol[3:])
