"""Body/surface loads, the work functional, and its rotation kernel.

A load is either a cylinder profile load

    f(x, y, z) = (phi'(r) x / r, phi'(r) y / r, psi(z)),   g = lambda * n,

with polynomial radial potential phi and axial profile psi, or the built-in
ball load f(x) = -x.  The radial factor phi'(r)/r is evaluated through its
polynomial extension, so the axis r = 0 is regular; this requires
phi'(0) = 0, which validation enforces.

Admissibility of the profiles:

* phi(1) = phi'(1) = 0 and the moment integral of r^2 phi'(r) vanishes;
* psi has zero mean and nonnegative first moment on (0, 1).

The work functional L(v) is linear, kills constants, and does no work on
infinitesimal rotations; the set of finite rotations with L((R - I) x) = 0
forms a subgroup of SO(3) classified by ``compatibility_report``.  All the
classification data is carried by the moment matrix T_ij = L(x_j e_i):

    L((R - I) x) = <R - I, T>,
    L(W x)       = <W, T>            for skew W,
    L(W^2 x)     = omega' M omega,   M = sym T - tr(T) I,

where omega is the rotation axis of W.  The report combines a sampled
sweep of unit axes with the eigenvalue structure of M.  The work
<R - I, T> is linear in R, so the rotation doing the most of it is the
Procrustes rotation of T, which ``reversed_compatibility_witness`` returns.

Every work is integrated as a first-moment tensor Y = sum w f (x) v by
``work_moment``, with L(R v) = <R, Y>: T is Y of the placement x, and the
loads folded by a rotation R, v -> L(R v), have the moments R' Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from . import geometry
from .geometry import Domain, QuadratureRule, volume_quadrature, surface_quadrature
from .profiles import as_poly, axial_conditions, radial_conditions
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
        if self.surface_pressure is not None and self.domain.kind != "cylinder":
            raise LoadError("surface pressure is unsupported off the cylinder")
        phi, psi = self.phi, self.psi
        if _nonzero(phi):
            cond = radial_conditions(phi)
            for key in ("value_at_1", "slope_at_1", "moment", "slope_at_0"):
                if abs(cond[key]) > PROFILE_TOL:
                    raise LoadError(f"radial profile fails {key} = {cond[key]:.3e}")
            if self.domain.kind == "ball" and np.any(phi.coef[1::2]):
                raise LoadError("radial profile has odd powers of r, which no ball "
                                "rule integrates exactly")
            if not _nonzero(_planar_laplacian_profile(phi)):
                raise LoadError("radial profile has identically zero Laplacian")
        if _nonzero(psi):
            cond = axial_conditions(psi)
            if abs(cond["mean"]) > PROFILE_TOL:
                raise LoadError(f"axial profile has nonzero mean {cond['mean']:.3e}")
            if cond["first_moment"] < -PROFILE_TOL:
                raise LoadError(
                    f"axial profile has negative first moment {cond['first_moment']:.3e}"
                )

    @property
    def phi(self) -> Polynomial:
        return as_poly(self.phi_coeffs if self.phi_coeffs else [0.0])

    @property
    def psi(self) -> Polynomial:
        return as_poly(self.psi_coeffs if self.psi_coeffs else [0.0])

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


def _planar_laplacian_profile(phi: Polynomial) -> Polynomial:
    """phi'' + phi'/r as a polynomial (phi'(0) = 0 makes the division exact)."""
    d1 = phi.deriv()
    if d1.coef.size and abs(d1.coef[0]) > PROFILE_TOL:
        raise LoadError("radial profile needs phi'(0) = 0 for a smooth axis")
    over_r = Polynomial(d1.coef[1:]) if d1.coef.size > 1 else Polynomial([0.0])
    return d1.deriv() + over_r


def body_force(load, points: np.ndarray) -> np.ndarray:
    """Volume force at an (N, 3) array of points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if load.builtin == BALL_PULL_IN:
        return -points
    out = np.zeros_like(points)
    phi, psi = load.phi, load.psi
    if _nonzero(phi):
        ratio = Polynomial(phi.deriv().coef[1:])  # phi'(r)/r, even extension
        r2 = points[:, 0] ** 2 + points[:, 1] ** 2
        vals = ratio(np.sqrt(r2))
        out[:, 0] = vals * points[:, 0]
        out[:, 1] = vals * points[:, 1]
    if _nonzero(psi):
        out[:, 2] = psi(points[:, 2])
    return out


def surface_force(load, normals: np.ndarray) -> np.ndarray | None:
    """Surface force lambda * n at surface nodes, or None when absent."""
    if not load.has_surface_term:
        return None
    return load.surface_pressure * np.asarray(normals, dtype=float)


@dataclass
class LoadRules:
    volume: QuadratureRule
    surface: QuadratureRule | None = None


def default_rules(load, order: int) -> LoadRules:
    dom = load.domain
    surface = surface_quadrature(dom, order) if load.has_surface_term else None
    return LoadRules(volume=volume_quadrature(dom, order), surface=surface)


def force_degree(load) -> int:
    """Degree of the forces for exact_order: deg psi, 1 for -x and for the
    pressure, and k - 1 + k % 2 per term r^k of phi.  For odd k, k r^(k-2)
    (x, y) is no polynomial and does not average out over the angle, so it
    counts one degree more (LoadSpec refuses odd k on the ball, where no
    order integrates it exactly)."""
    if load.builtin is not None:
        return 1
    planar = max((k - 1 + k % 2 for k, c in enumerate(load.phi.coef) if c and k > 1), default=0)
    return max(planar, load.psi.trim().degree(), int(load.has_surface_term))


def exact_order(load) -> int:
    """Rule order integrating the moment matrix and the resultant exactly:
    f_i x_j has the forces' degree + 1."""
    return geometry.exact_order(force_degree(load) + 1)


def work_moment(load, rules: LoadRules, values, surface_values=None):
    """Y = sum w f (x) v + sum w_s g (x) v_s, so that L(R v) = <R, Y>.

    ``values`` are (..., N, m) field values at the volume nodes and
    ``surface_values`` (..., N_s, m) at the surface nodes; leading axes
    broadcast, so a (K, N, 3) table of basis values gives (K, 3, 3).  A
    pressure load needs the surface rule and the values on it.  ``values``
    None leaves out the volume term, for a caller that contracts it itself.
    """
    Y = 0.0
    if values is not None:
        vol = rules.volume
        Y = np.einsum("n,ni,...nj->...ij", vol.weights, body_force(load, vol.points), values)
    if load.has_surface_term:
        surf = rules.surface
        if surf is None or surface_values is None:
            raise LoadError("a pressure load needs a surface rule and the field on it")
        g = surface_force(load, surf.normals)
        Y = Y + np.einsum("n,ni,...nj->...ij", surf.weights, g, surface_values)
    return Y


def _at_nodes(rules: LoadRules, field) -> tuple[np.ndarray, np.ndarray | None]:
    """field(points) at the volume nodes and, if there is a surface rule, at its nodes."""
    surf = rules.surface
    return field(rules.volume.points), None if surf is None else field(surf.points)


def load_functional(load, v, rules: LoadRules) -> float:
    """L(v) = volume work + surface work for a vector field v: a callable of
    points, or (N, 3) values at the volume nodes (then without a pressure)."""
    values, surface_values = _at_nodes(rules, v) if callable(v) else (np.asarray(v, float), None)
    if not np.all(np.isfinite(values)):
        raise LoadError("field evaluation produced non-finite values")
    return float(np.trace(work_moment(load, rules, values, surface_values)))


def moment_matrix(load, rules: LoadRules) -> np.ndarray:
    """T with T_ij = work of the load against the linear field x_j e_i."""
    return work_moment(load, rules, *_at_nodes(rules, lambda p: p))


def resultant(load, rules: LoadRules) -> np.ndarray:
    """The total force, the work against the unit translations."""
    return work_moment(load, rules, *_at_nodes(rules, lambda p: np.ones((len(p), 1))))[:, 0]


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
    w2_values: dict[tuple[float, float, float], float]
    eigenvalues: np.ndarray
    tol: float

    @property
    def w2_max(self) -> float:
        return max(self.w2_values.values())


def compatibility_report(load, rules: LoadRules | None = None, samples: int = 200,
                         tol: float = CLASSIFICATION_TOL) -> KernelReport:
    """Classify the rotation kernel of the load functional from its moment
    matrix and resultant (``classify_moments``)."""
    if rules is None:
        rules = default_rules(load, exact_order(load))
    return classify_moments(moment_matrix(load, rules), resultant(load, rules), samples, tol)


def classify_moments(T: np.ndarray, res: np.ndarray, samples: int = 200,
                     tol: float = CLASSIFICATION_TOL) -> KernelReport:
    """The rotation kernel of the loads with moment matrix T and resultant res.

    The sampled sweep fills the diagnostics; the classification itself
    uses the exact quadratic form M of the spin directions, whose
    eigenstructure separates the four cases.  Loads folded by a rotation R,
    v -> L(R v), have the moments R' T and R' res.
    """
    momentum = np.array([float(np.sum(skew_from_axis(np.eye(3)[k]) * T)) for k in range(3)])
    momentum_max = float(np.max(np.abs(momentum)))
    M = 0.5 * (T + T.T) - np.trace(T) * np.eye(3)

    dirs = fibonacci_directions(samples)
    vals = np.einsum("ni,ij,nj->n", dirs, M, dirs)
    w2_values = dict(zip(map(tuple, np.round(dirs, 12).tolist()), vals.tolist()))

    eigvals, eigvecs = np.linalg.eigh(M)  # ascending
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
                        momentum_max=momentum_max, w2_values=w2_values, eigenvalues=eigvals,
                        tol=tol)


def reversed_compatibility_witness(T: np.ndarray, tol: float = CLASSIFICATION_TOL) -> np.ndarray | None:
    """The rotation doing the most work L((R - I) x) = <R - I, T> on the
    reference placement, given the moment matrix T, when that work exceeds
    tol.

    The work is linear in R, so its maximum over SO(3) is attained at the
    special orthogonal Procrustes rotation of T.  None therefore proves that
    no rotation does more than tol work.  The maximizer need not be unique:
    for T = c I with c < 0 (a compressive pressure, ``ball_pull_in``) every
    half-turn does the same maximal work -4c, and the one returned is
    whichever half-turn round-off in T picks.
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
