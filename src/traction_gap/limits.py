"""Limit-energy minimization over the rotation kernel, closed-form cylinder
minimizers, gap certification, rotated-load and nonuniqueness checks.

For the cylinder profile loads the minimizers of the per-rotation energies
have the structured form

    u(x, y, z) = p(r^2) (a x + b y, a y - b x, 0) + (0, 0, w(z)),

with p = eta(r)/r built from the radial equilibrium profile and w the axial
equilibrium displacement; theta parameterizes the family through
a = cos(theta), b = -2 sin(theta).  The value of the per-rotation minimum
decomposes as cos^2(theta) * minE + sin^2(theta) * minSwirl, which is the
closed form the numerical searches are checked against.  ``verify_explicit``
checks the closed form against its defining equations by proven bounds:
each residual is a polynomial on [0, 1] held as a coefficient array, and the
sum of its coefficients' magnitudes bounds its maximum there.

Certification logic for the incompressible gap (GI < EI, the constrained
relaxed and linear minima):

* upper bound for GI: the divergence-free fields of the Galerkin space
  (``galerkin.divergence_free``) are feasible, so their relaxed minimum
  over the rotation kernel (below) sits above GI;
* lower bound for EI, by complementary energy: sigma = 8 E(u0) + lambda I
  balances the loads (-div sigma = f, sigma n = lambda n), so for every
  divergence-free u the work is L(u) = integral of 8 dev E(u0) : E(u), and
  pointwise 4 |E(u)|^2 - 8 dev E(u0) : E(u) >= -4 |dev E(u0)|^2, giving
  EI >= -4 * integral of |dev E(u0)|^2, which is (2/3) min_E plus terms in
  eta(1) that admissibility makes zero (``min_incompressible_lower``).

The gap is certified when the upper bound falls strictly below the lower
bound; otherwise the report says so rather than asserting the inequality.

The relaxed minimum minimizes the per-rotation Galerkin value
m(R) = -vec(R)' Q vec(R) / 2 over the rotation kernel: in closed form about a
kernel axis, where m is a trigonometric polynomial of degree 2 in the angle;
on the full SO(3) kernel by a quaternion grid and a polish loop that takes,
per start, the lower of a Procrustes step and a Riemannian Newton step.  Q is
positive semidefinite there, and the Procrustes step is the exact maximizer
of the tangent plane of the convex -m, so no step raises m beyond round-off.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyder, polyval

from .energy import QUADRATIC_SCALE, strain, sym_norm_sq_sum
from .galerkin import (
    SolveResult,
    SolverError,
    StiffnessSystem,
    assemble,
    build_space,
    divergence_free,
    solve_quadratic,
)
from .geometry import QuadratureRule, exact_order, volume_quadrature
from .loads import (
    AXIS_SUBGROUP,
    FULL_SO3,
    IDENTITY_ONLY,
    INCOMPATIBLE,
    KernelReport,
    LoadError,
    LoadRules,
    LoadSpec,
    classify_moments,
    compatibility_report,
    default_rules,
    factor_forces,
    factor_moment,
)
from .profiles import (
    axial_displacement_profile,
    axial_strain_integral,
    biharmonic_residual,
    coefficient_bound,
    planar_profile,
    radial_displacement_profile,
    radial_ode_residual,
    radial_strain_integral,
    swirl_strain_integral,
)
from .rotations import (
    best_axis_rotation,
    exp_so3,
    nearest_rotation,
    rotation_about_z,
    rotation_angle,
    skew_from_axis,
)

DEFAULT_DEGREE = 8
SO3_GRID = 6  # quaternion grid points per coordinate and cube face (4 * 6^3 rotations)
POLISH_STARTS = 8  # lowest grid rotations refined together by the polish loop
# on 9000 random positive semidefinite forms (of every rank, and I + d A A'
# with d down to 1e-8) the loop took 5 steps in the median and at most 21
POLISH_MAX_STEPS = 100
NEWTON_RCOND = 1e-10  # |H|^+ drops the eigenvalues below this share of the largest
# a longer Newton step can overshoot where m is far from quadratic: without
# this cap 214 of 1000 of those nearly flat forms took over 3000 steps
NEWTON_MAX_STEP = 0.25  # radians
# round-off level of m relative to sum |Q_ij|, and of a rotation's entries
ROUNDOFF_TOL = 1e-14


# ---------------------------------------------------------------------------
# structured closed-form fields


class StructuredField:
    """Displacement p(r^2)(a x + b y, a y - b x, 0) + (0, 0, w(z)).

    Its in-plane part depends on (x, y) alone and its axial part on z alone,
    and so does its gradient (a 2x2 in-plane block plus w'), so it is
    evaluated on a rule's planar and axial factors, exactly.
    """

    def __init__(self, a: float, b: float, p: Polynomial, w: Polynomial):
        self.a, self.b, self.p, self.w = float(a), float(b), p, w
        self._p = (p.coef, polyder(p.coef))
        self._w = (w.coef, polyder(w.coef))

    def planar(self, x: np.ndarray, y: np.ndarray):
        """In-plane (values (N, 2), gradient block (N, 2, 2)) at the planar
        points (x, y); gradient entry [c, d] is d_d u_c."""
        s = x * x + y * y
        ps, dps = (polyval(s, c) for c in self._p)
        u1_rad = self.a * x + self.b * y
        u2_rad = self.a * y - self.b * x
        G = np.empty((s.size, 2, 2))
        G[:, 0, 0] = self.a * ps + 2.0 * x * dps * u1_rad
        G[:, 0, 1] = self.b * ps + 2.0 * y * dps * u1_rad
        G[:, 1, 0] = -self.b * ps + 2.0 * x * dps * u2_rad
        G[:, 1, 1] = self.a * ps + 2.0 * y * dps * u2_rad
        return np.stack([ps * u1_rad, ps * u2_rad], axis=1), G

    def axial(self, z: np.ndarray):
        """(w, w') at the heights z."""
        return tuple(polyval(z, c) for c in self._w)


def _on_factors(field: StructuredField, rule: QuadratureRule) -> list:
    """(term, field.planar, field.axial) on each tensor term of a volume rule."""
    if not rule.terms:
        raise ValueError(f"rule {rule.label!r} is no sum of planar-by-axial terms")
    return [(term, field.planar(*term[0][:2]), field.axial(term[1][0])) for term in rule.terms]


def _energy(factors) -> float:
    """4 * integral of |E|^2: per term W_z sum_p w_p |sym G_P|^2 + W_p sum_z w_z w'^2."""
    return QUADRATIC_SCALE * sum(
        np.sum(zw) * sym_norm_sq_sum(G, pw) + np.sum(pw) * float(zw @ (dw * dw))
        for ((_, _, pw), (_, zw)), (_, G), (_, dw) in factors)


def _work_moment(load, factors) -> np.ndarray:
    """Y = sum w f (x) u, with L(R u) = <R, Y>.  A pressure adds lambda times
    the integral of (grad u)': per term W_z sum_p w_p G_P' on the planar
    block and W_p sum_z w_z w' on the axial entry."""
    Y = sum(factor_moment(term, factor_forces(load, term), (v, w))
            for term, (v, _), (w, _) in factors)
    if load.has_surface_term:
        for ((_, _, pw), (_, zw)), (_, G), (_, dw) in factors:
            Y[:2, :2] += load.surface_pressure * np.sum(zw) * np.tensordot(pw, G, 1).T
            Y[2, 2] += load.surface_pressure * np.sum(pw) * float(zw @ dw)
    return Y


@dataclass
class ExplicitSolution:
    phi: Polynomial
    psi: Polynomial
    planar: Polynomial  # p(s) with eta(r) = r p(r^2)
    axial: Polynomial  # w(z)
    radial_integral: float
    swirl_integral: float
    axial_integral: float

    def minimizer_field(self, theta: float) -> StructuredField:
        return StructuredField(np.cos(theta), -2.0 * np.sin(theta), self.planar, self.axial)

    @property
    def u0(self) -> StructuredField:
        return self.minimizer_field(0.0)

    @property
    def u_swirl(self) -> StructuredField:
        return self.minimizer_field(-0.5 * np.pi)

    @property
    def min_linear_value(self) -> float:
        return -QUADRATIC_SCALE * (2.0 * np.pi * self.radial_integral + np.pi * self.axial_integral)

    @property
    def min_swirl_value(self) -> float:
        return -QUADRATIC_SCALE * (2.0 * np.pi * self.swirl_integral + np.pi * self.axial_integral)

    @property
    def margin(self) -> float:
        return self.min_linear_value - self.min_swirl_value

    @property
    def exact_order(self) -> int:
        """Lowest cylinder rule order integrating the closed-form fields'
        energy and work integrands exactly.

        In (x, y), |E|^2 has degree 4 deg p and the planar work f . u degree
        deg phi + 2 deg p; in z, w'^2 has degree 2 deg w - 2 and the axial
        work deg psi + deg w.
        """
        dp, dw = self.planar.degree(), self.axial.degree()
        return exact_order(max(4 * dp, self.phi.degree() + 2 * dp, 2 * dw - 2,
                               self.psi.degree() + dw))

    @property
    def min_incompressible_lower(self) -> float:
        """-4 * integral of |dev E(u0)|^2, a proven lower bound of the
        divergence-free linear minimum (module docstring), in closed form.

        With E(u0) = diag(eta', eta / r, w'), (tr E)^2 - |E|^2 integrates over
        the unit cylinder to 2 pi eta(1)^2 + 4 pi eta(1) (w(1) - w(0)), and
        |dev E|^2 = |E|^2 - (tr E)^2 / 3, where -4 * integral of |E|^2 is min_E.
        Admissible loads have eta(1) = p(1) = 0, up to round-off.
        """
        eta_1, rise = float(self.planar(1.0)), float(self.axial(1.0) - self.axial(0.0))
        return (2.0 * self.min_linear_value + 8.0 * np.pi * eta_1 * (eta_1 + 2.0 * rise)) / 3.0

    def min_rotated_value(self, theta: float) -> float:
        c, s = np.cos(theta), np.sin(theta)
        return c * c * self.min_linear_value + s * s * self.min_swirl_value


def explicit_minimizers(spec: LoadSpec) -> ExplicitSolution:
    """Closed-form per-rotation minimizers for a unit-cylinder profile load."""
    if spec.domain.kind != "cylinder" or spec.builtin is not None:
        raise LoadError("explicit minimizers exist only for cylinder profile loads")
    if spec.domain.radius != 1.0 or spec.domain.height != 1.0:
        raise LoadError("explicit minimizers assume the unit cylinder")
    if spec.has_surface_term:
        raise LoadError("explicit minimizers assume no surface pressure (its work "
                        "shifts the minima away from the profile closed forms)")
    eta = radial_displacement_profile(spec.phi)
    try:
        planar = planar_profile(eta)
    except ValueError as err:  # odd powers of r in phi: eta(r)/r is not a polynomial in r^2
        raise LoadError(f"explicit minimizers need an odd radial profile: {err}")
    axial = axial_displacement_profile(spec.psi)
    return ExplicitSolution(
        phi=spec.phi,
        psi=spec.psi,
        planar=planar,
        axial=axial,
        radial_integral=radial_strain_integral(eta),
        swirl_integral=swirl_strain_integral(eta),
        axial_integral=axial_strain_integral(axial),
    )


def verify_explicit(spec: LoadSpec) -> dict[str, float]:
    """Residuals of the closed-form solution against its defining equations.

    Each residual leaf is a polynomial on [0, 1], in r or in z, reported as
    the sum of its coefficients' magnitudes, a proven bound of its maximum
    (``profiles.coefficient_bound``).  They are read off the field u0 every
    other check uses, through its radial profile eta(r) = r p(r^2):

    * ode_residual: r^2 eta'' + r eta' - eta + r^2 phi' / 8;
    * biharmonic_residual: 8 Lap^2 Phi + Lap phi, with Phi' = eta;
    * euler_lagrange_interior: -8 div E(u0) - f is -(8 / r^2) times the ODE
      residual along e_r, a polynomial since eta is odd and r^2 phi' has no
      term below r^2, and -8 w'' - psi along e_z; the larger of the two bounds;
    * boundary_traction: E(u0) = diag(eta', eta / r, w') in (e_r, e_theta,
      e_z) has no shear, so the traction E n is eta'(1) e_r on the wall and
      w'(0), w'(1) times e_z on the caps, exactly.

    The orthogonality leaves are integrals, exact on the volume rule of the
    solution's exact order.
    """
    sol = explicit_minimizers(spec)
    eta = Polynomial([0.0, 1.0]) * sol.planar(Polynomial([0.0, 0.0, 1.0]))  # r p(r^2)
    ode = radial_ode_residual(eta, spec.phi)
    out = {
        "ode_residual": coefficient_bound(ode),
        "eta_at_0": abs(float(eta(0.0))),
        "eta_slope_at_1": abs(float(eta.deriv()(1.0))),
        "axial_slope_at_0": abs(float(sol.axial.deriv()(0.0))),
        "axial_slope_at_1": abs(float(sol.axial.deriv()(1.0))),
        "biharmonic_residual": coefficient_bound(biharmonic_residual(eta, spec.phi)),
    }
    # the r^0 and r^1 coefficients of the ODE residual are exact zeros, so
    # dividing it by r^2 drops them
    out["euler_lagrange_interior"] = max(coefficient_bound(8.0 * ode[2:]),
                                         coefficient_bound(-8.0 * sol.axial.deriv(2) - spec.psi))
    out["boundary_traction"] = max(out["eta_slope_at_1"], out["axial_slope_at_0"],
                                   out["axial_slope_at_1"])
    vol = volume_quadrature(spec.domain, sol.exact_order)
    (term, (_, G0), (_, dw)), = _on_factors(sol.u0, vol)  # the cylinder's one term
    (px, py, pw), (_, zw) = term
    # the two minimizers share the same axial strain, so the full contraction
    # equals the axial energy pi * integral w'^2; the orthogonality that the
    # value decomposition rests on is that of the differing planar parts
    def planar_dot(G):  # integral of E_P(u0) : E_P(u) from u's gradient block
        return np.sum(zw) * float(pw @ np.einsum("nij,nij->n", strain(G0), strain(G)))

    out["strain_orthogonality_full"] = abs(planar_dot(sol.u_swirl.planar(px, py)[1])
                                           + np.sum(pw) * float(zw @ (dw * dw)))
    swirl = StructuredField(0.0, 2.0, sol.planar, sol.axial)
    out["strain_orthogonality"] = abs(planar_dot(swirl.planar(px, py)[1]))
    out["axial_overlap"] = np.pi * axial_strain_integral(sol.axial)
    return out


# ---------------------------------------------------------------------------
# quadrature evaluation of the energies at explicit fields, factor by factor


def quadratic_energy(field: StructuredField, rules: LoadRules) -> float:
    """4 * integral of |E(u)|^2, on the volume rule's factors."""
    return _energy(_on_factors(field, rules.volume))


def rotated_energy_value(spec, field: StructuredField, theta: float, rules: LoadRules) -> float:
    """Energy 4|E|^2 - L(R_theta u) of a structured field, by quadrature: the
    work <R_theta, Y> on the rule's factors.  LoadError when the work is not
    finite."""
    factors = _on_factors(field, rules.volume)
    Y = _work_moment(spec, factors)
    if not np.all(np.isfinite(Y)):
        raise LoadError("field evaluation produced non-finite values")
    return _energy(factors) - float(np.sum(rotation_about_z(theta) * Y))


# ---------------------------------------------------------------------------
# Galerkin minimization of the linear and limit energies


def _system_for(spec, degree: int) -> StiffnessSystem:
    return assemble(build_space("full", degree, spec.domain), spec)


def min_linear(spec: LoadSpec, degree: int = DEFAULT_DEGREE) -> SolveResult:
    """Galerkin minimum of the linear energy over the full polynomial space.

    The linear energy is bounded below when the loads have a null resultant
    and a null momentum, which ``solve_quadratic`` checks against the exact
    rigid rows (SolverError otherwise); a positive spin-form eigenvalue, the
    rest of an ``incompatible`` classification, leaves only the relaxed
    energy unbounded."""
    return solve_quadratic(_system_for(spec, degree))


def _quaternion_grid() -> np.ndarray:
    """Rotations of unit quaternions on a cube-face grid of the 3-sphere.

    Each point has one coordinate equal to 1 and the other three at the
    SO3_GRID cell midpoints of (-1, 1); q and -q give the same rotation, so
    the four faces with a +1 coordinate cover SO(3).
    """
    s = (np.arange(SO3_GRID) + 0.5) * (2.0 / SO3_GRID) - 1.0
    cube = np.stack(np.meshgrid(s, s, s, indexing="ij"), axis=-1).reshape(-1, 3)
    q = np.concatenate([np.insert(cube, k, 1.0, axis=1) for k in range(4)])
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
        2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
        2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(-1, 3, 3)


SO3_ROTATIONS = _quaternion_grid()
GENERATORS = skew_from_axis(np.eye(3))  # W_i: rotations about the coordinate axes
# vec(W_i W_j + W_j W_i), row 3 i + j
GENERATOR_PRODUCTS = (GENERATORS[:, None] @ GENERATORS[None]
                      + GENERATORS[None] @ GENERATORS[:, None]).reshape(9, 9)


def _rotation_values(Q: np.ndarray, rotations: np.ndarray) -> np.ndarray:
    """m(R) = -vec(R)' Q vec(R) / 2 for a stack of rotations (n, 3, 3)."""
    v = rotations.reshape(-1, 9)
    return -0.5 * ((v @ Q) * v).sum(1)


def _axis_minimum(Q: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Rotation about the unit axis minimizing m(R), in closed form.

    vec R_t = B' (1, sin t, cos t) with B = vec(I + W^2, W, -W^2), so m is a
    degree-2 trigonometric polynomial with coefficients in G = B Q B', and its
    stationary points are the unit roots of the quartic 4 z^2 dm/dt in
    z = e^{it}.  Of the roots (and t = 0, for a constant m) the smallest angle
    within round-off of the lowest value wins: a mirror pair of minima always
    resolves the same way.
    """
    W = skew_from_axis(axis)
    B = np.stack([np.eye(3) + W @ W, W, -(W @ W)]).reshape(3, 9)
    G = B @ Q @ B.T
    u = G[1, 1] - G[2, 2] + 2j * G[1, 2]
    v = 2.0 * (1j * G[0, 1] - G[0, 2])
    roots = np.roots([u, v, 0.0, -np.conj(v), -np.conj(u)])
    z = np.append(roots[roots != 0.0], 1.0)
    z = z / np.abs(z)
    z = z[np.argsort(np.angle(z))]
    candidates = (np.stack([np.ones(z.size), z.imag, z.real], axis=1) @ B).reshape(-1, 3, 3)
    values = _rotation_values(Q, candidates)
    tol = ROUNDOFF_TOL * float(np.abs(Q).sum())
    return candidates[np.flatnonzero(values <= values.min() + tol)[0]]


def _tangent_derivatives(Q: np.ndarray, R: np.ndarray,
                         G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient (n, 3) and Hessian (n, 3, 3) of t -> m(R exp(sum_i t_i W_i))
    at t = 0, for a stack R (n, 3, 3) with G = mat(Q vec R).

    d vec(R exp) = vec(R W_i) = V_i and d^2 = vec(R (W_i W_j + W_j W_i)) / 2,
    and <G, R M> = <A, M> with A = R' G, so g_i = -<A, W_i> and
    H_ij = -V_i' Q V_j - <A, W_i W_j + W_j W_i> / 2.
    """
    A = (np.swapaxes(R, -1, -2) @ G).reshape(-1, 9)
    V = (R[:, None] @ GENERATORS).reshape(-1, 3, 9)
    grad = -A @ GENERATORS.reshape(3, 9).T
    hess = -V @ Q @ np.swapaxes(V, -1, -2) - 0.5 * (A @ GENERATOR_PRODUCTS).reshape(-1, 3, 3)
    return grad, hess


def _search(Q: np.ndarray) -> np.ndarray:
    """Rotation of SO(3) minimizing m(R), where m is a quartic form in the
    unit quaternion and has no closed-form minimum.

    m is evaluated on every rotation of the quaternion grid, and the
    POLISH_STARTS lowest are refined together.  Each step computes, per
    start, the Procrustes step P = nearest_rotation(mat(Q vec R)) and the
    Newton step N = R exp(-|H|^+ g) in the exponential chart at R, shortened
    to NEWTON_MAX_STEP radians.  On a full-SO(3) kernel Q is positive
    semidefinite, so -m is convex and lies above its tangent plane at R,
    <mat(Q vec R), R' - R>; P maximizes that plane over SO(3) and therefore
    never raises m.  N is kept where m(N) < m(P) + tol, tol the round-off
    level of m, so no step raises m beyond round-off: near a minimum m(N)
    and m(P) tie within round-off and N converges faster, while a flat form
    (no loads) has N = R and must take P.  |H|^+ inverts the magnitudes of
    the Hessian's eigenvalues above NEWTON_RCOND of the largest; the
    minimizers can form a family, where H is singular.  The loop stops when P
    moves no entry of any start by more than ROUNDOFF_TOL, so every start
    ends at a fixed point of P, a stationary point of m, and the lowest is
    returned; SolverError if POLISH_MAX_STEPS steps do not get there.
    """
    tol = ROUNDOFF_TOL * float(np.abs(Q).sum())
    R = SO3_ROTATIONS[np.argsort(_rotation_values(Q, SO3_ROTATIONS), kind="stable")[:POLISH_STARTS]]
    for _ in range(POLISH_MAX_STEPS):
        G = (R.reshape(-1, 9) @ Q.T).reshape(-1, 3, 3)
        P = nearest_rotation(G)[0]
        if np.max(np.abs(P - R)) <= ROUNDOFF_TOL:
            return P[int(np.argmin(_rotation_values(Q, P)))]
        grad, hess = _tangent_derivatives(Q, R, G)
        lam, U = np.linalg.eigh(hess)
        size = np.abs(lam)
        inverse = np.divide(1.0, size, out=np.zeros_like(size),
                            where=size > NEWTON_RCOND * size.max(axis=1, keepdims=True))
        t = -(U @ (inverse * (grad[:, None] @ U)[:, 0])[..., None])[..., 0]
        length = np.linalg.norm(t, axis=1, keepdims=True)
        t *= NEWTON_MAX_STEP / np.maximum(length, NEWTON_MAX_STEP)
        N = R @ exp_so3(t)
        keep = _rotation_values(Q, N) < _rotation_values(Q, P) + tol
        R = np.where(keep[:, None, None], N, P)
    raise SolverError(f"the SO(3) kernel search reached no Procrustes fixed point "
                      f"in {POLISH_MAX_STEPS} steps")


def min_limit(
    spec: LoadSpec,
    degree: int = DEFAULT_DEGREE,
    report: KernelReport | None = None,
) -> SolveResult:
    """Minimum of the relaxed energy: a search of the rotation form over the
    rotation kernel, then one quadratic solve at the chosen rotation."""
    if report is None:
        report = compatibility_report(spec)
    if report.classification == INCOMPATIBLE:
        raise SolverError(
            "rotation kernel is incompatible (some rotation does positive "
            "work); the limit energy is unbounded below"
        )
    return _limit_solve(_system_for(spec, degree), report)


def _kernel_minimum(Q: np.ndarray, report: KernelReport) -> np.ndarray | None:
    """Rotation of the kernel minimizing m(R): None (the identity) on an
    identity-only kernel, the closed form about a kernel axis, the SO(3)
    search otherwise."""
    if report.classification == IDENTITY_ONLY:
        return None
    if report.classification == AXIS_SUBGROUP:
        return _axis_minimum(Q, report.axis)
    return _search(Q)


def _limit_solve(system: StiffnessSystem, report: KernelReport) -> SolveResult:
    """The relaxed minimum on an assembled system of compatible loads."""
    return solve_quadratic(system, R=_kernel_minimum(system.rotation_form, report))


# ---------------------------------------------------------------------------
# reports


def _kernel_angle(R: np.ndarray, kernel: KernelReport) -> float:
    """Angle of a relaxed minimizer R*: its signed angle about the kernel axis,
    or its rotation angle in [0, pi] on a full-SO(3) kernel."""
    if kernel.classification == AXIS_SUBGROUP:
        return best_axis_rotation(R, kernel.axis)[0]
    return rotation_angle(R)


@dataclass
class DecompositionRow:
    theta: float
    value: float
    predicted: float
    residual: float


@dataclass
class IncompressibleGap:
    min_EI_upper: float
    min_EI_lower: float
    min_GI_upper: float
    certified: bool
    degree: int


@dataclass
class GapReport:
    """On an axis kernel min_G is the closed-form relaxed minimum and margin
    the exact gap.  On a full-SO(3) kernel the closed form minimizes over the
    rotations about e_z alone, an upper bound ``min_G_axis_upper``, and
    margin_lower = min_E - galerkin_min_G bounds the gap from below (min_E is
    exact; a Galerkin value bounds the relaxed minimum from above).  The
    fields of the other kernel are None, and ``leaves`` leaves them out."""
    min_E: float
    optimal_theta: float
    classification: str
    galerkin_degree: int
    galerkin_min_E: float
    galerkin_min_G: float
    galerkin_rel_err_E: float
    incompressible: IncompressibleGap
    decomposition: list[DecompositionRow] = field(default_factory=list)
    min_G: float | None = None
    margin: float | None = None
    relative_margin: float | None = None
    galerkin_rel_err_G: float | None = None
    min_G_axis_upper: float | None = None
    margin_lower: float | None = None
    relative_margin_lower: float | None = None

    def leaves(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


DECOMPOSITION_THETAS = (-0.5 * np.pi, -0.25 * np.pi, 0.0, 0.25 * np.pi, 0.5 * np.pi)


def gap_report(
    spec: LoadSpec,
    degree: int = DEFAULT_DEGREE,
    order: int = 1,
    report: KernelReport | None = None,
) -> GapReport:
    """Certify the gap between the relaxed and the classical linear minima.

    Headline compressible numbers come from the closed-form minimizers via
    one-dimensional quadrature; the Galerkin solves are the independent
    cross-check, and on a full-SO(3) kernel the bound of the gap
    (``GapReport``).  The incompressible side reports the sandwich described
    in the module docstring.  The decomposition rows integrate with rules of
    order max(order, the closed-form solution's exact order).
    """
    kernel = compatibility_report(spec) if report is None else report
    if kernel.classification == INCOMPATIBLE:
        raise SolverError("gap report requires compatible loads")
    sol = explicit_minimizers(spec)
    rules = default_rules(spec, max(order, sol.exact_order))

    min_E = sol.min_linear_value
    min_G = sol.min_swirl_value
    if min_E == 0.0:
        raise LoadError("gap report needs a nonzero load; every minimum is 0")

    # one full system serves both compressible minima, and its restriction to
    # the divergence-free fields both incompressible ones
    system = _system_for(spec, degree)
    galerkin_E = solve_quadratic(system)
    limit_res = _limit_solve(system, kernel)
    restricted = divergence_free(system)
    del system

    rows = []
    for theta in DECOMPOSITION_THETAS:
        u_theta = sol.minimizer_field(theta)
        value = rotated_energy_value(spec, u_theta, theta, rules)
        predicted = sol.min_rotated_value(theta)
        rows.append(
            DecompositionRow(
                theta=float(theta),
                value=value,
                predicted=predicted,
                residual=abs(value - predicted),
            )
        )

    ei_lower, gi_upper = sol.min_incompressible_lower, _limit_solve(restricted, kernel).value
    inc = IncompressibleGap(min_EI_upper=solve_quadratic(restricted).value, min_EI_lower=ei_lower,
                            min_GI_upper=gi_upper, certified=bool(gi_upper < ei_lower),
                            degree=degree)
    if kernel.classification == FULL_SO3:
        margin = min_E - limit_res.value
        closed_forms = dict(min_G_axis_upper=min_G, margin_lower=margin,
                            relative_margin_lower=margin / abs(min_E))
    else:
        closed_forms = dict(min_G=min_G, margin=sol.margin, relative_margin=sol.margin / abs(min_E),
                            galerkin_rel_err_G=abs(limit_res.value - min_G) / abs(min_G))
    return GapReport(min_E=min_E, optimal_theta=_kernel_angle(limit_res.rotation, kernel),
                     classification=kernel.classification, galerkin_degree=degree,
                     galerkin_min_E=galerkin_E.value, galerkin_min_G=limit_res.value,
                     galerkin_rel_err_E=abs(galerkin_E.value - min_E) / abs(min_E),
                     incompressible=inc, decomposition=rows, **closed_forms)


@dataclass
class RotatedCheck:
    rotation_theta: float
    min_E_rotated: float
    min_G_rotated: float
    difference: float
    relative_difference: float
    kernel_unchanged: bool
    gap_at_identity: float


def rotated_no_gap_check(spec: LoadSpec, degree: int = DEFAULT_DEGREE,
                         report: KernelReport | None = None) -> RotatedCheck:
    """With the optimal kernel rotation R* folded into the loads, the relaxed
    and the classical linear minima agree; quantify the residual difference.

    R* is the relaxed minimizer of ``min_limit``: the closed-form minimum
    about a kernel axis, the SO(3) search on a full-SO(3) kernel.  The
    reported angle is R*'s signed angle about the kernel axis, or its
    rotation angle in [0, pi] on a full-SO(3) kernel.

    R* acts on moment data alone.  The folded loads v -> L(R* v) have the
    moments R*' T and R*' res (classified with the base report's tolerance)
    and the load vector b(R*): their linear minimum is the solve at R*.
    Their rotation form is L' Q L, L = R* (x) I, as vec(R* R') = L vec(R');
    its kernel minimum R', found like min_limit's, gives the solve at R* R'.
    """
    kernel = compatibility_report(spec) if report is None else report
    if kernel.classification not in (AXIS_SUBGROUP, FULL_SO3):
        raise SolverError("rotated check needs a nontrivial rotation kernel")
    system = _system_for(spec, degree)
    limit = _limit_solve(system, kernel)
    R_star = limit.rotation
    min_E_rot = limit.value
    if min_E_rot == 0.0:
        raise SolverError("the basis does no work against the rotated loads (linear "
                          "minimum 0); no relative difference exists")

    kernel_rot = classify_moments(R_star.T @ kernel.moments, R_star.T @ kernel.resultant,
                                  tol=kernel.tol)
    unchanged = kernel_rot.classification == kernel.classification
    if unchanged and kernel.classification == AXIS_SUBGROUP:
        unchanged = bool(np.allclose(kernel_rot.axis, kernel.axis, atol=1e-8))
    L = np.kron(R_star, np.eye(3))
    R_rot = _kernel_minimum(L.T @ system.rotation_form @ L, kernel_rot)
    min_G_rot = solve_quadratic(system, R=R_star if R_rot is None else R_star @ R_rot).value

    identity_gap = solve_quadratic(system).value - min_G_rot
    diff = abs(min_G_rot - min_E_rot)
    return RotatedCheck(
        rotation_theta=_kernel_angle(R_star, kernel),
        min_E_rotated=min_E_rot,
        min_G_rotated=min_G_rot,
        difference=diff,
        relative_difference=diff / abs(min_E_rot),
        kernel_unchanged=unchanged,
        gap_at_identity=identity_gap,
    )


@dataclass
class NonuniquenessCheck:
    value_at_minimizer: float
    value_at_mirror: float
    relative_value_difference: float
    strain_distance: float
    strain_norm: float
    distinct: bool
    mirror_theta: float


def nonuniqueness_check(spec: LoadSpec, order: int = 1,
                        report: KernelReport | None = None) -> NonuniquenessCheck:
    """The planar sign flip of the swirl minimizer is again a minimizer but
    differs by more than an infinitesimal rigid displacement.  The rules have
    order max(order, the closed-form solution's exact order)."""
    kernel = compatibility_report(spec) if report is None else report
    if kernel.classification != AXIS_SUBGROUP:
        raise SolverError("nonuniqueness check needs the axis-subgroup kernel")
    sol = explicit_minimizers(spec)
    rules = default_rules(spec, max(order, sol.exact_order))
    u_star = sol.u_swirl
    u_hat = StructuredField(-u_star.a, -u_star.b, u_star.p, u_star.w)

    axis = kernel.axis

    def limit_value(fld) -> tuple[float, float, float]:
        factors = _on_factors(fld, rules.volume)
        Y, energy = _work_moment(spec, factors), _energy(factors)
        theta, R = best_axis_rotation(Y, axis)
        return energy - float(np.sum(R * Y)), theta, energy

    v_star, _, energy_star = limit_value(u_star)
    v_hat, theta_hat, _ = limit_value(u_hat)
    # the fields differ by the in-plane field of coefficients (-2a, -2b)
    difference = StructuredField(-2.0 * u_star.a, -2.0 * u_star.b, u_star.p, Polynomial([0.0]))
    norm_star = np.sqrt(energy_star / QUADRATIC_SCALE)
    norm_diff = np.sqrt(quadratic_energy(difference, rules) / QUADRATIC_SCALE)
    rel = abs(v_hat - v_star) / abs(v_star)
    return NonuniquenessCheck(
        value_at_minimizer=v_star,
        value_at_mirror=v_hat,
        relative_value_difference=rel,
        strain_distance=norm_diff,
        strain_norm=norm_star,
        distinct=bool(norm_diff > 0.1 * norm_star),
        mirror_theta=theta_hat,
    )
