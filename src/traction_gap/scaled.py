"""Finite-strain energy at thickness h, its alternating descent minimization,
the best-fit rotation of a deformation, and the h -> 0 convergence study.

A deformation ansatz is y(x) = R (x + h u(x)) with R a rotation and u a
field in a Galerkin space; frame indifference turns the scaled energy into

    value(u, R) = h^-2 * integral W(I + h grad u)  -  L(R u)  -  h^-1 L((R - I) x),

with an optional determinant penalty  h^-2 kappa (det(I + h grad u) - 1)^2
standing in for exact incompressibility.  The u-descent uses the analytic
stress; the rotation subproblem is linear in R and is driven uphill by a
local tangent ascent with backtracking.  Descent only certifies upper
bounds of the finite-h infima, which is the side the limit comparison
needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as kernels
from .galerkin import GalerkinSpace, SolverError, assemble, build_space
from .geometry import QuadratureRule
from .limits import explicit_minimizers
from .loads import (
    AXIS_SUBGROUP,
    FULL_SO3,
    INCOMPATIBLE,
    LoadSpec,
    compatibility_report,
    default_rules,
    moment_matrix,
)
from .rotations import (
    coercivity_profile,
    distance_to_axis_rotations,
    exp_so3,
    nearest_rotation,
    skew_from_axis,
)

COEFF_GRAD_TOL = 1e-8
COEFF_MAX_ITERS = 5000
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
ALTERNATION_TOL = 1e-10
ALTERNATION_MAX_ROUNDS = 60
DIVERGENCE_FLOOR = -1e12

_GENERATORS = [skew_from_axis(np.eye(3)[i]) for i in range(3)]


@dataclass
class DeformationAnsatz:
    space: GalerkinSpace
    coeffs: np.ndarray
    rotation: np.ndarray
    h: float

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise ValueError("h must lie in (0, 1)")


@dataclass
class NonlinearContext:
    """Precomputed tables tying a load and a Galerkin space to one rule.

    ``metric`` is the pseudo-inverse of the limit stiffness, zero on its
    kernel: rigid directions are flat (quartic in h) for the finite-strain
    energy and belong to the rotation update, so the coefficient descent
    never moves along them.  Taking descent directions in this metric keeps
    the backtracked steps Newton-like for small h, where plain Euclidean
    descent stalls on the stiff ansatz bases.
    """

    spec: LoadSpec
    space: GalerkinSpace
    rule: QuadratureRule
    values: np.ndarray  # (K, N, 3) basis values at the rule's nodes
    grads_flat: np.ndarray  # (K, N*9)
    weights: np.ndarray
    load_moments: np.ndarray  # (K, 3, 3): L(R b_k) = <R, T_k>
    placement_moment: np.ndarray  # (3, 3): L((R - I) x) = <R - I, T>
    metric: np.ndarray  # (K, K) preconditioner

    @property
    def dim(self) -> int:
        return self.grads_flat.shape[0]

    def gradient_field(self, coeffs: np.ndarray) -> np.ndarray:
        N = self.weights.size
        return (coeffs @ self.grads_flat).reshape(N, 3, 3)

    def work_moment(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("k,kij->ij", coeffs, self.load_moments)

    def load_vector(self, R: np.ndarray) -> np.ndarray:
        return np.einsum("kij,ij->k", self.load_moments, R)


def nonlinear_context(
    spec: LoadSpec, space: GalerkinSpace, order: int | None = None
) -> NonlinearContext:
    if order is None:
        order = space.recommended_order(nonlinear=True)
    rules = default_rules(spec, order)
    system = assemble(space, spec, rules=rules)
    vals, grads = space.tables(rules.volume)
    return NonlinearContext(
        spec=spec,
        space=space,
        rule=rules.volume,
        values=vals,
        grads_flat=np.ascontiguousarray(grads.reshape(space.dim, -1)),
        weights=np.ascontiguousarray(rules.volume.weights),
        load_moments=system.load_moments,
        placement_moment=moment_matrix(spec, rules),
        metric=system.pinv,
    )


def scaled_energy(
    ansatz: DeformationAnsatz,
    ctx: NonlinearContext,
    penalty: float | None = None,
) -> float:
    """Value of the scaled energy at the ansatz (quadrature over the rule)."""
    h, R, c = ansatz.h, ansatz.rotation, ansatz.coeffs
    F = np.eye(3) + h * ctx.gradient_field(c)
    F = np.ascontiguousarray(F)
    value = kernels.ksv_density_sum(F, ctx.weights) / (h * h)
    value -= float(np.sum(R * ctx.work_moment(c)))
    value -= float(np.sum((R - np.eye(3)) * ctx.placement_moment)) / h
    if penalty:
        value += penalty * kernels.det_penalty_sum(F, ctx.weights) / (h * h)
    return value


def _coeff_gradient(
    c: np.ndarray, R: np.ndarray, h: float, ctx: NonlinearContext, penalty: float | None
) -> np.ndarray:
    F = np.ascontiguousarray(np.eye(3) + h * ctx.gradient_field(c))
    P = kernels.ksv_weighted_stress(F, ctx.weights)
    g = (ctx.grads_flat @ P.ravel()) / h - ctx.load_vector(R)
    if penalty:
        Pp = kernels.det_penalty_weighted_stress(F, ctx.weights)
        g += penalty * (ctx.grads_flat @ Pp.ravel()) / h
    return g


def _descend_coefficients(
    ansatz: DeformationAnsatz, ctx: NonlinearContext, penalty: float | None
) -> tuple[np.ndarray, float, float, int]:
    """Armijo-backtracked gradient descent in the coefficient vector."""
    c = ansatz.coeffs.copy()
    h, R = ansatz.h, ansatz.rotation
    value = scaled_energy(DeformationAnsatz(ansatz.space, c, R, h), ctx, penalty)
    it = 0
    gnorm = np.inf
    while it < COEFF_MAX_ITERS:
        g = _coeff_gradient(c, R, h, ctx, penalty)
        d = ctx.metric @ g  # descent direction in the limit-stiffness metric
        slope = float(g @ d)
        gnorm = float(np.sqrt(max(slope, 0.0)))
        if gnorm < COEFF_GRAD_TOL:
            break
        step = 1.0
        accepted = False
        while step > 1e-16:
            trial = c - step * d
            v_trial = scaled_energy(
                DeformationAnsatz(ansatz.space, trial, R, h), ctx, penalty
            )
            if v_trial <= value - ARMIJO_SLOPE * step * slope:
                c, value = trial, v_trial
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            break
        if value < DIVERGENCE_FLOOR:
            raise SolverError(
                "scaled energy diverged below the admissible floor; the loads "
                "look incompatible"
            )
        it += 1
    return c, value, gnorm, it


def _ascend_rotation(
    c: np.ndarray, R: np.ndarray, h: float, ctx: NonlinearContext, max_iters: int = 100
) -> np.ndarray:
    """Local tangent ascent of the rotation work <R, Y> on SO(3)."""
    Y = ctx.work_moment(c) + ctx.placement_moment / h
    value = float(np.sum(R * Y))
    scale = max(1.0, abs(value))
    for _ in range(max_iters):
        grad = np.array([float(np.sum((R @ W) * Y)) for W in _GENERATORS])
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-12 * scale:
            break
        step = 1.0
        accepted = False
        while step > 1e-16:
            Rn = R @ exp_so3(step * grad)
            vn = float(np.sum(Rn * Y))
            if vn >= value + ARMIJO_SLOPE * step * gnorm * gnorm:
                R, value = Rn, vn
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            break
    return R


@dataclass
class NonlinearResult:
    coefficients: np.ndarray
    rotation: np.ndarray
    h: float
    value: float
    gradient_norm: float
    rounds: int
    status: str


def minimize_scaled(
    spec: LoadSpec,
    h: float,
    init: DeformationAnsatz,
    penalty: float | None = None,
    ctx: NonlinearContext | None = None,
) -> NonlinearResult:
    """Alternating (coefficients, rotation) descent of the scaled energy."""
    report = compatibility_report(spec)
    if report.classification == INCOMPATIBLE:
        raise SolverError(
            "loads do positive work on some rotation; the scaled energies "
            "are unbounded below as h -> 0"
        )
    if ctx is None:
        ctx = nonlinear_context(spec, init.space)
    c, R = init.coeffs.copy(), init.rotation.copy()
    value = scaled_energy(DeformationAnsatz(init.space, c, R, h), ctx, penalty)
    status = "max_rounds"
    rounds = 0
    gnorm = np.inf
    for rounds in range(1, ALTERNATION_MAX_ROUNDS + 1):
        anz = DeformationAnsatz(init.space, c, R, h)
        c, _, gnorm, _ = _descend_coefficients(anz, ctx, penalty)
        R = _ascend_rotation(c, R, h, ctx)
        v_after = scaled_energy(DeformationAnsatz(init.space, c, R, h), ctx, penalty)
        decrease = value - v_after
        value = v_after
        if decrease < 0.0:
            status = "stationary"
            break
        if decrease < ALTERNATION_TOL:
            status = "converged"
            break
    return NonlinearResult(
        coefficients=c,
        rotation=R,
        h=h,
        value=value,
        gradient_norm=gnorm,
        rounds=rounds,
        status=status,
    )


def best_fit_rotation(gradients: np.ndarray, rule: QuadratureRule, p: float = 2.0,
                      max_iters: int = 200) -> np.ndarray:
    """Rotation minimizing the weighted coercivity profile of |grad y - R|.

    Initialized at the Procrustes projection of the mean deformation
    gradient, then refined by tangent descent with backtracking.
    """
    G = np.asarray(gradients, dtype=float)
    w = rule.weights
    mean = np.einsum("n,nij->ij", w, G) / float(np.sum(w))
    R, _ = nearest_rotation(mean)

    def objective(Rc: np.ndarray) -> float:
        d = np.linalg.norm(G - Rc, axis=(1, 2))
        return float(np.dot(w, coercivity_profile(d, p)))

    def profile_slope(t: np.ndarray) -> np.ndarray:
        return np.where(t <= 1.0, 2.0 * t, 2.0 * t ** (p - 1.0))

    value = objective(R)
    for _ in range(max_iters):
        D = G - R
        t = np.linalg.norm(D, axis=(1, 2))
        slope = profile_slope(t) / np.maximum(t, 1e-300)
        # d/ds objective(R exp(s W_i)) = -sum w slope <R W_i, D>
        M = np.einsum("n,nij->ij", w * slope, D)
        grad = np.array([-float(np.sum((R @ Wg) * M)) for Wg in _GENERATORS])
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-12 * max(1.0, abs(value)):
            break
        step = 1.0
        accepted = False
        while step > 1e-16:
            Rn = R @ exp_so3(-step * grad)
            vn = objective(Rn)
            if vn <= value - ARMIJO_SLOPE * step * gnorm * gnorm:
                R, value = Rn, vn
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            break
    return R


@dataclass
class ConvergenceRow:
    h: float
    value: float
    gap_to_limit: float
    rotation_distance: float
    strain_rescaled: float
    status: str


def rescaled_strain_norm(ansatz: DeformationAnsatz, ctx: NonlinearContext) -> float:
    """L^2 norm of the strain of v = (y - x)/h, which blows up off identity."""
    h, R = ansatz.h, ansatz.rotation
    Gu = ctx.gradient_field(ansatz.coeffs)
    Gv = (R - np.eye(3))[None, :, :] / h + np.einsum("ij,njk->nik", R, Gu)
    Gv = np.ascontiguousarray(Gv)
    return float(np.sqrt(kernels.sym_norm_sq_sum(Gv, ctx.weights)))


def _kernel_distance(R: np.ndarray, report) -> float:
    if report.classification == FULL_SO3:
        return 0.0
    if report.classification == AXIS_SUBGROUP:
        return distance_to_axis_rotations(R, report.axis)
    return float(np.linalg.norm(R - np.eye(3)))


def _limit_start(spec: LoadSpec, space: GalerkinSpace,
                 ctx: NonlinearContext) -> tuple[np.ndarray, np.ndarray, float]:
    """Limit minimizer projected on the space, its rotation, and its value."""
    sol = explicit_minimizers(spec)
    root_w = np.sqrt(ctx.rule.weights)[:, None]
    V = (ctx.values * root_w).reshape(space.dim, -1)  # (K, 3N) weighted basis values
    t = (sol.u_swirl.value(ctx.rule.points) * root_w).ravel()
    coeffs = np.linalg.lstsq(V @ V.T, V @ t, rcond=None)[0]
    R = exp_so3(np.array([0.0, 0.0, 0.5 * np.pi]))  # the swirl-optimal rotation
    return coeffs, R, sol.min_swirl_value


def convergence_study(
    spec: LoadSpec,
    h_schedule: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02),
    degree: int = 4,
    penalty: float | None = None,
) -> list[ConvergenceRow]:
    """Quasi-minimize the scaled energy down a decreasing h schedule.

    The working space is the structured ansatz with planar potential degree
    2 * degree (a total-degree-`degree` space cannot represent the limit
    minimizer and would cap the achievable gap); each row warm-starts from
    the previous one, the first from the projected limit minimizer.
    """
    hs = tuple(h_schedule)
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h schedule must be strictly decreasing")
    report = compatibility_report(spec)
    if report.classification == INCOMPATIBLE:
        raise SolverError("convergence study requires compatible loads")
    explicit_minimizers(spec)  # LoadError off the unit cylinder, before the ansatz space
    space = build_space("ansatz_k", 2 * degree, spec.domain, degree1d=degree)
    ctx = nonlinear_context(spec, space)
    coeffs, R, limit_value = _limit_start(spec, space, ctx)
    rows: list[ConvergenceRow] = []
    for h in hs:
        anz = DeformationAnsatz(space, coeffs, R, h)
        try:
            res = minimize_scaled(spec, h, anz, penalty=penalty, ctx=ctx)
        except SolverError as err:
            rows.append(
                ConvergenceRow(
                    h=h, value=np.nan, gap_to_limit=np.nan,
                    rotation_distance=np.nan, strain_rescaled=np.nan,
                    status=f"error: {err}",
                )
            )
            continue
        coeffs, R = res.coefficients, res.rotation
        final = DeformationAnsatz(space, coeffs, R, h)
        rows.append(
            ConvergenceRow(
                h=h,
                value=res.value,
                gap_to_limit=abs(res.value - limit_value),
                rotation_distance=_kernel_distance(R, report),
                strain_rescaled=rescaled_strain_norm(final, ctx),
                status=res.status,
            )
        )
    return rows
