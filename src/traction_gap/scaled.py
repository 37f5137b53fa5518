"""Finite-strain energy at thickness h, its alternating descent minimization,
and the h -> 0 convergence study.

A deformation ansatz is y(x) = R (x + h u(x)) with R a rotation and u a
field in a Galerkin space; frame indifference turns the scaled energy into

    value(u, R) = h^-2 * integral |C(h grad u)|^2  -  L(R u)  -  h^-1 L((R - I) x),

with C(D) = D + D^T + D^T D the Green strain of ``energy`` (W(I + D) = |C(D)|^2).
On the ansatz spaces grad u is a 2x2 planar block G(x, y) plus one axial
entry w'(z), so C is block diagonal, and on the cylinder's tensor rule
(weights w_p w_z, totals W_p, W_z) the energy splits as

    integral |C(h grad u)|^2 = W_z sum_p w_p |C(h G)|^2 + W_p sum_z w_z |C(h w' e_z e_z')|^2;

the stress and the coefficient gradient split the same way.  So the fields
are kept as the blocks themselves, (N_P, 2, 2) planar and (N_z, 1, 1)
axial, and the one density and stress kernel of ``energy`` runs on each.
The u-descent uses the analytic stress.  The fields and the work are linear
in the coefficients, so each descent iteration forms the fields of its
direction once, and an Armijo trial costs an axpy of fields plus the density
kernel.  The rotation subproblem maximizes the work <R, Y(u)> with
Y(u) = sum_k c_k T_k + T / h, which is linear in R, so its exact solution
is the special orthogonal Procrustes rotation of Y(u).
Descent only certifies upper bounds of the finite-h infima, which is the
side the limit comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import ksv_density_sum, ksv_weighted_stress, strain, sym_norm_sq_sum
from .galerkin import GalerkinSpace, SolverError, assemble, build_space
from .geometry import QuadratureRule, exact_order, volume_quadrature
from .limits import ExplicitSolution, explicit_minimizers
from .loads import (
    AXIS_SUBGROUP,
    FULL_SO3,
    INCOMPATIBLE,
    KernelReport,
    LoadError,
    LoadSpec,
    compatibility_report,
    force_degree,
    placement_moments,
)
from .rotations import distance_to_axis_rotations, exp_so3, nearest_rotation

COEFF_GRAD_TOL = 1e-8
COEFF_MAX_ITERS = 5000
ARMIJO_SHRINK = 0.5
ARMIJO_SLOPE = 1e-4
ALTERNATION_TOL = 1e-10
ALTERNATION_MAX_ROUNDS = 60
DIVERGENCE_FLOOR = -1e12


@dataclass
class NonlinearContext:
    """What the descent reads of a load and an ansatz space, and nothing
    else: on one tensor rule, the gradients of the planar rows on the rule's
    planar factor, the slopes of the axial rows on its axial factor and both
    factors' weights; from the space's assembly, on its own exact rule, the
    load moments and the metric; and the closed-form placement moment.
    The rows' values, which only the projection of the limit start reads,
    are handed to it by ``nonlinear_context`` and not kept.

    ``metric`` is the pseudo-inverse of the limit stiffness, zero on its
    kernel: rigid directions are flat (quartic in h) for the finite-strain
    energy and belong to the rotation update, so the coefficient descent
    never moves along them.  Taking descent directions in this metric keeps
    the backtracked steps Newton-like for small h, where plain Euclidean
    descent stalls on the stiff ansatz bases.
    """

    space: GalerkinSpace
    rule: QuadratureRule
    planar_grads: np.ndarray  # (K_P, N_P*4) 2x2 gradients of the planar rows, flattened
    axial_slopes: np.ndarray  # (K_A, N_z) w_k'(z) of the axial rows
    planar_weights: np.ndarray  # (N_P,) planar weights times the axial total
    axial_weights: np.ndarray  # (N_z,) axial weights times the planar total
    load_moments: np.ndarray  # (K, 3, 3): L(R b_k) = <R, T_k>
    placement_moment: np.ndarray  # (3, 3): L((R - I) x) = <R - I, T>
    metric: np.ndarray  # (K, K) preconditioner, embedded once from the blocks of A^+ (K <= 71)

    def factor_fields(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The displacement gradient's planar block (N_P, 2, 2) and axial
        block (N_z, 1, 1); grad u is zero off these blocks."""
        K_P = self.planar_grads.shape[0]
        return ((coeffs[:K_P] @ self.planar_grads).reshape(-1, 2, 2),
                (coeffs[K_P:] @ self.axial_slopes).reshape(-1, 1, 1))

    def work_moment(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("k,kij->ij", coeffs, self.load_moments)

    def load_vector(self, R: np.ndarray) -> np.ndarray:
        return np.einsum("kij,ij->k", self.load_moments, R)


def nonlinear_context(
    spec: LoadSpec, space: GalerkinSpace
) -> tuple[NonlinearContext, tuple[np.ndarray, np.ndarray]]:
    """Context of an ``ansatz_k`` space on the cylinder's rule, and the
    values of its planar (K_P, N_P, 2) and axial (K_A, N_z) rows for
    ``_limit_start``; ValueError for other spaces, whose gradients do not
    split by factor.  The rule is exact for |C(h G)|^2, of degree 4(f - 1)
    for fields of degree f, and for projecting the closed-form start onto
    the space; that start has the forces' degree + 2 (equilibrium is of
    order 2).  The space is assembled on its own, lower exact rule
    (``assemble``'s default) before it is tabulated on this one, so the
    assembly's temporaries are gone when the tables are built.  The
    placement moment T is ``loads.placement_moments``'s closed form, so the
    descent's T / h carries no round-off."""
    system = assemble(space, spec)
    f = space.field_degree
    rule = volume_quadrature(spec.domain,
                             exact_order(max(4 * (f - 1), 2 * f, force_degree(spec) + 2 + f)))
    ((_, _, pw), (_, zw)), = rule.terms  # the cylinder's rule is one tensor term
    (pv, pg), (av, ag) = space.factor_tables(rule)
    return NonlinearContext(
        space=space,
        rule=rule,
        planar_grads=pg.reshape(pg.shape[0], -1),
        axial_slopes=ag,
        planar_weights=pw * np.sum(zw),
        axial_weights=zw * np.sum(pw),
        load_moments=system.load_moments,
        placement_moment=placement_moments(spec)[0],
        metric=system.embed(system.pinv),
    ), (pv, av)


def _elastic_energy(fields: tuple[np.ndarray, np.ndarray], h: float,
                    ctx: NonlinearContext) -> float:
    """h^-2 times the integral of |C(D)|^2 at the blocks D = h G of ``factor_fields``."""
    Dp, Dz = fields
    return (ksv_density_sum(Dp, ctx.planar_weights)
            + ksv_density_sum(Dz, ctx.axial_weights)) / (h * h)


def scaled_energy(c: np.ndarray, R: np.ndarray, h: float, ctx: NonlinearContext) -> float:
    """Value of the scaled energy at coefficients c, rotation R and thickness h
    (quadrature over the context's rule)."""
    value = _elastic_energy(ctx.factor_fields(h * c), h, ctx)
    value -= float(np.sum(R * ctx.work_moment(c)))
    value -= float(np.sum((R - np.eye(3)) * ctx.placement_moment)) / h
    return value


def _coeff_gradient(fields: tuple[np.ndarray, np.ndarray], load: np.ndarray, h: float,
                    ctx: NonlinearContext) -> np.ndarray:
    """Gradient in the coefficients at the blocks D = h G of ``factor_fields``,
    with ``load`` the load vector of the rotation."""
    Dp, Dz = fields
    Pp = ksv_weighted_stress(Dp, ctx.planar_weights)
    Pz = ksv_weighted_stress(Dz, ctx.axial_weights)
    g = np.concatenate([ctx.planar_grads @ Pp.ravel(), ctx.axial_slopes @ Pz.ravel()])
    return g / h - load


def _descend_coefficients(
    c: np.ndarray, R: np.ndarray, h: float, ctx: NonlinearContext
) -> tuple[np.ndarray, float, str, int, int]:
    """Armijo-backtracked gradient descent in the coefficient vector.

    The fields h G(c) are formed from c on entry and carried with it: each
    iteration forms the fields h G(d) and the work <d, b(R)> of its direction
    d once, and the trial c - s d has the fields h G(c) - s h G(d) and the
    work <c, b(R)> - s <d, b(R)>.

    Returns the coefficients, their value, why the descent stopped:
    "converged" (metric gradient norm below COEFF_GRAD_TOL),
    "line_search_failed" (no step passed the Armijo test) or "max_iters",
    and the numbers of accepted steps and of rejected Armijo trials.
    """
    load = ctx.load_vector(R)
    placement = float(np.sum((R - np.eye(3)) * ctx.placement_moment)) / h
    fields = ctx.factor_fields(h * c)
    trial = tuple(np.empty_like(D) for D in fields)
    work = float(c @ load)
    value = _elastic_energy(fields, h, ctx) - work - placement
    backtracks = 0
    for steps in range(COEFF_MAX_ITERS):
        g = _coeff_gradient(fields, load, h, ctx)
        d = ctx.metric @ g  # descent direction in the limit-stiffness metric
        slope = float(g @ d)
        if float(np.sqrt(max(slope, 0.0))) < COEFF_GRAD_TOL:
            return c, value, "converged", steps, backtracks
        direction = ctx.factor_fields(h * d)
        d_work = float(d @ load)
        step = 1.0
        while step > 1e-16:
            for T, D, S in zip(trial, fields, direction):
                np.multiply(S, -step, out=T)
                T += D
            v_trial = _elastic_energy(trial, h, ctx) - (work - step * d_work) - placement
            if v_trial <= value - ARMIJO_SLOPE * step * slope:
                c, value, work = c - step * d, v_trial, work - step * d_work
                fields, trial = trial, fields
                break
            backtracks += 1
            step *= ARMIJO_SHRINK
        else:
            return c, value, "line_search_failed", steps, backtracks
        if value < DIVERGENCE_FLOOR:
            raise SolverError(
                "scaled energy diverged below the admissible floor; the loads "
                "look incompatible"
            )
    return c, value, "max_iters", COEFF_MAX_ITERS, backtracks


@dataclass
class NonlinearResult:
    coefficients: np.ndarray
    rotation: np.ndarray
    value: float
    rounds: int
    status: str
    steps: int  # accepted coefficient-descent steps over all rounds
    backtracks: int  # rejected Armijo trials over all rounds
    descent_stops: list[str]  # each round's coefficient-descent stop reason


def minimize_scaled(
    spec: LoadSpec,
    coeffs: np.ndarray,
    R: np.ndarray,
    h: float,
    ctx: NonlinearContext,
    report: KernelReport | None = None,
) -> NonlinearResult:
    """Alternating (coefficients, rotation) descent of the scaled energy.

    Each round descends in the coefficients and then sets the rotation to
    the exact maximizer of the work.  The status is "converged" when a round
    no longer lowers the value by ALTERNATION_TOL (both steps are descents,
    so a round can raise it only by round-off) and "max_rounds" past
    ALTERNATION_MAX_ROUNDS; "converged" is replaced by the last coefficient
    descent's stop reason when that descent did not meet COEFF_GRAD_TOL.
    """
    if report is None:
        report = compatibility_report(spec)
    if report.classification == INCOMPATIBLE:
        raise SolverError(
            "loads do positive work on some rotation; the scaled energies "
            "are unbounded below as h -> 0"
        )
    c = coeffs.copy()
    value = scaled_energy(c, R, h, ctx)
    status = "max_rounds"
    steps = backtracks = 0
    descent_stops = []
    for rounds in range(1, ALTERNATION_MAX_ROUNDS + 1):
        c, _, descent, round_steps, round_backtracks = _descend_coefficients(c, R, h, ctx)
        steps += round_steps
        backtracks += round_backtracks
        descent_stops.append(descent)
        R, _ = nearest_rotation(ctx.work_moment(c) + ctx.placement_moment / h)
        v_after = scaled_energy(c, R, h, ctx)
        decrease = value - v_after
        value = v_after
        if decrease < ALTERNATION_TOL:
            status = "converged"
            break
    if status != "max_rounds" and descent != "converged":
        status = descent
    return NonlinearResult(coefficients=c, rotation=R, value=value, rounds=rounds, status=status,
                           steps=steps, backtracks=backtracks, descent_stops=descent_stops)


@dataclass
class ConvergenceRow:
    """One row of the h -> 0 study.  ``gap_to_limit`` is the signed
    difference value - limit, so a row below the limit shows a negative
    sign.  It is resolved to about 1e-15 absolute, where the descent stops
    (COEFF_GRAD_TOL): on the thin-film config (degree 5) at h = 5e-4,
    gap_to_limit / h^2 is 1.15898e-4 to 1.15900e-4 at the context's rule
    order plus 0, 2, 4 and 7.  That needs the placement moment T exact: the
    descent divides it by h."""

    h: float
    value: float
    gap_to_limit: float
    rotation_distance: float
    strain_rescaled: float
    status: str


def rescaled_strain_norm(c: np.ndarray, R: np.ndarray, h: float, ctx: NonlinearContext) -> float:
    """L^2 norm of the strain of v = (y - x)/h, which blows up off identity.

    grad v = A + B with A = (R - I)/h + R G_p planar and B = R G_z axial, so
    the integral of |sym grad v|^2 is the planar sum of |sym A|^2, the axial
    sum of |sym B|^2 and twice the product of their weighted integrals.
    """
    Gp, Gz = ctx.factor_fields(c)
    A = np.repeat(((R - np.eye(3)) / h)[None], len(Gp), axis=0)
    A[:, :, :2] += R[:, :2] @ Gp
    B = np.zeros((len(Gz), 3, 3))
    B[:, :, 2:] = R[:, 2:] @ Gz
    ((_, _, pw), (_, zw)), = ctx.rule.terms
    cross = np.sum(strain(np.tensordot(pw, A, 1)) * strain(np.tensordot(zw, B, 1)))
    return float(np.sqrt(sym_norm_sq_sum(A, ctx.planar_weights)
                         + sym_norm_sq_sum(B, ctx.axial_weights) + 2.0 * cross))


def _kernel_distance(R: np.ndarray, report) -> float:
    if report.classification == AXIS_SUBGROUP:
        return distance_to_axis_rotations(R, report.axis)
    return float(np.linalg.norm(R - np.eye(3)))


def _limit_start(sol: ExplicitSolution, ctx: NonlinearContext, planar_values: np.ndarray,
                 axial_values: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Limit minimizer projected on the space, its rotation, and its value.

    Planar rows have no z component and axial rows only one, so the L^2
    Gram matrix of the space is block diagonal, one block per factor, and
    each block is solved alone.  The swirl minimizer is a planar field plus
    w(z) e_z, so on the tensor rule each block's right-hand side needs the
    field only at the N_P planar and the N_z axial nodes.
    """
    ((px, py, _), (z, _)), = ctx.rule.terms
    u = sol.u_swirl
    V, a = planar_values, axial_values
    planar = u.planar(px, py)[0]
    Vw = (V * ctx.planar_weights[:, None]).reshape(len(V), -1)
    coeffs = np.concatenate([
        np.linalg.solve(Vw @ V.reshape(len(V), -1).T, Vw @ planar.ravel()),
        np.linalg.solve((a * ctx.axial_weights) @ a.T, a @ (u.w(z) * ctx.axial_weights)),
    ])
    R = exp_so3(np.array([0.0, 0.0, 0.5 * np.pi]))  # the swirl-optimal rotation
    return coeffs, R, sol.min_swirl_value


def convergence_study(
    spec: LoadSpec,
    h_schedule: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02),
    degree: int = 4,
    report: KernelReport | None = None,
    work: list | None = None,
) -> list[ConvergenceRow]:
    """Quasi-minimize the scaled energy down a decreasing h schedule.

    The working space is the structured ansatz with planar potential degree
    2 * degree (a total-degree-`degree` space cannot represent the limit
    minimizer and would cap the achievable gap); each row warm-starts from
    the previous one, the first from the projected limit minimizer.  Given a
    list as ``work``, one dict per row is appended to it: the row's h and
    status and, unless the row failed, its alternation rounds, accepted
    descent steps, rejected Armijo trials and each round's descent stop reason.
    """
    hs = tuple(h_schedule)
    if not hs or not all(0.0 < h < 1.0 for h in hs) or any(b >= a for a, b in zip(hs, hs[1:])):
        raise ValueError("h schedule must be nonempty and strictly decreasing in (0, 1)")
    report = compatibility_report(spec) if report is None else report
    if report.classification == INCOMPATIBLE:
        raise SolverError("convergence study requires compatible loads")
    if report.classification == FULL_SO3:
        raise LoadError("convergence study starts from and compares with the swirl minimum "
                        "about the z axis, which is not the relaxed minimum on a full-SO(3) "
                        "kernel")
    sol = explicit_minimizers(spec)  # LoadError off the unit cylinder, before the ansatz space
    space = build_space("ansatz_k", 2 * degree, spec.domain, degree1d=degree)
    ctx, values = nonlinear_context(spec, space)
    coeffs, R, limit_value = _limit_start(sol, ctx, *values)
    rows: list[ConvergenceRow] = []
    for h in hs:
        try:
            res = minimize_scaled(spec, coeffs, R, h, ctx, report=report)
        except SolverError as err:
            rows.append(
                ConvergenceRow(
                    h=h, value=np.nan, gap_to_limit=np.nan,
                    rotation_distance=np.nan, strain_rescaled=np.nan,
                    status=f"error: {err}",
                )
            )
            if work is not None:
                work.append({"h": h, "status": rows[-1].status})
            continue
        if work is not None:
            work.append({"h": h, "status": res.status, "rounds": res.rounds, "steps": res.steps,
                         "backtracks": res.backtracks, "descent_stops": res.descent_stops})
        coeffs, R = res.coefficients, res.rotation
        rows.append(
            ConvergenceRow(
                h=h,
                value=res.value,
                gap_to_limit=res.value - limit_value,
                rotation_distance=_kernel_distance(R, report),
                strain_rescaled=rescaled_strain_norm(coeffs, R, h, ctx),
                status=res.status,
            )
        )
    return rows
