import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import random_rotations
from traction_gap import scaled
from traction_gap.energy import ksv_density_sum, ksv_weighted_stress
from traction_gap.galerkin import GalerkinSpace, SolverError, build_space
from traction_gap.geometry import Domain, QuadratureRule, volume_quadrature
from traction_gap.limits import explicit_minimizers
from traction_gap.loads import LoadError, LoadSpec
from traction_gap.rotations import exp_so3, rotation_about_z
from traction_gap.scaled import (
    _limit_start,
    convergence_study,
    minimize_scaled,
    nonlinear_context,
    rescaled_strain_norm,
    scaled_energy,
)

CYL = Domain.cylinder()


@pytest.fixture(scope="module")
def preset_tables():
    spec = LoadSpec.cylinder_preset(beta=0.01)
    space = build_space("ansatz_k", 8, CYL, degree1d=4)
    ctx, values = nonlinear_context(spec, space)
    return spec, space, ctx, values


@pytest.fixture(scope="module")
def preset_ctx(preset_tables):
    return preset_tables[:3]


@pytest.fixture(scope="module")
def preset_start(preset_tables):
    """(coefficients, rotation, limit value) of the projected limit start."""
    spec, _, ctx, values = preset_tables
    return _limit_start(explicit_minimizers(spec), ctx, *values)


def test_zero_displacement_energies(preset_ctx):
    spec, space, ctx = preset_ctx
    zero = np.zeros(space.dim)
    assert scaled_energy(zero, np.eye(3), 0.1, ctx) == 0.0
    # kernel rotations cost nothing
    Rk = rotation_about_z(1.2)
    assert abs(scaled_energy(zero, Rk, 0.1, ctx)) < 1e-13
    # off-kernel rotations cost h^-1 * (-L((R - I) x)) > 0
    Rx = exp_so3(np.array([1.2, 0.0, 0.0]))
    val = scaled_energy(zero, Rx, 0.1, ctx)
    assert val > 1e-3


def test_reversed_witness_drives_energy_down():
    # compressive pressure: a pure rotation has energy -h^-1 L((R-I)x) -> -inf
    spec = LoadSpec(surface_pressure=-1.0)
    space = build_space("ansatz_k", 4, CYL, degree1d=2)
    ctx, _ = nonlinear_context(spec, space)
    zero = np.zeros(space.dim)
    R = exp_so3(np.array([0.0, 0.0, np.pi]))
    vals = [
        scaled_energy(zero, R, h, ctx) for h in (0.2, 0.1, 0.05)
    ]
    assert vals[0] < 0 and vals[1] < 2 * vals[0] * 0.9 and vals[2] < vals[1]
    work = -1.0 * (np.trace(R) - 3.0) * np.pi  # L((R-I)x) = lambda Tr(R-I) |Omega|
    assert np.isclose(vals[1], -work / 0.1, rtol=1e-10)


def test_limit_recovery_for_fixed_field(preset_ctx, preset_start):
    # for fixed u and a kernel rotation, the value tends to the limit energy
    # with an O(h) defect
    spec, _, ctx = preset_ctx
    coeffs, R, limit_value = preset_start
    errs = []
    for h in (0.04, 0.02, 0.01, 0.005):
        v = scaled_energy(coeffs, R, h, ctx)
        errs.append(abs(v - limit_value))
    for a, b in zip(errs, errs[1:]):
        assert b < 0.75 * a
    assert errs[-1] < 1e-5


def test_energy_invariant_under_kernel_conjugation(preset_ctx, rng):
    # replacing R by Q^T R and the loads by the Q-rotated loads v -> L(Q v),
    # whose moments are Q^T T_k and Q^T T, leaves the value unchanged when Q
    # lies in the rotation kernel (the h^-1 placement term shifts by
    # L((Q - I)x) = 0 exactly then)
    spec, space, ctx = preset_ctx
    coeffs = rng.normal(scale=0.1, size=space.dim)
    R = exp_so3(np.array([0.0, 0.0, 0.8]))
    Q = rotation_about_z(0.7)
    ctx_rot = dataclasses.replace(ctx, load_moments=Q.T @ ctx.load_moments,
                                  placement_moment=Q.T @ ctx.placement_moment)
    h = 0.1
    v_base = scaled_energy(coeffs, R, h, ctx)
    v_conj = scaled_energy(coeffs, Q.T @ R, h, ctx_rot)
    assert np.isclose(v_base, v_conj, rtol=1e-12, atol=1e-14)


def test_minimize_close_to_limit(preset_ctx, preset_start):
    spec, _, ctx = preset_ctx
    coeffs, R, limit_value = preset_start
    res = minimize_scaled(spec, coeffs, R, 0.1, ctx)
    assert res.status == "converged"
    assert abs(res.value - limit_value) < 0.1 * abs(limit_value)
    # descent never lands above the warm start
    start_val = scaled_energy(coeffs, R, 0.1, ctx)
    assert res.value <= start_val + 1e-14


def test_minimize_reports_max_rounds(preset_ctx, preset_start, monkeypatch):
    # the warm start at h = 0.1 needs two alternation rounds; capped at one,
    # the status says so instead of claiming convergence
    spec, _, ctx = preset_ctx
    coeffs, R, _ = preset_start
    full = minimize_scaled(spec, coeffs, R, 0.1, ctx)
    assert full.status == "converged" and full.rounds >= 2
    monkeypatch.setattr(scaled, "ALTERNATION_MAX_ROUNDS", 1)
    capped = minimize_scaled(spec, coeffs, R, 0.1, ctx)
    assert capped.status == "max_rounds" and capped.rounds == 1


def test_minimize_zero_loads():
    spec = LoadSpec()
    space = build_space("ansatz_k", 4, CYL, degree1d=2)
    ctx, _ = nonlinear_context(spec, space)
    zero = np.zeros(space.dim)
    res = minimize_scaled(spec, zero, np.eye(3), 0.1, ctx)
    assert abs(res.value) < 1e-14
    assert np.allclose(res.coefficients, 0.0, atol=1e-10)


def test_minimize_rejects_incompatible():
    # a compressive pressure does positive work on every half-turn
    spec = LoadSpec(surface_pressure=-1.0)
    ctx, _ = nonlinear_context(spec, build_space("ansatz_k", 4, CYL, degree1d=2))
    with pytest.raises(SolverError):
        minimize_scaled(spec, np.zeros(ctx.space.dim), np.eye(3), 0.1, ctx)


def test_far_rotation_init_returns_to_kernel(preset_ctx, preset_start):
    spec, _, ctx = preset_ctx
    coeffs, _, _ = preset_start
    far = exp_so3(np.array([np.pi / 2, 0.0, 0.0]))  # x-axis quarter turn
    res = minimize_scaled(spec, coeffs, far, 0.1, ctx)
    from traction_gap.loads import compatibility_report
    from traction_gap.scaled import _kernel_distance

    report = compatibility_report(spec)
    assert _kernel_distance(res.rotation, report) < 0.05


def test_convergence_study_rows(preset_ctx):
    spec, _, _ = preset_ctx
    rows = convergence_study(spec, (0.2, 0.1, 0.05), degree=4)
    assert [r.h for r in rows] == [0.2, 0.1, 0.05]
    gaps = [r.gap_to_limit for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(r.status == "converged" for r in rows)
    assert all(r.value > -5.0 for r in rows)  # uniform lower bound
    assert all(r.rotation_distance < 1e-8 for r in rows)
    # the rescaled strain diagnostic grows like 1/h off the identity
    assert rows[-1].strain_rescaled > 2.0 * rows[0].strain_rescaled


def test_convergence_study_zero_loads():
    # every rotation is in the kernel of zero loads, so the study refuses them;
    # the descent itself stays at the zero field
    spec = LoadSpec()
    with pytest.raises(LoadError, match="full-SO\\(3\\) kernel"):
        convergence_study(spec, (0.2, 0.1), degree=2)
    ctx, _ = nonlinear_context(spec, build_space("ansatz_k", 4, CYL, degree1d=2))
    for h in (0.2, 0.1):
        res = minimize_scaled(spec, np.zeros(ctx.space.dim), np.eye(3), h, ctx)
        assert abs(res.value) < 1e-12


def test_convergence_study_rejects_bad_schedule(preset_ctx):
    spec, _, _ = preset_ctx
    for schedule in [(0.1, 0.2), (0.2, 0.0), (1.0, 0.5), ()]:
        with pytest.raises(ValueError, match="strictly decreasing in"):
            convergence_study(spec, schedule, degree=2)


def test_rescaled_strain_blows_up_off_identity(preset_ctx, preset_start):
    spec, _, ctx = preset_ctx
    coeffs, R, _ = preset_start
    n1 = rescaled_strain_norm(coeffs, R, 0.2, ctx)
    n2 = rescaled_strain_norm(coeffs, R, 0.02, ctx)
    assert n2 > 5.0 * n1


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended precision")
def test_elastic_energy_matches_extended_precision_at_thin_films(preset_ctx, preset_start):
    # the elastic part at the limit start, evaluated on h G and not on I + h G,
    # keeps full relative precision; I + h G would lose about 1e-16 / h
    spec, _, ctx = preset_ctx
    h = 5e-4
    c, _, _ = preset_start
    value = scaled_energy(c, np.eye(3), h, ctx)
    elastic = value + float(np.trace(ctx.work_moment(c)))
    ref = np.longdouble(0.0)
    for G, w in zip(ctx.factor_fields(c), (ctx.planar_weights, ctx.axial_weights)):
        eye = np.eye(G.shape[-1], dtype=np.longdouble)  # one diagonal block of F
        F = eye + np.longdouble(h) * G.astype(np.longdouble)
        C = np.swapaxes(F, 1, 2) @ F - eye
        ref += w.astype(np.longdouble) @ np.einsum("nij,nij->n", C, C)
    ref /= np.longdouble(h) ** 2
    assert abs(elastic - float(ref)) <= 1e-14 * float(ref)


# -- the planar/axial split against node tables -------------------------------


class NodeReference:
    """Energy, coefficient gradient and strain norm from node tables: the
    basis tabulated at every node of the context's rule, stripped of its
    factors, with the energy kernels applied to h grad u at every node."""

    def __init__(self, ctx):
        rule = QuadratureRule(ctx.rule.points, ctx.rule.weights)
        _, self.grads = ctx.space.tables(rule)
        self.w, self.ctx = rule.weights, ctx

    def gradient_field(self, c):
        return np.tensordot(c, self.grads, axes=(0, 0))

    def energy(self, c, R, h):
        value = ksv_density_sum(h * self.gradient_field(c), self.w) / h ** 2
        value -= float(np.sum(R * self.ctx.work_moment(c)))
        return value - float(np.sum((R - np.eye(3)) * self.ctx.placement_moment)) / h

    def coeff_gradient(self, c, R, h):
        P = ksv_weighted_stress(h * self.gradient_field(c), self.w)
        return np.einsum("knij,nij->k", self.grads, P) / h - self.ctx.load_vector(R)

    def strain_norm(self, c, R, h):
        Gv = (R - np.eye(3)) / h + R @ self.gradient_field(c)
        S = 0.5 * (Gv + np.swapaxes(Gv, 1, 2))
        return float(np.sqrt(self.w @ np.einsum("nij,nij->n", S, S)))


@pytest.fixture(scope="module", params=[("ansatz_k", 8, 4)], ids=["ansatz_k"])
def split_and_reference(request):
    kind, degree, d1 = request.param
    spec = LoadSpec.cylinder_preset(beta=0.01)
    ctx, _ = nonlinear_context(spec, build_space(kind, degree, CYL, degree1d=d1))
    return ctx, NodeReference(ctx)


def _padded(fields):
    """The planar (N_P, 2, 2) and axial (N_z, 1, 1) blocks as zero-padded
    (N_P, 3, 3) and (N_z, 3, 3) gradients."""
    Gp, Gz = fields
    P, Z = np.zeros((len(Gp), 3, 3)), np.zeros((len(Gz), 3, 3))
    P[:, :2, :2], Z[:, 2:, 2:] = Gp, Gz
    return P, Z


def _gradient_field(ctx, c):
    """(N, 3, 3) displacement gradient from the context's factor fields,
    node = planar index * N_z + z index, the order of the rule's nodes."""
    P, Z = _padded(ctx.factor_fields(c))
    return (P[:, None] + Z[None, :]).reshape(-1, 3, 3)


def _gradient(c, R, h, ctx):
    return scaled._coeff_gradient(ctx.factor_fields(h * c), ctx.load_vector(R), h, ctx)


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("h", [0.2, 1e-2, 5e-4])
def test_split_matches_node_tables(split_and_reference, rng, h):
    ctx, ref = split_and_reference
    space = ctx.space
    for R in [np.eye(3)] + random_rotations(rng, 2):
        c = rng.normal(scale=0.3, size=space.dim)
        assert _rel(scaled_energy(c, R, h, ctx), ref.energy(c, R, h)) <= 1e-13
        assert _rel(_gradient(c, R, h, ctx), ref.coeff_gradient(c, R, h)) <= 1e-13
        assert _rel(_gradient_field(ctx, c), ref.gradient_field(c)) <= 1e-13
        assert _rel(rescaled_strain_norm(c, R, h, ctx), ref.strain_norm(c, R, h)) <= 1e-13


@pytest.mark.parametrize("h", [0.2, 1e-2])
def test_coeff_gradient_matches_central_differences(split_and_reference, rng, h):
    ctx, _ = split_and_reference
    space = ctx.space
    c = rng.normal(scale=0.3, size=space.dim)
    R = random_rotations(rng, 1)[0]
    g = _gradient(c, R, h, ctx)
    step = 1e-5
    for _ in range(3):
        d = rng.normal(size=space.dim)
        plus = scaled_energy(c + step * d, R, h, ctx)
        minus = scaled_energy(c - step * d, R, h, ctx)
        assert np.isclose((plus - minus) / (2 * step), g @ d, rtol=1e-6)


@pytest.mark.parametrize("h", [0.2, 5e-4])
def test_block_fields_match_zero_padded_fields(split_and_reference, rng, h):
    # the kernels on the 2x2 and 1x1 blocks against the same kernels on the
    # blocks zero-padded to 3x3: C(D) of a block-diagonal D is block diagonal
    ctx, _ = split_and_reference
    c = rng.normal(scale=0.3, size=ctx.space.dim)
    R = random_rotations(rng, 1)[0]
    P, Z = _padded(ctx.factor_fields(h * c))
    value = (ksv_density_sum(P, ctx.planar_weights) + ksv_density_sum(Z, ctx.axial_weights)) / h**2
    value -= float(np.sum(R * ctx.work_moment(c)))
    value -= float(np.sum((R - np.eye(3)) * ctx.placement_moment)) / h
    SP, SZ = ksv_weighted_stress(P, ctx.planar_weights), ksv_weighted_stress(Z, ctx.axial_weights)
    grad = np.concatenate([ctx.planar_grads @ SP[:, :2, :2].ravel(),
                           ctx.axial_slopes @ SZ[:, 2, 2]]) / h - ctx.load_vector(R)
    assert _rel(scaled_energy(c, R, h, ctx), value) <= 1e-13
    assert _rel(_gradient(c, R, h, ctx), grad) <= 1e-13


@pytest.mark.parametrize("h", [0.2, 5e-4])
def test_linear_trial_value_matches_scaled_energy(preset_ctx, preset_start, rng, h, monkeypatch):
    # one accepted step: its value comes from the fields h G(c) - s h G(d)
    # and the work <c - s d, b>, never from the coefficients c - s d
    _, space, ctx = preset_ctx
    coeffs, R, _ = preset_start
    c0 = coeffs + rng.normal(scale=0.01, size=space.dim)
    monkeypatch.setattr(scaled, "COEFF_MAX_ITERS", 1)
    c, value, stop, steps, _ = scaled._descend_coefficients(c0, R, h, ctx)
    assert stop == "max_iters" and steps == 1 and not np.array_equal(c, c0)
    assert _rel(value, scaled_energy(c, R, h, ctx)) <= 1e-12


def test_carried_fields_do_not_drift(preset_ctx, rng, monkeypatch):
    # the fields updated by axpy through a whole descent against the fields
    # formed afresh from its final coefficients; the round-off of an axpy is
    # relative to its operands, so the start fields count in the scale
    _, space, ctx = preset_ctx
    h, R = 0.2, random_rotations(rng, 1)[0]
    seen = []
    gradient = scaled._coeff_gradient

    def record(fields, *rest):
        seen.append(tuple(D.copy() for D in fields))  # the descent reuses the buffers
        return gradient(fields, *rest)

    monkeypatch.setattr(scaled, "_coeff_gradient", record)
    c, value, stop, steps, backtracks = scaled._descend_coefficients(
        rng.normal(scale=0.3, size=space.dim), R, h, ctx)
    assert stop == "converged" and steps >= 10 and backtracks > 0
    for carried, fresh, start in zip(seen[-1], ctx.factor_fields(h * c), seen[0]):
        scale = max(np.max(np.abs(fresh)), np.max(np.abs(start)))
        assert np.max(np.abs(carried - fresh)) <= 1e-12 * scale
    assert _rel(value, scaled_energy(c, R, h, ctx)) <= 1e-12


@pytest.mark.parametrize("kind", ["full"])
def test_nonlinear_context_rejects_non_ansatz_spaces(kind):
    with pytest.raises(ValueError, match="ansatz"):
        nonlinear_context(LoadSpec.cylinder_preset(), build_space(kind, 2, CYL))


def test_factor_tables_need_a_tensor_rule():
    space = build_space("ansatz_k", 4, CYL, degree1d=2)
    rule = volume_quadrature(CYL, 6)
    with pytest.raises(ValueError, match="factors"):
        space.factor_tables(QuadratureRule(rule.points, rule.weights))


def test_convergence_study_builds_no_node_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("node tables built in the nonlinear study")

    monkeypatch.setattr(GalerkinSpace, "tables", refuse)
    rows = convergence_study(LoadSpec.cylinder_preset(), (0.2, 0.1, 0.05, 0.02), degree=4)
    assert [r.status for r in rows] == ["converged"] * 4


def _array_bytes(obj, seen: set) -> int:
    """Bytes of every numpy array reachable from obj (a view counts its base)."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes if obj.base is None else max(obj.nbytes, _array_bytes(obj.base, seen))
    if isinstance(obj, (tuple, list)):
        return sum(_array_bytes(o, seen) for o in obj)
    if hasattr(obj, "__dict__"):
        return sum(_array_bytes(o, seen) for o in vars(obj).values())
    return 0


def test_degree5_context_is_small():
    # the node tables of this context took 82 MB for the gradients alone
    space = build_space("ansatz_k", 10, CYL, degree1d=5)
    ctx, _ = nonlinear_context(LoadSpec.cylinder_preset(), space)
    assert len(ctx.rule) == 17 * 34 * 17  # order 17, exact for the degree-32 energy
    assert _array_bytes(ctx, set()) < 5e6


def _context_peak(degree: int, degree1d: int) -> int:
    """Traced peak bytes of the nonlinear context of an ansatz space."""
    space = build_space("ansatz_k", degree, CYL, degree1d=degree1d)
    tracemalloc.start()
    try:
        nonlinear_context(LoadSpec.cylinder_preset(), space)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_degree5_context_peaks_below_its_old_tables():
    # the thin-film space: it is assembled on its own order-10 rule, and the
    # descent's tables are written slot by slot from 1D tables straight into
    # their final arrays, so the context peaks at about 3.2 MB of traced
    # allocations (4.2 MB when one planar factor table of the order-17 rule
    # served both, 5.7 MB when the tables were gathered in copies)
    assert _context_peak(10, 5) < 3.5e6


def test_degree6_context_peaks_below_its_old_tables():
    # nonlinear_degree 6: about 6.5 MB (8.6 MB with the shared table)
    assert _context_peak(12, 6) < 7.0e6


def test_context_builds_no_planar_table_on_its_quartic_rule(monkeypatch):
    # only the assembly, on its own rule, builds a table of all planar
    # factors; the descent's tables on the quartic rule are built slot by slot
    space = build_space("ansatz_k", 10, CYL, degree1d=5)
    seen, planar = [], GalerkinSpace._planar
    monkeypatch.setattr(GalerkinSpace, "_planar",
                        lambda self, x, y: seen.append(x.size) or planar(self, x, y))
    ctx, _ = nonlinear_context(LoadSpec.cylinder_preset(), space)
    assert ctx.planar_weights.size == 578
    assert seen and 578 not in seen


# -- stop reasons -----------------------------------------------------------------


def test_failed_backtrack_is_reported(preset_ctx, preset_start, monkeypatch):
    # every trial point costs +inf, so no step passes the Armijo test
    spec, _, ctx = preset_ctx
    coeffs, R, _ = preset_start
    start = ctx.factor_fields(0.1 * coeffs)
    energy = scaled._elastic_energy

    def refuse_trials(fields, h, context):
        at_start = all(np.array_equal(D, S) for D, S in zip(fields, start))
        return energy(fields, h, context) if at_start else np.inf

    monkeypatch.setattr(scaled, "_elastic_energy", refuse_trials)
    c, _, stop, steps, backtracks = scaled._descend_coefficients(coeffs, R, 0.1, ctx)
    assert stop == "line_search_failed"
    assert np.array_equal(c, coeffs)
    assert steps == 0 and backtracks == 54  # steps 1, 1/2, ..., 2^-53
    res = minimize_scaled(spec, coeffs, R, 0.1, ctx)
    assert res.status == "line_search_failed"
    assert np.array_equal(res.coefficients, coeffs)
    assert (res.rounds, res.steps, res.backtracks) == (1, 0, 54)
    assert res.descent_stops == ["line_search_failed"]


def test_exact_rotation_step_converges_down_to_thin_films():
    # the rotation step is exact, so every row of the degree-5 thin-film
    # schedule ends on the kernel axis to round-off
    hs = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005)
    rows = convergence_study(LoadSpec.cylinder_preset(), hs, degree=5)
    assert [row.status for row in rows] == ["converged"] * len(hs)
    assert max(row.rotation_distance for row in rows) < 1e-12


def test_thin_films_converge_at_rule_order_21(monkeypatch):
    # order 21 integrates the degree-5 energy as exactly as the derived 17, so
    # every row must converge there too; round-off in I + h G kept the gradient
    # test out of reach at h = 0.002
    monkeypatch.setattr(scaled, "exact_order", lambda degree: 21)
    hs = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005)
    rows = convergence_study(LoadSpec.cylinder_preset(), hs, degree=5)
    assert [row.status for row in rows] == ["converged"] * len(hs)


def test_thin_film_gap_does_not_follow_the_rule_order(monkeypatch):
    # the placement moment T is exact, so the descent's T / h carries no
    # round-off: at h = 5e-4 the gap over h^2 is 1.1590e-4 at every order the
    # descent's rule may take (the assembly keeps its own rule), where T
    # summed on the rule spread it by 38%.  What
    # is left (2.3e-5 with one BLAS thread, 3.4e-6 with two) is the descent's
    # stop at COEFF_GRAD_TOL, 7e-16 of the gap's 2.9e-11
    hs = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005)
    derived, ratios = scaled.exact_order, []
    for shift in (0, 2, 4, 7):
        monkeypatch.setattr(scaled, "exact_order", lambda degree, s=shift: derived(degree) + s)
        row = convergence_study(LoadSpec.cylinder_preset(), hs, degree=5)[-1]
        ratios.append(row.gap_to_limit / row.h ** 2)
    assert max(ratios) - min(ratios) <= 1e-4 * max(ratios)


def test_gap_to_limit_is_signed(monkeypatch):
    # a limit above the first row's value gives negative gaps, not their size
    spec, hs = LoadSpec.cylinder_preset(), (0.2, 0.1)
    first = convergence_study(spec, hs, degree=2)[0].value
    start = scaled._limit_start

    def raised_limit(*args):
        coeffs, R, _ = start(*args)
        return coeffs, R, first + 1e-3

    monkeypatch.setattr(scaled, "_limit_start", raised_limit)
    rows = convergence_study(spec, hs, degree=2)
    assert rows[0].gap_to_limit == pytest.approx(-1e-3, rel=0, abs=1e-12)
    assert all(r.gap_to_limit == r.value - (first + 1e-3) < 0.0 for r in rows)


def test_convergence_study_classifies_the_loads_once(monkeypatch):
    calls = []
    classify = scaled.compatibility_report
    monkeypatch.setattr(scaled, "compatibility_report",
                        lambda spec: calls.append(spec) or classify(spec))
    convergence_study(LoadSpec.cylinder_preset(), (0.2, 0.1, 0.05), degree=2)
    assert len(calls) == 1
