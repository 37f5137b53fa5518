import copy
import tracemalloc
from math import comb

import numpy as np
import pytest

from conftest import node_moment, random_rotations
from traction_gap.galerkin import (
    KERNEL_EIGENVALUE_CUT,
    AssemblyError,
    GalerkinSpace,
    SolverError,
    _factor,
    _factored_grams,
    _legendre_tables,
    _refuse_leak,
    assemble,
    build_space,
    load_moments,
    solve_quadratic,
)
from traction_gap.energy import strain
from traction_gap.geometry import (Domain, QuadratureRule, _tensor_rule, exact_order,
                                   surface_quadrature, volume_quadrature)
from traction_gap.loads import (
    LoadRules,
    LoadSpec,
    default_rules,
    rigid_projection,
)
from traction_gap.rotations import rotation_about_z, skew_from_axis

CYL = Domain.cylinder()
BALL = Domain.unit_ball()
# the preset's radial profile on the ball, beta = 0: compatible (identity-only kernel)
BALL_PROFILE = LoadSpec(phi_coeffs=(-1.0, 0.0, 6.0, 0.0, -9.0, 0.0, 4.0), domain=BALL)
KINDS = [("full", 4, None), ("ansatz_k", 6, 3), ("div_free", 3, None)]


def _values(space, coeffs, rule):
    """Values at the rule's nodes of the field(s) with coefficients coeffs
    (a vector, or one column per field)."""
    return np.tensordot(coeffs, space.tables(rule)[0], axes=(0, 0))


def _gradients(space, coeffs, rule):
    """Displacement gradients at the rule's nodes, as in ``_values``."""
    return np.tensordot(coeffs, space.tables(rule)[1], axes=(0, 0))


def test_strain_examples():
    W = skew_from_axis(np.array([-0.4, -0.2, -1.0]))
    assert np.allclose(strain(W), 0.0)
    assert np.allclose(strain(np.eye(3)), np.eye(3))
    G = np.zeros((3, 3))
    G[0, 1] = 1.0  # v = (y, 0, 0)
    E = strain(G)
    assert E[0, 1] == E[1, 0] == 0.5
    assert np.isclose(np.sum(np.abs(E)), 1.0)


def test_full_space_contains_rigid_modes():
    space = build_space("full", 1, CYL)
    rig = space.rigid_coefficients()
    assert rig.shape[0] == 6
    rule = volume_quadrature(CYL, 6)
    _, grads = space.tables(rule)
    for vec in rig:
        E = strain(np.tensordot(vec, grads, axes=(0, 0)))
        assert float(np.max(np.abs(E))) < 1e-12


def test_ansatz_rigid_modes_and_divfree_structure():
    space = build_space("ansatz_k", 4, CYL, degree1d=2)
    rig = space.rigid_coefficients()
    assert rig.shape[0] == 4  # planar translations, z-spin, z-translation
    rule = volume_quadrature(CYL, 8)
    vals, grads = space.tables(rule)
    for vec in rig:
        E = strain(np.tensordot(vec, grads, axes=(0, 0)))
        assert float(np.max(np.abs(E))) < 1e-12
    # the planar rows, curls of the potential, are divergence free
    planar = grads[:len(space._idx2)]
    assert np.any(planar)
    assert float(np.max(np.abs(np.trace(planar, axis1=2, axis2=3)))) < 1e-12


def test_divfree_curl_space_is_divergence_free():
    space = build_space("div_free", 3, CYL)
    rule = volume_quadrature(CYL, 8)
    _, grads = space.tables(rule)
    div = np.trace(grads, axis1=2, axis2=3)
    assert float(np.max(np.abs(div))) < 1e-11


def test_divfree_dimension_is_that_of_divergence_free_fields():
    # fields of degree <= d (3 C(d+3, 3)) whose divergence, of degree <= d - 1
    # (C(d+2, 3) conditions, onto), vanishes
    for degree in range(1, 13):
        space = build_space("div_free", degree, CYL)
        assert space.dim == 3 * comb(degree + 3, 3) - comb(degree + 2, 3)


@pytest.mark.parametrize("degree", (2, 3, 5))
def test_divfree_spans_every_curl_of_a_legendre_scalar(degree):
    # grad(m) x e_c for every m = L_i(x) L_j(y) L_k(z) of total degree
    # <= degree + 1 (the span of all vector potentials) is reproduced by its
    # discrete L^2 projection onto the gauge-fixed space
    space = build_space("div_free", degree, CYL)
    rule = volume_quadrature(CYL, exact_order(2 * space.field_degree))
    sw = np.sqrt(rule.weights)[:, None]
    vals, _ = space.tables(rule)
    basis = (vals * sw).reshape(space.dim, -1).T
    legendre = np.polynomial.Legendre
    domains = ([-1.0, 1.0], [-1.0, 1.0], [0.0, 1.0])
    targets = []
    for m in [(i, j, k) for i in range(degree + 2) for j in range(degree + 2 - i)
              for k in range(degree + 2 - i - j)]:
        factors = [legendre.basis(n, domain=dom) for n, dom in zip(m, domains)]
        grad = np.stack([np.prod([(f.deriv() if a == d else f)(rule.points[:, a])
                                  for a, f in enumerate(factors)], axis=0)
                         for d in range(3)], axis=1)
        for c in np.eye(3):
            field = np.cross(grad, c) * sw
            if np.linalg.norm(field) > 1e-8:
                targets.append(field.ravel())
    targets = np.array(targets).T
    coef = np.linalg.lstsq(basis, targets, rcond=None)[0]
    residual = np.linalg.norm(basis @ coef - targets, axis=0)
    assert float(np.max(residual / np.linalg.norm(targets, axis=0))) < 1e-12


@pytest.mark.parametrize("domain", [CYL, BALL], ids=["cylinder", "ball"])
def test_divfree_rigid_rows_are_the_rigid_fields(domain):
    rule = volume_quadrature(domain, 6)
    x, y, z = rule.points.T
    o, i = np.zeros_like(x), np.ones_like(x)
    expected = np.stack([np.stack(f, axis=1) for f in (
        (i, o, o), (o, i, o), (o, o, i), (o, -z, y), (z, o, -x), (-y, x, o))])
    for degree in (1, 4, 8):
        space = build_space("div_free", degree, domain)
        got = _values(space, space.rigid_coefficients().T, rule)
        assert float(np.max(np.abs(got - expected))) < 1e-13


@pytest.mark.parametrize("kind,degree,domain",
                         [(k, d, CYL) for d in (8, 12) for k in ("full", "div_free")]
                         + [(k, 6, BALL) for k in ("full", "div_free")],
                         ids=["8-full", "8-div_free", "12-full", "12-div_free",
                              "6-full-ball", "6-div_free-ball"])
def test_kernel_cut_has_margins_on_both_sides(preset, kind, degree, domain):
    # the six rigid directions sit far below the eigenvalue cut and every
    # other direction far above it
    system = assemble(build_space(kind, degree, domain), preset if domain is CYL else BALL_PROFILE)
    kept, dropped = system.kernel_margins
    assert system.kernel.shape[0] == 6
    assert kept >= 10.0
    assert dropped <= 1e-3
    eigvals = np.linalg.eigvalsh(system.A)
    cut = KERNEL_EIGENVALUE_CUT * eigvals[-1]
    assert kept == pytest.approx(eigvals[6] / cut, rel=1e-6)


def test_basis_gradients_match_finite_differences(rng):
    from traction_gap.geometry import QuadratureRule

    for kind, degree, d1 in (("full", 3, None), ("ansatz_k", 4, 2), ("div_free", 2, None)):
        space = build_space(kind, degree, CYL, degree1d=d1)
        pts = np.stack(
            [
                rng.uniform(-0.6, 0.6, 5),
                rng.uniform(-0.6, 0.6, 5),
                rng.uniform(0.1, 0.9, 5),
            ],
            axis=1,
        )
        step = 1e-6
        base = QuadratureRule(pts, np.ones(len(pts)))
        vals, grads = space.tables(base)
        for axis in range(3):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, axis] += step
            dm[:, axis] -= step
            vp, _ = space.tables(QuadratureRule(dp, np.ones(len(pts))))
            vm, _ = space.tables(QuadratureRule(dm, np.ones(len(pts))))
            fd = (vp - vm) / (2 * step)
            assert float(np.max(np.abs(fd - grads[:, :, :, axis]))) < 1e-7


def test_assemble_zero_loads_and_rotation_independence(preset):
    space = build_space("full", 3, CYL)
    zero = LoadSpec()
    sys0 = assemble(space, zero)
    assert np.allclose(sys0.load_vector(), 0.0)
    sys1 = assemble(space, preset)
    b_id = sys1.load_vector(np.eye(3))
    b_rot = sys1.load_vector(rotation_about_z(1.1))
    assert not np.allclose(b_id, b_rot)  # only b depends on the rotation
    assert sys0.A.shape == sys1.A.shape


@pytest.mark.parametrize("kind,degree,d1,domain", [("full", 3, None, CYL), ("ansatz_k", 4, 2, CYL),
                                                   ("div_free", 2, None, CYL), ("full", 3, None, BALL)],
                         ids=["full", "ansatz_k", "div_free", "ball"])
def test_assemble_quadratic_consistency(preset, rng, kind, degree, d1, domain):
    # the assembled form against 4 * integral |E|^2 by direct quadrature, on
    # the cylinder's one tensor term and on the ball's sliced terms
    space = build_space(kind, degree, domain, degree1d=d1)
    system = assemble(space, preset if domain is CYL else BALL_PROFILE)
    assert np.array_equal(system.A, system.A.T)
    rule = system.rules.volume
    c = rng.normal(size=space.dim)
    E = strain(_gradients(space, c, rule))
    direct = 4.0 * float(np.dot(rule.weights, np.einsum("nij,nij->n", E, E)))
    assert np.isclose(0.5 * float(c @ system.A @ c), direct, rtol=1e-12)


@pytest.mark.parametrize(
    "spec,kind,degree,d1",
    [(spec, *space) for space in [("full", 3, None), ("ansatz_k", 4, 2), ("div_free", 3, None)]
     for spec in (LoadSpec.cylinder_preset(beta=0.01), LoadSpec(surface_pressure=1.0))],
    ids=[f"{kind}{load}" for kind in ("", "ansatz_k-", "div_free-")
         for load in ("preset", "pressure")])
def test_load_vector_is_the_work_on_the_rotated_field(spec, rng, kind, degree, d1):
    # c . b(R) = L(R u_c), with L by quadrature on an independent, finer rule;
    # the pressure load covers the surface moments.  The preset's planar force
    # does no work on any field of degree <= 2 (its radial moment vanishes),
    # so div_free takes degree 3: at degree 2 the work is the beta-scaled
    # axial part alone, 1e4 times below the terms both sides sum
    space = build_space(kind, degree, CYL, degree1d=d1)
    system = assemble(space, spec)
    c = rng.normal(size=space.dim)

    def u_c(points):
        return _values(space, c, QuadratureRule(points, np.ones(len(points))))

    rules = default_rules(spec, order=12)
    vol, surf = rules.volume, surface_quadrature(CYL, 12)
    Y = node_moment(spec, rules, u_c(vol.points), surf, u_c(surf.points))
    for R in random_rotations(rng, 2):
        work = float(np.sum(R * Y))  # L(R u) = <R, sum w f (x) u>
        assert np.isclose(float(c @ system.load_vector(R)), work, rtol=1e-12, atol=0.0)


def _node_grams(space, rule):
    """Dense (A, M) from node tables, the reference of the factored assembly:
    A = 8 S S' with S the strains and M = V V' with V the values, each node
    weighted by sqrt(w)."""
    vals, grads = space.tables(rule)
    root = np.sqrt(rule.weights)[:, None]
    S = (strain(grads) * root[..., None]).reshape(space.dim, -1)
    V = (vals * root).reshape(space.dim, -1)
    return 8.0 * (S @ S.T), V @ V.T


SYMMETRIC_CASES = [(kind, degree, d1, CYL) for kind, degree, d1 in KINDS] + [
    ("full", 4, None, BALL), ("div_free", 3, None, BALL)]
SYMMETRIC_IDS = [k[0] for k in KINDS] + ["full-ball", "div_free-ball"]


@pytest.mark.parametrize("kind,degree,d1,domain", SYMMETRIC_CASES, ids=SYMMETRIC_IDS)
def test_factored_assembly_matches_node_tables(preset, kind, degree, d1, domain):
    # A, the load moments and the rigid projector against their node-table
    # references on the same nodes and weights; the system keeps the
    # projector as its rigid fit H, P = I - rigid' H
    space = build_space(kind, degree, domain, degree1d=d1)
    load = preset if domain is CYL else BALL_PROFILE
    system = assemble(space, load)
    A, M = _node_grams(space, system.rules.volume)
    vals, _ = space.tables(system.rules.volume)
    F = system.rigid @ M
    refs = {"A": A, "load_moments": node_moment(load, system.rules, vals),
            "projector": np.eye(space.dim) - system.rigid.T @ np.linalg.solve(F @ system.rigid.T, F)}
    got = {"A": system.A, "load_moments": system.load_moments,
           "projector": np.eye(space.dim) - system.rigid.T @ system.rigid_fit}
    for name, ref in refs.items():
        scale = float(np.max(np.abs(ref)))
        assert scale > 1e-3
        assert float(np.max(np.abs(got[name] - ref))) <= 1e-13 * scale, name


def test_assembly_builds_no_node_tables(preset, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("node tables built for a linear system")

    monkeypatch.setattr(GalerkinSpace, "tables", refuse)
    for kind, degree, d1, domain in SYMMETRIC_CASES:
        system = assemble(build_space(kind, degree, domain, degree1d=d1),
                          preset if domain is CYL else BALL_PROFILE)
        assert np.all(np.isfinite(system.A))


PRESSURE_CASES = [(kind, degree, d1, domain) for kind, degree, d1 in
                  (("full", 4, None), ("div_free", 3, None), ("ansatz_k", 5, 3))
                  for domain in (CYL, Domain.cylinder(radius=2.0, height=0.5))]


@pytest.mark.parametrize("kind,degree,d1,domain", PRESSURE_CASES,
                         ids=[f"{k}-{d.radius:g}x{d.height:g}" for k, _, _, d in PRESSURE_CASES])
def test_pressure_load_moments_match_the_surface_node_sums(kind, degree, d1, domain):
    # the pressure's moments are lambda times the integrated gradients
    # (divergence theorem); their definition is sum w_s lambda n (x) b_k over
    # the surface nodes
    load = LoadSpec(surface_pressure=0.75, domain=domain)
    space = build_space(kind, degree, domain, degree1d=d1)
    order = exact_order(2 * space.field_degree)
    surf = surface_quadrature(domain, order)
    want = np.einsum("n,ni,knj->kij", surf.weights, load.surface_pressure * surf.normals,
                     space.tables(surf)[0])
    got = load_moments(space, load, LoadRules(volume_quadrature(domain, order)))
    scale = float(np.max(np.abs(want)))
    assert scale > 0.1
    assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


def test_pressure_assembly_builds_no_node_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("node tables built for a pressure load")

    monkeypatch.setattr(GalerkinSpace, "tables", refuse)
    for domain in (CYL, BALL):
        load = LoadSpec(phi_coeffs=BALL_PROFILE.phi_coeffs, surface_pressure=0.5, domain=domain)
        system = assemble(build_space("full", 4, domain), load)
        assert np.all(np.isfinite(system.load_moments)) and np.any(system.load_moments)


def _grams(space):
    """The space's (A blocks, M blocks) on the rule exact for them, and that rule."""
    rule = volume_quadrature(space.domain, exact_order(2 * space.field_degree))
    return _factored_grams(space, rule), rule


def _dense(blocks, parts):
    out = np.zeros((sum(len(b) for b in blocks),) * 2)
    for b, X in zip(blocks, parts):
        out[np.ix_(b, b)] = X
    return out


@pytest.mark.parametrize("kind,degree,d1,domain", SYMMETRIC_CASES, ids=SYMMETRIC_IDS)
def test_grams_couple_only_rows_of_one_parity(kind, degree, d1, domain):
    # the three mirrors map the domain and the Legendre box onto themselves,
    # and E:E' and the L^2 product are isotropic.  The dense reference comes
    # from node tables on the same nodes, so it checks the row labels apart
    # from the blocks, whose entries must then be its in-block entries
    space = build_space(kind, degree, domain, degree1d=d1)
    blocks = space.parity_blocks
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(space.dim))
    assert 1 < len(blocks) <= 8
    label = np.empty(space.dim, dtype=int)
    for n, b in enumerate(blocks):
        label[b] = n
    off = label[:, None] != label[None, :]
    grams, rule = _grams(space)
    for G, parts in zip(_node_grams(space, rule), grams):
        scale = float(np.max(np.abs(G)))
        assert float(np.max(np.abs(G[off]))) <= 1e-12 * scale
        for b, X in zip(blocks, parts):
            assert float(np.max(np.abs(X - G[np.ix_(b, b)]))) <= 1e-12 * scale


@pytest.mark.parametrize("kind,degree,d1,domain", SYMMETRIC_CASES, ids=SYMMETRIC_IDS)
def test_block_factor_matches_a_dense_eigendecomposition(kind, degree, d1, domain):
    # low degrees: the dense reference's own round-off grows with the
    # condition number of A (to 2e-12 relative for full at degree 6)
    space = build_space(kind, degree, domain, degree1d=d1)
    (stiffness, _), _ = _grams(space)
    A = _dense(space.parity_blocks, stiffness)
    kernel, pinv_blocks, (kept, dropped) = _factor(stiffness, space.parity_blocks)
    pinv = _dense(space.parity_blocks, pinv_blocks)
    w, V = np.linalg.eigh(A)
    cut = KERNEL_EIGENVALUE_CUT * max(w[-1], 1.0)
    keep = w > cut
    ref = (V[:, keep] / w[keep]) @ V[:, keep].T
    assert float(np.max(np.abs(pinv - ref))) <= 1e-12 * float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(A @ pinv @ A - A))) <= 1e-13 * float(np.max(np.abs(A)))
    n = len(space.rigid_coefficients())
    assert kernel.shape == (n, space.dim)
    assert np.allclose(kernel @ kernel.T, np.eye(n), atol=1e-14)
    # sine of the largest principal angle; arccos resolves no angle below 1.5e-8
    Vk = V[:, ~keep]
    assert np.linalg.norm(kernel.T - Vk @ (Vk.T @ kernel.T), 2) <= 1e-8
    assert kept == pytest.approx(w[keep][0] / cut, rel=1e-6)
    assert dropped <= 1e-3


def test_block_factor_refuses_a_matrix_coupling_two_blocks(rng):
    # the leak guard every factor Gram passes, on a dense matrix with blocks
    blocks = [np.array([0, 2, 3]), np.array([1, 4])]
    A = np.zeros((5, 5))
    for b in blocks:
        X = rng.normal(size=(len(b), len(b)))
        A[np.ix_(b, b)] = X @ X.T + np.eye(len(b))
    _refuse_leak(A, blocks, "stiffness")
    kernel, pinv, _ = _factor([A[np.ix_(b, b)] for b in blocks], blocks)
    assert kernel.shape == (0, 5)
    assert np.allclose(_dense(blocks, pinv) @ A, np.eye(5), atol=1e-12)
    A[0, 1] = A[1, 0] = 1e-6
    with pytest.raises(AssemblyError, match="stiffness entry .* couples two parity blocks"):
        _refuse_leak(A, blocks, "stiffness")


@pytest.mark.parametrize("domain,which", [(CYL, "planar"), (CYL, "axial"), (BALL, "planar"),
                                          (BALL, "axial")],
                         ids=["planar", "axial", "ball-planar", "ball-axial"])
def test_factored_path_refuses_a_rule_off_the_mirrors(preset, domain, which):
    # nodes of the last term moved off the x mirror leave planar Gram entries
    # between factors of different parity; so does a z slice moved off the
    # mid-height mirror (on the ball: off its mirror partner) for axial ones
    space = build_space("full", 4, domain)
    rule = volume_quadrature(domain, exact_order(2 * space.field_degree))
    *rest, ((px, py, pw), (z, wz)) = rule.terms
    if which == "planar":
        last = ((px + 0.01, py, pw), (z, wz))
    else:
        last = ((px, py, pw), (z + 0.01 * (np.arange(z.size) == 0), wz))
    load = preset if domain is CYL else BALL_PROFILE
    with pytest.raises(AssemblyError, match=f"{which} Gram entry .* couples two parity blocks"):
        assemble(space, load, rules=LoadRules(_tensor_rule([*rest, last])))


def test_a_row_whose_slots_disagree_on_parity_is_refused(monkeypatch):
    families = GalerkinSpace._families

    def mislabel(self):
        # slot 3 (d_x u_x) with a y derivative in place of the x one: its
        # parity flips under both the x and the y mirror, so it disagrees
        # with the row's value slot
        (grp, ijk, tmpl), *rest = families(self)
        return [(grp, ijk, {**tmpl, 3: (1.0, (0, 1, 0))}), *rest]

    monkeypatch.setattr(GalerkinSpace, "_families", mislabel)
    with pytest.raises(AssemblyError, match="basis row 0 has slots of different mirror parities"):
        build_space("full", 3, CYL)


@pytest.mark.parametrize("kind,degree,d1", KINDS, ids=[k[0] for k in KINDS])
def test_factored_path_gathers_each_in_block_entry_once(kind, degree, d1):
    # the gathered positions are the blocks' upper triangles and their
    # mirror images, each once: nothing between two blocks is gathered
    space = build_space(kind, degree, CYL, degree1d=d1)
    upper, lower = [], []
    for b, lo in zip(space.parity_blocks, space._block_offsets):
        i, j = np.triu_indices(len(b))
        upper.append(lo + i * len(b) + j)
        lower.append(lo + j * len(b) + i)
    for got, want in zip(zip(*(entry[:2] for entry in space._block_pairs())), (upper, lower)):
        assert np.array_equal(np.sort(np.concatenate(got)), np.sort(np.concatenate(want)))


def test_factored_grams_allocate_less_than_one_dense_matrix():
    # the blocks hold about 1/8 of the K x K entries; a dense A or M alone
    # would take K^2 doubles
    space = build_space("full", 10, CYL)
    rule = volume_quadrature(CYL, exact_order(2 * space.field_degree))
    tracemalloc.start()
    try:
        _factored_grams(space, rule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * space.dim ** 2


@pytest.mark.parametrize("kind,degree,d1",
                         [("full", 4, None), ("div_free", 3, None), ("ansatz_k", 6, 3)])
def test_planar_factors_are_the_products_of_1d_tables_bit_for_bit(kind, degree, d1):
    # _planar multiplies the y factors into the x factors one parity run at
    # a time; the product of the two full gathers has the same bits
    space = build_space(kind, degree, CYL, degree1d=d1)
    ((px, py, _), _), = volume_quadrature(CYL, 7).terms
    a = space._box[0]
    nx, ny, i, j = space._planar_factors.T
    nder, deg = int(max(nx.max(), ny.max())), int(max(i.max(), j.max()))
    Lx = _legendre_tables(px, deg, -a, a, nder)
    Ly = _legendre_tables(py, deg, -a, a, nder)
    assert len(space._factor_classes[0]) > 1
    assert np.array_equal(space._planar(px, py), Lx[nx, i] * Ly[ny, j])


@pytest.mark.parametrize("kind,degree,d1", [("ansatz_k", 6, 3)])
def test_factor_tables_match_the_node_tables(kind, degree, d1):
    # potential rows are the planar tables, constant in z; axial rows the
    # axial tables, constant in the plane; every other entry vanishes
    space = build_space(kind, degree, CYL, degree1d=d1)
    rule = volume_quadrature(CYL, 6)
    (pv, pg), (av, slopes) = space.factor_tables(rule)
    vals, grads = space.tables(rule)
    K_P, N_P, N_z = pv.shape[0], pv.shape[1], rule.terms[0][1][0].size
    assert av.shape == slopes.shape == (space.dim - K_P, N_z)
    want_v = np.zeros((space.dim, N_P, N_z, 3))
    want_v[:K_P, ..., :2] = pv[:, :, None]
    want_v[K_P:, ..., 2] = av[:, None]
    want_g = np.zeros((space.dim, N_P, N_z, 3, 3))
    want_g[:K_P, ..., :2, :2] = pg[:, :, None]
    want_g[K_P:, ..., 2, 2] = slopes[:, None]
    assert np.array_equal(vals.reshape(want_v.shape), want_v)
    assert np.array_equal(grads.reshape(want_g.shape), want_g)


def _corrupt(space, which):
    """A copy of an ansatz space with one slot of its first potential row, or
    of its first axial row, moved off that row's factor."""
    sign, pidx, zidx = (a.copy() for a in space._slots)
    first_axial = len(space._idx2)
    if which == "potential row has a live out-of-plane slot":
        sign[0, 2] = 1.0  # a u_z slot
    elif which == "axial row has a live slot":
        sign[first_axial, 0] = 1.0  # a u_x slot
    elif which == "potential row varies in z":
        zidx[0, 0] = np.flatnonzero(space._axial_factors.any(axis=1))[0]
    else:
        pidx[first_axial, 2] = np.flatnonzero(space._planar_factors.any(axis=1))[0]
    broken = copy.copy(space)
    broken._slots = (sign, pidx, zidx)
    return broken


@pytest.mark.parametrize("which", ["potential row has a live out-of-plane slot", "axial row has a live slot",
                                   "potential row varies in z", "axial row varies in the plane"])
def test_factor_tables_refuse_a_row_off_its_factor(which):
    # explicit raises, so the checks hold under python -O too
    space = build_space("ansatz_k", 4, CYL, degree1d=2)
    rule = volume_quadrature(CYL, 4)
    with pytest.raises(AssemblyError, match=which):
        _corrupt(space, which).factor_tables(rule)
    space.factor_tables(rule)  # the copy's slots were its own


@pytest.mark.parametrize("kind", ["full", "div_free"])
def test_assembled_system_keeps_less_than_one_dense_matrix(preset, kind):
    # degree 12 (K = 1365 for full, 1001 for div_free): the system keeps the
    # blocks of A and A^+ and 6 x K rows, about 1/4 of K^2 doubles, and no
    # array of K^2 entries.  full's assembly also peaks below one dense
    # matrix; div_free's peak is its planar Gram of second-derivative factors
    space = build_space(kind, 12, CYL)
    K = space.dim
    tracemalloc.start()
    try:
        system = assemble(space, preset)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 8 * K ** 2
    if kind == "full":
        assert peak < 8 * K ** 2
    for name, value in vars(system).items():
        for array in value if isinstance(value, list) else [value]:
            if isinstance(array, np.ndarray):
                assert array.size < K ** 2, name


@pytest.mark.parametrize("kind,degree,d1,domain", SYMMETRIC_CASES, ids=SYMMETRIC_IDS)
def test_block_solve_matches_a_dense_reference(preset, kind, degree, d1, domain):
    # x = (I - rigid' G^-1 F) A^+ b with A^+ embedded from its blocks and F,
    # G from the node-table L^2 Gram; its value, its residual off the kernel
    # and the rotation form Q = S'B + B'S - S'AS, S = P A^+ B, in dense products
    space = build_space(kind, degree, domain, degree1d=d1)
    system = assemble(space, preset if domain is CYL else BALL_PROFILE)
    _, M = _node_grams(space, system.rules.volume)
    F = system.rigid @ M
    P = np.eye(space.dim) - system.rigid.T @ np.linalg.solve(F @ system.rigid.T, F)
    A, pinv, Z = system.A, _dense(space.parity_blocks, system.pinv), system.kernel
    B = system.load_moments.reshape(space.dim, 9)
    S = P @ pinv @ B
    Q = S.T @ B + B.T @ S - S.T @ A @ S
    Q = 0.5 * (Q + Q.T)
    assert float(np.max(np.abs(system.rotation_form - Q))) <= 1e-12 * float(np.max(np.abs(Q)))
    # the ball profile is compatible at the identity alone, the preset about e_z
    for R in (np.eye(3), rotation_about_z(0.7)) if domain is CYL else (np.eye(3),):
        b = system.load_vector(R)
        x = P @ (pinv @ b)
        value = 0.5 * float(x @ A @ x) - float(x @ b)
        r = b - A @ x
        res = solve_quadratic(system, R=R)
        assert value < 0.0
        assert float(np.max(np.abs(res.coefficients - x))) <= 1e-12 * float(np.max(np.abs(x)))
        assert abs(res.value - value) <= 1e-12 * abs(value)
        residual = float(np.linalg.norm(r - Z.T @ (Z @ r)))
        assert abs(res.residual_norm - residual) <= 1e-12 * float(np.linalg.norm(b))


def test_assembly_decomposes_no_matrix_larger_than_a_parity_block(preset, monkeypatch):
    eigh = np.linalg.eigh
    for kind, degree, d1, domain in SYMMETRIC_CASES:
        space = build_space(kind, degree, domain, degree1d=d1)
        largest = max(len(b) for b in space.parity_blocks)
        assert largest < space.dim
        sizes = []

        def refuse(a, *args, **kwargs):
            if a.shape[0] > largest:
                raise AssertionError(f"eigh of a {a.shape[0]}-row matrix, past the "
                                     f"largest parity block ({largest} rows)")
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        assemble(space, preset if domain is CYL else BALL_PROFILE)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert sorted(sizes) == sorted(len(b) for b in space.parity_blocks)


def test_gram_mirror_keeps_the_bits_of_the_summed_mirror():
    # each block entry is summed once, on or above the diagonal, and written
    # to its mirror image too: every block is its upper triangle mirrored
    for kind, degree, d1 in KINDS:
        for parts in _grams(build_space(kind, degree, CYL, degree1d=d1))[0]:
            for X in parts:
                assert np.array_equal(X, X.T)
                assert np.array_equal(X, np.triu(X) + np.triu(X, 1).T)


def test_kernel_matches_rigid_dimension(preset):
    for kind, degree, d1, expected in (
        ("full", 2, None, 6),
        ("ansatz_k", 4, 2, 4),
        ("div_free", 3, None, 6),
    ):
        space = build_space(kind, degree, CYL, degree1d=d1)
        system = assemble(space, preset)
        assert system.kernel.shape[0] == expected
        scale = float(np.linalg.norm(system.A))
        for vec in system.rigid:
            assert float(np.linalg.norm(system.A @ vec)) < 1e-9 * scale


def test_strain_free_space_is_all_kernel(preset):
    # ansatz_k at degree 1 with constant axial rows holds the three translations alone
    system = assemble(build_space("ansatz_k", 1, CYL, degree1d=0), preset)
    assert system.kernel.shape[0] == system.dim == 3
    assert system.kernel_margins == (np.inf, 0.0)
    assert solve_quadratic(system, R=rotation_about_z(-np.pi / 2)).value == 0.0


def test_solve_zero_loads():
    space = build_space("full", 2, CYL)
    system = assemble(space, LoadSpec())
    res = solve_quadratic(system)
    assert res.value == 0.0
    assert np.allclose(res.coefficients, 0.0)


def test_solve_first_variation_identity(preset):
    space = build_space("full", 4, CYL)
    system = assemble(space, preset)
    res = solve_quadratic(system)
    b = system.load_vector()
    assert np.isclose(res.value, -0.5 * float(res.coefficients @ b), rtol=1e-10)


def test_solution_rigid_projection_vanishes(preset):
    space = build_space("full", 4, CYL)
    system = assemble(space, preset)
    res = solve_quadratic(system)
    part = rigid_projection(
        _values(space, res.coefficients, system.rules.volume), system.rules.volume
    )
    assert np.linalg.norm(part.translation) < 1e-10
    assert np.linalg.norm(part.omega) < 1e-10


def test_rotation_form_reproduces_solve_values(preset, rng):
    # m(R) = -vec(R)' Q vec(R) / 2 is the per-rotation solve value: on the
    # kernel axis for the preset, and off it for the full-SO(3) kernel at beta = 0
    cases = (
        (preset, [rotation_about_z(t) for t in (0.0, 0.7, -np.pi / 2)]),
        (LoadSpec.cylinder_preset(beta=0.0), random_rotations(rng, 3)),
    )
    for spec, rotations in cases:
        system = assemble(build_space("full", 6, CYL), spec)
        for R in rotations:
            value = solve_quadratic(system, R=R).value
            form = -0.5 * R.ravel() @ system.rotation_form @ R.ravel()
            assert abs(form - value) <= 1e-14 * abs(value)


def test_ansatz_solve_beats_zero_and_matches_swirl(preset):
    # the swirl-rotated solve in the structured space is strictly negative
    space = build_space("ansatz_k", 8, CYL, degree1d=4)
    system = assemble(space, preset)
    res = solve_quadratic(system, R=rotation_about_z(-np.pi / 2))
    assert res.value < -1e-6


def test_galerkin_monotone_in_degree(preset):
    values = []
    for degree in (4, 6, 8):
        system = assemble(build_space("full", degree, CYL), preset)
        values.append(solve_quadratic(system).value)
    assert values[0] >= values[1] >= values[2] - 1e-12


def test_incompatible_load_vector_raises(preset):
    space = build_space("full", 3, CYL)
    system = assemble(space, preset)
    b = system.load_vector()
    bad = b + 0.5 * system.rigid[0]  # inject work on a translation
    with pytest.raises(SolverError, match="rigid translation"):
        solve_quadratic(system, b=bad)
    bad = b + 0.5 * system.rigid[5]  # and on the spin about z
    with pytest.raises(SolverError, match="rigid infinitesimal rotation"):
        solve_quadratic(system, b=bad)


@pytest.mark.parametrize("kind,degree,d1", [
    ("full", 2, None), ("div_free", 3, None), ("ansatz_k", 1, 2), ("ansatz_k", 4, 2)])
def test_rigid_spins_are_the_rigid_rows_with_a_gradient(kind, degree, d1):
    # a rigid translation has a zero gradient, a unit spin a skew one of norm sqrt(2)
    space = build_space(kind, degree, CYL, degree1d=d1)
    grads = _gradients(space, space.rigid_coefficients().T, volume_quadrature(CYL, 4))
    size = np.max(np.abs(grads), axis=(1, 2, 3))
    assert np.all((size > 0.5) == space.rigid_spins)
    assert np.all(size[~space.rigid_spins] < 1e-12)


def test_degree6_value_is_the_containment_limit(preset):
    # the degree-6 full space cannot represent the degree-7 minimizer; its
    # best value is exactly 14/15 of the true one
    system = assemble(build_space("full", 6, CYL), preset)
    value = solve_quadratic(system).value
    from traction_gap.limits import explicit_minimizers

    exact = explicit_minimizers(preset).min_linear_value
    assert abs(value - exact) / abs(exact) == pytest.approx(1.0 / 15.0, abs=2e-4)
