# the package first: it sets the BLAS thread count before numpy loads, so the
# suite computes with the threads of every CLI run and recorded report
import traction_gap  # noqa: F401
from dataclasses import dataclass

import numpy as np
import pytest

from traction_gap.geometry import Domain, QuadratureRule, gauss_legendre, volume_quadrature
from traction_gap.loads import LoadSpec, default_rules

ACCEPTANCE_LINES: list[tuple[int, str]] = []

# phi(r) = q(r^2), q(s) = 40 s^4 - 60 s^3 - 9 s^2 + 38 s - 9: an even degree-8
# member of the two-parameter admissible family, phi(1) = phi'(1) = 0 and
# integral_0^1 r^2 phi'(r) dr = 0
PHI_DEGREE_8 = (-9.0, 0.0, 38.0, 0.0, -9.0, 0.0, -60.0, 0.0, 40.0)
# loads for the checks of the incompressible dual bound: the preset at three
# axial strengths beta, and PHI_DEGREE_8 with psi = beta (z - 1/2)
DUAL_BOUND_LOADS = [pytest.param(LoadSpec.cylinder_preset(beta=b), id=str(b))
                    for b in (0.01, 0.0, 3.0)] + [
    pytest.param(LoadSpec(phi_coeffs=PHI_DEGREE_8, psi_coeffs=(-0.5 * b, b) if b else ()),
                 id=f"degree8-{b}") for b in (0.0, 0.3)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for _, line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def preset():
    return LoadSpec.cylinder_preset(beta=0.01)


@pytest.fixture(scope="session")
def preset_rules(preset):
    return default_rules(preset, order=12)


@pytest.fixture(scope="session")
def cylinder_rule():
    return volume_quadrature(Domain.cylinder(), 10)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_rotations(rng, n):
    from traction_gap.rotations import exp_so3

    return [exp_so3(rng.uniform(-np.pi, np.pi, 3)) for _ in range(n)]


def body_force_at(load, points):
    """The body force at (N, 3) points, straight from the load's definition:
    (phi'(r) x / r, phi'(r) y / r, psi(z)), or -x for the ball's pull-in load."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if load.builtin is not None:
        return -points
    x, y, z = points.T
    r = np.hypot(x, y)
    ratio = np.divide(load.phi.deriv()(r), r, out=np.zeros_like(r), where=r > 0.0)
    return np.stack([ratio * x, ratio * y, load.psi(z)], axis=1)


def _node_sum(weights, forces, values):
    """sum_n w_n f_n (x) v_n with the nodes on a contiguous last axis, which
    numpy sums pairwise: its round-off stays near eps at order 32's 67584
    ball nodes, where a running sum is off by 1e-14 relative."""
    terms = np.einsum("n,ni,...nj->...ijn", weights, forces, values)
    return np.ascontiguousarray(terms).sum(axis=-1)


def node_moment(load, rules, values, surf=None, surface_values=None):
    """sum w f (x) v over the volume nodes, plus sum w_s g (x) v_s over the
    nodes of the surface rule ``surf`` for a pressure load: the explicit node
    sums every factor sum is checked against.  Leading axes of the values
    broadcast."""
    vol = rules.volume
    Y = _node_sum(vol.weights, body_force_at(load, vol.points), values)
    if load.has_surface_term:
        Y = Y + _node_sum(surf.weights, load.surface_pressure * surf.normals, surface_values)
    return Y


@dataclass(frozen=True)
class SurfaceRule(QuadratureRule):
    normals: np.ndarray | None = None  # (N, 3) outward units


def surface_quadrature(domain, order: int) -> SurfaceRule:
    """Lateral wall plus both caps of the cylinder, with outward normals: 2n
    uniform angles times n Gauss nodes in z on the wall, and the order-n
    planar rule on each cap.  The oracle of the divergence-theorem work of a
    pressure."""
    if domain.kind != "cylinder":
        raise ValueError("surface quadrature is unsupported for this domain")
    th = np.pi * (np.arange(2 * order) + 0.5) / order
    wt = np.full(th.size, np.pi / order)
    zz, wz = gauss_legendre(order)
    z, wz, a = domain.height * zz, domain.height * wz, domain.radius
    # lateral wall: dH^2 = a dtheta dz, normal (cos, sin, 0)
    T, Z = np.meshgrid(th, z, indexing="ij")
    lat_n = np.stack([np.cos(T).ravel(), np.sin(T).ravel(), np.zeros(T.size)], axis=1)
    lat_pts = np.c_[a * lat_n[:, :2], Z.ravel()]
    lat_w = (a * wt[:, None] * wz[None, :]).ravel()
    # caps: the planar rule at z = 0 (normal -e_z) and z = H (normal +e_z)
    ((px, py, pw), _), = volume_quadrature(domain, order).terms
    ez = np.zeros((pw.size, 3))
    ez[:, 2] = 1.0
    pts = np.concatenate([lat_pts, np.c_[px, py, 0.0 * pw], np.c_[px, py, domain.height + 0.0 * pw]])
    return SurfaceRule(pts, np.concatenate([lat_w, pw, pw]),
                       normals=np.concatenate([lat_n, -ez, ez]), label=f"cylinder-surf-{order}")


def at_points(field, points):
    """(values (N, 3), gradients (N, 3, 3)) of a structured field at 3D
    points, from its planar and axial parts."""
    (v, Gp), (w, dw) = field.planar(points[:, 0], points[:, 1]), field.axial(points[:, 2])
    G = np.zeros((len(points), 3, 3))
    G[:, :2, :2], G[:, 2, 2] = Gp, dw
    return np.c_[v, w], G
