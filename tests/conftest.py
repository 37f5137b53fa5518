import numpy as np
import pytest

from traction_gap.geometry import Domain, volume_quadrature
from traction_gap.loads import LoadSpec, default_rules

ACCEPTANCE_LINES: list[tuple[int, str]] = []


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


def node_moment(load, rules, values, surf=None, surface_values=None):
    """sum w f (x) v over the volume nodes, plus sum w_s g (x) v_s over the
    nodes of the surface rule ``surf`` for a pressure load: the explicit node
    sums every factor sum is checked against.  Leading axes of the values
    broadcast."""
    vol = rules.volume
    Y = np.einsum("n,ni,...nj->...ij", vol.weights, body_force_at(load, vol.points), values)
    if load.has_surface_term:
        g = load.surface_pressure * surf.normals
        Y = Y + np.einsum("n,ni,...nj->...ij", surf.weights, g, surface_values)
    return Y
