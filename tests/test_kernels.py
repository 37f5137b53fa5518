import numpy as np
import pytest

from traction_gap import _kernels as K
from traction_gap import energy


@pytest.fixture
def batch(rng):
    D = 0.1 * rng.normal(size=(500, 3, 3))
    w = rng.uniform(0.1, 1.0, 500)
    return np.ascontiguousarray(D), np.ascontiguousarray(w)


def test_active_backend_reports():
    assert K.active_backend() == "numpy"


def test_density_sum_matches_reference(batch):
    D, w = batch
    ref = float(np.dot(w, [np.sum(((np.eye(3) + d).T @ (np.eye(3) + d) - np.eye(3)) ** 2)
                           for d in D]))
    assert np.isclose(energy.ksv_density_sum(D, w), ref, rtol=1e-12)


def test_weighted_stress_matches_reference(batch):
    D, w = batch
    F = np.eye(3) + D
    ref = np.stack([wi * 4.0 * f @ (f.T @ f - np.eye(3)) for f, wi in zip(F, w)])
    assert np.allclose(energy.ksv_weighted_stress(D, w), ref, rtol=1e-12)


def test_sym_norm_matches_reference(batch):
    G, w = batch
    ref = float(np.dot(w, [np.sum((0.5 * (g + g.T)) ** 2) for g in G]))
    assert np.isclose(energy.sym_norm_sq_sum(G, w), ref, rtol=1e-12)


def _ref_green(d):
    return d + d.T + d.T @ d


def _ref_stress(d):
    return 4.0 * (np.eye(len(d)) + d) @ _ref_green(d)


def _layouts(rng, shape):
    """A batch of the given shape: contiguous, every other row of a larger
    array, and a transposed view."""
    return [0.3 * rng.normal(size=shape),
            (0.3 * rng.normal(size=(2 * shape[0],) + shape[1:]))[::2],
            np.swapaxes(0.3 * rng.normal(size=shape), -1, -2)]


def _close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(7, 2, 2), (7, 1, 1), (7, 3, 3), (3, 3), (4, 5, 3, 3)])
def test_kernels_match_a_per_matrix_reference_in_every_layout(rng, shape):
    for D in _layouts(rng, shape):
        batch = D.shape[:-2]
        w = rng.uniform(0.1, 1.0, batch)
        index = list(np.ndindex(batch))
        W = np.array([np.sum(_ref_green(D[i]) ** 2) for i in index]).reshape(batch)
        P = np.array([_ref_stress(D[i]) for i in index]).reshape(D.shape)

        _close(energy.ksv_density_sum(D, w), np.sum(w * W))
        _close(energy.ksv_weighted_stress(D, w), w[..., None, None] * P)
        F = np.eye(shape[-1]) + D
        _close(energy.density(F), W)
        _close(energy.density_gradient(F), P)
        if not batch:
            assert isinstance(energy.density(F), float)
