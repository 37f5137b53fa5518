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
