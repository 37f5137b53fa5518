import numpy as np
import pytest

from traction_gap import _kernels as K


@pytest.fixture
def batch(rng):
    F = np.eye(3) + 0.1 * rng.normal(size=(500, 3, 3))
    w = rng.uniform(0.1, 1.0, 500)
    return np.ascontiguousarray(F), np.ascontiguousarray(w)


def test_active_backend_reports():
    assert K.active_backend() == "numpy"


def test_density_sum_matches_reference(batch):
    F, w = batch
    ref = float(np.dot(w, [np.sum((f.T @ f - np.eye(3)) ** 2) for f in F]))
    assert np.isclose(K.ksv_density_sum(F, w), ref, rtol=1e-12)


def test_weighted_stress_matches_reference(batch):
    F, w = batch
    ref = np.stack([wi * 4.0 * f @ (f.T @ f - np.eye(3)) for f, wi in zip(F, w)])
    assert np.allclose(K.ksv_weighted_stress(F, w), ref, rtol=1e-12)


def test_sym_norm_matches_reference(batch):
    F, w = batch
    ref = float(np.dot(w, [np.sum((0.5 * (f + f.T)) ** 2) for f in F]))
    assert np.isclose(K.sym_norm_sq_sum(F, w), ref, rtol=1e-12)

