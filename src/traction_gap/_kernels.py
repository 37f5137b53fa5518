"""Batch kernels of the finite-strain energy.

Everything here operates on batches of 3x3 matrices laid out as (N, 3, 3)
float64 arrays plus a weight vector (N,): the densities and their
gradients summed or scaled with the quadrature weights, as the nonlinear
descent solver consumes them.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the array backend the kernels run on."""
    return "numpy"


def ksv_density_sum(F: np.ndarray, w: np.ndarray) -> float:
    """Weighted sum of |F^T F - I|^2 over the batch."""
    C = np.einsum("nji,njk->nik", F, F)
    C[:, 0, 0] -= 1.0
    C[:, 1, 1] -= 1.0
    C[:, 2, 2] -= 1.0
    return float(np.dot(w, np.einsum("nij,nij->n", C, C)))


def ksv_weighted_stress(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-node w * 4 F (F^T F - I), the density gradient scaled by weights."""
    C = np.einsum("nji,njk->nik", F, F)
    C[:, 0, 0] -= 1.0
    C[:, 1, 1] -= 1.0
    C[:, 2, 2] -= 1.0
    return (4.0 * w)[:, None, None] * np.einsum("nij,njk->nik", F, C)


def sym_norm_sq_sum(G: np.ndarray, w: np.ndarray) -> float:
    """Weighted sum of |sym G|^2."""
    S = 0.5 * (G + np.swapaxes(G, 1, 2))
    return float(np.dot(w, np.einsum("nij,nij->n", S, S)))
