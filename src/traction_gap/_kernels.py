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


def det3(F: np.ndarray) -> np.ndarray:
    a, b, c = F[:, 0, 0], F[:, 0, 1], F[:, 0, 2]
    d, e, f = F[:, 1, 0], F[:, 1, 1], F[:, 1, 2]
    g, h, i = F[:, 2, 0], F[:, 2, 1], F[:, 2, 2]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det_penalty_sum(F: np.ndarray, w: np.ndarray) -> float:
    """Weighted sum of (det F - 1)^2."""
    d = det3(F) - 1.0
    return float(np.dot(w, d * d))


def det_penalty_weighted_stress(F: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-node w * 2 (det F - 1) cof(F); gradient of (det F - 1)^2."""
    cof = np.empty_like(F)
    a, b, c = F[:, 0, 0], F[:, 0, 1], F[:, 0, 2]
    d, e, f = F[:, 1, 0], F[:, 1, 1], F[:, 1, 2]
    g, h, i = F[:, 2, 0], F[:, 2, 1], F[:, 2, 2]
    cof[:, 0, 0] = e * i - f * h
    cof[:, 0, 1] = f * g - d * i
    cof[:, 0, 2] = d * h - e * g
    cof[:, 1, 0] = c * h - b * i
    cof[:, 1, 1] = a * i - c * g
    cof[:, 1, 2] = b * g - a * h
    cof[:, 2, 0] = b * f - c * e
    cof[:, 2, 1] = c * d - a * f
    cof[:, 2, 2] = a * e - b * d
    det = a * cof[:, 0, 0] + b * cof[:, 0, 1] + c * cof[:, 0, 2]
    return (2.0 * w * (det - 1.0))[:, None, None] * cof


def sym_norm_sq_sum(G: np.ndarray, w: np.ndarray) -> float:
    """Weighted sum of |sym G|^2."""
    S = 0.5 * (G + np.swapaxes(G, 1, 2))
    return float(np.dot(w, np.einsum("nij,nij->n", S, S)))
