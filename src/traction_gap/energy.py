"""Kirchhoff-Saint-Venant stored energy, written in the displacement gradient.

At F = I + D, W(F) = |F^T F - I|^2 = |C(D)|^2 with C(D) = D + D^T + D^T D,
and dW/dF = 4 F C = 4 (C + D C).  The rescaled energies h^-2 W(I + h G) are
evaluated on D = h G: forming I + h G and subtracting I again would lose
about 1e-16 / h of relative precision.  W vanishes exactly on rotations and
is frame indifferent.  Its Hessian at the identity acts only on symmetric
strains, so the quadratic form is 4 |sym G|^2.  The batch kernels take
(N, k, k) gradients and weights (N,); the nonlinear descent passes the
diagonal blocks of a block-diagonal gradient, since C(D) is block diagonal
with it.
"""

from __future__ import annotations

import numpy as np

QUADRATIC_SCALE = 4.0

_I = np.eye(3)


def _green(D: np.ndarray) -> np.ndarray:
    """C(D) = F^T F - I at F = I + D, batched over leading axes."""
    Dt = np.swapaxes(D, -1, -2)
    return D + Dt + Dt @ D


def _stress(D: np.ndarray) -> np.ndarray:
    """dW/dF = 4 F C(D) at F = I + D."""
    C = _green(D)
    return 4.0 * (C + D @ C)


def _norm_sq(A: np.ndarray) -> np.ndarray | float:
    out = np.einsum("...ij,...ij->...", A, A)
    return float(out) if out.ndim == 0 else out


def strain(gradient: np.ndarray) -> np.ndarray:
    """Symmetric part of a displacement gradient (batched)."""
    g = np.asarray(gradient, dtype=float)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def density(F: np.ndarray) -> np.ndarray | float:
    """|F^T F - I|^2, batched over leading axes."""
    return _norm_sq(_green(np.asarray(F, dtype=float) - _I))


def density_gradient(F: np.ndarray) -> np.ndarray:
    """dW/dF = 4 F (F^T F - I)."""
    return _stress(np.asarray(F, dtype=float) - _I)


def quadratic_form(F: np.ndarray) -> np.ndarray | float:
    """Q(F) = 4 |sym F|^2."""
    return QUADRATIC_SCALE * _norm_sq(strain(F))


def ksv_density_sum(D: np.ndarray, w: np.ndarray) -> float:
    """Weighted sum of W(I + D) = |C(D)|^2 over the batch."""
    return float(np.dot(w, _norm_sq(_green(D))))


def ksv_weighted_stress(D: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-node w * dW/dF at F = I + D, the density gradient scaled by weights."""
    return w[:, None, None] * _stress(D)


def sym_norm_sq_sum(G: np.ndarray, w: np.ndarray) -> float:
    """Weighted sum of |sym G|^2."""
    return float(np.dot(w, _norm_sq(strain(G))))
