"""Kirchhoff-Saint-Venant stored energy, written in the displacement gradient.

At F = I + D, W(F) = |F^T F - I|^2 = |C(D)|^2 with C(D) = D + D^T + D^T D,
and dW/dF = 4 F C = 4 (C + D C).  The rescaled energies h^-2 W(I + h G) are
evaluated on D = h G: forming I + h G and subtracting I again would lose
about 1e-16 / h of relative precision.  W vanishes exactly on rotations and
is frame indifferent.  Its Hessian at the identity acts only on symmetric
strains, so the quadratic form is 4 |sym G|^2.  The batch kernels take
(..., k, k) gradients and weights of the batch shape; the nonlinear descent
passes the diagonal blocks of a block-diagonal gradient, since C(D) is block
diagonal with it.  Batches still come in and go out as (..., k, k), but each
call evaluates them entries-first: one contiguous (k, k, ...) copy, on which
C and F C are einsum contractions over the two entry axes with the batch
innermost.  numpy's stacked matmul would run one tiny product per matrix.
"""

from __future__ import annotations

import numpy as np

QUADRATIC_SCALE = 4.0


def _entries_first(D: np.ndarray) -> np.ndarray:
    """One contiguous (k, k, ...) copy of a (..., k, k) batch."""
    n = D.ndim
    return np.ascontiguousarray(D.transpose(n - 2, n - 1, *range(n - 2)))


def _batch_first(E: np.ndarray) -> np.ndarray:
    """The contiguous (..., k, k) copy of an entries-first (k, k, ...) array."""
    n = E.ndim
    return np.ascontiguousarray(E.transpose(*range(2, n), 0, 1))


def _green(E: np.ndarray) -> np.ndarray:
    """C(D) = F^T F - I at F = I + D, both entries-first: E[i, j, ...] = D[..., i, j]."""
    C = E + E.swapaxes(0, 1)
    C += np.einsum("mi...,mj...->ij...", E, E)
    return C


def _stress(E: np.ndarray) -> np.ndarray:
    """dW/dF = 4 F C(D) at F = I + D, entries-first like E."""
    C = _green(E)
    S = np.einsum("im...,mj...->ij...", E, C)
    S += C
    S *= 4.0
    return S


def _ksv(E: np.ndarray) -> np.ndarray:
    """W(I + D) = |C(D)|^2 of each matrix of the entries-first E (batch shape)."""
    C = _green(E)
    return np.einsum("ij...,ij...->...", C, C)


def _norm_sq(A: np.ndarray) -> np.ndarray | float:
    out = np.einsum("...ij,...ij->...", A, A)
    return float(out) if out.ndim == 0 else out


def strain(gradient: np.ndarray) -> np.ndarray:
    """Symmetric part of a displacement gradient (batched)."""
    g = np.asarray(gradient, dtype=float)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _displacement(F: np.ndarray) -> np.ndarray:
    """The entries-first D = F - I of a (..., k, k) deformation gradient."""
    F = np.asarray(F, dtype=float)
    return _entries_first(F - np.eye(F.shape[-1]))


def density(F: np.ndarray) -> np.ndarray | float:
    """|F^T F - I|^2, batched over leading axes."""
    out = _ksv(_displacement(F))
    return float(out) if out.ndim == 0 else out


def density_gradient(F: np.ndarray) -> np.ndarray:
    """dW/dF = 4 F (F^T F - I)."""
    return _batch_first(_stress(_displacement(F)))


def quadratic_form(F: np.ndarray) -> np.ndarray | float:
    """Q(F) = 4 |sym F|^2."""
    return QUADRATIC_SCALE * _norm_sq(strain(F))


def ksv_density_sum(D: np.ndarray, w: np.ndarray) -> float:
    """Weighted sum of W(I + D) = |C(D)|^2 over the batch."""
    return float(np.vdot(w, _ksv(_entries_first(D))))


def ksv_weighted_stress(D: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-node w * dW/dF at F = I + D, the density gradient scaled by weights."""
    S = _stress(_entries_first(D))
    S *= w
    return _batch_first(S)


def sym_norm_sq_sum(G: np.ndarray, w: np.ndarray) -> float:
    """Weighted sum of |sym G|^2."""
    return float(np.dot(w, _norm_sq(strain(G))))
