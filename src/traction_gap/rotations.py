"""3D rotations from axis vectors, nearest-rotation projection, and the
quadratic-to-p-growth coercivity profile.

Matrix arguments are plain (3, 3) float64 numpy arrays; ``skew_from_axis``
and ``exp_so3`` also take stacks of axis vectors (..., 3), and
``nearest_rotation`` stacks of matrices (..., 3, 3).
"""

from __future__ import annotations

import numpy as np

IDENTITY = np.eye(3)


def skew_from_axis(omega: np.ndarray) -> np.ndarray:
    """Skew matrix W with W x = omega x x, over any leading axes."""
    omega = np.asarray(omega, dtype=float)
    wx, wy, wz = omega[..., 0], omega[..., 1], omega[..., 2]
    W = np.zeros(omega.shape + (3,))
    W[..., 0, 1], W[..., 0, 2], W[..., 1, 2] = -wz, wy, -wx
    W[..., 1, 0], W[..., 2, 0], W[..., 2, 1] = wz, -wy, wx
    return W


def _rodrigues(W: np.ndarray, theta: float) -> np.ndarray:
    """exp(theta W) = I + sin(theta) W + (1 - cos(theta)) W^2 for |W|^2 = 2."""
    return IDENTITY + np.sin(theta) * W + (1.0 - np.cos(theta)) * (W @ W)


def exp_so3(omega: np.ndarray) -> np.ndarray:
    """Exponential map so(3) -> SO(3) of axis-angle vectors, over any leading
    axes: Rodrigues' formula on the unit axis, and below an angle of 1e-12
    the second-order series I + W + W^2 / 2, exact enough there."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega, axis=-1, keepdims=True)
    small = theta < 1e-12
    W = skew_from_axis(omega / np.where(small, 1.0, theta))
    theta, small = theta[..., None], small[..., None]
    return (IDENTITY + np.where(small, 1.0, np.sin(theta)) * W
            + np.where(small, 0.5, 1.0 - np.cos(theta)) * (W @ W))


def rotation_about_z(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def nearest_rotation(F: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Orthogonal Procrustes projection onto SO(3), over any leading axes.

    Returns (R, dist) with R minimizing the Frobenius distance |F - R|,
    equivalently maximizing <R, F>.  A negative-determinant branch is
    handled by flipping the sign of the smallest singular value in the
    reconstruction, i.e. of the last left singular vector.  Each matrix of a
    stack gets the bits of a call on that matrix alone.
    """
    F = np.asarray(F, dtype=float)
    U, _, Vt = np.linalg.svd(F)
    flip = np.linalg.det(U @ Vt) < 0.0
    U[..., :, 2] = np.where(flip[..., None], -U[..., :, 2], U[..., :, 2])
    R = U @ Vt
    D = (F - R).reshape(*F.shape[:-2], 1, 9)
    # a dot product of the flattened difference, as np.linalg.norm takes on one matrix
    dist = np.sqrt(D @ np.swapaxes(D, -1, -2))[..., 0, 0]
    return R, float(dist) if dist.ndim == 0 else dist


def coercivity_profile(t, p: float):
    """Lower-bound profile: t^2 up to t = 1, then (2/p) t^p - 2/p + 1.

    C^1 at the junction and strictly convex for p in (1, 2]; at p = 2 the
    two branches coincide.  Vectorized over t.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("profile argument must be nonnegative")
    out = np.where(t <= 1.0, t * t, (2.0 / p) * t ** p - 2.0 / p + 1.0)
    return float(out) if out.ndim == 0 else out


def rotation_angle(R: np.ndarray) -> float:
    """Rotation angle in [0, pi] of R: cos t = (tr R - 1) / 2 and
    |R - R'| = 2 sqrt(2) sin t, combined by atan2 for accuracy at every t."""
    return float(np.arctan2(np.linalg.norm(R - R.T) / (2.0 * np.sqrt(2.0)),
                            0.5 * (np.trace(R) - 1.0)))


def best_axis_rotation(Y: np.ndarray, axis: np.ndarray) -> tuple[float, np.ndarray]:
    """Angle t and rotation R_t = exp(t W) about the axis maximizing <R_t, Y>.

    <R_t, Y> = <I + W^2, Y> + <W, Y> sin t - <W^2, Y> cos t peaks at
    t = atan2(<W, Y>, -<W^2, Y>).  Since |R_t|^2 = 3, R_t is also the axis
    rotation closest to Y, and Y itself with its angle when Y is one.
    """
    axis = np.asarray(axis, dtype=float)
    W = skew_from_axis(axis / np.linalg.norm(axis))
    t = float(np.arctan2(np.sum(Y * W), -np.sum(Y * (W @ W))))
    return t, _rodrigues(W, t)


def distance_to_axis_rotations(R: np.ndarray, axis: np.ndarray) -> float:
    """Frobenius distance from R to the one-parameter rotation group about axis."""
    return float(np.linalg.norm(R - best_axis_rotation(R, axis)[1]))
