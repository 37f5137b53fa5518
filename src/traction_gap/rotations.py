"""3D rotation parameterizations, nearest-rotation projection, and the
quadratic-to-p-growth coercivity profile.

Matrix arguments are plain (3, 3) float64 numpy arrays; ``nearest_rotation``
also takes stacks (..., 3, 3).  Skew matrices
follow the row convention ``rows (0, a, b), (-a, 0, c), (-b, -c, 0)``; the
rotation generated by such a matrix has axis ``(-c, b, -a)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IDENTITY = np.eye(3)

SKEW_TOL = 1e-12
NORMALIZATION_TOL = 1e-12
UNIT_AXIS_TOL = 1e-14


@dataclass(frozen=True)
class SkewParams:
    """The three free entries (a, b, c) of a skew-symmetric matrix."""

    a: float
    b: float
    c: float

    @property
    def matrix(self) -> np.ndarray:
        return skew_matrix(self.a, self.b, self.c)

    @property
    def rotation_axis(self) -> np.ndarray:
        """Axis omega such that W x = omega x x (unnormalized)."""
        return np.array([-self.c, self.b, -self.a])


@dataclass(frozen=True)
class AxisAngle:
    axis: tuple[float, float, float]
    theta: float

    def __post_init__(self):
        n = float(np.linalg.norm(self.axis))
        if abs(n - 1.0) > UNIT_AXIS_TOL:
            raise ValueError(f"axis must be unit length, |axis| = {n}")

    @property
    def matrix(self) -> np.ndarray:
        return exp_so3(self.theta * np.asarray(self.axis))


def skew_matrix(a: float, b: float, c: float) -> np.ndarray:
    return np.array([[0.0, a, b], [-a, 0.0, c], [-b, -c, 0.0]])


def skew_from_axis(omega: np.ndarray) -> np.ndarray:
    """Skew matrix W with W x = omega x x."""
    wx, wy, wz = omega
    return np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])


def rodrigues(W: np.ndarray, theta: float) -> np.ndarray:
    """Rotation from a skew generator normalized to |W|^2 = 2.

    Rejects non-skew or wrongly normalized input; use :func:`exp_so3` for
    the unnormalized exponential map in optimizer loops.
    """
    W = np.asarray(W, dtype=float)
    if np.max(np.abs(W + W.T)) > SKEW_TOL:
        raise ValueError("rodrigues requires a skew-symmetric generator")
    norm_sq = float(np.sum(W * W))
    if abs(norm_sq - 2.0) > NORMALIZATION_TOL:
        raise ValueError(f"rodrigues requires |W|^2 = 2, got {norm_sq}")
    return _rodrigues(W, theta)


def _rodrigues(W: np.ndarray, theta: float) -> np.ndarray:
    """exp(theta W) = I + sin(theta) W + (1 - cos(theta)) W^2 for |W|^2 = 2."""
    return IDENTITY + np.sin(theta) * W + (1.0 - np.cos(theta)) * (W @ W)


def exp_so3(omega: np.ndarray) -> np.ndarray:
    """Exponential map so(3) -> SO(3) for an arbitrary axis-angle vector."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    if theta < 1e-12:
        W = skew_from_axis(omega)
        # second-order series; exact enough below the branch cut
        return IDENTITY + W + 0.5 * (W @ W)
    return _rodrigues(skew_from_axis(omega / theta), theta)


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
