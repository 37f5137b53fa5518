"""Polynomial displacement spaces, quadratic assembly, and factorized
minimization.

Space kinds
-----------
* ``full``         -- every displacement component spanned by products of 1D
                      Legendre polynomials on the bounding box with total
                      degree <= degree.
* ``ansatz_k``     -- planar fields (m_y, -m_x, 0) from a 2D scalar potential
                      of total degree <= degree, plus axial fields (0, 0, w(z))
                      with deg w <= degree1d.
* ``ansatz_k_div`` -- the planar (exactly divergence-free) part only.
* ``div_free``     -- curls of polynomial vector potentials of total degree
                      <= degree + 1; exactly divergence-free, rank-deficient
                      by construction (deflated numerically).

The assembled quadratic form is A_ij = 8 * integral of E(b_i) : E(b_j), so
the energy of a coefficient vector c is c'Ac/2 = 4 |E(u)|^2 integrated.  It
is one symmetric rank-k product A = S S' of the six independent, weighted
strain components of every basis field at every node.  Load vectors per
rotation come from precomputed first-moment tensors, one weighted matmul
per quadrature rule: L(R b_k) = <R, T_k>, i.e. b(R) = B vec(R).  One
eigendecomposition of A per system gives its kernel and its pseudo-inverse;
every solve is x = P A^+ b, with P removing the L^2-rigid part of the field
(for ``div_free`` also the redundant directions), which leaves the energy
exact.  Because b is linear in R, the per-rotation minimum is the 9x9
quadratic form m(R) = -vec(R)' Q vec(R) / 2 with Q = B' A^+ B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Domain, QuadratureRule, volume_quadrature, surface_quadrature
from .loads import LoadRules, body_force, surface_force

KERNEL_EIGENVALUE_CUT = 1e-10
COMPATIBILITY_TOL = 1e-8


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    pass


def _legendre_tables(x: np.ndarray, deg: int, lo: float, hi: float, nder: int) -> np.ndarray:
    """Values and derivatives of Legendre P_0..P_deg scaled to [lo, hi].

    Returns (nder+1, deg+1, N); row d holds the d-th derivative.
    """
    t = (2.0 * x - (lo + hi)) / (hi - lo)
    scale = 2.0 / (hi - lo)
    out = np.empty((nder + 1, deg + 1, x.size))
    eye = np.eye(deg + 1)
    for i in range(deg + 1):
        c = eye[i]
        for d in range(nder + 1):
            out[d, i] = np.polynomial.legendre.legval(t, c) * scale ** d
            c = np.polynomial.legendre.legder(c)
    return out


def _total_degree_indices(deg: int, ndim: int) -> list[tuple[int, ...]]:
    if ndim == 2:
        return [(i, j) for i in range(deg + 1) for j in range(deg + 1 - i)]
    return [
        (i, j, k)
        for i in range(deg + 1)
        for j in range(deg + 1 - i)
        for k in range(deg + 1 - i - j)
    ]


@dataclass
class GalerkinSpace:
    kind: str
    domain: Domain
    degree: int
    degree1d: int | None = None
    _tables: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        a = self.domain.radius
        h = self.domain.height if self.domain.kind == "cylinder" else self.domain.radius
        self._box = (a, h)
        if self.kind == "full":
            self._idx = _total_degree_indices(self.degree, 3)
            self.dim = 3 * len(self._idx)
        elif self.kind in ("ansatz_k", "ansatz_k_div"):
            if self.domain.kind != "cylinder":
                raise ValueError("ansatz spaces are cylinder-only")
            self._idx2 = [ij for ij in _total_degree_indices(self.degree, 2) if ij != (0, 0)]
            if self.kind == "ansatz_k":
                self._naxial = (self.degree1d if self.degree1d is not None else 4) + 1
            else:
                self._naxial = 0
            self.dim = len(self._idx2) + self._naxial
        elif self.kind == "div_free":
            idx = _total_degree_indices(self.degree + 1, 3)
            self._idx = [m for m in idx if sum(m) >= 1]
            self.dim = 3 * len(self._idx)
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")

    # -- basis tables -------------------------------------------------

    def tables(self, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
        """(values (K,N,3), gradients (K,N,3,3)) at the rule's nodes."""
        key = id(rule)
        hit = self._tables.get(key)
        if hit is not None and hit[0] is rule:
            return hit[1], hit[2]
        vals, grads = self._build_tables(rule)
        self._tables[key] = (rule, vals, grads)
        return vals, grads

    def _build_tables(self, rule: QuadratureRule):
        pts = rule.points
        N = pts.shape[0]
        a, h = self._box
        K = self.dim
        vals = np.zeros((K, N, 3))
        grads = np.zeros((K, N, 3, 3))
        if self.kind in ("full", "div_free"):
            deg = self.degree if self.kind == "full" else self.degree + 1
            nder = 1 if self.kind == "full" else 2
            zlo = 0.0 if self.domain.kind == "cylinder" else -h
            Lx = _legendre_tables(pts[:, 0], deg, -a, a, nder)
            Ly = _legendre_tables(pts[:, 1], deg, -a, a, nder)
            Lz = _legendre_tables(pts[:, 2], deg, zlo, h, nder)
            nscal = len(self._idx)
            sval = np.empty((nscal, N))
            sgrad = np.empty((nscal, N, 3))
            for m, (i, j, k) in enumerate(self._idx):
                sval[m] = Lx[0, i] * Ly[0, j] * Lz[0, k]
                sgrad[m, :, 0] = Lx[1, i] * Ly[0, j] * Lz[0, k]
                sgrad[m, :, 1] = Lx[0, i] * Ly[1, j] * Lz[0, k]
                sgrad[m, :, 2] = Lx[0, i] * Ly[0, j] * Lz[1, k]
            if self.kind == "full":
                for c in range(3):
                    vals[c * nscal:(c + 1) * nscal, :, c] = sval
                    grads[c * nscal:(c + 1) * nscal, :, c, :] = sgrad
            else:
                shess = np.empty((nscal, N, 3, 3))
                for m, (i, j, k) in enumerate(self._idx):
                    shess[m, :, 0, 0] = Lx[2, i] * Ly[0, j] * Lz[0, k]
                    shess[m, :, 1, 1] = Lx[0, i] * Ly[2, j] * Lz[0, k]
                    shess[m, :, 2, 2] = Lx[0, i] * Ly[0, j] * Lz[2, k]
                    sxy = Lx[1, i] * Ly[1, j] * Lz[0, k]
                    sxz = Lx[1, i] * Ly[0, j] * Lz[1, k]
                    syz = Lx[0, i] * Ly[1, j] * Lz[1, k]
                    shess[m, :, 0, 1] = shess[m, :, 1, 0] = sxy
                    shess[m, :, 0, 2] = shess[m, :, 2, 0] = sxz
                    shess[m, :, 1, 2] = shess[m, :, 2, 1] = syz
                # field = grad(m) x e_c, components (grad m x e_c)_i = eps_ijc d_j m:
                # +d_{c+2} m in slot c+1, -d_{c+1} m in slot c+2; gradient rows
                # are the matching Hessian rows
                for c in range(3):
                    sl = slice(c * nscal, (c + 1) * nscal)
                    i, j = (c + 1) % 3, (c + 2) % 3
                    vals[sl, :, i] = sgrad[:, :, j]
                    vals[sl, :, j] = -sgrad[:, :, i]
                    grads[sl, :, i] = shess[:, :, j]
                    grads[sl, :, j] = -shess[:, :, i]
        else:
            d2 = self.degree
            Lx = _legendre_tables(pts[:, 0], d2, -a, a, 2)
            Ly = _legendre_tables(pts[:, 1], d2, -a, a, 2)
            for m, (i, j) in enumerate(self._idx2):
                vals[m, :, 0] = Lx[0, i] * Ly[1, j]
                vals[m, :, 1] = -Lx[1, i] * Ly[0, j]
                grads[m, :, 0, 0] = Lx[1, i] * Ly[1, j]
                grads[m, :, 0, 1] = Lx[0, i] * Ly[2, j]
                grads[m, :, 1, 0] = -Lx[2, i] * Ly[0, j]
                grads[m, :, 1, 1] = -Lx[1, i] * Ly[1, j]
            if self._naxial:
                Lz = _legendre_tables(pts[:, 2], self._naxial - 1, 0.0, h, 1)
                base = len(self._idx2)
                for k in range(self._naxial):
                    vals[base + k, :, 2] = Lz[0, k]
                    grads[base + k, :, 2, 2] = Lz[1, k]
        return vals, grads

    def evaluate(self, coeffs: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        vals, _ = self.tables(rule)
        return np.tensordot(coeffs, vals, axes=(0, 0))

    def gradients(self, coeffs: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        _, grads = self.tables(rule)
        return np.tensordot(coeffs, grads, axes=(0, 0))

    # -- rigid displacements ------------------------------------------

    def rigid_coefficients(self) -> np.ndarray | None:
        """Exact coefficient vectors of the representable rigid fields.

        None for ``div_free``, where the null space (rigid plus redundant
        combinations) is detected numerically instead.
        """
        a, h = self._box
        if self.kind == "full":
            nscal = len(self._idx)
            pos = {m: n for n, m in enumerate(self._idx)}
            zlo = 0.0 if self.domain.kind == "cylinder" else -h
            # coordinate expansions in the scaled Legendre family
            #   x = a P1(x/a);  z = mid + half * P1(.) on [zlo, h]
            zmid, zhalf = 0.5 * (zlo + h), 0.5 * (h - zlo)
            vecs = np.zeros((6, self.dim))
            for c in range(3):  # translations
                vecs[c, c * nscal + pos[(0, 0, 0)]] = 1.0
            # spin about x: (0, -z, y)
            vecs[3, 1 * nscal + pos[(0, 0, 0)]] = -zmid
            vecs[3, 1 * nscal + pos[(0, 0, 1)]] = -zhalf
            vecs[3, 2 * nscal + pos[(0, 1, 0)]] = a
            # spin about y: (z, 0, -x)
            vecs[4, 0 * nscal + pos[(0, 0, 0)]] = zmid
            vecs[4, 0 * nscal + pos[(0, 0, 1)]] = zhalf
            vecs[4, 2 * nscal + pos[(1, 0, 0)]] = -a
            # spin about z: (-y, x, 0)
            vecs[5, 0 * nscal + pos[(0, 1, 0)]] = -a
            vecs[5, 1 * nscal + pos[(1, 0, 0)]] = a
            return vecs
        if self.kind in ("ansatz_k", "ansatz_k_div"):
            pos = {m: n for n, m in enumerate(self._idx2)}
            rows = []
            tx = np.zeros(self.dim)
            tx[pos[(0, 1)]] = a  # potential y -> field (1, 0, 0)
            rows.append(tx)
            ty = np.zeros(self.dim)
            ty[pos[(1, 0)]] = -a  # potential -x -> field (0, 1, 0)
            rows.append(ty)
            if self.degree >= 2:
                spin = np.zeros(self.dim)
                # potential -(x^2+y^2)/2 -> field (-y, x, 0); x^2 = a^2 (2 P2 + 1)/3
                spin[pos[(2, 0)]] = -(a * a) / 3.0
                spin[pos[(0, 2)]] = -(a * a) / 3.0
                rows.append(spin)
            if self._naxial:
                tz = np.zeros(self.dim)
                tz[len(self._idx2)] = 1.0
                rows.append(tz)
            return np.stack(rows)
        return None

    def recommended_order(self, nonlinear: bool = False) -> int:
        """Quadrature order making the assembled integrands exact.

        Field degree d gives stiffness integrands of polynomial degree
        2(d-1) (quartic in the nonlinear energy); the radial Gauss rule of
        order n is exact through degree 2n-1 and the angular rule carries
        2n nodes (harmonics through 2n-1).
        """
        if self.kind in ("full", "div_free"):
            fdeg = self.degree
        else:
            fdeg = max(self.degree - 1, (self._naxial - 1) if self._naxial else 1)
        if nonlinear:
            return max(2 * fdeg + 2, 12)
        return max(fdeg + 2, 10)


def strain(gradient: np.ndarray) -> np.ndarray:
    """Symmetric part of a displacement gradient (batched)."""
    g = np.asarray(gradient, dtype=float)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def build_space(kind: str, degree: int, domain: Domain, degree1d: int | None = None) -> GalerkinSpace:
    return GalerkinSpace(kind=kind, domain=domain, degree=degree, degree1d=degree1d)


@dataclass
class StiffnessSystem:
    space: GalerkinSpace
    rules: LoadRules
    A: np.ndarray
    load_moments: np.ndarray  # (K, 3, 3); b_k(R) = <R, T_k>
    kernel: np.ndarray  # orthonormal rows spanning ker A
    rigid: np.ndarray | None  # exact rigid coefficient vectors
    pinv: np.ndarray  # A^+, zero on ker A
    projector: np.ndarray  # P = I - (L^2-rigid fit), built once per system
    rotation_form: np.ndarray  # (9, 9) Q = B' A^+ B, where b(R) = B vec(R)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def load_vector(self, R: np.ndarray | None = None) -> np.ndarray:
        if R is None:
            R = np.eye(3)
        return np.einsum("kij,ij->k", self.load_moments, R)


def _principal_angle(U: np.ndarray, V: np.ndarray) -> float:
    """Largest principal angle (radians) between two row-spans."""
    qu = np.linalg.qr(U.T)[0]
    qv = np.linalg.qr(V.T)[0]
    s = np.linalg.svd(qu.T @ qv, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def _factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(orthonormal kernel rows, pseudo-inverse) of a symmetric PSD matrix.

    One eigendecomposition; eigenvalues below KERNEL_EIGENVALUE_CUT times the
    largest (floored at 1) count as the kernel.
    """
    eigvals, V = np.linalg.eigh(M)
    keep = eigvals > KERNEL_EIGENVALUE_CUT * max(eigvals[-1], 1.0)
    return V[:, ~keep].T.copy(), (V[:, keep] / eigvals[keep]) @ V[:, keep].T


def _rigid_projector(space: GalerkinSpace, rule: QuadratureRule,
                     basis: np.ndarray) -> np.ndarray:
    """P with P x = x minus the L^2-closest field spanned by the basis rows.

    The basis fields carry no strain, so P leaves the energy unchanged.
    """
    vals, _ = space.tables(rule)
    flat = vals.reshape(space.dim, -1)  # (K, 3N)
    F = ((basis @ flat) * np.repeat(rule.weights, 3)) @ flat.T  # <basis field a, b_k>
    G = F @ basis.T  # L^2 Gram matrix of the basis fields
    return np.eye(space.dim) - basis.T @ np.linalg.lstsq(G, F, rcond=None)[0]


def _strain_gram(space: GalerkinSpace, rule: QuadratureRule) -> np.ndarray:
    """A_kl = 8 * sum_n w_n E(b_k) : E(b_l) at the rule's nodes.

    8 E:E' = 8 sum_i g_ii g'_ii + 4 sum_{i<j} (g_ij + g_ji)(g'_ij + g'_ji), so
    the six independent strain components, scaled by sqrt(8w) and sqrt(4w),
    form one (K, 6N) table S with A = S S'.  numpy evaluates S @ S.T as a
    symmetric rank-k update: half the flops of a general product, and an
    exactly symmetric result.
    """
    _, grads = space.tables(rule)
    K, N = space.dim, len(rule)
    s8, s4 = np.sqrt(8.0 * rule.weights), np.sqrt(4.0 * rule.weights)
    S = np.empty((K, 6, N))
    for row, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        np.multiply(grads[:, :, row, row], s8, out=S[:, row])
        np.add(grads[:, :, i, j], grads[:, :, j, i], out=S[:, 3 + row])
        S[:, 3 + row] *= s4
    S = S.reshape(K, 6 * N)
    return S @ S.T


def load_moments(space: GalerkinSpace, load, rules: LoadRules) -> np.ndarray:
    """(K, 3, 3) tensors T_k with L(R b_k) = <R, T_k>, by quadrature."""
    vol = rules.volume
    vals, _ = space.tables(vol)
    # T_k[i, j] = sum_n w_n f_i(x_n) b_kj(x_n): one matmul of (3, N) into (K, N, 3)
    moments = (vol.weights[:, None] * body_force(load, vol.points)).T @ vals
    if load.has_surface_term:
        surf = rules.surface
        if surf is None:
            raise AssemblyError("pressure load assembled without a surface rule")
        svals, _ = space.tables(surf)
        moments += (surf.weights[:, None] * surface_force(load, surf.normals)).T @ svals
    return moments


def assemble(
    space: GalerkinSpace,
    load,
    rules: LoadRules | None = None,
) -> StiffnessSystem:
    """Quadratic form, load moments, its factorization and rotation form."""
    if rules is None:
        order = space.recommended_order()
        vol = volume_quadrature(space.domain, order)
        surf = surface_quadrature(space.domain, order) if load.has_surface_term else None
        rules = LoadRules(volume=vol, surface=surf)
    vol = rules.volume
    A = _strain_gram(space, vol)
    moments = load_moments(space, load, rules)
    kernel, pinv = _factor(A)
    nkern = kernel.shape[0]

    rigid = space.rigid_coefficients()
    if rigid is not None:
        if nkern != rigid.shape[0]:
            raise AssemblyError(
                f"numeric kernel dimension {nkern} != analytic rigid dimension "
                f"{rigid.shape[0]}; assembly is inconsistent"
            )
        if _principal_angle(kernel, rigid) > 1e-6:
            raise AssemblyError("numeric kernel does not span the rigid modes")
    projector = _rigid_projector(space, vol, kernel if rigid is None else rigid)
    # Q = B' A^+ B, evaluated as the value x'Ax/2 - x'b at the solutions
    # x = S vec(R), S = P A^+ B: stationary in S, so its round-off enters
    # only to second order and m(R) matches solve_quadratic to round-off
    B = moments.reshape(space.dim, 9)
    S = projector @ (pinv @ B)
    Q = S.T @ B + B.T @ S - S.T @ A @ S
    return StiffnessSystem(
        space=space,
        rules=rules,
        A=A,
        load_moments=moments,
        kernel=kernel,
        rigid=rigid,
        pinv=pinv,
        projector=projector,
        rotation_form=0.5 * (Q + Q.T),
    )


@dataclass
class SolveResult:
    coefficients: np.ndarray
    value: float
    rotation: np.ndarray | None
    residual_norm: float
    iterations: int  # always 0: the solve is a factorized product
    status: str


def solve_quadratic(
    system: StiffnessSystem,
    R: np.ndarray | None = None,
    b: np.ndarray | None = None,
) -> SolveResult:
    """Minimize c'Ac/2 - c'b over the complement of the rigid modes.

    The minimizer is x = P A^+ b: the system's pseudo-inverse, then its
    L^2-rigid projector.
    """
    if b is None:
        b = system.load_vector(R)
    Z = system.kernel
    bn = max(1.0, float(np.linalg.norm(b)))
    overlap = Z @ b
    if overlap.size and float(np.max(np.abs(overlap))) > COMPATIBILITY_TOL * bn:
        k = int(np.argmax(np.abs(overlap)))
        mode = "translation (null-resultant condition)" if _looks_like_translation(
            system, Z[k]
        ) else "infinitesimal rotation (null-momentum condition)"
        raise SolverError(
            f"load vector does work on a rigid {mode}: |Z b| = {abs(overlap[k]):.3e}"
        )
    A = system.A
    x = system.projector @ (system.pinv @ b)
    r = b - A @ x
    return SolveResult(
        coefficients=x,
        value=0.5 * float(x @ A @ x) - float(x @ b),
        rotation=None if R is None else np.asarray(R, dtype=float),
        residual_norm=float(np.linalg.norm(r - Z.T @ (Z @ r))),
        iterations=0,
        status="factorized",
    )


def _looks_like_translation(system: StiffnessSystem, z: np.ndarray) -> bool:
    vals = system.space.evaluate(z, system.rules.volume)
    mean = system.rules.volume.weights @ vals / np.sum(system.rules.volume.weights)
    return float(np.linalg.norm(mean)) > 1e-6
