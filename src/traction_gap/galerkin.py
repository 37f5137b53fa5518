"""Polynomial displacement spaces, quadratic assembly, and factorized
minimization.

Space kinds
-----------
* ``full``         -- every displacement component spanned by products of 1D
                      Legendre polynomials on the bounding box with total
                      degree <= degree.
* ``ansatz_k``     -- planar fields (m_y, -m_x, 0) from a 2D scalar potential
                      of total degree <= degree, plus axial fields (0, 0, w(z))
                      with deg w <= degree1d (default 4).

The divergence-free fields of degree <= d, 3 C(d+3, 3) - C(d+2, 3) of them,
are no space kind of their own but the kernel of div inside ``full``:
``divergence_free`` restricts an assembled ``full`` system to it, parity
block by parity block, on an orthonormal basis N of each block's kernel.

The assembled quadratic form is A_ij = 8 * integral of E(b_i) : E(b_j), so
the energy of a coefficient vector c is c'Ac/2 = 4 |E(u)|^2 integrated.
Every basis value and gradient entry is +-P * Z, a planar factor
d^nx L_i(x) d^ny L_j(y) times an axial factor d^nz L_k(z) of scaled Legendre
polynomials.  Every volume rule is a sum of tensor terms, a planar (r, theta)
rule times a Gauss rule in z (one term on the cylinder, one per mirror pair
of z slices on the ball), so this is sum factorization: every entry of A and
of the L^2 Gram matrix M is a sum over the terms of a planar Gram entry times
an axial one, gathered from small Gram matrices of 1D tables; no (K, N) table
of the volume nodes is built, and only entries inside a parity block (below)
are gathered, straight into per-block storage, so no K x K A or M is formed.
A pressure's work is the volume integral of div v, so the load moments too
are factor sums, and node tables remain only in ``tables``, for checks.  The
nonlinear context tabulates its ansatz space on the cylinder's two factors.
The default rules are the lowest order exact for fields of degree f: the L^2 Gram matrix has degree 2f (A has 2f - 2), the
work the forces' degree + f.  Load vectors per rotation come from
precomputed first-moment tensors: L(R b_k) = <R, T_k>, i.e. b(R) = B vec(R).
Both domains and every bounding box are symmetric under the mirrors x -> -x,
y -> -y and z about mid-height, E:E' and the L^2 product are isotropic, and
every basis row has a definite parity under each mirror; so A and M couple
only rows of one parity class, eight classes in all (``parity_blocks``; the
symmetry-adapted block diagonalization of Fassler & Stiefel, 1992).  One
eigendecomposition per block gives the kernel and the blocks of A^+, and the
system keeps only per-block data: the blocks of A and A^+, and a 6 x K rigid
fit.  Every solve, its value and residual, and the rotation form go block by
block, so no K x K array is formed (``StiffnessSystem.A`` embeds one on
demand, for checks).
The symmetry is guarded where assembly relies on it, and a breach past
round-off is an AssemblyError: a planar Gram entry of a term between factors
of different (x, y) parity, an axial one between different z parities, or a
row whose slots disagree on their parity.  Every
space carries exact coefficient rows of its rigid fields, and a restriction
their products with N, exact to round-off; the kernel must have their count
and span, and every solve is x = P A^+ b, with P removing the L^2-rigid part
of the field, which leaves the energy exact.
Because b is linear in R, the per-rotation minimum is the 9x9 quadratic
form m(R) = -vec(R)' Q vec(R) / 2 with Q = B' A^+ B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Domain, QuadratureRule, exact_order
from .loads import LoadRules, default_rules, factor_forces, force_degree

KERNEL_EIGENVALUE_CUT = 1e-10
# largest entry of a term's planar or axial factor Gram between two parity
# classes, relative to its largest entry; symmetric rules leave round-off
# (<= 1.5e-15) there
PARITY_LEAK_TOL = 1e-12
COMPATIBILITY_TOL = 1e-8


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    pass


def _legendre_tables(x: np.ndarray, deg: int, lo: float, hi: float, nder: int) -> np.ndarray:
    """Values and derivatives of Legendre P_0..P_deg scaled to [lo, hi].

    Returns (nder+1, deg+1, N); row d holds the d-th derivative.  Bonnet's
    recurrence gives the values, P^(d)_{n+1} = P^(d)_{n-1} + (2n+1) P^(d-1)_n
    the derivatives.
    """
    t = (2.0 * x - (lo + hi)) / (hi - lo)
    out = np.zeros((nder + 1, deg + 1, x.size))
    out[0, 0] = 1.0
    for n in range(deg):
        out[0, n + 1] = (2 * n + 1) / (n + 1) * t * out[0, n]
        if n:
            out[0, n + 1] -= n / (n + 1) * out[0, n - 1]
    for d in range(1, nder + 1):
        for n in range(deg):
            out[d, n + 1] = (2 * n + 1) * out[d - 1, n]
            if n:
                out[d, n + 1] += out[d, n - 1]
    for d in range(1, nder + 1):
        out[d] *= (2.0 / (hi - lo)) ** d
    return out


def _planar_products(Lx: np.ndarray, Ly: np.ndarray, factors: np.ndarray, out: np.ndarray):
    """Writes the planar factors d^nx L_i(x) d^ny L_j(y), one per row (nx, ny,
    i, j) of ``factors``, into out from the x and y tables of ``_legendre_tables``."""
    nx, ny, i, j = factors.T
    np.multiply(Lx[nx, i], Ly[ny, j], out=out)


def _runs(labels: np.ndarray) -> list[slice]:
    """The runs of equal entries of a sorted label array, as slices."""
    edges = [0, *(np.flatnonzero(np.diff(labels)) + 1), len(labels)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


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

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        a = self.domain.radius
        if self.domain.kind == "cylinder":
            self._box = (a, 0.0, self.domain.height)  # [-a, a]^2 x [zlo, h]
        else:
            self._box = (a, -a, a)
        if self.kind == "full":
            self._idx = _total_degree_indices(self.degree, 3)
            self.dim = 3 * len(self._idx)
        elif self.kind == "ansatz_k":
            if self.domain.kind != "cylinder":
                raise ValueError("ansatz spaces are cylinder-only")
            self._naxial = (self.degree1d if self.degree1d is not None else 4) + 1
            self._idx2 = [ij for ij in _total_degree_indices(self.degree, 2) if ij != (0, 0)]
            self.dim = len(self._idx2) + self._naxial
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")
        self._separate()

    # -- separable structure ------------------------------------------

    def _families(self) -> list[tuple[np.ndarray, dict]]:
        """The basis as families (scalars (n, 3), slot template).

        Family member k is built from the scalar polynomial L_i(x) L_j(y) L_k(z)
        of its row (i, j, k), scaled Legendre polynomials on the bounding box.
        Its template maps a slot to (sign, derivative (nx, ny, nz) of that
        scalar): slots 0-2 hold the value components, 3 + 3c + d the gradient
        entry d_d u_c, and slots not listed vanish.
        """
        if self.kind == "full":  # component c of the field is the scalar
            unit, ijk = ((1, 0, 0), (0, 1, 0), (0, 0, 1)), np.array(self._idx, dtype=int)
            return [(ijk, {c: (1.0, (0, 0, 0)),
                           **{3 + 3 * c + d: (1.0, unit[d]) for d in range(3)}}) for c in range(3)]
        # potential m -> planar field (m_y, -m_x, 0), constant in z
        pot = np.array([(i, j, 0) for i, j in self._idx2], dtype=int)
        ax = np.array([(0, 0, k) for k in range(self._naxial)], dtype=int)  # fields (0, 0, w(z))
        return [(pot, {0: (1.0, (0, 1, 0)), 1: (-1.0, (1, 0, 0)), 3: (1.0, (1, 1, 0)),
                       4: (1.0, (0, 2, 0)), 6: (-1.0, (2, 0, 0)), 7: (-1.0, (1, 1, 0))}),
                (ax, {2: (1.0, (0, 0, 0)), 11: (1.0, (0, 0, 1))})]

    def _separate(self):
        """Write every basis value and gradient entry as sign * P * Z.

        P is a planar factor d^nx L_i(x) d^ny L_j(y), Z an axial factor
        d^nz L_k(z); the slot arrays (K, 12) hold the sign (0 where the entry
        vanishes) and the indices of both factors.

        Each factor has a parity under the mirror of each of its coordinates,
        (derivative + index) mod 2.  The factors are ordered by it (x + 2y for
        the planar ones), and ``_factor_classes`` holds the runs of planar and
        of axial factors of one parity.  A row's parity class, bit d set when
        the field is odd under the mirror of coordinate d (u(x) -> S u(S x)),
        is the parity of each of its live slots, flipped on the slot's
        component and on its derivative's direction.  A row whose slots
        disagree has no class: AssemblyError.  ``parity_blocks`` lists the
        rows of each non-empty class.
        """
        fams = self._families()
        K = self.dim
        base = 1 + max(2, max(int(ijk.max()) for ijk, _ in fams))  # derivatives <= 2
        sign = np.zeros((K, 12))
        pcode = np.zeros((K, 12), dtype=int)
        zcode = np.zeros((K, 12), dtype=int)
        self._fams = []  # (rows, template)
        row = 0
        for ijk, tmpl in fams:
            rows = slice(row, row + len(ijk))
            e = np.array(list(tmpl))
            sgn, der = (np.array(v) for v in zip(*tmpl.values()))  # (slots,), (slots, 3)
            sign[rows, e] = sgn
            # parity leads each factor's code, so the factors of a class form one run
            odd = (ijk[:, None] + der) % 2
            pcode[rows, e] = np.ravel_multi_index(
                (odd[..., 0] + 2 * odd[..., 1], *der[:, :2].T, ijk[:, :1], ijk[:, 1:2]),
                (4,) + (base,) * 4)
            zcode[rows, e] = np.ravel_multi_index((odd[..., 2], der[:, 2], ijk[:, 2:]),
                                                  (2, base, base))
            self._fams.append((rows, tmpl))
            row += len(ijk)
        live = sign != 0.0
        pidx = np.zeros((K, 12), dtype=int)
        zidx = np.zeros((K, 12), dtype=int)
        pf, pidx[live] = np.unique(pcode[live], return_inverse=True)
        zf, zidx[live] = np.unique(zcode[live], return_inverse=True)
        plane, *planar = np.unravel_index(pf, (4,) + (base,) * 4)
        axial, *axial_factors = np.unravel_index(zf, (2, base, base))
        self._planar_factors = np.stack(planar, axis=1)  # nx, ny, i, j
        self._axial_factors = np.stack(axial_factors, axis=1)  # nz, k
        self._slots = (sign, pidx, zidx)
        self._factor_classes = (_runs(plane), _runs(axial))
        # slot c is u_c, slot 3 + 3c + d is d_d u_c
        flips = np.array([1 << c for c in range(3)]
                         + [(1 << c) ^ (1 << d) for c in range(3) for d in range(3)])
        code = (plane[pidx] + 4 * axial[zidx]) ^ flips
        parity = code[np.arange(K), np.argmax(live, axis=1)]
        clash = np.flatnonzero(np.any(live & (code != parity[:, None]), axis=1))
        if clash.size:
            raise AssemblyError(f"basis row {clash[0]} has slots of different mirror parities; "
                                f"it belongs to no parity block")
        blocks = (np.flatnonzero(parity == n) for n in range(8))
        self.parity_blocks = [b for b in blocks if b.size]
        # the blocks are stored one after another, each as an n x n array
        self._block_offsets = np.cumsum([0] + [len(b) ** 2 for b in self.parity_blocks])

    def _block_pairs(self):
        """Where ``_factored_grams`` gathers and scatters, one family pair
        f <= g at a time (every space is assembled once, so nothing is kept).

        Yields the flat positions, in the blocks' storage, of the (row,
        column) pairs of one parity class on and above the diagonal and of
        their mirror images; and, for the strain pairs and then the mass
        pairs (None where no slot pair is live), the flat indices into the
        planar and axial Gram matrices of each live slot pair, with its
        coefficient.
        """
        _, pidx, zidx = self._slots
        nP, nZ = len(self._planar_factors), len(self._axial_factors)
        sizes, offsets = np.array([len(b) for b in self.parity_blocks]), self._block_offsets
        block, pos = np.empty(self.dim, dtype=np.int8), np.empty(self.dim, dtype=int)
        for n, b in enumerate(self.parity_blocks):
            block[b], pos[b] = n, np.arange(len(b))
        for n, (rf, tf) in enumerate(self._fams):
            for m, (rg, tg) in enumerate(self._fams[n:], start=n):
                same = block[rf, None] == block[None, rg]
                if m == n:
                    same &= np.arange(same.shape[0])[:, None] <= np.arange(same.shape[1])
                r, s = np.divmod(np.flatnonzero(same), same.shape[1])
                r, s = r + rf.start, s + rg.start
                start, width = offsets[block[r]], sizes[block[r]]
                terms = []
                for shift, pairs in ((3, _STRAIN_PAIRS), (0, _MASS_PAIRS)):
                    live = [(scale * tf[e + shift][0] * tg[e2 + shift][0], e + shift, e2 + shift)
                            for e, e2, scale in pairs if e + shift in tf and e2 + shift in tg]
                    if not live:
                        terms.append(None)
                        continue
                    coef, E, E2 = (np.array(v) for v in zip(*live))
                    gp = np.take(pidx[:, E] * nP, r, axis=0) + np.take(pidx[:, E2], s, axis=0)
                    gz = np.take(zidx[:, E] * nZ, r, axis=0) + np.take(zidx[:, E2], s, axis=0)
                    terms.append((gp, gz, coef))
                yield start + pos[r] * width + pos[s], start + pos[s] * width + pos[r], terms

    def _legendre_xy(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The x and y Legendre tables of the planar factors at the points (x, y)."""
        a = self._box[0]
        nx, ny, i, j = self._planar_factors.T
        nder, deg = int(max(nx.max(), ny.max())), int(max(i.max(), j.max()))
        return _legendre_tables(x, deg, -a, a, nder), _legendre_tables(y, deg, -a, a, nder)

    def _planar(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(n_P, n) planar factors at the points (x, y), one parity run at a time."""
        Lx, Ly = self._legendre_xy(x, y)
        out = np.empty((len(self._planar_factors), x.size))
        for run in self._factor_classes[0]:
            _planar_products(Lx, Ly, self._planar_factors[run], out[run])
        return out

    def _axial(self, z: np.ndarray) -> np.ndarray:
        """(n_Z, n) axial factors at the heights z."""
        _, zlo, h = self._box
        nz, k = self._axial_factors.T
        return _legendre_tables(z, int(k.max()), zlo, h, int(nz.max()))[nz, k]

    # -- basis tables at the nodes --------------------------------------

    def tables(self, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
        """(values (K,N,3), gradients (K,N,3,3)) at the rule's nodes, from the
        separable slots."""
        sign, pidx, zidx = self._slots
        pts = rule.points
        P, Z = self._planar(pts[:, 0], pts[:, 1]), self._axial(pts[:, 2])
        out = np.empty((self.dim, len(rule), 12))
        for e in range(12):
            np.multiply(P[pidx[:, e]] * sign[:, e, None], Z[zidx[:, e]], out=out[:, :, e])
        return out[..., :3], out[..., 3:].reshape(self.dim, -1, 3, 3)

    def factor_tables(self, rule: QuadratureRule):
        """Planar (values (K_P, N_P, 2), gradients (K_P, N_P, 2, 2)) and axial
        (values (K_A, N_z), slopes (K_A, N_z)) tables of an ``ansatz_k``
        space on a tensor rule: potential rows are in-plane and constant in
        z (axial factor L_0), axial rows (0, 0, w(z)) constant in the plane.
        Each slot is formed from the 1D tables straight into its place in the
        preallocated output, so no table of all planar factors is built;
        gradient entry [c, d] is d_d u_c."""
        if self.kind != "ansatz_k":
            raise ValueError(f"factor tables exist only for ansatz_k spaces, not {self.kind!r}")
        if len(rule.terms) != 1:
            raise ValueError(f"rule {rule.label!r} is not one product of planar and axial factors")
        ((px, py, _), (z, _)), = rule.terms
        sign, pidx, zidx = self._slots
        rows_p, rows_a = slice(0, len(self._idx2)), slice(len(self._idx2), self.dim)
        inplane = [0, 1, 3, 4, 6, 7]  # u_x, u_y, then d_d u_c for c, d in (x, y)
        axial = [2, 11]  # u_z and d_z u_z
        for breach, what in (
            (np.delete(sign[rows_p], inplane, 1), "potential row has a live out-of-plane slot"),
            (np.delete(sign[rows_a], axial, 1), "axial row has a live slot besides u_z, d_z u_z"),
            (self._axial_factors[zidx[rows_p][:, inplane]], "potential row varies in z"),
            (self._planar_factors[pidx[rows_a][:, axial]], "axial row varies in the plane"),
        ):
            if breach.any():
                raise AssemblyError(f"a {what}; the space does not split into planar and "
                                    f"axial factors")
        Lx, Ly = self._legendre_xy(px, py)
        values = np.empty((rows_p.stop, px.size, 2))
        grads = np.empty((rows_p.stop, px.size, 2, 2))
        outs = [values[..., c] for c in range(2)] + [grads[..., c, d] for c in range(2)
                                                     for d in range(2)]
        for e, out in zip(inplane, outs):
            _planar_products(Lx, Ly, self._planar_factors[pidx[rows_p, e]], out)
            out *= sign[rows_p, e, None]
        Z = self._axial(z)
        return (values, grads), tuple(sign[rows_a, e, None] * Z[zidx[rows_a, e]] for e in axial)

    # -- rigid displacements ------------------------------------------

    def rigid_coefficients(self) -> np.ndarray:
        """Exact coefficient vectors of the representable rigid fields.

        ``full`` carries all six (translations along x, y, z, then spins
        about x, y, z); ``ansatz_k`` its planar translations, the spin about
        z when the degree allows it, and the axial translation.
        """
        a, zlo, h = self._box
        # coordinate expansions in the scaled Legendre family
        #   x = a P1(x/a);  z = mid + half * P1(.) on [zlo, h]
        zmid, zhalf = 0.5 * (zlo + h), 0.5 * (h - zlo)
        if self.kind == "full":
            nscal = len(self._idx)
            pos = {m: n for n, m in enumerate(self._idx)}
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
        pos = {m: n for n, m in enumerate(self._idx2)}  # ansatz_k
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
        tz = np.zeros(self.dim)
        tz[len(self._idx2)] = 1.0
        rows.append(tz)
        return np.stack(rows)

    @property
    def rigid_spins(self) -> np.ndarray:
        """Which rows of ``rigid_coefficients`` are spins; the others are translations."""
        if self.kind == "full":
            return np.arange(6) >= 3
        return np.array([False, False] + [True] * (self.degree >= 2) + [False])

    @property
    def field_degree(self) -> int:
        """Total degree of the space's fields; ``ansatz_k``'s planar fields
        are derivatives of their potentials."""
        if self.kind == "full":
            return self.degree
        return max(self.degree - 1, self._naxial - 1)


def build_space(kind: str, degree: int, domain: Domain, degree1d: int | None = None) -> GalerkinSpace:
    return GalerkinSpace(kind=kind, domain=domain, degree=degree, degree1d=degree1d)


@dataclass
class StiffnessSystem:
    space: GalerkinSpace
    rules: LoadRules
    blocks: list[np.ndarray]  # the rows of each parity block
    stiffness: list[np.ndarray]  # parity blocks of A, on the rows ``blocks``
    load_moments: np.ndarray  # (K, 3, 3); b_k(R) = <R, T_k>
    kernel: np.ndarray  # orthonormal rows spanning ker A
    kernel_margins: tuple[float, float]  # (smallest kept, largest dropped eigenvalue) / cut
    rigid: np.ndarray  # rigid coefficient vectors, spanning ker A
    pinv: list[np.ndarray]  # parity blocks of A^+, zero on ker A
    rigid_fit: np.ndarray  # H = G^-1 F: rigid' (H x) is the L^2-closest rigid field to x
    rotation_form: np.ndarray  # (9, 9) Q = B' A^+ B, where b(R) = B vec(R)
    # None when the rows are the space's; else per block an orthonormal N whose
    # columns are the space's coefficients, on space.parity_blocks, of its rows
    basis: list[np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return len(self.load_moments)

    @property
    def A(self) -> np.ndarray:
        """The dense stiffness matrix, embedded from its blocks on each call."""
        return self.embed(self.stiffness)

    def embed(self, mats: list[np.ndarray]) -> np.ndarray:
        """The dense K x K matrix with the parity blocks ``mats`` and zeros between them."""
        out = np.zeros((self.dim, self.dim))
        for b, X in zip(self.blocks, mats):
            out[np.ix_(b, b)] = X
        return out

    def load_vector(self, R: np.ndarray | None = None) -> np.ndarray:
        return np.einsum("kij,ij->k", self.load_moments, np.eye(3) if R is None else R)


def _principal_angle(U: np.ndarray, V: np.ndarray) -> float:
    """Largest principal angle (radians) between two row-spans."""
    qu = np.linalg.qr(U.T)[0]
    qv = np.linalg.qr(V.T)[0]
    s = np.linalg.svd(qu.T @ qv, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def _apply(blocks: list[np.ndarray], mats: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with blocks ``mats`` on the rows ``blocks``
    times x, a vector or one column per right-hand side."""
    out = np.empty_like(x, dtype=float)
    for b, X in zip(blocks, mats):
        out[b] = X @ x[b]
    return out


def _minimizer(blocks: list[np.ndarray], pinv: list[np.ndarray], rigid: np.ndarray,
               rigid_fit: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x = P A^+ b block by block, with P x = x - rigid' (rigid_fit x)."""
    x = _apply(blocks, pinv, b)
    return x - rigid.T @ (rigid_fit @ x)


def _refuse_leak(G: np.ndarray, classes: list, what: str):
    """AssemblyError when an entry of G between two of its parity classes
    (index arrays or slices of its rows) exceeds PARITY_LEAK_TOL times the
    largest entry; scanned class row by class row, with no K x K mask."""
    peak = leak = 0.0
    for c in classes:
        rows = np.abs(G[c])
        peak = max(peak, float(rows.max()))
        rows[:, c] = 0.0
        leak = max(leak, float(rows.max()))
    if leak > PARITY_LEAK_TOL * peak:
        raise AssemblyError(f"{what} entry {leak:.3e} couples two parity blocks (largest "
                            f"entry {peak:.3e}): the domain or rule lacks a mirror symmetry")


def _factor(mats: list[np.ndarray],
            blocks: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray], tuple[float, float]]:
    """(orthonormal kernel rows, pseudo-inverse blocks, margins) of a symmetric
    PSD matrix given as its diagonal blocks ``mats`` on the rows ``blocks``.

    One eigendecomposition per block; eigenvalues at or below the cut,
    KERNEL_EIGENVALUE_CUT times the largest over all blocks (floored at 1),
    count as the kernel.  Each block's pseudo-inverse stays a block, and its
    kernel vectors are embedded as rows of length K.  The
    margins are the smallest kept and the largest dropped eigenvalue divided
    by the cut (inf when nothing is kept, 0 when nothing is dropped).
    """
    K = sum(len(b) for b in blocks)
    eigs = [np.linalg.eigh(X) for X in mats]
    cut = KERNEL_EIGENVALUE_CUT * max(max(w[-1] for w, _ in eigs), 1.0)
    kernel, inverses = [np.zeros((0, K))], []
    kept, dropped = np.inf, 0.0
    for b, (w, V) in zip(blocks, eigs):
        keep = w > cut
        inverses.append((V[:, keep] / w[keep]) @ V[:, keep].T)
        if keep.any():
            kept = min(kept, float(w[keep][0] / cut))
        if not keep.all():
            dropped = max(dropped, float(w[~keep][-1] / cut))
            embedded = np.zeros((int(np.count_nonzero(~keep)), K))
            embedded[:, b] = V[:, ~keep].T
            kernel.append(embedded)
    return np.concatenate(kernel), inverses, (kept, dropped)


def _rigid_fit(mass: list[np.ndarray], blocks: list[np.ndarray],
               rigid: np.ndarray) -> np.ndarray:
    """H = G^-1 F, so that rigid' (H x) is the L^2-closest field to x spanned
    by the rigid rows and P x = x - rigid' (H x) removes it.

    ``mass`` holds the parity blocks of the space's L^2 Gram matrix M.  The
    rigid fields are independent, so their own Gram matrix G is SPD; they
    carry no strain, so P leaves the energy unchanged.
    """
    F = np.zeros_like(rigid)  # <rigid field a, b_k> = (rigid M)_ak, block by block
    for b, X in zip(blocks, mass):
        F[:, b] = rigid[:, b] @ X
    return np.linalg.solve(F @ rigid.T, F)


# (slot, slot, scale) pairs with 8 E:E' = 8 sum_i g_ii g'_ii
# + 4 sum_{i<j} (g_ij + g_ji)(g'_ij + g'_ji); gradient slot 3i + j is g_ij
_STRAIN_PAIRS = tuple((3 * i + i, 3 * i + i, 8.0) for i in range(3)) + tuple(
    (3 * a + b, 3 * c + d, 4.0)
    for i, j in ((0, 1), (0, 2), (1, 2))
    for a, b in ((i, j), (j, i))
    for c, d in ((i, j), (j, i))
)
_MASS_PAIRS = tuple((c, c, 1.0) for c in range(3))


def _factored_grams(space: GalerkinSpace,
                    rule: QuadratureRule) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(A blocks, M blocks) on a volume rule, from the planar and axial Gram
    matrices of its terms alone; no entry between two parity blocks is formed.

    Every slot entry is sign * P * Z, so the integral of a product of two
    entries is a sum over the rule's terms of a planar Gram entry times an
    axial one.  For each family pair, ``_block_pairs`` lists the in-block
    (row, column) pairs on and above the diagonal; their entries are signed
    sums, over the live slot pairs of _STRAIN_PAIRS (of _MASS_PAIRS for M), of
    the gathered planar-times-axial sums.  Each sum is written to its position
    and to its mirror image, so every block is exactly symmetric.  The mirrors
    live in the factors: a planar Gram entry of a term between factors of
    different (x, y) parity, or an axial one between different z parities, is
    an AssemblyError, and with the slot labels checked in ``_separate`` this
    bounds every entry between blocks.
    """
    plane, axial = space._factor_classes
    grams = []
    for (px, py, pw), (z, wz) in rule.terms:
        P, Z = space._planar(px, py), space._axial(z)
        P *= np.sqrt(pw)
        Z *= np.sqrt(wz)
        GP, GZ = P @ P.T, Z @ Z.T
        del P, Z
        _refuse_leak(GP, plane, "planar Gram")
        _refuse_leak(GZ, axial, "axial Gram")
        grams.append((GP.ravel(), GZ.ravel()))
    offsets = space._block_offsets
    store = np.zeros((2, offsets[-1]))
    for up, down, terms in space._block_pairs():
        for out, term in zip(store, terms):
            if term is not None:
                gp, gz, coef = term
                vals = sum((GP[gp] * GZ[gz]) @ coef for GP, GZ in grams)
                out[up] = vals
                out[down] = vals
    return tuple([out[lo:hi].reshape(len(b), len(b))
                  for b, lo, hi in zip(space.parity_blocks, offsets, offsets[1:])]
                 for out in store)


def load_moments(space: GalerkinSpace, load, rules: LoadRules) -> np.ndarray:
    """(K, 3, 3) tensors T_k with L(R b_k) = <R, T_k>, by quadrature.

    T_k[i, j] = sum_n w_n f_i(x_n) b_kj(x_n).  On each term of the volume rule
    the force's factors (``loads.factor_forces``) are broadcast to the
    (N_P, N_Z) node values F_i of each component, which are contracted with
    the weighted planar and axial factors, (P w) F_i (Z w)'; each entry is
    gathered from the sum over the terms.  A pressure lambda n adds
    lambda times the integral of d_i b_kj (divergence theorem), the gradient
    slot 3 + 3j + i, gathered from the outer products of the weighted factor
    sums (P w) 1 and (Z w) 1, which are formed only for a pressure load.
    """
    vol = rules.volume
    pressure = load.surface_pressure if load.has_surface_term else 0.0
    Y = S = 0.0
    for term in vol.terms:
        (px, py, pw), (z, wz) = term
        P, Z = space._planar(px, py), space._axial(z)
        P *= pw
        Z *= wz
        fP, fz = factor_forces(load, term)  # broadcast to the (N_P, N_Z, 3) node forces
        F = np.dstack([np.repeat(fP[:, None], wz.size, axis=1), np.tile(fz, (pw.size, 1))])
        Y = Y + np.stack([(P @ F[..., i]) @ Z.T for i in range(3)])
        if pressure:
            S = S + np.outer(P.sum(axis=1), Z.sum(axis=1))
    sign, pidx, zidx = space._slots
    moments = sign[:, None, :3] * Y[:, pidx[:, :3], zidx[:, :3]].transpose(1, 0, 2)
    if pressure:  # the integrated gradient slots as (K, 3, 3) [c, d] = d_d u_c, transposed
        grads = sign[:, 3:] * S[pidx[:, 3:], zidx[:, 3:]]
        moments += pressure * grads.reshape(-1, 3, 3).transpose(0, 2, 1)
    return moments


def _factored(space: GalerkinSpace, rules: LoadRules, blocks: list[np.ndarray],
              stiffness: list[np.ndarray], moments: np.ndarray, rigid: np.ndarray,
              fit: np.ndarray, basis: list[np.ndarray] | None = None) -> StiffnessSystem:
    """The system of stiffness blocks on the rows ``blocks``: their factors,
    whose kernel must have the rigid rows' count and span, and rotation form."""
    kernel, pinv, margins = _factor(stiffness, blocks)
    if kernel.shape[0] != rigid.shape[0]:
        raise AssemblyError(f"numeric kernel dimension {kernel.shape[0]} != analytic rigid "
                            f"dimension {rigid.shape[0]}; assembly is inconsistent")
    if _principal_angle(kernel, rigid) > 1e-6:
        raise AssemblyError("numeric kernel does not span the rigid modes")
    # Q = B' A^+ B, evaluated as the value x'Ax/2 - x'b at the solutions
    # x = S vec(R), S = P A^+ B: stationary in S, so its round-off enters
    # only to second order and m(R) matches solve_quadratic to round-off
    B = moments.reshape(-1, 9)
    S = _minimizer(blocks, pinv, rigid, fit, B)
    Q = S.T @ B + B.T @ S - S.T @ _apply(blocks, stiffness, S)
    return StiffnessSystem(space=space, rules=rules, blocks=blocks, stiffness=stiffness,
                           load_moments=moments, kernel=kernel, kernel_margins=margins,
                           rigid=rigid, pinv=pinv, rigid_fit=fit,
                           rotation_form=0.5 * (Q + Q.T), basis=basis)


def assemble(space: GalerkinSpace, load, rules: LoadRules | None = None) -> StiffnessSystem:
    """Quadratic form, load moments, its factorization and rotation form."""
    if rules is None:
        f = space.field_degree
        rules = default_rules(load, exact_order(max(2 * f, force_degree(load) + f)))
    blocks = space.parity_blocks
    stiffness, mass = _factored_grams(space, rules.volume)
    rigid = space.rigid_coefficients()
    return _factored(space, rules, blocks, stiffness, load_moments(space, load, rules),
                     rigid, _rigid_fit(mass, blocks, rigid))


def _divergence_free_bases(space: GalerkinSpace) -> list[np.ndarray]:
    """Per parity block of a ``full`` space, an orthonormal basis N of the
    coefficients of its divergence-free fields.

    div maps the rows onto the scalar rows of degree <= d - 1, a parity block
    onto those of one parity, so the right singular vectors past their count
    span the block's kernel; d_c (L_i L_j L_k e_c) has the coefficients of
    P_n' (``legder``) along coordinate c, times 2 / (box length)."""
    d, idx = space.degree, np.array(space._idx)
    a, zlo, h = space._box
    low = np.array(_total_degree_indices(d - 1, 3))
    pos = np.zeros((d + 1,) * 3, dtype=int)  # scalar row of each index of degree <= d - 1
    pos[tuple(low.T)] = np.arange(len(low))
    div = np.zeros((len(low), space.dim))
    for c, length in enumerate((2.0 * a, 2.0 * a, h - zlo)):
        der = np.polynomial.legendre.legder(np.eye(d + 1), scl=2.0 / length, axis=0)
        for m, coef in enumerate(der):  # coef[n]: P_m's coefficient in P_n'
            rows = np.flatnonzero(coef[idx[:, c]])
            target = idx[rows]
            target[:, c] = m
            div[pos[tuple(target.T)], c * len(idx) + rows] = coef[idx[rows, c]]
    maps = [div[np.ix_(np.any(div[:, b], axis=1), b)] for b in space.parity_blocks]
    return [np.linalg.svd(D)[2][len(D):].T for D in maps]


def divergence_free(system: StiffnessSystem) -> StiffnessSystem:
    """A ``full`` system restricted to the divergence-free fields of its
    space, block by block (``_divergence_free_bases``): the stiffness blocks
    become N' A N, the load moments N' T, and the rigid rows and the rigid
    fit (rows H x) their products with N.  The rigid fields are divergence
    free, so N N' keeps the rigid rows to round-off, and H N is the
    restricted rigid fit with no mass matrix.  The result is factored and
    its kernel checked like ``assemble``'s."""
    space = system.space
    basis = _divergence_free_bases(space)
    ends = np.cumsum([0] + [N.shape[1] for N in basis])
    blocks = [np.arange(lo, hi) for lo, hi in zip(ends, ends[1:])]

    def restrict(X):  # N' X on every block, along the rows (axis 0) of X
        return np.concatenate([np.tensordot(N, X[b], (0, 0))
                               for b, N in zip(system.blocks, basis)])

    stiffness = [N.T @ A @ N for A, N in zip(system.stiffness, basis)]
    return _factored(space, system.rules, blocks, [0.5 * (X + X.T) for X in stiffness],
                     restrict(system.load_moments), restrict(system.rigid.T).T,
                     restrict(system.rigid_fit.T).T, basis)


@dataclass
class SolveResult:
    coefficients: np.ndarray
    value: float
    rotation: np.ndarray | None
    residual_norm: float
    iterations: int  # always 0: the solve is a factorized product
    status: str


def solve_quadratic(system: StiffnessSystem, R: np.ndarray | None = None,
                    b: np.ndarray | None = None) -> SolveResult:
    """Minimize c'Ac/2 - c'b over the complement of the rigid modes.

    The minimizer is x = P A^+ b: the system's pseudo-inverse, then its
    L^2-rigid projector, each applied block by block like A x.
    """
    if b is None:
        b = system.load_vector(R)
    Z, rigid = system.kernel, system.rigid
    bn = max(1.0, float(np.linalg.norm(b)))
    overlap = Z @ b
    if overlap.size and float(np.max(np.abs(overlap))) > COMPATIBILITY_TOL * bn:
        k = int(np.argmax(np.abs(overlap)))
        # the exact rigid row doing the most work per coefficient norm names the mode
        worst = int(np.argmax(np.abs(rigid @ b) / np.linalg.norm(rigid, axis=1)))
        mode = ("infinitesimal rotation (null-momentum condition)" if system.space.rigid_spins[worst]
                else "translation (null-resultant condition)")
        raise SolverError(f"load vector does work on a rigid {mode}: |Z b| = {abs(overlap[k]):.3e}")
    blocks = system.blocks
    x = _minimizer(blocks, system.pinv, rigid, system.rigid_fit, b)
    Ax = _apply(blocks, system.stiffness, x)
    r = b - Ax
    return SolveResult(coefficients=x, value=0.5 * float(x @ Ax) - float(x @ b),
                       rotation=None if R is None else np.asarray(R, dtype=float),
                       residual_norm=float(np.linalg.norm(r - Z.T @ (Z @ r))),
                       iterations=0, status="factorized")

