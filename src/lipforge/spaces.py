"""Finite-dimensional normed spaces, dual norms, operators and operator norms.

Descriptors cover lp, weighted-lp and polyhedral norms.  Polyhedral norms
are canonicalized at construction to carry both unit-ball vertices and
supporting functionals, which makes their dual norms exact.  The operator
norm is exact when the domain ball has enumerable extreme points or both
spaces are l2; otherwise it is a certified bracket [lb, ub]: lb from
multi-start ascent with a stored witness, ub from op_norm_upper, the one
sound upper bound, which takes (n, l, d) stacks of matrices and bounds
each exactly as if it came alone.
"""

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import minimize

from .errors import DescriptorError, FamilyError, InputError
from .serialize import CODECS, dec_float, dec_mat, enc_float, enc_mat

_VERTEX_DIM_CAP = 12  # enumerate 2^d cube corners only up to this dimension
_POLYGON_SIDES = 32   # tangents of the circumscribed 2-d lp polygon
_TINY = np.finfo(float).tiny


def _as_matrix(rows):
    m = np.asarray(rows, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    return m


def _dedupe_rows(m, tol=1e-12):
    out = []
    for row in m:
        if not any(np.max(np.abs(row - r)) <= tol for r in out):
            out.append(row)
    return np.array(out)


class NormedSpace:
    """A norm on R^d given by an lp / weighted-lp / polyhedral descriptor."""

    def __init__(self, dim, descriptor):
        if dim < 1:
            raise DescriptorError("dimension must be positive")
        self.dim = int(dim)
        kind = descriptor.get("kind")
        self.kind = kind
        self._p = None
        self._weights = None
        self._vertices = None
        self._functionals = None
        if kind == "lp":
            self._p = self._parse_p(descriptor["p"])
        elif kind == "weighted-lp":
            self._p = self._parse_p(descriptor["p"])
            w = np.asarray(descriptor["weights"], dtype=float)
            if w.shape != (self.dim,) or np.any(w <= 0) or not np.all(np.isfinite(w)):
                raise DescriptorError("weights must be positive finite, one per axis")
            self._weights = w
        elif kind == "polyhedral":
            self._init_polyhedral(descriptor)
        else:
            raise DescriptorError("unsupported norm descriptor kind: %r" % kind)
        self.descriptor = self._canonical_descriptor()

    @staticmethod
    def _parse_p(p):
        if p == "inf" or p == float("inf"):
            return float("inf")
        p = float(p)
        if p < 1:
            raise DescriptorError("p must lie in [1, inf]")
        return p

    def _init_polyhedral(self, descriptor):
        if "vertices" in descriptor:
            v = _as_matrix(descriptor["vertices"])
            if v.shape[1] != self.dim:
                raise DescriptorError("vertex dimension mismatch")
            v = _dedupe_rows(np.vstack([v, -v]))
            self._vertices = v
            self._functionals = self._facets_from_vertices(v)
        elif "functionals" in descriptor:
            a = _as_matrix(descriptor["functionals"])
            if a.shape[1] != self.dim:
                raise DescriptorError("functional dimension mismatch")
            a = _dedupe_rows(np.vstack([a, -a]))
            self._functionals = a
            self._vertices = self._facets_from_vertices(a)  # polar duality
        else:
            raise DescriptorError("polyhedral descriptor needs vertices or functionals")
        if np.linalg.matrix_rank(self._vertices, tol=1e-12) < self.dim:
            raise DescriptorError("polyhedral generators do not span the space")
        if np.linalg.matrix_rank(self._functionals, tol=1e-12) < self.dim:
            raise DescriptorError("polyhedral unit ball is unbounded")

    @staticmethod
    def _facets_from_vertices(v):
        """Rows a_j with conv(v) = {x : a_j . x <= 1}; v symmetric, spans R^d."""
        d = v.shape[1]
        if d == 1:
            vmax = np.max(np.abs(v))
            if vmax <= 0:
                raise DescriptorError("degenerate 1-d polytope")
            return np.array([[1.0 / vmax], [-1.0 / vmax]])
        from scipy.spatial import ConvexHull, QhullError

        try:
            hull = ConvexHull(v)
        except QhullError:  # flat, or too few generators
            raise DescriptorError("polyhedral generators do not span the space") from None
        eqs = hull.equations  # a . x + b <= 0
        rows = []
        for eq in eqs:
            a, b = eq[:-1], eq[-1]
            if b >= -1e-14:
                raise DescriptorError("polytope does not contain 0 in its interior")
            rows.append(a / (-b))
        return _dedupe_rows(np.array(rows))

    def _canonical_descriptor(self):
        if self.kind == "lp":
            return {"kind": "lp", "p": "inf" if np.isinf(self._p) else self._p}
        if self.kind == "weighted-lp":
            return {
                "kind": "weighted-lp",
                "p": "inf" if np.isinf(self._p) else self._p,
                "weights": [float(w) for w in self._weights],
            }
        return {"kind": "polyhedral", "vertices": [[float(x) for x in r] for r in self._vertices]}

    # ---- evaluation -----------------------------------------------------

    def norm(self, X):
        """Vectorized norm; X is (d,) or (N, d)."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X.reshape(1, -1)
        if self.kind in ("lp", "weighted-lp"):
            Y = X if self._weights is None else X * self._scale_vec()
            p = self._p
            if np.isinf(p):
                out = np.max(np.abs(Y), axis=1)
            elif p == 1:
                out = np.sum(np.abs(Y), axis=1)
            else:
                def power_sum(Z):  # squares for p = 2: the Euclidean formula's bits
                    return np.sum(Z * Z if p == 2 else np.abs(Z) ** p, axis=1)

                def root(s):
                    return np.sqrt(s) if p == 2 else s ** (1.0 / p)

                try:
                    with np.errstate(over="raise", under="raise"):
                        s = power_sum(Y)
                    out = root(s)
                except FloatingPointError:
                    # some |y|^p left float range: the rows whose sum did are
                    # rescaled by max |y|, the others keep their bits
                    with np.errstate(over="ignore", under="ignore"):
                        s = power_sum(Y)
                    out = root(s)
                    m = np.max(np.abs(Y), axis=1)
                    redo = (m > 0) & (m < np.inf) & ((s < _TINY) | (s == np.inf))
                    out[redo] = m[redo] * root(power_sum(Y[redo] / m[redo, None]))
        else:
            # row-wise product-sum, not a matrix product: a point's norm
            # must not depend on the batch it is evaluated in
            F = self._functionals
            out = np.max((X[:, None, :] * F).sum(axis=2), axis=1)
        return out[0] if single else out

    def _scale_vec(self):
        """Diagonal D with ||x||_{w,p} = ||D x||_p."""
        if np.isinf(self._p):
            return self._weights
        return self._weights ** (1.0 / self._p)

    @property
    def exact_capable(self):
        if self.kind == "polyhedral":
            return True
        return self._p in (1.0, float("inf"))

    def norm_exact(self, x):
        """Exact rational norm for l1 / linf / polyhedral; x: sequence of Fraction."""
        from .errors import ExactEvalUnsupported

        if self.kind == "polyhedral":
            rows = [[Fraction(v) for v in r] for r in self._functionals]
            return max(sum(a * xi for a, xi in zip(r, x)) for r in rows)
        if self.kind in ("lp", "weighted-lp") and self._p in (1.0, float("inf")):
            if self._weights is None:
                w = [Fraction(1)] * self.dim
            else:
                w = [Fraction(float(v)) for v in self._weights]
            vals = [wi * abs(xi) for wi, xi in zip(w, x)]
            return max(vals) if np.isinf(self._p) else sum(vals)
        raise ExactEvalUnsupported("exact norm needs l1 / linf / polyhedral descriptor")

    # ---- extreme points --------------------------------------------------

    def unit_ball_vertices(self):
        """Extreme points of the unit ball, or None if not enumerable."""
        if self.kind == "polyhedral":
            return self._vertices[np.any(self._vertices != 0.0, axis=1)]
        d, p = self.dim, self._p
        if p == 1:
            verts = np.vstack([np.eye(d), -np.eye(d)])
        elif np.isinf(p) and d <= _VERTEX_DIM_CAP:
            verts = cube_corners(d)
        else:
            return None
        return verts / self._scale_vec() if self.kind == "weighted-lp" else verts

    # ---- serialization ---------------------------------------------------

    def to_doc(self):
        desc = dict(self.descriptor)
        if desc["kind"] == "weighted-lp":
            desc = dict(desc, weights=[enc_float(w) for w in self._weights])
        elif desc["kind"] == "polyhedral":
            desc = {"kind": "polyhedral", "vertices": enc_mat(self._vertices)}
        return {"space": {"dim": self.dim, "descriptor": desc}}

    @classmethod
    def from_doc(cls, doc):
        body = doc["space"] if "space" in doc else doc
        desc = dict(body["descriptor"])
        if desc["kind"] == "weighted-lp":
            desc["weights"] = [dec_float(w) for w in desc["weights"]]
        elif desc["kind"] == "polyhedral" and "vertices" in desc:
            desc["vertices"] = dec_mat(desc["vertices"])
        return cls(body["dim"], desc)

    def __eq__(self, other):
        return isinstance(other, NormedSpace) and self.to_doc() == other.to_doc()

    def __repr__(self):
        return "NormedSpace(dim=%d, kind=%s)" % (self.dim, self.kind)


CODECS["space"] = (lambda sp: sp.to_doc()["space"], NormedSpace.from_doc)

def lp_space(dim, p):
    return NormedSpace(dim, {"kind": "lp", "p": p})


class Functional:
    """A linear functional with cached dual norm and norm-attaining direction."""

    def __init__(self, coeffs, space):
        coeffs = np.asarray(coeffs, dtype=float).ravel()
        if coeffs.shape != (space.dim,):
            raise InputError("functional coefficient length mismatch")
        if not np.all(np.isfinite(coeffs)):
            raise InputError("functional coefficients must be finite")
        self.coeffs = coeffs
        self.space = space
        self.dual_norm, self.attain_dir = dual_norm(coeffs, space)

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        return X @ self.coeffs

    def value_exact(self, x):
        c = [Fraction(float(v)) for v in self.coeffs]
        return sum(ci * xi for ci, xi in zip(c, x))


def dual_norm(coeffs, space):
    """sup_{||x|| <= 1} <coeffs, x> with an attaining unit vector."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if not np.all(np.isfinite(c)):
        raise InputError("coefficients must be finite")
    d = space.dim
    if np.allclose(c, 0):
        e = np.zeros(d)
        e[0] = 1.0
        return 0.0, e / space.norm(e)
    if space.kind == "polyhedral":
        verts = space.unit_ball_vertices()
        vals = verts @ c
        i = int(np.argmax(vals))
        return float(vals[i]), verts[i]
    p = space._p
    scale = space._scale_vec() if space.kind == "weighted-lp" else np.ones(d)
    ct = c / scale  # reduce to unweighted lp
    if p == 1:
        i = int(np.argmax(np.abs(ct)))
        y = np.zeros(d)
        y[i] = 1.0 if ct[i] >= 0 else -1.0
        val = float(abs(ct[i]))
    elif np.isinf(p):
        y = np.where(ct >= 0, 1.0, -1.0)
        val = float(np.sum(np.abs(ct)))
    else:
        q = p / (p - 1.0)
        nq = float(np.sum(np.abs(ct) ** q) ** (1.0 / q))
        y = np.sign(ct) * np.abs(ct) ** (q - 1.0) / nq ** (q - 1.0)
        val = nq
    x = y / scale
    return val, x


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


@dataclass
class LinOp:
    """An l x d matrix between two normed spaces with a certified norm bracket."""

    matrix: np.ndarray
    dom: NormedSpace
    cod: NormedSpace
    opnorm_lb: float = field(default=0.0)
    opnorm_ub: float = field(default=0.0)
    witness: np.ndarray = field(default=None)

    @classmethod
    def build(cls, matrix, dom, cod):
        m = np.asarray(matrix, dtype=float)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        if not np.all(np.isfinite(m)):
            raise InputError("operator entries must be finite")
        if m.shape != (cod.dim, dom.dim):
            raise InputError("operator shape %r does not match spaces" % (m.shape,))
        lb, ub, w = op_norm(m, dom, cod)
        return cls(m, dom, cod, lb, ub, w)

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        return X @ self.matrix.T

    def scaled(self, c):
        out = LinOp(self.matrix * c, self.dom, self.cod,
                    self.opnorm_lb * abs(c), self.opnorm_ub * abs(c), self.witness)
        return out

    def to_doc(self):
        return {
            "descriptor": "linop",
            "matrix": enc_mat(self.matrix),
            "space": {"dom": self.dom.to_doc()["space"], "cod": self.cod.to_doc()["space"]},
        }

    @classmethod
    def from_doc(cls, doc):
        dom = NormedSpace.from_doc({"space": doc["space"]["dom"]})
        cod = NormedSpace.from_doc({"space": doc["space"]["cod"]})
        return cls.build(dec_mat(doc["matrix"]), dom, cod)


def op_norm(matrix, dom, cod):
    """Certified bracket [lb, ub] for the operator norm, with an lb witness.

    Exact (lb == ub) when the domain ball has enumerable extreme points or
    both spaces are Euclidean.  Otherwise lb comes from multi-start ascent
    and ub from op_norm_upper.
    """
    T = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(T)):
        raise InputError("operator entries must be finite")
    verts, c = _unit_ball_points(dom)
    if verts is not None:
        i = int(np.argmax(c * cod.norm(verts @ T.T)))
        lb = float(c[i] * cod.norm(T @ verts[i]))
        return lb, lb, verts[i]
    if dom.kind == cod.kind == "lp" and dom._p == cod._p == 2:
        w = np.linalg.svd(T)[2][0]
    else:
        lb, w = _ascent_lower_bound(T, dom, cod)
        return lb, max(op_norm_upper(T, dom, cod), lb), w
    lb = float(cod.norm(T @ w))
    return lb, lb, w


def op_norm_upper(matrix, dom, cod):
    """Sound upper bound on the operator norm: a float for an (l, d) matrix,
    an (n,) array for an (n, l, d) stack.  The largest singular value for
    l2 -> l2, else min over (V, c) in _outer_sets of max_v c ||T v||.  A
    stack is multiplied as V @ T^t, one gemm per matrix, and norms are taken
    row by row, so a bound is bit-identical to that of its matrix alone."""
    T = np.asarray(matrix, dtype=float)
    single = T.ndim < 3
    if single:
        T = _as_matrix(T)[None]
    if dom.kind == cod.kind == "lp" and dom._p == cod._p == 2:
        ub = np.linalg.svd(T, compute_uv=False)[:, 0]
    else:
        n, l = T.shape[:2]
        bounds = []
        for V, c in _outer_sets(dom):
            vals = cod.norm((V @ T.transpose(0, 2, 1)).reshape(-1, l)).reshape(n, len(V))
            bounds.append(np.max(c * vals, axis=1))
        ub = functools.reduce(np.minimum, bounds)
    return float(ub[0]) if single else ub


def _ascent_lower_bound(T, dom, cod, seed=0):
    d = dom.dim
    rng = np.random.default_rng(seed)
    starts = [np.eye(d)[i] for i in range(d)]
    try:
        _, _, vt = np.linalg.svd(T)
        starts.append(vt[0])
    except np.linalg.LinAlgError:
        pass
    starts.extend(rng.standard_normal(d) for _ in range(8))

    def neg_ratio(y):
        ny = dom.norm(y)
        if ny <= 1e-300:
            return 0.0
        return -float(cod.norm(T @ y)) / float(ny)

    best, bw = -np.inf, starts[0]
    for x0 in starts:
        res = minimize(neg_ratio, x0, method="Nelder-Mead",
                       options={"maxiter": 400, "xatol": 1e-12, "fatol": 1e-14})
        if -res.fun > best:
            best, bw = -res.fun, res.x
    w = bw / dom.norm(bw)
    lb = float(cod.norm(T @ w))  # witness reproduces lb exactly on re-eval
    return lb, w


def _unit_ball_points(dom):
    """(V, c) with the unit ball of dom equal to conv(c V), c one scale per
    row, or (None, None) if the extreme points are not enumerable.  c is 1
    for lp balls; a polyhedral ball's generators lie on its evaluated unit
    sphere only to within the rounding of its facets (3e-10 for a ball
    2^-23 thick), so c is one over their evaluated norms."""
    verts = dom.unit_ball_vertices()
    if verts is None:
        return None, None
    if dom.kind == "polyhedral":
        return verts, 1.0 / dom.norm(verts)
    return verts, np.ones(len(verts))


def _outer_sets(dom):
    """Pairs (V, c) with the unit ball of dom inside conv(c V), c a scale or
    one per row: its extreme points (_unit_ball_points), the 2-d lp polygon,
    or the cube (up to _VERTEX_DIM_CAP) and the cross-polytope, as B_p lies
    in [-1, 1]^d and in d^(1 - 1/p) B_1."""
    verts, c = _unit_ball_points(dom)
    if verts is not None:
        return [(verts, c)]
    d, p = dom.dim, dom._p
    if d == 2:
        sets = [(_lp_polygon(p), 1.0)]
    else:
        sets = [(np.vstack([np.eye(d), -np.eye(d)]), d ** (1.0 - 1.0 / p))]
        if d <= _VERTEX_DIM_CAP:
            sets.append((cube_corners(d), 1.0))
    if dom.kind == "weighted-lp":
        sets = [(V / dom._scale_vec(), c) for V, c in sets]
    return sets


@functools.lru_cache
def _lp_polygon(p):
    """Vertices of the polygon on _POLYGON_SIDES tangents to the 2-d lp unit
    sphere, 1 < p < inf; coinciding neighbour tangents are skipped."""
    m = _POLYGON_SIDES
    ang = 2.0 * np.pi * np.arange(m) / m
    u = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts = u / (np.sum(np.abs(u) ** p, axis=1) ** (1.0 / p))[:, None]
    normals = np.sign(pts) * np.abs(pts) ** (p - 1.0)  # n_j . x = 1 tangents
    vecs = []
    for j in range(m):
        try:
            vecs.append(np.linalg.solve(np.stack([normals[j], normals[(j + 1) % m]]), np.ones(2)))
        except np.linalg.LinAlgError:
            continue
    return _frozen(np.array(vecs))


@functools.lru_cache
def cube_corners(d):
    """The 2^d corners of [-1, 1]^d; bit j of row i is the sign of axis j."""
    return _frozen(np.where((np.arange(2 ** d)[:, None] >> np.arange(d)) & 1, 1.0, -1.0))


def _frozen(a):
    a.setflags(write=False)  # cached: one array for every caller
    return a


# ---------------------------------------------------------------------------
# cylinder constant
# ---------------------------------------------------------------------------

RANK_TOL = 1e-10


def cyl_constant(T: LinOp, budget=64, seed=0, return_basis=False):
    """Search minimum over bases (w_i) of range(T) of max_j ||partial sum op||.

    The partial-sum operator for a basis w_1..w_r with biorthogonal duals
    w*_i is  x -> sum_{i<=j} w*_i(T x) w_i.  The full sum (j = r) is T
    itself, so the reported value never drops below the certified lower
    bound on ||T||.  Returns the searched value (an upper bound on the true
    minimum) and optionally the basis and duals.
    """
    M = T.matrix
    u, s, vt = np.linalg.svd(M)
    r = int(np.sum(s > RANK_TOL * max(1.0, s[0] if len(s) else 1.0)))
    if r == 0:
        if return_basis:
            return 0.0, [], []
        return 0.0
    U = u[:, :r]  # l x r, orthonormal columns spanning range(T)
    Tc = U.T @ M  # r x d coordinates of T in the U frame

    def objective(B):
        # columns of B are basis coordinates in the U frame
        try:
            Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return np.inf
        S = np.stack([U @ (B[:, :j] @ (Binv[:j, :] @ Tc)) for j in range(1, r + 1)])
        return float(np.max(op_norm_upper(S, T.dom, T.cod)))

    rng = np.random.default_rng(seed)
    candidates = [np.eye(r)]
    for _ in range(max(0, int(budget))):
        B = rng.standard_normal((r, r))
        B /= np.linalg.norm(B, axis=0, keepdims=True)
        candidates.append(B)

    scored = sorted(((objective(B), i, B) for i, B in enumerate(candidates)),
                    key=lambda t: (t[0], t[1]))
    best_val, _, best_B = scored[0]

    # coordinate-wise refinement with step halving on the few best candidates
    for _, _, B in scored[:4]:
        B = B.copy()
        val = objective(B)
        step = 0.1
        while step >= 1e-6:
            improved = False
            for i in range(r):
                for j in range(r):
                    for sgn in (1.0, -1.0):
                        B2 = B.copy()
                        B2[i, j] += sgn * step
                        nc = np.linalg.norm(B2[:, j])
                        if nc <= 1e-12:
                            continue
                        B2[:, j] /= nc
                        v2 = objective(B2)
                        if v2 < val - 1e-15:
                            B, val = B2, v2
                            improved = True
            if not improved:
                step *= 0.5
        if val < best_val:
            best_val, best_B = val, B

    if not return_basis:
        return float(best_val)
    W = U @ best_B  # basis vectors of range(T), columns
    duals = np.linalg.pinv(W)  # rows are biorthogonal functionals on Y
    return float(best_val), [W[:, i] for i in range(r)], [duals[i] for i in range(r)]


# ---------------------------------------------------------------------------
# dense sequence in the unit ball of a span of operators
# ---------------------------------------------------------------------------


class OperatorFamily:
    """A finite basis of LinOps spanning a subspace W of L(X, Y)."""

    def __init__(self, basis):
        if not basis:
            raise FamilyError("operator family needs a nonempty basis")
        self.basis = list(basis)
        self.dom = basis[0].dom
        self.cod = basis[0].cod
        for b in basis:
            if b.matrix.shape != basis[0].matrix.shape:
                raise FamilyError("basis operators must share a shape")
        self._unit = []
        for b in basis:
            if b.opnorm_ub <= 0:
                raise FamilyError("zero operator in family basis")
            self._unit.append(b.matrix / b.opnorm_ub)

    def enumerate_coeffs(self, n):
        """Deterministic enumeration of nonzero rational coefficient vectors."""
        m = len(self.basis)
        count = 0
        level = 1
        while True:
            rng = range(level, -level - 1, -1)
            idx = [0] * m
            vals = list(rng)
            total = len(vals) ** m
            for flat in range(total):
                x = flat
                k = []
                for _ in range(m):
                    k.append(vals[x % len(vals)])
                    x //= len(vals)
                k = tuple(reversed(k))
                if all(v == 0 for v in k):
                    continue
                count += 1
                if count == n:
                    return level, k
            level += 1

    def member(self, n):
        level, k = self.enumerate_coeffs(n)
        R = sum((ki / level) * Ui for ki, Ui in zip(k, self._unit))
        op = LinOp.build(R, self.dom, self.cod)
        if op.opnorm_ub > 1.0:
            op = LinOp.build(R / op.opnorm_ub, self.dom, self.cod)
        return op


def dense_ball_sequence(fam: OperatorFamily, n: int) -> LinOp:
    """T_n = (1 - 2^{-ceil(sqrt(n))}) R_n; every emitted operator has ub < 1."""
    if n < 1:
        raise InputError("index must be >= 1")
    R = fam.member(n)
    factor = 1.0 - 2.0 ** (-int(np.ceil(np.sqrt(n))))
    return R.scaled(factor)
