"""Finite-dimensional normed spaces, dual norms, operators and operator norms.

Descriptors cover lp, weighted-lp and polyhedral norms.  Polyhedral norms
are canonicalized at construction to carry both unit-ball vertices and
supporting functionals, which makes their dual norms exact.  The operator
norm is exact when the domain ball or the codomain's dual ball is a
polytope, or both spaces are l2; otherwise it is a bracket [lb, ub]: lb
from a power ascent, ub from op_norm_upper, the one sound upper bound,
which takes (n, l, d) stacks of matrices and bounds each exactly as if
it came alone.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (DescriptorError, ExactEvalUnsupported, FamilyError, InputError,
                     check_size)
from .serialize import CODECS, dec_float, dec_mat, enc_float, enc_mat

_VERTEX_DIM_CAP = 12  # enumerate 2^d cube corners only up to this dimension
_POLYGON_SIDES = 32   # tangents of the circumscribed 2-d lp polygon
_TINY = np.finfo(float).tiny


def _as_matrix(rows):
    m = np.asarray(rows, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    return m


PAIR_BLOCK = 1 << 14  # point-center pairs formed at once, cache-sized


def pair_blocks(n, m):
    """Slices of range(n) whose rows, each paired with m centers, make at
    most PAIR_BLOCK pairs (one row at least)."""
    step = max(1, PAIR_BLOCK // max(m, 1))
    return [slice(i, i + step) for i in range(0, n, step)]


def _dedupe_rows(m):
    """The rows of m, each dropped that lies within 1e-12 (max norm) of one
    kept before it."""
    out = []
    for row in m:
        if not any(np.max(np.abs(row - r)) <= 1e-12 for r in out):
            out.append(row)
    return np.array(out)


def _reduce_cols(op, Z):
    """op.reduce(Z, axis=-1) (op is np.add or np.maximum), bit for bit.

    Below 8 columns NumPy reduces left to right from the identity, so one
    column at a time gives the same bits without its slow loop over a
    short inner axis; from 8 up it sums in pairwise blocks, so that case
    keeps NumPy's reduction.  A sum starts from 0.0 as NumPy's does, which
    turns a -0.0 first term into +0.0.
    """
    if Z.shape[-1] >= 8:
        return op.reduce(Z, axis=-1)
    out = Z[..., 0] + 0.0 if op is np.add else Z[..., 0].copy()
    for j in range(1, Z.shape[-1]):
        op(out, Z[..., j], out=out)
    return out


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

    @staticmethod
    def _parse_p(p):
        if p == "inf" or p == float("inf"):
            return float("inf")
        p = float(p)
        if not p >= 1:
            raise DescriptorError("p must lie in [1, inf]")
        return p

    def _init_polyhedral(self, descriptor):
        if "vertices" in descriptor:
            v = _as_matrix(descriptor["vertices"])
            if v.shape[1] != self.dim:
                raise DescriptorError("vertex dimension mismatch")
            v = _dedupe_rows(np.vstack([v, -v]))
            self._functionals, extreme = self._facets_from_vertices(v)
            # generators inside the ball are dropped: a tiny one would blow
            # up the 1 / norm scale of _unit_ball_points
            self._vertices = v[extreme]
        elif "functionals" in descriptor:
            a = _as_matrix(descriptor["functionals"])
            if a.shape[1] != self.dim:
                raise DescriptorError("functional dimension mismatch")
            a = _dedupe_rows(np.vstack([a, -a]))
            self._functionals = a
            self._vertices = self._facets_from_vertices(a)[0]  # polar duality
        else:
            raise DescriptorError("polyhedral descriptor needs vertices or functionals")
        if np.linalg.matrix_rank(self._vertices, tol=1e-12) < self.dim:
            raise DescriptorError("polyhedral generators do not span the space")
        if np.linalg.matrix_rank(self._functionals, tol=1e-12) < self.dim:
            raise DescriptorError("polyhedral unit ball is unbounded")

    @staticmethod
    def _facets_from_vertices(v):
        """(rows a_j with conv(v) = {x : a_j . x <= 1}, sorted indices of the
        rows of v that are extreme points of conv(v)); v symmetric, spans R^d."""
        d = v.shape[1]
        if d == 1:
            vmax = np.max(np.abs(v))
            if vmax <= 0:
                raise DescriptorError("degenerate 1-d polytope")
            return (np.array([[1.0 / vmax], [-1.0 / vmax]]),
                    np.flatnonzero(np.abs(v[:, 0]) == vmax))
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
        return _dedupe_rows(np.array(rows)), np.sort(hull.vertices)

    # ---- evaluation -----------------------------------------------------

    def norm(self, X):
        """Vectorized norm of X, (d,) or (N, d); a row has the same bits in any batch."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X.reshape(1, -1)
        if X.shape[-1] != self.dim:
            raise InputError("points have %d coordinates; the space has %d"
                             % (X.shape[-1], self.dim))
        if self.kind in ("lp", "weighted-lp"):
            Y = X if self._weights is None else X * self._scale_vec()
            p = self._p
            if np.isinf(p):
                out = _reduce_cols(np.maximum, np.abs(Y))
            elif p == 1:
                out = _reduce_cols(np.add, np.abs(Y))
            else:
                def power_sum(Z):  # squares for p = 2: the Euclidean formula's bits
                    return _reduce_cols(np.add, Z * Z if p == 2 else np.abs(Z) ** p)

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
                    m = _reduce_cols(np.maximum, np.abs(Y))
                    redo = (m > 0) & (m < np.inf) & ((s < _TINY) | (s == np.inf))
                    out[redo] = m[redo] * root(power_sum(Y[redo] / m[redo, None]))
        else:
            # row-wise product-sum, not a matrix product: a point's norm
            # must not depend on the batch it is evaluated in
            F = self._functionals
            out = np.max(_reduce_cols(np.add, X[:, None, :] * F), axis=1)
        return out[0] if single else out

    def dists(self, X, C):
        """(n, m) array of ||x_i - c_j||, entry (i, j) with the bits of norm(x_i - c_j);
        the differences are formed in pair_blocks, so their memory stays bounded."""
        X, C = _as_matrix(X), _as_matrix(C)
        if X.shape[1] != self.dim or C.shape[1] != self.dim:
            raise InputError("points and centers have %d and %d coordinates; the space "
                             "has %d" % (X.shape[1], C.shape[1], self.dim))
        out = np.empty((len(X), len(C)))
        for blk in pair_blocks(len(X), len(C)):
            Y = np.empty(out[blk].shape + (self.dim,))
            for j in range(self.dim):  # by column: a short inner axis is slow
                np.subtract(X[blk, j, None], C[:, j], out=Y[..., j])
            out[blk] = self.norm(Y.reshape(-1, self.dim)).reshape(Y.shape[:2])
        return out

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

    @functools.cached_property
    def _exact_terms(self):
        """norm_exact's rationals, built once per space: the functionals'
        rows (polyhedral), the weights (weighted l1 / linf), or None for an
        unweighted l1 / linf norm, whose terms need no multiply."""
        if not self.exact_capable:
            raise ExactEvalUnsupported("exact norm needs l1 / linf / polyhedral descriptor")
        if self.kind == "polyhedral":
            return [[Fraction(v) for v in r] for r in self._functionals]
        if self._weights is None:
            return None
        return [Fraction(float(v)) for v in self._weights]

    def norm_exact(self, x):
        """Exact rational norm for l1 / linf / polyhedral; x: sequence of Fraction."""
        terms = self._exact_terms
        if self.kind == "polyhedral":
            return max(sum(a * xi for a, xi in zip(r, x)) for r in terms)
        if terms is None:
            vals = [abs(xi) for xi in x]
        else:
            vals = [wi * abs(xi) for wi, xi in zip(terms, x)]
        return max(vals) if np.isinf(self._p) else sum(vals)

    def cube_bound(self):
        """The exact maximum of the norm on the cube [-1, 1]^d, a Fraction
        L with ||z|| <= L max_i |z_i| for every z (l1 / linf / polyhedral):
        the largest row sum of |functionals|, or the sum (l1) or the largest
        (linf) of the weights."""
        terms = self._exact_terms
        if self.kind == "polyhedral":
            return max(sum(abs(a) for a in r) for r in terms)
        w = [Fraction(1)] * self.dim if terms is None else terms
        return max(w) if np.isinf(self._p) else sum(w)

    # ---- extreme points --------------------------------------------------

    def unit_ball_vertices(self):
        """Extreme points of the unit ball, or None if not enumerable."""
        if self.kind == "polyhedral":
            return self._vertices
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
        if self.kind == "polyhedral":
            desc = {"kind": "polyhedral", "vertices": enc_mat(self._vertices)}
        else:
            desc = {"kind": self.kind, "p": "inf" if np.isinf(self._p) else self._p}
            if self.kind == "weighted-lp":
                desc["weights"] = [enc_float(w) for w in self._weights]
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


def dual_norm(coeffs, space):
    """sup_{||x|| <= 1} <coeffs, x> with an attaining unit vector."""
    c = np.asarray(coeffs, dtype=float).ravel()
    if not np.all(np.isfinite(c)):
        raise InputError("coefficients must be finite")
    d = space.dim
    if not np.any(c):
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
        a, m = np.abs(ct), 1.0
        with np.errstate(over="ignore", under="ignore"):
            s = np.sum(a ** q)
        if not _TINY <= s < np.inf:  # left float range: rescale by max |c|
            m = np.max(a)
            a = a / m
            s = np.sum(a ** q)
        nq = float(s ** (1.0 / q))
        y = np.sign(ct) * a ** (q - 1.0) / nq ** (q - 1.0)
        val = m * nq
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
    opnorm_lb: float
    opnorm_ub: float

    @classmethod
    def build(cls, matrix, dom, cod):
        m = np.asarray(matrix, dtype=float)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        if not np.all(np.isfinite(m)):
            raise InputError("operator entries must be finite")
        if m.shape != (cod.dim, dom.dim):
            raise InputError("operator shape %r does not match spaces" % (m.shape,))
        return cls(m, dom, cod, *op_norm(m, dom, cod)[:2])

    def scaled(self, c):
        return LinOp(self.matrix * c, self.dom, self.cod,
                     self.opnorm_lb * abs(c), self.opnorm_ub * abs(c))

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

    Exact (lb == ub, to rounding) when the domain ball has enumerable extreme
    points, both spaces are Euclidean, or ||T|| = max_a ||T^t a||_{X*} over
    _dual_rows a.  Otherwise lb comes from _power_ascent, ub from op_norm_upper.
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
        lb = float(cod.norm(T @ w))
        return lb, lb, w
    A = _dual_rows(cod)
    if A is None:
        top, w = op_norm_upper(T, dom, cod), _power_ascent(T, dom, cod)
    else:
        top, w = max((dual_norm(a @ T, dom) for a in A), key=lambda t: t[0])
    w = w / dom.norm(w)
    lb = float(cod.norm(T @ w))
    return lb, max(lb, top), w


def _dual_rows(cod):
    """Rows a with ||y|| = max_a a . y, or None: the functionals (polyhedral),
    or the dual ball's vertices (l1 up to _VERTEX_DIM_CAP dimensions, linf)."""
    if cod._p not in (1.0, np.inf):
        return cod._functionals  # None unless polyhedral
    A = lp_space(cod.dim, 1.0 if np.isinf(cod._p) else "inf").unit_ball_vertices()
    return A * cod._scale_vec() if A is not None and cod.kind == "weighted-lp" else A


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


def _power_ascent(T, dom, cod):
    """The best x of Boyd's power ascent (Linear Algebra Appl. 9, 1974).  Each
    start (the axes, E^-1 times the top right singular vector of D T E^-1, D
    and E the scales of cod's and dom's weights, and 8 normals of
    default_rng(0)) steps to dual_norm's vector for a T, with z = D T x and
    a = D sign(z) |z / max |z||^(p - 1) the gradient of cod's norm at T x,
    scaled free of overflow, until ||T x|| / ||x|| stops rising (it never
    falls), for 100 steps at most."""
    D, E = (np.ones(sp.dim) if sp._weights is None else sp._scale_vec() for sp in (cod, dom))
    starts = list(np.eye(dom.dim))
    try:
        starts.append(np.linalg.svd(D[:, None] * T / E)[2][0] / E)
    except np.linalg.LinAlgError:
        pass
    starts.extend(np.random.default_rng(0).standard_normal((8, dom.dim)))
    ends = []
    for x in starts:
        r = cod.norm(T @ x) / dom.norm(x)
        for _ in range(100):
            z = D * (T @ x)
            if not np.any(z):
                break
            a = D * np.sign(z) * np.abs(z / np.max(np.abs(z))) ** (cod._p - 1.0)
            x2 = dual_norm(a @ T, dom)[1]
            r2 = cod.norm(T @ x2) / dom.norm(x2)
            if not r2 > r:
                break
            x, r = x2, r2
        ends.append((r, x))
    return max(ends, key=lambda t: t[0])[1]


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
    minimum) and optionally the basis and duals.  budget, the number of
    seeded random bases tried beside the identity, must be >= 0.  Below
    rank 2 there is nothing to search: the value is the identity basis's.
    """
    if not budget >= 0:
        raise InputError("budget must be >= 0, got %r" % (budget,))
    check_size(budget + 1, "%s candidate bases" % (budget + 1))
    M = T.matrix
    u, s, vt = np.linalg.svd(M)
    r = int(np.sum(s > RANK_TOL * max(1.0, s[0] if len(s) else 1.0)))
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

    if r <= 1:  # a line's unit bases are +-its column; its one partial sum is T
        best_val, best_B = (objective(np.eye(1)) if r else 0.0), np.eye(r)
    else:
        rng = np.random.default_rng(seed)
        candidates = [np.eye(r)]
        for _ in range(int(budget)):
            B = rng.standard_normal((r, r))
            B /= np.linalg.norm(B, axis=0, keepdims=True)
            candidates.append(B)

        scored = sorted(((objective(B), i, B) for i, B in enumerate(candidates)),
                        key=lambda t: (t[0], t[1]))
        best_val, _, best_B = scored[0]

        # coordinate-wise refinement with step halving on the few best candidates
        for val, _, B in scored[:4]:
            B = B.copy()
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
        """(level, k): the n-th (from 1) nonzero coefficient vector k in
        {-level..level}^m, listed level by level; within a level, k runs
        through the base-(2 level + 1) numbers with digit j standing for
        level - j, most significant first, skipping the zero vector."""
        if n < 1:
            raise InputError("index must be >= 1")
        m = len(self.basis)
        level, i = 1, n - 1
        while i >= (2 * level + 1) ** m - 1:
            i -= (2 * level + 1) ** m - 1
            level += 1
        base = 2 * level + 1
        if i >= (base ** m - 1) // 2:  # at or past the zero vector's place
            i += 1
        k = []
        for _ in range(m):
            i, digit = divmod(i, base)
            k.append(level - digit)
        return level, tuple(reversed(k))

    def member(self, n):
        level, k = self.enumerate_coeffs(n)
        R = sum((ki / level) * Ui for ki, Ui in zip(k, self._unit))
        op = LinOp.build(R, self.dom, self.cod)
        if op.opnorm_ub > 1.0:
            op = LinOp.build(R / op.opnorm_ub, self.dom, self.cod)
        return op


def dense_ball_sequence(fam: OperatorFamily, n: int) -> LinOp:
    """T_n = (1 - 2^{-ceil(sqrt(n))}) R_n; every emitted operator has ub < 1."""
    R = fam.member(n)
    factor = 1.0 - 2.0 ** (-int(np.ceil(np.sqrt(n))))
    return R.scaled(factor)
