"""Evaluable expression DAG for Lipschitz mappings R^d -> R^l.

Every node evaluates vectorized over (N, d) float arrays.  Nodes whose
formula is closed over rational arithmetic (linear maps, radial blends,
local derivative surgery, l1 / linf / polyhedral norms, and VecScaleFn
when both of its factors are) also support exact evaluation over
Fractions, which is what makes the small-scale increment certificates
immune to cancellation at microscopic radii.  A node builds its rationals
once, at its first exact evaluation.

Exact evaluation also has a batch form, eval_exact_rows(rows), which sums
and surgeries pass down whole.  A surgery first rules out, in floats and in
one pass per batch, the centers farther than s from each row.  It skips
center c only when the float distance D~ exceeds s + E, where

    E = (gamma_{d-1} (1 + u) + 3 u) L M + ((1 + gamma_{d-1}) d + L) eta / 2

is a proven bound on D~ - ||x - c||: u = 2^-53, eta = 2^-1074, gamma_n =
n u / (1 - n u), L the norm's maximum on the cube [-1, 1]^d and M a float
bound on max |x_i| + max |c_i| (derived at
LocalAffineSurgeryFn.eval_exact_rows).  A skipped center is one the exact
test passes over, so the pre-pass never changes a bit.  The surgery keeps
its exact value scale f(c) at each center it has used, and when f is
constant its annulus takes that value without pulling the point back.

Nodes carry an optional certified Lipschitz upper bound `lip_bound`
(None when no bound is proved for the construction).
"""

import functools
import math
import warnings
from fractions import Fraction

import numpy as np

from .errors import ExactEvalUnsupported, InputError
from .serialize import CODECS, dec_float, dec_vec, decode_fields, encode_fields
from .spaces import NormedSpace, pair_blocks

_REGISTRY = {}

# the optional certified Lipschitz bound, written as "lip" when set
LIP = ("lip", "lip_bound", "float?")


def register(cls):
    _REGISTRY[cls.tag] = cls
    return cls


def as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    f = float(v)
    if not math.isfinite(f):
        raise InputError("%r has no exact rational value" % f)
    return Fraction(f)


_U = Fraction(1, 2 ** 53)      # unit roundoff of binary64
_ETA = Fraction(1, 2 ** 1074)  # its least subnormal


def _float_up(q) -> float:
    """The least float >= the rational q (inf above float range)."""
    try:
        f = float(q)
    except OverflowError:
        return math.inf
    return math.nextafter(f, math.inf) if Fraction(f) < q else f


class LipFn:
    """Base node: f: R^d -> R^l."""

    tag = "base"
    lip_bound = None

    def __init__(self, d, l):
        self.d = int(d)
        self.l = int(l)

    def eval(self, X):
        raise NotImplementedError

    def __call__(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return self.eval(X.reshape(1, -1))[0]
        return self.eval(X)

    def eval_exact(self, x):
        raise ExactEvalUnsupported("node %s has no exact evaluation" % self.tag)

    def eval_exact_rows(self, rows):
        """eval_exact at each point of the sequence rows, in order."""
        return [self.eval_exact(x) for x in rows]

    def to_doc(self):
        return encode_fields(self, {"node": self.tag})

    @staticmethod
    def from_doc(doc):
        tag = doc["node"]
        if tag not in _REGISTRY:
            raise InputError("unknown node tag %r" % tag)
        return _REGISTRY[tag]._from_doc(doc)

    @classmethod
    def _from_doc(cls, doc):
        return decode_fields(cls, doc)


CODECS["fn"] = (LipFn.to_doc, LipFn.from_doc)
CODECS["fns"] = (lambda fs: [f.to_doc() for f in fs],
                 lambda docs: [LipFn.from_doc(d) for d in docs])


def fn_to_file_doc(fn: LipFn):
    return {"dag": fn.to_doc(), "dim": fn.d, "cod": fn.l}


def fn_from_file_doc(doc):
    fn = LipFn.from_doc(doc["dag"])
    if [doc["dim"], doc["cod"]] != [fn.d, fn.l]:
        raise InputError("dim and cod must be the map's %d and %d" % (fn.d, fn.l))
    return fn


@register
class ZeroFn(LipFn):
    tag = "zero"
    fields = (("d", "d", "int"), ("l", "l", "int"))
    lip_bound = 0.0

    def eval(self, X):
        return np.zeros((len(X), self.l))

    def eval_exact(self, x):
        return [Fraction(0)] * self.l


@register
class ConstFn(LipFn):
    tag = "const"
    fields = (("vec", "vec", "vec"), ("d", "d", "int"))
    lip_bound = 0.0

    def __init__(self, vec, d):
        vec = np.asarray(vec, dtype=float).ravel()
        super().__init__(d, len(vec))
        self.vec = vec

    @functools.cached_property
    def _vec_q(self):
        return [as_fraction(v) for v in self.vec]

    def eval(self, X):
        return np.tile(self.vec, (len(X), 1))

    def eval_exact(self, x):
        return list(self._vec_q)


@register
class LinearFn(LipFn):
    tag = "linear"
    fields = (("matrix", "matrix", "mat"), LIP)

    def __init__(self, matrix, lip_bound=None):
        m = np.asarray(matrix, dtype=float)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        super().__init__(m.shape[1], m.shape[0])
        self.matrix = m
        self.lip_bound = lip_bound

    @functools.cached_property
    def _rows(self):
        return [[as_fraction(v) for v in r] for r in self.matrix]

    def eval(self, X):
        # X @ matrix.T in plain products and sums, one output column at a
        # time: BLAS gives a single row other bits than the same row inside
        # a batch (its vector kernel fuses the multiply-adds in another
        # order), and batched callers need a row not to depend on its batch
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[:-1] + (self.l,))
        for i, row in enumerate(self.matrix):
            col = out[..., i]
            for j, m in enumerate(row):
                col += X[..., j] * m
        return out

    def eval_exact(self, x):
        return [sum(a * xi for a, xi in zip(r, x)) for r in self._rows]


@register
class SumFn(LipFn):
    tag = "sum"
    fields = (("terms", "terms", "fns"), ("coeffs", "coeffs", "floats"))

    def __init__(self, terms, coeffs=None):
        if not terms:
            raise InputError("sum needs at least one term")
        coeffs = [1.0] * len(terms) if coeffs is None else [float(c) for c in coeffs]
        if len(coeffs) != len(terms):
            raise InputError("coefficient count mismatch")
        super().__init__(terms[0].d, terms[0].l)
        for t in terms:
            if (t.d, t.l) != (self.d, self.l):
                raise InputError("sum terms must share shape")
        self.terms = list(terms)
        self.coeffs = coeffs
        lips = [t.lip_bound for t in terms]
        if all(v is not None for v in lips):
            self.lip_bound = float(sum(abs(c) * v for c, v in zip(coeffs, lips)))

    @functools.cached_property
    def _coeffs_q(self):
        return [as_fraction(c) for c in self.coeffs]

    def eval(self, X):
        out = self.coeffs[0] * self.terms[0].eval(X)
        for c, t in zip(self.coeffs[1:], self.terms[1:]):
            out = out + c * t.eval(X)
        return out

    def eval_exact(self, x):
        return self.eval_exact_rows([x])[0]

    def eval_exact_rows(self, rows):
        # each term takes the whole batch
        cfs = self._coeffs_q
        acc = [[cfs[0] * v for v in fx] for fx in self.terms[0].eval_exact_rows(rows)]
        for cf, t in zip(cfs[1:], self.terms[1:]):
            for row, fx in zip(acc, t.eval_exact_rows(rows)):
                for i, v in enumerate(fx):
                    row[i] += cf * v
        return acc


@register
class DistFn(LipFn):
    """f(x) = ||x - center|| - offset (scalar, 1-Lipschitz)."""

    tag = "dist"
    fields = (("space", "space", "space"), ("center", "center", "vec"),
              ("offset", "offset", "float"))
    lip_bound = 1.0

    def __init__(self, space: NormedSpace, center, offset=None):
        super().__init__(space.dim, 1)
        self.space = space
        self.center = np.asarray(center, dtype=float).ravel()
        if len(self.center) != space.dim:
            raise InputError("the center needs %d coordinates" % space.dim)
        self.offset = float(space.norm(-self.center)) if offset is None else float(offset)

    @functools.cached_property
    def _center_q(self):
        return [as_fraction(v) for v in self.center]

    def eval(self, X):
        # one column at a time: NumPy's broadcast over a short inner axis
        # is several times slower, for the same bits
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.d:
            raise InputError("points have %d coordinates; the space has %d"
                             % (X.shape[-1], self.d))
        D = np.empty(X.shape)
        for j, c in enumerate(self.center):
            np.subtract(X[..., j], c, out=D[..., j])
        return (self.space.norm(D) - self.offset).reshape(-1, 1)

    def eval_exact(self, x):
        w = [xi - ci for xi, ci in zip(x, self._center_q)]
        return [self.space.norm_exact(w) - as_fraction(self.offset)]


@register
class BlendFn(LipFn):
    """Radial interpolation between f1 (inside radius a) and f2 (outside b).

    A piece with f(0) != 0 is shifted by f(0) first, with a warning; with
    Lip f1 <= lip1, Lip f2 <= lip2 and lip1 + lip2 <= 1, Lip <= 1 + a/(b-a),
    claimed when both lips are given."""

    tag = "blend"
    fields = (("a", "a", "float"), ("b", "b", "float"), ("f1", "f1", "fn"),
              ("f2", "f2", "fn"), ("space", "space", "space"),
              ("lip1", "lip1", "float?"), ("lip2", "lip2", "float?"))

    def __init__(self, a, b, f1: LipFn, f2: LipFn, space: NormedSpace,
                 lip1=None, lip2=None):
        if not (0.0 < float(a) < float(b)):
            raise InputError("need 0 < a < b")
        if f1.d != f2.d or f1.l != f2.l:
            raise InputError("blend inputs must share domain and codomain")
        lips = [v for v in (lip1, lip2) if v is not None]
        if not all(v >= 0 for v in lips) or sum(lips) > 1.0 + 1e-12:
            raise InputError("need lip1, lip2 >= 0 with lip1 + lip2 <= 1")
        super().__init__(f1.d, f1.l)
        self.a, self.b = float(a), float(b)
        self.f1, self.f2 = self._anchored(f1, "f1"), self._anchored(f2, "f2")
        self.space = space
        self.lip1, self.lip2 = lip1, lip2
        if len(lips) == 2:
            self.lip_bound = 1.0 + self.a / (self.b - self.a)

    @staticmethod
    def _anchored(f, name):
        v = f(np.zeros(f.d))
        if np.max(np.abs(v)) <= 1e-12:
            return f
        warnings.warn("%s(0) != 0; subtracting the constant %r" % (name, v))
        return SumFn([f, ConstFn(v, f.d)], [1.0, -1.0])

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        n = self.space.norm(X)
        out = np.empty((len(X), self.l))
        m1 = n <= self.a
        m2 = n >= self.b
        mm = ~(m1 | m2)
        if m1.any():
            out[m1] = self.f1.eval(X[m1])
        if m2.any():
            out[m2] = self.f2.eval(X[m2])
        if mm.any():
            nm = n[mm]
            w1 = (self.b - nm) / (self.b - self.a)
            w2 = self.b * (nm - self.a) / (nm * (self.b - self.a))
            out[mm] = w1[:, None] * self.f1.eval(X[mm]) + w2[:, None] * self.f2.eval(X[mm])
        return out

    def eval_exact(self, x):
        n = self.space.norm_exact(x)
        a, b = as_fraction(self.a), as_fraction(self.b)
        if n <= a:
            return self.f1.eval_exact(x)
        if n >= b:
            return self.f2.eval_exact(x)
        w1 = (b - n) / (b - a)
        w2 = b * (n - a) / (n * (b - a))
        v1 = self.f1.eval_exact(x)
        v2 = self.f2.eval_exact(x)
        return [w1 * p + w2 * q for p, q in zip(v1, v2)]


@register
class LocalAffineSurgeryFn(LipFn):
    """Derivative surgery: collapse f radially on balls around separated
    centers and splice in an exact affine piece on an inner core.

    Evaluates to scale * f(z) outside the s-balls around the centers; on the
    core alpha-balls the increments are exactly linear.  A point within s of
    several centers takes the surgery of the first of them, in center order,
    in eval and eval_exact alike.  Radii are stored as exact rationals so the
    construction survives microscopic scales.
    """

    tag = "surgery"
    fields = (("f", "f", "fn"), ("centers", "centers", "mat"), ("s", "s", "frac"),
              ("beta", "beta", "frac"), ("alpha", "alpha", "frac"),
              ("L", "Lmat", "mat"), ("space", "space", "space"), LIP)

    def __init__(self, f: LipFn, centers, s, beta, alpha, Lmat, space: NormedSpace,
                 lip_bound=None):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if centers.shape[1] != f.d:
            raise InputError("the centers need %d coordinates" % f.d)
        super().__init__(f.d, f.l)
        self.f = f
        self.centers = centers
        self.space = space
        self.s = as_fraction(s)
        self.beta = as_fraction(beta)
        self.alpha = as_fraction(alpha)
        if not (0 < self.alpha < self.beta < self.s):
            raise InputError("need 0 < alpha < beta < s")
        self.Lmat = np.asarray(Lmat, dtype=float)
        if self.Lmat.shape != (self.l, self.d):
            raise InputError("affine-piece matrix shape mismatch")
        self.scale = (self.s - self.beta) / self.s
        # T = (s / (s - beta)) L so that scale * T = L exactly in rationals
        self.T_exact = [[Fraction(float(v)) / self.scale for v in row] for row in self.Lmat]
        self.T_f = LinearFn([[float(v) for v in row] for row in self.T_exact])
        self.lip_bound = lip_bound
        self.s_f, self.beta_f, self.alpha_f = float(self.s), float(self.beta), float(self.alpha)
        self.scale_f = float(self.scale)

    @functools.cached_property
    def _centers_q(self):
        return [[as_fraction(v) for v in c] for c in self.centers]

    @functools.cached_property
    def _margin(self):
        """(_lim0, _rel, max |c|) of eval_exact_rows' far-center test,
        whose limit is lim = _lim0 + _rel M."""
        d, L = self.space.dim, self.space.cube_bound()
        g = (d - 1) * _U / (1 - (d - 1) * _U)
        return (_float_up(self.s + ((1 + g) * d + L) * _ETA / 2),
                _float_up((g * (1 + _U) + 3 * _U) * L),
                float(np.max(np.abs(self.centers), initial=0.0)))

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        out = self.f.eval(X).copy()
        s, b, a = self.s_f, self.beta_f, self.alpha_f
        C = self.centers
        if s > 0.0 and len(C):
            fc = self.f.eval(C)
            for blk in pair_blocks(len(X), len(C)):
                D = self.space.dists(X[blk], C)
                near = D < s
                rows = np.flatnonzero(near.any(axis=1))
                k = near[rows].argmax(axis=1)  # the first center within s
                dd = D[rows, k]
                sub = X[blk][rows] - C[k]
                vals = np.empty((len(rows), self.l))
                mA = dd > b
                if mA.any():
                    t = s * (dd[mA] - b) / (dd[mA] * (s - b))
                    vals[mA] = self.f.eval(C[k[mA]] + t[:, None] * sub[mA])
                mB = ~mA
                dB = dd[mB]  # lam = 1 on the alpha-core, also when b == a in floats
                lam = np.divide(b - dB, b - a, out=np.ones(len(dB)), where=dB > a)
                vals[mB] = fc[k[mB]] + lam[:, None] * self.T_f.eval(sub[mB])
                out[blk][rows] = vals
        return self.scale_f * out

    @functools.cached_property
    def _L_q(self):
        # scale T = L exactly, and L's entries are short rationals
        return [[as_fraction(v) for v in row] for row in self.Lmat]

    @functools.cached_property
    def _scaled_f_at_centers(self):
        """scale f(c) exactly at each center used so far, by center index;
        read only, never handed out to be changed."""
        return {}

    def eval_exact(self, x):
        return self.eval_exact_rows([x])[0]

    def eval_exact_rows(self, rows):
        """Exact values at the points of rows, sequences of Fractions: the
        first center, in center order, within s of a point takes the
        surgery.  Only the centers that one float pre-pass over the batch
        cannot place beyond s are tested exactly.  f is evaluated in two
        batches: at the centers whose value scale f(c) is not yet cached,
        and at the rows no center takes together with the annulus rows'
        pull-back points.  A constant f has f(c + t w) = f(c), so its
        annulus rows take the cached center value instead.  A core row
        adds lam L (x - c) to the cached value, as scale T = L exactly.

        The pre-pass bound.  Let u = 2^-53, eta = 2^-1074 and gamma_n =
        n u / (1 - n u).  Rounding to nearest gives fl(v) = v (1 + delta) + e,
        |delta| <= u, |e| <= eta / 2, with e = 0 for a sum or difference of
        floats (exact when subnormal).  Each exact-capable norm is
        ||z|| = max_j a_j . z over finitely many rows a_j (the functionals;
        +-w_i e_i for linf; w times the sign vectors for l1), and
        L = space.cube_bound() >= sum_i |a_ji|, so ||z|| <= L max_i |z_i|.
        The pre-pass rounds x to xh = float(x) (Python rounds a Fraction
        correctly: |x_i - xh_i| <= u |xh_i| + eta / 2), forms yh = xh - c in
        floats (|yh_i - (xh_i - c_i)| <= u |yh_i|) and takes D~ =
        space.norm(yh).  For the row a_j that attains it, D~ is a sum of at
        most d products fl(a_ji yh_i) (exact when unweighted; the weights of
        a weighted l1 norm are w ** 1.0 = w), added in some order, so
        (Higham, Accuracy and Stability of Numerical Algorithms, 2002, 4.2)
            |D~ - a_j . yh| <= (gamma_{d-1} (1 + u) + u) sum_i |a_ji yh_i|
                               + (1 + gamma_{d-1}) d eta / 2.
        M = fl(max |xh| + max |c|) bounds every |xh_i| and |yh_i|, as
        rounding is monotone, so
            ||x - c|| >= a_j . yh - ||yh - (xh - c)|| - ||xh - x|| >= D~ - E,
            E = (gamma_{d-1} (1 + u) + 3 u) L M + ((1 + gamma_{d-1}) d + L) eta / 2.
        A center is skipped only when D~ > lim >= s + E, so ||x - c|| > s,
        and the exact test would pass it over.  lim adds rationals rounded
        up (_lim0 >= s + the eta term, _rel >= the factor of M) in floats,
        each step rounded and then moved one float up, which bounds the
        real sum from above.  As in Shewchuk's adaptive predicates
        (Discrete Comput. Geom. 18, 1997), floats decide only where the
        bound proves the answer.  The bound assumes no overflow: a row that
        float() cannot convert keeps every center, a NaN or infinite D~ its
        own, and an infinite M gives lim = inf.
        """
        if not self.space.exact_capable:
            raise ExactEvalUnsupported("exact norm needs l1 / linf / polyhedral descriptor")
        if not rows:
            return []
        s, b, a = self.s, self.beta, self.alpha
        const = isinstance(self.f, (ZeroFn, ConstFn))
        at_f, hits = [], []  # (row, point f is taken at), (row, k, x - c_k, ||x - c_k||)
        for i, (x, near) in enumerate(zip(rows, self._near_rows(rows))):
            hit = self._claim(x, near)
            if hit is None:
                at_f.append((i, x))
                continue
            k, w, dd = hit
            if dd > b and not const:
                t = s * (dd - b) / (dd * (s - b))
                at_f.append((i, [ci + t * wi for ci, wi in zip(self._centers_q[k], w)]))
            else:
                hits.append((i, k, w, dd))
        scale, out = self.scale, [None] * len(rows)
        for (i, _), fy in zip(at_f, self.f.eval_exact_rows([p for _, p in at_f])):
            out[i] = [scale * v for v in fy]
        fc = self._scaled_f_at_centers
        new = sorted({k for _, k, _, _ in hits} - fc.keys())
        for k, fy in zip(new, self.f.eval_exact_rows([self._centers_q[k] for k in new])):
            fc[k] = [scale * v for v in fy]
        for i, k, w, dd in hits:
            if dd > b:  # f is constant
                out[i] = list(fc[k])
            else:
                lam = Fraction(1) if dd <= a else (b - dd) / (b - a)
                out[i] = [fv + lam * sum(m * wj for m, wj in zip(r, w))
                          for fv, r in zip(fc[k], self._L_q)]
        return out

    def _claim(self, x, near):
        """(k, x - c_k, ||x - c_k||) for the first center c_k, k in near,
        within s of the point x, or None: one row's exact test."""
        for k in near:
            w = [xi - ci for xi, ci in zip(x, self._centers_q[k])]
            dd = self.space.norm_exact(w)
            if dd < self.s:
                return k, w, dd
        return None

    def _near_rows(self, rows):
        """Per row, the indices, in order, of the centers that
        eval_exact_rows' float bound cannot place farther than s from it,
        from one dists call.  A row that float() cannot convert is taken as
        infinite, which makes its lim infinite and so keeps every center."""
        XH = np.empty((len(rows), self.d))
        for i, x in enumerate(rows):
            try:
                XH[i] = [float(v) for v in x]
            except OverflowError:
                XH[i] = np.inf
        lim0, rel, cmax = self._margin
        with np.errstate(over="ignore", invalid="ignore"):
            m = np.max(np.abs(XH), axis=1) + cmax
            lim = np.nextafter(lim0 + np.nextafter(rel * m, np.inf), np.inf)
            D = self.space.dists(XH, self.centers)
        far = (D > lim[:, None]) & (D < np.inf)
        return [np.flatnonzero(~row) for row in far]


@register
class GridFn2D(LipFn):
    """Bilinear interpolation of scalar samples on a regular 2-d grid,
    clamped (constant) outside the sampled box."""

    tag = "grid2d"
    # decoded by _from_doc below: "values" is written flat beside "shape"
    fields = (("lo", "lo", "vec"), ("h", "h", "float"), ("shape", "shape", "list"),
              ("values", "values", "vec"))

    def __init__(self, lo, h, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise InputError("grid values must be 2-d")
        super().__init__(2, 1)
        self.lo = np.asarray(lo, dtype=float).ravel()
        self.h = float(h)
        self.values = values

    @property
    def shape(self):
        return self.values.shape

    @classmethod
    def _from_doc(cls, doc):
        vals = dec_vec(doc["values"]).reshape(doc["shape"])
        return cls(dec_vec(doc["lo"]), dec_float(doc["h"]), vals)

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        nx, ny = self.values.shape
        u = (X[:, 0] - self.lo[0]) / self.h
        v = (X[:, 1] - self.lo[1]) / self.h
        u = np.clip(u, 0.0, nx - 1.0)
        v = np.clip(v, 0.0, ny - 1.0)
        i0 = np.clip(np.floor(u).astype(int), 0, nx - 2) if nx > 1 else np.zeros(len(X), int)
        j0 = np.clip(np.floor(v).astype(int), 0, ny - 2) if ny > 1 else np.zeros(len(X), int)
        fu = u - i0
        fv = v - j0
        V = self.values
        i1 = np.minimum(i0 + 1, nx - 1)
        j1 = np.minimum(j0 + 1, ny - 1)
        val = (
            V[i0, j0] * (1 - fu) * (1 - fv)
            + V[i1, j0] * fu * (1 - fv)
            + V[i0, j1] * (1 - fu) * fv
            + V[i1, j1] * fu * fv
        )
        return val.reshape(-1, 1)


def bump(r2):
    """exp(1 - 1/(1 - r^2)) for squared radii r2 < 1, else 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(r2 < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)


@register
class BoxBumpFn(LipFn):
    """Smooth bump supported on an axis box (product of 1-d bumps)."""

    tag = "boxbump"
    fields = (("lo", "lo_b", "vec"), ("hi", "hi_b", "vec"))

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if np.any(hi <= lo):
            raise InputError("bump box must have positive side lengths")
        super().__init__(len(lo), 1)
        self.lo_b, self.hi_b = lo, hi

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        mid = 0.5 * (self.lo_b + self.hi_b)
        half = 0.5 * (self.hi_b - self.lo_b)
        s = (X - mid) / half
        return np.prod(bump(s * s), axis=1).reshape(-1, 1)


@register
class RadialBumpFn(LipFn):
    """Smooth bump supported on a Euclidean ball."""

    tag = "rbump"
    fields = (("center", "center", "vec"), ("radius", "radius", "float"))

    def __init__(self, center, radius):
        center = np.asarray(center, dtype=float).ravel()
        super().__init__(len(center), 1)
        if radius <= 0:
            raise InputError("bump radius must be positive")
        self.center = center
        self.radius = float(radius)

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        r2 = np.sum((X - self.center) ** 2, axis=1) / self.radius ** 2
        return bump(r2).reshape(-1, 1)


@register
class PlateauFn(LipFn):
    """C1 cutoff: 1 on [core_lo, core_hi], 0 outside [lo, hi], cubic
    smoothstep ramps in between (per axis, multiplied)."""

    tag = "plateau"
    fields = (("lo", "lo_b", "vec"), ("hi", "hi_b", "vec"), ("core_lo", "core_lo", "vec"),
              ("core_hi", "core_hi", "vec"))

    def __init__(self, lo, hi, core_lo, core_hi):
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        clo = np.asarray(core_lo, dtype=float).ravel()
        chi = np.asarray(core_hi, dtype=float).ravel()
        if np.any(clo < lo) or np.any(chi > hi) or np.any(chi < clo):
            raise InputError("core box must sit inside the support box")
        super().__init__(len(lo), 1)
        self.lo_b, self.hi_b = lo, hi
        self.core_lo, self.core_hi = clo, chi
        margins = np.concatenate([clo - lo, hi - chi])
        margins = margins[margins > 0]
        # smoothstep max slope is 1.5 / ramp width
        self.lip_bound = float(1.5 / margins.min()) if len(margins) else 0.0

    @staticmethod
    def _smoothstep(t):
        t = np.clip(t, 0.0, 1.0)
        return t * t * (3.0 - 2.0 * t)

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        val = np.ones(len(X))
        for ax in range(self.d):
            lo, hi = self.lo_b[ax], self.hi_b[ax]
            clo, chi = self.core_lo[ax], self.core_hi[ax]
            x = X[:, ax]
            up = self._smoothstep((x - lo) / (clo - lo)) if clo > lo else (
                np.where(x >= lo, 1.0, 0.0))
            dn = self._smoothstep((hi - x) / (hi - chi)) if hi > chi else (
                np.where(x <= hi, 1.0, 0.0))
            val = val * up * dn
        return val.reshape(-1, 1)


@register
class VecScaleFn(LipFn):
    """Pointwise scalar(x) * vec(x): the one product node, for a gated
    scalar, a scalar times a fixed vector (vec a ConstFn) and the glue of
    partition assemblies.  Exact when both factors are."""

    tag = "vecscale"
    fields = (("scalar", "scalar", "fn"), ("vec", "vec", "fn"))

    def __init__(self, scalar: LipFn, vec: LipFn):
        if scalar.l != 1 or scalar.d != vec.d:
            raise InputError("vecscale needs a scalar and a vector on one domain")
        super().__init__(vec.d, vec.l)
        self.scalar = scalar
        self.vec = vec

    def eval(self, X):
        return self.scalar.eval(X) * self.vec.eval(X)

    def eval_exact(self, x):
        s = self.scalar.eval_exact(x)[0]
        return [s * v for v in self.vec.eval_exact(x)]


@register
class NormalizedBumpFn(LipFn):
    """phi_k = bump_k / sum_j bump_j on the covered set (0 where the sum is 0)."""

    tag = "pou-element"
    fields = (("bumps", "bumps", "fns"), ("index", "index", "int"))

    def __init__(self, bumps, index):
        if not bumps:
            raise InputError("empty bump list")
        super().__init__(bumps[0].d, 1)
        self.bumps = list(bumps)
        self.index = int(index)

    def eval(self, X):
        vals = np.concatenate([b.eval(X) for b in self.bumps], axis=1)
        total = vals.sum(axis=1)
        out = np.zeros(len(X))
        pos = total > 0
        out[pos] = vals[pos, self.index] / total[pos]
        return out.reshape(-1, 1)


@register
class RegionSwitchFn(LipFn):
    """inside(x) on a region, outside(x) off it (exact set membership)."""

    tag = "region-switch"
    fields = (("region", "region", "region"), ("inside", "inside", "fn"),
              ("outside", "outside", "fn"), LIP)

    def __init__(self, region, inside: LipFn, outside: LipFn, lip_bound=None):
        if inside.d != outside.d or inside.l != outside.l:
            raise InputError("branches must share shape")
        super().__init__(inside.d, inside.l)
        self.region = region
        self.inside = inside
        self.outside = outside
        self.lip_bound = lip_bound

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        m = self.region.contains(X)
        out = np.empty((len(X), self.l))
        if m.any():
            out[m] = self.inside.eval(X[m])
        if (~m).any():
            out[~m] = self.outside.eval(X[~m])
        return out


@register
class ConvexShiftCombFn(LipFn):
    """f(x) = sum_q w_q base(x - shift_q), w_q >= 0, sum w_q = 1.

    A convex combination of translates: never increases the Lipschitz
    constant, and moves values by at most Lip(base) * max ||shift_q||.
    """

    tag = "shift-comb"
    fields = (("base", "base", "fn"), ("shifts", "shifts", "mat"),
              ("weights", "weights", "vec"))
    _CHUNK = 32_768  # translated points per base evaluation, cache-sized

    def __init__(self, base: LipFn, shifts, weights):
        shifts = np.atleast_2d(np.asarray(shifts, dtype=float))
        weights = np.asarray(weights, dtype=float).ravel()
        if len(shifts) != len(weights):
            raise InputError("shift / weight count mismatch")
        if np.any(weights < -1e-15):
            raise InputError("weights must be nonnegative")
        total = float(weights.sum())
        if not np.isclose(total, 1.0, atol=1e-9):
            raise InputError("weights must sum to 1")
        super().__init__(base.d, base.l)
        self.base = base
        self.shifts = shifts
        self.weights = weights
        self.lip_bound = base.lip_bound

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        q = len(self.shifts)
        out = np.zeros((len(X), self.l))
        max_rows = max(1, self._CHUNK // q)
        block = np.empty((min(len(X), max_rows), q, self.d))
        for start in range(0, len(X), max_rows):
            xb = X[start:start + max_rows]
            pts = block[:len(xb)]
            # xb - shift, one coordinate at a time (see DistFn.eval)
            for j in range(self.d):
                np.subtract(xb[:, j, None], self.shifts[None, :, j], out=pts[:, :, j])
            vals = self.base.eval(pts.reshape(-1, self.d)).reshape(len(xb), q, self.l)
            out[start:start + max_rows] = np.einsum("q,nql->nl", self.weights, vals)
        return out
