"""Evaluable expression DAG for Lipschitz mappings R^d -> R^l.

Every node evaluates vectorized over (N, d) float arrays.  Nodes whose
formula is closed over rational arithmetic (linear maps, radial blends,
local derivative surgery, l1 / linf / polyhedral norms) also support exact
evaluation over Fractions, which is what makes the small-scale increment
certificates immune to cancellation at microscopic radii.

Nodes carry an optional certified Lipschitz upper bound `lip_bound`
(None when no bound is proved for the construction).
"""

from fractions import Fraction

import numpy as np

from .errors import ExactEvalUnsupported, InputError
from .serialize import CODECS, dec_float, dec_vec, decode_fields, encode_fields
from .spaces import NormedSpace

_REGISTRY = {}

# the optional certified Lipschitz bound, written as "lip" when set
LIP = ("lip", "lip_bound", "float?")


def register(cls):
    _REGISTRY[cls.tag] = cls
    return cls


def as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    return Fraction(float(v))


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

    @property
    def exact_capable(self):
        return False

    def eval_exact(self, x):
        raise ExactEvalUnsupported("node %s has no exact evaluation" % self.tag)

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
    return LipFn.from_doc(doc["dag"])


@register
class ZeroFn(LipFn):
    tag = "zero"
    fields = (("d", "d", "int"), ("l", "l", "int"))
    lip_bound = 0.0

    def eval(self, X):
        return np.zeros((len(X), self.l))

    @property
    def exact_capable(self):
        return True

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

    def eval(self, X):
        return np.tile(self.vec, (len(X), 1))

    @property
    def exact_capable(self):
        return True

    def eval_exact(self, x):
        return [as_fraction(v) for v in self.vec]


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

    def eval(self, X):
        return X @ self.matrix.T

    @property
    def exact_capable(self):
        return True

    def eval_exact(self, x):
        rows = [[as_fraction(v) for v in r] for r in self.matrix]
        return [sum(a * xi for a, xi in zip(r, x)) for r in rows]


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

    def eval(self, X):
        out = self.coeffs[0] * self.terms[0].eval(X)
        for c, t in zip(self.coeffs[1:], self.terms[1:]):
            out = out + c * t.eval(X)
        return out

    @property
    def exact_capable(self):
        return all(t.exact_capable for t in self.terms)

    def eval_exact(self, x):
        acc = [Fraction(0)] * self.l
        for c, t in zip(self.coeffs, self.terms):
            cf = as_fraction(c)
            for i, v in enumerate(t.eval_exact(x)):
                acc[i] += cf * v
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
        self.offset = float(space.norm(-self.center)) if offset is None else float(offset)

    def eval(self, X):
        return (self.space.norm(X - self.center) - self.offset).reshape(-1, 1)

    @property
    def exact_capable(self):
        return self.space.exact_capable

    def eval_exact(self, x):
        c = [as_fraction(v) for v in self.center]
        w = [xi - ci for xi, ci in zip(x, c)]
        return [self.space.norm_exact(w) - as_fraction(self.offset)]


@register
class OuterFn(LipFn):
    """Vector output s(x) * w from a scalar node."""

    tag = "outer"
    fields = (("scalar", "scalar", "fn"), ("w", "w", "vec"), LIP)

    def __init__(self, scalar: LipFn, w, lip_bound=None):
        w = np.asarray(w, dtype=float).ravel()
        if scalar.l != 1:
            raise InputError("outer needs a scalar node")
        super().__init__(scalar.d, len(w))
        self.scalar = scalar
        self.w = w
        self.lip_bound = lip_bound

    def eval(self, X):
        return self.scalar.eval(X) * self.w[None, :]

    @property
    def exact_capable(self):
        return self.scalar.exact_capable

    def eval_exact(self, x):
        s = self.scalar.eval_exact(x)[0]
        return [s * as_fraction(v) for v in self.w]


@register
class ProductFn(LipFn):
    """Pointwise product of two scalar nodes."""

    tag = "product"
    fields = (("f1", "f1", "fn"), ("f2", "f2", "fn"))

    def __init__(self, f1: LipFn, f2: LipFn):
        if f1.l != 1 or f2.l != 1 or f1.d != f2.d:
            raise InputError("product needs two scalar nodes on the same domain")
        super().__init__(f1.d, 1)
        self.f1, self.f2 = f1, f2

    def eval(self, X):
        return self.f1.eval(X) * self.f2.eval(X)


@register
class BlendFn(LipFn):
    """Radial interpolation between f1 (inside radius a) and f2 (outside b)."""

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
        super().__init__(f1.d, f1.l)
        self.a, self.b = float(a), float(b)
        self.f1, self.f2 = f1, f2
        self.space = space
        self.lip1, self.lip2 = lip1, lip2
        if lip1 is not None and lip2 is not None and lip1 + lip2 <= 1.0 + 1e-12:
            self.lip_bound = 1.0 + self.a / (self.b - self.a)

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

    @property
    def exact_capable(self):
        return (self.space.exact_capable and self.f1.exact_capable
                and self.f2.exact_capable)

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
    core alpha-balls the increments are exactly linear.  Radii are stored as
    exact rationals so the construction survives microscopic scales.
    """

    tag = "surgery"
    fields = (("f", "f", "fn"), ("centers", "centers", "mat"), ("s", "s", "frac"),
              ("beta", "beta", "frac"), ("alpha", "alpha", "frac"),
              ("L", "Lmat", "mat"), ("space", "space", "space"), LIP)

    def __init__(self, f: LipFn, centers, s, beta, alpha, Lmat, space: NormedSpace,
                 lip_bound=None):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
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
        self.T_f = np.array([[float(v) for v in row] for row in self.T_exact])
        self.lip_bound = lip_bound
        self.s_f, self.beta_f, self.alpha_f = float(self.s), float(self.beta), float(self.alpha)
        self.scale_f = float(self.scale)

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        out = self.f.eval(X).copy()
        s, b, a = self.s_f, self.beta_f, self.alpha_f
        if s > 0.0:
            for c in self.centers:
                w = X - c
                dist = self.space.norm(w)
                m = dist < s
                if not m.any():
                    continue
                sub = w[m]
                dd = dist[m]
                vals = np.empty((int(m.sum()), self.l))
                fxi = self.f.eval(c.reshape(1, -1))[0]
                mA = dd > b
                if mA.any():
                    t = s * (dd[mA] - b) / (dd[mA] * (s - b))
                    vals[mA] = self.f.eval(c + t[:, None] * sub[mA])
                mB = (dd <= b) & (dd > a)
                if mB.any():
                    lam = (b - dd[mB]) / (b - a) if b > a else np.ones(int(mB.sum()))
                    vals[mB] = fxi + lam[:, None] * (sub[mB] @ self.T_f.T)
                mC = dd <= a
                if mC.any():
                    vals[mC] = fxi + sub[mC] @ self.T_f.T
                out[m] = vals
        return self.scale_f * out

    @property
    def exact_capable(self):
        return self.space.exact_capable and self.f.exact_capable

    def eval_exact(self, x):
        s, b, a = self.s, self.beta, self.alpha
        for c in self.centers:
            cf = [as_fraction(v) for v in c]
            w = [xi - ci for xi, ci in zip(x, cf)]
            dd = self.space.norm_exact(w)
            if dd >= s:
                continue
            if dd > b:
                t = s * (dd - b) / (dd * (s - b))
                pt = [ci + t * wi for ci, wi in zip(cf, w)]
                vals = self.f.eval_exact(pt)
            else:
                fxi = self.f.eval_exact(cf)
                lam = Fraction(1) if dd <= a else (b - dd) / (b - a)
                tv = [sum(r[j] * w[j] for j in range(self.d)) for r in self.T_exact]
                vals = [fv + lam * t for fv, t in zip(fxi, tv)]
            return [self.scale * v for v in vals]
        vals = self.f.eval_exact(x)
        return [self.scale * v for v in vals]


@register
class GridFn2D(LipFn):
    """Bilinear interpolation of scalar samples on a regular 2-d grid,
    clamped (constant) outside the sampled box."""

    tag = "grid2d"
    # decoded by _from_doc below: "values" is written flat beside "shape"
    fields = (("lo", "lo", "vec"), ("h", "h", "float"), ("shape", "shape", "list"),
              ("values", "values", "vec"), LIP)

    def __init__(self, lo, h, values, lip_bound=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise InputError("grid values must be 2-d")
        super().__init__(2, 1)
        self.lo = np.asarray(lo, dtype=float).ravel()
        self.h = float(h)
        self.values = values
        self.lip_bound = lip_bound

    @property
    def shape(self):
        return self.values.shape

    @classmethod
    def _from_doc(cls, doc):
        vals = dec_vec(doc["values"]).reshape(doc["shape"])
        lip = dec_float(doc["lip"]) if "lip" in doc else None
        return cls(dec_vec(doc["lo"]), dec_float(doc["h"]), vals, lip)

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
    """Pointwise scalar(x) * vec(x); the glue for partition assemblies."""

    tag = "vecscale"
    fields = (("scalar", "scalar", "fn"), ("vec", "vec", "fn"), LIP)

    def __init__(self, scalar: LipFn, vec: LipFn, lip_bound=None):
        if scalar.l != 1 or scalar.d != vec.d:
            raise InputError("vecscale needs a scalar and a vector on one domain")
        super().__init__(vec.d, vec.l)
        self.scalar = scalar
        self.vec = vec
        self.lip_bound = lip_bound

    def eval(self, X):
        return self.scalar.eval(X) * self.vec.eval(X)


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
    _CHUNK = 200_000

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
        for start in range(0, len(X), max_rows):
            xb = X[start:start + max_rows]
            pts = xb[:, None, :] - self.shifts[None, :, :]
            vals = self.base.eval(pts.reshape(-1, self.d)).reshape(len(xb), q, self.l)
            out[start:start + max_rows] = np.einsum("q,nql->nl", self.weights, vals)
        return out
