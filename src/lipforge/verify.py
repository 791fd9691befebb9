"""Certification harness: increment-ratio scans at dyadic scales,
Lipschitz-constant estimation, two-sided lower-derivative checks and
finite-difference smoothness checks.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, InputError
from .fn import LipFn, as_fraction
from .spaces import LinOp, NormedSpace


@dataclass
class DerivScanReport:
    x: np.ndarray
    scales: list
    ops: list
    errors: np.ndarray  # (n_ops, n_scales)
    tol: float

    def min_error(self, op_index):
        return float(np.min(self.errors[op_index]))

    def verdict(self, op_index, tol=None):
        tol = self.tol if tol is None else tol
        return self.min_error(op_index) <= tol

    def to_doc(self):
        from .serialize import enc_mat, enc_vec, enc_float

        return {
            "point": enc_vec(self.x),
            "scales": [enc_float(s) for s in self.scales],
            "errors": enc_mat(self.errors),
            "tol": enc_float(self.tol),
            "verdicts": [bool(self.verdict(i)) for i in range(len(self.ops))],
        }


def _directions(d, n_random, seed, space: NormedSpace):
    dirs = []
    eye = np.eye(d)
    for i in range(d):
        dirs.append(eye[i])
        dirs.append(-eye[i])
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_random, d))
    for v in raw:
        nv = float(space.norm(v))
        if nv > 0:
            dirs.append(v / nv)
    return np.array(dirs)


def scan_derivative_set(f: LipFn, x, ops, scales, dirs=200, tol=0.1, Q=None,
                        seed=0, exact=False) -> DerivScanReport:
    """Per-scale increment-ratio errors e_j(T) for each candidate operator.

    e_j(T) = max over sampled unit directions u of
    ||f(x + r_j u) - f(x) - T(r_j u)|| / r_j.  The verdict for T holds iff
    min_j e_j(T) <= tol.  With exact=True the increments are evaluated in
    rational arithmetic (needed at microscopic scales).  Every scale must
    be positive and finite, as a float or, with exact=True, as given.
    """
    x = np.asarray(x, dtype=float).ravel()
    ops = list(ops)
    if not ops:
        raise InputError("need at least one candidate operator")
    radii = list(scales) if exact else [float(s) for s in scales]
    if not radii or not all(0 < r < math.inf for r in radii):
        raise InputError("scales must be positive and finite, got %r" % (radii,))
    dom = ops[0].dom
    if Q is not None:
        db = float(Q.dist_to_boundary(x[None])[0])
        if db < max(float(s) for s in scales):
            raise DomainError("scan scales exit the domain")
    U = _directions(len(x), dirs, seed, dom)
    errors = np.zeros((len(ops), len(scales)))
    if exact:
        if not f.exact_capable:
            raise InputError("exact scan requested on a non-exact node")
        xf = [as_fraction(v) for v in x]
        f0 = f.eval_exact(xf)
        Uf = [[as_fraction(v) for v in u] for u in U]
        for j, r in enumerate(scales):
            rf = as_fraction(r)
            for a, T in enumerate(ops):
                Tm = [[as_fraction(v) for v in row] for row in T.matrix]
                worst = Fraction(0)
                for u in Uf:
                    pt = [xi + rf * ui for xi, ui in zip(xf, u)]
                    fv = f.eval_exact(pt)
                    tv = [sum(rw[i] * rf * u[i] for i in range(len(u))) for rw in Tm]
                    # scale before any float conversion: raw residuals can
                    # sit far below float range at microscopic scales
                    rs = [(fv[i] - f0[i] - tv[i]) / rf for i in range(len(fv))]
                    nr = (T.cod.norm_exact(rs) if T.cod.exact_capable
                          else as_fraction(float(T.cod.norm(np.array([float(v) for v in rs])))))
                    worst = max(worst, nr)
                errors[a, j] = float(worst)
    else:
        f0 = f(x)
        for j, r in enumerate(scales):
            r = float(r)
            pts = x[None, :] + r * U
            fv = f.eval(pts)
            for a, T in enumerate(ops):
                resid = fv - f0[None, :] - r * (U @ T.matrix.T)
                errors[a, j] = float(np.max(T.cod.norm(resid))) / r
    return DerivScanReport(x, [float(s) for s in scales], ops, errors, tol)


def lip_estimate(f: LipFn, Q, pairs=10000, seed=0, dom: NormedSpace = None,
                 cod: NormedSpace = None):
    """(max sampled ratio, witness pair): a lower bound on Lip(f) over Q."""
    if pairs < 1:
        raise InputError("pairs must be >= 1")
    bb = Q.bbox()
    if bb is None:
        raise DomainError("need a bounded sampling region")
    lo, hi = np.asarray(bb[0], float), np.asarray(bb[1], float)
    d = len(lo)
    rng = np.random.default_rng(seed)
    n_rand = pairs // 2
    n_diag = pairs - n_rand
    X1 = rng.uniform(lo, hi, (n_rand, d))
    X2 = rng.uniform(lo, hi, (n_rand, d))
    base = rng.uniform(lo, hi, (n_diag, d))
    gaps = 10.0 ** rng.uniform(-6, -1, (n_diag, 1))
    step = rng.standard_normal((n_diag, d))
    step /= np.maximum(np.linalg.norm(step, axis=1, keepdims=True), 1e-300)
    Y1 = np.vstack([X1, base])
    Y2 = np.vstack([X2, np.clip(base + gaps * step, lo, hi)])
    dn = dom.norm(Y1 - Y2) if dom is not None else np.max(np.abs(Y1 - Y2), axis=1)
    ok = dn > 1e-12
    Y1, Y2, dn = Y1[ok], Y2[ok], dn[ok]
    fv1 = f.eval(Y1)
    fv2 = f.eval(Y2)
    cn = cod.norm(fv1 - fv2) if cod is not None else np.max(np.abs(fv1 - fv2), axis=1)
    ratios = cn / dn
    i = int(np.argmax(ratios))
    return float(ratios[i]), (Y1[i], Y2[i])


@dataclass
class DiniReport:
    x: np.ndarray
    v: np.ndarray
    lower_plus: float   # estimate of the lower one-sided derivative along +v
    lower_minus: float  # along -v
    tgrid: list
    empty_flag: bool


def dini_check(f: LipFn, x, v, tgrid, margin=1e-3, exact=False) -> DiniReport:
    """Two-sided descent check: flags an empty regular subgradient when the
    sampled lower one-sided derivatives along +v and -v are both < -margin."""
    if f.l != 1:
        raise InputError("descent check needs a scalar function")
    x = np.asarray(x, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    vals = {}
    if exact:
        xf = [as_fraction(q) for q in x]
        vf = [as_fraction(q) for q in v]
        f0 = f.eval_exact(xf)[0]
        for sign in (1, -1):
            qs = []
            for t in tgrid:
                tf = as_fraction(t)
                pt = [xi + sign * tf * vi for xi, vi in zip(xf, vf)]
                qs.append(float((f.eval_exact(pt)[0] - f0) / tf))
            vals[sign] = min(qs)
    else:
        f0 = float(f(x)[0])
        for sign in (1, -1):
            qs = []
            for t in tgrid:
                t = float(t)
                qs.append((float(f(x + sign * t * v)[0]) - f0) / t)
            vals[sign] = min(qs)
    flag = vals[1] < -margin and vals[-1] < -margin
    return DiniReport(x, v, vals[1], vals[-1], [float(t) for t in tgrid], flag)


def fd_jacobian(f: LipFn, x, h):
    """Central-difference Jacobian: (l, d) at a point x, or (n, l, d) at
    each row of an (n, d) batch, from one evaluation of f at all 2 d n
    shifted points."""
    x = np.asarray(x, dtype=float)
    X = np.atleast_2d(x)
    n, d = X.shape
    E = h * np.eye(d)
    shifted = np.stack([X[:, None, :] + E, X[:, None, :] - E], axis=2)
    F = f.eval(shifted.reshape(-1, d))
    F = F.reshape(n, d, 2, F.shape[1])
    J = ((F[:, :, 0] - F[:, :, 1]) / (2.0 * h)).transpose(0, 2, 1)
    return J[0] if x.ndim < 2 else J


def dyadic_radius(g: LipFn, pts, dirs, exps, linear, too_far):
    """Largest delta = 2^-e, for e tried in the order of exps, at which no
    increment y = rho u (u a row of dirs, rho in delta, delta/2, delta/4)
    from a row x of pts gives a first-order residual
    r = g(x + y) - g(x) - linear(y) with too_far(r, Y, rho) true; None if
    no delta passes.  For each delta, all points x directions x fractions
    are evaluated in one g.eval call.

    linear maps the (m, d) increments Y to an array that broadcasts against
    the (n_points, m, l) residuals; too_far gets those residuals, Y and the
    (m,) radii rho, and returns an (n_points, m) boolean array.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    gx = g.eval(pts)
    for e in exps:
        delta = 2.0 ** (-e)
        rhos = (delta, delta / 2.0, delta / 4.0)
        Y = np.concatenate([rho * dirs for rho in rhos])
        rho = np.repeat(rhos, len(dirs))
        shifted = pts[:, None, :] + Y[None, :, :]
        gy = g.eval(shifted.reshape(-1, pts.shape[1])).reshape(len(pts), len(Y), -1)
        if not np.any(too_far(gy - gx[:, None, :] - linear(Y), Y, rho)):
            return delta
    return None


def c1_check(f: LipFn, U, pts, steps=(1e-3, 5e-4), rich_tol=0.15):
    """Two-step-size agreement of central-difference Jacobians plus a
    first-order model consistency probe.

    Passes iff at every point ||J_h - J_{h/2}|| and the one-sided residual
    ||f(x + h e_i) - f(x) - h J[:, i]|| / h are both within
    rich_tol * max(1, ||J_{h/2}||).  The one-sided probe catches kinks that
    sit exactly at the sample point, where central differences cancel.
    Returns (passed, worst relative residual, worst point).
    """
    h1, h2 = float(steps[0]), float(steps[1])
    worst = 0.0
    worst_pt = None
    for x in np.atleast_2d(np.asarray(pts, dtype=float)):
        J1 = fd_jacobian(f, x, h1)
        J2 = fd_jacobian(f, x, h2)
        scale = max(1.0, float(np.max(np.abs(J2))))
        rel = float(np.max(np.abs(J1 - J2))) / scale
        f0 = f(x)
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = h1
            model = float(np.max(np.abs(f(x + e) - f0 - h1 * J2[:, i]))) / h1
            rel = max(rel, model / scale)
        if rel > worst:
            worst, worst_pt = rel, x
    return worst <= rich_tol, worst, worst_pt
