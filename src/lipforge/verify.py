"""Certification harness: increment-ratio scans at dyadic scales,
Lipschitz-constant estimation, two-sided lower-derivative checks and
finite-difference smoothness checks.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InputError, check_size
from .fn import LipFn, as_fraction
from .spaces import NormedSpace

# points per eval_exact_rows call of exact_increment_residuals, so that its
# memory stays bounded in the number of directions
EXACT_ROWS = 256


@dataclass
class DerivScanReport:
    x: np.ndarray
    scales: list
    ops: list
    errors: np.ndarray  # (n_ops, n_scales)
    tol: float

    def min_error(self, op_index):
        return float(np.min(self.errors[op_index]))

    def verdict(self, op_index):
        return self.min_error(op_index) <= self.tol

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
    """+-e_i, then n_random seeded normal draws scaled to unit norm."""
    raw = np.random.default_rng(seed).standard_normal((n_random, d))
    nv = space.norm(raw)
    axes = np.stack([np.eye(d), -np.eye(d)], axis=1).reshape(2 * d, d)
    return np.vstack([axes, raw[nv > 0] / nv[nv > 0, None]])


def scan_derivative_set(f: LipFn, x, ops, scales, dirs=200, tol=0.1, Q=None,
                        seed=0, exact=False) -> DerivScanReport:
    """Per-scale increment-ratio errors e_j(T) for each candidate operator.

    e_j(T) = max over sampled unit directions u of
    ||f(x + r_j u) - f(x) - T(r_j u)|| / r_j.  The verdict for T holds iff
    min_j e_j(T) <= tol.  With exact=True the increments are evaluated in
    rational arithmetic (needed at microscopic scales); a node or norm
    without exact evaluation raises ExactEvalUnsupported.  x must be finite
    with f.d coordinates, the domain dimension of every operator, and every
    operator must have f.l outputs; every
    scale must be positive and finite, as a float or, with exact=True, as
    given; tol must be finite and >= 0, and dirs >= 0.
    """
    x = np.asarray(x, dtype=float).ravel()
    ops = list(ops)
    if not ops:
        raise InputError("need at least one candidate operator")
    dims = [f.d] + [T.dom.dim for T in ops]
    if any(n != len(x) for n in dims):
        raise InputError("the point has %d coordinates; the map and the "
                         "operators take %r" % (len(x), dims))
    if any(T.cod.dim != f.l for T in ops):
        raise InputError("the map has %d outputs; the operators give %r"
                         % (f.l, [T.cod.dim for T in ops]))
    if not np.all(np.isfinite(x)):
        raise InputError("the point must be finite, got %r" % (x.tolist(),))
    radii = list(scales) if exact else [float(s) for s in scales]
    if not radii or not all(0 < r < math.inf for r in radii):
        raise InputError("scales must be positive and finite, got %r" % (radii,))
    if not 0 <= tol < math.inf:
        raise InputError("tol must be finite and >= 0, got %r" % (tol,))
    if not dirs >= 0:
        raise InputError("dirs must be >= 0, got %r" % (dirs,))
    check_size(dirs, "%s random directions" % dirs)
    dom = ops[0].dom
    if Q is not None:
        db = float(Q.dist_to_boundary(x[None])[0])
        if db < max(float(s) for s in scales):
            raise DomainError("scan scales exit the domain")
    U = _directions(len(x), dirs, seed, dom)
    errors = np.zeros((len(ops), len(scales)))
    if exact:
        xf = [as_fraction(v) for v in x]
        rf = [as_fraction(r) for r in scales]
        worst = exact_increment_residuals(f, [xf], ops, U, rf, rf)
        for j, per_op in enumerate(worst):
            errors[:, j] = [float(e) for e in per_op]
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


def exact_increment_residuals(f: LipFn, X, ops, dirs, rhos, divisors):
    """For each radius rho of rhos, with its divisor, the list over the
    operators T of ops of max over x in X and u in dirs of
    ||f(x + rho u) - f(x) - rho T u|| / divisor, in rationals.

    The rows of X are lists of Fractions, the rows of dirs sequences of
    floats or Fractions (taken exactly), and rhos and divisors sequences of
    Fractions of one length, the divisors positive.  f(X) is evaluated in
    one eval_exact_rows call.  The directions are taken in blocks, so that
    f is evaluated in eval_exact_rows calls of at most EXACT_ROWS points
    (or of one direction at every point and radius), once per point,
    direction and radius, and T u once per direction.  No residual becomes
    a float before its division, as it can sit far below float range at
    microscopic scales: an exact codomain divides the largest exact norm
    once (every exact norm is positively homogeneous), any other takes the
    float norm of the divided residual.
    """
    mats = [[[as_fraction(v) for v in row] for row in T.matrix] for T in ops]
    worst = [[Fraction(0)] * len(ops) for _ in rhos]
    fxs = f.eval_exact_rows(X)
    step = max(1, EXACT_ROWS // max(1, len(rhos) * len(X)))
    for start in range(0, len(dirs), step):
        block = [[as_fraction(v) for v in u] for u in dirs[start:start + step]]
        fys = f.eval_exact_rows([[xi + rho * ui for xi, ui in zip(x, u)]
                                 for x in X for rho in rhos for u in block])
        for a, (T, Tm) in enumerate(zip(ops, mats)):
            Tus = [[sum(t * ui for t, ui in zip(row, u)) for row in Tm] for u in block]
            for p, fx in enumerate(fxs):
                for j, (rho, dv) in enumerate(zip(rhos, divisors)):
                    for fy, Tu in zip(fys[(p * len(rhos) + j) * len(block):], Tus):
                        rs = [fy[i] - fx[i] - rho * Tu[i] for i in range(len(Tm))]
                        nr = (T.cod.norm_exact(rs) if T.cod.exact_capable else as_fraction(
                            float(T.cod.norm(np.array([float(v / dv) for v in rs])))))
                        worst[j][a] = max(worst[j][a], nr)
    return [[w / dv if T.cod.exact_capable else w for w, T in zip(row, ops)]
            for row, dv in zip(worst, divisors)]


def lip_estimate(f: LipFn, Q, pairs=10000, seed=0, dom: NormedSpace = None,
                 cod: NormedSpace = None):
    """(max sampled ratio, witness pair): a lower bound on Lip(f) over Q."""
    if pairs < 1:
        raise InputError("pairs must be >= 1")
    lo, hi = Q.bounds("Q")
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
    sampled lower one-sided derivatives along +v and -v are both < -margin;
    exact=True takes the difference quotients in rationals."""
    if f.l != 1:
        raise InputError("descent check needs a scalar function")
    x = np.asarray(x, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if exact:
        num, values = as_fraction, lambda P: [fy[0] for fy in f.eval_exact_rows(P)]
    else:
        num, values = float, lambda P: [float(f(p)[0]) for p in P]
    xq, vq = [num(q) for q in x], [num(q) for q in v]
    tq = [num(t) for t in tgrid]
    # x, then x + t v for each t, then x - t v for each t, in one batch
    f0, *fv = values([xq] + [[xi + sign * t * vi for xi, vi in zip(xq, vq)]
                             for sign in (1, -1) for t in tq])
    plus, minus = (min(float((fy - f0) / t) for fy, t in zip(fv[k:], tq))
                   for k in (0, len(tq)))
    flag = plus < -margin and minus < -margin
    return DiniReport(x, v, plus, minus, [float(t) for t in tgrid], flag)


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


def c1_check(f: LipFn, pts, steps=(1e-3, 5e-4)):
    """Two-step-size agreement of central-difference Jacobians plus a
    first-order model consistency probe.

    pts is one point or an (n, d) array of them, drawn by the caller from
    the region where f should be C1; steps are (h, h/2).
    Passes iff at every point ||J_h - J_{h/2}|| and the one-sided residual
    ||f(x + h e_i) - f(x) - h J[:, i]|| / h are both within
    0.15 * max(1, ||J_{h/2}||).  The one-sided probe catches kinks that
    sit exactly at the sample point, where central differences cancel.
    Returns (passed, worst relative residual, worst point): the first point
    with the largest residual, or None when none is positive.  A NaN
    residual fails the check and is the worst.  f is evaluated three times,
    at all points at once, so each row's value must not depend on the batch.
    """
    h1, h2 = float(steps[0]), float(steps[1])
    X = np.atleast_2d(np.asarray(pts, dtype=float))
    n, d = X.shape
    if n == 0:
        return True, 0.0, None
    J1 = fd_jacobian(f, X, h1)
    J2 = fd_jacobian(f, X, h2)
    # f(x), then f(x + h1 e_i) for each i, at every point in one call
    probes = np.concatenate([X[:, None, :], X[:, None, :] + h1 * np.eye(d)], axis=1)
    F = f.eval(probes.reshape(-1, d)).reshape(n, d + 1, -1)
    scale = np.maximum(1.0, np.max(np.abs(J2), axis=(1, 2)))
    model = np.max(np.abs(F[:, 1:] - F[:, :1] - h1 * J2.transpose(0, 2, 1)), axis=2) / h1
    rel = np.max(np.column_stack([np.max(np.abs(J1 - J2), axis=(1, 2)), model]),
                 axis=1) / scale
    k = int(np.argmax(rel))  # the first NaN if there is one
    if rel[k] == 0.0:
        return True, 0.0, None
    worst = float(rel[k])
    return worst <= 0.15, worst, X[k]
