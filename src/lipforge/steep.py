"""Steep functions and the composites built from them.

build_steep approximates, on a grid, the scalar function defined as the
supremum over cone-constrained curves ending on the forward ray x + s*v of
(mass of the curve inside G) - s.  Along the attaining direction of the
driving functional it climbs at unit rate inside G; transversally it is
nearly flat when the cone is narrow.  The remaining operations compose
steep functions, covers, partitions of unity and smoothing into derivative
maps, staircase multiplier maps, iterated sequences and a single
nested-ball game step.

Conventions for a general functional P (the sup definition normalizes
||P|| = 1): the returned function is ||P|| times the normalized one, so its
slope along v_P is ||P||, transversal increments are O(alpha ||P||) and
0 <= g <= ||P|| * (curve-mass estimate).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstructionError, HypothesisError, InputError,
                     ResolutionError, check_size)
from .fn import (ConstFn, GridFn2D, LinearFn, LipFn, PlateauFn, SumFn,
                 VecScaleFn, ZeroFn)
from .regions import (BoxUnion, CurveSpec, EmptyRegion, Intersection,
                      LatticeDP, Region, box_region, pu_cover,
                      room_inside, xi_estimate)
from .smooth import MollifierSpec, mollify
from .spaces import Functional, LinOp, cyl_constant, op_norm_upper
from .verify import dyadic_radius, fd_jacobian


# ---------------------------------------------------------------------------
# the steep function
# ---------------------------------------------------------------------------


@dataclass
class SteepSpec:
    """The steep function of G for the functional P and cone parameter
    alpha, on a grid of step h.  Curves take lattice steps of range k = 3,
    the terminal-ray samples are h/2 apart (s_res) and the output grid
    extends 4h beyond the bounding box of G (out_pad); the last two follow
    from h."""

    G: Region
    P: Functional
    alpha: float
    h: float
    k: int = field(init=False)
    s_res: float = field(init=False)
    out_pad: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InputError("alpha must lie in (0, 1)")
        if not (0.0 < self.h < np.inf):
            raise InputError("grid step must be positive and finite")
        self.k = 3
        self.s_res = self.h / 2.0
        self.out_pad = 4.0 * self.h
        v = self.P.attain_dir
        pn = self.P.dual_norm
        if pn > 0 and abs(float(self.P(v)) - pn) > 1e-9 * max(1.0, pn):
            raise InputError("attain direction does not attain the dual norm")


def build_steep(spec: SteepSpec) -> LipFn:
    """Grid approximation of the steep function for (G, P, alpha).

    Returns the GridFn2D of the values on the output grid, or a ZeroFn in
    a trivial case (||P|| = 0, an empty G, or a box-union G of zero area,
    one with no boxes included). check_steep_properties reports its gap.

    The terminal-ray max takes a sliding-window max along the lattice
    (_ray_max_axis) when v_P is exactly +-e_k, as the ray samples lie
    s_res = h/2 apart, half a lattice cell, along a lattice axis. It differs
    from the sampled scan by rounding only, within 1e-14 * max(1, max
    |best|), far below the gap's s_res term. Every other v_P (generic,
    weighted-lp axes, diagonals) keeps the scan (_ray_max_scan), one
    bilinear grid pass per ray sample.
    """
    P = spec.P
    pn = P.dual_norm
    lo_g, hi_g = spec.G.bounds("G")
    if pn == 0.0 or isinstance(spec.G, EmptyRegion) or (
            isinstance(spec.G, BoxUnion) and spec.G.area() == 0.0):
        return ZeroFn(P.space.dim, 1)
    if P.space.dim != 2:
        raise InputError("grid steep construction supports d = 2")

    v = np.asarray(P.attain_dir, dtype=float)
    h = spec.h
    pad = spec.out_pad
    out_lo, out_hi = lo_g - pad, hi_g + pad

    # forward reach of the terminal ray: enough to sweep the P-extent of G
    corners = np.array([[a, b] for a in (out_lo[0], out_hi[0])
                        for b in (out_lo[1], out_hi[1])])
    pv = corners @ P.coeffs
    smax = float((pv.max() - pv.min()) / pn) + 2.0 * h

    # the DP grid must extend forward along v so rays from every output
    # node can be evaluated; best propagates at zero cost outside G
    ext_lo = np.minimum(out_lo, out_lo + smax * np.minimum(v, 0.0))
    ext_hi = np.maximum(out_hi, out_hi + smax * np.maximum(v, 0.0))
    cs = CurveSpec(P, spec.alpha, h, k=spec.k)
    dp = LatticeDP(spec.G, cs, bbox=(ext_lo, ext_hi), pad=1)
    best = dp.best.reshape(dp.shape)

    nxo = int(np.ceil((out_hi[0] - out_lo[0]) / h)) + 1
    nyo = int(np.ceil((out_hi[1] - out_lo[1]) / h)) + 1
    s_grid = np.arange(0.0, smax + spec.s_res, spec.s_res)
    axis_ray = np.count_nonzero(v) == 1 and np.max(np.abs(v)) == 1.0
    ray_max = _ray_max_axis if axis_ray else _ray_max_scan
    vals = ray_max(GridFn2D(dp.lo, h, best), out_lo, (nxo, nyo), v, s_grid)
    vals = np.maximum(vals, 0.0) * pn
    return GridFn2D(out_lo, h, vals)


def _ray_max_scan(best_fn, out_lo, shape, v, s_grid):
    """max over s in s_grid of best_fn(x + s v) - s at the output nodes
    x = out_lo + (i, j) h: one bilinear pass over all nodes per sample."""
    h = best_fn.h
    xs = out_lo[0] + np.arange(shape[0]) * h
    ys = out_lo[1] + np.arange(shape[1]) * h
    mx, my = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.stack([mx.ravel(), my.ravel()], axis=1)
    vals = np.full(len(nodes), -np.inf)
    for s in s_grid:
        cand = best_fn.eval(nodes + s * v)[:, 0] - s
        np.maximum(vals, cand, out=vals)
    return vals.reshape(shape)


def _ray_max_axis(best_fn, out_lo, shape, v, s_grid):
    """_ray_max_scan for v = +-e_k and s_grid[m] = m h / 2, as a sliding-window
    max along axis k of the lattice.

    The samples of one parity of m lie whole cells apart along axis k and
    share one interpolation fraction against the lattice, so each parity is
    a window max over once-interpolated lattice rows less the ray length.
    Rows past the lattice read its edge, as GridFn2D.eval clamps. Output
    nodes lie on lattice lines across axis k.
    """
    h = best_fn.h
    k = int(np.flatnonzero(v)[0])
    sign = float(v[k])
    nk, nt = shape[k], shape[1 - k]
    j0 = int(round((out_lo[1 - k] - best_fn.lo[1 - k]) / h))
    best = np.moveaxis(best_fn.values, k, 0)[:, j0:j0 + nt]
    n = best.shape[0]
    out = np.full((nk, nt), -np.inf)
    for p in (0, 1):
        w = len(s_grid[p::2])
        c = (out_lo[k] + sign * s_grid[p] - best_fn.lo[k]) / h
        base = int(np.floor(c))
        fr = c - base
        # row t of B is lattice row r0 + t less the ray length to it; the
        # w samples of output node i are rows i .. i + w - 1
        r0 = base if sign > 0 else base - (w - 1)
        rows = best[np.clip(np.arange(r0, r0 + nk + w), 0, n - 1)]
        t = np.arange(nk + w - 1)[:, None]
        B = (1.0 - fr) * rows[:-1] + fr * rows[1:] - sign * h * t
        F, span = B, 1
        while 2 * span <= w:
            F = np.maximum(F[:-span], F[span:])
            span *= 2
        if span < w:
            F = np.maximum(F[:span - w], F[w - span:])
        i = np.arange(nk)[:, None]
        np.maximum(out, F + sign * (base - r0 + i) * h - s_grid[p], out=out)
    return np.moveaxis(out, 0, k)


def check_steep_properties(g: LipFn, spec: SteepSpec, seed=0):
    """(props, gap) for g = build_steep(spec): props maps each property to
    its (worst residual, allowed bound) over 300 sampled points, met when
    residual <= bound; gap = ||P|| (xi_gap + 2h (1 + k) + s_res), xi_gap
    that of G's curve-mass estimate, which also caps (i).  A trivial case's
    ZeroFn gets the single entry zero and gap 0."""
    rng, n = np.random.default_rng(seed), 300
    if isinstance(g, ZeroFn):
        return {"zero": (0.0, 0.0)}, 0.0
    P = spec.P
    pn = P.dual_norm
    xi_val, xi_gap, _ = xi_estimate(spec.G, CurveSpec(P, spec.alpha, spec.h, k=spec.k))
    gap = float(pn * (xi_gap + 2.0 * spec.h * (1.0 + spec.k) + spec.s_res))
    lo, hi = spec.G.bounds("G")
    span = hi - lo
    X = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, (n, 2))
    v = np.asarray(P.attain_dir, dtype=float)
    out = {}

    gv = g.eval(X)[:, 0]
    ximax = pn * (xi_val + xi_gap)
    out["i-lower"] = (float(np.max(-gv)), gap)
    out["i-upper"] = (float(np.max(gv - ximax)), gap)

    r = rng.uniform(0.0, float(np.max(span)), n)
    g2 = g.eval(X + r[:, None] * v[None, :])[:, 0]
    out["A-monotone"] = (float(np.max(gv - g2)), gap)
    out["A-rate"] = (float(np.max(g2 - gv - pn * r)), gap)

    # (B): segments inside G with clearance from the boundary
    idx = np.flatnonzero(spec.G.contains(X))
    t = np.minimum(spec.G.dist_to_boundary(X[idx]) * 0.5, 5 * spec.h)
    far = t > 2 * spec.h
    idx, t = idx[far], t[far]
    X2 = X[idx] + t[:, None] * v[None, :]
    keep = spec.G.contains(X2)
    d = g.eval(X2[keep])[:, 0] - gv[idx[keep]] - pn * t[keep]
    resB = np.max(np.abs(d), initial=0.0)
    out["B-in-G"] = (float(resB), gap)

    # (ii): increments along ker P
    y = np.array([-P.coeffs[1], P.coeffs[0]])
    y = y / max(float(P.space.norm(y)), 1e-300)
    tt = rng.uniform(-float(np.max(span)), float(np.max(span)), n)
    g3 = g.eval(X + tt[:, None] * y[None, :])[:, 0]
    allow = spec.alpha * pn / (1.0 - spec.alpha) * np.abs(tt) * float(P.space.norm(y))
    out["ii-transversal"] = (float(np.max(np.abs(g3 - gv) - allow)), gap)

    # (iv): sampled global Lipschitz constant
    Y = X + rng.uniform(-1, 1, X.shape) * 0.3 * span
    dn = P.space.norm(X - Y)
    ok = dn > 1e-9
    ratios = np.abs(g.eval(Y[ok])[:, 0] - gv[ok]) / dn[ok]
    lip_claim = (1.0 + 2.0 * spec.alpha / (1.0 - spec.alpha)) * pn
    out["iv-lip"] = (float(np.max(ratios) - lip_claim), gap)

    # (iii): lambda decomposition for sampled (x, w)
    W = rng.uniform(-0.5, 0.5, (n, 2)) * span
    pw = W @ P.coeffs
    sel = np.abs(pw) >= 1e-6
    Xs, Ws, ps = X[sel], W[sel], pw[sel]
    gpv = g.eval(Xs + ps[:, None] * v[None, :])[:, 0]
    lam = (gpv - gv[sel]) / ps
    lam_rng = np.max(np.maximum(-lam, lam - 1.0), initial=0.0)
    resid = np.abs(g.eval(Xs + Ws)[:, 0] - gpv)
    bound = (2 * spec.alpha * pn / (1.0 - spec.alpha)
             * P.space.norm(Ws - ps[:, None] * v[None, :]))
    lam_res = np.max(resid - bound, initial=0.0)
    out["iii-lambda-range"] = (float(lam_rng), gap / max(1e-9, pn * spec.h))
    out["iii-lambda-resid"] = (float(lam_res), gap)
    return out, gap


def enumerate_steep_oracle(G: Region, cs: CurveSpec, bbox):
    """Exhaustive longest-path enumeration over the lattice DAG; small
    grids only.  Returns the best in-G mass over all admissible paths."""
    lo, hi = np.asarray(bbox[0], float), np.asarray(bbox[1], float)
    h = cs.h
    nx = int(round((hi[0] - lo[0]) / h)) + 1
    ny = int(round((hi[1] - lo[1]) / h)) + 1
    if nx * ny > 64:
        raise InputError("oracle enumeration limited to <= 64 nodes")
    nodes = [(i, j) for i in range(nx) for j in range(ny)]
    from functools import lru_cache

    def pos(ij):
        return lo + np.array(ij, dtype=float) * h

    @lru_cache(maxsize=None)
    def best_from(ij):
        res = 0.0
        for s in cs.step_set:
            nxt = (ij[0] + s[0], ij[1] + s[1])
            if not (0 <= nxt[0] < nx and 0 <= nxt[1] < ny):
                continue
            step = np.array(s, dtype=float) * h
            w = float(G.segment_inside_length(pos(ij)[None], step)[0])
            res = max(res, w + best_from(nxt))
        return res

    return max(best_from(ij) for ij in nodes)


# ---------------------------------------------------------------------------
# pu derivative map
# ---------------------------------------------------------------------------


def build_pu_map(E: Region, U: Region, T: LinOp, theta, h=None, cover_budget=6,
                 seed=0):
    """(g, H): Lip(g) near c(T)+theta, Dg close to T on the region H around
    the purely unrectifiable set E, and g supported inside U.

    g is assembled coordinate-wise from steep functions on small covers of
    E, gated by a C1 plateau that is 1 on a neighborhood of E and 0 outside
    U.  Attributes on g: gap (discretization), cyl_value (c(T)) and parts,
    per kept coordinate a dict of coord, eps, eps_formal, cover_level,
    cover_met, xi_value, xi_gap, vmax, w_norm, P_norm and grid_h; a ZeroFn g
    (no coordinate kept) carries none of them.
    """
    if not (0.0 < theta < np.inf):
        raise InputError("theta must be positive and finite")
    d = T.dom.dim
    if T.opnorm_ub == 0.0 or _is_empty(E):
        return _zero_pu_map(E, T)
    loE, hiE, room = room_inside(E, U, "U")

    cval, ws, duals = cyl_constant(T, return_basis=True, seed=seed)
    r = max(1, len(ws))
    # plateau: 1 on a box neighborhood K of E, 0 outside a larger box in U;
    # a wide ramp keeps the product-rule Lipschitz term small
    m1, m2 = room * 0.2, room * 0.9
    plateau = PlateauFn(loE - m2, hiE + m2, loE - m1, hiE + m1)

    parts = []
    terms = []
    total_sup = 0.0
    total_gap = 0.0
    H_list = []
    for i, (w, dual) in enumerate(zip(ws, duals)):
        Ti_row = dual @ T.matrix
        P = Functional(Ti_row, T.dom)
        if P.dual_norm <= 1e-14:
            continue
        w_norm = float(T.cod.norm(np.asarray(w)))
        ti_norm = P.dual_norm
        # the summability condition gives the formal cone parameter; the
        # achievable cone at finite cover depth is usually wider, so sweep
        # upward until both the cover and the sup-norm budget are met
        rhs = theta / (4.0 * r * (1.0 + ti_norm) * (1.0 + w_norm))
        rhs_phi = rhs / (1.0 + plateau.lip_bound)
        eps_formal = min(0.45, rhs_phi / (1.0 + rhs_phi))
        sup_budget = theta * w_norm / sum(
            float(T.cod.norm(np.asarray(wj))) for wj in ws)
        slope_budget = 0.75 * theta / r
        chosen = None
        tried = []
        for eps_try in sorted({eps_formal, 0.05, 0.1, 0.15, 0.2, 0.3}):
            if eps_try <= 0 or eps_try / (1.0 - eps_try) * ti_norm * w_norm > slope_budget:
                continue
            G_try, xi_val, xi_gap, met, level = pu_cover(
                E, P, eps_try, budget=cover_budget)
            tried.append(eps_try)
            sup_est = w_norm * ti_norm * xi_val / 2.0
            if sup_est <= sup_budget:
                chosen = (eps_try, G_try, xi_val, xi_gap, met, level)
                break
        if chosen is None:
            raise ConstructionError(
                "no cone parameter meets the cover and sup-norm budgets for "
                "coordinate %d; failing eps schedule: %r" % (i, tried))
        eps_i, G_i, xi_val, xi_gap, met, level = chosen
        side = float(G_i.hi[0, 0] - G_i.lo[0, 0])
        h_i = h if h is not None else min(side / 12.0, 1.0 / 256.0)
        spec = SteepSpec(G_i, P, min(max(eps_i, 1e-4), 0.9), h_i)
        s = build_steep(spec)
        vmax = float(np.max(s.values)) if isinstance(s, GridFn2D) else 0.0
        c_i = vmax / 2.0
        centered = SumFn([s, ConstFn([-c_i], d)], [1.0, 1.0])
        gated = VecScaleFn(plateau, centered)
        terms.append(VecScaleFn(gated, ConstFn(w, d)))
        total_sup += w_norm * vmax / 2.0
        # discretization part only: the cone slope is budgeted under theta
        total_gap += w_norm * ti_norm * (2.0 * h_i * (1 + spec.k) + spec.s_res)
        shrink = side / 12.0  # half the inflation margin: keeps E inside
        H_list.append(BoxUnion(G_i.lo + shrink, G_i.hi - shrink, open_=True))
        parts.append({
            "coord": i, "eps": eps_i, "eps_formal": eps_formal,
            "cover_level": level, "cover_met": met,
            "xi_value": xi_val, "xi_gap": xi_gap,
            "vmax": vmax, "w_norm": w_norm, "P_norm": ti_norm, "grid_h": h_i,
        })

    if total_sup > theta + 1e-12:
        raise ConstructionError(
            "steep magnitudes exceed the sup-norm budget theta=%g (got %g); "
            "failing eps schedule: %r" % (theta, total_sup,
                                          [p["eps"] for p in parts]))
    lip_claim = (sum(p["w_norm"] * p["P_norm"] * (1.0 + p["eps"] / (1.0 - p["eps"]))
                     for p in parts) + plateau.lip_bound * total_sup)
    if lip_claim > cval + theta + 1e-12:
        raise ConstructionError(
            "Lipschitz budget c(T)+theta=%g exceeded by the claim %g; widen U "
            "or deepen the cover; eps schedule: %r"
            % (cval + theta, lip_claim, [p["eps"] for p in parts]))
    if not terms:
        return _zero_pu_map(E, T)
    g = SumFn(terms)
    g.gap = float(total_gap)
    g.parts = parts
    g.cyl_value = float(cval)
    H = H_list[0] if len(H_list) == 1 else Intersection(H_list)
    return g, H


def _is_empty(E: Region):
    return isinstance(E, EmptyRegion) or (isinstance(E, BoxUnion) and E.n_boxes == 0)


def _zero_pu_map(E: Region, T: LinOp):
    """(g, H) of a pu map with no steep term: g = 0 into T's codomain; H is
    empty for an empty E and else the open box 1e-3 around E, which must be
    bounded."""
    if _is_empty(E):
        H = EmptyRegion(T.dom.dim)
    else:
        loE, hiE = E.bounds("E")
        H = box_region(loE - 1e-3, hiE + 1e-3, open_=True)
    return ZeroFn(T.dom.dim, T.cod.dim), H


def pu_map_certificate(g: LipFn, H: Region, U: Region, T: LinOp, theta,
                       n_points=200, fd_step=None, seed=0):
    """Sampled checks of the derivative-map postconditions.

    Returns a dict with the worst finite-difference residual ||J - T|| at
    interior H lattice points, the sampled sup norm (20,000 points around
    U) and Lipschitz constant (4,000 nearby pairs), the support leak
    outside U, and the reported gap.
    """
    if not n_points >= 1:
        raise InputError("the certificate needs n_points >= 1")
    check_size(20 * n_points, "20 x %s certificate samples" % n_points)
    rng = np.random.default_rng(seed)
    d = T.dom.dim
    gap = getattr(g, "gap", 0.0)
    out = {"gap": float(gap)}
    grid_h = max((p["grid_h"] for p in getattr(g, "parts", [])), default=1e-3)
    if fd_step is None:
        fd_step = 2.0 * grid_h
    worst_fd = 0.0
    if not isinstance(H, EmptyRegion):
        # when H is (an intersection of) box unions, draw the same number of
        # points in each box, in one call: the rows run box by box. The first
        # n_points interior rows are kept, so they reach only the leading
        # boxes (the first 20 or 21 of 64 on the pumap bench inputs), and the
        # later boxes get no test point.
        boxes = H
        while isinstance(boxes, Intersection):
            boxes = boxes.children[0]
        if isinstance(boxes, BoxUnion) and boxes.n_boxes > 0:
            per = max(1, (20 * n_points) // boxes.n_boxes)
            raw = rng.uniform(boxes.lo[:, None], boxes.hi[:, None],
                              (boxes.n_boxes, per, d)).reshape(-1, d)
        else:
            lo, hi = H.bounds("H")
            raw = rng.uniform(lo, hi, (20 * n_points, d))
        # both tests are row by row: filter n_points rows at a time, in
        # order, until n_points have passed
        kept, n_kept = [], 0
        for start in range(0, len(raw), n_points):
            blk = raw[start:start + n_points]
            blk = blk[H.contains(blk) & (H.dist_to_boundary(blk) > fd_step * 1.5)]
            kept.append(blk)
            n_kept += len(blk)
            if n_kept >= n_points:
                break
        pts = np.concatenate(kept)[:n_points]
        out["n_H_points"] = int(len(pts))
        residuals = op_norm_upper(fd_jacobian(g, pts, fd_step) - T.matrix, T.dom, T.cod)
        worst_fd = np.max(residuals, initial=0.0)
    out["fd_residual"] = float(worst_fd)
    out["fd_ok"] = bool(worst_fd <= theta + gap + 1e-9)

    lo, hi = U.bounds("U")
    X = rng.uniform(lo - 0.2, hi + 0.2, (20000, d))
    vals = g.eval(X)
    out["sup_norm"] = float(np.max(T.cod.norm(vals)))
    out["sup_ok"] = bool(out["sup_norm"] <= theta + 1e-9)
    outside = ~U.contains(X)
    leak = float(np.max(T.cod.norm(vals[outside]))) if outside.any() else 0.0
    out["support_leak"] = leak
    out["support_ok"] = bool(leak <= 1e-12)

    X = X[:4000]
    Y = X + rng.uniform(-1, 1, X.shape) * 0.05
    dn = T.dom.norm(X - Y)
    ok = dn > 1e-9
    ratios = T.cod.norm(g.eval(X[ok]) - g.eval(Y[ok])) / dn[ok]
    out["lip_sampled"] = float(np.max(ratios, initial=0.0))
    cval = getattr(g, "cyl_value", T.opnorm_ub)
    out["lip_ok"] = bool(out["lip_sampled"] <= cval + theta + gap + 1e-9)
    return out


# ---------------------------------------------------------------------------
# psi staircase map
# ---------------------------------------------------------------------------


@dataclass
class PsiMap:
    phi: LipFn           # the continuous multiplier being quantized
    H_levels: list       # nested regions H_1 >= H_2 >= ... (staircase)
    G1: Region           # outermost region; psi vanishes off it
    k: int

    def j_of(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        j = np.zeros(len(X), dtype=int)
        for Hi in self.H_levels:
            j += Hi.contains(X).astype(int)
        return j

    def eval(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        phi_v = self.phi.eval(X)[:, 0]
        inG = self.G1.contains(X)
        stair = (self.j_of(X) + 2) / float(self.k)
        return np.where(inG, np.minimum(stair, phi_v), 0.0)


def _phi_level_boxes(phi: LipFn, bbox, thresh, n_side):
    """Open box union over lattice cells where phi >= thresh; bbox is a
    pair of float arrays (lo, hi)."""
    lo, hi = bbox
    xs = np.linspace(lo[0], hi[0], n_side)
    ys = np.linspace(lo[1], hi[1], n_side)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    mx, my = np.meshgrid(xs[:-1] + hx / 2, ys[:-1] + hy / 2, indexing="ij")
    centers = np.stack([mx.ravel(), my.ravel()], axis=1)
    vals = phi.eval(centers)[:, 0]
    keep = centers[vals >= thresh]
    if len(keep) == 0:
        return None
    cell = np.array([hx / 2, hy / 2])
    return BoxUnion(keep - cell, keep + cell, open_=True)


def build_psi_map(E: Region, eta, phi: LipFn, T: LinOp, n_side=32, seed=0):
    """(f, psi, H): a staircase multiplier map.

    psi quantizes phi through k nested level regions; f is a C1-smoothed
    map whose derivative tracks psi(x) T at certified interior points; on H
    (the deepest level region around E) psi equals phi exactly.
    """
    if not (0.0 < eta < 1.0 + 1e-12):
        raise InputError("eta must lie in (0, 1]")
    loE, hiE = E.bounds("E")
    d, l = T.dom.dim, T.cod.dim
    if T.opnorm_ub > 1.0:
        f1, psi, H = build_psi_map(E, eta, phi,
                                   LinOp.build(T.matrix / T.opnorm_ub, T.dom, T.cod),
                                   n_side=n_side, seed=seed)
        f = SumFn([f1], [T.opnorm_ub]) if not isinstance(f1, ZeroFn) else f1
        return f, psi, H

    theta = min(1.0, eta / 5.0)
    cval = cyl_constant(T, seed=seed) if T.opnorm_ub > 0 else 0.0
    C = cval + 5.0
    k = int(np.ceil(C / theta))
    if not (C / theta <= k <= 2 * C / theta):
        k = int(np.floor(2 * C / theta))

    def nothing():
        return ZeroFn(d, l), PsiMap(phi, [], EmptyRegion(d), k), EmptyRegion(d)

    band_lo, band_hi = loE - eta, hiE + eta  # psi must vanish off B(E, eta)
    bb = (band_lo, band_hi)

    # detect phi == 0 near E
    probe = np.random.default_rng(seed).uniform(band_lo, band_hi, (500, d))
    if float(np.max(np.abs(phi.eval(probe)))) == 0.0:
        return nothing()

    # nested staircase regions from the level sets of phi, shrunk toward E
    H_levels = []
    margins = np.linspace(eta * 0.5, eta * 0.05, k)
    for i in range(1, k + 1):
        boxes = _phi_level_boxes(phi, bb, i / float(k), n_side=n_side)
        if boxes is None:
            break
        lo_i = np.maximum(boxes.lo, (loE - margins[i - 1])[None, :])
        hi_i = np.minimum(boxes.hi, (hiE + margins[i - 1])[None, :])
        ok = np.all(hi_i > lo_i, axis=1)
        if not ok.any():
            break
        H_levels.append(BoxUnion(lo_i[ok], hi_i[ok], open_=True))
    G1 = _phi_level_boxes(phi, bb, 1.0 / (2.0 * k), n_side=n_side)
    if G1 is None:
        return nothing()
    psi = PsiMap(phi, H_levels, G1, k)

    # f: a smoothed ramp realizing roughly psi * T near E: plateau * linear
    depth = len(H_levels)
    if depth == 0:
        return ZeroFn(d, l), psi, EmptyRegion(d)
    H_core = H_levels[min(depth, max(1, k - 2)) - 1]
    loC, hiC = H_core.bounds("H")
    ramp_lo = np.maximum(band_lo, loC - eta * 0.4)
    ramp_hi = np.minimum(band_hi, hiC + eta * 0.4)
    plateau = PlateauFn(ramp_lo, ramp_hi, loC, hiC)
    raw = VecScaleFn(plateau, LinearFn(T.matrix))
    return mollify(raw, MollifierSpec(max(eta * 0.02, 1e-3), d, order=8)), psi, H_core


# ---------------------------------------------------------------------------
# iterated sequence
# ---------------------------------------------------------------------------


def build_sequence(E: Region, H0: Region, f0: LipFn, eta, schedule, seed=0):
    """Iterate the staircase map over a schedule of (T_j, phi_j, theta_j).

    Each step adds a psi-map perturbation bounded by theta_j and vanishing
    where phi_j vanishes; each psi map reads phi_j on a 24-cell lattice.
    Returns the list of (H_j, f_j, psi_j), j >= 1;
    an empty schedule returns [(H0, f0, None)].
    """
    if not (0.0 < eta < 1.0 + 1e-12):
        raise InputError("eta must lie in (0, 1]")
    out = [(H0, f0, None)]
    f_prev = f0
    for j, (Tj, phij, thetaj) in enumerate(schedule, start=1):
        eta_j = min(2.0 ** (-j) * eta, thetaj)
        gj, psij, Hj = build_psi_map(E, eta_j, phij, Tj, n_side=24, seed=seed + j)
        if not isinstance(gj, ZeroFn):
            # rescale the perturbation into the theta_j sup-norm budget
            lo, hi = E.bounds("E")
            probe = np.random.default_rng(seed + 100 + j).uniform(
                lo - 1.0, hi + 1.0, (2000, f0.d))
            sup = float(np.max(np.abs(gj.eval(probe))))
            scale = 1.0 if sup <= thetaj else thetaj / (sup * (1.0 + 1e-9))
            fj = SumFn([f_prev, gj], [1.0, scale])
        else:
            fj = f_prev
        out.append((Hj, fj, psij))
        f_prev = fj
    return out


# ---------------------------------------------------------------------------
# one nested-ball game step with a pu derivative map
# ---------------------------------------------------------------------------


def bmgame_step_pu(E: Region, Q: Region, theta, f: LipFn, T: LinOp, seed=0):
    """(U, g, delta): perturb f so its derivative near E is close to T.

    Preconditions: Lip(f) < 1 (certified bound on the node), ||T|| < 1, and
    E bounded and strictly inside the bounded Q.  U is the open box of E's
    bounding box grown on every face by 0.9 of its least gap to Q's.
    g = f + pu-map inside U for the correction T - Df(x0), x0 the center of
    E's bounding box, mollified; delta is the slope radius of g
    (slope_radius), so the slope condition holds for any h with
    ||h - g|| <= theta * delta / 8.
    """
    if T.opnorm_ub >= 1.0:
        raise HypothesisError("need ||T|| < 1 (certified)")
    lip_f = f.lip_bound
    if lip_f is None or lip_f >= 1.0:
        raise HypothesisError("need a certified Lip(f) < 1")
    zeta = min((1.0 - max(lip_f, T.opnorm_ub)) / 3.0, theta / 4.0)
    loE, hiE, room = room_inside(E, Q, "Q")
    U = box_region(loE - room * 0.9, hiE + room * 0.9, open_=True)

    x0 = (loE + hiE) / 2.0
    A = fd_jacobian(f, x0, 1e-4)
    corr = LinOp.build(T.matrix - A, T.dom, T.cod)
    if corr.opnorm_ub <= 1e-12:
        delta = slope_radius(f, E, T, theta, seed=seed)
        return U, f, delta
    p, _H = build_pu_map(E, U, corr, max(zeta, 1e-3), seed=seed)
    if not isinstance(p, ZeroFn):
        grid_h = max((q["grid_h"] for q in p.parts), default=1e-3)
        spec = MollifierSpec(max(grid_h, 1e-4), f.d, order=8)
        p = mollify(p, spec)
    g = SumFn([f, p], [1.0, 1.0])
    delta = slope_radius(g, E, T, theta, seed=seed)
    return U, g, delta


def slope_radius(g: LipFn, E: Region, T: LinOp, theta, seed=0):
    """Largest dyadic delta with ||g(x+y) - g(x) - T y|| <= (theta/2) delta
    for sampled x in E and ||y|| <= delta; the theta/2 margin absorbs any
    sup-perturbation of g up to theta*delta/8.

    x runs over the box centers of E (40 seeded ones when there are more;
    the bounding-box center unless E is a box union), y over 8 seeded
    Gaussian directions scaled to the unit sphere of T.dom, and delta over
    2^-1 down to 2^-30.
    """
    rng = np.random.default_rng(seed)
    pts = E.lo + (E.hi - E.lo) / 2.0 if isinstance(E, BoxUnion) else \
        np.mean(E.bounds("E"), axis=0)[None]
    pts = np.atleast_2d(pts)
    if len(pts) > 40:
        pts = pts[rng.choice(len(pts), 40, replace=False)]
    dirs = rng.normal(size=(8, T.dom.dim))
    dirs /= np.asarray(T.dom.norm(dirs))[:, None]
    l = T.cod.dim
    delta = dyadic_radius(
        g, pts, dirs, range(1, 31), lambda Y: Y @ T.matrix.T,
        lambda r, Y, rho: (T.cod.norm(r.reshape(-1, l)).reshape(r.shape[:2])
                           > theta / 2.0 * rho))
    if delta is None:
        raise ResolutionError("no dyadic radius above 2^-30 satisfies the slope "
                              "condition")
    return delta
