"""Smoothing machinery: quadrature mollification, C1 replacement, smooth
partitions of unity (with a compact-selection variant), Lipschitz-preserving
assembly of local approximants, directional-convolution smoothing around a
compact set, and the uniform-differentiability radius scan.

All convolutions are realized as finite convex combinations of translates
(quadrature of the kernel), which preserves Lipschitz constants exactly and
moves values by at most Lip * (largest shift).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetError, CoverError, DomainError, InputError,
                     PremiseError, ResolutionError)
from .fn import (BoxBumpFn, ConstFn, ConvexShiftCombFn, LipFn, NormalizedBumpFn,
                 PlateauFn, ProductFn, RadialBumpFn, SumFn, VecScaleFn, bump,
                 register)
from .regions import BallUnion, BoxUnion, Region, box_region
from .spaces import LinOp
from .verify import dyadic_radius, fd_jacobian


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------


def _tensor_rule(order, dim):
    """Tensor Gauss-Legendre rule on [-1, 1]^dim: (n, dim) nodes, n weights."""
    x1, w1 = np.polynomial.legendre.leggauss(int(order))
    pts = np.stack([a.ravel() for a in np.meshgrid(*([x1] * dim), indexing="ij")],
                   axis=1)
    wts = np.ones(len(pts))
    for a in np.meshgrid(*([w1] * dim), indexing="ij"):
        wts = wts * a.ravel()
    return pts, wts


@dataclass
class MollifierSpec:
    """Radial bump exp(-1/(1-|x|^2)) on the Euclidean eps-ball, discretized
    by tensor Gauss-Legendre quadrature and normalized to unit mass."""

    eps: float
    dim: int
    order: int = 16
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    quad_mass_defect: float = field(init=False)

    def __post_init__(self):
        if self.eps <= 0:
            raise InputError("mollifier radius must be positive")
        pts, wts = _tensor_rule(self.order, self.dim)
        raw = wts * bump(np.sum(pts * pts, axis=1))
        keep = raw > 0
        raw = raw[keep]
        total = float(raw.sum())
        # mass defect of the raw quadrature against a reference finer rule
        pp, ww = _tensor_rule(2 * self.order, self.dim)
        ref = float(np.sum(ww * bump(np.sum(pp * pp, axis=1))))
        self.quad_mass_defect = abs(total - ref) / max(ref, 1e-300)
        self.nodes = pts[keep] * self.eps
        self.weights = raw / total


@register
class MollifiedFn(ConvexShiftCombFn):
    """Convex shift combination with an optional evaluation domain guard."""

    tag = "mollified"
    fields = ConvexShiftCombFn.fields + (("domain", "domain", "region?"),)

    def __init__(self, base, shifts, weights, domain=None):
        super().__init__(base, shifts, weights)
        self.domain = domain

    def eval(self, X):
        X = np.asarray(X, dtype=float)
        if self.domain is not None:
            ok = self.domain.contains(np.atleast_2d(X))
            if not bool(ok.all()):
                raise DomainError("mollified function evaluated outside its domain")
        return super().eval(X)


def mollify(g: LipFn, spec: MollifierSpec) -> LipFn:
    """g * rho_eps as a quadrature-convolution node.

    Values move by at most Lip(g) * eps (convex combination of translates
    within the eps-ball); the Lipschitz constant never increases.
    """
    if spec.dim != g.d:
        raise InputError("mollifier dimension mismatch")
    return MollifiedFn(g, spec.nodes, spec.weights)


# ---------------------------------------------------------------------------
# partitions of unity
# ---------------------------------------------------------------------------


@dataclass
class PartitionOfUnity:
    phis: list            # scalar LipFns
    supports: list        # Regions containing the supports
    lips: list            # sampled Lipschitz estimates per element
    M: int                # sampled local-finiteness bound

    def sum_at(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.sum([p.eval(X)[:, 0] for p in self.phis], axis=0)


def _bump_for(region: Region):
    if isinstance(region, BoxUnion) and region.n_boxes == 1:
        return BoxBumpFn(region.lo[0], region.hi[0])
    if isinstance(region, BallUnion) and len(region.centers) == 1:
        return RadialBumpFn(region.centers[0], region.radius)
    raise InputError("cover elements must be single boxes or single balls")


def _sample_lattice(V: Region):
    bb = V.bbox()
    if bb is None:
        raise DomainError("need a bounded region to sample")
    lo, hi = np.asarray(bb[0], float), np.asarray(bb[1], float)
    axes = [np.linspace(lo[i], hi[i], 40) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = V.contains(pts)
    return pts[keep]


def _sampled_lip(f: LipFn, region: Region, seed=0):
    bb = region.bbox()
    lo, hi = np.asarray(bb[0], float), np.asarray(bb[1], float)
    rng = np.random.default_rng(seed)
    X = rng.uniform(lo, hi, (400, len(lo)))
    Y = X + rng.uniform(-1, 1, X.shape) * (hi - lo) * 0.05
    dn = np.max(np.abs(X - Y), axis=1)
    ok = dn > 1e-12
    fx, fy = f.eval(X[ok]), f.eval(Y[ok])
    return float(np.max(np.max(np.abs(fx - fy), axis=1) / dn[ok], initial=0.0))


def build_pou(cover, V: Region) -> PartitionOfUnity:
    """Bump-per-element partition of unity on V, normalized by the sum."""
    if not cover:
        raise CoverError("empty cover")
    bumps = [_bump_for(c) for c in cover]
    pts = _sample_lattice(V)
    if len(pts):
        total = np.sum([b.eval(pts)[:, 0] for b in bumps], axis=0)
        if np.min(total) <= 0.0:
            i = int(np.argmin(total))
            raise CoverError("cover sum vanishes on V at %r" % (pts[i],))
        mult = np.sum([b.eval(pts)[:, 0] > 0 for b in bumps], axis=0)
        M = int(np.max(mult))
    else:
        M = len(cover)
    phis = [NormalizedBumpFn(bumps, i) for i in range(len(bumps))]
    lips = [_sampled_lip(p, c, seed=i) for i, (p, c) in enumerate(zip(phis, cover))]
    return PartitionOfUnity(phis, list(cover), lips, M)


def compact_selection(cover, V: Region, E: Region):
    """POU refinement around a compact E: returns (pou, K, U) with
    E inside the open box U, whose closure sits inside V and inside every
    one of the first K cover elements, and every later element's bump
    multiplied by a cutoff vanishing on U."""
    bbE = E.bbox()
    if bbE is None:
        raise DomainError("compact selection needs a bounded E")
    loE, hiE = np.asarray(bbE[0], float), np.asarray(bbE[1], float)
    # order cover so elements whose interior contains the E box come first
    front, back = [], []
    for c in cover:
        bb = c.bbox()
        lo, hi = np.asarray(bb[0], float), np.asarray(bb[1], float)
        if np.all(lo < loE) and np.all(hi > hiE):
            front.append(c)
        else:
            back.append(c)
    if not front:
        raise CoverError("no cover element contains a neighborhood of E")
    ordered = front + back
    K = len(front)
    # U: open box strictly between the E box and the tightest front element
    lo_t = np.max([np.asarray(c.bbox()[0], float) for c in front], axis=0)
    hi_t = np.min([np.asarray(c.bbox()[1], float) for c in front], axis=0)
    bbV = V.bbox()
    if bbV is not None:
        lo_t = np.maximum(lo_t, np.asarray(bbV[0], float))
        hi_t = np.minimum(hi_t, np.asarray(bbV[1], float))
    lo_u = loE - (loE - lo_t) / 2.0
    hi_u = hiE + (hi_t - hiE) / 2.0
    if np.any(lo_u >= loE) or np.any(hi_u <= hiE):
        raise CoverError("no room between E and the cover for the selection box")
    U = box_region(lo_u, hi_u, open_=True)
    cutoff_lo = lo_u - (lo_u - lo_t) / 2.0
    cutoff_hi = hi_u + (hi_t - hi_u) / 2.0
    plateau = PlateauFn(cutoff_lo, cutoff_hi, lo_u, hi_u)
    one_minus = SumFn([ConstFn([1.0], plateau.d), plateau], [1.0, -1.0])

    bumps = [_bump_for(c) for c in ordered]
    gated = bumps[:K] + [ProductFn(one_minus, b) for b in bumps[K:]]
    pts = _sample_lattice(V)
    total = np.sum([b.eval(pts)[:, 0] for b in gated], axis=0)
    if len(pts) and np.min(total) <= 0.0:
        i = int(np.argmin(total))
        raise CoverError("gated cover sum vanishes on V at %r" % (pts[i],))
    phis = [NormalizedBumpFn(gated, i) for i in range(len(gated))]
    mult = np.sum([b.eval(pts)[:, 0] > 0 for b in gated], axis=0) if len(pts) else [len(gated)]
    lips = [_sampled_lip(p, c, seed=i) for i, (p, c) in enumerate(zip(phis, ordered))]
    pou = PartitionOfUnity(phis, list(ordered), lips, int(np.max(mult)))
    return pou, K, U


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def sla_assemble(h: LipFn, U: Region, pou: PartitionOfUnity, h_ks, theta_ks,
                 theta=None, seed=0) -> LipFn:
    """h~ = sum_k phi_k h_k + (1 - sum_k phi_k) h on U, exactly h off U.

    Requires the local-approximation premise ||h_k - h|| <= theta_k on the
    k-th support (sampled at 200 points), and the budget
    sum (1 + Lip phi_k) theta_k <= theta when a total budget is given.
    """
    if len(h_ks) != len(pou.phis):
        raise InputError("approximant count must match the partition")
    if theta is not None:
        budget = sum((1.0 + lp) * tk for lp, tk in zip(pou.lips, theta_ks))
        if budget > theta + 1e-12:
            raise BudgetError("sum (1+Lip phi_k) theta_k = %g exceeds theta = %g"
                              % (budget, theta))
    rng = np.random.default_rng(seed)
    for k, (hk, sup, tk) in enumerate(zip(h_ks, pou.supports, theta_ks)):
        bb = sup.bbox()
        lo, hi = np.asarray(bb[0], float), np.asarray(bb[1], float)
        pts = rng.uniform(lo, hi, (200, len(lo)))
        resid = np.max(np.abs(hk.eval(pts) - h.eval(pts)), axis=1)
        if np.max(resid) > tk + 1e-9:
            i = int(np.argmax(resid))
            raise PremiseError("approximant %d misses budget %g at %r (resid %g)"
                               % (k, tk, pts[i], float(resid[i])))
    one = ConstFn([1.0], h.d)
    rest = SumFn([one] + list(pou.phis), [1.0] + [-1.0] * len(pou.phis))
    terms = [VecScaleFn(p, hk) for p, hk in zip(pou.phis, h_ks)]
    terms.append(VecScaleFn(rest, h))
    inside = SumFn(terms)
    lips_k = [hk.lip_bound for hk in h_ks]
    lip = None
    if h.lip_bound is not None and all(v is not None for v in lips_k):
        t_tot = float(sum(theta_ks)) if theta is None else float(theta)
        lip = max(h.lip_bound, t_tot + max(lips_k, default=0.0))
    out = inside if _region_is_everything(U) else _switch(U, inside, h, lip)
    out.lip_bound = lip
    return out


def _region_is_everything(U):
    return U is None


def _switch(U, inside, outside, lip):
    from .fn import RegionSwitchFn

    return RegionSwitchFn(U, inside, outside, lip_bound=lip)


# ---------------------------------------------------------------------------
# C1 replacement
# ---------------------------------------------------------------------------


def c1_replace(g: LipFn, V: Region, psi, T: LinOp, xi, theta,
               U_xi: Region = None) -> LipFn:
    """Replace g by a function smooth where xi > 0, equal to g elsewhere.

    xi is a scalar field (LipFn or constant); U_xi is the open region
    {xi > 0} (derived from V when omitted and xi is a positive constant).
    psi and T are carried through for the caller's derivative certificate;
    the replacement itself only needs the support geometry and theta.
    """
    if theta <= 0:
        raise InputError("theta must be positive")
    if U_xi is None:
        if np.isscalar(xi):
            if float(xi) <= 0.0:
                return g  # xi == 0: g is already smooth where it matters
            U_xi = V
        else:
            raise InputError("need U_xi when xi is a field")
    bb = U_xi.bbox()
    if bb is None:
        raise DomainError("replacement region must be bounded")
    lo, hi = np.asarray(bb[0], float), np.asarray(bb[1], float)
    margin = 0.125 * float(np.min(hi - lo))
    if margin <= 0:
        return g
    plateau = PlateauFn(lo, hi, lo + margin, hi - margin)
    pou = PartitionOfUnity([plateau], [box_region(lo, hi)],
                           [plateau.lip_bound], 1)
    lip_g = g.lip_bound if g.lip_bound is not None else 1.0
    theta_1 = theta / (1.0 + plateau.lip_bound)
    eps_1 = theta_1 / (2.0 * (lip_g + 1.0))
    spec = MollifierSpec(eps_1, g.d)
    g_eps = mollify(g, spec)
    return sla_assemble(g, U_xi, pou, [g_eps], theta_ks=[theta_1], theta=theta)


# ---------------------------------------------------------------------------
# smoothing around a compact set
# ---------------------------------------------------------------------------


def _directional_kernel(length):
    """1-d bump quadrature of order 16 on [-length/2, length/2], unit mass."""
    x, w = _tensor_rule(16, 1)
    raw = w * bump(x[:, 0] ** 2)
    keep = raw > 0
    return x[keep, 0] * (length / 2.0), raw[keep] / raw[keep].sum()


def smooth_around(E: Region, Q: Region, f: LipFn, eps, seed=0) -> LipFn:
    """Smooth f near E, keep it unchanged off a neighborhood of E.

    The local approximant is f convolved along a fixed sample of 16
    directions of the unit sphere (equally spaced angles in the plane,
    seeded Gaussian draws above it) with order-16 kernels of geometrically
    shrinking supports |J_i| = eps / (2 (Lip f + 1) 2^i); in dimension d
    only the first d (independent) directions change the values, so the
    convolution product is truncated there and the skipped tail is within
    the eps budget.  The result is smooth on the open box hull of
    B(E, rho), rho = min(room / 2, 1/4), where room is the gap between E
    and the boundary of Q.
    """
    if not 0.0 < eps < np.inf:
        raise InputError("eps must be positive and finite")
    d = f.d
    lip_f = f.lip_bound if f.lip_bound is not None else 1.0
    bbE = E.bbox()
    if bbE is None:
        raise DomainError("E must be bounded")
    loE, hiE = np.asarray(bbE[0], float), np.asarray(bbE[1], float)
    bbQ = Q.bbox()
    if bbQ is not None:
        loQ, hiQ = np.asarray(bbQ[0], float), np.asarray(bbQ[1], float)
        room = float(min(np.min(loE - loQ), np.min(hiQ - hiE)))
    else:
        room = float("inf")
    if room <= 0:
        raise DomainError("E must lie strictly inside Q")
    rho = min(room / 2.0, 0.25)
    if d == 1:
        dirs = [np.array([1.0])]
    elif d == 2:
        dirs = [np.array([np.cos(a), np.sin(a)]) for a in np.pi * np.arange(16) / 16]
    else:
        rng = np.random.default_rng(seed)
        dirs = [v / np.linalg.norm(v) for v in rng.standard_normal((16, d))]
    # flatten the directional convolutions into one convex combination over
    # the Minkowski sum of the per-direction quadratures (nested nodes would
    # cost order^n evaluations per point)
    shifts = np.zeros((1, d))
    weights = np.ones(1)
    total_shift = 0.0
    for i in range(min(d, len(dirs))):
        J = eps / (2.0 * (lip_f + 1.0) * 2.0 ** (i + 1))
        offs, wts = _directional_kernel(J)
        step = offs[:, None] * dirs[i][None, :]
        shifts = (shifts[:, None, :] + step[None, :, :]).reshape(-1, d)
        weights = (weights[:, None] * wts[None, :]).ravel()
        total_shift += J / 2.0
    keep = weights > 1e-12
    shifts, weights = shifts[keep], weights[keep] / weights[keep].sum()
    h1 = ConvexShiftCombFn(f, shifts, weights)
    h1.lip_bound = lip_f
    theta_1 = lip_f * total_shift + 1e-12

    lo_h, hi_h = loE - rho, hiE + rho          # H = B(E, rho) box hull
    lo_s, hi_s = loE - room * 0.9, hiE + room * 0.9
    plateau = PlateauFn(lo_s, hi_s, lo_h, hi_h)
    pou = PartitionOfUnity([plateau], [box_region(lo_s, hi_s)],
                           [plateau.lip_bound], 1)
    # budget: Lip growth <= Lip(phi) * ||h1 - f|| must stay below eps
    if plateau.lip_bound * theta_1 > eps:
        raise BudgetError("plateau slope exceeds the eps budget; enlarge Q room")
    g = sla_assemble(f, box_region(lo_s, hi_s, open_=True), pou, [h1],
                     theta_ks=[theta_1], theta=None, seed=seed)
    g.lip_bound = lip_f + eps
    g.smooth_region = box_region(lo_h, hi_h, open_=True)
    return g


# ---------------------------------------------------------------------------
# uniform differentiability radius
# ---------------------------------------------------------------------------


def uniform_diff_radius(g: LipFn, E: Region, theta, seed=0):
    """Largest dyadic delta in (0, theta) with first-order Taylor residual
    <= (theta/2) ||y|| on a (point x direction x radius) grid over E.

    The points are 20 seeded uniform draws kept inside E plus the center of
    its bounding box; the 8 directions are the 2d signed axes topped up
    with seeded Gaussian ones; the Jacobians are central differences with
    step 1e-5; the radii run from the first 2^-m below theta to 2^-30.
    """
    if theta <= 0:
        raise InputError("theta must be positive")
    bb = E.bbox()
    if bb is None:
        raise DomainError("E must be bounded")
    lo, hi = np.asarray(bb[0], float), np.asarray(bb[1], float)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, (20, len(lo)))
    keep = E.contains(pts)
    pts = np.vstack([pts[keep], (lo + hi) / 2.0])
    d = g.d
    dirs = [np.eye(d)[i] * s for i in range(d) for s in (1.0, -1.0)]
    raw = rng.standard_normal((max(0, 8 - len(dirs)), d))
    dirs += [v / np.linalg.norm(v) for v in raw]
    jacs_t = fd_jacobian(g, pts, 1e-5).transpose(0, 2, 1)

    m = 1
    while 2.0 ** (-m) >= theta:
        m += 1
    delta = dyadic_radius(
        g, pts, np.array(dirs), range(m, 31), lambda Y: Y @ jacs_t,
        lambda r, Y, rho: (np.max(np.abs(r), axis=2)
                           > (theta / 2.0) * np.max(np.abs(Y), axis=1) + 1e-12))
    if delta is None:
        raise ResolutionError("no differentiability radius found down to 2^-30; "
                              "the map is likely not C1 near E")
    return delta
