"""Separated nets and exact derivative prescription.

build_net produces nested maximal separated subsets of a compact set at
dyadic separation scales.  prescribe_derivative modifies a 1-Lipschitz map
inside disjoint balls around a separated point set so that its increments
are exactly linear (given by L) on small core balls, while staying
1-Lipschitz and uniformly within r of the input.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, GeometryError, NormError
from .fn import LipFn, LocalAffineSurgeryFn, as_fraction
from .regions import BoxUnion, Region
from .spaces import LinOp, NormedSpace


@dataclass
class Net:
    levels: list  # Gamma_k point arrays, k = 1..kmax
    seps: list  # 2^{-k}
    E: Region
    Q: Region

    def level(self, k):
        return self.levels[k - 1]


def _candidate_points(E, Q, step):
    bb = E.bbox()
    if bb is None:
        raise DomainError("net construction needs a bounded set")
    lo, hi = bb
    axes = [np.arange(lo[i], hi[i] + step * 0.5, step) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    extras = []
    if isinstance(E, BoxUnion):
        extras.append((E.lo + E.hi) / 2.0)
        extras.append(E.lo)
        extras.append(E.hi)
    if extras:
        pts = np.vstack([pts] + extras)
    keep = E.contains(pts)
    return pts[keep]


def build_net(E: Region, Q: Region, kmax: int, space: NormedSpace = None) -> Net:
    """Nested maximal 2^{-k}-separated subsets of E_k, k = 1..kmax.

    E_k keeps the points of E at distance >= 2^{-k} from the boundary of Q.
    Separation is measured in `space` (sup norm by default).  Selection is
    greedy over a deterministic lattice sample of E of step 2^{-kmax} / 4,
    seeded with the previous level so the levels are nested.
    """
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    bbE = E.bbox()
    if bbE is not None:
        inside = Q.contains(np.vstack([bbE[0][None], bbE[1][None]]))
        if not bool(inside.all()):
            raise DomainError("E must lie inside the interior of Q")
    pts = _candidate_points(E, Q, 2.0 ** (-kmax) / 4.0)
    if len(pts):
        qdist = Q.dist_to_boundary(pts)
    else:
        qdist = np.zeros(0)

    def dist(a, B):
        if space is None:
            return np.max(np.abs(B - a), axis=1)
        return space.norm(B - a)

    levels = []
    prev = np.zeros((0, pts.shape[1] if len(pts) else E.dim))
    for k in range(1, kmax + 1):
        sep = 2.0 ** (-k)
        ek = pts[qdist >= sep] if len(pts) else pts
        chosen = [p for p in prev]
        order = np.lexsort(ek.T[::-1]) if len(ek) else []
        for idx in order:
            p = ek[idx]
            if not chosen:
                chosen.append(p)
                continue
            if np.min(dist(p, np.array(chosen))) >= sep:
                chosen.append(p)
        # drop inherited points that fell out of E_k? nesting requires keeping
        # them; the construction only seeds level k with points that satisfy
        # the level-k boundary gap, so filter the seed first
        levels.append(np.array(chosen) if chosen else np.zeros((0, E.dim)))
        # next level seeds with this level filtered by the deeper boundary gap
        if len(levels[-1]):
            gd = Q.dist_to_boundary(levels[-1])
            prev = levels[-1][gd >= 2.0 ** (-(k + 1))]
        else:
            prev = levels[-1]
    return Net(levels, [2.0 ** (-k) for k in range(1, kmax + 1)], E, Q)


def region_diameter(Q: Region, space: NormedSpace) -> float:
    bb = Q.bbox()
    if bb is None:
        raise DomainError("unbounded domain")
    lo, hi = bb
    return float(space.norm(np.asarray(hi) - np.asarray(lo)))


def prescription_params(r, s, diam) -> tuple:
    """Exact rational (beta, alpha) for the surgery radii."""
    r = as_fraction(r)
    s = as_fraction(s)
    diam = as_fraction(diam)
    beta = r * s / (4 * (1 + diam))
    alpha = r * r * s / (16 * (1 + diam) ** 2)
    return beta, alpha


def prescribe_derivative(f: LipFn, L: LinOp, r, gamma, s, Q: Region,
                         check_geometry=True):
    """(g, alpha): g agrees with L-increments exactly on alpha-balls at gamma.

    g equals ((s - beta)/s) f outside the s-balls around gamma, stays
    1-Lipschitz when f is, and satisfies sup||g - f|| <= r.
    """
    space = L.dom
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    # radii are compared as exact rationals: deep-game radii underflow floats
    r_fr = as_fraction(r)
    s_f = float(s)
    if not (0 < r_fr < 1):
        raise NormError("r must lie in (0, 1)")
    if as_fraction(L.opnorm_ub) > 1 - r_fr + Fraction(1, 10 ** 15):
        raise NormError("need ||L|| <= 1 - r (certified): ub=%g, 1-r=%g"
                        % (L.opnorm_ub, 1.0 - float(r_fr)))
    if check_geometry:
        for i in range(len(gamma)):
            for j in range(i + 1, len(gamma)):
                if float(space.norm(gamma[i] - gamma[j])) < 4.0 * s_f - 1e-12:
                    raise GeometryError("centers are not 4s-separated")
        bd = Q.dist_to_boundary(gamma)
        if np.min(bd) < 4.0 * s_f - 1e-12:
            raise GeometryError("centers are closer than 4s to the boundary")
    diam = region_diameter(Q, space)
    beta, alpha = prescription_params(r, s, diam)
    g = LocalAffineSurgeryFn(f, gamma, as_fraction(s), beta, alpha, L.matrix,
                             space, lip_bound=1.0)
    g.alpha_exact = alpha
    return g, float(alpha)
