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

from .errors import DomainError, GeometryError, NormError, check_size
from .fn import LipFn, LocalAffineSurgeryFn, as_fraction
from .regions import BoxUnion, Region
from .spaces import LinOp, NormedSpace, pair_blocks


@dataclass
class Net:
    levels: list  # Gamma_k point arrays, k = 1..kmax

    def level(self, k):
        return self.levels[k - 1]


def _candidate_points(E, step):
    lo, hi = E.bounds("E")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        count = float(np.prod(np.ceil((hi - lo) / step + 0.5)))
    check_size(count, "a net sample of %.3g points" % count)
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


def build_net(E: Region, Q: Region, kmax: int, space: NormedSpace) -> Net:
    """Nested maximal 2^{-k}-separated subsets of E_k, k = 1..kmax.

    E_k keeps the points of E at distance >= 2^{-k} from the boundary of Q.
    Separation is measured in the norm of `space`.  Selection is
    greedy over a deterministic lattice sample of E of step 2^{-kmax} / 4,
    seeded with the previous level so the levels are nested.
    """
    if kmax < 1:
        raise DomainError("kmax must be >= 1")
    if not bool(Q.contains(np.vstack(E.bounds("E"))).all()):
        raise DomainError("E must lie inside the interior of Q")
    pts = _candidate_points(E, 2.0 ** (-kmax) / 4.0)
    qdist = Q.dist_to_boundary(pts)
    levels, prev = [], pts[:0]
    for k in range(1, kmax + 1):
        sep = 2.0 ** (-k)
        ek = pts[qdist >= sep]
        ek = ek[np.lexsort(ek.T[::-1])]
        # live: the candidates at least sep, as ||chosen - candidate||, from every
        # point chosen so far (a hull's polyhedral norm need not be symmetric)
        live = np.ones(len(ek), dtype=bool)
        for blk in pair_blocks(len(prev), len(ek)):
            live &= np.all(space.dists(prev[blk], ek) >= sep, axis=0)
        for i in range(len(ek)):  # a candidate still live when reached is chosen
            if live[i]:
                live[i + 1:] &= space.norm(ek[i] - ek[i + 1:]) >= sep
        levels.append(np.vstack([prev, ek[live]]))
        # the next level is seeded with the points that keep its boundary gap
        prev = levels[-1][Q.dist_to_boundary(levels[-1]) >= sep / 2]
    return Net(levels)


def region_diameter(Q: Region, space: NormedSpace) -> float:
    lo, hi = Q.bounds("Q")
    return float(space.norm(hi - lo))


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
    1-Lipschitz when f is, and satisfies sup||g - f|| <= r.  g claims
    Lipschitz constant 1 only when f's bound is proven and at most 1, and
    makes no claim otherwise.  An empty gamma is a GeometryError.
    """
    space = L.dom
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    if gamma.size == 0:
        raise GeometryError("no centers: gamma is empty")
    # radii are compared as exact rationals: deep-game radii underflow floats
    r_fr = as_fraction(r)
    s_f = float(s)
    if not (0 < r_fr < 1):
        raise NormError("r must lie in (0, 1)")
    if as_fraction(L.opnorm_ub) > 1 - r_fr + Fraction(1, 10 ** 15):
        raise NormError("need ||L|| <= 1 - r (certified): ub=%g, 1-r=%g"
                        % (L.opnorm_ub, 1.0 - float(r_fr)))
    if check_geometry:
        for blk in pair_blocks(len(gamma), len(gamma)):
            # the pairs (i, j), i < j, of the block's rows i
            close = space.dists(gamma[blk], gamma) < 4.0 * s_f - 1e-12
            if np.triu(close, blk.start + 1).any():
                raise GeometryError("centers are not 4s-separated")
        bd = Q.dist_to_boundary(gamma)
        if np.min(bd) < 4.0 * s_f - 1e-12:
            raise GeometryError("centers are closer than 4s to the boundary")
    diam = region_diameter(Q, space)
    beta, alpha = prescription_params(r, s, diam)
    lip = 1.0 if f.lip_bound is not None and f.lip_bound <= 1.0 else None
    g = LocalAffineSurgeryFn(f, gamma, as_fraction(s), beta, alpha, L.matrix,
                             space, lip_bound=lip)
    return g, float(alpha)
