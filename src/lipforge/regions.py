"""Regions (box unions, ball unions, IFS iterates, boolean trees) and the
cone-constrained curve-mass estimator.

The estimator bounds, from below over monotone lattice curves, the maximal
length a cone-constrained Lipschitz curve can spend inside an open set G.
It is a longest-path dynamic program over lattice nodes ordered by the
value of the driving functional; the reported gap is h * (boundary
crossings of the witness) * c with c = k * sqrt(d) * max(1, ||P||), where
k is the step range (the longest admissible step has length <= k*sqrt(d)*h).
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, InputError
from .serialize import CODECS, decode_fields, encode_fields
from .spaces import Functional


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


class Region:
    """Base class: exact membership, boundary-distance lower bound, bbox."""

    kind = "region"

    def contains(self, X):
        raise NotImplementedError

    def dist_to_boundary(self, X):
        """Lower bound on sup-norm distance to the region boundary."""
        raise NotImplementedError

    def bbox(self):
        """((lo, hi)) enclosing box or None if unbounded."""
        raise NotImplementedError

    def to_doc(self):
        return encode_fields(self, {"kind": self.kind})

    @staticmethod
    def from_doc(doc):
        kind = doc["kind"]
        if kind not in REGION_KINDS:
            raise InputError("unknown region kind %r" % kind)
        return decode_fields(REGION_KINDS[kind], doc)


CODECS["region"] = (Region.to_doc, Region.from_doc)
CODECS["regions"] = (lambda rs: [r.to_doc() for r in rs],
                     lambda docs: [Region.from_doc(d) for d in docs])


class EmptyRegion(Region):
    kind = "empty"
    fields = (("dim", "dim", "int"),)

    def __init__(self, dim):
        self.dim = dim

    def contains(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.zeros(len(X), dtype=bool)

    def dist_to_boundary(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(len(X), np.inf)

    def bbox(self):
        lo = np.zeros(self.dim)
        return lo, lo


class BoxUnion(Region):
    """Finite union of axis boxes, all open or all closed."""

    kind = "box-union"
    fields = (("lo", "lo", "mat"), ("hi", "hi", "mat"), ("open", "open", "bool"),
              ("meta", "meta", "dict?"))

    def __init__(self, lo, hi, open_=False, meta=None):
        self.lo = np.atleast_2d(np.asarray(lo, dtype=float))
        self.hi = np.atleast_2d(np.asarray(hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise InputError("box bounds shape mismatch")
        if np.any(self.hi < self.lo):
            raise InputError("box with hi < lo")
        self.open = bool(open_)
        self.dim = self.lo.shape[1]
        self.meta = dict(meta or {})

    @property
    def n_boxes(self):
        return len(self.lo)

    def contains(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        inside = np.ones((len(X), self.n_boxes), dtype=bool)
        for ax in range(self.dim):
            x = X[:, ax, None]
            if self.open:
                inside &= (x > self.lo[:, ax]) & (x < self.hi[:, ax])
            else:
                inside &= (x >= self.lo[:, ax]) & (x <= self.hi[:, ax])
        return inside.any(axis=1)

    def dist_to_boundary(self, X):
        """|min over boxes of max over axes of max(lo - x, x - hi)|: the
        largest inside margin of a containing box, else the smallest gap."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        signed = np.full((len(X), self.n_boxes), -np.inf)
        for ax in range(self.dim):
            x = X[:, ax, None]
            signed = np.maximum(signed, np.maximum(self.lo[:, ax] - x, x - self.hi[:, ax]))
        return np.abs(signed.min(axis=1))

    def bbox(self):
        return self.lo.min(axis=0), self.hi.max(axis=0)

    def area(self):
        return float(np.sum(np.prod(self.hi - self.lo, axis=1)))

    def inflate(self, margin, open_=True):
        return BoxUnion(self.lo - margin, self.hi + margin, open_=open_, meta=self.meta)

    def segment_inside_length(self, P0, step):
        """Vectorized length of [p, p+step] inside the union, per row of P0.

        Exact: every box clips the segment to a parameter interval and the
        intervals of a row are merged, so a stretch covered by several
        overlapping (or repeated) boxes counts once.
        """
        P0 = np.atleast_2d(np.asarray(P0, dtype=float))
        rows = np.repeat(np.arange(len(P0)), self.n_boxes)
        boxes = np.tile(np.arange(self.n_boxes), len(P0))
        return self._pairs_inside_length(P0, step, rows, boxes)

    def _pairs_inside_length(self, P0, step, rows, boxes):
        """segment_inside_length clipping only the listed (row, box) index
        pairs; every pair left out must be one whose segment misses its box."""
        step = np.asarray(step, dtype=float)
        slen = float(np.linalg.norm(step))
        if slen == 0.0:
            return np.zeros(len(P0))
        P = P0[rows]
        t0 = np.zeros(len(rows))
        t1 = np.ones(len(rows))
        for ax in range(self.dim):
            s = step[ax]
            lo = self.lo[boxes, ax] - P[:, ax]
            hi = self.hi[boxes, ax] - P[:, ax]
            if s > 0:
                t0 = np.maximum(t0, lo / s)
                t1 = np.minimum(t1, hi / s)
            elif s < 0:
                t0 = np.maximum(t0, hi / s)
                t1 = np.minimum(t1, lo / s)
            else:
                ok = (P[:, ax] >= self.lo[boxes, ax]) & (P[:, ax] <= self.hi[boxes, ax])
                t1 = np.where(ok, t1, -1.0)
        hit = t1 > t0
        frac = _union_length(rows[hit], t0[hit], t1[hit], len(P0))
        return np.minimum(frac, 1.0) * slen


def _union_length(rows, t0, t1, n):
    """Length of the union of the intervals [t0, t1] (0 <= t0 < t1) that
    share a row, for each row in range(n)."""
    order = np.lexsort((t0, rows))
    rows, t0, t1 = rows[order], t0[order], t1[order]
    # running max of t1 within each row: complex maxima compare (row, t1)
    # lexicographically, and rows are sorted, so the max restarts per row
    reach = np.maximum.accumulate(rows + 1j * t1).imag
    covered = np.zeros(len(rows))
    same = rows[1:] == rows[:-1]
    covered[1:][same] = reach[:-1][same]
    # each interval adds what lies beyond the ones sorted before it
    added = np.maximum(t1 - np.maximum(t0, covered), 0.0)
    return np.bincount(rows, weights=added, minlength=n)


class BallUnion(Region):
    kind = "ball-union"
    fields = (("centers", "centers", "mat"), ("radius", "radius", "float"),
              ("space", "space", "space"), ("open", "open", "bool"))

    def __init__(self, centers, radius, space, open_=True):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=float))
        self.radius = float(radius)
        self.space = space
        self.open = bool(open_)
        self.dim = self.centers.shape[1]

    def _dists(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.stack([self.space.norm(X - c) for c in self.centers], axis=1)

    def contains(self, X):
        D = self._dists(X)
        return (D < self.radius).any(axis=1) if self.open else (D <= self.radius).any(axis=1)

    def dist_to_boundary(self, X):
        D = self._dists(X)
        inside = D < self.radius
        best_in = np.where(inside, self.radius - D, -np.inf).max(axis=1)
        best_out = (D - self.radius).min(axis=1)
        return np.where(best_in > -np.inf, best_in, np.maximum(best_out, 0.0))

    def bbox(self):
        # sup-norm box valid for lp norms (||v||_p >= ||v||_inf) and polyhedral
        # balls contained in the cube of their max vertex coordinate
        r = self.radius
        if self.space.kind == "polyhedral":
            r = r * float(np.max(np.abs(self.space.unit_ball_vertices())))
        return self.centers.min(axis=0) - r, self.centers.max(axis=0) + r


class Complement(Region):
    kind = "complement"
    fields = (("child", "child", "region"),)

    def __init__(self, child):
        self.child = child
        self.dim = child.dim

    def contains(self, X):
        return ~self.child.contains(X)

    def dist_to_boundary(self, X):
        return self.child.dist_to_boundary(X)

    def bbox(self):
        return None


class Intersection(Region):
    kind = "intersection"
    fields = (("children", "children", "regions"),)

    def __init__(self, children):
        if not children:
            raise InputError("intersection needs children")
        self.children = list(children)
        self.dim = children[0].dim

    def contains(self, X):
        out = self.children[0].contains(X)
        for c in self.children[1:]:
            out = out & c.contains(X)
        return out

    def dist_to_boundary(self, X):
        return np.min([c.dist_to_boundary(X) for c in self.children], axis=0)

    def bbox(self):
        boxes = [c.bbox() for c in self.children if c.bbox() is not None]
        if not boxes:
            return None
        lo = np.max([b[0] for b in boxes], axis=0)
        hi = np.min([b[1] for b in boxes], axis=0)
        return lo, np.maximum(hi, lo)


class UnionRegion(Region):
    kind = "union"
    fields = (("children", "children", "regions"),)

    def __init__(self, children):
        if not children:
            raise InputError("union needs children")
        self.children = list(children)
        self.dim = children[0].dim

    def contains(self, X):
        out = self.children[0].contains(X)
        for c in self.children[1:]:
            out = out | c.contains(X)
        return out

    def dist_to_boundary(self, X):
        return np.min([c.dist_to_boundary(X) for c in self.children], axis=0)

    def bbox(self):
        boxes = [c.bbox() for c in self.children]
        if any(b is None for b in boxes):
            return None
        return (
            np.min([b[0] for b in boxes], axis=0),
            np.max([b[1] for b in boxes], axis=0),
        )


REGION_KINDS = {cls.kind: cls for cls in (EmptyRegion, BoxUnion, BallUnion, Complement,
                                          Intersection, UnionRegion)}


def box_region(lo, hi, open_=False):
    return BoxUnion([lo], [hi], open_=open_)


def gen_four_corner(level, ratio=0.25):
    """IFS iterate of the four corner contractions; level 0 is the unit square."""
    if level < 0:
        raise InputError("level must be >= 0")
    if not (0.0 < ratio <= 0.5):
        raise InputError("ratio must lie in (0, 1/2]")
    lo = np.array([[0.0, 0.0]])
    side = 1.0
    for _ in range(int(level)):
        new = []
        for base in lo:
            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
                new.append(base + np.array([dx, dy]) * (side - ratio * side))
        lo = np.array(new)
        side *= ratio
    hi = lo + side
    return BoxUnion(lo, hi, open_=False,
                    meta={"ifs": "four-corner", "level": int(level), "ratio": float(ratio)})


def four_corner_squares(level, ratio=0.25):
    """(lo, side) of the level-m squares of the standard four-corner IFS."""
    reg = gen_four_corner(level, ratio)
    return reg.lo, float(reg.hi[0, 0] - reg.lo[0, 0])


# ---------------------------------------------------------------------------
# cone-constrained lattice curves
# ---------------------------------------------------------------------------


@dataclass
class CurveSpec:
    """Admissible lattice steps for curves with P(gamma') >= alpha ||gamma'|| ||P||."""

    P: Functional
    alpha: float
    h: float
    k: int = 3

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InputError("alpha must lie in (0, 1)")
        if not (0.0 < self.h < np.inf):
            raise InputError("grid step must be positive and finite")
        self.step_set = self._admissible_steps()
        if len(self.step_set) == 0:
            raise InputError("no admissible lattice steps; increase k or lower alpha")

    def _admissible_steps(self):
        d = self.P.space.dim
        if d != 2:
            raise InputError("lattice curve estimator supports d = 2")
        k = int(self.k)
        dirs = []
        pn = self.P.dual_norm
        for i in range(-k, k + 1):
            for j in range(-k, k + 1):
                if i == 0 and j == 0:
                    continue
                u = np.array([float(i), float(j)])
                if self.P(u) >= self.alpha * float(self.P.space.norm(u)) * pn and self.P(u) > 0:
                    dirs.append((i, j))
        return dirs


DP_NODE_CAP = 4_000_000  # largest DP lattice; about 220 bytes a node at 18 steps


class LatticeDP:
    """Longest in-G path over the lattice DAG ordered by the P-value.

    Nodes are swept in bins floor((P(x) - min P) / (w / 2)), where w is the
    smallest P-increment of an admissible step. Every edge raises P by at
    least w, so it leaves an earlier bin: all sources of a bin are final
    before the bin is swept, whatever the bin boundaries. A node takes the
    first step, in step order, that attains its best value.
    """

    def __init__(self, G, spec: CurveSpec, bbox=None, pad=1):
        self.G = G
        self.spec = spec
        bb = bbox if bbox is not None else G.bbox()
        if bb is None:
            raise DomainError("region must be bounded for the curve estimator")
        lo, hi = np.asarray(bb[0], dtype=float), np.asarray(bb[1], dtype=float)
        h = spec.h
        self.h = h
        self.lo = lo - pad * h
        n = np.maximum(np.ceil((hi - lo) / h) + 1 + 2 * pad, 2)  # floats: no overflow
        count = float(n[0]) * float(n[1])
        if not count <= DP_NODE_CAP:
            raise BudgetError("lattice of %.3g nodes exceeds the cap of %d; raise the grid step"
                              % (count, DP_NODE_CAP))
        self.shape = (int(n[0]), int(n[1]))
        ii, jj = np.meshgrid(np.arange(self.shape[0]), np.arange(self.shape[1]), indexing="ij")
        self.nodes = self.lo[None, :] + np.stack([ii.ravel(), jj.ravel()], axis=1) * h
        self.n = len(self.nodes)
        self._run()

    def _edge_lengths(self, step_ij):
        step = np.array(step_ij, dtype=float) * self.h
        if isinstance(self.G, BoxUnion):
            return self.G._pairs_inside_length(self.nodes, step,
                                               *self._box_pairs(step))
        # sub-sampling fallback: 16 midpoints per edge
        ts = (np.arange(16) + 0.5) / 16.0
        slen = float(np.linalg.norm(step))
        total = np.zeros(self.n)
        for t in ts:
            total += self.G.contains(self.nodes + t * step)
        return total / 16.0 * slen

    def _box_pairs(self, step):
        """(node, box) index pairs whose edge [p, p + step] can meet the box.

        Along each axis the edge from p meets box b only if p lies in
        [lo_b - max(step, 0), hi_b - min(step, 0)]; that window of node
        indices, widened by one cell against rounding, is all a box reaches.
        """
        G = self.G
        n = np.array(self.shape)
        first = np.floor((G.lo - np.maximum(step, 0.0) - self.lo) / self.h) - 1
        last = np.ceil((G.hi - np.minimum(step, 0.0) - self.lo) / self.h) + 1
        first = np.clip(first, 0, n).astype(np.int64)
        last = np.clip(last, -1, n - 1).astype(np.int64)
        size = np.maximum(last - first + 1, 0)
        count = size[:, 0] * size[:, 1]
        boxes = np.repeat(np.arange(G.n_boxes), count)
        k = np.arange(len(boxes)) - np.repeat(np.cumsum(count) - count, count)
        cols = size[boxes, 1]
        ii = first[boxes, 0] + k // cols
        jj = first[boxes, 1] + k % cols
        return ii * self.shape[1] + jj, boxes

    def _run(self):
        spec = self.spec
        nx, ny = self.shape
        steps = np.array(spec.step_set, dtype=np.int64)
        pv = self.nodes @ spec.P.coeffs
        width = min(spec.P(s.astype(float)) for s in steps) * self.h / 2.0
        bins = np.floor((pv - pv.min()) / width).astype(np.int64)
        order = np.argsort(bins, kind="stable")
        starts = np.flatnonzero(np.diff(bins[order], prepend=-1))
        ends = np.append(starts[1:], self.n)
        elens = np.empty((len(steps), self.n))
        for sidx, s in enumerate(spec.step_set):
            elens[sidx] = self._edge_lengths(s)
        best = np.zeros(self.n)
        parent = np.full(self.n, -1, dtype=np.int64)
        rows = np.arange(len(steps))[:, None]
        for a, b in zip(starts, ends):
            tgt = order[a:b]
            src_i = tgt // ny - steps[:, :1]
            src_j = tgt % ny - steps[:, 1:]
            ok = (src_i >= 0) & (src_i < nx) & (src_j >= 0) & (src_j < ny)
            src = np.where(ok, src_i * ny + src_j, 0)
            cand = np.where(ok, best[src] + elens[rows, src], -np.inf)
            sidx = cand.argmax(axis=0)
            cols = np.arange(len(tgt))
            top = cand[sidx, cols]
            upd = top > best[tgt]
            best[tgt[upd]] = top[upd]
            parent[tgt[upd]] = src[sidx, cols][upd] * len(steps) + sidx[upd]
        self.best = best
        self.parent = parent
        self.pv = pv

    def witness(self):
        cur = int(np.argmax(self.best))
        path = [cur]
        seen = set()
        while self.parent[cur] >= 0 and cur not in seen:
            seen.add(cur)
            cur = int(self.parent[cur]) // len(self.spec.step_set)
            path.append(cur)
        path.reverse()
        return self.nodes[path]

    def value(self):
        return float(np.max(self.best))


def xi_estimate(G, spec: CurveSpec, bbox=None):
    """(value, gap, witness path).  Lower-bound estimate over lattice curves."""
    dp = LatticeDP(G, spec, bbox=bbox)
    value = dp.value()
    wit = dp.witness()
    crossings = 0
    for a, b in zip(wit[:-1], wit[1:]):
        step = b - a
        ln = dp.G.segment_inside_length(a[None], step)[0] if hasattr(
            dp.G, "segment_inside_length") else None
        if ln is None:
            inside_a = bool(G.contains(a[None])[0])
            inside_b = bool(G.contains(b[None])[0])
            if inside_a != inside_b:
                crossings += 1
        else:
            full = float(np.linalg.norm(step))
            if 1e-12 < ln < full - 1e-12:
                crossings += 1
    c = spec.k * np.sqrt(2.0) * max(1.0, spec.P.dual_norm)
    gap = dp.h * max(1, crossings) * c
    return value, float(gap), wit


def pu_cover(E, P: Functional, eps, budget=6):
    """Open box-union cover of an IFS-type compact E with small curve mass.

    Sweeps IFS levels m = 0..budget, covering the level-m squares that meet
    E by open boxes inflated by a quarter of their side on every face, until
    the lattice estimate of the curve mass (cone parameter eps clipped to
    [1e-6, 0.99], k = 3, grid step max(side / 6, 1/96)) is <= eps + gap.
    Returns (G, achieved, gap, met_flag, m).
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    if budget < 0:
        raise InputError("cover budget must be >= 0")
    meta = getattr(E, "meta", {})
    if meta.get("ifs") != "four-corner":
        raise InputError("pu_cover needs a four-corner IFS region (or a box subset of one)")
    ratio = meta["ratio"]
    nmax = meta["level"]
    best = None
    for m in range(0, min(int(budget), nmax) + 1):
        lo_m, side = four_corner_squares(m, ratio)
        # keep level-m squares that meet E
        keep = []
        for lo_sq in lo_m:
            sq_lo, sq_hi = lo_sq, lo_sq + side
            overlap = np.all((E.lo < sq_hi[None]) & (E.hi > sq_lo[None]), axis=1)
            if overlap.any():
                keep.append(lo_sq)
        keep = np.array(keep) if keep else lo_m[:0]
        margin = 0.25 * side
        G = BoxUnion(keep - margin, keep + side + margin, open_=True,
                     meta={"cover-of-level": m})
        alpha = min(max(eps, 1e-6), 0.99)
        spec = CurveSpec(P, alpha, max(side / 6.0, 1.0 / 96.0))
        value, gap, _ = xi_estimate(G, spec)
        if best is None or value < best[1]:
            best = (G, value, gap, m)
        if value <= eps + gap:
            return G, value, gap, True, m
    G, value, gap, m = best
    return G, value, gap, False, m
