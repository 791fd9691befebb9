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

from .errors import DomainError, InputError, check_size
from .serialize import CODECS, decode_fields, encode_fields
from .spaces import Functional, pair_blocks


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

    def _points(self, X):
        """X as float rows; InputError unless each row has dim coordinates."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.dim:
            raise InputError("points have %d coordinates; the region has %d"
                             % (X.shape[1], self.dim))
        return X

    def bounds(self, name):
        """bbox() as float arrays (lo, hi) for a construction that needs a
        bounded region; name is the region's name in the error."""
        bb = self.bbox()
        if bb is None:
            raise InputError("%s must be bounded" % name)
        return np.asarray(bb[0], dtype=float), np.asarray(bb[1], dtype=float)

    def segment_inside_length(self, P0, step):
        """Length of [p, p + step] inside the region, per row of P0: the
        share of 16 evenly spaced midpoints of the segment that it holds."""
        P0 = np.atleast_2d(np.asarray(P0, dtype=float))
        step = np.asarray(step, dtype=float)
        total = np.zeros(len(P0))
        for t in (np.arange(16) + 0.5) / 16.0:
            total += self.contains(P0 + t * step)
        return total / 16.0 * float(np.linalg.norm(step))

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
        return np.zeros(len(self._points(X)), dtype=bool)

    def dist_to_boundary(self, X):
        return np.full(len(self._points(X)), np.inf)

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
        X = self._points(X)
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
        X = self._points(X)
        signed = np.full((len(X), self.n_boxes), -np.inf)
        for ax in range(self.dim):
            x = X[:, ax, None]
            signed = np.maximum(signed, np.maximum(self.lo[:, ax] - x, x - self.hi[:, ax]))
        return np.abs(signed.min(axis=1))

    def bbox(self):
        """The hull of the boxes; for no boxes, the point at the origin,
        as for EmptyRegion."""
        if self.n_boxes == 0:
            lo = np.zeros(self.dim)
            return lo, lo
        return self.lo.min(axis=0), self.hi.max(axis=0)

    def area(self):
        return float(np.sum(np.prod(self.hi - self.lo, axis=1)))

    def segment_inside_length(self, P0, step):
        """Vectorized length of [p, p+step] inside the union, per row of P0.

        Exact: every box clips the segment to a parameter interval and the
        intervals of a row are merged, so a stretch covered by several
        overlapping (or repeated) boxes counts once.
        """
        P0 = np.atleast_2d(np.asarray(P0, dtype=float))
        step = np.asarray(step, dtype=float)
        slen = float(np.linalg.norm(step))
        if slen == 0.0:
            return np.zeros(len(P0))
        rows = np.repeat(np.arange(len(P0)), self.n_boxes)
        boxes = np.tile(np.arange(self.n_boxes), len(P0))
        t0 = np.zeros(len(rows))
        t1 = np.ones(len(rows))
        for ax in range(self.dim):
            (a,), (b,) = _axis_clips(P0[rows, ax], self.lo[boxes, ax],
                                     self.hi[boxes, ax], step[ax, None])
            t0 = np.maximum(t0, a)
            t1 = np.minimum(t1, b)
        hit = t1 > t0
        at, lengths = _union_length(rows[hit], t0[hit], t1[hit])
        frac = np.zeros(len(P0))
        frac[at] = lengths
        return np.minimum(frac, 1.0) * slen


def _union_length(rows, t0, t1):
    """(rows, lengths): each row that has intervals [t0, t1] (0 <= t0 < t1),
    in increasing order, and the length of the union of its intervals."""
    order = np.lexsort((t0, rows))
    rows, t0, t1 = rows[order], t0[order], t1[order]
    del order
    # running max of t1 within each row: complex maxima compare (row, t1)
    # lexicographically, and rows are sorted, so the max restarts per row;
    # built and scanned in place, as it is the largest array here
    reach = 1j * t1
    reach += rows
    reach = np.maximum.accumulate(reach, out=reach).imag
    new = np.ones(len(rows), dtype=bool)
    new[1:] = rows[1:] != rows[:-1]
    covered = np.where(new, 0.0, np.roll(reach, 1))
    # each interval adds what lies beyond the ones sorted before it
    added = np.maximum(t1 - np.maximum(t0, covered), 0.0)
    return rows[new], np.bincount(np.cumsum(new) - 1, weights=added)


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
        return self.space.dists(self._points(X), self.centers)

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
        # sup-norm box valid for lp norms (||v||_p >= ||v||_inf), weighted ones
        # (|v_i| <= ||D v||_p / D_i) and polyhedral balls contained in the
        # cube of their max vertex coordinate
        r = self.radius
        if self.space.kind == "polyhedral":
            r = r * float(np.max(np.abs(self.space.unit_ball_vertices())))
        elif self.space.kind == "weighted-lp":
            r = r / self.space._scale_vec()
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


class _BooleanRegion(Region):
    """Intersection or union of one or more children: membership folds the
    children's with _fold; every boundary point lies on a child's boundary,
    so the least child distance bounds the distance to it."""

    def __init__(self, children):
        if not children:
            raise InputError("%s needs children" % self.kind)
        self.children = list(children)
        self.dim = children[0].dim

    def contains(self, X):
        return self._fold.reduce([c.contains(X) for c in self.children])

    def dist_to_boundary(self, X):
        return np.min([c.dist_to_boundary(X) for c in self.children], axis=0)


class Intersection(_BooleanRegion):
    kind = "intersection"
    fields = (("children", "children", "regions"),)
    _fold = np.logical_and

    def bbox(self):
        boxes = [c.bbox() for c in self.children if c.bbox() is not None]
        if not boxes:
            return None
        lo = np.max([b[0] for b in boxes], axis=0)
        hi = np.min([b[1] for b in boxes], axis=0)
        return lo, np.maximum(hi, lo)


class UnionRegion(_BooleanRegion):
    kind = "union"
    fields = (("children", "children", "regions"),)
    _fold = np.logical_or

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


def room_inside(E, Q, name):
    """(loE, hiE, room): E's bounds and the least gap between E's bounding
    box and Q's, over both faces of every axis; Q is named in the error."""
    loE, hiE = E.bounds("E")
    loQ, hiQ = Q.bounds(name)
    room = float(min(np.min(loE - loQ), np.min(hiQ - hiE)))
    if room <= 0:
        raise DomainError("E must lie strictly inside %s" % name)
    return loE, hiE, room


def gen_four_corner(level, ratio=0.25):
    """IFS iterate of the four corner contractions; level 0 is the unit square."""
    if level < 0:
        raise InputError("level must be >= 0")
    if not (0.0 < ratio <= 0.5):
        raise InputError("ratio must lie in (0, 1/2]")
    # 4^level boxes; the min keeps the float finite, 4^32 being past the cap
    check_size(4.0 ** min(level, 32), "level %d's 4^%d boxes" % (level, level))
    lo = np.array([[0.0, 0.0]])
    side = 1.0
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for _ in range(int(level)):
        # each box's four children, in corner order, boxes in order
        lo = (lo[:, None, :] + corners[None] * (side - ratio * side)).reshape(-1, 2)
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
        if k < 1:
            raise InputError("the step range k must be >= 1")
        check_size((2 * k + 1) ** 2, "%d x %d candidate steps" % (2 * k + 1, 2 * k + 1))
        r = np.arange(-k, k + 1)
        ij = np.stack(np.meshgrid(r, r, indexing="ij"), axis=-1).reshape(-1, 2)
        ij = np.delete(ij, len(ij) // 2, axis=0)  # (0, 0)
        u = ij.astype(float)
        # one (1, 2) @ (2,) product per row: each value has the bits of P(u)
        # on a single step, which a matrix-vector product need not have
        pv = self.P(u[:, None, :])[:, 0]
        keep = (pv >= self.alpha * self.P.space.norm(u) * self.P.dual_norm) & (pv > 0)
        return [(int(i), int(j)) for i, j in ij[keep]]


def _axis_clips(coord, lo, hi, s):
    """(a, b), each (components, pairs): on one axis, the segment from coord
    with step component s lies within [lo, hi] for parameters in [a, b];
    when s = 0, a = -inf and b is inf if coord lies in [lo, hi], else -1.
    coord, lo and hi are per (box, point) pair, s per component."""
    lo, hi = lo - coord, hi - coord
    flat = s == 0
    s = np.where(flat, 1.0, s)[:, None]
    a = np.where(s > 0, lo, hi)
    b = np.where(s > 0, hi, lo)
    a /= s
    b /= s
    a[flat] = -np.inf
    b[flat] = np.where((lo <= 0) & (hi >= 0), np.inf, -1.0)
    return a, b


def _windows(first, size):
    """(box, index) of each entry of the boxes' windows on one axis, box by
    box: box b's entries are the indices first[b], ..., first[b] + size[b] - 1."""
    box = np.repeat(np.arange(len(size)), size)
    return box, first[box] + np.arange(len(box)) - np.repeat(np.cumsum(size) - size, size)


class LatticeDP:
    """Longest in-G path over the lattice DAG ordered by the P-value.

    Nodes are swept in bins floor((P(x) - min P) / (w / 2)), where w is the
    smallest P-increment of an admissible step. Every edge raises P by at
    least w, so it leaves an earlier bin: all sources of a bin are final
    before the bin is swept, whatever the bin boundaries. The sweep keeps
    only each node's best value. A bin finds its sources through an index
    map whose border holds a sentinel node of value -inf (see _run), so no
    bin tests the lattice bounds. The one witness is then walked back from
    the best node by the sweep's rule, the first step in step order that
    attains a node's best: path holds its nodes, first node first, and
    path_inside the inside length of each of its edges.
    """

    def __init__(self, G, spec: CurveSpec, bbox=None, pad=1):
        self.G = G
        self.spec = spec
        lo, hi = G.bounds("G") if bbox is None else np.asarray(bbox, dtype=float)
        h = spec.h
        self.h = h
        self.lo = lo - pad * h
        n = np.maximum(np.ceil((hi - lo) / h) + 1 + 2 * pad, 2)  # floats: no overflow
        count = float(n[0]) * float(n[1])
        check_size(count, "a lattice of %.3g nodes (raise the grid step)" % count)
        self.shape = (int(n[0]), int(n[1]))
        # node (i, j) at lo + (i, j) h, i major; no index grid outlives this
        nodes = np.empty(self.shape + (2,))
        nodes[..., 0] = (self.lo[0] + np.arange(self.shape[0]) * h)[:, None]
        nodes[..., 1] = self.lo[1] + np.arange(self.shape[1]) * h
        if not np.isfinite(nodes).all():
            raise InputError("the grid step puts lattice nodes past float range")
        self.nodes = nodes.reshape(-1, 2)
        self.n = len(self.nodes)
        self._run()

    def _edge_table(self):
        """(steps, n + 1) inside lengths of the edges [p, p + step] from each
        node p; column n is 0 (the sweep's sentinel). Regions other than a
        BoxUnion take one segment_inside_length call per step.

        For a BoxUnion, with the bits of segment_inside_length: node (i, j)
        sits at lo + (i, j) h, so box b clips its edge to [max(0, a_x, a_y),
        min(1, b_x, b_y)], a_x and b_x depending only on the step's first
        component, b and i (a_y, b_y on the second, b and j). They are taken
        once per component over b's window on each axis: the nodes within
        [lo_b - r+, hi_b + r-], r+ and r- the steps' largest reach either
        way, and a cell more each way against rounding; an edge from a node
        outside misses b.
        The (box, node) pairs are listed box by box, each box over its own
        window, node order within it, as segment_inside_length lists them
        per node: equal t0 of a node merge in box order, on which the sums
        depend. A pair's x bound is its box's x-window entry, repeated over
        the box's y window; its y bound is gathered from the y windows. A
        step's arrays hold one entry per pair: the sum of the window areas,
        which check_size caps.
        """
        n, ns = self.n, len(self.spec.step_set)
        steps = np.array(self.spec.step_set, dtype=float) * self.h
        table = np.zeros((ns, n + 1))
        G = self.G
        if not isinstance(G, BoxUnion):
            for sidx, step in enumerate(steps):
                table[sidx, :n] = G.segment_inside_length(self.nodes, step)
            return table
        shape = np.array(self.shape)
        first = np.floor((G.lo - np.maximum(steps.max(axis=0), 0.0) - self.lo) / self.h) - 1
        last = np.ceil((G.hi - np.minimum(steps.min(axis=0), 0.0) - self.lo) / self.h) + 1
        first = np.clip(first, 0, shape).astype(np.int64)
        size = np.maximum(np.clip(last, -1, shape - 1).astype(np.int64) - first + 1, 0)
        pairs = float(np.sum(size[:, 0].astype(float) * size[:, 1]))
        check_size(pairs, "%.3g (box, node) pairs of overlapping boxes" % pairs)
        coords = (self.nodes[::self.shape[1], 0], self.nodes[:self.shape[1], 1])
        # an axis's bounds depend on a step only through its component there
        comp, which = zip(*(np.unique(steps[:, ax], return_inverse=True) for ax in (0, 1)))
        (xbox, xs), (ybox, ys) = (_windows(first[:, ax], size[:, ax]) for ax in (0, 1))
        (x0, x1), (y0, y1) = (_axis_clips(coords[ax][idx], G.lo[box, ax], G.hi[box, ax], comp[ax])
                              for ax, box, idx in ((0, xbox, xs), (1, ybox, ys)))
        np.maximum(0.0, x0, out=x0)
        np.minimum(1.0, x1, out=x1)
        # x entry e of box b pairs with each entry of b's y window; node ids
        # fit int32, as check_size caps the lattice
        reps = size[xbox, 1]
        _, yat = _windows((np.cumsum(size[:, 1]) - size[:, 1])[xbox], reps)
        nodes = np.repeat((xs * self.shape[1]).astype(np.int32), reps)
        nodes += ys[yat]
        for sidx, (i, j) in enumerate(zip(*which)):
            t0 = np.repeat(x0[i], reps)
            np.maximum(t0, np.take(y0[j], yat), out=t0)
            t1 = np.repeat(x1[i], reps)
            np.minimum(t1, np.take(y1[j], yat), out=t1)
            hit = np.flatnonzero(t1 > t0)
            rows, t0, t1 = nodes[hit], t0[hit], t1[hit]
            del hit  # the merge is the step's memory peak
            at, frac = _union_length(rows, t0, t1)
            table[sidx, at] = np.minimum(frac, 1.0) * float(np.linalg.norm(steps[sidx]))
        return table

    def _run(self):
        """Sweep the bins in order, all steps of a bin at once.

        A bin gathers its sources through an index map over the lattice
        widened by the steps' reach (at most the lattice size, since a step
        past it has no source on the lattice): node indices inside, the
        sentinel n in the border. best[n] = -inf and the edge table's column
        n is 0, so no bin tests bounds. Each node is a target once and takes
        its top candidate when positive, else 0. The walk back gathers one
        node's candidates as its bin did; their best values are final, so it
        sees the values the sweep saw. The lattice is a DAG, so it ends.
        """
        spec = self.spec
        nx, ny = self.shape
        n, ns = self.n, len(spec.step_set)
        steps = np.array(spec.step_set, dtype=np.int64)
        pv = self.nodes @ spec.P.coeffs
        width = min(spec.P(s.astype(float)) for s in steps) * self.h / 2.0
        bins = np.floor((pv - pv.min()) / width).astype(np.int64)
        order = np.argsort(bins, kind="stable")
        starts = np.flatnonzero(np.diff(bins[order], prepend=-1))
        ends = np.append(starts[1:], n)
        del pv, bins
        rx, ry = np.minimum(np.abs(steps).max(axis=0), self.shape)
        wy = ny + 2 * ry
        node_at = np.full((nx + 2 * rx) * wy, n, dtype=np.int64)
        node_at.reshape(-1, wy)[rx:rx + nx, ry:ry + ny] = np.arange(n).reshape(nx, ny)
        # map position of each node in sweep order; node_at[pos] is the node
        pos = (order // ny + rx) * wy + order % ny + ry
        del order
        offs = np.clip(steps[:, :1], -rx, rx) * wy + np.clip(steps[:, 1:], -ry, ry)
        elens = self._edge_table().ravel()
        rows = np.arange(ns)[:, None] * (n + 1)
        best = np.append(np.zeros(n), -np.inf)
        for a, b in zip(starts, ends):
            at = pos[a:b]
            src = node_at[at - offs]
            top = (best[src] + elens[src + rows]).max(axis=0)
            best[node_at[at]] = np.where(top > 0.0, top, 0.0)
        # the witness, walked back from the best node
        cur = int(np.argmax(best))
        path, inside = [cur], []
        while best[cur] > 0.0:
            src = node_at[(cur // ny + rx) * wy + cur % ny + ry - offs[:, 0]]
            edge = src + rows[:, 0]
            sidx = int(np.argmax(best[src] + elens[edge]))
            inside.append(elens[edge[sidx]])
            cur = int(src[sidx])
            path.append(cur)
        self.best = best[:n]
        self.path = np.array(path[::-1])
        self.path_inside = np.array(inside[::-1])

    def value(self):
        return float(np.max(self.best))


def xi_estimate(G, spec: CurveSpec, bbox=None):
    """(value, gap, witness path).  Lower-bound estimate over lattice curves."""
    dp = LatticeDP(G, spec, bbox=bbox)
    value = dp.value()
    wit = dp.nodes[dp.path]
    if isinstance(G, BoxUnion):
        # an edge crosses the boundary when it lies partly inside the union
        ln = dp.path_inside
        full = np.linalg.norm(np.diff(wit, axis=0), axis=1)
        crossings = int(np.count_nonzero((ln > 1e-12) & (ln < full - 1e-12)))
    else:
        # other regions: an edge crosses when its endpoints disagree
        inside = G.contains(wit)
        crossings = int(np.count_nonzero(inside[1:] != inside[:-1]))
    c = spec.k * np.sqrt(2.0) * max(1.0, spec.P.dual_norm)
    gap = dp.h * max(1, crossings) * c
    return value, float(gap), wit


def pu_cover(E, P: Functional, eps, budget=6):
    """Open box-union cover of an IFS-type compact E with small curve mass.

    Sweeps IFS levels m = 0..budget, covering the level-m squares that meet
    E by open boxes grown by a quarter of their side on every face, until
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
    nmax, ratio = meta.get("level"), meta.get("ratio")
    if not (type(nmax) is int and nmax >= 0
            and type(ratio) in (int, float) and 0.0 < ratio <= 0.5):
        raise InputError("a four-corner region needs level >= 0 and ratio in (0, 1/2]")
    best = None
    for m in range(0, min(int(budget), nmax) + 1):
        lo_m, side = four_corner_squares(m, ratio)
        # keep level-m squares that meet E, pair_blocks of squares at a time
        meets = np.zeros(len(lo_m), dtype=bool)
        for blk in pair_blocks(len(lo_m), len(E.lo)):
            sq = lo_m[blk, None]
            meets[blk] = np.all((E.lo < sq + side) & (E.hi > sq), axis=2).any(axis=1)
        keep = lo_m[meets]
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
