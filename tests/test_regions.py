import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipforge.errors import DomainError, InputError
from lipforge.regions import (BallUnion, BoxUnion, Complement, CurveSpec,
                              EmptyRegion, Intersection, LatticeDP, Region,
                              UnionRegion, box_region, four_corner_squares,
                              gen_four_corner, pu_cover, room_inside,
                              xi_estimate)
from lipforge.spaces import Functional, NormedSpace, lp_space


def test_box_union_contains_and_area():
    G = BoxUnion(np.array([[0.0, 0.0], [2.0, 0.0]]),
                 np.array([[1.0, 1.0], [3.0, 1.0]]))
    pts = np.array([[0.5, 0.5], [2.5, 0.5], [1.5, 0.5], [-1.0, 0.0]])
    assert list(G.contains(pts)) == [True, True, False, False]
    assert G.area() == pytest.approx(2.0)


def test_segment_inside_length_exact_oracle():
    G = box_region([0.0, 0.0], [1.0, 1.0])
    # segment from (-0.5, 0.5) along +x of length 2: exactly 1 inside
    ln = G.segment_inside_length(np.array([[-0.5, 0.5]]), np.array([2.0, 0.0]))
    assert float(ln[0]) == pytest.approx(1.0, abs=1e-12)
    # diagonal through the square: length sqrt(2)
    ln = G.segment_inside_length(np.array([[-0.5, -0.5]]), np.array([2.0, 2.0]))
    assert float(ln[0]) == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_segment_inside_length_counts_overlaps_once():
    # a repeated box: the unit crossing from (-0.5, 0.5) spends 0.5 inside
    box = box_region([0.0, 0.0], [1.0, 1.0])
    dup = BoxUnion([box.lo[0], box.lo[0]], [box.hi[0], box.hi[0]])
    ln = dup.segment_inside_length(np.array([[-0.5, 0.5]]), np.array([1.0, 0.0]))
    assert float(ln[0]) == 0.5
    # partly overlapping boxes covering [0, 1.5] of the x-axis band
    G = BoxUnion([[0.0, 0.0], [0.5, 0.0]], [[1.0, 1.0], [1.5, 1.0]])
    ln = G.segment_inside_length(np.array([[-0.5, 0.5]]), np.array([2.5, 0.0]))
    assert float(ln[0]) == pytest.approx(1.5, abs=1e-12)


def _looped_inside_length(G, P0, step):
    """BoxUnion.segment_inside_length with a clip loop of its own: one
    branch per sign of each step component, then the merge of _merged_rows."""
    P0 = np.atleast_2d(np.asarray(P0, dtype=float))
    step = np.asarray(step, dtype=float)
    slen = float(np.linalg.norm(step))
    if slen == 0.0:
        return np.zeros(len(P0))
    rows = np.repeat(np.arange(len(P0)), G.n_boxes)
    boxes = np.tile(np.arange(G.n_boxes), len(P0))
    P = P0[rows]
    t0 = np.zeros(len(rows))
    t1 = np.ones(len(rows))
    for ax in range(G.dim):
        s = step[ax]
        lo = G.lo[boxes, ax] - P[:, ax]
        hi = G.hi[boxes, ax] - P[:, ax]
        if s > 0:
            t0 = np.maximum(t0, lo / s)
            t1 = np.minimum(t1, hi / s)
        elif s < 0:
            t0 = np.maximum(t0, hi / s)
            t1 = np.minimum(t1, lo / s)
        else:
            ok = (P[:, ax] >= G.lo[boxes, ax]) & (P[:, ax] <= G.hi[boxes, ax])
            t1 = np.where(ok, t1, -1.0)
    hit = t1 > t0
    frac = _merged_rows(rows[hit], t0[hit], t1[hit], len(P0))
    return np.minimum(frac, 1.0) * slen


def test_segment_inside_length_matches_the_looped_clip():
    rng = np.random.default_rng(70)
    kinds = ("open", "closed", "degenerate", "repeated", "overlapping")
    for trial in range(90):
        d, kind = 1 + trial % 3, kinds[trial % 5]
        nb = int(rng.integers(1, 6))
        lo = rng.uniform(0.0, 0.7, (nb, d))
        hi = lo + rng.uniform(0.05, 0.5, (nb, d))
        if kind == "degenerate":
            ax = int(rng.integers(d))
            hi[0, ax] = lo[0, ax]
        elif kind == "repeated":
            lo[-1], hi[-1] = lo[0], hi[0]
        elif kind == "overlapping":
            lo = np.vstack([lo, lo[:1] + 0.5 * (hi[:1] - lo[:1])])
            hi = np.vstack([hi, hi[:1] + 0.2])
        G = BoxUnion(lo, hi, open_=kind == "open")
        step = rng.normal(size=d) * rng.choice([0.05, 0.3, 1.0])
        if d > 1 and trial % 2:
            step[rng.permutation(d)[:int(rng.integers(1, d))]] = 0.0
        P0 = rng.uniform(-0.3, 1.3, (40, d))
        # points on box faces, and points whose segment ends on a face
        b = rng.integers(nb, size=40)
        faces = np.where(rng.random((20, d)) < 0.5, lo[b[:20]], hi[b[:20]])
        P0[:20] = np.where(rng.random((20, d)) < 0.5, faces, P0[:20])
        P0[20:30] = lo[b[20:30]] - step
        P0[30:] = hi[b[30:]] - step
        got, want = G.segment_inside_length(P0, step), _looped_inside_length(G, P0, step)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    for d in (1, 2, 3):
        G = BoxUnion(np.zeros((0, d)), np.zeros((0, d)))
        P0, step = rng.uniform(0.0, 1.0, (5, d)), np.ones(d)
        assert np.array_equal(G.segment_inside_length(P0, step), np.zeros(5))
        assert np.array_equal(_looped_inside_length(G, P0, step), np.zeros(5))


def _merged_lengths(G, nodes, step):
    """Per-node union length of the segments inside G: each box's parameter
    interval, sorted and merged in plain Python."""
    out = []
    for p in nodes:
        ivs = []
        for lo, hi in zip(G.lo, G.hi):
            t0, t1 = 0.0, 1.0
            for ax in range(2):
                s = float(step[ax])
                if s > 0:
                    t0 = max(t0, (lo[ax] - p[ax]) / s)
                    t1 = min(t1, (hi[ax] - p[ax]) / s)
                elif s < 0:
                    t0 = max(t0, (hi[ax] - p[ax]) / s)
                    t1 = min(t1, (lo[ax] - p[ax]) / s)
                elif not lo[ax] <= p[ax] <= hi[ax]:
                    t1 = -1.0
            if t1 > t0:
                ivs.append((t0, t1))
        total, reach = 0.0, 0.0
        for a, b in sorted(ivs):
            if b > reach:
                total += b - max(a, reach)
                reach = b
        out.append(total * float(np.linalg.norm(step)))
    return np.array(out)


def test_edge_lengths_match_interval_merge_oracle(l2_2):
    rng = np.random.default_rng(11)
    h = 0.125
    for trial in range(8):
        nb = int(rng.integers(2, 7))
        lo = rng.uniform(0.0, 0.7, (nb, 2))
        hi = lo + rng.uniform(0.05, 0.5, (nb, 2))
        if trial % 2:
            # box faces on lattice lines, so edges run along them
            lo, hi = np.round(lo / h) * h, np.round(hi / h) * h + h
        lo[-1], hi[-1] = lo[0], hi[0]  # always one repeated box
        G = BoxUnion(lo, hi, open_=bool(trial % 4 < 2))
        # P = e1 and P = e2 admit the axis-parallel steps
        c = [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
             rng.normal(size=2)][trial % 3]
        cs = CurveSpec(Functional(c / np.linalg.norm(c), l2_2), 0.2, h, k=2)
        dp = LatticeDP(G, cs, pad=2)
        table = dp._edge_table()
        for sidx, st in enumerate(cs.step_set):
            step = np.array(st, dtype=float) * h
            got = table[sidx, :dp.n]
            want = _merged_lengths(G, dp.nodes, step)
            assert np.max(np.abs(got - want)) <= 1e-12, (trial, st)


def test_xi_estimate_ignores_repeated_boxes(l2_2):
    # lattice step 0.3 leaves edges that cross the box boundary part-way
    box = box_region([0.0, 0.0], [1.0, 1.0])
    dup = BoxUnion([box.lo[0], box.lo[0]], [box.hi[0], box.hi[0]])
    cs = CurveSpec(Functional([1.0, 0.0], l2_2), 0.3, 0.3, k=3)
    v1, gap1, wit1 = xi_estimate(box, cs)
    v2, gap2, wit2 = xi_estimate(dup, cs)
    assert v2 == v1 and gap2 == gap1
    assert np.array_equal(wit2, wit1)


def test_dist_to_boundary():
    G = box_region([0.0, 0.0], [2.0, 2.0])
    d = G.dist_to_boundary(np.array([[1.0, 1.0], [0.25, 1.0]]))
    assert float(d[0]) == pytest.approx(1.0)
    assert float(d[1]) == pytest.approx(0.25)


def _per_box_oracle(lo, hi, open_, X):
    """contains and dist_to_boundary of a box union, one box at a time: the
    largest inside margin over the boxes holding x, else the smallest gap."""
    inside, dist = [], []
    for x in X.tolist():
        best_in, best_out = None, math.inf
        for bl, bh in zip(lo.tolist(), hi.tolist()):
            axes = list(zip(x, bl, bh))
            if open_:
                held = all(a < xa < b for xa, a, b in axes)
            else:
                held = all(a <= xa <= b for xa, a, b in axes)
            if held:
                margin = min(min(xa - a, b - xa) for xa, a, b in axes)
                best_in = margin if best_in is None else max(best_in, margin)
            gap = max(max(a - xa, xa - b, 0.0) for xa, a, b in axes)
            best_out = min(best_out, gap)
        inside.append(best_in is not None)
        dist.append(best_out if best_in is None else best_in)
    return np.array(inside), np.array(dist)


_eighths = st.integers(-8, 16).map(lambda k: k / 8.0)
_box = st.tuples(_eighths, _eighths, st.integers(0, 6), st.integers(0, 6))
_point = st.one_of(
    st.tuples(*[st.integers(-24, 32).map(lambda k: k / 8.0)] * 2),
    st.tuples(*[st.floats(-3.0, 4.0, allow_nan=False)] * 2))


@settings(max_examples=200, deadline=None)
@given(boxes=st.lists(_box, min_size=1, max_size=6),
       repeats=st.integers(0, 2), open_=st.booleans(),
       points=st.lists(_point, min_size=1, max_size=30))
def test_dist_to_boundary_matches_per_box_oracle(boxes, repeats, open_, points):
    # lattice corners put points on faces; zero widths give flat boxes;
    # repeats and random corners give overlapping and repeated boxes
    boxes = boxes + boxes[:repeats]
    lo = np.array([[a, b] for a, b, _, _ in boxes])
    hi = lo + np.array([[w, h] for _, _, w, h in boxes]) / 8.0
    X = np.array(points, dtype=float)
    G = BoxUnion(lo, hi, open_=open_)
    inside, dist = _per_box_oracle(lo, hi, open_, X)
    assert np.array_equal(G.contains(X), inside)
    assert np.array_equal(G.dist_to_boundary(X), dist)


def test_bounds_and_room_inside():
    E = box_region([0, 0], [1, 2])
    lo, hi = E.bounds("E")
    assert lo.dtype == float and list(lo) == [0.0, 0.0] and list(hi) == [1.0, 2.0]
    C = Complement(E)
    with pytest.raises(InputError, match="^U must be bounded$"):
        C.bounds("U")
    Q = box_region([-1.0, -0.5], [3.0, 2.25])
    loE, hiE, room = room_inside(E, Q, "Q")
    assert room == 0.25 and list(hiE) == [1.0, 2.0]
    with pytest.raises(InputError, match="Q must be bounded"):
        room_inside(E, C, "Q")
    with pytest.raises(InputError, match="E must be bounded"):
        room_inside(C, Q, "Q")
    for touching in (box_region([0, -1], [3, 3]), box_region([-1, -1], [1, 3])):
        with pytest.raises(DomainError, match="strictly inside Q"):
            room_inside(E, touching, "Q")


def test_four_corner_counts_and_area():
    for level in (1, 2, 3):
        E = gen_four_corner(level)
        assert E.n_boxes == 4 ** level
        assert E.area() == pytest.approx(0.25 ** level)
        lo, side = four_corner_squares(level, 0.25)
        assert len(lo) == 4 ** level
        assert side == pytest.approx(0.25 ** level)


def _four_corner_lows(level, ratio):
    """The lows of the level's boxes built one box at a time: the oracle."""
    lo = np.array([[0.0, 0.0]])
    side = 1.0
    for _ in range(level):
        new = []
        for base in lo:
            for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
                new.append(base + np.array([dx, dy]) * (side - ratio * side))
        lo = np.array(new)
        side *= ratio
    return lo, lo + side


def test_four_corner_boxes_match_the_box_loop():
    # the loop takes 0.4 s at level 8, so other ratios stop at level 6
    for ratio, top in ((0.25, 8), (0.3, 6), (0.5, 6)):
        for level in range(top + 1):
            E = gen_four_corner(level, ratio)
            lo, hi = _four_corner_lows(level, ratio)
            assert np.array_equal(E.lo, lo) and np.array_equal(E.hi, hi), (ratio, level)
    t0 = time.perf_counter()
    assert gen_four_corner(10).n_boxes == 4 ** 10
    assert time.perf_counter() - t0 < 1.0


def test_region_doc_round_trip():
    regions = [
        gen_four_corner(2),
        EmptyRegion(2),
        Complement(box_region([0, 0], [1, 1])),
        Intersection([box_region([0, 0], [2, 2]), box_region([1, 1], [3, 3])]),
        UnionRegion([box_region([0, 0], [1, 1]), box_region([2, 2], [3, 3])]),
    ]
    pts = np.random.default_rng(0).uniform(-1, 4, (200, 2))
    for R in regions:
        R2 = Region.from_doc(R.to_doc())
        assert np.array_equal(R.contains(pts), R2.contains(pts))


def test_curve_spec_cone_filter(l2_2):
    P = Functional([1.0, 0.0], l2_2)
    cs = CurveSpec(P, 0.9, 0.1, k=2)
    for (i, j) in cs.step_set:
        u = np.array([float(i), float(j)])
        assert float(P(u)) > 0
        assert float(P(u)) >= 0.9 * np.linalg.norm(u) * P.dual_norm - 1e-12
    with pytest.raises(InputError):
        CurveSpec(P, 1.5, 0.1)


def _cone_steps(P, alphas, k):
    """Per alpha, the admissible steps by one P and norm call per candidate."""
    out = [[] for _ in alphas]
    for i in range(-k, k + 1):
        for j in range(-k, k + 1):
            if i == 0 and j == 0:
                continue
            u = np.array([float(i), float(j)])
            for steps, alpha in zip(out, alphas):
                if P(u) >= alpha * float(P.space.norm(u)) * P.dual_norm and P(u) > 0:
                    steps.append((i, j))
    return out


def test_admissible_steps_match_the_candidate_loop():
    hexagon = [[np.cos(t), np.sin(t)] for t in np.arange(6) * np.pi / 3]
    spaces = [lp_space(2, p) for p in (1, 1.5, 2, 3, "inf")] + [
        NormedSpace(2, {"kind": "weighted-lp", "p": p, "weights": [2.0, 0.5]})
        for p in (1, 2, "inf")] + [NormedSpace(2, {"kind": "polyhedral", "vertices": hexagon})]
    rng = np.random.default_rng(70)
    for space in spaces:
        for c in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], rng.normal(size=2)):
            P = Functional(c, space)
            # alphas on the cone boundary of the axis and diagonal steps
            alphas = [float(rng.uniform(0.05, 0.95))]
            for u in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]):
                u = np.array(u)
                a = float(P(u) / (float(space.norm(u)) * P.dual_norm))
                if 0.0 < a < 1.0:
                    alphas.append(a)
            for k in range(1, 13):
                for alpha, want in zip(alphas, _cone_steps(P, alphas, k)):
                    if not want:
                        with pytest.raises(InputError, match="no admissible"):
                            CurveSpec(P, alpha, 0.1, k=k)
                        continue
                    assert CurveSpec(P, alpha, 0.1, k=k).step_set == want, (c, alpha, k)


def test_lattice_dp_single_box_value(l2_2):
    # one unit box, P = e1, near-degenerate cone: best path crosses the box
    P = Functional([1.0, 0.0], l2_2)
    G = box_region([0.0, 0.0], [1.0, 1.0])
    dp = LatticeDP(G, CurveSpec(P, 0.9, 0.25, k=1), pad=1)
    # only in-G length counts: crossing the box gathers exactly 1.0
    assert dp.value() == pytest.approx(1.0, abs=1e-9)
    wit = dp.nodes[dp.path]
    pv = wit @ np.array([1.0, 0.0])
    assert np.all(np.diff(pv) > 0)


def _masked_sweep(dp):
    """(best, parent, in_len) of dp's lattice by the bin sweep that tests
    every source against the lattice bounds and scatters through masks."""
    spec = dp.spec
    nx, ny = dp.shape
    steps = np.array(spec.step_set, dtype=np.int64)
    pv = dp.nodes @ spec.P.coeffs
    width = min(spec.P(s.astype(float)) for s in steps) * dp.h / 2.0
    bins = np.floor((pv - pv.min()) / width).astype(np.int64)
    order = np.argsort(bins, kind="stable")
    starts = np.flatnonzero(np.diff(bins[order], prepend=-1))
    ends = np.append(starts[1:], dp.n)
    elens = dp._edge_table()[:, :dp.n]
    best = np.zeros(dp.n)
    parent = np.full(dp.n, -1, dtype=np.int64)
    in_len = np.zeros(dp.n)
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
        chosen = src[sidx, cols][upd]
        best[tgt[upd]] = top[upd]
        parent[tgt[upd]] = chosen * len(steps) + sidx[upd]
        in_len[tgt[upd]] = elens[sidx[upd], chosen]
    return best, parent, in_len


def _seeded_region(rng, kind, scale=1.0):
    """A region of the named kind with one to four boxes (or balls) in
    [0, scale]^2."""
    nb = int(rng.integers(1, 5))
    lo = rng.uniform(0.0, 0.7 * scale, (nb, 2))
    hi = lo + rng.uniform(0.05 * scale, 0.5 * scale, (nb, 2))
    if kind == "degenerate":
        ax = int(rng.integers(2))
        hi[0, ax] = lo[0, ax]
    elif kind == "repeated":
        lo[-1], hi[-1] = lo[0], hi[0]
    elif kind == "overlapping":
        lo = np.vstack([lo, lo[:1] + 0.5 * (hi[:1] - lo[:1])])
        hi = np.vstack([hi, hi[:1] + 0.2 * scale])
    elif kind == "balls":
        return BallUnion(lo, 0.2 * scale, lp_space(2, [1, 2, "inf"][nb % 3]))
    return BoxUnion(lo, hi, open_=kind == "open")


def _assert_sweeps_equal(dp):
    best, parent, in_len = _masked_sweep(dp)
    assert np.array_equal(dp.best, best)
    assert np.array_equal(np.signbit(dp.best), np.signbit(best))
    # the witness is the oracle's parent chain back from the best node
    path = [int(np.argmax(best))]
    while parent[path[-1]] >= 0:
        path.append(int(parent[path[-1]]) // len(dp.spec.step_set))
    path.reverse()
    assert np.array_equal(dp.path, path)
    assert np.array_equal(dp.path_inside, in_len[path[1:]])


@pytest.mark.parametrize("p", [1, 2, "inf"])
def test_sweep_matches_the_masked_sweep(p):
    space = lp_space(2, p)
    rng = np.random.default_rng({1: 31, 2: 32, "inf": 33}[p])
    kinds = ("open", "closed", "degenerate", "repeated", "overlapping", "balls")
    for trial in range(24):
        G = _seeded_region(rng, kinds[trial % 6])
        c = rng.normal(size=2)
        P = Functional(c / np.linalg.norm(c), space)
        h = (0.05, 0.1, 1.0 / 7.0, 0.125)[trial % 4]
        cs = CurveSpec(P, float(rng.uniform(0.1, 0.5)), h, k=1 + trial % 3)
        bbox = None
        if trial % 5 == 0:
            # a lattice reaching well past G
            lo, hi = G.bounds("G")
            bbox = (lo - 0.3, hi + 0.2)
        dp = LatticeDP(G, cs, bbox=bbox, pad=trial % 3)
        _assert_sweeps_equal(dp)


def test_sweep_matches_the_masked_sweep_past_the_lattice(l2_2):
    # steps of up to 9 cells on lattices of 2 to 5 nodes a side: most
    # sources lie off the lattice, many steps past its whole width
    rng = np.random.default_rng(41)
    kinds = ("open", "closed", "repeated", "balls")
    for trial in range(24):
        h = 0.1
        G = _seeded_region(rng, kinds[trial % 4], scale=0.3)
        c = rng.normal(size=2)
        P = Functional(c / np.linalg.norm(c), l2_2)
        cs = CurveSpec(P, float(rng.uniform(0.1, 0.5)), h, k=4 + trial % 6)
        dp = LatticeDP(G, cs, pad=0)
        reach = np.abs(np.array(cs.step_set)).max()
        assert max(dp.shape) <= 5 and reach >= min(dp.shape)
        _assert_sweeps_equal(dp)


def _sweep_peak(G, cs, bbox=None):
    """(traced peak bytes of the DP sweep on a built lattice, bytes of its
    edge table)."""
    dp = LatticeDP(G, cs, bbox=bbox, pad=1)
    tracemalloc.start()
    try:
        dp._run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(cs.step_set) * dp.n * 8


def test_dp_memory_stays_near_its_edge_table(l2_2):
    # the pu map's last DP: the level-3 four-corner cover at grid 1/128,
    # a 279 x 140 lattice with 21 steps
    lo, side = four_corner_squares(3)
    G = BoxUnion(lo - side / 4.0, lo + side + side / 4.0, open_=True)
    cs = CurveSpec(Functional([0.5, 0.0], l2_2), 0.0119, 1.0 / 128.0)
    bbox = (np.array([-0.03515625, -0.03515625]), np.array([2.12109375, 1.03515625]))
    peak, table = _sweep_peak(G, cs, bbox)
    assert len(cs.step_set) == 21
    assert peak <= 1.4 * table, peak / table
    # a 28 x 28 lattice on the unit box with steps of up to 12 cells
    cs = CurveSpec(Functional([1.0, 0.0], l2_2), 0.3, 1.0 / 25.0, k=12)
    peak, table = _sweep_peak(box_region([0.0, 0.0], [1.0, 1.0]), cs)
    assert peak <= 1.4 * table, peak / table


def _merged_rows(rows, t0, t1, n):
    """Length of the union of the intervals [t0, t1] (0 <= t0 < t1) that
    share a row, for each row in range(n)."""
    order = np.lexsort((t0, rows))
    rows, t0, t1 = rows[order], t0[order], t1[order]
    reach = np.maximum.accumulate(rows + 1j * t1).imag
    covered = np.zeros(len(rows))
    same = rows[1:] == rows[:-1]
    covered[1:][same] = reach[:-1][same]
    added = np.maximum(t1 - np.maximum(t0, covered), 0.0)
    return np.bincount(rows, weights=added, minlength=n)


def _clipped_table(dp):
    """dp's edge table built one step at a time: each box is clipped against
    the nodes of its own window for that step, and the (node, box) pairs
    are merged in box order per node."""
    G, n = dp.G, dp.n
    shape = np.array(dp.shape)
    table = np.zeros((len(dp.spec.step_set), n + 1))
    for sidx, st in enumerate(dp.spec.step_set):
        step = np.array(st, dtype=float) * dp.h
        first = np.floor((G.lo - np.maximum(step, 0.0) - dp.lo) / dp.h) - 1
        last = np.ceil((G.hi - np.minimum(step, 0.0) - dp.lo) / dp.h) + 1
        first = np.clip(first, 0, shape).astype(np.int64)
        last = np.clip(last, -1, shape - 1).astype(np.int64)
        size = np.maximum(last - first + 1, 0)
        count = size[:, 0] * size[:, 1]
        boxes = np.repeat(np.arange(G.n_boxes), count)
        k = np.arange(len(boxes)) - np.repeat(np.cumsum(count) - count, count)
        cols = size[boxes, 1]
        rows = (first[boxes, 0] + k // cols) * dp.shape[1] + first[boxes, 1] + k % cols
        P = dp.nodes[rows]
        t0 = np.zeros(len(rows))
        t1 = np.ones(len(rows))
        for ax in range(2):
            s = step[ax]
            lo = G.lo[boxes, ax] - P[:, ax]
            hi = G.hi[boxes, ax] - P[:, ax]
            if s > 0:
                t0 = np.maximum(t0, lo / s)
                t1 = np.minimum(t1, hi / s)
            elif s < 0:
                t0 = np.maximum(t0, hi / s)
                t1 = np.minimum(t1, lo / s)
            else:
                ok = (P[:, ax] >= G.lo[boxes, ax]) & (P[:, ax] <= G.hi[boxes, ax])
                t1 = np.where(ok, t1, -1.0)
        hit = t1 > t0
        frac = _merged_rows(rows[hit], t0[hit], t1[hit], n)
        table[sidx, :n] = np.minimum(frac, 1.0) * float(np.linalg.norm(step))
    return table


def _assert_tables_equal(dp):
    got, want = dp._edge_table(), _clipped_table(dp)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("pad", [0, 1, 2])
def test_edge_table_matches_the_per_step_clip(pad):
    rng = np.random.default_rng(50 + pad)
    kinds = ("open", "closed", "degenerate", "repeated", "overlapping", "lattice")
    for trial in range(60):
        kind = kinds[trial % 6]
        h = (0.05, 0.1, 1.0 / 7.0, 0.125, 1.0 / 128.0)[trial % 5]
        G = _seeded_region(rng, "open" if kind == "lattice" else kind,
                           scale=(1.0, 0.3)[trial % 2])
        if kind == "lattice":
            # box faces on lattice lines, so edges run along them
            G = BoxUnion(np.round(G.lo / h) * h, np.round(G.hi / h) * h + h,
                         open_=bool(trial % 4 < 2))
        # P = e1 and P = e2 admit the axis steps
        c = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), rng.normal(size=2)][trial % 3]
        P = Functional(c / np.linalg.norm(c), lp_space(2, [1, 2, "inf"][trial % 3]))
        cs = CurveSpec(P, float(rng.uniform(0.05, 0.5)), h, k=1 + trial % 9)
        lo, hi = G.bounds("G")
        # lattices past G, and lattices that G reaches past
        bbox = [None, (lo - 0.3, hi + 0.2), (lo + 0.3 * (hi - lo), hi - 0.2 * (hi - lo))][trial % 3]
        _assert_tables_equal(LatticeDP(G, cs, bbox=bbox, pad=pad))
    # no boxes, and boxes wholly off the lattice
    for lo, hi in ((np.zeros((0, 2)), np.zeros((0, 2))),
                   ([[5.0, 5.0], [-3.0, 0.5]], [[6.0, 6.0], [-2.0, 0.6]])):
        dp = LatticeDP(BoxUnion(lo, hi), cs, bbox=(np.zeros(2), np.ones(2)), pad=pad)
        _assert_tables_equal(dp)
        assert not dp._edge_table().any()


def _mixed_union(rng):
    """A box covering the unit square amid 400 boxes 0.002 wide."""
    lo = rng.uniform(0.0, 1.0, (401, 2))
    hi = lo + 0.002
    lo[200], hi[200] = (-0.01, -0.01), (1.01, 1.01)
    return BoxUnion(lo, hi, open_=True)


def _interleaved_union(rng):
    """200 boxes alternating 0.3 and 0.002 wide: the wide ones tile a 3 x 3
    square, no two overlapping, and the narrow ones lie in it at random."""
    lo = np.empty((200, 2))
    lo[0::2] = 0.3 * np.stack(np.meshgrid(np.arange(10), np.arange(10), indexing="ij"),
                              axis=-1).reshape(-1, 2)
    lo[1::2] = rng.uniform(0.0, 3.0, (100, 2))
    return BoxUnion(lo, lo + np.where(np.arange(200) % 2, 0.002, 0.3)[:, None], open_=True)


def test_edge_table_of_mixed_box_sizes(l2_2):
    # windows of about 200 x 200 nodes and of about 8 x 8: padding every
    # window to the largest would clip 401 x 41,000 pairs per step; then
    # windows of about 68 x 68 and 8 x 8 in turn
    cs = CurveSpec(Functional([0.6, 0.8], l2_2), 0.3, 1.0 / 200.0, k=3)
    for G in (_mixed_union(np.random.default_rng(60)),
              _interleaved_union(np.random.default_rng(61))):
        _assert_tables_equal(LatticeDP(G, cs, pad=1))
        peak, table = _sweep_peak(G, cs)
        assert peak <= 2.3 * table, peak / table


def test_xi_strip_diagonal_sqrt2(l2_2):
    # unit-width strip, cone just admitting the diagonal: xi ~= sqrt(2)
    P = Functional([1.0, 0.0], l2_2)
    G = box_region([0.0, 0.0], [1.0, 4.0])
    h = 0.05
    alpha = 1.0 / np.sqrt(2.0) - 0.01
    value, gap, _ = xi_estimate(G, CurveSpec(P, alpha, h, k=3))
    assert abs(value - np.sqrt(2.0)) <= 2.0 * h + 1e-9


def test_xi_monotone_in_four_corner_level(l2_2):
    P = Functional([1.0, 0.0], l2_2)
    vals = []
    for level in (1, 2, 3):
        E = gen_four_corner(level)
        v, _, _ = xi_estimate(E, CurveSpec(P, 0.3, 0.02, k=3))
        vals.append(v)
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("cut", [False, True], ids=["balls", "intersection"])
def test_xi_estimate_of_balls_between_box_unions(cut, l2_2):
    # a non-box region counts crossings where the witness's endpoints
    # disagree; two Euclidean balls, or their cut by a half-plane, hold an
    # inscribed and lie in a circumscribed box union
    c, r = np.array([[0.3, 0.5], [0.7, 0.5]]), 0.2
    q = r / math.sqrt(2.0)
    G, floor = BallUnion(c, r, l2_2), np.array([-1.0, -1.0])
    if cut:
        floor = np.array([0.0, 0.45])
        G = Intersection([G, box_region(floor, [1.0, 1.0])])
    inner = BoxUnion(np.maximum(c - q, floor), c + q)
    outer = BoxUnion(np.maximum(c - r, floor), c + r)
    bbox = (np.zeros(2), np.ones(2))
    for p, alpha, h in [((1.0, 0.0), 0.3, 0.02), ((0.8, 0.6), 0.5, 0.025)]:
        cs = CurveSpec(Functional(np.array(p), l2_2), alpha, h, k=3)
        value, _, _ = xi_estimate(G, cs, bbox=bbox)
        v_in, gap_in, _ = xi_estimate(inner, cs, bbox=bbox)
        v_out, gap_out, _ = xi_estimate(outer, cs, bbox=bbox)
        assert v_in - gap_in <= value <= v_out + gap_out


def _projection_length(lo, hi, c):
    """Length of the union of the boxes' images under x -> c . x."""
    a = np.minimum(lo * c, hi * c).sum(axis=1)
    b = np.maximum(lo * c, hi * c).sum(axis=1)
    total, reach = 0.0, -math.inf
    for x, y in sorted(zip(a.tolist(), b.tolist())):
        if y > reach:
            total += y - max(x, reach)
            reach = y
    return total


@settings(max_examples=60, deadline=None)
@given(boxes=st.lists(st.tuples(*[st.floats(0.0, 1.0)] * 2, *[st.floats(0.0, 0.5)] * 2),
                      min_size=1, max_size=6),
       n_sub=st.integers(1, 6), angle=st.floats(0.0, 2.0 * math.pi),
       scale=st.floats(0.25, 4.0), alpha=st.floats(0.1, 0.8),
       h=st.sampled_from((0.1, 1.0 / 7.0, 0.08)), open_=st.booleans())
def test_xi_estimate_monotone_and_below_projection(boxes, n_sub, angle, scale,
                                                   alpha, h, open_):
    # P rises at least alpha ||P|| per unit of admissible curve length, and
    # only while the curve is in G, so xi(G) <= |P(G)| / (alpha ||P||)
    lo = np.array([[x, y] for x, y, _, _ in boxes])
    hi = lo + np.array([[w, t] for _, _, w, t in boxes])
    c = scale * np.array([math.cos(angle), math.sin(angle)])
    cs = CurveSpec(Functional(c, lp_space(2, 2)), alpha, h, k=2)
    bbox = (np.zeros(2), np.full(2, 1.5))
    xi = xi_estimate(BoxUnion(lo, hi, open_=open_), cs, bbox=bbox)[0]
    xi_sub = xi_estimate(BoxUnion(lo[:n_sub], hi[:n_sub], open_=open_), cs, bbox=bbox)[0]
    assert xi_sub <= xi + 1e-12
    assert xi <= _projection_length(lo, hi, c) / (alpha * cs.P.dual_norm) + 1e-12


def test_pu_cover_shrinks_with_level(l2_2):
    E = gen_four_corner(3)
    P = Functional([1.0, 0.0], l2_2)
    G, value, gap, met, m = pu_cover(E, P, 0.7, budget=3)
    assert m <= 3
    assert value <= 0.7 + gap or not met
    # the cover must contain E
    pts = np.random.default_rng(1).uniform(0, 1, (500, 2))
    inE = E.contains(pts)
    assert bool(G.contains(pts[inE]).all())


def test_pu_cover_rejects_non_ifs(l2_2):
    P = Functional([1.0, 0.0], l2_2)
    with pytest.raises(InputError):
        pu_cover(box_region([0, 0], [1, 1]), P, 0.1)


def test_pu_cover_rejects_negative_budget(l2_2):
    P = Functional([1.0, 0.0], l2_2)
    with pytest.raises(InputError):
        pu_cover(gen_four_corner(2), P, 0.3, budget=-1)


def _composite_regions():
    """(region, norm of its distances): box unions measure in linf, so the
    composites pair them with an linf ball union."""
    linf, l2 = lp_space(2, "inf"), lp_space(2, 2)
    weighted = NormedSpace(2, {"kind": "weighted-lp", "p": 2, "weights": [0.25, 1.0]})
    A = box_region([0.0, 0.0], [2.0, 1.0])
    B = BallUnion([[1.5, 0.5], [3.0, 1.0]], 0.8, linf)
    return [(Intersection([A, B]), linf), (UnionRegion([A, B]), linf),
            (Intersection([B, box_region([2.5, 0.0], [4.0, 3.0], open_=True)]), linf),
            (B, linf), (BallUnion([[0.5, 0.5]], 0.6, l2, open_=False), l2),
            (BallUnion([[0.0, 0.0], [0.3, -0.2]], 0.5, weighted), weighted)]


@pytest.mark.parametrize("k", range(6))
def test_composite_bbox_and_dist_to_boundary_brute_force(k):
    # the box holds every sampled member; the distance to the boundary is at
    # most the distance to any sampled point on the other side of it
    region, norm = _composite_regions()[k]
    rng = np.random.default_rng(k)
    X = rng.uniform(-2.0, 5.0, (20000, 2))
    members = X[region.contains(X)]
    assert len(members) > 100
    lo, hi = region.bounds("region")
    assert np.all(members >= lo) and np.all(members <= hi)
    P = np.vstack([members[:100], rng.uniform(lo - 0.5, hi + 0.5, (100, 2))])
    U = rng.standard_normal((300, 2))
    U /= norm.norm(U)[:, None]
    for p, dist in zip(P, region.dist_to_boundary(P)):
        Y = p + rng.uniform(0.0, 2.0, (300, 1)) * U
        cross = region.contains(Y) != region.contains(p[None])[0]
        if cross.any():
            assert dist <= float(np.min(norm.norm(Y[cross] - p))) + 1e-12
