import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipforge.errors import InputError
from lipforge.regions import (BoxUnion, Complement, CurveSpec, EmptyRegion,
                              Intersection, LatticeDP, Region, UnionRegion,
                              box_region, four_corner_squares,
                              gen_four_corner, pu_cover, xi_estimate)
from lipforge.spaces import Functional, lp_space


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
        for st in cs.step_set:
            step = np.array(st, dtype=float) * h
            got = dp._edge_lengths(st)
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


def test_four_corner_counts_and_area():
    for level in (1, 2, 3):
        E = gen_four_corner(level)
        assert E.n_boxes == 4 ** level
        assert E.area() == pytest.approx(0.25 ** level)
        lo, side = four_corner_squares(level, 0.25)
        assert len(lo) == 4 ** level
        assert side == pytest.approx(0.25 ** level)


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


def test_lattice_dp_single_box_value(l2_2):
    # one unit box, P = e1, near-degenerate cone: best path crosses the box
    P = Functional([1.0, 0.0], l2_2)
    G = box_region([0.0, 0.0], [1.0, 1.0])
    dp = LatticeDP(G, CurveSpec(P, 0.9, 0.25, k=1), pad=1)
    # only in-G length counts: crossing the box gathers exactly 1.0
    assert dp.value() == pytest.approx(1.0, abs=1e-9)
    wit = dp.witness()
    pv = wit @ np.array([1.0, 0.0])
    assert np.all(np.diff(pv) > 0)


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
