import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lipforge.errors import (ExactEvalUnsupported, GeometryError, InputError,
                             NormError)
from lipforge import spaces
from lipforge.fn import (ConstFn, LinearFn, LocalAffineSurgeryFn, SumFn, ZeroFn,
                        as_fraction)
from lipforge.game import IdentityPolicy, certify_transcript, run_bm_game
from lipforge.prescribe import (_candidate_points, build_net, prescribe_derivative,
                                prescription_params, region_diameter)
from lipforge.regions import box_region, gen_four_corner
from lipforge.spaces import LinOp, NormedSpace, lp_space
from lipforge.verify import lip_estimate


def _setup(l2_2):
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    gamma = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    L = LinOp.build(np.array([[0.3, 0.0], [0.0, -0.2]]), l2_2, l2_2)
    return Q, gamma, L


def test_prescription_params_oracle():
    # beta = r s / (4 (1 + diam)), alpha = beta^2 / s reduced to the closed form
    r, s, diam = Fraction(1, 2), Fraction(1, 8), Fraction(3)
    beta, alpha = prescription_params(r, s, diam)
    assert beta == r * s / (4 * (1 + diam))
    assert alpha == beta * beta / s


def test_exact_affinity_on_alpha_balls(l2_2, rng):
    Q, gamma, L = _setup(l2_2)
    g, alpha = prescribe_derivative(ZeroFn(2, 2), L, 0.5, gamma, 0.1, Q)
    for x in gamma:
        u = rng.normal(size=(30, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u *= alpha * rng.uniform(0.1, 0.999, (30, 1))
        resid = g.eval(x[None] + u) - g.eval(x[None]) - u @ L.matrix.T
        assert float(np.max(np.abs(resid))) <= 1e-12


def test_exact_affinity_in_rational_arithmetic(linf_2):
    Q, gamma, L = _setup(linf_2)
    g, alpha = prescribe_derivative(ZeroFn(2, 2), L, 0.5, gamma, 0.1, Q)
    a = g.alpha
    x = [Fraction(0), Fraction(0)]
    u = [a / 2, a / 3]
    gv = g.eval_exact([x[0] + u[0], x[1] + u[1]])
    g0 = g.eval_exact(x)
    Lm = [[as_fraction(v) for v in row] for row in L.matrix]
    want = [sum(Lm[i][j] * u[j] for j in range(2)) for i in range(2)]
    assert [gv[i] - g0[i] for i in range(2)] == want


def test_sup_distance_and_lip(l2_2, rng):
    Q, gamma, L = _setup(l2_2)
    r = 0.4
    g, alpha = prescribe_derivative(ZeroFn(2, 2), L, r, gamma, 0.1, Q)
    X = rng.uniform(-1, 2, (20000, 2))
    dev = np.max(np.abs(g.eval(X)))  # base is zero
    assert dev <= r + 1e-12
    est, _ = lip_estimate(g, Q, pairs=8000, seed=2, dom=l2_2, cod=l2_2)
    assert est <= 1.0 + 1e-7


def test_prescription_claims_only_a_proven_bound():
    # f = 3 x1 has no bound, or one above 1: g claims nothing, and a claim of
    # 1 would be false
    linf = lp_space(2, "inf")
    L = LinOp.build(np.array([[0.2, 0.0]]), linf, lp_space(1, "inf"))
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    gamma = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for f, claim in [(LinearFn([[3.0, 0.0]]), None),
                     (LinearFn([[3.0, 0.0]], lip_bound=3.0), None),
                     (LinearFn([[0.5, 0.0]], lip_bound=0.5), 1.0)]:
        g, _ = prescribe_derivative(f, L, 0.4, gamma, 0.05, Q)
        assert g.lip_bound == claim
        est, _ = lip_estimate(g, Q, pairs=4000, seed=0, dom=linf, cod=L.cod)
        assert est > 1.0 if claim is None else est <= claim + 1e-9


def test_norm_precondition(l2_2):
    Q, gamma, _ = _setup(l2_2)
    big = LinOp.build(0.9 * np.eye(2), l2_2, l2_2)
    with pytest.raises(NormError):
        prescribe_derivative(ZeroFn(2, 2), big, 0.5, gamma, 0.1, Q)


def test_geometry_preconditions(l2_2):
    Q, _, L = _setup(l2_2)
    close = np.array([[0.0, 0.0], [0.1, 0.0]])
    with pytest.raises(GeometryError):
        prescribe_derivative(ZeroFn(2, 2), L, 0.5, close, 0.1, Q)
    near_edge = np.array([[-0.95, 0.0]])
    with pytest.raises(GeometryError):
        prescribe_derivative(ZeroFn(2, 2), L, 0.5, near_edge, 0.1, Q)
    for check in (True, False):
        with pytest.raises(GeometryError, match="no centers"):
            prescribe_derivative(ZeroFn(2, 2), L, 0.5, np.zeros((0, 2)), 0.1, Q,
                                 check_geometry=check)


def test_deep_game_scale_radii(linf_2):
    # radii far below float resolution still prescribe exactly
    Q, gamma, L = _setup(linf_2)
    r = Fraction(1, 2 ** 1200)
    g, alpha = prescribe_derivative(ZeroFn(2, 2), L, r, gamma[:1], 0.1, Q)
    a = g.alpha
    assert a > 0 and float(a) == 0.0  # underflows floats, fine exactly
    x = [Fraction(0), Fraction(0)]
    u = [a / 2, Fraction(0)]
    gv = g.eval_exact([x[0] + u[0], x[1] + u[1]])
    g0 = g.eval_exact(x)
    assert gv[0] - g0[0] == as_fraction(L.matrix[0][0]) * u[0]


def test_build_net_nested_and_separated(l2_2):
    E = gen_four_corner(1)
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    net = build_net(E, Q, 3, space=l2_2)
    for k in (1, 2, 3):
        pts = net.level(k)
        sep = 2.0 ** (-k)
        for i in range(len(pts)):
            d = np.linalg.norm(pts - pts[i], axis=1)
            d[i] = np.inf
            assert np.min(d) >= sep - 1e-12
        assert bool(E.contains(pts).all())
    # nesting: every level-k point appears at level k+1
    for k in (1, 2):
        a, b = net.level(k), net.level(k + 1)
        for p in a:
            assert np.min(np.max(np.abs(b - p), axis=1)) < 1e-12


def _greedy_net(E, Q, kmax, space):
    """build_net's levels by the greedy loop it replaced: one norm call per
    candidate against every point chosen so far."""
    pts = _candidate_points(E, 2.0 ** (-kmax) / 4.0)
    qdist = Q.dist_to_boundary(pts) if len(pts) else np.zeros(0)
    levels, prev = [], np.zeros((0, E.dim))
    for k in range(1, kmax + 1):
        sep = 2.0 ** (-k)
        ek = pts[qdist >= sep]
        chosen = list(prev)
        for p in ek[np.lexsort(ek.T[::-1])]:
            if not chosen or np.min(space.norm(np.array(chosen) - p)) >= sep:
                chosen.append(p)
        levels.append(np.array(chosen) if chosen else np.zeros((0, E.dim)))
        prev = levels[-1][Q.dist_to_boundary(levels[-1]) >= sep / 2] if chosen else levels[-1]
    return levels


_HEXAGON = [[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [-0.5, np.sqrt(3.0) / 2.0]]


@pytest.mark.parametrize("space", [
    lp_space(2, 1), lp_space(2, 2), lp_space(2, "inf"), lp_space(2, 3),
    NormedSpace(2, {"kind": "weighted-lp", "p": 2, "weights": [2.0, 0.5]}),
    NormedSpace(2, {"kind": "polyhedral", "vertices": _HEXAGON}),
    NormedSpace(2, {"kind": "polyhedral", "functionals": _HEXAGON}),
], ids=["l1", "l2", "linf", "l3", "weighted-l2", "hexagon-vertices",
        "hexagon-functionals"])
@pytest.mark.parametrize("E", [gen_four_corner(1), gen_four_corner(2),
                               box_region([0.2, 0.3], [0.7, 0.6])],
                         ids=["four-corner-1", "four-corner-2", "box"])
def test_build_net_matches_the_greedy_loop(space, E):
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    for kmax in range(1, 6):
        got = build_net(E, Q, kmax, space=space).levels
        want = _greedy_net(E, Q, kmax, space)
        assert len(got) == len(want) == kmax
        for a, b in zip(got, want):
            assert np.array_equal(a, b), kmax


def test_region_diameter(l2_2):
    Q = box_region([0.0, 0.0], [3.0, 4.0])
    assert region_diameter(Q, l2_2) == pytest.approx(5.0)


HEXAGON = [[1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0], [-0.5, math.sqrt(3.0) / 2.0]]


def _eval_exact_every_center(g, x):
    """Reference: eval_exact with every center tested in rationals, in
    center order, as before the float pre-pass."""
    s, b, a = g.s, g.beta, g.alpha
    for c in g.centers:
        cf = [as_fraction(v) for v in c]
        w = [xi - ci for xi, ci in zip(x, cf)]
        dd = g.space.norm_exact(w)
        if dd >= s:
            continue
        if dd > b:
            t = s * (dd - b) / (dd * (s - b))
            vals = g.f.eval_exact([ci + t * wi for ci, wi in zip(cf, w)])
        else:
            lam = Fraction(1) if dd <= a else (b - dd) / (b - a)
            tv = [sum(r[j] * w[j] for j in range(g.d)) for r in g.T_exact]
            vals = [fv + lam * t for fv, t in zip(g.f.eval_exact(cf), tv)]
        return [g.scale * v for v in vals]
    return [g.scale * v for v in g.f.eval_exact(x)]


def _around(r):
    """r, r (1 -+ 2^-52), and the floats just below and above r when r lies
    in float range."""
    out = [r, r * (1 - Fraction(1, 2 ** 52)), r * (1 + Fraction(1, 2 ** 52))]
    f = float(r)
    if f > 0.0:
        lo, hi = (f, math.nextafter(f, math.inf)) if Fraction(f) < r else (
            math.nextafter(f, 0.0), f)
        out += [Fraction(math.nextafter(lo, 0.0)), Fraction(lo), Fraction(hi),
                Fraction(math.nextafter(hi, math.inf))]
    return out


def _surgery(space, s):
    centers = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.3, 0.45]])
    f = LinearFn([[0.3, 0.1], [-0.2, 0.4]])
    return LocalAffineSurgeryFn(f, centers, s, s / 3, s / 7,
                                [[0.1, 0.2], [0.0, -0.3]], space)


def test_surgery_centers_must_fit_the_map():
    # a one-column center array would broadcast against 2-d points
    with pytest.raises(InputError, match="centers need 2 coordinates"):
        LocalAffineSurgeryFn(LinearFn(np.eye(2)), [[0.5]], Fraction(1, 4),
                             Fraction(1, 8), Fraction(1, 16), np.zeros((2, 2)),
                             lp_space(2, "inf"))


@pytest.mark.parametrize("space", [
    lp_space(2, 1), lp_space(2, "inf"),
    NormedSpace(2, {"kind": "weighted-lp", "p": 1, "weights": [2.0, 0.3]}),
    NormedSpace(2, {"kind": "polyhedral", "vertices": HEXAGON}),
], ids=["l1", "linf", "weighted-l1", "hexagon"])
@pytest.mark.parametrize("s", [Fraction(1, 10), Fraction(1, 3 * 2 ** 1200)],
                         ids=["s-float", "s-below-float-range"])
def test_surgery_filter_matches_every_center_reference(space, s):
    # points on and one ulp either side of the s, beta and alpha spheres of
    # a center: the float pre-pass must leave every value as it was
    g = _surgery(space, s)
    if s < Fraction(1, 2 ** 1100):
        assert float(g.s) == 0.0
    dirs = [[Fraction(1), Fraction(1, 3)], [Fraction(-2, 7), Fraction(5)],
            [Fraction(0), Fraction(-1)]]
    n = 0
    for c in g.centers[[0, 3]]:
        cf = [as_fraction(v) for v in c]
        for v in dirs:
            nv = space.norm_exact(v)
            for r in (g.s, g.beta, g.alpha):
                for rr in _around(r):
                    x = [ci + rr * vi / nv for ci, vi in zip(cf, v)]
                    assert space.norm_exact([xi - ci for xi, ci in zip(x, cf)]) == rr
                    assert g.eval_exact(x) == _eval_exact_every_center(g, x)
                    n += 1
    assert n >= 2 * 3 * 3 * 3


def test_surgery_filter_keeps_every_center_past_float_range():
    # x beyond float range keeps every center: here the last one, whose
    # core ball reaches past the largest float, takes the surgery
    big = np.finfo(float).max
    centers = np.array([[0.0, 0.0], [big, 0.0]])
    s = Fraction(2 ** 1000)
    g = LocalAffineSurgeryFn(LinearFn([[0.3, 0.1], [-0.2, 0.4]]), centers, s,
                             s / 3, s / 7, [[0.1, 0.2], [0.0, -0.3]],
                             lp_space(2, "inf"))
    rows = [[Fraction(2 ** 1024), Fraction(0)], [Fraction(big), Fraction(0)],
            [Fraction(3, 40), Fraction(2 ** 1100)]]
    want = [_eval_exact_every_center(g, x) for x in rows]
    with warnings.catch_warnings():
        # max |x| + max |c| overflows for the second row, in one batch too
        warnings.simplefilter("error")
        assert [g.eval_exact(x) for x in rows] == want
        assert g.eval_exact_rows(rows) == want
    x = [Fraction(2 ** 1024), Fraction(0)]
    with pytest.raises(OverflowError):
        float(x[0])
    want = g.scale * (g.f.eval_exact([Fraction(big), Fraction(0)])[0]
                      + g.T_exact[0][0] * (x[0] - Fraction(big)))
    assert g.eval_exact(x)[0] == want


def _rows_around_centers(g):
    """Rows on and about the s, beta and alpha spheres of g's first and last
    centers and inside each zone, a row within s of the first two centers,
    rows far from every center and rows past float range."""
    dirs = [[Fraction(1), Fraction(1, 3)], [Fraction(-2, 7), Fraction(5)]]
    rows = []
    for c in g.centers[[0, -1]]:
        cf = [as_fraction(v) for v in c]
        for v in dirs:
            nv = g.space.norm_exact(v)
            for r in [rr for r in (g.s, g.beta, g.alpha) for rr in _around(r)] + [
                    g.alpha / 2, (g.alpha + g.beta) / 2, (g.beta + g.s) / 2]:
                rows.append([ci + r * vi / nv for ci, vi in zip(cf, v)])
    mid = [(as_fraction(a) + as_fraction(b)) / 2 for a, b in zip(*g.centers[:2])]
    return rows + [mid, [Fraction(5), Fraction(-5)],
                   [Fraction(-3), Fraction(2, 5)], [Fraction(2 ** 1024), Fraction(0)],
                   [Fraction(3, 40), Fraction(2 ** 1100)]]


@pytest.mark.parametrize("space", [
    lp_space(2, 1), lp_space(2, "inf"),
    NormedSpace(2, {"kind": "weighted-lp", "p": 1, "weights": [2.0, 0.3]}),
    NormedSpace(2, {"kind": "polyhedral", "vertices": HEXAGON}),
], ids=["l1", "linf", "weighted-l1", "hexagon"])
def test_surgery_rows_match_the_per_row_reference(space, monkeypatch):
    # a batch through eval_exact_rows gives each row the value of eval_exact
    # and of the every-center reference, on a fresh node and again with its
    # center values cached; the small PAIR_BLOCK splits the float pre-pass
    # of a batch into blocks of 12 rows
    monkeypatch.setattr(spaces, "PAIR_BLOCK", 64)
    s = Fraction(1, 10)
    L = [[0.1, 0.2], [0.0, -0.3]]
    centers = np.array([[0.0, 0.0], [0.0, 0.125], [0.75, 0.0], [0.0, 0.75], [0.3, 0.45]])
    inner = LocalAffineSurgeryFn(LinearFn([[0.3, 0.1], [-0.2, 0.4]]), centers, s,
                                 s / 3, s / 7, L, space)
    nested = SumFn([inner, LinearFn([[0.5, 0.0], [0.25, -0.5]])], [0.5, 0.25])
    for f in (ZeroFn(2, 2), ConstFn([0.25, -0.5], 2), inner, nested):
        g = LocalAffineSurgeryFn(f, centers + [0.02, -0.01], s, s / 3, s / 7, L, space)
        rows = _rows_around_centers(g)
        zones = set()
        for x in rows:
            dd = [space.norm_exact([xi - as_fraction(ci) for xi, ci in zip(x, c)])
                  for c in g.centers]
            near = [d for d in dd if d < s]
            zones.add("far" if not near else "core" if near[0] <= g.alpha else
                      "ring" if near[0] <= g.beta else "annulus")
            zones.add("two centers" if len(near) > 1 else "one center or none")
        assert zones == {"far", "core", "ring", "annulus", "two centers",
                         "one center or none"}
        assert len(rows) > 2 * 12
        want = [_eval_exact_every_center(g, x) for x in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g.eval_exact_rows(rows) == want
            assert [g.eval_exact(x) for x in rows] == want
            assert g.eval_exact_rows(rows) == want


def test_surgery_float_and_exact_take_the_first_center():
    # centers 1/8 apart with s = 1/4: each point lies within s of both, in
    # the first center's outer annulus, beta-ring or alpha-core
    g = LocalAffineSurgeryFn(LinearFn([[0.5, 0.25]]), [[0.0, 0.0], [0.125, 0.0]],
                             Fraction(1, 4), Fraction(1, 8), Fraction(1, 16),
                             [[0.25, -0.5]], lp_space(2, "inf"))
    X = np.array([[0.2, 0.1], [0.1, -0.05], [0.0625, 0.03125], [0.03125, 0.0]])
    exact = [float(g.eval_exact([Fraction(v) for v in x])[0]) for x in X]
    assert g.eval(X)[:, 0] == pytest.approx(exact, rel=0, abs=1e-15)


def test_surgery_on_l2_refuses_exact_evaluation():
    g = _surgery(lp_space(2, 2), Fraction(1, 10))
    with pytest.raises(ExactEvalUnsupported):
        g.eval_exact([Fraction(40), Fraction(-40)])


def test_game_certificate_takes_one_exact_norm_per_surgery_evaluation(monkeypatch):
    # the float pre-pass leaves at most one center to test exactly for each
    # row of a batch, as the centers are 4s-separated; dropping it would
    # test them all
    dom = lp_space(2, "inf")
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    T = LinOp.build(np.array([[0.4, 0.0], [0.0, -0.3]]), dom, dom)
    t = run_bm_game(gen_four_corner(1), Q, T, IdentityPolicy(dom, dom, Q, seed=1), 2)
    claim_code = LocalAffineSurgeryFn._claim.__code__
    claim, norm_exact = LocalAffineSurgeryFn._claim, NormedSpace.norm_exact
    per_row = []  # exact norms taken by each row's exact test

    def counted_claim(self, x, near):
        per_row.append(0)
        return claim(self, x, near)

    def counted_norm(self, x):
        if sys._getframe(1).f_code is claim_code:
            per_row[-1] += 1
        return norm_exact(self, x)

    monkeypatch.setattr(LocalAffineSurgeryFn, "_claim", counted_claim)
    monkeypatch.setattr(NormedSpace, "norm_exact", counted_norm)
    certify_transcript(t, dirs=4, seed=0)
    assert len(per_row) > 100
    assert max(per_row) == 1
