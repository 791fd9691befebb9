from fractions import Fraction

import numpy as np
import pytest

from lipforge.errors import DomainError
from lipforge.fn import (ConstFn, DistFn, GridFn2D, LinearFn, LipFn, PlateauFn,
                         RadialBumpFn, SumFn, VecScaleFn, ZeroFn)
from lipforge import verify
from lipforge.game import POLICIES, _exact_unit_dirs, run_bm_game
from lipforge.regions import box_region, gen_four_corner
from lipforge.smooth import MollifierSpec, mollify
from lipforge.spaces import LinOp, NormedSpace, lp_space
from lipforge.verify import (c1_check, dini_check, dyadic_radius,
                             exact_increment_residuals, fd_jacobian, lip_estimate,
                             scan_derivative_set)


def test_scan_linear_zero_error(l2_2):
    M = np.array([[0.3, -0.1], [0.2, 0.4]])
    f = LinearFn(M)
    T = LinOp.build(M, l2_2, l2_2)
    rep = scan_derivative_set(f, [0.2, 0.3], [T], [0.5, 0.25, 0.125])
    assert float(np.max(rep.errors)) <= 1e-12
    assert rep.verdict(0)


def test_scan_negative_norm_rejects_all_linear(l2_2):
    # f(x) = -||x||: no linear map fits at any scale at the origin
    f = SumFn([DistFn(l2_2, np.zeros(2))], [-1.0])
    cands = [LinOp.build(M, l2_2, lp_space(1, 2))
             for M in (np.zeros((1, 2)), np.array([[1.0, 0.0]]),
                       np.array([[-1.0, 0.0]]), np.array([[0.0, 0.6]]))]
    rep = scan_derivative_set(f, [0.0, 0.0], cands, [0.5, 0.25, 0.125, 0.0625])
    for a in range(len(cands)):
        assert not rep.verdict(a)


def test_scan_triangle_bound_between_operators(l2_2, rng):
    f = SumFn([DistFn(l2_2, np.zeros(2))], [-1.0])
    cod = lp_space(1, 2)
    M1 = rng.normal(size=(1, 2)) * 0.3
    M2 = M1 + rng.normal(size=(1, 2)) * 0.05
    T1, T2 = (LinOp.build(M, l2_2, cod) for M in (M1, M2))
    rep = scan_derivative_set(f, [0.3, 0.1], [T1, T2], [0.1, 0.05], seed=3)
    gap = float(np.max(np.abs(rep.errors[0] - rep.errors[1])))
    assert gap <= T2.opnorm_ub + 1e-9 or gap <= LinOp.build(
        M1 - M2, l2_2, cod).opnorm_ub + 1e-9


def test_scan_domain_guard(l2_2):
    f = LinearFn(np.eye(2))
    T = LinOp.build(np.eye(2), l2_2, l2_2)
    Q = box_region([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        scan_derivative_set(f, [0.9, 0.5], [T], [0.5], Q=Q)


def test_lip_estimate_scaled_identity(l2_2):
    f = LinearFn(0.7 * np.eye(2))
    Q = box_region([-1, -1], [1, 1])
    est, wit = lip_estimate(f, Q, pairs=2000, seed=0, dom=l2_2, cod=l2_2)
    assert est == pytest.approx(0.7, rel=1e-9)
    x, y = wit
    fx, fy = f(x), f(y)
    assert float(np.linalg.norm(fx - fy)) == pytest.approx(
        0.7 * float(np.linalg.norm(x - y)), rel=1e-9)


def test_exact_residuals_match_the_per_direction_formula(monkeypatch):
    # every point and radius in one call, in blocks of EXACT_ROWS points:
    # blocks of 3 (one direction at every point and radius) and of 1024 give
    # the residuals of one f(x + rho u) per point and direction, for a
    # codomain with an exact norm and one without
    dom = lp_space(2, "inf")
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    T = LinOp.build(np.array([[0.4, 0.0], [0.0, -0.3]]), dom, dom)
    t = run_bm_game(gen_four_corner(1), Q, T, POLICIES["spoiler"](dom, dom, Q, seed=1), 2)
    g, rd = t.limit, t.rounds[0]
    ops = [T, LinOp.build(T.matrix, dom, lp_space(2, 2))]
    # two net points, then a point off the net with larger residuals
    X = [[Fraction(float(v)) for v in x] for x in list(rd.gamma[:2]) + [(0.5, 0.5)]]
    U = _exact_unit_dirs(dom, 2, 9, 0)
    rhos, divisors = (rd.alpha, rd.alpha / 2, rd.alpha / 8), (rd.alpha, rd.alpha, rd.alpha / 8)
    want = []
    for rho, dv in zip(rhos, divisors):
        per_op = []
        for T_ in ops:
            worst = Fraction(0)
            for x in X:
                gx = g.eval_exact(x)
                for u in U:
                    y = [rho * ui for ui in u]
                    gy = g.eval_exact([xi + yi for xi, yi in zip(x, y)])
                    r = [(gy[i] - gx[i] - sum(Fraction(float(m)) * yi for m, yi in zip(row, y))) / dv
                         for i, row in enumerate(T_.matrix)]
                    worst = max(worst, T_.cod.norm_exact(r) if T_.cod.exact_capable else
                                Fraction(float(T_.cod.norm(np.array([float(v) for v in r])))))
            per_op.append(worst)
        want.append(per_op)
    assert max(want[0]) > 0
    assert exact_increment_residuals(g, X, ops, U, rhos, divisors) == want
    monkeypatch.setattr(verify, "EXACT_ROWS", 3)
    assert exact_increment_residuals(g, X, ops, U, rhos, divisors) == want


def test_dini_linear_flag_false():
    f = LinearFn(np.array([[0.5, 0.0]]))
    rep = dini_check(f, [0.2, 0.1], [1.0, 0.0], [2.0 ** -k for k in range(1, 12)])
    assert rep.lower_plus == pytest.approx(0.5, abs=1e-9)
    assert not rep.empty_flag


def test_dini_negative_norm_flag_true(l2_2):
    f = SumFn([DistFn(l2_2, np.zeros(2))], [-1.0])
    rep = dini_check(f, [0.0, 0.0], [1.0, 0.0], [2.0 ** -k for k in range(1, 20)])
    assert rep.lower_plus == pytest.approx(-1.0, abs=1e-9)
    assert rep.lower_minus == pytest.approx(-1.0, abs=1e-9)
    assert rep.empty_flag


class Poly(LinearFn):
    """f(x, y) = (x^2 + y, x y), with an analytic Jacobian oracle."""

    def __init__(self):
        super().__init__(np.zeros((2, 2)))

    def eval(self, X):
        return np.stack([X[:, 0] ** 2 + X[:, 1], X[:, 0] * X[:, 1]], axis=1)


def test_fd_jacobian_polynomial():
    f = Poly()
    x = np.array([0.4, -0.3])
    J = fd_jacobian(f, x, 1e-5)
    want = np.array([[2 * x[0], 1.0], [x[1], x[0]]])
    assert np.allclose(J, want, atol=1e-8)


def test_fd_jacobian_batch_equals_single_points():
    rng = np.random.default_rng(5)
    grid = GridFn2D([-1.0, -1.0], 0.1, rng.uniform(-1, 1, (21, 21)))
    plateau = PlateauFn([-1.0, -1.0], [1.0, 1.0], [-0.5, -0.5], [0.5, 0.5])
    composite = VecScaleFn(plateau, SumFn([grid, ConstFn([-0.25], 2)]))
    X = rng.uniform(-1.2, 1.2, (40, 2))
    for f in (Poly(), composite):
        J = fd_jacobian(f, X, 1e-3)
        assert J.shape == (len(X), f.l, 2)
        assert np.array_equal(J, np.stack([fd_jacobian(f, x, 1e-3) for x in X]))


def _loop_radius(g, pts, dirs, exps, linear, too_far):
    """dyadic_radius one point, direction and fraction at a time."""
    for e in exps:
        delta = 2.0 ** -e
        if not any(too_far(g(x + rho * u) - g(x) - linear(i, rho * u), rho * u, rho)
                   for i, x in enumerate(pts) for u in dirs
                   for rho in (delta, delta / 2.0, delta / 4.0)):
            return delta
    return None


def _both_rules(g, pts, dirs, theta, T):
    """(uniform-differentiability radius, slope radius), each checked
    against the point loop."""
    exps = range(1, 16)
    J = fd_jacobian(g, pts, 1e-5)
    got = dyadic_radius(
        g, pts, dirs, exps, lambda Y: Y @ J.transpose(0, 2, 1),
        lambda r, Y, rho: (np.max(np.abs(r), axis=2)
                           > theta / 2.0 * np.max(np.abs(Y), axis=1) + 1e-12))
    want = _loop_radius(
        g, pts, dirs, exps, lambda i, y: J[i] @ y,
        lambda r, y, rho: np.max(np.abs(r)) > theta / 2.0 * np.max(np.abs(y)) + 1e-12)
    assert got == want
    l = T.cod.dim
    got_slope = dyadic_radius(
        g, pts, dirs, exps, lambda Y: Y @ T.matrix.T,
        lambda r, Y, rho: (T.cod.norm(r.reshape(-1, l)).reshape(r.shape[:2])
                           > theta / 2.0 * rho))
    want = _loop_radius(g, pts, dirs, exps, lambda i, y: T.matrix @ y,
                        lambda r, y, rho: T.cod.norm(r) > theta / 2.0 * rho)
    assert got_slope == want
    return got, got_slope


def test_dyadic_radius_matches_point_loop(l2_2):
    rng = np.random.default_rng(11)
    hexagon = NormedSpace(2, {"kind": "polyhedral", "vertices": [
        [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [-0.5, np.sqrt(3.0) / 2.0]]})
    grid = GridFn2D([-1.0, -1.0], 0.05, rng.uniform(-0.2, 0.2, (41, 41)))
    smooth = SumFn([Poly(), LinearFn(rng.uniform(-1, 1, (2, 2)))])
    rough = SumFn([Poly(), VecScaleFn(grid, ConstFn([1.0, -0.5], 2))])
    found = set()
    for k in range(12):
        pts = rng.uniform(-0.5, 0.5, (int(rng.integers(1, 6)), 2))
        dirs = rng.normal(size=(int(rng.integers(1, 9)), 2))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        T = LinOp.build(rng.uniform(-1, 1, (2, 2)), hexagon, (hexagon, l2_2)[k % 2])
        found.update(_both_rules((smooth, rough)[k % 2], pts, dirs,
                                 float(rng.uniform(0.05, 2.0)), T))
    assert len(found) > 3
    # a bump 1/8 away along e1: from delta = 1/2 only the fraction delta/4
    # reaches it, from 1/4 only delta/2, so the radius is 1/16
    bump = RadialBumpFn([0.125, 0.0], 0.02)
    T = LinOp.build(np.zeros((1, 2)), hexagon, lp_space(1, 2))
    assert _both_rules(bump, np.zeros((1, 2)), np.eye(2), 0.5, T) == (2.0 ** -4,) * 2


def test_c1_check_passes_smooth_fails_kink(l2_2):
    lin = LinearFn(np.array([[0.2, -0.1]]))
    ok, worst, _ = c1_check(lin, [[0.0, 0.0], [0.3, 0.2]])
    assert ok and worst <= 1e-8
    kink = DistFn(l2_2, np.zeros(2))
    ok2, worst2, pt = c1_check(kink, [[0.0, 0.0]])
    assert not ok2


def _c1_check_per_point(f, pts, steps=(1e-3, 5e-4), rich_tol=0.15):
    """c1_check as a loop over the points, five evaluations each: the
    oracle for the batched check on maps without NaN."""
    h1, h2 = float(steps[0]), float(steps[1])
    worst = 0.0
    worst_pt = None
    for x in np.atleast_2d(np.asarray(pts, dtype=float)):
        J1 = fd_jacobian(f, x, h1)
        J2 = fd_jacobian(f, x, h2)
        scale = max(1.0, float(np.max(np.abs(J2))))
        rel = float(np.max(np.abs(J1 - J2))) / scale
        f0 = f(x)
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = h1
            model = float(np.max(np.abs(f(x + e) - f0 - h1 * J2[:, i]))) / h1
            rel = max(rel, model / scale)
        if rel > worst:
            worst, worst_pt = rel, x
    return worst <= rich_tol, worst, worst_pt


def test_c1_check_matches_per_point_loop(l1_2, l2_2, linf_2):
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.uniform(-1, 1, (12, 2)), np.zeros((1, 2)),
                     # mirror images: the same residual, the first one is kept
                     [[0.3, 0.3], [-0.3, 0.3]]])
    maps = [LinearFn([[0.2, -0.1], [0.7, 1.0 / 3.0]]), ZeroFn(2, 1),
            DistFn(l2_2, np.zeros(2)), DistFn(linf_2, np.zeros(2)),
            mollify(DistFn(l1_2, [0.1, 0.0]), MollifierSpec(0.1, 2, order=12)),
            PlateauFn([-1, -1], [1, 1], [-0.5, -0.5], [0.5, 0.5])]
    for f in maps:
        for steps in ((1e-3, 5e-4), (1e-5, 5e-6)):
            want = _c1_check_per_point(f, pts, steps)
            got = c1_check(f, pts, steps)
            assert got[:2] == want[:2], f.tag
            assert (got[2] is None) == (want[2] is None), f.tag
            if want[2] is not None:
                assert np.array_equal(got[2], want[2]), f.tag
    assert c1_check(ZeroFn(2, 1), pts) == (True, 0.0, None)
    _, _, pt = c1_check(DistFn(linf_2, np.zeros(2)), pts[-2:])
    assert np.array_equal(pt, [0.3, 0.3])
    assert c1_check(ZeroFn(2, 1), np.zeros((0, 2))) == (True, 0.0, None)


class _NanRightOf(LipFn):
    """x_1 on x_1 <= cut, NaN to its right."""

    def __init__(self, cut):
        super().__init__(2, 1)
        self.cut = cut

    def eval(self, X):
        return np.where(X[:, :1] <= self.cut, X[:, :1], np.nan)


def test_c1_check_fails_a_nan_map(l2_2):
    # a NaN residual used to compare false with the worst so far and pass
    passed, worst, pt = c1_check(_NanRightOf(-1.0), [[0.1, 0.2], [0.3, 0.4]])
    assert not passed and np.isnan(worst)
    assert np.array_equal(pt, [0.1, 0.2])
    # NaN at the second point only: it is the worst, ahead of a kink
    kinked = SumFn([_NanRightOf(0.25), DistFn(l2_2, np.zeros(2))])
    passed, worst, pt = c1_check(kinked, [[0.0, 0.0], [0.3, 0.4]])
    assert not passed and np.isnan(worst)
    assert np.array_equal(pt, [0.3, 0.4])


def test_c1_check_mollified_kink(l1_2, l2_2):
    kink = DistFn(l2_2, np.zeros(2))
    sm = mollify(kink, MollifierSpec(0.1, 2, order=12))
    pts = np.random.default_rng(0).uniform(-1, 1, (15, 2))
    ok, worst, _ = c1_check(sm, pts, steps=(1e-3, 5e-4))
    assert ok, worst
