from fractions import Fraction

import numpy as np
import pytest

from lipforge.errors import GeometryError, NormError
from lipforge.fn import ZeroFn, as_fraction
from lipforge.prescribe import (build_net, prescribe_derivative,
                                prescription_params, region_diameter)
from lipforge.regions import box_region, gen_four_corner
from lipforge.spaces import LinOp, lp_space
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


def test_region_diameter(l2_2):
    Q = box_region([0.0, 0.0], [3.0, 4.0])
    assert region_diameter(Q, l2_2) == pytest.approx(5.0)
