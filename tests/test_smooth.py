import hashlib

import numpy as np
import pytest

from lipforge.errors import BudgetError, CoverError, PremiseError
from lipforge.fn import ConstFn, DistFn, LinearFn, LipFn, ZeroFn
from lipforge.regions import box_region, gen_four_corner
from lipforge.smooth import (MollifierSpec, build_pou, c1_replace,
                             compact_selection, mollify, sla_assemble,
                             smooth_around, uniform_diff_radius)
from lipforge.spaces import LinOp, lp_space
from lipforge.verify import c1_check, fd_jacobian, lip_estimate


# (order, dim), sha256 prefixes of the float.hex of every node and weight,
# and float.hex of quad_mass_defect, for eps = 0.3
MOLLIFIER_PINS = [
    ((2, 1), "72510399f19a48b1", "19210efe34eaa7fe", "0x1.928ff9795ff04p-6"),
    ((9, 1), "c2539a1be9327806", "0215b2febac05ced", "0x1.0725c0f948edcp-11"),
    ((16, 1), "a18adebcded3f8a2", "eaea3c4e32422ff5", "0x1.5cf7db51e94f4p-17"),
    ((8, 2), "194a29f2cdda687c", "78b9ad7f2fbc1999", "0x1.452542f70cdb7p-9"),
    ((12, 2), "457957826609c556", "e2aa7814bb544306", "0x1.1c45052c10e9cp-11"),
    ((16, 2), "8c18fc2456ed4878", "1718ac37f109ff8c", "0x1.0d0d45df2fe2cp-14"),
    ((5, 3), "12a698d52ed41463", "bb616dc2613a5665", "0x1.41c46a43927f6p-11"),
]


def _hex_digest(a):
    text = ",".join(float.hex(float(v)) for v in np.ravel(a))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("order_dim, nodes, weights, defect", MOLLIFIER_PINS)
def test_mollifier_rule_bits_pinned(order_dim, nodes, weights, defect):
    order, dim = order_dim
    spec = MollifierSpec(0.3, dim, order=order)
    assert _hex_digest(spec.nodes) == nodes
    assert _hex_digest(spec.weights) == weights
    assert float.hex(spec.quad_mass_defect) == defect


def test_mollify_preserves_affine(rng):
    spec = MollifierSpec(0.2, 2, order=8)
    M = np.array([[0.3, -0.2]])
    for f, want in ((ConstFn([0.7], 2), lambda X: np.full((len(X), 1), 0.7)),
                    (LinearFn(M), lambda X: X @ M.T)):
        g = mollify(f, spec)
        X = rng.uniform(-1, 1, (200, 2))
        assert np.allclose(g.eval(X), want(X), atol=1e-12)


def test_mollify_kink_value_and_derivative(l2_2):
    f = DistFn(l2_2, np.zeros(2))
    g = mollify(f, MollifierSpec(0.1, 2, order=12))
    # value deviation at the kink is at most the kernel radius
    assert 0.0 < float(g(np.zeros(2))[0]) <= 0.1
    J = fd_jacobian(g, np.zeros(2), 1e-6)
    assert float(np.max(np.abs(J))) < 1e-6  # symmetric average kills the slope
    ok, worst, _ = c1_check(g, None, np.random.default_rng(1).uniform(-1, 1, (10, 2)))
    assert ok, worst


def test_mollify_lipschitz_not_increased(l2_2, rng):
    f = DistFn(l2_2, np.array([0.3, -0.2]))
    g = mollify(f, MollifierSpec(0.15, 2, order=8))
    Q = box_region([-1, -1], [1, 1])
    est, _ = lip_estimate(g, Q, pairs=4000, seed=0, dom=l2_2, cod=lp_space(1, 2))
    assert est <= 1.0 + 1e-9


def test_build_pou_sums_to_one(rng):
    cover = [box_region([-1.0, -1.0], [0.5, 1.5], open_=True),
             box_region([-0.5, -1.5], [1.5, 1.0], open_=True),
             box_region([-1.5, -0.5], [1.0, 1.0], open_=True)]
    V = box_region([-0.6, -0.6], [0.6, 0.6])
    pou = build_pou(cover, V)
    X = rng.uniform(-0.6, 0.6, (500, 2))
    s = pou.sum_at(X)
    assert np.allclose(s, 1.0, atol=1e-9)
    assert pou.M >= 1


def test_build_pou_cover_error():
    cover = [box_region([5.0, 5.0], [6.0, 6.0], open_=True)]
    V = box_region([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(CoverError):
        build_pou(cover, V)


def test_compact_selection_flattens_tail(rng):
    E = box_region([-0.2, -0.2], [0.2, 0.2])
    cover = [box_region([-1.0, -1.0], [1.0, 1.0], open_=True),
             box_region([-0.8, -0.9], [0.9, 0.8], open_=True),
             box_region([-0.3, -0.3], [0.9, 0.9], open_=True)]
    V = box_region([-0.95, -0.95], [0.95, 0.95])
    pou, K, U = compact_selection(cover, V, E)
    X = rng.uniform(-0.25, 0.25, (200, 2))
    inside = U.contains(X)
    assert inside.all()
    for phi in pou.phis[K:]:
        assert float(np.max(np.abs(phi.eval(X)))) == 0.0
    assert np.allclose(pou.sum_at(X), 1.0, atol=1e-9)


def test_sla_identity_when_pieces_equal(rng):
    h = LinearFn(np.array([[0.4, 0.0], [0.0, 0.4]]))
    cover = [box_region([-1.0, -1.0], [1.0, 1.0], open_=True),
             box_region([-0.9, -0.8], [0.8, 0.9], open_=True)]
    V = box_region([-0.7, -0.7], [0.7, 0.7])
    pou = build_pou(cover, V)
    U = box_region([-0.7, -0.7], [0.7, 0.7], open_=True)
    tilde = sla_assemble(h, U, pou, [h, h], [0.1, 0.1], theta=10.0)
    X = rng.uniform(-1.2, 1.2, (400, 2))
    assert np.allclose(tilde.eval(X), h.eval(X), atol=1e-12)


def test_sla_premise_error(rng):
    h = ZeroFn(2, 1)
    far = ConstFn([5.0], 2)
    cover = [box_region([-1.0, -1.0], [1.0, 1.0], open_=True)]
    V = box_region([-0.7, -0.7], [0.7, 0.7])
    pou = build_pou(cover, V)
    U = box_region([-0.7, -0.7], [0.7, 0.7], open_=True)
    with pytest.raises(PremiseError):
        sla_assemble(h, U, pou, [far], [0.1], theta=10.0)


def test_sla_lip_bound(rng, linf_2):
    # Lip(h~) <= max(Lip h, theta + sup_k Lip h_k) on sampled pairs
    h = LinearFn(np.array([[0.5, 0.0]]))
    hk = LinearFn(np.array([[0.5, 0.02]]))
    cover = [box_region([-1.0, -1.0], [1.0, 1.0], open_=True),
             box_region([-0.9, -0.8], [0.8, 0.9], open_=True)]
    V = box_region([-0.7, -0.7], [0.7, 0.7])
    pou = build_pou(cover, V)
    U = box_region([-0.7, -0.7], [0.7, 0.7], open_=True)
    theta = 2.0
    tilde = sla_assemble(h, U, pou, [hk, hk], [0.05, 0.05], theta=theta)
    # the bound is interior to U: pairs must not straddle its boundary
    Q = box_region([-0.69, -0.69], [0.69, 0.69])
    est, _ = lip_estimate(tilde, Q, pairs=20000, seed=4)
    sup_lip = float(np.linalg.norm([0.5, 0.02], 1))  # linf domain metric
    assert est <= max(0.5, theta + sup_lip) + 1e-6


def test_c1_replace_zero_multiplier_returns_input(l2_2):
    g = LinearFn(np.array([[0.2, 0.1]]))
    V = box_region([-1, -1], [1, 1])
    T = LinOp.build(np.array([[0.5, 0.0]]), l2_2, lp_space(1, 2))
    out = c1_replace(g, V, None, T, 0.0, 0.1)
    assert out is g


def test_smooth_around_certificates(l2_2, rng):
    E = box_region([0.4, 0.4], [0.6, 0.6])
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    f = DistFn(l2_2, np.array([0.5, 0.5]))
    eps = 0.1
    g = smooth_around(E, Q, f, eps, seed=0)
    X = rng.uniform(-1, 2, (20000, 2))
    assert float(np.max(np.abs(g.eval(X) - f.eval(X)))) <= eps + 1e-12
    bb = g.smooth_region.bbox()
    pts = rng.uniform(bb[0], bb[1], (60, 2))
    pts = pts[g.smooth_region.contains(pts)][:20]
    ok, worst, _ = c1_check(g, g.smooth_region, pts, steps=(1e-3, 5e-4))
    assert ok, worst
    est, _ = lip_estimate(g, Q, pairs=8000, seed=1, dom=l2_2, cod=lp_space(1, 2))
    assert est <= f.lip_bound + eps + 1e-6


def test_uniform_diff_radius_quadratic_closed_form():
    # g(x) = x1^2 near x = 1/2 with theta = 0.1: largest dyadic radius 2^-5
    class Quad(LipFn):
        tag = None

        def __init__(self):
            super().__init__(2, 1)
            self.lip_bound = 2.0

        def eval(self, X):
            return (X[:, 0] ** 2).reshape(-1, 1)

    E = box_region([0.5, 0.5], [0.5, 0.5])
    delta = uniform_diff_radius(Quad(), E, 0.1)
    assert delta == pytest.approx(2.0 ** -5)


def test_uniform_diff_radius_linear_hits_cap():
    g = LinearFn(np.array([[0.3, 0.2]]))
    E = box_region([0.0, 0.0], [0.0, 0.0])
    delta = uniform_diff_radius(g, E, 0.1)
    assert delta == pytest.approx(2.0 ** -4)  # largest dyadic below 0.1
