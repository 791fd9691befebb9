import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lipforge.errors import DescriptorError, InputError
from lipforge.fn import BlendFn, ConstFn, DistFn, LinearFn, VecScaleFn
from lipforge.spaces import (PAIR_BLOCK, Functional, LinOp, NormedSpace,
                             OperatorFamily, cyl_constant, dense_ball_sequence,
                             lp_space, op_norm, op_norm_upper)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
vec2 = st.tuples(finite, finite).map(np.array)


def test_lp_norms_match_numpy_oracle(rng):
    X = rng.normal(size=(50, 3))
    for p, ord_ in ((1, 1), (2, 2), ("inf", np.inf)):
        sp = lp_space(3, p)
        want = np.linalg.norm(X, ord=ord_, axis=1)
        assert np.allclose(np.asarray(sp.norm(X)), want, rtol=0, atol=1e-12)


def test_weighted_norm(rng):
    # weighted lp: (sum_i w_i |x_i|^p)^(1/p)
    sp = NormedSpace(2, {"kind": "weighted-lp", "p": 2, "weights": [2.0, 0.5]})
    x = np.array([[1.0, 2.0]])
    want = np.sqrt(2.0 * 1.0 ** 2 + 0.5 * 2.0 ** 2)
    assert np.isclose(float(sp.norm(x)[0]), want)


def test_polyhedral_square_equals_linf(rng):
    verts = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    sp = NormedSpace(2, {"kind": "polyhedral", "vertices": verts})
    X = rng.normal(size=(40, 2))
    want = np.max(np.abs(X), axis=1)
    assert np.allclose(np.asarray(sp.norm(X)), want, atol=1e-9)


def test_exact_evaluators_match_float(rng):
    hexagon = [[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [-0.5, np.sqrt(3.0) / 2.0]]
    spaces = [
        lp_space(2, 1), lp_space(2, "inf"),
        NormedSpace(2, {"kind": "weighted-lp", "p": 1, "weights": [2.0, 0.5]}),
        NormedSpace(2, {"kind": "weighted-lp", "p": "inf", "weights": [2.0, 0.5]}),
        NormedSpace(2, {"kind": "polyhedral", "vertices": hexagon}),
    ]
    X = rng.uniform(-2.0, 2.0, (60, 2))
    Xf = [[Fraction(float(v)) for v in x] for x in X]
    for sp in spaces:
        assert sp.exact_capable, sp
        exact = np.array([float(sp.norm_exact(x)) for x in Xf])
        assert np.max(np.abs(exact - sp.norm(X))) <= 1e-12, sp
        # the attaining direction is a unit vector that no sampled one beats
        units = X / sp.norm(X)[:, None]
        for c in rng.normal(size=(5, 2)):
            P = Functional(c, sp)
            assert float(sp.norm(P.attain_dir)) == pytest.approx(1.0, abs=1e-12)
            assert float(P(P.attain_dir)) == pytest.approx(P.dual_norm, abs=1e-12)
            assert np.max(units @ c) <= P.dual_norm + 1e-12
        # the nodes that read the norm, on every branch of the blend
        dist = DistFn(sp, [0.3, -0.2])
        blend = BlendFn(0.5, 1.5, LinearFn([[0.4, -0.3]]), dist, sp)
        scaled = VecScaleFn(dist, ConstFn([1.0, -0.5], 2))
        n = sp.norm(X)
        assert (n <= 0.5).any() and (n >= 1.5).any() and ((n > 0.5) & (n < 1.5)).any()
        for f in (dist, blend, scaled):
            got = np.array([[float(v) for v in f.eval_exact(x)] for x in Xf])
            assert np.max(np.abs(got - f.eval(X))) <= 1e-12, (sp, f.tag)


def test_polyhedral_norm_is_row_independent(rng):
    # a point's norm must not depend on the batch it is evaluated in
    hexagon = [[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [-0.5, np.sqrt(3.0) / 2.0]]
    cases = [
        NormedSpace(2, {"kind": "polyhedral", "vertices": hexagon}),
        NormedSpace(2, {"kind": "polyhedral", "functionals": rng.normal(size=(7, 2))}),
        NormedSpace(3, {"kind": "polyhedral", "vertices": rng.normal(size=(9, 3))}),
    ]
    for sp in cases:
        X = rng.normal(size=(1000, sp.dim)) * 10.0 ** rng.uniform(-3, 3, (1000, 1))
        batched = sp.norm(X)
        assert np.array_equal(batched, [sp.norm(x) for x in X])
        assert np.array_equal(batched[5:12], sp.norm(X[5:12]))


@pytest.mark.parametrize("space", [
    lp_space(2, 1), lp_space(2, 1.5), lp_space(2, 2), lp_space(2, "inf"),
    NormedSpace(2, {"kind": "weighted-lp", "p": 2, "weights": [2.0, 0.5]}),
    NormedSpace(2, {"kind": "polyhedral",
                    "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]}),
    NormedSpace(2, {"kind": "polyhedral", "vertices": [
        [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [-0.5, np.sqrt(3.0) / 2.0]]}),
], ids=["l1", "l1.5", "l2", "linf", "weighted-l2", "square", "hexagon"])
def test_dists_has_the_bits_of_each_pair_norm(space):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 2)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
    C = rng.normal(size=(7, 2))
    want = np.array([[space.norm(x - c) for c in C] for x in X])
    assert np.array_equal(space.dists(X, C).view(np.int64), want.view(np.int64))
    # past one block of pairs: the blocks join with the same bits
    Y = rng.normal(size=(3 * PAIR_BLOCK // len(C), 2))
    cols = np.stack([space.norm(Y - c) for c in C], axis=1)
    assert np.array_equal(space.dists(Y, C).view(np.int64), cols.view(np.int64))
    for n, m in ((0, 7), (40, 0), (0, 0)):
        assert space.dists(X[:n], C[:m]).shape == (n, m)
    with pytest.raises(InputError):
        space.dists(X, np.zeros((3, 1)))


def test_bad_descriptor_rejected():
    with pytest.raises(DescriptorError):
        NormedSpace(2, {"kind": "nonsense"})
    for flat in ([[0.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]):  # the hull has no interior
        with pytest.raises(DescriptorError):
            NormedSpace(2, {"kind": "polyhedral", "vertices": flat})


@settings(max_examples=25, deadline=None)
@given(x=vec2, y=vec2)
def test_triangle_inequality(x, y):
    for p in (1, 2, "inf"):
        sp = lp_space(2, p)
        nx = float(sp.norm(x))
        ny = float(sp.norm(y))
        nxy = float(sp.norm(x + y))
        assert nxy <= nx + ny + 1e-9 * (1 + nx + ny)


@settings(max_examples=25, deadline=None)
@given(x=vec2, c=st.floats(-100, 100, allow_nan=False))
def test_homogeneity(x, c):
    for p in (1, 2, "inf"):
        sp = lp_space(2, p)
        lhs = float(sp.norm(c * x))
        rhs = abs(c) * float(sp.norm(x))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_dual_norm_analytic():
    # dual of lp is lq with 1/p + 1/q = 1
    c = np.array([3.0, -4.0])
    cases = ((1, np.inf), (2, 2), ("inf", 1))
    for p, q in cases:
        f = Functional(c, lp_space(2, p))
        assert f.dual_norm == pytest.approx(np.linalg.norm(c, ord=q), rel=1e-9)


def test_attain_dir_attains(rng):
    # tiny functionals are not zero, and huge or tiny ones leave the power
    # sum's float range: each still gets its dual norm and a unit direction
    for p, q in ((1, np.inf), (1.5, 3.0), (2, 2.0), (3, 1.5), ("inf", 1.0)):
        sp = lp_space(2, p)
        for scale in (1.0, 1e-9, 1e200, 1e-200):
            c = rng.normal(size=2) * scale
            f = Functional(c, sp)
            v = np.asarray(f.attain_dir, dtype=float)
            assert float(sp.norm(v)) == pytest.approx(1.0, abs=1e-9)
            assert float(c @ v) == pytest.approx(f.dual_norm, rel=1e-9)
            assert f.dual_norm == pytest.approx(scale * np.linalg.norm(c / scale, q),
                                                rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(x=vec2)
def test_dual_inequality(x):
    c = np.array([0.7, -1.3])
    for p in (1, 2, "inf"):
        sp = lp_space(2, p)
        f = Functional(c, sp)
        assert abs(float(c @ x)) <= f.dual_norm * float(sp.norm(x)) + 1e-6


def test_linop_bounds_bracket_svd_oracle(rng):
    sp = lp_space(3, 2)
    for _ in range(5):
        M = rng.normal(size=(3, 3))
        true = np.linalg.svd(M, compute_uv=False)[0]
        T = LinOp.build(M, sp, sp)
        assert T.opnorm_lb <= true + 1e-9
        assert T.opnorm_ub >= true - 1e-9
        assert T.opnorm_ub - T.opnorm_lb <= 1e-6 * max(1.0, true)


def test_linop_scaled(rng):
    sp = lp_space(2, 2)
    T = LinOp.build(rng.normal(size=(2, 2)), sp, sp)
    S = T.scaled(0.5)
    assert np.allclose(S.matrix, 0.5 * T.matrix)
    assert S.opnorm_ub == pytest.approx(0.5 * T.opnorm_ub, rel=1e-9)


def test_cyl_identity_l2_is_one():
    sp = lp_space(2, 2)
    T = LinOp.build(np.eye(2), sp, sp)
    assert cyl_constant(T) == pytest.approx(1.0, abs=1e-6)


def test_cyl_at_least_norm(rng):
    for _ in range(5):
        dom = lp_space(2, rng.choice([1, 2]))
        cod = lp_space(2, 2)
        T = LinOp.build(rng.normal(size=(2, 2)) * 0.5, dom, cod)
        assert cyl_constant(T) >= T.opnorm_lb - 1e-9


def test_cyl_basis_reconstructs(rng):
    sp = lp_space(2, 2)
    T = LinOp.build(np.array([[0.5, 0.0], [0.0, 0.0]]), sp, sp)
    _, ws, duals = cyl_constant(T, return_basis=True)
    recon = sum(np.outer(w, d @ T.matrix) for w, d in zip(ws, duals))
    assert np.allclose(recon, T.matrix, atol=1e-9)


def _rank_one_operators():
    """Twelve seeded rank-one operators between l1, l2, linf, weighted and
    hexagonal norms, ten of them 2 x 2."""
    hexagon = [[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [-0.5, np.sqrt(3.0) / 2.0]]
    two = [lp_space(2, 1), lp_space(2, 2), lp_space(2, "inf"),
           NormedSpace(2, {"kind": "weighted-lp", "p": 2, "weights": [2.0, 0.5]}),
           NormedSpace(2, {"kind": "polyhedral", "vertices": hexagon})]
    rng = np.random.default_rng(606)
    ops = [LinOp.build(np.outer(rng.normal(size=2), rng.normal(size=2)),
                       two[i % 5], two[(3 * i + 1) % 5]) for i in range(10)]
    ops.append(LinOp.build(np.outer(rng.normal(size=3), rng.normal(size=2)),
                           lp_space(2, 1), lp_space(3, "inf")))
    ops.append(LinOp.build(rng.normal(size=(1, 3)), lp_space(3, 2), lp_space(1, 2)))
    return ops


# (value, basis, duals) of each rank-one operator, as float.hex, from the
# full search over 1 + budget scored bases with step-halving refinement
RANK_ONE_CYL = [
    ('0x1.985e8b306d6edp+0',
     ('-0x1.43e35b0dff844p-3', '-0x1.f98e80e79a6e9p-1'),
     ('-0x1.43e35b0dff840p-3', '-0x1.f98e80e79a6e9p-1')),
    ('0x1.18251bd58506cp+1',
     ('-0x1.67c9a61d21f0ep-1', '-0x1.6c46972385d7bp-1'),
     ('-0x1.67c9a61d21f0ep-1', '-0x1.6c46972385d7bp-1')),
    ('0x1.704de4737cc68p+0',
     ('-0x1.ac7f995cf94d0p-2', '0x1.d1047ab862670p-1'),
     ('-0x1.ac7f995cf94d6p-2', '0x1.d1047ab862675p-1')),
    ('0x1.8c79a814b71cdp+1',
     ('-0x1.8f405499f9104p-1', '-0x1.4088d92f427bdp-1'),
     ('-0x1.8f405499f9104p-1', '-0x1.4088d92f427bdp-1')),
    ('0x1.59e82fc218d50p+0',
     ('-0x1.74158397a319ap-1', '-0x1.5fb4ddb594192p-1'),
     ('-0x1.74158397a319ap-1', '-0x1.5fb4ddb594192p-1')),
    ('0x1.5052171e1da09p-1',
     ('-0x1.db49e456dafacp-1', '0x1.7cc2c7c5d12f1p-2'),
     ('-0x1.db49e456dafa8p-1', '0x1.7cc2c7c5d12efp-2')),
    ('0x1.3678d48692e17p+0',
     ('-0x1.f416b59108fd8p-3', '0x1.f0804f8b693e8p-1'),
     ('-0x1.f416b59108fdap-3', '0x1.f0804f8b693ecp-1')),
    ('0x1.4d398c7c57d52p-2',
     ('-0x1.e4543f0cfb3acp-1', '-0x1.4c14901e7c2b3p-2'),
     ('-0x1.e4543f0cfb3b0p-1', '-0x1.4c14901e7c2b6p-2')),
    ('0x1.0fe9a28ccf940p+1',
     ('-0x1.26904457fcce0p-2', '0x1.ea5bf02c4e4a6p-1'),
     ('-0x1.26904457fccdfp-2', '0x1.ea5bf02c4e4a3p-1')),
    ('0x1.4eb105dfeee09p+1',
     ('-0x1.ea46e0fd525f4p-1', '-0x1.271c5ac6a086bp-2'),
     ('-0x1.ea46e0fd525f0p-1', '-0x1.271c5ac6a0869p-2')),
    ('0x1.c9f7c305df5a0p-2',
     ('-0x1.8e78463284c94p-2', '-0x1.590eeb2f2565ap-1', '0x1.4188c0cb0c6f2p-1'),
     ('-0x1.8e78463284c94p-2', '-0x1.590eeb2f25659p-1', '0x1.4188c0cb0c6f2p-1')),
    ('0x1.182bca630b74dp-1',
     ('-0x1.0000000000000p+0',),
     ('-0x1.0000000000000p+0',)),
]


def test_cyl_rank_one_is_the_identity_basis():
    for T, (value, basis, duals) in zip(_rank_one_operators(), RANK_ONE_CYL):
        for budget in (0, 32, 64):
            assert cyl_constant(T, budget=budget).hex() == value
            v, ws, ds = cyl_constant(T, budget=budget, return_basis=True)
            assert v.hex() == value
            assert len(ws) == len(ds) == 1
            assert tuple(float(x).hex() for x in ws[0]) == basis
            assert tuple(float(x).hex() for x in ds[0]) == duals
    sp = lp_space(2, 1)
    zero = LinOp.build(np.zeros((2, 2)), sp, sp)
    assert cyl_constant(zero, return_basis=True) == (0.0, [], [])


def test_dense_ball_sequence_contracts_and_is_deterministic():
    sp = lp_space(2, 2)
    fam = OperatorFamily([LinOp.build(np.eye(2), sp, sp),
                          LinOp.build(np.array([[0.0, 1.0], [0.0, 0.0]]), sp, sp)])
    seq1 = [dense_ball_sequence(fam, n).matrix for n in range(1, 8)]
    seq2 = [dense_ball_sequence(fam, n).matrix for n in range(1, 8)]
    for a, b in zip(seq1, seq2):
        assert np.array_equal(a, b)
    for n in range(1, 8):
        T = dense_ball_sequence(fam, n)
        assert T.opnorm_ub < 1.0


def _listed_coeffs(m, count):
    """The first count nonzero vectors of {-L..L}^m, level L = 1, 2, ...,
    each level in the order of its base-(2L + 1) digits (digit j is L - j)."""
    out = []
    level = 1
    while len(out) < count:
        vals = range(level, -level - 1, -1)
        for k in itertools.product(vals, repeat=m):
            if any(k):
                out.append((level, k))
        level += 1
    return out[:count]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_enumerate_coeffs_matches_listing(m):
    sp = lp_space(2, 2)
    fam = OperatorFamily([LinOp.build(np.eye(2) * (j + 1), sp, sp) for j in range(m)])
    listed = _listed_coeffs(m, 400)
    assert [fam.enumerate_coeffs(n) for n in range(1, 401)] == listed
    # past level 1: the first level-2 member is sum_j (2 / 2) U_j
    n = 3 ** m
    assert listed[n - 1] == (2, (2,) * m)
    R = sum((2 / 2) * u for u in fam._unit)
    expect = R / max(1.0, LinOp.build(R, sp, sp).opnorm_ub)
    assert np.array_equal(dense_ball_sequence(fam, n).matrix,
                          (1.0 - 2.0 ** -int(np.ceil(np.sqrt(n)))) * expect)
    with pytest.raises(InputError):
        fam.enumerate_coeffs(0)


def test_op_norm_diag_linf():
    sp = lp_space(2, "inf")
    lb, ub, _ = op_norm(np.diag([2.0, -3.0]), sp, sp)
    assert lb <= 3.0 + 1e-9 <= ub + 2e-9
    assert ub - lb < 1e-6


def test_thin_polyhedral_bracket_holds_its_witness():
    # a ball 2^-23 thick: its vertices lie on the evaluated unit sphere only
    # to within the rounding of its facets, about 3e-10 here
    dom = NormedSpace(3, {"kind": "polyhedral", "vertices": [
        [0.0, 0.0, 2.0 ** -23], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0]]})
    cod = lp_space(3, 1)
    T = np.array([[7.0, -7.0, 35.0], [6.0, -29.0, 20.0], [72.0, 52.0, -39.0]])
    lb, ub, w = op_norm(T, dom, cod)
    assert lb == ub == pytest.approx(cod.norm(T @ w) / dom.norm(w), rel=1e-15)
    assert op_norm_upper(T, dom, cod) == pytest.approx(ub, rel=1e-15)


@pytest.mark.parametrize("T", [[[1.0, 2.0], [3.0, 4.0]], [[0.0, 2.0], [0.0, 4.0]]])
def test_polyhedral_bracket_ignores_a_tiny_interior_generator(T):
    # 1e-310 e1 lies inside the ball; kept as a vertex, its 1 / norm scale
    # overflowed and the bracket read (inf, inf), or NaN where T e1 = 0
    dom = NormedSpace(2, {"kind": "polyhedral",
                          "vertices": [[1.0, 0.0], [0.0, 1.0], [1e-310, 0.0]]})
    cod = lp_space(2, 2)
    T = np.array(T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lb, ub, w = op_norm(T, dom, cod)
    X = np.vstack([np.random.default_rng(0).normal(size=(4000, 2)), w])
    best = float(np.max(cod.norm(X @ T.T) / dom.norm(X)))
    assert lb <= best <= ub
    assert lb == ub == pytest.approx(np.sqrt(20.0), rel=1e-15)  # at e2


@st.composite
def _hull_and_interior(draw):
    """2-d generators in strictly convex position (on an ellipse, at least
    0.2 rad apart, their negatives included) and points inside their hull,
    tiny ones among them."""
    n = draw(st.integers(2, 5))
    gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
    ang = np.cumsum(gaps)
    assume(ang[-1] - ang[0] <= np.pi - 0.2)
    scale = np.array(draw(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0))))
    verts = np.stack([np.cos(ang), np.sin(ang)], axis=1) * scale
    inner = []
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t = draw(st.sampled_from([0.0, 1e-310, 1e-300, 1e-150, 1e-3, 0.5, 0.9]))
        sign = draw(st.sampled_from([1.0, -1.0]))
        inner.append(sign * t * (verts[i] + verts[j]) / 2.0)
    return verts, np.array(inner)


@settings(max_examples=40, deadline=None)
@given(case=_hull_and_interior(), p=st.sampled_from([1, 2, "inf"]),
       seed=st.integers(0, 2 ** 16))
def test_polyhedral_bracket_unchanged_by_interior_generators(case, p, seed):
    verts, inner = case
    dom = NormedSpace(2, {"kind": "polyhedral", "vertices": verts})
    padded = NormedSpace(2, {"kind": "polyhedral",
                             "vertices": np.vstack([verts, inner])})
    assert np.array_equal(padded.unit_ball_vertices(), dom.unit_ball_vertices())
    T = np.random.default_rng(seed).normal(size=(2, 2))
    cod = lp_space(2, p)
    assert op_norm(T, padded, cod)[:2] == op_norm(T, dom, cod)[:2]


def test_linf_domain_above_vertex_cap():
    # the cube is not enumerated above 12 dimensions; B_inf lies in d B_1
    d = 13
    T = LinOp.build(np.eye(d), lp_space(d, "inf"), lp_space(d, 1))
    assert T.opnorm_ub == 13.0  # attained at the all-ones vector
    assert T.opnorm_lb <= T.opnorm_ub


def test_large_p_norm_stays_in_float_range():
    # |x|^500 overflows above 4.2 and underflows below 0.24
    sp = lp_space(2, 500)
    got = sp.norm(np.array([[5.0, 0.0], [0.2, 0.0], [0.0, 0.0], [1e-300, 0.0]]))
    assert np.array_equal(got, [5.0, 0.2, 0.0, 1e-300])


def test_l2_norm_stays_in_float_range():
    # squares overflow above about 1e154 and underflow below about 1e-154
    l2 = lp_space(2, 2)
    assert l2.norm([1e160, 0.0]) == 1e160
    T = LinOp.build(1e-170 * np.eye(2), l2, l2)
    assert 0.0 < T.opnorm_lb <= T.opnorm_ub


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(*[st.floats(-1e300, 1e300)] * 2), min_size=1, max_size=20))
def test_l2_norm_keeps_in_range_bits(rows):
    Y = np.array(rows)
    with np.errstate(over="ignore", under="ignore"):
        s = np.sum(Y * Y, axis=1)
    got = lp_space(2, 2).norm(Y)
    in_range = (s >= np.finfo(float).tiny) & (s < np.inf)
    assert np.array_equal(got[in_range], np.sqrt(s[in_range]))
    # the rescaled rows agree with an overflow-free hypotenuse
    assert got == pytest.approx(np.hypot(Y[:, 0], Y[:, 1]), rel=1e-15, abs=1e-300)


def _reduction_norm(sp, X):
    """NormedSpace.norm written with NumPy's axis reductions (np.sum / np.max),
    rescaling the rows whose power sum leaves float range."""
    if sp.kind == "polyhedral":
        return np.max((X[:, None, :] * sp._functionals).sum(axis=2), axis=1)
    Y = X if sp._weights is None else X * sp._scale_vec()
    p = sp._p
    if np.isinf(p):
        return np.max(np.abs(Y), axis=1)
    if p == 1:
        return np.sum(np.abs(Y), axis=1)

    def power_sum(Z):
        return np.sum(Z * Z if p == 2 else np.abs(Z) ** p, axis=1)

    def root(s):
        return np.sqrt(s) if p == 2 else s ** (1.0 / p)

    with np.errstate(over="ignore", under="ignore"):
        s = power_sum(Y)
        out = root(s)
        m = np.max(np.abs(Y), axis=1)
        redo = (m > 0) & (m < np.inf) & ((s < np.finfo(float).tiny) | (s == np.inf))
        out[redo] = m[redo] * root(power_sum(Y[redo] / m[redo, None]))
    return out


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_norm_bits_match_numpy_reductions(rng):
    # below 8 coordinates the norm reduces one column at a time; the bits,
    # signed zeros included, must be those of NumPy's axis reduction
    hexagon = [[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [-0.5, np.sqrt(3.0) / 2.0]]
    for d in range(1, 10):
        X = rng.normal(size=(2000, d)) * 10.0 ** rng.uniform(-3, 3, (2000, 1))
        edge = np.zeros((7, d))
        edge[1] = -0.0
        edge[2, 1:] = -0.0     # a polyhedral sum of -0.0 terms is +0.0
        edge[3, 0] = 1e200     # every power with p >= 2 overflows
        edge[4, -1] = -1e-200  # and underflows
        edge[5] = 1e-170
        edge[6] = 1e160
        X = np.vstack([X, edge])
        spaces = [lp_space(d, p) for p in (1, 1.5, 2, 3, "inf")]
        spaces += [NormedSpace(d, {"kind": "weighted-lp", "p": p,
                                   "weights": rng.uniform(0.25, 4.0, d)})
                   for p in (1, 1.5, 2, 3, "inf")]
        if d == 2:
            spaces += [NormedSpace(2, {"kind": "polyhedral", "vertices": v})
                       for v in ([[1, 1], [1, -1]], hexagon)]
        for sp in spaces:
            assert _same_bits(sp.norm(X), _reduction_norm(sp, X)), (d, sp.kind, sp._p)


@st.composite
def _spaces(draw, d):
    kind = draw(st.sampled_from(("lp", "weighted-lp", "polyhedral")))
    if kind == "polyhedral":
        verts = draw(st.lists(st.tuples(*[st.floats(-3, 3)] * d),
                              min_size=d, max_size=d + 3))
        try:
            return NormedSpace(d, {"kind": kind, "vertices": verts})
        except DescriptorError:
            assume(False)
    p = draw(st.sampled_from((1, 1.5, 2, 3, 500, "inf")))
    if kind == "lp":
        return lp_space(d, p)
    weights = draw(st.lists(st.floats(0.25, 4.0), min_size=d, max_size=d))
    return NormedSpace(d, {"kind": kind, "p": p, "weights": weights})


@st.composite
def _operator_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    dom, cod = draw(_spaces(d)), draw(_spaces(d))
    return dom, cod, np.random.default_rng(draw(st.integers(0, 2 ** 16)))


@settings(max_examples=40, deadline=None)
@given(case=_operator_cases())
def test_op_norm_bounds_are_sound(case):
    dom, cod, rng = case
    T = rng.normal(size=(cod.dim, dom.dim)) * 10.0 ** rng.uniform(-200, 200)
    ub = op_norm_upper(T, dom, cod)
    lb, ub_bracket, w = op_norm(T, dom, cod)
    X = np.vstack([rng.normal(size=(4000, dom.dim)), w])  # the witness attains lb
    best = float(np.max(cod.norm(X @ T.T) / dom.norm(X)))
    tol = 1e-12 * best
    assert best <= ub + tol
    assert lb - tol <= best <= ub_bracket + tol
    # exact when the domain ball or the codomain's dual ball is polyhedral
    # (every l1 / linf codomain here has d <= 12), or for l2 -> l2
    l2 = dom.kind == cod.kind == "lp" and dom._p == cod._p == 2
    if dom.unit_ball_vertices() is not None or cod.exact_capable or l2:
        assert ub_bracket <= lb * (1 + 1e-12)


# float.hex of the lb that scipy's Nelder-Mead ascent (12 starts of 400
# iterations) found for T = default_rng(i).normal(size=(d, d)), i the row;
# (p, weighted) for dom and cod, weights (0.5, 2.0, 1.25)[:d]
NELDER_MEAD_LB = [
    (2, (1.5, 0), (3, 0), "0x1.4920e034b5f3bp-1"),
    (2, (3, 0), (1.5, 0), "0x1.b70d8f4a0d087p+0"),
    (2, (500, 0), (1.5, 1), "0x1.23b28129024bfp+2"),
    (2, (3, 1), (500, 0), "0x1.d4f0ff1fecd9ap+1"),
    (2, (1.5, 1), (3, 1), "0x1.ac9532e1e47abp+1"),
    (3, (1.5, 0), (500, 0), "0x1.6b1eedd801944p+0"),
    (3, (3, 0), (1.5, 1), "0x1.ecb32e91bc2fbp+1"),
    (3, (500, 1), (3, 0), "0x1.3031b2e0d8e2ep+1"),
    (3, (1.5, 1), (1.5, 0), "0x1.d256912e845e9p+1"),
    (3, (3, 1), (3, 1), "0x1.f8ae5d57bc0e9p+0"),
]


def test_power_ascent_keeps_the_nelder_mead_lb():
    def space(d, p, weighted):
        if weighted:
            return NormedSpace(d, {"kind": "weighted-lp", "p": p,
                                   "weights": [0.5, 2.0, 1.25][:d]})
        return lp_space(d, p)

    for i, (d, (pd, wd), (pc, wc), pin) in enumerate(NELDER_MEAD_LB):
        T = np.random.default_rng(i).normal(size=(d, d))
        dom, cod = space(d, pd, wd), space(d, pc, wc)
        lb, ub, _ = op_norm(T, dom, cod)
        assert lb >= float.fromhex(pin) * (1 - 1e-14), i
        assert ub == max(op_norm_upper(T, dom, cod), lb)


@settings(max_examples=60, deadline=None)
@given(case=_operator_cases(), n=st.integers(3, 40))
def test_op_norm_upper_stack_matches_single(case, n):
    dom, cod, rng = case
    for size in (1, 2, n):
        S = rng.normal(size=(size, cod.dim, dom.dim))
        stacked = op_norm_upper(S, dom, cod)
        assert stacked.shape == (size,)
        assert np.array_equal(stacked, [op_norm_upper(M, dom, cod) for M in S])
