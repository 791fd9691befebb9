import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lipforge.errors import DescriptorError
from lipforge.spaces import (Functional, LinOp, NormedSpace, OperatorFamily,
                             cyl_constant, dense_ball_sequence, lp_space,
                             op_norm, op_norm_upper)

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
    for p in (1, 2, "inf"):
        sp = lp_space(2, p)
        c = rng.normal(size=2)
        f = Functional(c, sp)
        v = np.asarray(f.attain_dir, dtype=float)
        assert float(sp.norm(v)) == pytest.approx(1.0, abs=1e-9)
        assert float(c @ v) == pytest.approx(f.dual_norm, rel=1e-9)


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
    T = rng.normal(size=(cod.dim, dom.dim)) * 10.0 ** rng.uniform(-2, 2)
    ub = op_norm_upper(T, dom, cod)
    lb, ub_bracket, w = op_norm(T, dom, cod)
    X = np.vstack([rng.normal(size=(4000, dom.dim)), w])  # the witness attains lb
    best = float(np.max(cod.norm(X @ T.T) / dom.norm(X)))
    tol = 1e-12 * best
    assert best <= ub + tol
    assert lb - tol <= best <= ub_bracket + tol


@settings(max_examples=60, deadline=None)
@given(case=_operator_cases(), n=st.integers(3, 40))
def test_op_norm_upper_stack_matches_single(case, n):
    dom, cod, rng = case
    for size in (1, 2, n):
        S = rng.normal(size=(size, cod.dim, dom.dim))
        stacked = op_norm_upper(S, dom, cod)
        assert stacked.shape == (size,)
        assert np.array_equal(stacked, [op_norm_upper(M, dom, cod) for M in S])
