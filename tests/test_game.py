from fractions import Fraction

import numpy as np
import pytest

from lipforge.game import (POLICIES, IdentityPolicy, RandomPolicy,
                           SpoilerPolicy, certify_transcript,
                           multi_operator_run, run_bm_game)
from lipforge.regions import box_region, gen_four_corner
from lipforge.spaces import LinOp, lp_space


def _arena():
    dom = lp_space(2, "inf")
    cod = lp_space(2, "inf")
    E = gen_four_corner(1)
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    T = LinOp.build(np.array([[0.4, 0.0], [0.0, -0.3]]), dom, cod)
    return dom, cod, E, Q, T


def test_radii_shrink_and_respect_norm_gap():
    dom, cod, E, Q, T = _arena()
    t = run_bm_game(E, Q, T, IdentityPolicy(dom, cod, Q), 3)
    for rd in t.rounds:
        assert rd.r <= Fraction(1, 2 ** rd.k) * (1 - Fraction(T.opnorm_ub).limit_denominator(10 ** 12))
        assert rd.s <= rd.r / 4
        assert rd.alpha > 0


def test_certificates_within_bound_all_policies():
    dom, cod, E, Q, T = _arena()
    for name, cls in POLICIES.items():
        t = run_bm_game(E, Q, T, cls(dom, cod, Q, seed=1), 3)
        cert = certify_transcript(t, dirs=4, seed=0)
        assert len(cert) == 3
        for c in cert:
            assert c["error"] <= c["bound"], (name, c)
            assert c["bound"] == pytest.approx(1.0 / c["level"])


def test_limit_is_one_lipschitz_sampled():
    from lipforge.verify import lip_estimate

    dom, cod, E, Q, T = _arena()
    t = run_bm_game(E, Q, T, RandomPolicy(dom, cod, Q, seed=2), 3)
    est, _ = lip_estimate(t.limit, Q, pairs=5000, seed=0, dom=dom, cod=cod)
    assert est <= 1.0 + 1e-7


def test_successive_centers_stay_within_ball():
    # Player II centers differ by at most s_{k-1} in sup over Q samples
    dom, cod, E, Q, T = _arena()
    t = run_bm_game(E, Q, T, SpoilerPolicy(dom, cod, Q, seed=0), 3)
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 2, (2000, 2))
    prev_g, prev_s = None, None
    for rd in t.rounds:
        if prev_g is not None:
            dev = float(np.max(cod.norm(rd.g.eval(X) - prev_g.eval(X))))
            assert dev <= float(prev_s) + 1e-9
        prev_g, prev_s = rd.g, rd.s


def test_multi_operator_shared_point_scan():
    from lipforge.verify import scan_derivative_set

    dom = lp_space(1, "inf")
    cod = lp_space(1, "inf")
    E = box_region([0.4], [0.6])
    Q = box_region([-1.0], [2.0])
    ops = [LinOp.build(np.array([[0.5]]), dom, cod),
           LinOp.build(np.array([[-0.5]]), dom, cod)]
    runs, g = multi_operator_run(E, Q, ops, 2,
                                 lambda n: IdentityPolicy(dom, cod, Q, seed=n))
    assert len(runs) == 2
    # at a net point of the second run, the second operator fits at its scale
    t2 = runs[-1]
    x = t2.rounds[-1].gamma[0]
    alpha = t2.rounds[-1].alpha
    rep = scan_derivative_set(g, x, [ops[1]], [alpha], dirs=8,
                              tol=0.15, exact=True)
    assert rep.verdict(0)
