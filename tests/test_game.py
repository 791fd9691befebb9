from fractions import Fraction

import numpy as np
import pytest

from lipforge.game import (POLICIES, IdentityPolicy, RandomPolicy,
                           SpoilerPolicy, certify_transcript,
                           multi_operator_run, run_bm_game)
from lipforge.regions import box_region, gen_four_corner
from lipforge.spaces import LinOp, NormedSpace, lp_space


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


_HEXAGON = [[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0], [-0.5, np.sqrt(3.0) / 2.0]]
_EXACT_NORMS = {
    "l1": lp_space(2, 1), "linf": lp_space(2, "inf"),
    "wl1": NormedSpace(2, {"kind": "weighted-lp", "p": 1, "weights": [0.5, 2.0]}),
    "wlinf": NormedSpace(2, {"kind": "weighted-lp", "p": "inf", "weights": [0.5, 2.0]}),
    "hex": NormedSpace(2, {"kind": "polyhedral", "vertices": _HEXAGON}),
}
_SWEEP = ["%s-%s-%s" % (a, b, p) for a in _EXACT_NORMS for b in _EXACT_NORMS
          for p in sorted(POLICIES)]
# float.hex of the level-1 and level-2 certificate errors of the 15 seeded
# cases drawn from the 75 (dom, cod, policy) cases of _SWEEP; every norm is
# a domain and a codomain at least once, and every policy plays
_SWEEP_PINS = {
    "l1-l1-seeded-random": ("0x1.99a70ccd16f25p-15", "0x0.0p+0"),
    "l1-l1-spoiler": ("0x1.999999999999ap-15", "0x0.0p+0"),
    "l1-linf-spoiler": ("0x1.9999999999998p-15", "0x0.0p+0"),
    "l1-hex-identity": ("0x1.999999999999ap-15", "0x0.0p+0"),
    "linf-l1-spoiler": ("0x1.620909c73d954p-14", "0x0.0p+0"),
    "linf-linf-spoiler": ("0x1.5fa7cc69de844p-14", "0x0.0p+0"),
    "wl1-l1-spoiler": ("0x1.5151515151515p-15", "0x0.0p+0"),
    "wl1-wl1-identity": ("0x1.5151515151515p-15", "0x0.0p+0"),
    "wl1-wlinf-identity": ("0x1.5151515151515p-15", "0x0.0p+0"),
    "wl1-hex-spoiler": ("0x1.5151515151514p-15", "0x0.0p+0"),
    "wlinf-l1-seeded-random": ("0x1.83c0cea103221p-15", "0x0.0p+0"),
    "wlinf-wl1-identity": ("0x1.22017f8b8545dp-15", "0x0.0p+0"),
    "wlinf-wlinf-spoiler": ("0x1.224a14e743e7bp-15", "0x0.0p+0"),
    "hex-linf-spoiler": ("0x1.f26563f9f526fp-15", "0x0.0p+0"),
    "hex-hex-identity": ("0x1.f43475755674dp-15", "0x0.0p+0"),
}


@pytest.mark.parametrize("case", sorted(
    _SWEEP[i] for i in np.random.default_rng(0).choice(len(_SWEEP), 15, replace=False)))
def test_game_certificates_across_exact_norms(case):
    # K = 2 on four-corner level 1, with T seeded per (dom, cod) pair and
    # scaled to ||T|| = 0.7: each level meets error <= 1/k on at least one
    # point, with the pinned error bits
    dn, cn, policy = case.split("-", 2)
    names = list(_EXACT_NORMS)
    dom, cod = _EXACT_NORMS[dn], _EXACT_NORMS[cn]
    M = np.random.default_rng(5 * names.index(dn) + names.index(cn)).standard_normal((2, 2))
    T = LinOp.build(M * (0.7 / LinOp.build(M, dom, cod).opnorm_ub), dom, cod)
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    t = run_bm_game(gen_four_corner(1), Q, T, POLICIES[policy](dom, cod, Q, seed=1), 2)
    cert = certify_transcript(t, dirs=4, seed=0)
    for c in cert:
        assert c["error"] <= c["bound"] == 1.0 / c["level"]
        assert c["points"] >= 1
    assert tuple(float.hex(c["error"]) for c in cert) == _SWEEP_PINS[case]
