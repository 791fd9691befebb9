"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail
line; tolerances are pinned, not tuned.
"""

import time

import numpy as np
import pytest

from lipforge.fn import (BlendFn, DistFn, LinearFn, ZeroFn, fn_from_file_doc,
                         fn_to_file_doc)
from lipforge.game import POLICIES, IdentityPolicy, certify_transcript, \
    multi_operator_run, run_bm_game
from lipforge.prescribe import build_net, prescribe_derivative
from lipforge.regions import (BoxUnion, CurveSpec, LatticeDP, box_region,
                              gen_four_corner, xi_estimate)
from lipforge.serialize import dumps, loads
from lipforge.smooth import MollifierSpec, build_pou, mollify, sla_assemble, \
    smooth_around, smooth_region
from lipforge.spaces import Functional, LinOp, cyl_constant, lp_space
from lipforge.steep import (SteepSpec, build_pu_map, build_steep,
                            check_steep_properties, enumerate_steep_oracle,
                            pu_map_certificate)
from lipforge.verify import c1_check, dini_check, lip_estimate, \
    scan_derivative_set


def _report(num, label, ok, budget, elapsed):
    line = "criterion %2d (%s): %s  [%.1fs / %ds]" % (
        num, label, "PASS" if ok else "FAIL", elapsed, budget)
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_blend_bounds():
    t0 = time.time()
    space = lp_space(2, 2)
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(20):
        a = float(rng.uniform(0.3, 1.2))
        b = a + float(rng.uniform(0.3, 1.5))
        t = float(rng.uniform(0.0, 1.0))
        m1 = rng.normal(size=(2, 2))
        m1 *= t / max(np.linalg.svd(m1, compute_uv=False)[0], 1e-12)
        m2 = rng.normal(size=(2, 2))
        m2 *= (1.0 - t) / max(np.linalg.svd(m2, compute_uv=False)[0], 1e-12)
        f1 = LinearFn(m1, lip_bound=t)
        f2 = LinearFn(m2, lip_bound=1.0 - t)
        phi = BlendFn(a, b, f1, f2, space, t, 1.0 - t)
        Q = box_region([-3 * b, -3 * b], [3 * b, 3 * b])
        est, _ = lip_estimate(phi, Q, pairs=10000, seed=3,
                              dom=space, cod=space)
        ok &= est <= 1.0 + a / (b - a) + 1e-7
        u = rng.normal(size=(50, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        for radius in (a, b):
            gap = np.max(np.abs(phi.eval(u * (radius - 1e-9))
                                - phi.eval(u * (radius + 1e-9))))
            ok &= float(gap) <= 1e-6
    _report(1, "blend bounds", ok, 10, time.time() - t0)


def test_criterion_02_prescription_exactness():
    t0 = time.time()
    space = lp_space(2, 2)
    rng = np.random.default_rng(20)
    ok = True
    s = 0.05
    for _ in range(10):
        lo = rng.uniform(-2.0, 0.0, 2)
        hi = lo + rng.uniform(2.0, 4.0, 2)
        Q = box_region(lo, hi)
        r = float(rng.uniform(0.2, 0.6))
        M = rng.normal(size=(2, 2))
        M *= (1.0 - r) * 0.8 / max(np.linalg.svd(M, compute_uv=False)[0], 1e-12)
        L = LinOp.build(M, space, space)
        centers = []
        while len(centers) < 3:
            p = rng.uniform(lo + 4 * s + 0.05, hi - 4 * s - 0.05)
            if all(np.linalg.norm(p - q) >= 4 * s + 1e-6 for q in centers):
                centers.append(p)
        gamma = np.array(centers)
        g, alpha = prescribe_derivative(ZeroFn(2, 2), L, r, gamma, s, Q)
        for x in gamma:
            u = rng.normal(size=(100, 2))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            u *= alpha * rng.uniform(0.05, 0.999, (100, 1))
            resid = g.eval(x[None] + u) - g.eval(x[None]) - u @ M.T
            ok &= float(np.max(np.abs(resid))) <= 1e-12
        # base is zero, so the lattice sup of g is the deviation ||g - f||
        ax = [np.linspace(lo[i], hi[i], 1000) for i in range(2)]
        X = np.stack([m.ravel() for m in np.meshgrid(*ax, indexing="ij")], 1)
        ok &= float(np.max(np.asarray(space.norm(g.eval(X))))) <= r + 1e-12
        est, _ = lip_estimate(g, Q, pairs=5000, seed=1, dom=space, cod=space)
        ok &= est <= 1.0 + 1e-7
    _report(2, "prescription exactness", ok, 60, time.time() - t0)


def test_criterion_03_game_certificates():
    t0 = time.time()
    dom = lp_space(2, "inf")
    cod = lp_space(2, "inf")
    E = gen_four_corner(2)
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    T = LinOp.build(np.array([[0.4, 0.0], [0.0, -0.3]]), dom, cod)
    ok = True
    for name, cls in sorted(POLICIES.items()):
        t = run_bm_game(E, Q, T, cls(dom, cod, Q, seed=1), 4)
        for c in certify_transcript(t, dirs=4, seed=0):
            ok &= c["error"] <= c["bound"] + 1e-15
            ok &= abs(c["bound"] - 1.0 / c["level"]) <= 1e-15
            ok &= c["points"] >= 1
    _report(3, "game certificates", ok, 300, time.time() - t0)


def test_criterion_04_multi_operator_extremality():
    t0 = time.time()
    dom = lp_space(1, "inf")
    cod = lp_space(1, "inf")
    E = box_region([0.4], [0.6])
    Q = box_region([-1.0], [2.0])
    ops = [LinOp.build(np.array([[0.5]]), dom, cod),
           LinOp.build(np.array([[-0.5]]), dom, cod)]
    net = build_net(E, Q, 2, space=dom)
    runs, g = multi_operator_run(
        E, Q, ops, 2, lambda n: IdentityPolicy(dom, cod, Q, seed=n), net=net)
    x = runs[-1].rounds[-1].gamma[0]
    ok = True
    for i, t in enumerate(runs):
        scales = [rd.alpha for rd in t.rounds]
        rep = scan_derivative_set(g, x, [ops[i]], scales, dirs=4,
                                  tol=0.15, exact=True)
        ok &= rep.verdict(0)
    tg = [rd.alpha for t in runs for rd in t.rounds]
    rep = dini_check(g, x, np.array([1.0]), tg, margin=0.2, exact=True)
    ok &= rep.empty_flag
    _report(4, "multi-operator extremality", ok, 120, time.time() - t0)


def test_criterion_05_steep_oracle_equivalence():
    t0 = time.time()
    space = lp_space(2, 2)
    rng = np.random.default_rng(50)
    ok = True
    for _ in range(3):
        nb = int(rng.integers(1, 4))
        lo = rng.uniform(0, 0.7, (nb, 2))
        hi = lo + rng.uniform(0.1, 0.3, (nb, 2))
        G = BoxUnion(lo, hi)
        c = rng.normal(size=2)
        c /= np.linalg.norm(c)
        P = Functional(c, space)
        alpha = float(rng.uniform(0.2, 0.6))
        # 0.25 lattice step on the unit square keeps the DAG <= 6x6 nodes
        cs = CurveSpec(P, alpha, 0.25, k=2)
        bbox = (np.zeros(2), np.ones(2))
        dp = LatticeDP(G, cs, bbox=bbox, pad=0)
        ok &= abs(dp.value() - enumerate_steep_oracle(G, cs, bbox)) <= 1e-12
    # properties on a 64x64 lattice
    G = box_region([0.0, 0.0], [1.0, 1.0])
    spec = SteepSpec(G, Functional([0.8, 0.6], space), 0.5, 1.0 / 64.0)
    g = build_steep(spec)
    props, _ = check_steep_properties(g, spec, seed=2)
    for name, (res, bound) in props.items():
        ok &= res <= bound + 1e-9
    _report(5, "steep oracle equivalence", ok, 180, time.time() - t0)


def test_criterion_06_cylinder_constant():
    t0 = time.time()
    rng = np.random.default_rng(60)
    kinds = [lp_space(2, 1), lp_space(2, 2), lp_space(2, "inf")]
    ok = True
    for i in range(100):
        dom = kinds[i % 3]
        cod = kinds[(i // 3) % 3]
        T = LinOp.build(rng.normal(size=(2, 2)), dom, cod)
        ok &= cyl_constant(T, budget=32, seed=i) >= T.opnorm_lb - 1e-9
    l2 = lp_space(2, 2)
    for i in range(20):
        T = LinOp.build(rng.normal(size=(2, 2)), l2, l2)
        v = cyl_constant(T, budget=64, seed=i)
        nrm = float(np.linalg.svd(T.matrix, compute_uv=False)[0])
        ok &= abs(v - nrm) <= 1e-6
    _report(6, "cylinder constant", ok, 120, time.time() - t0)


def test_criterion_07_pu_derivative_map():
    t0 = time.time()
    space = lp_space(2, 2)
    E = gen_four_corner(3)
    U = box_region([-2.0, -2.0], [3.0, 3.0], open_=True)
    T = LinOp.build(np.array([[0.5, 0.0], [0.0, 0.0]]), space, space)
    theta = 0.2
    g, H = build_pu_map(E, U, T, theta, cover_budget=3)
    cert = pu_map_certificate(g, H, U, T, theta, n_points=200, seed=0)
    ok = (cert["gap"] < 0.1 and cert["fd_ok"] and cert["sup_ok"]
          and cert["support_ok"] and cert["lip_ok"]
          and cert["n_H_points"] >= 200)
    _report(7, "pu derivative map", ok, 600, time.time() - t0)


def test_criterion_08_smoothing():
    t0 = time.time()
    space = lp_space(2, 2)
    rng = np.random.default_rng(80)
    ok = True
    eps = 0.1
    # mollify
    f = DistFn(space, np.array([0.3, -0.2]))
    gm = mollify(f, MollifierSpec(eps, 2, order=8))
    X = rng.uniform(-1, 1, (100000, 2))
    ok &= float(np.max(np.abs(gm.eval(X) - f.eval(X)))) <= eps + 1e-12
    passed, worst, _ = c1_check(gm, rng.uniform(-1, 1, (20, 2)))
    ok &= passed
    # smooth_around
    E = box_region([0.4, 0.4], [0.6, 0.6])
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    f2 = DistFn(space, np.array([0.5, 0.5]))
    gs = smooth_around(E, Q, f2, eps, seed=0)
    X2 = rng.uniform(-1, 2, (100000, 2))
    ok &= float(np.max(np.abs(gs.eval(X2) - f2.eval(X2)))) <= eps + 1e-12
    Hs = smooth_region(E, Q)
    bb = Hs.bbox()
    pts = rng.uniform(bb[0], bb[1], (60, 2))
    pts = pts[Hs.contains(pts)][:20]
    passed, worst, _ = c1_check(gs, pts, steps=(1e-3, 5e-4))
    ok &= passed
    # SLA assembly bound
    linf = lp_space(2, "inf")
    h = LinearFn(np.array([[0.5, 0.0]]))
    hk = LinearFn(np.array([[0.5, 0.02]]))
    cover = [box_region([-1.0, -1.0], [1.0, 1.0], open_=True),
             box_region([-0.9, -0.8], [0.8, 0.9], open_=True)]
    V = box_region([-0.7, -0.7], [0.7, 0.7])
    pou = build_pou(cover, V)
    Uo = box_region([-0.7, -0.7], [0.7, 0.7], open_=True)
    theta = 2.0
    tilde = sla_assemble(h, Uo, pou, [hk, hk], [0.05, 0.05], theta=theta)
    # the lemma bounds Lip on U itself; pairs must not straddle its boundary
    est, _ = lip_estimate(tilde, box_region([-0.69, -0.69], [0.69, 0.69]),
                          pairs=100000, seed=4)
    sup_lip = float(np.linalg.norm([0.5, 0.02], 1))
    ok &= est <= max(0.5, theta + sup_lip) + 1e-6
    _report(8, "smoothing", ok, 180, time.time() - t0)


def test_criterion_09_xi_monotonicity():
    t0 = time.time()
    space = lp_space(2, 2)
    P = Functional([1.0, 0.0], space)
    vals = []
    for level in (1, 2, 3, 4):
        v, _, _ = xi_estimate(gen_four_corner(level),
                              CurveSpec(P, 0.3, 0.02, k=3))
        vals.append(v)
    ok = all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))
    h = 0.05
    v, _, _ = xi_estimate(box_region([0.0, 0.0], [1.0, 4.0]),
                          CurveSpec(P, 1.0 / np.sqrt(2.0) - 0.01, h, k=3))
    ok &= abs(v - np.sqrt(2.0)) <= 2.0 * h
    _report(9, "xi monotonicity", ok, 120, time.time() - t0)


def test_criterion_10_determinism_roundtrip():
    t0 = time.time()
    dom = lp_space(2, "inf")
    cod = lp_space(2, "inf")
    E = gen_four_corner(1)
    Q = box_region([-1.0, -1.0], [2.0, 2.0])
    T = LinOp.build(np.array([[0.4, 0.0], [0.0, -0.3]]), dom, cod)
    docs = []
    for _ in range(2):
        policy = POLICIES["seeded-random"](dom, cod, Q, seed=7)
        t = run_bm_game(E, Q, T, policy, 2)
        docs.append(dumps(fn_to_file_doc(t.limit)))
    ok = docs[0] == docs[1]
    g = fn_from_file_doc(loads(docs[0]))
    X = np.random.default_rng(5).uniform(-1, 2, (1000, 2))
    orig = POLICIES["seeded-random"](dom, cod, Q, seed=7)
    t = run_bm_game(E, Q, T, orig, 2)
    a = t.limit.eval(X)
    b = g.eval(X)
    ok &= bool(np.all(a == b))
    _report(10, "determinism and round-trip", ok, 30, time.time() - t0)
