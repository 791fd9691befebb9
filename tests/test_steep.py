import numpy as np
import pytest

from lipforge import steep
from lipforge.errors import HypothesisError, InputError
from lipforge.fn import LinearFn, PlateauFn, ZeroFn
from lipforge.regions import (BoxUnion, CurveSpec, EmptyRegion, LatticeDP,
                              box_region, gen_four_corner)
from lipforge.spaces import Functional, LinOp, NormedSpace, lp_space
from lipforge.steep import (SteepSpec, bmgame_step_pu, build_psi_map,
                            build_pu_map, build_sequence, build_steep,
                            check_steep_properties, enumerate_steep_oracle,
                            pu_map_certificate, slope_radius)


def test_steep_zero_functional(l2_2):
    P = Functional([0.0, 0.0], l2_2)
    g = build_steep(SteepSpec(box_region([0, 0], [1, 1]), P, 0.3, 0.1))
    assert isinstance(g, ZeroFn)
    assert g.gap == 0.0


def test_steep_empty_region(l2_2):
    P = Functional([1.0, 0.0], l2_2)
    g = build_steep(SteepSpec(EmptyRegion(2), P, 0.3, 0.1))
    assert isinstance(g, ZeroFn)


def test_steep_strip_unit_increment(l2_2):
    # (B): inside the strip the increment along v_P is exact
    P = Functional([1.0, 0.0], l2_2)
    G = box_region([-0.1, -2.0], [1.1, 2.0])
    spec = SteepSpec(G, P, 0.3, 0.05)
    g = build_steep(spec)
    d = float(g(np.array([1.0, 0.0]))[0] - g(np.array([0.0, 0.0]))[0])
    assert abs(d - 1.0) <= 3 * spec.h


def test_steep_scales_with_functional_norm(l2_2):
    G = box_region([-0.1, -1.0], [1.1, 1.0])
    g1 = build_steep(SteepSpec(G, Functional([1.0, 0.0], l2_2), 0.3, 0.05))
    g2 = build_steep(SteepSpec(G, Functional([0.5, 0.0], l2_2), 0.3, 0.05))
    X = np.random.default_rng(0).uniform(-0.5, 1.5, (50, 2))
    assert np.allclose(g2.eval(X), 0.5 * g1.eval(X), atol=1e-9)


@pytest.mark.parametrize("field,value", [
    ("s_res", -0.1), ("s_res", 0.0), ("s_res", np.nan), ("s_res", np.inf),
    ("out_pad", -1.0), ("out_pad", np.nan)])
def test_steep_spec_rejects_bad_ray_and_padding(l2_2, field, value):
    with pytest.raises(InputError):
        SteepSpec(box_region([0, 0], [1, 1]), Functional([1.0, 0.0], l2_2),
                  0.3, 0.1, **{field: value})


def _record_ray_max(monkeypatch, name):
    """Wrap steep.<name> so each call's arguments and result are kept."""
    calls = []
    real = getattr(steep, name)

    def wrapped(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(steep, name, wrapped)
    return calls


# sliding-window max against the bilinear scan: they differ only by rounding
# (the scan's bilinear weights come out near 1e-16 instead of 0), far below
# the gap's s_res >= h / 2 term
RAY_TOL = 1e-14


def test_ray_max_axis_matches_scan(l2_2, monkeypatch):
    calls = _record_ray_max(monkeypatch, "_ray_max_axis")
    rng = np.random.default_rng(7)
    axes = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    for trial in range(12):
        nb = int(rng.integers(1, 6))
        lo = rng.uniform(0.0, 1.0, (nb, 2))
        hi = lo + rng.uniform(0.05, 0.6, (nb, 2))
        if trial % 3 == 2:
            lo[-1], hi[-1] = lo[0] + 0.1, hi[0] + 0.1  # overlapping boxes
        G = BoxUnion(lo, hi, open_=bool(trial % 2))
        c = np.array(axes[trial % 4]) * rng.uniform(0.5, 2.0)
        h = [1.0 / 13.0, 0.07, 0.043][trial % 3]
        g = build_steep(SteepSpec(G, Functional(c, l2_2), 0.3, h))
        (best_fn, out_lo, shape, v, s_grid), fast = calls[-1]
        assert len(calls) == trial + 1 and fast.shape == g.values.shape
        # smax is not a whole number of steps: for v = -e_k the output
        # nodes lie off the lattice along axis k
        k = int(np.flatnonzero(v)[0])
        steps = (G.bbox()[1][k] - G.bbox()[0][k]) / h
        assert abs(steps - round(steps)) > 1e-3
        scan = steep._ray_max_scan(best_fn, out_lo, shape, v, s_grid)
        scale = max(1.0, float(np.max(np.abs(best_fn.values))))
        assert np.max(np.abs(fast - scan)) <= RAY_TOL * scale, trial


def test_ray_max_keeps_scan_off_the_axes(l2_2, monkeypatch):
    def fail(*args):
        raise AssertionError("axis path taken")

    monkeypatch.setattr(steep, "_ray_max_axis", fail)
    scan_loop = steep._ray_max_scan
    calls = _record_ray_max(monkeypatch, "_ray_max_scan")
    G = BoxUnion(np.array([[0.0, 0.0], [0.5, 0.4]]),
                 np.array([[0.4, 0.3], [0.9, 0.9]]))
    weighted = NormedSpace(2, {"kind": "weighted-lp", "p": 2, "weights": [4.0, 1.0]})
    specs = [
        SteepSpec(G, Functional([0.8, 0.6], l2_2), 0.3, 0.1),      # generic
        SteepSpec(G, Functional([1.0, 0.0], weighted), 0.3, 0.1),  # v = e1 / 2
        SteepSpec(G, Functional([0.6, -0.4], lp_space(2, "inf")), 0.3, 0.1),
        SteepSpec(G, Functional([1.0, 0.0], l2_2), 0.3, 0.1, s_res=0.025),
    ]
    assert np.array_equal(specs[2].P.attain_dir, [1.0, -1.0])
    for spec in specs:
        g = build_steep(spec)
        args, scan = calls[-1]
        assert np.array_equal(g.values, np.maximum(scan, 0.0) * spec.P.dual_norm)
        assert np.array_equal(scan, scan_loop(*args))
    assert len(calls) == len(specs)


def test_dp_equals_exhaustive_oracle(l2_2, rng):
    for trial in range(3):
        nb = rng.integers(1, 4)
        lo = rng.uniform(0, 0.7, (nb, 2))
        hi = lo + rng.uniform(0.1, 0.3, (nb, 2))
        G = BoxUnion(lo, hi)
        c = rng.normal(size=2)
        c /= np.linalg.norm(c)
        P = Functional(c, l2_2)
        alpha = float(rng.uniform(0.2, 0.6))
        cs = CurveSpec(P, alpha, 0.25, k=2)
        bbox = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        dp = LatticeDP(G, cs, bbox=bbox, pad=0)
        oracle = enumerate_steep_oracle(G, cs, bbox)
        assert dp.value() == pytest.approx(oracle, abs=1e-9)
    # overlapping boxes, one of them repeated: the union's value is that of
    # the boxes without the repeat
    lo = np.array([[0.1, 0.15], [0.3, 0.35], [0.1, 0.15]])
    hi = np.array([[0.55, 0.6], [0.8, 0.9], [0.55, 0.6]])
    cs = CurveSpec(Functional([0.6, 0.8], l2_2), 0.3, 0.25, k=2)
    bbox = (np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    value = LatticeDP(BoxUnion(lo, hi), cs, bbox=bbox, pad=0).value()
    assert value == pytest.approx(
        enumerate_steep_oracle(BoxUnion(lo, hi), cs, bbox), abs=1e-12)
    assert value == pytest.approx(
        LatticeDP(BoxUnion(lo[:2], hi[:2]), cs, bbox=bbox, pad=0).value(),
        abs=1e-12)
    # 8x8 lattices with generic P: nodes whose P-values differ by less
    # than the smallest step increment must still be swept after their
    # sources (instances 3, 4 and 9 fail if such nodes share one pass)
    rng8 = np.random.default_rng(3)
    for trial in range(12):
        nb = rng8.integers(1, 4)
        lo = rng8.uniform(0, 0.8, (nb, 2))
        hi = lo + rng8.uniform(0.05, 0.5, (nb, 2))
        c = rng8.normal(size=2)
        P = Functional(c / np.linalg.norm(c), l2_2)
        cs = CurveSpec(P, float(rng8.uniform(0.1, 0.6)), 1.0 / 7.0, k=2)
        G = BoxUnion(lo, hi, open_=bool(trial % 2))
        value = LatticeDP(G, cs, bbox=bbox, pad=0).value()
        assert value == pytest.approx(enumerate_steep_oracle(G, cs, bbox),
                                      abs=1e-12), trial


def test_steep_properties_within_gap(l2_2):
    P = Functional([0.6, 0.8], l2_2)
    G = BoxUnion(np.array([[0.0, 0.0], [0.5, 0.4]]),
                 np.array([[0.4, 0.3], [0.9, 0.9]]))
    spec = SteepSpec(G, P, 0.35, 0.05)
    g = build_steep(spec)
    props = check_steep_properties(g, spec, n=200, seed=1)
    for name, (res, bound) in props.items():
        assert res <= bound + 1e-9, (name, res, bound)


def test_pu_map_trivial_cases(l2_2):
    T0 = LinOp.build(np.zeros((2, 2)), l2_2, l2_2)
    U = box_region([-1, -1], [2, 2], open_=True)
    E = gen_four_corner(1)
    g, H = build_pu_map(E, U, T0, 0.2)
    assert isinstance(g, ZeroFn)
    assert not isinstance(H, EmptyRegion)
    g2, H2 = build_pu_map(EmptyRegion(2), U,
                          LinOp.build(0.5 * np.eye(2), l2_2, l2_2), 0.2)
    assert isinstance(g2, ZeroFn)
    assert isinstance(H2, EmptyRegion)


def test_pu_map_small_instance(l2_2):
    # coarse but complete pipeline on a level-2 set with a modest budget
    E = gen_four_corner(2)
    U = box_region([-2.0, -2.0], [3.0, 3.0], open_=True)
    T = LinOp.build(np.array([[0.15, 0.0], [0.0, 0.0]]), l2_2, l2_2)
    g, H = build_pu_map(E, U, T, 0.25, cover_budget=2)
    cert = pu_map_certificate(g, H, U, T, 0.25, n_points=40, seed=0)
    assert cert["sup_ok"] and cert["support_ok"] and cert["fd_ok"]
    assert cert["lip_ok"], cert
    assert cert["gap"] < 0.1


def test_psi_map_sandwich_and_equality(l2_2, rng):
    E = gen_four_corner(2)
    T = LinOp.build(np.array([[0.3, 0.0], [0.0, 0.0]]), l2_2, l2_2)
    phi = PlateauFn([-0.6, -0.6], [1.6, 1.6], [-0.3, -0.3], [1.3, 1.3])
    f, psi, H = build_psi_map(E, 0.5, phi, T)
    assert psi.k >= 1
    X = rng.uniform(-1.0, 2.0, (10000, 2))
    psiv = psi.eval(X)
    phiv = phi.eval(X)[:, 0]
    assert np.all(psiv >= -1e-12)
    assert np.all(psiv <= phiv + 1e-12)
    inH = H.contains(X)
    assert np.allclose(psiv[inH], phiv[inH], atol=1e-12)
    # vanishes outside the eta-band around E
    off = ~np.all((X > -0.5) & (X < 1.5), axis=1)
    assert np.all(psiv[off] <= 1e-12)


def test_psi_map_zero_multiplier(l2_2):
    E = gen_four_corner(1)
    T = LinOp.build(0.4 * np.eye(2), l2_2, l2_2)
    f, psi, H = build_psi_map(E, 0.5, ZeroFn(2, 1), T)
    assert isinstance(f, ZeroFn)
    assert isinstance(H, EmptyRegion)


def test_psi_map_rescales_large_operator(l2_2):
    E = gen_four_corner(1)
    phi = PlateauFn([-0.6, -0.6], [1.6, 1.6], [-0.3, -0.3], [1.3, 1.3])
    T = LinOp.build(2.0 * np.eye(2), l2_2, l2_2)
    f, psi, H = build_psi_map(E, 0.5, phi, T)
    assert psi.k >= 1  # construction went through the rescaled branch


def test_build_sequence_trivial_and_zero_step(l2_2):
    E = gen_four_corner(1)
    H0 = box_region([-1, -1], [2, 2], open_=True)
    f0 = ZeroFn(2, 2)
    f0.lip_bound = 0.0
    assert len(build_sequence(E, H0, f0, 0.5, [])) == 1
    phi = PlateauFn([-0.6, -0.6], [1.6, 1.6], [-0.3, -0.3], [1.3, 1.3])
    T0 = LinOp.build(np.zeros((2, 2)), l2_2, l2_2)
    seq = build_sequence(E, H0, f0, 0.5, [(T0, phi, 0.1)])
    assert len(seq) == 2
    H1, f1, psi1 = seq[1]
    X = np.random.default_rng(0).uniform(-1, 2, (500, 2))
    assert np.allclose(f1.eval(X), f0.eval(X))


def test_sequence_sup_budget(l2_2, rng):
    E = gen_four_corner(2)
    H0 = box_region([-1, -1], [2, 2], open_=True)
    f0 = ZeroFn(2, 2)
    f0.lip_bound = 0.0
    phi = PlateauFn([-0.6, -0.6], [1.6, 1.6], [-0.3, -0.3], [1.3, 1.3])
    T = LinOp.build(np.array([[0.3, 0.0], [0.0, 0.0]]), l2_2, l2_2)
    seq = build_sequence(E, H0, f0, 0.5, [(T, phi, 0.05), (T, phi, 0.03)])
    X = rng.uniform(-1, 2, (5000, 2))
    dev = float(np.max(np.abs(seq[-1][1].eval(X) - f0.eval(X))))
    assert dev <= 0.05 + 0.03 + 1e-9


def test_bmgame_step_hypothesis_errors(l2_2):
    E = gen_four_corner(1)
    Q = box_region([-2, -2], [3, 3], open_=True)
    H = box_region([-1, -1], [2, 2], open_=True)
    ok_T = LinOp.build(0.3 * np.eye(2), l2_2, l2_2)
    bad_T = LinOp.build(1.2 * np.eye(2), l2_2, l2_2)
    f = LinearFn(0.2 * np.eye(2), lip_bound=0.2)
    with pytest.raises(HypothesisError):
        bmgame_step_pu(E, H, Q, 0.3, f, bad_T)
    steep_f = LinearFn(np.eye(2), lip_bound=1.0)
    with pytest.raises(HypothesisError):
        bmgame_step_pu(E, H, Q, 0.3, steep_f, ok_T)


def test_bmgame_step_linear_multiple(l2_2):
    # f = c T with c in (0,1): the correction restores T near E
    E = gen_four_corner(2)
    Q = box_region([-2.5, -2.5], [3.5, 3.5], open_=True)
    H = box_region([-0.1, -0.1], [1.1, 1.1], open_=True)
    T = LinOp.build(np.array([[0.3, 0.0], [0.0, 0.0]]), l2_2, l2_2)
    f = LinearFn(0.5 * T.matrix, lip_bound=0.15)
    theta = 0.4
    U, g, delta = bmgame_step_pu(E, H, Q, theta, f, T, seed=0)
    assert delta > 0
    rng = np.random.default_rng(1)
    X = rng.uniform(-2, 3, (5000, 2))
    dev = float(np.max(np.asarray(l2_2.norm(g.eval(X) - f.eval(X)))))
    assert dev <= theta + 1e-9
    # slope condition at a box center of E, with margin for perturbations
    x = E.lo[0] + (E.hi[0] - E.lo[0]) / 2
    for rho in (delta, delta / 2):
        Y = rho * np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        res = g.eval(x[None] + Y) - g.eval(x[None]) - Y @ T.matrix.T
        assert float(np.max(np.asarray(l2_2.norm(res)))) <= theta * rho


def test_slope_radius_linear_exact(l2_2):
    T = LinOp.build(np.array([[0.3, 0.1], [0.0, 0.2]]), l2_2, l2_2)
    f = LinearFn(T.matrix)
    E = gen_four_corner(1)
    assert slope_radius(f, E, T, 0.2) == pytest.approx(0.5)
