import warnings

import numpy as np
import pytest

from lipforge.errors import InputError
from lipforge.fn import BlendFn, ConstFn, LinearFn, ZeroFn
from lipforge.spaces import lp_space
from lipforge.verify import lip_estimate
from lipforge.regions import box_region


def _spec(a, b, m1, m2, space):
    f1 = LinearFn(m1, lip_bound=float(np.linalg.svd(m1, compute_uv=False)[0]))
    f2 = LinearFn(m2, lip_bound=float(np.linalg.svd(m2, compute_uv=False)[0]))
    return BlendFn(a, b, f1, f2, space, f1.lip_bound, f2.lip_bound)


def test_blend_equals_pieces_inside_and_outside(l2_2):
    m1 = 0.4 * np.eye(2)
    m2 = np.array([[0.0, 0.5], [0.0, 0.0]])
    phi = _spec(1.0, 2.0, m1, m2, l2_2)
    inner = np.array([[0.3, 0.2], [-0.5, 0.1]])
    outer = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert np.allclose(phi.eval(inner), inner @ m1.T)
    assert np.allclose(phi.eval(outer), outer @ m2.T)


def test_blend_boundary_continuity(l2_2, rng):
    phi = _spec(1.0, 2.0, 0.3 * np.eye(2), -0.3 * np.eye(2), l2_2)
    for radius in (1.0, 2.0):
        u = rng.normal(size=(100, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        inside = phi.eval(u * (radius - 1e-9))
        outside = phi.eval(u * (radius + 1e-9))
        assert float(np.max(np.abs(inside - outside))) < 1e-6


def test_blend_lip_bound_sampled(l2_2, rng):
    for _ in range(5):
        a = float(rng.uniform(0.3, 1.0))
        b = a + float(rng.uniform(0.3, 1.5))
        t = float(rng.uniform(0.0, 1.0))
        m1 = rng.normal(size=(2, 2))
        m1 *= t / max(np.linalg.svd(m1, compute_uv=False)[0], 1e-12)
        m2 = rng.normal(size=(2, 2))
        m2 *= (1.0 - t) / max(np.linalg.svd(m2, compute_uv=False)[0], 1e-12)
        phi = _spec(a, b, m1, m2, l2_2)
        Q = box_region([-3 * b, -3 * b], [3 * b, 3 * b])
        est, _ = lip_estimate(phi, Q, pairs=4000, seed=1, dom=l2_2, cod=l2_2)
        assert est <= 1.0 + a / (b - a) + 1e-7


def test_blend_bad_radii_rejected(l2_2):
    with pytest.raises(InputError):
        _spec(2.0, 1.0, 0.2 * np.eye(2), 0.2 * np.eye(2), l2_2)


def test_blend_lip_budget_rejected(l2_2):
    with pytest.raises(InputError):
        _spec(1.0, 2.0, 0.8 * np.eye(2), 0.8 * np.eye(2), l2_2)


def test_blend_zero_pieces(l2_2):
    z = ZeroFn(2, 2)
    phi = BlendFn(0.5, 1.5, z, z, l2_2, 0.0, 0.0)
    x = np.array([[0.7, -0.2]])
    assert np.allclose(phi(x), 0.0)


def test_blend_checks_lips_where_given(l2_2):
    z = ZeroFn(2, 2)
    for lip1, lip2 in ((-0.1, 0.5), (0.5, -0.1), (1.5, None), (None, 1.5),
                       (float("nan"), 0.5)):
        with pytest.raises(InputError):
            BlendFn(0.5, 1.5, z, z, l2_2, lip1, lip2)
    assert BlendFn(0.5, 1.5, z, z, l2_2, 0.5).lip_bound is None
    assert BlendFn(0.5, 1.5, z, z, l2_2, 0.5, 0.5).lip_bound == 1.5


def test_blend_anchors_pieces_at_zero(l2_2):
    # a constant piece 5 is shifted to 0, so the 1 + a/(b-a) = 2 claim holds
    with pytest.warns(UserWarning, match=r"f2\(0\) != 0"):
        phi = BlendFn(1.0, 2.0, ZeroFn(2, 1), ConstFn([5.0], 2), l2_2,
                      lip1=0.0, lip2=0.0)
    assert phi.lip_bound == 2.0
    X = np.array([[0.0, 0.0], [0.5, 0.5], [1.2, 0.3], [3.0, -4.0]])
    assert np.array_equal(phi(X), np.zeros((4, 1)))
    Q = box_region([-6.0, -6.0], [6.0, 6.0])
    est, _ = lip_estimate(phi, Q, pairs=4000, seed=1, dom=l2_2, cod=lp_space(1, 2))
    assert est <= phi.lip_bound
    # a piece that vanishes at 0 is kept as given
    f1 = LinearFn(0.4 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert BlendFn(1.0, 2.0, f1, ZeroFn(2, 2), l2_2).f1 is f1
