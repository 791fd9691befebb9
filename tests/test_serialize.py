"""Node and region documents: the pinned format and round trips, and
every node's rows evaluated alone and in a batch.

`serialize_docs.json` holds, for every case below, the canonical JSON that
the hand-written per-class encoders wrote before the field table replaced
them (the two vecscale cases that took over the outer and product nodes
are pinned as the field table writes them).  Running this module as a
script prints the documents the current code writes, in the same layout.
"""

import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipforge import fn, regions
from lipforge.fn import (BlendFn, BoxBumpFn, ConstFn, ConvexShiftCombFn,
                         DistFn, GridFn2D, LinearFn, LipFn, LocalAffineSurgeryFn,
                         NormalizedBumpFn, PlateauFn, RadialBumpFn, RegionSwitchFn,
                         SumFn, VecScaleFn, ZeroFn)
from lipforge.regions import (BallUnion, BoxUnion, Complement, EmptyRegion,
                              Intersection, Region, UnionRegion, box_region,
                              gen_four_corner)
from lipforge.serialize import dumps, loads
from lipforge.spaces import NormedSpace, lp_space

DOCS_PATH = os.path.join(os.path.dirname(__file__), "serialize_docs.json")

L2 = lp_space(2, 2)
LINF = lp_space(2, "inf")
HEX = NormedSpace(2, {"kind": "polyhedral", "vertices": [
    [1.0, 0.0], [0.5, 0.8660254037844386], [-0.5, 0.8660254037844386]]})
WL1 = NormedSpace(2, {"kind": "weighted-lp", "p": 1, "weights": [2.0, 0.5]})

M = [[1.0, 0.3], [0.2, -1.0 / 3.0]]
SHIFTS = [[0.0, 0.0], [0.01, -0.02], [-0.03, 0.005]]
WEIGHTS = [0.25, 0.25, 0.5]


def _lin():
    return LinearFn(M)


def _dist():
    return DistFn(L2, [0.1, 0.2])


def _rbump():
    return RadialBumpFn([0.5, 0.5], 0.3)


def _boxbump():
    return BoxBumpFn([0.0, 0.0], [1.0, 2.0])


def _surgery(lip):
    return LocalAffineSurgeryFn(_lin(), [[0.0, 0.0], [1.0, 1.0]], Fraction(1, 4),
                                Fraction(1, 8), Fraction(1, 16),
                                [[0.5, 0.0], [0.0, -0.5]], LINF, lip_bound=lip)


NODE_CASES = {
    "zero": lambda: ZeroFn(2, 3),
    "const": lambda: ConstFn([0.1, -2.5], 2),
    "linear": _lin,
    "linear-lip": lambda: LinearFn(M, lip_bound=1.25),
    "linear-row": lambda: LinearFn([3.0, -0.1]),
    "sum": lambda: SumFn([_lin(), ConstFn([1.0, 2.0], 2)], [0.5, -1.0 / 3.0]),
    "sum-default-coeffs": lambda: SumFn([_dist(), _rbump()]),
    "dist": _dist,
    "dist-hex-offset": lambda: DistFn(HEX, [0.3, -0.1], offset=0.3),
    "dist-weighted": lambda: DistFn(WL1, [0.0, 1.0]),
    "blend": lambda: BlendFn(0.5, 1.5, _lin(), ZeroFn(2, 2), L2),
    "blend-lip1": lambda: BlendFn(0.5, 1.5, _lin(), ZeroFn(2, 2), LINF, lip1=0.5),
    "blend-lip12": lambda: BlendFn(0.25, 1.0, ZeroFn(2, 2), _lin(), HEX,
                                   lip1=0.5, lip2=0.25),
    "surgery": lambda: _surgery(None),
    "surgery-lip": lambda: _surgery(1.5),
    "grid2d": lambda: GridFn2D([0.0, -0.5], 0.5, [[0.0, 0.1, 0.2], [1.0, 1.5, -0.25]]),
    "boxbump": _boxbump,
    "rbump": _rbump,
    "plateau": lambda: PlateauFn([0.0, 0.0], [1.0, 1.0], [0.25, 0.25], [0.75, 0.75]),
    "vecscale": lambda: VecScaleFn(_rbump(), _lin()),
    "vecscale-scalar": lambda: VecScaleFn(_dist(), _rbump()),
    "vecscale-const": lambda: VecScaleFn(_dist(), ConstFn([1.0, -0.5], 2)),
    "pou-element": lambda: NormalizedBumpFn([_boxbump(), _rbump()], 1),
    "region-switch": lambda: RegionSwitchFn(box_region([0, 0], [1, 1]), _lin(),
                                            ConstFn([1.0, 2.0], 2)),
    "region-switch-lip": lambda: RegionSwitchFn(
        BallUnion([[0.5, 0.5]], 0.4, HEX), _dist(), _rbump(), lip_bound=1.0),
    "shift-comb": lambda: ConvexShiftCombFn(_dist(), SHIFTS, WEIGHTS),
}


def _open_grown(G, margin):
    """The open union of G's boxes each grown by margin, with G's meta."""
    return BoxUnion(G.lo - margin, G.hi + margin, open_=True, meta=G.meta)


REGION_CASES = {
    "empty": lambda: EmptyRegion(2),
    "box-union": lambda: box_region([0.0, 0.0], [1.0, 0.5]),
    "box-union-open-meta": lambda: _open_grown(gen_four_corner(1), 0.01),
    "box-union-four-corner": lambda: gen_four_corner(2),
    "ball-union": lambda: BallUnion([[0.0, 0.0], [1.0, 0.5]], 0.3, L2),
    "ball-union-closed-hex": lambda: BallUnion([[0.5, 0.5]], 0.25, HEX, open_=False),
    "ball-union-weighted": lambda: BallUnion([[0.5, 0.5]], 0.25, WL1),
    "complement": lambda: Complement(box_region([0, 0], [1, 1])),
    "intersection": lambda: Intersection([box_region([0, 0], [2, 2]),
                                          BallUnion([[1.0, 1.0]], 0.75, LINF)]),
    "union": lambda: UnionRegion([box_region([0, 0], [1, 1]),
                                  Complement(EmptyRegion(2))]),
}

PTS = np.random.default_rng(0).uniform(-1.0, 2.0, (300, 2))


def _docs():
    out = {"nodes": {}, "regions": {}}
    for name, build in NODE_CASES.items():
        out["nodes"][name] = dumps(build().to_doc())
    for name, build in REGION_CASES.items():
        out["regions"][name] = dumps(build().to_doc())
    return out


@pytest.fixture(scope="module")
def pinned():
    with open(DOCS_PATH) as fh:
        return json.load(fh)


def _assert_same_fn(f, g, X=PTS):
    assert type(g) is type(f)
    assert (g.d, g.l) == (f.d, f.l)
    assert np.array_equal(f.eval(X), g.eval(X), equal_nan=True)


def _assert_same_region(r, s, X=PTS):
    assert type(s) is type(r)
    assert np.array_equal(r.contains(X), s.contains(X))


def test_every_node_tag_and_region_kind_is_covered():
    tags = {build().tag for build in NODE_CASES.values()}
    assert tags == set(fn._REGISTRY)
    kinds = {build().kind for build in REGION_CASES.values()}
    assert kinds == set(regions.REGION_KINDS)
    for cls in list(fn._REGISTRY.values()) + list(regions.REGION_KINDS.values()):
        assert "fields" in vars(cls), cls


def test_optional_fields_set_and_unset():
    """Every optional key is written by one case and left out by another."""
    lip_tags = {"linear", "surgery", "region-switch"}
    docs = [build().to_doc() for build in NODE_CASES.values()]
    for tag in lip_tags:
        have = [("lip" in d) for d in docs if d["node"] == tag]
        assert True in have and False in have, tag
    blends = [d for d in docs if d["node"] == "blend"]
    assert {("lip1" in d, "lip2" in d) for d in blends} == {
        (False, False), (True, False), (True, True)}


@pytest.mark.parametrize("name", sorted(NODE_CASES))
def test_node_doc_pinned_and_round_trips(name, pinned):
    f = NODE_CASES[name]()
    text = dumps(f.to_doc())
    assert text == pinned["nodes"][name]
    g = LipFn.from_doc(loads(text))
    assert dumps(g.to_doc()) == text
    _assert_same_fn(f, g)


@pytest.mark.parametrize("name", sorted(REGION_CASES))
def test_region_doc_pinned_and_round_trips(name, pinned):
    r = REGION_CASES[name]()
    text = dumps(r.to_doc())
    assert text == pinned["regions"][name]
    s = Region.from_doc(loads(text))
    assert dumps(s.to_doc()) == text
    _assert_same_region(r, s)


def _wide_comb(base):
    """base averaged over 400 shifts: its chunks hold _CHUNK // 400 rows, so
    PTS spans several chunk boundaries."""
    shifts = np.random.default_rng(1).uniform(-0.05, 0.05, (400, 2))
    return ConvexShiftCombFn(base, shifts, np.full(400, 1.0 / 400))


@pytest.mark.parametrize("name", sorted(NODE_CASES))
def test_node_rows_do_not_depend_on_the_batch(name):
    # batched callers (c1_check, the chunked shift combination) rely on a
    # row's value being the same bits alone and inside any batch
    assert len(PTS) > 2 * (ConvexShiftCombFn._CHUNK // 400)
    f = NODE_CASES[name]()
    for g in (f, _wide_comb(f)):
        batch = g.eval(PTS)
        alone = np.vstack([g.eval(x[None]) for x in PTS])
        assert np.array_equal(batch.view(np.int64), alone.view(np.int64)), g.tag


def test_surgery_rows_with_a_full_operator_do_not_depend_on_the_batch():
    f = LocalAffineSurgeryFn(_lin(), [[0.0, 0.0], [1.0, 1.0]], Fraction(1, 4),
                             Fraction(1, 8), Fraction(1, 16),
                             [[0.5, 0.3], [0.1, -0.5]], LINF)
    X = np.random.default_rng(0).uniform(-0.2, 0.2, (300, 2))
    alone = np.vstack([f.eval(x[None]) for x in X])
    assert np.array_equal(f.eval(X).view(np.int64), alone.view(np.int64))


def test_unknown_tag_and_kind_rejected():
    from lipforge.errors import InputError

    # "mollified" tagged the shift combination of an earlier format, and
    # "outer" and "product" the products that vecscale took over
    for tag in ("no-such-node", "mollified", "outer", "product"):
        with pytest.raises(InputError):
            LipFn.from_doc({"node": tag})
    with pytest.raises(InputError):
        Region.from_doc({"kind": "no-such-region"})


def test_lip_key_on_grid_and_vecscale_is_ignored():
    for name in ("grid2d", "vecscale"):
        f = NODE_CASES[name]()
        doc = f.to_doc()
        doc["lip"] = "0x1.0000000000000p+1"
        g = LipFn.from_doc(doc)
        assert g.lip_bound is None
        assert g.to_doc() == f.to_doc()
        _assert_same_fn(f, g)


def test_missing_required_key_raises_key_error():
    doc = ConstFn([1.0], 2).to_doc()
    del doc["vec"]
    with pytest.raises(KeyError):
        LipFn.from_doc(doc)
    doc = BallUnion([[0.0, 0.0]], 1.0, L2).to_doc()
    del doc["open"]
    with pytest.raises(KeyError):
        Region.from_doc(doc)


# ---------------------------------------------------------------------------
# random round trips
# ---------------------------------------------------------------------------

coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
pos = st.floats(1e-6, 1e3, allow_nan=False, allow_infinity=False)
spaces = st.sampled_from([L2, LINF, lp_space(2, 1), HEX, WL1])


@st.composite
def box_unions(draw):
    n = draw(st.integers(1, 5))
    lo = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    width = np.array(draw(st.lists(st.tuples(pos, pos) | st.just((0.0, 0.0)),
                                   min_size=n, max_size=n)))
    meta = draw(st.sampled_from([None, {"ifs": "four-corner", "level": 1,
                                        "ratio": 0.25}, {"cover-of-level": 3}]))
    return BoxUnion(lo, lo + width, open_=draw(st.booleans()), meta=meta)


@st.composite
def ball_unions(draw):
    n = draw(st.integers(1, 4))
    centers = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    return BallUnion(centers, draw(pos), draw(spaces), open_=draw(st.booleans()))


@st.composite
def grids(draw):
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    vals = draw(st.lists(coord, min_size=nx * ny, max_size=nx * ny))
    return GridFn2D(draw(st.tuples(coord, coord)), draw(pos),
                    np.reshape(vals, (nx, ny)))


@st.composite
def sums(draw):
    leaves = st.one_of(
        grids(),
        st.builds(lambda m, lip: LinearFn(np.reshape(m, (1, 2)), lip_bound=lip),
                  st.lists(coord, min_size=2, max_size=2), st.none() | pos),
        st.builds(lambda c: ConstFn([c], 2), coord),
        st.builds(lambda sp, c: DistFn(sp, c), spaces, st.tuples(coord, coord)),
    )
    terms = draw(st.lists(leaves, min_size=1, max_size=4))
    coeffs = draw(st.none() | st.lists(coord, min_size=len(terms),
                                       max_size=len(terms)))
    return SumFn(terms, coeffs)


def _random_points(seed):
    return np.random.default_rng(seed).uniform(-1.5e3, 1.5e3, (64, 2))


@settings(max_examples=60, deadline=None)
@given(r=st.one_of(box_unions(), ball_unions()), seed=st.integers(0, 2 ** 16))
def test_region_round_trip_random(r, seed):
    text = dumps(r.to_doc())
    s = Region.from_doc(loads(text))
    assert dumps(s.to_doc()) == text
    X = np.vstack([_random_points(seed), r.centers if isinstance(r, BallUnion)
                   else np.vstack([r.lo, r.hi])])
    _assert_same_region(r, s, X)


@settings(max_examples=60, deadline=None)
@given(f=st.one_of(grids(), sums()), seed=st.integers(0, 2 ** 16))
def test_node_round_trip_random(f, seed):
    text = dumps(f.to_doc())
    g = LipFn.from_doc(loads(text))
    assert dumps(g.to_doc()) == text
    assert g.lip_bound == f.lip_bound
    _assert_same_fn(f, g, _random_points(seed))


if __name__ == "__main__":
    print(json.dumps(_docs(), indent=1, sort_keys=True))
