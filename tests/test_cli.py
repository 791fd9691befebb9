import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipforge
from lipforge import gridfile, svg
from lipforge.colormap import TABLE
from lipforge.cli import build_parser, run_cli
from lipforge.errors import DP_NODE_CAP
from lipforge.fn import DistFn, LinearFn, LocalAffineSurgeryFn, fn_to_file_doc
from lipforge.regions import BoxUnion, Complement, EmptyRegion, box_region, gen_four_corner
from lipforge.serialize import dec_float, dump_path, enc_float, load_path
from lipforge.spaces import LinOp, lp_space

# subprocesses import the same lipforge checkout as this test run
PKG_PARENT = os.path.dirname(os.path.dirname(lipforge.__file__))


@pytest.fixture
def files(tmp_path, l2_2):
    paths = {}
    paths["E"] = str(tmp_path / "E.json")
    dump_path(gen_four_corner(1).to_doc(), paths["E"])
    paths["Q"] = str(tmp_path / "Q.json")
    dump_path(box_region([-1.0, -1.0], [2.0, 2.0]).to_doc(), paths["Q"])
    paths["copies"] = str(tmp_path / "copies.json")
    dump_path(BoxUnion(np.zeros((400, 2)), np.ones((400, 2))).to_doc(), paths["copies"])
    paths["op"] = str(tmp_path / "op.json")
    T = LinOp.build(np.array([[0.3, 0.0], [0.0, -0.2]]), l2_2, l2_2)
    dump_path(T.to_doc(), paths["op"])
    paths["op0"] = str(tmp_path / "op0.json")
    dump_path(LinOp.build(np.zeros((2, 2)), l2_2, l2_2).to_doc(), paths["op0"])
    # exact-arithmetic paths (game certificates) need an linf codomain
    linf = lp_space(2, "inf")
    paths["op_inf"] = str(tmp_path / "op_inf.json")
    Ti = LinOp.build(np.array([[0.3, 0.0], [0.0, -0.2]]), linf, linf)
    dump_path(Ti.to_doc(), paths["op_inf"])
    paths["fn"] = str(tmp_path / "fn.json")
    dump_path(fn_to_file_doc(LinearFn(0.4 * np.eye(2), lip_bound=0.4)),
              paths["fn"])
    paths["dist"] = str(tmp_path / "dist.json")
    dump_path(fn_to_file_doc(DistFn(l2_2, np.array([0.5, 0.5]))),
              paths["dist"])
    paths["tmp"] = str(tmp_path)
    return paths


def test_cantor_writes_region(files, tmp_path):
    out = str(tmp_path / "cantor.json")
    assert run_cli(["cantor", "--level", "2", "--out", out]) == 0
    doc = load_path(out)
    from lipforge.regions import Region

    E = Region.from_doc(doc)
    assert E.n_boxes == 16


def test_cyl_identity(files, tmp_path, capsys):
    out = str(tmp_path / "cyl.json")
    assert run_cli(["cyl", "--op", files["op"], "--out", out]) == 0
    doc = load_path(out)
    assert dec_float(doc["cyl"]) >= dec_float(doc["opnorm_lb"]) - 1e-9


def test_run_cli_parses_with_one_parser(tmp_path, monkeypatch, capsys):
    # subcommands parse through parse_known_args, so parse_args sees only
    # the top-level parser, once per run_cli call
    seen = []
    plain = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        seen.append(self)
        return plain(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for level in ("0", "1"):
        out = str(tmp_path / ("cantor%s.json" % level))
        assert run_cli(["cantor", "--level", level, "--out", out]) == 0
    assert len(seen) == 2 and seen[0] is seen[1]
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_xi_runs(files, tmp_path):
    out = str(tmp_path / "xi.json")
    rc = run_cli(["xi", "--region", files["Q"], "--p", "1,0",
                  "--alpha", "0.4", "--grid", "0.25", "--out", out])
    assert rc == 0
    doc = load_path(out)
    assert dec_float(doc["value"]) > 0


def test_steep_certificate_and_svg(files, tmp_path):
    out = str(tmp_path / "steep")
    rc = run_cli(["steep", "--region", files["Q"], "--p", "1,0",
                  "--alpha", "0.3", "--grid", "0.2", "--svg", "--out", out])
    assert rc == 0
    cert = load_path(os.path.join(out, "certificate.json"))
    assert all(c["ok"] for c in cert.values() if isinstance(c, dict))
    with open(os.path.join(out, "g.svg")) as fh:
        svg_text = fh.read()
    assert svg_text.startswith("<svg") and "rect" in svg_text


def test_verify_and_csv(files, tmp_path):
    out = str(tmp_path / "scan.json")
    csv = str(tmp_path / "scan.csv")
    ops = str(tmp_path / "ops.json")
    dump_path({"ops": [load_path(files["op"])]}, ops)
    rc = run_cli(["verify", "--fn", files["fn"], "--point", "0.2,0.1",
                  "--ops", ops, "--scales", "0.1,0.05", "--tol", "0.15",
                  "--dirs", "16", "--require-pass", "--out", out,
                  "--csv", csv])
    # fn has matrix 0.4 I, op is diag(0.3, -0.2): mismatch -> exit 3
    assert rc == 3
    with open(csv) as fh:
        rows = fh.read().strip().splitlines()
    assert rows[0] == "op,scale,error"
    assert len(rows) == 3


def test_verify_passes_matching_operator(files, tmp_path, l2_2):
    ops = str(tmp_path / "ops.json")
    T = LinOp.build(0.4 * np.eye(2), l2_2, l2_2)
    dump_path(T.to_doc(), ops)
    rc = run_cli(["verify", "--fn", files["fn"], "--point", "0.2,0.1",
                  "--ops", ops, "--scales", "0.1", "--tol", "1e-9",
                  "--dirs", "8", "--require-pass"])
    assert rc == 0


def test_game_outputs(files, tmp_path):
    out = str(tmp_path / "game")
    rc = run_cli(["game", "--set", files["E"], "--q", files["Q"],
                  "--op", files["op_inf"], "--rounds", "2",
                  "--policy", "identity", "--out", out])
    assert rc == 0
    cert = load_path(os.path.join(out, "certificate.json"))
    assert len(cert["levels"]) == 2
    with open(os.path.join(out, "levels.csv")) as fh:
        csv = fh.read().splitlines()
    assert csv[0] == "level,error,bound,points"


def test_pumap_command(l2_2, tmp_path):
    # the library's small pu-map instance, end to end through the CLI
    E, U, op = (str(tmp_path / n) for n in ("E.json", "U.json", "op.json"))
    dump_path(gen_four_corner(2).to_doc(), E)
    dump_path(box_region([-2.0, -2.0], [3.0, 3.0], open_=True).to_doc(), U)
    T = LinOp.build(np.array([[0.15, 0.0], [0.0, 0.0]]), l2_2, l2_2)
    dump_path(T.to_doc(), op)
    out = str(tmp_path / "pumap")
    rc = run_cli(["pumap", "--set", E, "--u", U, "--op", op, "--theta", "0.25",
                  "--budget", "2", "--points", "40", "--svg", "--out", out])
    assert rc == 0
    for name in ("g.json", "H.json", "certificate.json", "g.svg"):
        assert os.path.isfile(os.path.join(out, name)), name
    cert = load_path(os.path.join(out, "certificate.json"))
    oks = [k for k in cert if k.endswith("_ok")]
    assert sorted(oks) == ["fd_ok", "lip_ok", "sup_ok", "support_ok"]
    assert all(cert[k] is True for k in oks), cert
    assert cert["n_H_points"] == 40


def test_smooth_command(files, tmp_path):
    out = str(tmp_path / "smooth")
    rc = run_cli(["smooth", "--fn", files["dist"], "--set", files["E"],
                  "--q", files["Q"], "--eps", "0.1", "--out", out])
    assert rc == 0
    cert = load_path(os.path.join(out, "certificate.json"))
    assert cert["c1_pass"] is True


def test_prescribe_command(files, tmp_path):
    out = str(tmp_path / "presc")
    rc = run_cli(["prescribe", "--q", files["Q"], "--set", files["E"],
                  "--op", files["op"], "--r", "0.4", "--s", "0.05",
                  "--kmax", "1", "--out", out])
    assert rc == 0
    cert = load_path(os.path.join(out, "certificate.json"))
    assert dec_float(cert["exactness_residual"]) <= 1e-9


def test_prescribe_nan_residual_fails(files, tmp_path, monkeypatch, capsys):
    # g is NaN at the centers only, which lip_estimate's random pairs never
    # hit, so the exactness residual is NaN at every center; a running
    # max(worst, nan) used to drop it and certify a residual of 0
    plain = LocalAffineSurgeryFn.eval

    def nan_at_centers(self, X):
        X = np.asarray(X, dtype=float)
        out = plain(self, X)
        out[(X[:, None] == self.centers).all(axis=2).any(axis=1)] = np.nan
        return out

    monkeypatch.setattr(LocalAffineSurgeryFn, "eval", nan_at_centers)
    out = str(tmp_path / "presc")
    rc = run_cli(["prescribe", "--q", files["Q"], "--set", files["E"],
                  "--op", files["op"], "--r", "0.4", "--s", "0.05",
                  "--kmax", "1", "--out", out])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "certificate.json"))


def test_prescribe_empty_net_level(files, tmp_path, capsys):
    # no candidate of E lies 1/2 inside Q, so net level 1 is empty
    E = str(tmp_path / "E_corner.json")
    dump_path(box_region([0.9, 0.9], [0.95, 0.95]).to_doc(), E)
    Q = str(tmp_path / "Q_unit.json")
    dump_path(box_region([-1.0, -1.0], [1.0, 1.0]).to_doc(), Q)
    out = str(tmp_path / "presc")
    rc = run_cli(["prescribe", "--q", Q, "--set", E, "--op", files["op"],
                  "--r", "0.4", "--s", "0.05", "--kmax", "1", "--out", out])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "configuration error: no centers: gamma is empty\n"
    assert not os.path.exists(out)


def test_plot_roundtrip_lfgf(files, tmp_path):
    svg_out = str(tmp_path / "f.svg")
    lfgf = str(tmp_path / "f.lfgf")
    rc = run_cli(["plot", "--fn", files["fn"], "--bbox=-1,-1;1,1",
                  "--res", "16", "--lfgf", lfgf, "--out", svg_out])
    assert rc == 0
    vals, bb = gridfile.read_grid(lfgf)
    assert vals.shape == (16, 16, 2)
    assert np.allclose(bb[0], [-1, -1]) and np.allclose(bb[1], [1, 1])
    svg2 = str(tmp_path / "f2.svg")
    assert run_cli(["plot", "--grid", lfgf, "--out", svg2]) == 0
    with open(svg2) as fh:
        assert fh.read().startswith("<svg")


def _reference_heatmap(values, bbox, title="", cell_px=4):
    """heatmap_svg written one cell at a time with Python's round()."""
    nx, ny = values.shape
    vmin, vmax = float(np.min(values)), float(np.max(values))
    spread = vmax - vmin if vmax > vmin else 1.0
    w, h = nx * cell_px, ny * cell_px
    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
           'viewBox="0 0 %d %d">' % (w, h, w, h),
           "<!-- range [%s, %s] bbox lo=%s hi=%s -->"
           % (enc_float(vmin), enc_float(vmax),
              [enc_float(v) for v in np.asarray(bbox[0]).ravel()],
              [enc_float(v) for v in np.asarray(bbox[1]).ravel()])]
    if title:
        out.append("<title>%s</title>" % title)
    for i in range(nx):
        for j in range(ny):
            t = float((values[i, j] - vmin) / spread)
            r, g, b = TABLE[min(max(round(t * 255.0), 0), 255)]
            out.append('<rect x="%d" y="%d" width="%d" height="%d" '
                       'fill="#%02x%02x%02x"/>'
                       % (i * cell_px, (ny - 1 - j) * cell_px, cell_px,
                          cell_px, r, g, b))
    out.append("</svg>")
    return "\n".join(out)


def test_heatmap_matches_per_cell_renderer():
    rng = np.random.default_rng(4)
    bbox = (np.array([-1.0, 0.5]), np.array([2.0, 3.0]))
    fields = [
        rng.normal(size=(13, 9)),
        np.full((5, 7), 0.3),
        # k/510 scales to k/2: every odd k is a rounding tie
        rng.permutation(np.arange(511.0)).reshape(7, 73) / 510.0,
        -3.0 + rng.integers(0, 511, (20, 20)) / 510.0 * 6.0,
    ]
    for values in fields:
        for title in ("", "g"):
            got = svg.heatmap_svg(values, bbox, title=title)
            assert got == _reference_heatmap(values, bbox, title=title)


def test_plot_nan_grid_leaves_no_svg(tmp_path):
    vals = np.random.default_rng(0).random((8, 8, 1))
    vals[2, 3, 0] = np.nan
    lfgf = str(tmp_path / "nan.lfgf")
    gridfile.write_grid(lfgf, vals, (np.zeros(2), np.ones(2)))
    out = tmp_path / "nan.svg"
    assert run_cli(["plot", "--grid", lfgf, "--out", str(out)]) == 2
    assert not out.exists()


def _set_path(doc, path, value):
    """Set doc[path[0]][path[1]]... to value."""
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def test_exit_code_config_errors(files, tmp_path):
    assert run_cli(["cyl", "--op", str(tmp_path / "missing.json")]) == 2
    assert run_cli(["xi", "--region", files["Q"], "--p", "1,0",
                    "--space", "l7:2", "--alpha", "0.4",
                    "--grid", "0.25"]) == 2
    assert run_cli(["plot", "--out", str(tmp_path / "x.svg")]) == 2
    # a JSON document whose top level is not an object
    arr = str(tmp_path / "array.json")
    dump_path([1, 2], arr)
    out = str(tmp_path / "out")
    assert run_cli(["cyl", "--op", arr]) == 2
    assert run_cli(["xi", "--region", arr, "--p", "1,0", "--alpha", "0.4",
                    "--grid", "0.25"]) == 2
    assert run_cli(["steep", "--region", arr, "--p", "1,0", "--alpha", "0.4",
                    "--grid", "0.25", "--out", out]) == 2
    assert run_cli(["verify", "--fn", files["fn"], "--point", "0,0",
                    "--ops", arr, "--scales", "0.1"]) == 2
    assert run_cli(["plot", "--fn", arr, "--bbox", "0,0;1,1",
                    "--out", str(tmp_path / "x.svg")]) == 2
    # an output path that is a directory
    assert run_cli(["cantor", "--level", "1", "--out", str(tmp_path)]) == 2
    # an empty or mirrored bounding box
    assert run_cli(["plot", "--fn", files["fn"], "--bbox", "1,1;0,0",
                    "--out", str(tmp_path / "x.svg")]) == 2
    assert not os.path.exists(tmp_path / "x.svg")
    # a map document with a non-finite entry, drawn and checked exactly
    for v in ("inf", "nan"):
        doc = fn_to_file_doc(LinearFn(np.eye(2)))
        doc["dag"]["matrix"][0][0] = v
        bad = str(tmp_path / (v + ".json"))
        dump_path(doc, bad)
        with np.errstate(invalid="ignore"):  # inf * 0 in the float drawing
            assert run_cli(["plot", "--fn", bad, "--bbox", "0,0;1,1",
                            "--out", str(tmp_path / "x.svg")]) == 2
        for exact in ([], ["--exact"]):
            assert run_cli(["verify", "--fn", bad, "--point", "0.1,0.1",
                            "--ops", files["op_inf"], "--scales", "0.1"]
                           + exact) == 2
    # malformed documents, each refused where it is decoded
    xi = ["xi", "--p", "1,0", "--alpha", "0.4", "--grid", "0.25", "--region"]
    smooth = ["smooth", "--set", files["E"], "--q", files["Q"], "--eps", "0.1",
              "--out", out, "--fn"]
    pumap = ["pumap", "--u", files["Q"], "--op", files["op"], "--theta", "0.3",
             "--out", out, "--set"]
    for argv, name, path, value in [
            (xi, "Q", ("lo", 0, 0), None),
            (xi, "Q", ("lo",), 5.0),
            (xi, "Q", ("open",), None),
            (["cyl", "--op"], "op", ("space", "dom", "descriptor", "p"), None),
            (["cyl", "--op"], "op", ("space", "dom", "descriptor", "p"), "nan"),
            (["cyl", "--op"], "op", ("space", "dom", "dim"), "two"),
            (smooth, "dist", ("dag", "center"), ["0x1p-1"]),
            (smooth, "dist", ("dim",), 3),
            # tags of the products that vecscale took over
            (smooth, "dist", ("dag", "node"), "outer"),
            (smooth, "dist", ("dag", "node"), "product"),
            (pumap, "E", ("meta", "level"), None),
            (pumap, "E", ("meta", "ratio"), "0x1p-2")]:
        doc = load_path(files[name])
        _set_path(doc, path, value)
        bad = str(tmp_path / "bad.json")
        dump_path(doc, bad)
        assert run_cli(argv + [bad]) == 2, (name, path, value)
    # scan radii that are not positive and finite, in float and exact mode
    for scales in ("-0.1", "0", "inf", "nan", "0.1,-0.1"):
        for exact in ([], ["--exact"]):
            assert run_cli(["verify", "--fn", files["fn"], "--point", "0,0",
                            "--ops", files["op"], "--scales=" + scales]
                           + exact) == 2


@pytest.mark.parametrize("command, grid, code", [
    ("xi", "nan", 2), ("xi", "inf", 2), ("steep", "inf", 2),
    ("xi", "1e-300", 4),  # finite, but the lattice would not fit in memory
    ("xi", "1e308", 2),  # finite, but the lattice nodes would not be
])
def test_lattice_step_finite_and_bounded(files, tmp_path, command, grid, code):
    argv = [command, "--region", files["Q"], "--p", "1,0", "--alpha", "0.4",
            "--grid", grid]
    if command == "steep":
        argv += ["--out", str(tmp_path / "steep")]
    assert run_cli(argv) == code


@pytest.mark.parametrize("argv", [
    ["game", "--set", "{E}", "--q", "{Q}", "--op", "{op_inf}", "--rounds", "0"],
    ["smooth", "--fn", "{dist}", "--set", "{E}", "--q", "{Q}", "--eps", "0"],
    ["smooth", "--fn", "{dist}", "--set", "{E}", "--q", "{Q}", "--eps", "-1"],
    ["pumap", "--set", "{E}", "--u", "{Q}", "--op", "{op}", "--theta", "0.3",
     "--budget", "-1"],
    ["pumap", "--set", "{E}", "--u", "{Q}", "--op", "{op}", "--theta", "nan"],
    ["pumap", "--set", "{E}", "--u", "{Q}", "--op", "{op}", "--theta", "inf"],
    # the zero operator builds at once, so these reach the certificate
    ["pumap", "--set", "{E}", "--u", "{Q}", "--op", "{op0}", "--theta", "0.3",
     "--points", "0"],
    ["pumap", "--set", "{E}", "--u", "{Q}", "--op", "{op0}", "--theta", "0.3",
     "--points", "-5"],
    ["verify", "--fn", "{fn}", "--point", "0,0", "--ops", "{op}",
     "--scales", "0.1", "--tol", "nan", "--require-pass"],
    ["verify", "--fn", "{fn}", "--point", "0,0", "--ops", "{op}",
     "--scales", "0.1", "--tol", "-1"],
    ["verify", "--fn", "{fn}", "--point", "0,0", "--ops", "{op}",
     "--scales", "0.1", "--dirs", "-1"],
    ["cyl", "--op", "{op}", "--budget", "-1"],
    ["plot", "--fn", "{fn}", "--bbox", "0,0;1,1", "--res", "0"],
    ["plot", "--fn", "{fn}", "--bbox", "0,0;1,1", "--res", "-3"],
])
def test_exit_code_bad_numeric_flags(files, tmp_path, argv):
    argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path / "o")]
    assert run_cli(argv) == 2


# one valid, cheap run of each subcommand; pumap takes the zero operator, as
# with a nonzero one a huge --theta is a valid request that builds for seconds
SWEEP_BASE = {
    "cantor": ["--level", "1", "--out", "{tmp}/E.json"],
    "cyl": ["--op", "{op}"],
    "xi": ["--region", "{Q}", "--p", "1,0", "--alpha", "0.4", "--grid", "0.25"],
    "steep": ["--region", "{Q}", "--p", "1,0", "--alpha", "0.4", "--grid", "0.25",
              "--out", "{tmp}/o"],
    "pumap": ["--set", "{E}", "--u", "{Q}", "--op", "{op0}", "--theta", "0.3",
              "--out", "{tmp}/o"],
    "prescribe": ["--q", "{Q}", "--set", "{E}", "--op", "{op}", "--r", "0.4",
                  "--s", "0.05", "--out", "{tmp}/o"],
    "game": ["--set", "{E}", "--q", "{Q}", "--op", "{op_inf}", "--rounds", "1",
             "--out", "{tmp}/o"],
    "smooth": ["--fn", "{dist}", "--set", "{E}", "--q", "{Q}", "--eps", "0.1",
               "--out", "{tmp}/o"],
    "verify": ["--fn", "{fn}", "--point", "0,0", "--ops", "{op}", "--scales", "0.1"],
    "plot": ["--fn", "{fn}", "--bbox", "0,0;1,1", "--out", "{tmp}/x.svg"],
}
SWEEP_VALUES = {float: ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-300"],
                int: ["-1", "0", str(2 ** 63)]}


def _numeric_flags():
    """(subcommand, flag, type) of every int or float flag the parser takes."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, a.option_strings[0], a.type) for name, sp in sub.choices.items()
            for a in sp._actions if a.type in (int, float)]


# every numeric flag of every subcommand, given each extreme value as
# --flag=value (so -inf is read as a value): a run ends with a documented
# exit code within a second, never with a traceback
@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, flag, kind in _numeric_flags()
    for value in SWEEP_VALUES[kind]])
def test_numeric_flag_sweep(files, command, flag, value):
    argv = [command] + [a.format(**files) for a in SWEEP_BASE[command]]
    start = time.perf_counter()
    assert run_cli(argv + ["%s=%s" % (flag, value)]) in (0, 2, 3, 4)
    assert time.perf_counter() - start < 1.0


# each size flag one step past DP_NODE_CAP: the library refuses the size
# where it computes it, before it allocates, exit 4
@pytest.mark.parametrize("argv", [
    ["cantor", "--level", "11"],  # 4^11 boxes
    ["prescribe", "--q", "{Q}", "--set", "{E}", "--op", "{op}", "--r", "0.4",
     "--s", "0.05", "--kmax", "9"],  # a 2049 x 2049 net sample of E's box
    ["plot", "--fn", "{fn}", "--bbox", "0,0;1,1", "--res", "2001"],
    ["pumap", "--set", "{E}", "--u", "{Q}", "--op", "{op0}", "--theta", "0.3",
     "--points", "200001"],  # 20 samples a point
    ["verify", "--fn", "{fn}", "--point", "0,0", "--ops", "{op}",
     "--scales", "0.1", "--dirs", "4000001"],
    ["cyl", "--op", "{op}", "--budget", "4000000"],  # the identity and 4M bases
    ["xi", "--region", "{Q}", "--p", "1,0", "--alpha", "0.4", "--grid", "0.25",
     "--k", "1000"],  # 2001 x 2001 candidate steps
    # 400 copies of the unit box: 400 edge-table windows of 103 x 103 nodes
    ["xi", "--region", "{copies}", "--p", "1,0", "--alpha", "0.4", "--grid", "0.01"],
])
def test_exit_code_size_flag_past_the_cap(files, tmp_path, capsys, argv):
    argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path / "o")]
    start = time.perf_counter()
    assert run_cli(argv) == 4
    assert time.perf_counter() - start < 1.0
    assert "exceeds the cap of %d" % DP_NODE_CAP in capsys.readouterr().err


# a scan point that is not finite or does not fit the map, an operator whose
# codomain does not fit it, and an exact scan of a map with a Euclidean norm:
# each is refused before any scan, exit 2
@pytest.mark.parametrize("point, op, exact, message", [
    ("0.5,nan", "scalar", [], "the point must be finite"),
    ("0.5,inf", "scalar", [], "the point must be finite"),
    ("0.5", "scalar", [], "the point has 1 coordinates"),
    ("0.5,0.5", "op", [], "the map has 1 outputs"),
    ("0.5,0.5", "scalar", ["--exact"], "exact norm needs"),
])
def test_exit_code_verify_bad_input(files, tmp_path, l2_2, capsys, point, op,
                                    exact, message):
    files["scalar"] = str(tmp_path / "scalar.json")
    dump_path(LinOp.build(np.array([[1.0, 0.0]]), l2_2, lp_space(1, 2)).to_doc(),
              files["scalar"])
    argv = ["verify", "--fn", files["dist"], "--point", point, "--ops",
            files[op], "--scales", "0.1", "--require-pass"] + exact
    assert run_cli(argv) == 2
    assert message in capsys.readouterr().err


# every region flag given an unbounded region: each construction needs a
# bounded one, so the run exits 2 before it makes its output directory
@pytest.mark.parametrize("argv", [
    ["xi", "--region", "{C}", "--p", "1,0", "--alpha", "0.4", "--grid", "0.25"],
    ["steep", "--region", "{C}", "--p", "1,0", "--alpha", "0.4",
     "--grid", "0.25"],
    ["pumap", "--set", "{C}", "--u", "{Q}", "--op", "{op}", "--theta", "0.3"],
    ["pumap", "--set", "{E}", "--u", "{C}", "--op", "{op}", "--theta", "0.3"],
    # the zero operator builds without U, so this reaches the certificate
    ["pumap", "--set", "{E}", "--u", "{C}", "--op", "{op0}", "--theta", "0.3"],
    ["prescribe", "--q", "{C}", "--set", "{E}", "--op", "{op}", "--r", "0.4",
     "--s", "0.05", "--kmax", "1"],
    ["prescribe", "--q", "{Q}", "--set", "{C}", "--op", "{op}", "--r", "0.4",
     "--s", "0.05", "--kmax", "1"],
    ["game", "--set", "{C}", "--q", "{Q}", "--op", "{op_inf}", "--rounds", "2"],
    ["game", "--set", "{E}", "--q", "{C}", "--op", "{op_inf}", "--rounds", "2"],
    ["smooth", "--fn", "{dist}", "--set", "{C}", "--q", "{Q}", "--eps", "0.1"],
    ["smooth", "--fn", "{dist}", "--set", "{E}", "--q", "{C}", "--eps", "0.1"],
])
def test_exit_code_unbounded_region(files, tmp_path, argv):
    C = str(tmp_path / "C.json")
    dump_path(Complement(box_region([5.0, 5.0], [6.0, 6.0])).to_doc(), C)
    out = tmp_path / "o"
    argv = [a.format(C=C, **files) for a in argv] + ["--out", str(out)]
    assert run_cli(argv) == 2
    assert not out.exists()


# a 3-d box, operator or map around the 2-d set or functional: each
# subcommand's one dimension check refuses it where the documents are
# loaded, exit 2
@pytest.mark.parametrize("argv, message", [
    (["game", "--set", "{E}", "--q", "{Q3}", "--op", "{op_inf}",
      "--rounds", "2"], "the region has 3"),
    (["prescribe", "--q", "{Q3}", "--set", "{E}", "--op", "{op}", "--r", "0.4",
      "--s", "0.05", "--kmax", "1"], "the region has 3"),
    (["prescribe", "--q", "{Q}", "--set", "{E}", "--op", "{op3}", "--r", "0.4",
      "--s", "0.05", "--kmax", "1"], "the space has 3"),
    (["xi", "--region", "{Q3}", "--p", "1,0", "--alpha", "0.4",
      "--grid", "0.25"], "the region has 3"),
    (["steep", "--region", "{Q3}", "--p", "1,0", "--alpha", "0.4",
      "--grid", "0.25"], "the region has 3"),
    (["pumap", "--set", "{E}", "--u", "{Q3}", "--op", "{op}", "--theta", "0.3"],
     "the region has 3"),
    (["smooth", "--fn", "{dist}", "--set", "{E}", "--q", "{Q3}", "--eps", "0.1"],
     "the region has 3"),
    (["smooth", "--fn", "{dist3}", "--set", "{E}", "--q", "{Q}", "--eps", "0.1"],
     "the map has 3"),
    (["plot", "--fn", "{dist3}", "--bbox", "0,0;1,1"], "the map has 3"),
])
def test_exit_code_dimension_mismatch(files, tmp_path, capsys, argv, message):
    files["Q3"] = str(tmp_path / "Q3.json")
    dump_path(box_region([-1.0] * 3, [2.0] * 3).to_doc(), files["Q3"])
    files["op3"] = str(tmp_path / "op3.json")
    l2_3 = lp_space(3, 2)
    dump_path(LinOp.build(0.3 * np.eye(3), l2_3, l2_3).to_doc(), files["op3"])
    files["dist3"] = str(tmp_path / "dist3.json")
    dump_path(fn_to_file_doc(DistFn(l2_3, np.full(3, 0.5))), files["dist3"])
    argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path / "o")]
    assert run_cli(argv) == 2
    assert "points have 2 coordinates; " + message in capsys.readouterr().err


# every subcommand that reads documents, with small settings, and the
# documents it reads; the fuzz below breaks one of them
FUZZ_COMMANDS = [
    ("cyl --op {op} --budget 4", ("op",)),
    ("xi --region {Q} --p 1,0 --alpha 0.4 --grid 0.5", ("Q",)),
    ("steep --region {Q} --p 1,0 --alpha 0.4 --grid 0.5 --out {out}", ("Q",)),
    ("pumap --set {E} --u {U} --op {op} --theta 0.3 --points 5 --out {out}",
     ("E", "U", "op")),
    ("prescribe --q {Q} --set {E} --op {op} --fn {fn} --r 0.4 --s 0.05 "
     "--kmax 1 --out {out}", ("Q", "E", "op", "fn")),
    ("game --set {E} --q {Q} --op {op_inf} --rounds 1 --out {out}",
     ("E", "Q", "op_inf")),
    ("smooth --fn {dist} --set {E} --q {Q} --eps 0.1 --out {out}",
     ("dist", "E", "Q")),
    ("verify --fn {fn} --point 0.1,0.1 --ops {op} --scales 0.1 --dirs 4",
     ("fn", "op")),
    ("plot --fn {fn} --bbox 0,0;1,1 --res 4 --out {out}", ("fn",)),
]


def _doc_paths(doc, path=()):
    """The key paths of doc's nodes, below the top level.  A region's meta
    (read only by pu_cover, tested above) and an operator's descriptor
    label (read by no decoder) are left out."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        if key == "meta" or path + (key,) == ("descriptor",):
            continue
        yield path + (key,), value
        yield from _doc_paths(value, path + (key,))


@st.composite
def broken_documents(draw, docs):
    """(argv template, name, broken document): one document of one
    subcommand made not an object, short of a key, wrongly typed or null,
    non-finite, or of the wrong dimension."""
    template, names = draw(st.sampled_from(FUZZ_COMMANDS))
    name = draw(st.sampled_from(names))
    doc = json.loads(json.dumps(docs[name]))
    nodes = list(_doc_paths(doc))
    how = draw(st.sampled_from(["not-object", "missing", "type", "non-finite",
                                "dimension"]))
    if how == "not-object":
        return template, name, draw(st.one_of(
            st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4),
            st.lists(st.integers(-3, 3), max_size=3)))
    if how == "missing":
        path = draw(st.sampled_from([p for p, _ in nodes if isinstance(p[-1], str)
                                     and p[-1] != "lip"]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    elif how == "type":
        path = draw(st.sampled_from([p for p, _ in nodes]))
        _set_path(doc, path, draw(st.sampled_from([None, {}, [], "xyz"])))
    elif how == "non-finite":
        path = draw(st.sampled_from([p for p, v in nodes
                                     if isinstance(v, str) and "0x" in v]))
        _set_path(doc, path, draw(st.sampled_from(
            ["inf", "-inf", "nan", math.inf, math.nan])))
    else:
        sized = [(p, v) for p, v in nodes if isinstance(v, list)
                 or (isinstance(v, int) and p[-1] in ("dim", "cod"))]
        path, value = draw(st.sampled_from(sized))
        if not isinstance(value, list):
            value += 1
        elif draw(st.booleans()):
            value = value[:-1]
        else:
            value = value + value[-1:]
        _set_path(doc, path, value)
    return template, name, doc


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    l2, linf = lp_space(2, 2), lp_space(2, "inf")
    M = np.array([[0.3, 0.0], [0.0, -0.2]])
    docs = {
        "E": gen_four_corner(1).to_doc(),
        "Q": box_region([-1.0, -1.0], [2.0, 2.0]).to_doc(),
        "U": box_region([-2.0, -2.0], [3.0, 3.0], open_=True).to_doc(),
        "op": LinOp.build(M, l2, l2).to_doc(),
        "op_inf": LinOp.build(M, linf, linf).to_doc(),
        "fn": fn_to_file_doc(LinearFn(0.4 * np.eye(2), lip_bound=0.4)),
        "dist": fn_to_file_doc(DistFn(l2, np.array([0.5, 0.5]))),
    }
    paths = {name: str(root / (name + ".json")) for name in docs}
    for name, doc in docs.items():
        dump_path(doc, paths[name])
    return docs, paths, str(root)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_malformed_documents_exit_cleanly(fuzz_files, data):
    # every document-reading subcommand refuses a broken document with
    # exit 2, 3 or 4 and no traceback
    docs, paths, root = fuzz_files
    template, name, doc = data.draw(broken_documents(docs))
    bad = os.path.join(root, "broken.json")
    dump_path(doc, bad)
    files = dict(paths, out=os.path.join(root, "out"))
    files[name] = bad
    argv = [a.format(**files) for a in template.split()]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(argv)
    assert code in (2, 3, 4), (argv, doc)
    assert "Traceback" not in err.getvalue()


def test_steep_empty_region_zero_certificate(tmp_path):
    G = str(tmp_path / "G.json")
    dump_path(EmptyRegion(2).to_doc(), G)
    out = tmp_path / "steep"
    rc = run_cli(["steep", "--region", G, "--p", "1,0", "--alpha", "0.3",
                  "--grid", "0.2", "--svg", "--out", str(out)])
    assert rc == 0
    cert = load_path(str(out / "certificate.json"))
    assert sorted(cert) == ["gap", "zero"]
    assert cert["zero"]["ok"] is True


def test_steep_tiny_functional_is_not_zero(files, tmp_path):
    # a functional below 1e-8 is not the zero functional: it gets a grid
    out = tmp_path / "steep"
    rc = run_cli(["steep", "--region", files["Q"], "--p", "1e-9,0", "--alpha", "0.3",
                  "--grid", "0.2", "--out", str(out)])
    assert rc == 0
    assert load_path(str(out / "g.json"))["dag"]["node"] == "grid2d"


def test_exit_code_resolution_error(files, tmp_path):
    # alpha >= 1 violates the cone-parameter contract
    rc = run_cli(["xi", "--region", files["Q"], "--p", "1,0",
                  "--alpha", "1.5", "--grid", "0.25"])
    assert rc == 2 or rc == 4


def test_determinism_byte_identical(files, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / ("g_" + tag))
        rc = run_cli(["game", "--set", files["E"], "--q", files["Q"],
                      "--op", files["op_inf"], "--rounds", "2",
                      "--policy", "seeded-random", "--seed", "7",
                      "--out", out])
        assert rc == 0
        outs.append(out)
    for name in ("limit.json", "certificate.json", "levels.csv"):
        with open(os.path.join(outs[0], name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            b = fh.read()
        assert a == b, name


# the ten subcommands listed in the README's "Command line" section
SUBCOMMANDS = {"cantor", "cyl", "xi", "steep", "pumap", "prescribe", "game",
               "smooth", "verify", "plot"}
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "pyproject.toml")


def _declared_console_script(name):
    """The ``module:function`` that ``[project.scripts]`` declares for
    ``name``, checked to import and to be callable."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"[project.scripts] declares no {name!r}"
    module, _, attr = scripts[name].partition(":")
    target = importlib.import_module(module.strip())
    for part in attr.strip().split("."):
        target = getattr(target, part)
    assert callable(target)
    return module.strip(), attr.strip()


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert "cantor" in proc.stdout
    assert proc.stdout.startswith("usage: lipforge")
    choices = re.search(r"\{([a-z_,]+)\}", proc.stdout)
    assert choices is not None, proc.stdout
    assert set(choices.group(1).split(",")) == SUBCOMMANDS


def test_console_script_installed(tmp_path):
    # the declared entry point, run through the wrapper pip generates for a
    # console script, whether or not an installer has put it on PATH; the
    # child imports the same lipforge package as this test
    module, attr = _declared_console_script("lipforge")
    script = tmp_path / "lipforge"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = 'lipforge'\n"
        f"    sys.exit({attr}())\n")
    script.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=PKG_PARENT)
    proc = subprocess.run([str(script), "--help"], capture_output=True,
                          env=env, text=True)
    _assert_help(proc)


@pytest.mark.skipif(shutil.which("lipforge") is None,
                    reason="lipforge console script not installed")
def test_console_script_on_path():
    proc = subprocess.run(["lipforge", "--help"], capture_output=True,
                          text=True)
    _assert_help(proc)
