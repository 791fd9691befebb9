import importlib
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import lipforge
from lipforge import gridfile, svg
from lipforge.colormap import TABLE
from lipforge.cli import run_cli
from lipforge.fn import DistFn, LinearFn, fn_to_file_doc
from lipforge.regions import box_region, gen_four_corner
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
    paths["op"] = str(tmp_path / "op.json")
    T = LinOp.build(np.array([[0.3, 0.0], [0.0, -0.2]]), l2_2, l2_2)
    dump_path(T.to_doc(), paths["op"])
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
    # scan radii that are not positive and finite, in float and exact mode
    for scales in ("-0.1", "0", "inf", "nan", "0.1,-0.1"):
        for exact in ([], ["--exact"]):
            assert run_cli(["verify", "--fn", files["fn"], "--point", "0,0",
                            "--ops", files["op"], "--scales=" + scales]
                           + exact) == 2


@pytest.mark.parametrize("command, grid, code", [
    ("xi", "nan", 2), ("xi", "inf", 2), ("steep", "inf", 2),
    ("xi", "1e-300", 4),  # finite, but the lattice would not fit in memory
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
])
def test_exit_code_bad_numeric_flags(files, tmp_path, argv):
    argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path / "o")]
    assert run_cli(argv) == 2


def test_exit_code_resolution_error(files, tmp_path):
    # alpha >= 1 violates the cone-parameter contract
    rc = run_cli(["xi", "--region", files["Q"], "--p", "1,0",
                  "--alpha", "1.5", "--grid", "0.25"])
    assert rc == 2 or rc == 4


def test_thread_cap_env_rejected(files, tmp_path):
    env = dict(os.environ, LIPFORGE_THREADS="banana", PYTHONPATH=PKG_PARENT)
    proc = subprocess.run(
        [sys.executable, "-m", "lipforge.cli", "cyl", "--op", files["op"]],
        capture_output=True, env=env, text=True)
    assert proc.returncode == 2


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
