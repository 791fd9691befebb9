"""The four benchmark workloads: seeded inputs, one pass, and its checks.

Each workload has a ``setup(seed, workdir)`` that builds the inputs and a
``run_pass(inputs, out)`` that runs one pass against them. A pass is a
closed loop: each operation starts only after the previous one returned.
``run_pass`` returns a ``PassResult`` with the pass's build and certificate
times, its operation counts and the canonical record its digest is taken
from. An operation fails if it raises, returns an unexpected exit code or
has a certificate that does not hold.

Library names are looked up through their modules at call time (never
bound here by ``from ... import``), so the traced run sees the wrappers
that ``tracing.py`` installs.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from lipforge import cli, fn, game, regions, serialize, spaces, steep

clock = time.perf_counter


@dataclass
class PassResult:
    build_s: float = 0.0
    certify_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    record: list = field(default_factory=list)

    def digest(self):
        return output_digest(self.record)


def _canon(v):
    """Canonical JSON form: floats as C99 hex, rationals as p/q strings."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v).hex()
    if isinstance(v, Fraction):
        return "%d/%d" % (v.numerator, v.denominator)
    if isinstance(v, str):
        return v
    if isinstance(v, dict):
        return {str(k): _canon(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, np.ndarray)):
        return [_canon(x) for x in v]
    raise TypeError("no canonical form for %r" % type(v))


def output_digest(record):
    text = json.dumps(_canon(record), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _failed(what):
    print("operation failed: %s" % what, file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# pumap: build_pu_map + pu_map_certificate on criterion 07's inputs
# ---------------------------------------------------------------------------

# the default steep grid is 1/512 on the level-3 cover; 1/128 keeps the same
# kernels at about a fifteenth of the time, so a run holds several passes
PUMAP_H = 1.0 / 128.0
# finite-difference step of the certificate: half a grid cell, since a step
# of one cell leaves no point of the level-3 cover 1.5 steps inside H
PUMAP_FD = PUMAP_H / 2.0
# criterion 07 takes theta = 0.2; on the 1/128 grid the finite-difference
# residual (about 0.23) needs the wider budget
PUMAP_THETA = 0.3
# independent certificate samples per build: one takes about 0.17 s, and
# with 4 the certificate time of a run spread twice as much as its build time
PUMAP_CERTS = 16


class PuMap:
    name = "pumap"

    @staticmethod
    def setup(seed, workdir):
        space = spaces.lp_space(2, 2)
        return {
            "E": regions.gen_four_corner(3),
            "U": regions.box_region([-2.0, -2.0], [3.0, 3.0], open_=True),
            "T": spaces.LinOp.build(np.array([[0.5, 0.0], [0.0, 0.0]]),
                                    space, space),
            "theta": PUMAP_THETA,
            "seed": seed,
        }

    @staticmethod
    def run_pass(inp, out):
        res = PassResult(attempted=1)
        T, U, theta = inp["T"], inp["U"], inp["theta"]
        try:
            t0 = clock()
            g, H = steep.build_pu_map(inp["E"], U, T, theta, h=PUMAP_H,
                                      cover_budget=3, seed=inp["seed"])
            t1 = clock()
            certs = [steep.pu_map_certificate(
                g, H, U, T, theta, n_points=200, fd_step=PUMAP_FD,
                seed=PUMAP_CERTS * inp["seed"] + j) for j in range(PUMAP_CERTS)]
            t2 = clock()
        except Exception:
            _failed("pumap")
            res.failed = 1
            return res
        res.build_s, res.certify_s = t1 - t0, t2 - t1
        ok = all(all(v for k, v in cert.items() if k.endswith("_ok"))
                 and cert["n_H_points"] >= 200 for cert in certs)
        res.failed = int(not ok)
        res.record = [certs, [p["eps"] for p in g.parts], g.gap]
        return res


# ---------------------------------------------------------------------------
# game: run_bm_game + certify_transcript on criterion 03's inputs
# ---------------------------------------------------------------------------

# rounds per game: criterion 03 plays 4, whose certificate takes about 10 s
# over the three policies; 3 rounds use the same exact kernels in about 2 s
GAME_ROUNDS = 3

# identical games played per policy; build_s takes their median, since one
# game (about 0.015 s) is too short a stretch to time steadily
GAME_BUILDS = 8


class Game:
    name = "game"

    @staticmethod
    def setup(seed, workdir):
        dom = spaces.lp_space(2, "inf")
        cod = spaces.lp_space(2, "inf")
        return {
            "E": regions.gen_four_corner(2),
            "Q": regions.box_region([-1.0, -1.0], [2.0, 2.0]),
            "T": spaces.LinOp.build(np.array([[0.4, 0.0], [0.0, -0.3]]),
                                    dom, cod),
            "seed": seed,
        }

    @staticmethod
    def run_pass(inp, out):
        res = PassResult()
        T, Q, seed = inp["T"], inp["Q"], inp["seed"]
        for name, cls in sorted(game.POLICIES.items()):
            res.attempted += 1
            try:
                builds, radii = [], set()
                for _ in range(GAME_BUILDS):
                    t0 = clock()
                    t = game.run_bm_game(inp["E"], Q, T, cls(T.dom, T.cod, Q,
                                                             seed=seed),
                                           GAME_ROUNDS)
                    builds.append(clock() - t0)
                    radii.add(tuple(rd.alpha for rd in t.rounds))
                t1 = clock()
                certs = game.certify_transcript(t, dirs=4, seed=seed)
                t2 = clock()
            except Exception:
                _failed("game %s" % name)
                res.failed += 1
                continue
            res.build_s += statistics.median(builds)
            res.certify_s += t2 - t1
            ok = len(radii) == 1 and all(
                c["error"] <= c["bound"] + 1e-15
                and abs(c["bound"] - 1.0 / c["level"]) <= 1e-15
                and c["points"] >= 1 for c in certs)
            res.failed += int(not ok)
            res.record.append([name, certs, [rd.alpha for rd in t.rounds]])
        return res


# ---------------------------------------------------------------------------
# cyl: cyl_constant over criterion 06's seeded operators
# ---------------------------------------------------------------------------

# operators per pass: one per (dom, cod) pair, then l2 -> l2 at budget 64
CYL_PAIRS = 18
CYL_L2 = 4


class Cyl:
    name = "cyl"

    @staticmethod
    def setup(seed, workdir):
        rng = np.random.default_rng(seed)
        l2 = spaces.lp_space(2, 2)
        kinds = [spaces.lp_space(2, 1), l2, spaces.lp_space(2, "inf")]
        # criterion 06 draws 100 operators cycling the 9 (dom, cod) pairs,
        # then 20 l2 -> l2; a pass takes one cycle and two l2 -> l2, the
        # same mix at a tenth of the time, so a run holds many passes
        ops = [(kinds[i % 3], kinds[(i // 3) % 3], rng.normal(size=(2, 2)),
                32) for i in range(CYL_PAIRS)]
        ops += [(l2, l2, rng.normal(size=(2, 2)), 64) for _ in range(CYL_L2)]
        return {"ops": ops, "l2": l2, "seed": seed}

    @staticmethod
    def run_pass(inp, out):
        res = PassResult()
        for i, (dom, cod, M, budget) in enumerate(inp["ops"]):
            res.attempted += 1
            try:
                # the certified norm bracket is the oracle the value is
                # checked against
                t0 = clock()
                T = spaces.LinOp.build(M, dom, cod)
                t1 = clock()
                v = spaces.cyl_constant(T, budget=budget, seed=inp["seed"] + i)
                t2 = clock()
            except Exception:
                _failed("cyl operator %d" % i)
                res.failed += 1
                continue
            res.certify_s += t1 - t0
            res.build_s += t2 - t1
            ok = v >= T.opnorm_lb - 1e-9
            if dom is inp["l2"] and cod is inp["l2"]:
                top = float(np.linalg.svd(M, compute_uv=False)[0])
                ok &= abs(v - top) <= 1e-6
            res.failed += int(not ok)
            res.record.append([v, T.opnorm_lb, T.opnorm_ub])
        return res


# ---------------------------------------------------------------------------
# cli: run_cli in-process over a fixed script
# ---------------------------------------------------------------------------

# steps whose time counts as certification; the others construct artifacts
CLI_CERTIFY_STEPS = ("verify",)


def _cli_script(d, o, seed):
    """(step name, argv, expected exit code) for one pass writing under o."""
    s = str(seed)
    p = lambda *parts: os.path.join(o, *parts)  # noqa: E731
    return [
        ("cantor", ["cantor", "--level", "4", "--out", p("E4.json")], 0),
        ("xi", ["xi", "--region", p("E4.json"), "--p", "1,0",
                "--alpha", "0.3", "--grid", "0.04", "--out", p("xi.json")], 0),
        ("steep", ["steep", "--region", d["unit"], "--p", "0.8,0.6",
                   "--alpha", "0.5", "--grid", "0.03125", "--svg",
                   "--seed", s, "--out", p("steep")], 0),
        ("smooth", ["smooth", "--fn", d["dist"], "--set", d["E_small"],
                    "--q", d["Q"], "--eps", "0.1", "--seed", s,
                    "--out", p("smooth")], 0),
        ("prescribe", ["prescribe", "--q", d["Q"], "--set", d["E1"],
                       "--op", d["op_l2"], "--r", "0.4", "--s", "0.05",
                       "--kmax", "2", "--seed", s, "--out", p("prescribe")], 0),
        ("game", ["game", "--set", d["E1"], "--q", d["Q"],
                  "--op", d["op_inf"], "--rounds", "2",
                  "--policy", "seeded-random", "--seed", s,
                  "--out", p("game")], 0),
        ("verify", ["verify", "--fn", p("game", "limit.json"),
                    "--point", "0.1,0.1", "--ops", d["op_inf"],
                    "--scales", "0.01,0.001,0.0001", "--exact",
                    "--seed", s, "--out", p("scan.json")], 0),
        ("plot_fn", ["plot", "--fn", p("steep", "g.json"),
                     "--bbox=-0.1,-0.1;1.1,1.1", "--res", "128",
                     "--lfgf", p("g.lfgf"), "--out", p("g_plot.svg")], 0),
        ("plot_grid", ["plot", "--grid", p("g.lfgf"),
                       "--out", p("grid_plot.svg")], 0),
        ("cyl", ["cyl", "--op", d["op_l2"], "--seed", s,
                 "--out", p("cyl.json")], 0),
    ]


CLI_STEPS = [name for name, _, _ in _cli_script(defaultdict(str), "", 0)]


def _dir_bytes(root):
    return {os.path.relpath(os.path.join(dp, f), root):
            os.path.getsize(os.path.join(dp, f))
            for dp, _, files in os.walk(root) for f in files}


# script runs per pass, each on its own seeded inputs: the work of one run
# of the script moves by about a tenth from seed to seed, two average it
CLI_SEEDS = 2


class Cli:
    name = "cli"

    @staticmethod
    def _setup_one(seed, workdir):
        rng = np.random.default_rng(seed)
        l2 = spaces.lp_space(2, 2)
        linf = spaces.lp_space(2, "inf")
        # diagonal-dominant seeded operators: ||T|| stays below 1 - r
        D = np.diag(rng.uniform(0.2, 0.3, 2) * rng.choice([-1.0, 1.0], 2))
        off = rng.uniform(-0.05, 0.05, (2, 2)) * (1 - np.eye(2))
        docs = {
            "unit": regions.box_region([0.0, 0.0], [1.0, 1.0]).to_doc(),
            "E1": regions.gen_four_corner(1).to_doc(),
            "E_small": regions.box_region([0.4, 0.4], [0.6, 0.6]).to_doc(),
            "Q": regions.box_region([-1.0, -1.0], [2.0, 2.0]).to_doc(),
            "op_l2": spaces.LinOp.build(D + off, l2, l2).to_doc(),
            "op_inf": spaces.LinOp.build(D, linf, linf).to_doc(),
            "dist": fn.fn_to_file_doc(fn.DistFn(l2, rng.uniform(0.3, 0.7, 2))),
        }
        os.makedirs(workdir)
        paths = {}
        for key, doc in docs.items():
            paths[key] = os.path.join(workdir, key + ".json")
            serialize.dump_path(doc, paths[key])
        return paths

    @staticmethod
    def setup(seed, workdir):
        seeds = [CLI_SEEDS * seed + k for k in range(CLI_SEEDS)]
        files = [Cli._setup_one(s, os.path.join(workdir, "in%d" % s))
                 for s in seeds]
        return {"files": files, "seeds": seeds, "workdir": workdir,
                "n_pass": 0}

    @staticmethod
    def run_pass(inp, out):
        """``out`` collects per-step wall times and bytes written."""
        res = PassResult()
        inp["n_pass"] += 1
        step_s = out.setdefault("step_s", {})
        out["bytes_written"] = 0
        sink = io.StringIO()
        for files, seed in zip(inp["files"], inp["seeds"]):
            o = os.path.join(inp["workdir"], "pass%d-%d" % (inp["n_pass"], seed))
            os.makedirs(o)
            try:
                for name, argv, want in _cli_script(files, o, seed):
                    res.attempted += 1
                    t0 = clock()
                    try:
                        with contextlib.redirect_stdout(sink), \
                                contextlib.redirect_stderr(sink):
                            rc = cli.run_cli(argv)
                    except Exception:
                        rc = None
                        _failed("cli %s" % name)
                    dt = clock() - t0
                    if name in CLI_CERTIFY_STEPS:
                        res.certify_s += dt
                    else:
                        res.build_s += dt
                    step_s[name] = step_s.get(name, 0.0) + dt
                    if rc != want:
                        print("cli %s exited %r, expected %d: %s"
                              % (name, rc, want, sink.getvalue()[-400:]),
                              file=sys.stderr)
                        res.failed += 1
                    res.record.append([seed, name, rc])
                files_out = _dir_bytes(o)
                out["bytes_written"] += sum(files_out.values())
                for rel in sorted(files_out):
                    if rel.endswith((".json", ".csv")):
                        with open(os.path.join(o, rel)) as fh:
                            res.record.append([seed, rel, fh.read()])
            finally:
                shutil.rmtree(o, ignore_errors=True)
        return res


WORKLOADS = {w.name: w for w in (PuMap, Game, Cyl, Cli)}
