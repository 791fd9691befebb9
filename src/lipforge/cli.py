"""Command-line orchestration: builds artifacts, certifies them, and emits
DAG JSON, certificate JSON, CSV tables, binary grids and SVG heatmaps.

Exit codes: 0 ok, 2 configuration error, 3 certificate violation,
4 resolution / budget error.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import gridfile, svg
from .errors import (BudgetError, ConstructionError, CoverError,
                     HypothesisError, InputError, LipforgeError, PremiseError,
                     RefereeError, ResolutionError)
from .fn import ZeroFn, fn_from_file_doc, fn_to_file_doc
from .game import POLICIES, certify_transcript, run_bm_game
from .prescribe import build_net, prescribe_derivative
from .regions import CurveSpec, Region, gen_four_corner, xi_estimate
from .serialize import dump_path, enc_float, load_path
from .smooth import smooth_around, smooth_region
from .spaces import Functional, LinOp, cyl_constant, lp_space
from .steep import (SteepSpec, build_pu_map, build_steep,
                    check_steep_properties, pu_map_certificate)
from .verify import c1_check, lip_estimate, scan_derivative_set
from .gridfile import sample_fn

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERT = 3
EXIT_RESOLUTION = 4

_CONFIG_ERRORS = (LipforgeError, OSError, KeyError, ValueError)
_CERT_ERRORS = (RefereeError, PremiseError, HypothesisError)
_RESOLUTION_ERRORS = (ResolutionError, BudgetError, CoverError,
                      ConstructionError)


def _vec(text):
    return np.array([float(t) for t in text.split(",")])


def _space(text):
    """Parse 'l2:2', 'linf:2', 'l1:3'."""
    kind, _, dim = text.partition(":")
    if not dim:
        raise InputError("space spec must look like l2:2")
    p = {"l1": 1, "l2": 2, "linf": "inf"}.get(kind)
    if p is None:
        raise InputError("unsupported space kind %r" % kind)
    return lp_space(int(dim), p)


def _load(path, decode):
    """decode(the JSON object at path); a TypeError, IndexError or
    AttributeError raised while decoding is a malformed document."""
    doc = load_path(path)
    if not isinstance(doc, dict):
        raise InputError("%s: the top level must be a JSON object" % path)
    try:
        return decode(doc)
    except (TypeError, IndexError, AttributeError) as e:
        raise InputError("%s: malformed document: %s" % (path, e)) from e


def _check_dims(d, *parts):
    """The one dimension check of a subcommand, made where its documents
    are loaded: each (name, dimension) in parts, a region, operator domain,
    map, point or space, must match d, the width of the points it acts on."""
    for name, m in parts:
        if m != d:
            raise InputError("points have %d coordinates; the %s has %d" % (d, name, m))


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _field(vals):
    """The heatmap field of sampled values: the value of a scalar map, the
    Euclidean norm of a vector one."""
    return np.linalg.norm(vals, axis=-1) if vals.shape[-1] > 1 else vals[..., 0]


def _maybe_heatmap(path, fn, bbox, title):
    vals, bb = sample_fn(fn, bbox, 128)
    svg.write_heatmap(path, _field(vals), bb, title=title)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_cantor(args):
    E = gen_four_corner(args.level, args.ratio)
    dump_path(E.to_doc(), args.out)
    print("four-corner level %d: %d boxes -> %s" % (args.level, E.n_boxes, args.out))
    return EXIT_OK


def cmd_cyl(args):
    T = _load(args.op, LinOp.from_doc)
    value = cyl_constant(T, budget=args.budget, seed=args.seed)
    print("cyl(T) = %.12g  (||T|| in [%.12g, %.12g])"
          % (value, T.opnorm_lb, T.opnorm_ub))
    if args.out:
        dump_path({"cyl": enc_float(value), "opnorm_lb": enc_float(T.opnorm_lb),
                   "opnorm_ub": enc_float(T.opnorm_ub)}, args.out)
    return EXIT_OK


def cmd_xi(args):
    G = _load(args.region, Region.from_doc)
    space = _space(args.space)
    p = _vec(args.p)
    _check_dims(space.dim, ("region", G.dim), ("functional", len(p)))
    P = Functional(p, space)
    value, gap, wit = xi_estimate(G, CurveSpec(P, args.alpha, args.grid, k=args.k))
    print("xi = %.9g  gap = %.9g  (witness %d nodes)" % (value, gap, len(wit)))
    if args.out:
        dump_path({"value": enc_float(value), "gap": enc_float(gap),
                   "witness": [[enc_float(v) for v in p] for p in wit]}, args.out)
    return EXIT_OK


def cmd_steep(args):
    G = _load(args.region, Region.from_doc)
    space = _space(args.space)
    p = _vec(args.p)
    _check_dims(space.dim, ("region", G.dim), ("functional", len(p)))
    P = Functional(p, space)
    spec = SteepSpec(G, P, args.alpha, args.grid)
    g = build_steep(spec)
    out = _outdir(args)
    dump_path(fn_to_file_doc(g), os.path.join(out, "g.json"))
    props, gap = check_steep_properties(g, spec, seed=args.seed)
    cert = {name: {"residual": enc_float(res), "bound": enc_float(bound),
                   "ok": bool(res <= bound + 1e-12)}
            for name, (res, bound) in props.items()}
    cert["gap"] = enc_float(gap)
    dump_path(cert, os.path.join(out, "certificate.json"))
    bad = [n for n, c in cert.items() if isinstance(c, dict) and not c["ok"]]
    if args.svg:
        lo, hi = G.bounds("G")
        _maybe_heatmap(os.path.join(out, "g.svg"), g,
                       (lo - spec.out_pad, hi + spec.out_pad), "steep function")
    for name, c in sorted(cert.items()):
        if isinstance(c, dict):
            print("%-18s residual %s bound %s %s"
                  % (name, c["residual"], c["bound"], "ok" if c["ok"] else "FAIL"))
    return EXIT_CERT if bad else EXIT_OK


def cmd_pumap(args):
    E = _load(args.set, Region.from_doc)
    U = _load(args.u, Region.from_doc)
    T = _load(args.op, LinOp.from_doc)
    _check_dims(E.dim, ("region", U.dim), ("space", T.dom.dim))
    g, H = build_pu_map(E, U, T, args.theta, cover_budget=args.budget,
                        seed=args.seed)
    cert = pu_map_certificate(g, H, U, T, args.theta, n_points=args.points,
                              seed=args.seed)
    out = _outdir(args)
    dump_path(fn_to_file_doc(g), os.path.join(out, "g.json"))
    dump_path(H.to_doc(), os.path.join(out, "H.json"))
    doc = {k: (enc_float(v) if isinstance(v, float) else v)
           for k, v in cert.items()}
    dump_path(doc, os.path.join(out, "certificate.json"))
    ok = all(v for k, v in cert.items() if k.endswith("_ok"))
    for k in sorted(cert):
        print("%-14s %s" % (k, cert[k]))
    if args.svg:
        lo, hi = E.bounds("E")
        pad = 0.2
        _maybe_heatmap(os.path.join(out, "g.svg"), g, (lo - pad, hi + pad),
                       "pu derivative map")
    return EXIT_OK if ok else EXIT_CERT


def cmd_prescribe(args):
    Q = _load(args.q, Region.from_doc)
    E = _load(args.set, Region.from_doc)
    L = _load(args.op, LinOp.from_doc)
    f = _load(args.fn, fn_from_file_doc) if args.fn else None
    _check_dims(E.dim, ("region", Q.dim), ("space", L.dom.dim),
                *([("map", f.d)] if f else []))
    net = build_net(E, Q, args.kmax, space=L.dom)
    gamma = net.level(args.kmax)
    if f is None:
        f = ZeroFn(L.dom.dim, L.cod.dim)
    g, alpha = prescribe_derivative(f, L, args.r, gamma, args.s, Q)
    out = _outdir(args)
    dump_path(fn_to_file_doc(g), os.path.join(out, "g.json"))
    # exactness certificate at every center, 20 directions each
    n, d = len(gamma), L.dom.dim
    dirs = np.random.default_rng(args.seed).standard_normal((n, 20, d))
    u = dirs / L.dom.norm(dirs.reshape(-1, d)).reshape(n, 20, 1) * alpha * 0.9
    vals = g.eval(np.vstack([gamma, (gamma[:, None] + u).reshape(-1, d)]))
    resid = vals[n:].reshape(n, 20, -1) - vals[:n, None] - u @ L.matrix.T
    worst = float(np.max(L.cod.norm(resid.reshape(n * 20, -1)), initial=0.0))
    lip, _ = lip_estimate(g, Q, pairs=5000, seed=args.seed,
                          dom=L.dom, cod=L.cod)
    cert = {"alpha": enc_float(alpha), "centers": len(gamma),
            "exactness_residual": enc_float(worst),
            "lip_sampled": enc_float(lip)}
    dump_path(cert, os.path.join(out, "certificate.json"))
    print("centers %d alpha %.3g exactness %.3g lip %.6f"
          % (len(gamma), alpha, worst, lip))
    return EXIT_OK if worst <= 1e-9 and lip <= 1.0 + 1e-7 else EXIT_CERT


def cmd_game(args):
    E = _load(args.set, Region.from_doc)
    Q = _load(args.q, Region.from_doc)
    T = _load(args.op, LinOp.from_doc)
    _check_dims(E.dim, ("region", Q.dim), ("space", T.dom.dim))
    policy_cls = POLICIES[args.policy]
    policy = policy_cls(T.dom, T.cod, Q, seed=args.seed)
    t = run_bm_game(E, Q, T, policy, args.rounds)
    cert = certify_transcript(t, seed=args.seed)
    out = _outdir(args)
    dump_path(fn_to_file_doc(t.limit), os.path.join(out, "limit.json"))
    doc = {"policy": t.policy_name, "rounds": args.rounds,
           "levels": [{"level": c["level"], "error": enc_float(c["error"]),
                       "bound": enc_float(c["bound"]), "points": c["points"]}
                      for c in cert]}
    dump_path(doc, os.path.join(out, "certificate.json"))
    with open(os.path.join(out, "levels.csv"), "w") as fh:
        fh.write("level,error,bound,points\n")
        for c in cert:
            fh.write("%d,%.17g,%.17g,%d\n"
                     % (c["level"], c["error"], c["bound"], c["points"]))
    ok = all(c["error"] <= c["bound"] for c in cert)
    for c in cert:
        print("level %d  error %.3g  bound %.3g  points %d"
              % (c["level"], c["error"], c["bound"], c["points"]))
    return EXIT_OK if ok else EXIT_CERT


def cmd_smooth(args):
    f = _load(args.fn, fn_from_file_doc)
    E = _load(args.set, Region.from_doc)
    Q = _load(args.q, Region.from_doc)
    _check_dims(E.dim, ("region", Q.dim), ("map", f.d))
    g = smooth_around(E, Q, f, args.eps, seed=args.seed)
    out = _outdir(args)
    dump_path(fn_to_file_doc(g), os.path.join(out, "g.json"))
    rng = np.random.default_rng(args.seed)
    H = smooth_region(E, Q)
    pts = rng.uniform(*H.bounds("smooth region"), (30, f.d))
    keep = H.contains(pts)
    passed, worst, _ = c1_check(g, pts[keep])
    X = rng.uniform(*Q.bounds("Q"), (20000, f.d))
    dev = float(np.max(np.abs(g.eval(X) - f.eval(X))))
    cert = {"c1_pass": bool(passed), "c1_worst": enc_float(worst),
            "sup_deviation": enc_float(dev), "eps": enc_float(args.eps)}
    dump_path(cert, os.path.join(out, "certificate.json"))
    print("c1 %s worst %.3g  ||g-f|| %.3g <= eps %.3g"
          % (passed, worst, dev, args.eps))
    return EXIT_OK if passed and dev <= args.eps + 1e-12 else EXIT_CERT


def cmd_verify(args):
    f = _load(args.fn, fn_from_file_doc)
    ops = _load(args.ops, lambda doc: [LinOp.from_doc(d) for d in doc.get("ops", [doc])])
    scales = [float(s) for s in args.scales.split(",")]
    rep = scan_derivative_set(f, _vec(args.point), ops, scales,
                              dirs=args.dirs, tol=args.tol, seed=args.seed,
                              exact=args.exact)
    if args.out:
        dump_path(rep.to_doc(), args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("op,scale,error\n")
            for a in range(len(ops)):
                for j, s in enumerate(rep.scales):
                    fh.write("%d,%.17g,%.17g\n" % (a, s, rep.errors[a, j]))
    for a in range(len(ops)):
        print("op %d  min error %.6g  verdict %s"
              % (a, rep.min_error(a), rep.verdict(a)))
    if args.require_pass and not all(rep.verdict(a) for a in range(len(ops))):
        return EXIT_CERT
    return EXIT_OK


def cmd_plot(args):
    if not (args.grid or (args.fn and args.bbox)):
        raise InputError("plot needs --grid or --fn with --bbox")
    if args.grid:
        vals, bb = gridfile.read_grid(args.grid)
    else:
        f = _load(args.fn, fn_from_file_doc)
        lo, hi = (_vec(t) for t in args.bbox.split(";"))
        _check_dims(len(lo), ("upper corner", len(hi)), ("map", f.d))
        if not np.all(lo < hi):
            raise InputError("--bbox needs lo < hi on every axis")
        vals, bb = sample_fn(f, (lo, hi), args.res)
        if args.lfgf:
            gridfile.write_grid(args.lfgf, vals, bb)
    svg.write_heatmap(args.out, _field(vals), bb)
    print("wrote %s" % args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="lipforge", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", required=True)

    sp = sub.add_parser("cantor", help="four-corner set region file")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--ratio", type=float, default=0.25)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_cantor)

    sp = sub.add_parser("cyl", help="cylindrical constant of an operator")
    sp.add_argument("--op", required=True)
    sp.add_argument("--budget", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_cyl)

    sp = sub.add_parser("xi", help="cone-constrained curve-mass estimate")
    sp.add_argument("--region", required=True)
    sp.add_argument("--p", required=True, help="functional coefficients c1,c2")
    sp.add_argument("--space", default="l2:2")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--grid", type=float, required=True)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_xi)

    sp = sub.add_parser("steep", help="steep function with certificate")
    sp.add_argument("--region", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--space", default="l2:2")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--grid", type=float, required=True)
    sp.add_argument("--svg", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_steep)

    sp = sub.add_parser("pumap", help="derivative map on an unrectifiable set")
    sp.add_argument("--set", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--op", required=True)
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--budget", type=int, default=6)
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--svg", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_pumap)

    sp = sub.add_parser("prescribe", help="exact derivative prescription on a net")
    sp.add_argument("--q", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--op", required=True)
    sp.add_argument("--fn", help="base map DAG (default zero)")
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--kmax", type=int, default=2)
    common(sp)
    sp.set_defaults(func=cmd_prescribe)

    sp = sub.add_parser("game", help="nested-ball game run with certificate")
    sp.add_argument("--set", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--op", required=True)
    sp.add_argument("--rounds", type=int, default=4)
    sp.add_argument("--policy", choices=sorted(POLICIES), default="identity")
    common(sp)
    sp.set_defaults(func=cmd_game)

    sp = sub.add_parser("smooth", help="smooth a map around a compact set")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--eps", type=float, required=True)
    common(sp)
    sp.set_defaults(func=cmd_smooth)

    sp = sub.add_parser("verify", help="derivative-set membership scan")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--point", required=True)
    sp.add_argument("--ops", required=True)
    sp.add_argument("--scales", required=True, help="comma-separated radii")
    sp.add_argument("--tol", type=float, default=0.1)
    sp.add_argument("--dirs", type=int, default=200)
    sp.add_argument("--exact", action="store_true")
    sp.add_argument("--require-pass", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.add_argument("--csv")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("plot", help="heatmap SVG from a grid file or DAG")
    sp.add_argument("--grid", help="binary grid file")
    sp.add_argument("--fn", help="DAG JSON (needs --bbox)")
    sp.add_argument("--bbox", help="lo;hi as x0,y0;x1,y1")
    sp.add_argument("--res", type=int, default=128)
    sp.add_argument("--lfgf", help="also write the sampled grid here")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_plot)
    return p


def run_cli(argv):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except _RESOLUTION_ERRORS as e:
        print("resolution/budget error: %s" % e, file=sys.stderr)
        return EXIT_RESOLUTION
    except _CERT_ERRORS as e:
        print("certificate violation: %s" % e, file=sys.stderr)
        return EXIT_CERT
    except _CONFIG_ERRORS as e:
        print("configuration error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
