"""Spans and work counts for the traced run, taken from outside the program.

``Tracer.install`` rebinds the public functions and methods of each layer
module to timing wrappers, in every loaded namespace that holds them;
``uninstall`` puts the originals back. A call opens a span only when it
crosses into a layer from another layer or from the benchmark, so a
layer's recursion into itself costs a comparison, not a span. Spans are
kept in memory (name, start, end, parent, pass id) and written out by
``save`` when the run ends.

Work counts are computed from call arguments and return values after the
wrapped call has returned. The costlier counts run inside a span of the
``trace`` pseudo-layer, so their time is taken out of the caller's self
time.
"""

import array
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("spaces", "fn", "regions", "prescribe", "game", "steep", "smooth",
          "verify", "serialize", "gridfile", "svg", "cli")

clock = time.perf_counter


# ---------------------------------------------------------------------------
# work counts: hook(counts, args, kwargs, result, crossing)
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _clip(c, args, kwargs, out, crossing):
    # BoxUnion.segment_inside_length(self, P0, step): a row-box pair is
    # useful when the bounding box of [p, p + step] meets the box
    self = args[0]
    P0 = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "P0"), dtype=float))
    step = np.asarray(_arg(args, kwargs, 2, "step"), dtype=float)
    c["regions.clip_pairs"] += len(P0) * self.n_boxes
    lo_reach = self.lo - np.maximum(step, 0.0)
    hi_reach = self.hi - np.minimum(step, 0.0)
    order = np.argsort(P0[:, 0], kind="stable")
    xs, ys = P0[order, 0], P0[order, 1]
    first = np.searchsorted(xs, lo_reach[:, 0], side="left")
    last = np.searchsorted(xs, hi_reach[:, 0], side="right")
    useful = 0
    for b in range(self.n_boxes):
        y = ys[first[b]:last[b]]
        useful += int(np.count_nonzero((y >= lo_reach[b, 1])
                                       & (y <= hi_reach[b, 1])))
    c["regions.clip_useful"] += useful


def _dp(c, args, kwargs, out, crossing):
    dp = args[0]
    nx, ny = dp.shape
    c["regions.dp_runs"] += 1
    c["regions.dp_nodes"] += dp.n
    c["regions.dp_edges"] += sum(max(0, nx - abs(si)) * max(0, ny - abs(sj))
                                 for si, sj in dp.spec.step_set)


def _ray_samples(c, args, kwargs, out, crossing):
    # mirrors build_steep's output grid and terminal-ray step count
    spec = _arg(args, kwargs, 0, "spec")
    values = getattr(out, "values", None)
    if values is None:
        return
    P = spec.P
    lo, hi = (np.asarray(b, float) for b in spec.G.bbox())
    out_lo, out_hi = lo - spec.out_pad, hi + spec.out_pad
    pv = np.array([[a, b] for a in (out_lo[0], out_hi[0])
                   for b in (out_lo[1], out_hi[1])]) @ P.coeffs
    smax = float((pv.max() - pv.min()) / P.dual_norm) + 2.0 * spec.h
    steps = len(np.arange(0.0, smax + spec.s_res, spec.s_res))
    c["steep.ray_samples"] += int(values.size) * steps


def _coords_kept(c, args, kwargs, out, crossing):
    c["steep.coords_kept"] += len(getattr(out[0], "parts", []))


def _polygon(c, args, kwargs, out, crossing):
    # op_norm_upper(matrix, dom, cod): the branch that builds the
    # circumscribed polygon
    dom = _arg(args, kwargs, 1, "dom")
    cod = _arg(args, kwargs, 2, "cod")
    p = getattr(dom, "_p", None)
    if dom.kind not in ("lp", "weighted-lp") or p is None or not 1 < p < np.inf:
        return
    if dom.kind == "lp" and p == 2 and cod.kind == "lp" and cod._p == 2:
        return
    c["spaces.polygon_bound_calls"] += 1


def _eval_points(c, args, kwargs, out, crossing):
    if crossing:
        c["fn.eval_points"] += len(np.atleast_2d(args[1]))


def _exact_points(c, args, kwargs, out, crossing):
    c["fn.eval_exact_calls"] += 1
    if crossing:
        c["fn.eval_points"] += 1


def _shift_evals(c, args, kwargs, out, crossing):
    self = args[0]
    c["smooth.shift_evals"] += len(np.atleast_2d(args[1])) * len(self.shifts)


def _cert_evals(c, args, kwargs, out, crossing):
    t = args[0]
    n_dirs = 2 * t.T.dom.dim + _arg(args, kwargs, 1, "dirs", 8)
    c["game.cert_evals"] += sum(r["points"] for r in out) * n_dirs * 2


def _alpha_bits(c, args, kwargs, out, crossing):
    bits = max(max(rd.alpha.numerator.bit_length(),
                   rd.alpha.denominator.bit_length()) for rd in out.rounds)
    c["game.alpha_bits_max"] = max(c["game.alpha_bits_max"], bits)


def _centers(c, args, kwargs, out, crossing):
    gamma = _arg(args, kwargs, 3, "gamma")
    c["prescribe.centers"] += len(np.atleast_2d(np.asarray(gamma, dtype=float)))


def _lip_pairs(c, args, kwargs, out, crossing):
    c["verify.lip_pairs"] += _arg(args, kwargs, 2, "pairs", 10000)


def _counter(key):
    def hook(c, args, kwargs, out, crossing):
        c[key] += 1
    return hook


# qualified name -> (hook, timed); timed hooks run inside a trace span
HOOKS = {
    "regions.BoxUnion.segment_inside_length": (_clip, True),
    "regions.LatticeDP.__init__": (_dp, True),
    "regions.pu_cover": (_counter("regions.pu_cover_calls"), False),
    "steep.build_steep": (_ray_samples, True),
    "steep.build_pu_map": (_coords_kept, False),
    "spaces.op_norm_upper": (_polygon, False),
    "spaces.NormedSpace.norm_exact": (_counter("spaces.norm_exact_calls"),
                                      False),
    "fn.ConvexShiftCombFn.eval": (_shift_evals, False),
    "game.certify_transcript": (_cert_evals, True),
    "game.run_bm_game": (_alpha_bits, False),
    "prescribe.prescribe_derivative": (_centers, False),
    "verify.fd_jacobian": (_counter("verify.fd_jacobians"), False),
    "verify.lip_estimate": (_lip_pairs, False),
}


def _fn_hook(attr, named):
    """LipFn evaluation counts in the fn layer, chained with any named hook."""
    if attr in ("eval", "__call__"):
        extra = _eval_points
    elif attr == "eval_exact":
        extra = _exact_points
    else:
        return named
    if named is None:
        return extra, False
    first, timed = named

    def both(c, args, kwargs, out, crossing):
        first(c, args, kwargs, out, crossing)
        extra(c, args, kwargs, out, crossing)
    return both, timed


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        # one entry per closed span, columns kept compact
        self.s_idx = array.array("q")
        self.s_name = array.array("i")
        self.s_parent = array.array("q")
        self.s_pass = array.array("i")
        self.s_t0 = array.array("d")
        self.s_t1 = array.array("d")
        self.next_idx = 0
        self.stack = []  # (span idx, layer) of open spans
        self.pass_id = 0
        self.counts = Counter()
        self._plan = []  # (owner, attr, original, wrapper), built once
        self._installed = False

    # -- spans ---------------------------------------------------------------

    def _name_id(self, qual, layer):
        self.names.append(qual)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _close(self, idx, name_id, parent, t0, t1):
        self.s_idx.append(idx)
        self.s_name.append(name_id)
        self.s_parent.append(parent)
        self.s_pass.append(self.pass_id)
        self.s_t0.append(t0)
        self.s_t1.append(t1)

    def _wrap(self, fn, layer, qual, hook):
        name_id = self._name_id(qual, layer)
        hook_id = self._name_id("trace.count:" + qual, "trace") if hook else -1
        hook_fn, timed = hook if hook else (None, False)
        stack = self.stack
        counts = self.counts
        calls_key = layer + ".calls"
        tracer = self

        def run_hook(args, kwargs, out, crossing):
            if not timed:
                hook_fn(counts, args, kwargs, out, crossing)
                return
            idx = tracer.next_idx
            tracer.next_idx += 1
            parent = stack[-1][0] if stack else -1
            t0 = clock()
            hook_fn(counts, args, kwargs, out, crossing)
            tracer._close(idx, hook_id, parent, t0, clock())

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                out = fn(*args, **kwargs)
                if hook_fn is not None:
                    run_hook(args, kwargs, out, False)
                return out
            idx = tracer.next_idx
            tracer.next_idx += 1
            parent = stack[-1][0] if stack else -1
            stack.append((idx, layer))
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer._close(idx, name_id, parent, t0, t1)
            counts[calls_key] += 1
            if hook_fn is not None:
                run_hook(args, kwargs, out, True)
            return out

        return functools.wraps(fn)(wrapper)

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._plan.append((owner, attr, owner.__dict__[attr], value))
        setattr(owner, attr, value)

    def install(self, extra_namespaces=()):
        """Wrap every layer's public functions and methods."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        if self._plan:
            for owner, attr, _, wrapper in self._plan:
                setattr(owner, attr, wrapper)
            return
        replaced = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module("lipforge." + layer)
            for name, obj in list(vars(mod).items()):
                own = getattr(obj, "__module__", None) == mod.__name__
                if name.startswith("_") or not own:
                    continue
                if inspect.isfunction(obj):
                    qual = "%s.%s" % (layer, name)
                    w = self._wrap(obj, layer, qual, HOOKS.get(qual))
                    replaced[id(obj)] = (obj, w)
                    self._set(mod, name, w)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        # rebind names other modules imported with "from ... import"
        namespaces = [m for n, m in list(sys.modules.items())
                      if n.startswith("lipforge.") and m is not None]
        namespaces += list(extra_namespaces)
        for mod in namespaces:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def _wrap_class(self, cls, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            qual = "%s.%s.%s" % (layer, cls.__name__, attr)
            hook = HOOKS.get(qual)
            if layer == "fn":
                hook = _fn_hook(attr, hook)
            if inspect.isfunction(val):
                self._set(cls, attr, self._wrap(val, layer, qual, hook))
            elif isinstance(val, (staticmethod, classmethod)):
                w = self._wrap(val.__func__, layer, qual, hook)
                self._set(cls, attr, type(val)(w))

    def uninstall(self):
        for owner, attr, orig, _ in reversed(self._plan):
            setattr(owner, attr, orig)
        self._installed = False

    # -- per-pass results ----------------------------------------------------

    def begin_pass(self, pass_id):
        self.pass_id = pass_id
        self.counts.clear()

    def pass_counts(self):
        return dict(self.counts)

    def _columns(self):
        return {
            "idx": np.frombuffer(self.s_idx, dtype=np.int64),
            "name": np.frombuffer(self.s_name, dtype=np.int32),
            "parent": np.frombuffer(self.s_parent, dtype=np.int64),
            "pass": np.frombuffer(self.s_pass, dtype=np.int32),
            "t0": np.frombuffer(self.s_t0, dtype=np.float64),
            "t1": np.frombuffer(self.s_t1, dtype=np.float64),
        }

    def self_times(self, pass_id):
        """(seconds of self time per layer, seconds covered by top spans)."""
        col = self._columns()
        m = col["pass"] == pass_id
        idx, parent = col["idx"][m], col["parent"][m]
        dur = col["t1"][m] - col["t0"][m]
        base = int(idx.min()) if len(idx) else 0
        child = np.zeros(len(idx) and int(idx.max()) - base + 1)
        has = parent >= 0
        np.add.at(child, parent[has] - base, dur[has])
        own = dur - child[idx - base]
        layer = np.array(self.layer_of, dtype=object)[col["name"][m]]
        out = {name: float(own[layer == name].sum()) for name in LAYERS}
        return out, float(dur[~has].sum())

    def save(self, path, meta):
        col = self._columns()
        np.savez_compressed(path, names=np.array(self.names),
                            layers=np.array(self.layer_of),
                            meta=np.array(json.dumps(meta)), **col)
