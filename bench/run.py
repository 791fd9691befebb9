#!/usr/bin/env python3
"""lipforge benchmark.

    python3 bench/run.py --workload {pumap,game,cyl,cli} --seed N \
        --seconds S --trace {0,1}

Runs one workload in this single-threaded process: one warm-up pass, then
a closed loop of passes until the next pass would end after S seconds (at
least one pass is timed). Every pass's outputs are checked; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: medians over the passes of
``wall_s``, ``build_s`` and ``certify_s``; ``setup_s``, the median over
several fresh interpreter processes of the time from process start to
inputs generated; and ``peak_rss_mb`` of this process.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see tracing.py); the spans are written to
``.bench_out/`` at the root of the checkout. The tracing wrappers are not
imported by the untraced run.
"""

import os

# pin BLAS threads before numpy is imported, here and in setup children
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "LIPFORGE_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# fresh interpreters started to time set-up; their median is setup_s
SETUP_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "build_s": "s", "certify_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate the inputs, print the time, exit")
    return p.parse_args(argv)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "lipforge", "__init__.py")):
        sys.exit("bench: no lipforge sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def _setup_only(args):
    workloads = _import_program()
    w = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        w.setup(args.seed, workdir)
        print(json.dumps({"ready": time.time()}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_setup(args):
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        start = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit("bench: set-up process failed")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        times.append(ready - start)
    return times


class Run:
    """Passes of one workload against one set of inputs."""

    def __init__(self, w, inputs):
        self.w = w
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.digests = set()

    def one_pass(self):
        extra = {}
        t0 = time.perf_counter()
        res = self.w.run_pass(self.inputs, extra)
        wall = time.perf_counter() - t0
        self.attempted += res.attempted
        self.failed += res.failed
        self.digests.add(res.digest())
        return wall, res, extra

    @property
    def correct(self):
        return self.failed == 0 and len(self.digests) == 1


def _timed_loop(seconds, step, run):
    """Make an untimed warm-up pass, then call step() until the next call
    would end after `seconds`."""
    run.one_pass()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return


def _end_to_end(args, run):
    walls, builds, certs = [], [], []

    def step():
        wall, res, _ = run.one_pass()
        walls.append(wall)
        builds.append(res.build_s)
        certs.append(res.certify_s)

    _timed_loop(args.seconds, step, run)
    setups = _measure_setup(args)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "build_s": statistics.median(builds),
        "certify_s": statistics.median(certs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("bench: %s seed %d: medians over %d passes and %d set-ups"
          % (args.workload, args.seed, len(walls), len(setups)))
    for name, samples in (("wall_s", walls), ("build_s", builds),
                          ("certify_s", certs), ("setup_s", setups)):
        print("bench:   %-9s %s" % (name, " ".join("%.4f" % v for v in samples)))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def _per_layer(args, run, workloads):
    import tracing

    tracer = tracing.Tracer()
    plain, traced, layer_s, step_s = [], [], [], []
    counts = []
    covered = []

    def step():
        wall, _, _ = run.one_pass()
        plain.append(wall)
        tracer.begin_pass(len(traced))
        tracer.install(extra_namespaces=(workloads,))
        try:
            wall, _, extra = run.one_pass()
        finally:
            tracer.uninstall()
        traced.append(wall)
        own, top = tracer.self_times(len(traced) - 1)
        layer_s.append(own)
        covered.append(top)
        c = tracer.pass_counts()
        c["cli.bytes_written"] = extra.get("bytes_written", 0)
        counts.append(c)
        step_s.append(extra.get("step_s", {}))

    _timed_loop(args.seconds, step, run)
    if any(c != counts[0] for c in counts):
        print("bench: work counts differ between traced passes", file=sys.stderr)
        run.failed += 1

    total = sum(traced)
    m = {}
    for layer in tracing.LAYERS:
        m[layer + ".self_frac"] = (sum(s[layer] for s in layer_s) / total, "frac")
        m[layer + ".calls"] = (counts[0].get(layer + ".calls", 0), "count")
    c = counts[0]
    pairs = c.get("regions.clip_pairs", 0)
    kept = c.get("steep.coords_kept", 0)
    for key, unit in (("regions.clip_pairs", "count"),
                      ("regions.dp_runs", "count"),
                      ("regions.dp_nodes", "count"),
                      ("regions.dp_edges", "count"),
                      ("steep.ray_samples", "count"),
                      ("spaces.polygon_bound_calls", "count"),
                      ("spaces.norm_exact_calls", "count"),
                      ("fn.eval_exact_calls", "count"),
                      ("fn.eval_points", "count"),
                      ("game.cert_evals", "count"),
                      ("game.alpha_bits_max", "bits"),
                      ("prescribe.centers", "count"),
                      ("smooth.shift_evals", "count"),
                      ("verify.fd_jacobians", "count"),
                      ("verify.lip_pairs", "count"),
                      ("cli.bytes_written", "bytes")):
        m[key] = (c.get(key, 0), unit)
    m["regions.clip_useful_frac"] = (
        c.get("regions.clip_useful", 0) / pairs if pairs else 0.0, "frac")
    m["steep.cover_tries"] = (
        c.get("regions.pu_cover_calls", 0) / kept if kept else 0.0,
        "calls/coord")
    for name in workloads.CLI_STEPS:
        m["cli.%s.wall_frac" % name] = (
            sum(s.get(name, 0.0) for s in step_s) / total, "frac")
    m["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
    m["trace.coverage_frac"] = (sum(covered) / total, "frac")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-seed%d.npz" % (args.workload, args.seed))
    tracer.save(path, {"workload": args.workload, "seed": args.seed,
                       "traced_wall_s": traced, "untraced_wall_s": plain,
                       "layer_self_s": layer_s, "counts": counts,
                       "output_digests": sorted(run.digests)})
    print("bench: %s seed %d: %d untraced + %d traced passes; %d spans -> %s"
          % (args.workload, args.seed, len(plain), len(traced),
             tracer.next_idx, os.path.relpath(path, ROOT)))
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    args = _parse(argv)
    if args.setup_only:
        _setup_only(args)
        return 0
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit("bench: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    if args.seconds <= 0:
        sys.exit("bench: --seconds must be positive")
    w = workloads.WORKLOADS[args.workload]
    import numpy
    import scipy

    print("bench: python %s, numpy %s, scipy %s, nproc %d, BLAS threads %d"
          % (sys.version.split()[0], numpy.__version__, scipy.__version__,
             os.cpu_count(), BLAS_THREADS))
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT)
    try:
        run = Run(w, w.setup(args.seed, workdir))
        if args.trace:
            metrics = _per_layer(args, run, workloads)
        else:
            metrics = _end_to_end(args, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for d in sorted(run.digests):
        print("bench: %s seed %d: output_digest %s" % (args.workload, args.seed, d))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
