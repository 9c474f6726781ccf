"""Benchmark of fptree's documented runs, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload conv-exp1 --seed 1 --seconds 30 --trace 0

One iteration is one full command of the workload (see workloads.py),
run in-process with ``--no-timing`` and its artifacts written to a
scratch directory inside the checkout, which is removed at exit.  After
one warm-up iteration, iterations repeat (closed loop, one client, one
thread) until ``--seconds`` have passed.  Every iteration's outputs are
checked and must repeat exactly.

Times are wall seconds scaled to a reference host speed: each is
multiplied by CAL_REF over the time of a fixed calibration workload run
next to it (see _calibration), because the speed of a host shared with
other tenants can drift by tens of percent within a minute.  The
unscaled median is printed too.

``--trace 0`` prints the end-to-end metrics:

* ``run_s``        median seconds per iteration
* ``run_s_tail``   the highest percentile of iteration time with at least
                   ten samples beyond it (the maximum when there are
                   fewer than eleven samples); percentile and count are
                   printed
* ``nodes_per_s``  tree nodes per iteration (sum of N^2 over every
                   backward run, proxy and perturbed runs included)
                   over ``run_s``
* ``setup_s``      seconds for a fresh interpreter from launch to having
                   imported ``fptree.cli`` and finished ``check --preset
                   experiment1``, scaled to the reference host speed by
                   a launch of its own kind (see Runner.setup_pair):
                   the median over SETUP_PAIRS pairs, made before the
                   timed iterations, of its time over that of a bare
                   interpreter importing numpy and click, times BASE_REF
* ``peak_rss_mb``  peak resident memory of this process

``--trace 1`` times half the budget untraced, then hooks the layers'
public functions (tracing.py) for the other half and prints the
per-layer metrics.  ``.s`` metrics are medians over the traced
iterations of a span's self time, except ``oracle.proxy_reference.s``,
which includes the two scheme runs it makes; counts are per iteration.
``model.validate_model.s`` comes from one traced in-process run of the
set-up command, since no workload calls it.

Metric names and units come from BENCHMARK.json.  The last line of
standard output is the JSON result.  Without the sources under src/ the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up launches per run, each paired with a baseline launch
SETUP_PAIRS = 15
# seconds the baseline launch (an interpreter importing numpy and click)
# takes at the reference host speed; setup_s is reported at that speed
BASE_REF = 0.12
BASELINE_CODE = "import time, numpy, click; print(time.perf_counter())"
# seconds the calibration takes at the reference host speed; times are
# reported at that speed (see _calibration)
CAL_REF = 0.005
# the metrics a missing hook takes with it, where they are not named
# after the hooked function
ABSENT_PREFIX = {
    "schemes.run_backward": "schemes.",
    "forward.build_lattice": "forward.",
    "treeval.chain_law": "treeval.",
}


def _environment():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


_CAL_WEIGHTS = (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0)


def _calibration():
    """Fixed pure-Python work shaped like the per-node kernels.

    Three-child weighted fsums over floats, about 5 ms.  On a shared
    host the speed drifts by tens of percent over tens of seconds;
    timing this next to every iteration and scaling the iteration by
    CAL_REF / (its time) reports times at one reference speed, so that
    runs made minutes apart can be compared.
    """
    t0 = time.perf_counter()
    vals = [0.5 + 0.001 * k for k in range(300)]
    for _ in range(12):
        vals = [math.fsum([w * (v - 0.01 * v * v)
                           for w, v in zip(_CAL_WEIGHTS, vals[p:p + 3])])
                for p in range(len(vals) - 2)] + [0.0, 0.0]
    return time.perf_counter() - t0


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Runner:
    """Iterations of one workload, their times and their failures."""

    def __init__(self, wl, seed, out):
        self.wl = wl
        self.rng = random.Random(seed)
        self.out = str(out)
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.cal = None  # latest calibration time, None when stale
        self.factor = 1.0  # CAL_REF over the last iteration's calibration
        self.wall = []  # unscaled seconds of the measured iterations

    def fail(self, what):
        self.failed += 1
        if self.failed <= 3:
            print("perfbench: iteration failed: %s" % what, file=sys.stderr)

    def guarded(self, call):
        """call(); True and its result, or False after recording why."""
        try:
            return True, call()
        except SystemExit as err:
            if err.code in (0, None):
                return True, None
            self.fail("exit status %r" % (err.code,))
        except Exception:
            self.fail(traceback.format_exc())
        return False, None

    def scale(self, wall):
        """Scale wall seconds, just measured, to the reference speed."""
        before = self.cal if self.cal is not None else _calibration()
        self.cal = _calibration()
        self.factor = 2.0 * CAL_REF / (before + self.cal)
        return wall * self.factor

    def iteration(self, tracer=None):
        """Run, time and check one command; its scaled seconds, or None."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        call = self.wl.prepare(self.rng, self.out)
        if tracer is not None:
            tracer.reset()
            call = functools.partial(tracer.call, "cli", call)
        t0 = time.perf_counter()
        ok, result = self.guarded(call)
        wall = time.perf_counter() - t0
        seconds = self.scale(wall)
        if not ok:
            return None
        ok, checked = self.guarded(lambda: self.wl.check(self.out, result))
        if not ok:
            return None
        digest = _digest(checked)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.fail("outputs differ from the first iteration's")
            return None
        self.wall.append(wall)
        return seconds

    def loop(self, seconds, tracer=None, on_iteration=None):
        times = []
        self.cal = None
        self.wall = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            t = self.iteration(tracer)
            if t is None:
                if time.perf_counter() - start >= seconds:
                    break
                continue
            times.append(t)
            if on_iteration is not None and not on_iteration():
                times.pop()
        return times

    def _launch(self, code):
        """Seconds from launching ``code`` in a fresh interpreter to its
        last line, the child's perf_counter (the system-wide monotonic
        clock; waiting with a timeout would poll in steps of up to 50 ms),
        or None after recording why it failed."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            self.fail("launch exit status %d: %s"
                      % (proc.returncode, proc.stderr[-2000:]))
            return None
        return float(proc.stdout.split()[-1]) - t0

    def setup_pair(self, k):
        """(set-up seconds, baseline seconds) of the k-th pair, or None.

        The set-up launch runs the set-up command; the baseline launch
        only imports the third-party libraries it loads.  Host speed
        moves set-up time by tens of percent between runs minutes apart,
        and the in-process calibration does not follow it (start-up is
        loading more than computing), but a launch right next to it
        does.  The order alternates, so that drift within a pair cancels
        over pairs.
        """
        from workloads import SETUP_ARGS
        code = ("import sys, time; sys.path.insert(0, %r); "
                "from fptree.cli import main; "
                "main(%r, prog_name='fptree', standalone_mode=False); "
                "print(time.perf_counter())" % (str(SRC), list(SETUP_ARGS)))
        self.attempted += 1
        first, second = (code, BASELINE_CODE) if k % 2 else \
            (BASELINE_CODE, code)
        a = self._launch(first)
        b = self._launch(second) if a is not None else None
        if b is None:
            return None
        return (a, b) if k % 2 else (b, a)


def _tail(times):
    """(value, percentile, n): the highest percentile with ten beyond it."""
    ts = sorted(times)
    n = len(ts)
    if n < 11:
        return ts[-1], 100, n
    return ts[n - 11], int(100 * (n - 10) / n), n


def end_to_end(runner, seconds):
    runner.iteration()  # warm-up: first-call costs, caches, checks
    pairs = [p for p in map(runner.setup_pair, range(SETUP_PAIRS))
             if p is not None]
    times = runner.loop(seconds)
    if not times or not pairs:
        return {}, []
    run_s = statistics.median(times)
    tail, pct, n = _tail(times)
    notes = ["run_s_tail is p%d of n=%d iterations%s" % (
        pct, n, " (fewer than 11: the maximum)" if n < 11 else ""),
        "unscaled wall seconds per iteration: median %.4f" % (
            statistics.median(runner.wall)),
        "unscaled set-up launch seconds: median %.4f, baseline launch "
        "median %.4f, n=%d pairs" % (
            statistics.median(p[0] for p in pairs),
            statistics.median(p[1] for p in pairs), len(pairs))]
    return {
        "run_s": run_s,
        "run_s_tail": tail,
        "nodes_per_s": runner.wl.nodes / run_s,
        "setup_s": BASE_REF * statistics.median(a / b for a, b in pairs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, notes


def per_layer(runner, seconds):
    import tracing
    from workloads import SETUP_ARGS, cli_call

    runner.iteration()  # warm-up
    untraced = runner.loop(seconds / 2.0)
    tracer = tracing.Tracer()
    records = []

    def keep():
        f = runner.factor
        rec = {"self": {k: v * f for k, v in tracer.self_s.items()},
               "total": {k: v * f for k, v in tracer.total_s.items()},
               "counts": Counter(tracer.counts)}
        if records and rec["counts"] != records[0]["counts"]:
            runner.fail("deterministic counts differ between iterations")
            return False
        records.append(rec)
        return True

    undo, absent = tracing.install(tracer)
    try:
        traced = runner.loop(seconds / 2.0, tracer, keep)
        tracer.reset()
        runner.attempted += 1
        runner.guarded(cli_call(SETUP_ARGS, runner.out))
        validate_s = tracer.total_s["model.validate_model"] * runner.factor
    finally:
        tracing.uninstall(undo)
    if not (untraced and traced):
        return {}, []

    c = records[0]["counts"]
    tree_nodes = sum(v for k, v in c.items()
                     if k.startswith("schemes.") and k.endswith(".nodes"))
    if "schemes.run_backward" not in absent and \
            tree_nodes != runner.wl.nodes:
        runner.fail("traced nodes %d != expected %d"
                    % (tree_nodes, runner.wl.nodes))

    def med(name, kind="self"):
        return statistics.median(r[kind].get(name, 0.0) for r in records)

    m = {}
    for k in ("fp", "implicit", "explicit"):
        s = med("schemes." + k)
        nodes = c["schemes.%s.nodes" % k]
        m["schemes.%s.s" % k] = s
        m["schemes.%s.nodes" % k] = nodes
        m["schemes.%s.us_per_node" % k] = 1e6 * s / nodes if nodes else 0.0
    iters = c["schemes.implicit.newton_iters"]
    nodes = c["schemes.implicit.nodes"]
    m["schemes.implicit.newton_iters"] = iters
    m["schemes.implicit.newton_iters_per_node"] = iters / nodes if nodes else 0.0
    m["schemes.explicit.nonfinite_runs"] = c["schemes.explicit.nonfinite_runs"]
    m["treeval.chain_law.s"] = med("treeval.chain_law")
    m["treeval.chain_law.calls"] = c["treeval.chain_law.calls"]
    m["forward.build_lattice.s"] = med("forward.build_lattice")
    m["forward.build_lattice.calls"] = c["forward.build_lattice.calls"]
    m["forward.lattice_nodes"] = c["forward.lattice_nodes"]
    for kind in ("size", "stability"):
        name = "analysis.one_step_checks." + kind
        m[name + ".s"] = med(name)
    m["analysis.one_step_checks.nodes"] = c["analysis.one_step_checks.nodes"]
    m["analysis.contraction_check.s"] = med("analysis.contraction_check")
    m["analysis.sup_norm_check.s"] = med("analysis.sup_norm_check")
    m["analysis.ledger_violations"] = c["analysis.ledger_violations"]
    m["oracle.proxy_reference.s"] = med("oracle.proxy_reference", "total")
    m["model.validate_model.s"] = validate_s
    m["cli.self_s"] = med("cli")
    m["trace.overhead_s"] = statistics.median(traced) - \
        statistics.median(untraced)

    for name in absent:
        prefix = ABSENT_PREFIX.get(name, name)
        m = {k: v for k, v in m.items() if not k.startswith(prefix)}
    notes = ["absent: %s (not found in fptree.%s)" % (n, n.split(".")[0])
             for n in absent]
    notes.append("traced iterations: %d, untraced: %d, counts digest %s"
                 % (len(traced), len(untraced), _digest(c)))
    run_s = statistics.median(traced)
    shares = {
        "fp kernel": m.get("schemes.fp.s", 0.0),
        "implicit kernel": m.get("schemes.implicit.s", 0.0),
        "explicit kernel": m.get("schemes.explicit.s", 0.0),
        "chain_law": m.get("treeval.chain_law.s", 0.0),
        "build_lattice": m.get("forward.build_lattice.s", 0.0),
        "ledgers": sum(v for k, v in m.items()
                       if k.startswith("analysis.") and k.endswith(".s")),
        "proxy_reference (incl.)": m.get("oracle.proxy_reference.s", 0.0),
        "cli self": m.get("cli.self_s", 0.0),
    }
    notes.append("share of the traced iteration (%.4f s): %s" % (
        run_s, ", ".join("%s %.1f%%" % (k, 100.0 * v / run_s)
                         for k, v in shares.items() if v)))
    return m, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fptree" / "__init__.py").is_file():
        print("perfbench: no fptree sources under %s" % SRC, file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; expected one of %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    out = OUT / ("%s-%d" % (args.workload, os.getpid()))
    runner = Runner(WORKLOADS[args.workload], args.seed, out)
    print("env: " + json.dumps(_environment(), sort_keys=True))
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(runner, args.seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise KeyError("metrics missing from BENCHMARK.json: %s" % unknown)
    for name in units:
        if name in metrics:
            print("%-42s %-14.6g %s" % (name, metrics[name], units[name]))
    for note in notes:
        print(note)
    print("outputs digest %s, failed_frac %d/%d" % (
        runner.digest, runner.failed, runner.attempted))
    print(json.dumps({
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
