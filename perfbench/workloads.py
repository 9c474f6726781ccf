"""The benchmark's workloads: the README's documented runs, one command each.

``convergence --preset experiment1``, ``convergence --preset
linear-oracle`` and ``stability --preset experiment2``.  ``check --preset
experiment1`` is too short to be a workload (about 13 ms after about
0.3 s of imports); it is the set-up command whose time is ``setup_s``.
The finite-difference oracle behind ``convergence --fd-check`` is left
out: one call takes about 4 s, so a run of the benchmark's length holds
too few iterations for a steady median or for a tail with ten samples
beyond it.

Every workload is a fixed preset.  The seed only permutes the order of
the independent (scheme, N) runs inside a command, so the artifacts'
values and the deterministic counts do not depend on it.  The
``convergence`` command requires increasing Ns, so there only the scheme
order is permuted; ``stability`` accepts both in any order.

Each workload has ``prepare(rng, out)``, which returns the zero-argument
call that is timed, and ``check(out, result)``, which validates the
outputs after the clock stops and returns the values that must repeat
exactly from one iteration (and run) to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from fptree import cli

# experiment1's proxy reference, (implicit + fp)/2 at N=120
EXP1_PROXY = 0.5714300335936866


class CheckFailed(AssertionError):
    """An output of the program is not what the workload expects."""


def _expect(cond, what):
    if not cond:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int  # backward-induction tree nodes per iteration
    prepare: Callable
    check: Callable


def _sum_sq(ns):
    return sum(n * n for n in ns)


def cli_call(args, out):
    """One in-process CLI command, its console output discarded."""
    argv = list(args) + ["--no-timing", "--out", out]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=argv, prog_name="fptree", standalone_mode=False)
    return call


def _scheme_flags(rng, schemes):
    schemes = list(schemes)
    rng.shuffle(schemes)
    return [a for s in schemes for a in ("--scheme", s)]


def _load(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def _finite(v):
    return isinstance(v, float) and math.isfinite(v)


# --- conv-exp1: convergence --preset experiment1 -------------------------

EXP1_NS = (5, 10, 15, 20, 30, 40, 50, 60, 70, 80)


def _conv_exp1_prepare(rng, out):
    return cli_call(["convergence", "--preset", "experiment1"]
                     + _scheme_flags(rng, ("explicit", "implicit", "fp")), out)


def _conv_exp1_check(out, _):
    s = _load(out, "convergence_summary.json")
    proxy = s["oracle"]["value"]
    _expect(abs(proxy - EXP1_PROXY) <= 1e-9, "proxy %r != %r" % (proxy, EXP1_PROXY))
    sch = s["schemes"]
    # explicit blows up on experiment1: that is data, but its place is fixed
    _expect(sch["explicit"]["exploded_Ns"] == list(EXP1_NS[1:]),
            "explicit exploded at %r" % sch["explicit"]["exploded_Ns"])
    for name in ("implicit", "fp"):
        _expect(sch[name]["exploded_Ns"] == [], "%s exploded" % name)
        _expect(all(_finite(v) for v in sch[name]["Y0"].values()),
                "%s has a non-finite Y0" % name)
    return {"oracle": s["oracle"], "schemes": sch}


# --- conv-linear: convergence --preset linear-oracle ---------------------

LINEAR_NS = (10, 20, 40, 80, 160, 320)


def _conv_linear_prepare(rng, out):
    return cli_call(["convergence", "--preset", "linear-oracle"]
                     + _scheme_flags(rng, ("fp",)), out)


def _conv_linear_check(out, _):
    s = _load(out, "convergence_summary.json")
    ref = s["oracle"]["value"]
    _expect(abs(ref - 2.25 / math.e) <= 1e-12, "reference %r != 2.25/e" % ref)
    fp = s["schemes"]["fp"]
    err = fp["err"][str(LINEAR_NS[-1])]
    _expect(1.2e-3 <= err <= 1.4e-3, "fp error %r at N=320 not ~1.3e-3" % err)
    _expect(0.95 <= fp["slope"] <= 1.05, "fp slope %r not ~1" % fp["slope"])
    return {"oracle": s["oracle"], "schemes": s["schemes"]}


# --- stab-exp2: stability --preset experiment2 ---------------------------

EXP2_NS = (15, 17, 19, 25)
EXP2_SCHEMES = ("explicit", "implicit", "fp")


def _stab_exp2_prepare(rng, out):
    ns = list(EXP2_NS)
    rng.shuffle(ns)
    return cli_call(["stability", "--preset", "experiment2",
                      "--Ns", ",".join(map(str, ns))]
                     + _scheme_flags(rng, EXP2_SCHEMES), out)


def _stab_exp2_check(out, _):
    files = sorted(os.listdir(out))
    want = sorted(["minmax_%s_N%d.csv" % (s, n)
                   for s in EXP2_SCHEMES for n in EXP2_NS]
                  + ["stability_summary.json"])
    _expect(files == want, "artifacts %r" % files)
    runs = _load(out, "stability_summary.json")["runs"]
    for n in EXP2_NS:
        run = runs["fp_N%d" % n]
        _expect(run["finite"], "fp_N%d not finite" % n)
        for kind, ledger in run["ledgers"].items():
            if ledger["applicable"]:
                _expect(ledger["violations"] == 0,
                        "fp_N%d %s ledger has %d violations"
                        % (n, kind, ledger["violations"]))
    return {"runs": runs}


WORKLOADS = {
    w.name: w
    for w in (
        # explicit, implicit and fp over EXP1_NS, plus the N=120 proxy
        # (implicit and fp)
        Workload("conv-exp1", 3 * _sum_sq(EXP1_NS) + 2 * 120 * 120,
                 _conv_exp1_prepare, _conv_exp1_check),
        Workload("conv-linear", _sum_sq(LINEAR_NS),
                 _conv_linear_prepare, _conv_linear_check),
        # three schemes plus fp again on perturbed terminal data
        Workload("stab-exp2", 4 * _sum_sq(EXP2_NS),
                 _stab_exp2_prepare, _stab_exp2_check),
    )
}

# the set-up command: a fresh interpreter imports the CLI and runs it
SETUP_ARGS = ("check", "--preset", "experiment1")
