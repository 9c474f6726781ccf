"""Spans around calls into fptree's public functions, from outside the package.

Each hook wraps one public function of a layer module and rebinds every
name in the loaded ``fptree.*`` modules that refers to it, because
``cli``, ``analysis`` and ``oracle`` bind functions such as
``run_backward`` and ``build_lattice`` with ``from ... import``; wrapping
only the defining module would miss the binding that is actually
called.  A function missing from its module is reported as absent.

Spans nest: a span's self time is its duration minus the time of the
spans opened inside it, so ``chain_law`` inside ``run_backward`` is not
counted as kernel time.  Counts that the program's outputs determine
(nodes, Newton iterations, ledger violations) are recorded at the same
boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

_SCHEME_OF_KIND = {
    "explicit_euler": "explicit",
    "implicit_euler": "implicit",
    "full_projection_pre": "fp",
    "full_projection_post": "fp",
}


class Tracer:
    """In-memory span and count recorder for one traced iteration."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dur
            self.total_s[name] += dur
            self.self_s[name] += dur - child
            self.counts[name + ".calls"] += 1


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _level_nodes(lattice, levels):
    return sum(len(lattice.supports[i]) for i in range(levels))


def _scheme_name(args, kwargs):
    kind = _arg(args, kwargs, 0, "cfg").kind
    return "schemes." + _SCHEME_OF_KIND.get(kind, kind)


def _count_run(counts, name, args, kwargs, run):
    lattice = _arg(args, kwargs, 1, "lattice")
    counts[name + ".nodes"] += _level_nodes(lattice, lattice.time_grid.N)
    counts[name + ".newton_iters"] += run.solver_iterations_total
    counts[name + ".nonfinite_runs"] += int(not run.finite)


def _count_lattice(counts, name, args, kwargs, lattice):
    counts["forward.lattice_nodes"] += _level_nodes(lattice, lattice.n_levels)


def _one_step_name(args, kwargs):
    return "analysis.one_step_checks." + _arg(args, kwargs, 4, "kind")


def _count_ledger(counts, name, args, kwargs, ledger):
    counts["analysis.ledger_violations"] += ledger.violations
    if ".one_step_checks." in name:
        counts["analysis.one_step_checks.nodes"] += ledger.total_checked


def _fixed(name):
    return lambda args, kwargs: name


# (module, function, span namer, counter)
HOOKS = (
    ("forward", "build_lattice", _fixed("forward.build_lattice"), _count_lattice),
    ("treeval", "chain_law", _fixed("treeval.chain_law"), None),
    ("schemes", "run_backward", _scheme_name, _count_run),
    ("analysis", "one_step_checks", _one_step_name, _count_ledger),
    ("analysis", "contraction_check",
     _fixed("analysis.contraction_check"), _count_ledger),
    ("analysis", "sup_norm_check",
     _fixed("analysis.sup_norm_check"), _count_ledger),
    ("oracle", "proxy_reference", _fixed("oracle.proxy_reference"), None),
    ("model", "validate_model", _fixed("model.validate_model"), None),
)


def _wrap(tracer, fn, namer, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = namer(args, kwargs)
        out = tracer.call(name, fn, *args, **kwargs)
        if counter is not None:
            counter(tracer.counts, name, args, kwargs, out)
        return out
    return wrapper


def install(tracer):
    """Hook every function in HOOKS; return (undo list, absent names)."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "fptree" or n.startswith("fptree.")]
    undo = []
    absent = []
    for mod_name, fn_name, namer, counter in HOOKS:
        orig = getattr(importlib.import_module("fptree." + mod_name),
                       fn_name, None)
        if orig is None:
            absent.append("%s.%s" % (mod_name, fn_name))
            continue
        wrapper = _wrap(tracer, orig, namer, counter)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
    return undo, absent


def uninstall(undo):
    for mod, attr, orig in reversed(undo):
        setattr(mod, attr, orig)
