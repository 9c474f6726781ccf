"""Command-line front end.

Three commands:

* ``check``        run the invariant suites (model assumptions, moment
                   matching, weight/truncation properties, projection,
                   pre/post equivalence); exit 1 on any failure.
* ``convergence``  Y0 versus N for the configured schemes against a
                   reference (proxy or closed form); CSV per scheme
                   plus a JSON summary.
* ``stability``    per-level max/min curves and the stability ledgers
                   (sup bound, L2 contraction, one-step inequalities).

Configuration comes from a preset, an optional key=value config file,
and flags; flags win over file keys, file keys over preset defaults.
Artifacts are deterministic: no timestamps, no host details, no thread
counts; with --no-timing the outputs are byte-identical across runs.

Exit codes: 0 success, 1 check/run failure, 2 configuration error.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import click
import numpy as np

from . import analysis
from .analysis import Reference, convergence_study, minmax_processes
from .forward import build_lattice, dump_lattice
from .grids import (
    ConfigurationError,
    SpatialGrid,
    TimeGrid,
    TruncationConfig,
    default_alpha,
    gaussian_moment_exact,
    grid_project,
    increment_radius,
    make_weight_config,
    moment_exact,
    trinomial,
    truncate,
    truncate_array,
    weight_values,
)
from .model import (
    ModelError,
    ModelSpec,
    constant_g,
    experiment1_model,
    experiment2_model,
    linear_model,
    lipschitz_clamp_g,
    make_constant_model,
    poly_driver,
    quadratic_g,
    validate_model,
    with_declared_my,
)
from .oracle import (
    FdSolverError,
    OracleError,
    fd_solve,
    linear_solution,
    proxy_reference,
)
from .schemes import SchemeConfig, SchemeError, SolverError, run_backward

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Presets and configuration plumbing
# ---------------------------------------------------------------------------

_PRESETS = {
    "experiment1": dict(
        Ns=(5, 10, 15, 20, 30, 40, 50, 60, 70, 80),
        R0=2.0,
        alpha=0.249,
        schemes=("explicit", "implicit", "fp"),
        reference="proxy",
    ),
    "experiment2": dict(
        Ns=(15, 17, 19, 25),
        R0=2.5,
        alpha=0.249,
        schemes=("explicit", "implicit", "fp"),
        reference="proxy",
    ),
    "linear-oracle": dict(
        Ns=(10, 20, 40, 80, 160, 320),
        R0=10.0,
        alpha=1.0,
        schemes=("fp",),
        reference="linear_oracle",
    ),
    "custom": dict(
        Ns=(20,),
        R0=None,
        alpha=None,
        schemes=("fp",),
        reference="proxy",
    ),
}

_CONFIG_ERRORS = (ConfigurationError, ModelError, SchemeError, OracleError)


@dataclass
class Settings:
    """Resolved run settings after merging preset, file, and flags."""

    preset: str
    schemes: Tuple[str, ...]
    Ns: Tuple[int, ...]
    R0: float
    alpha: float
    trunc_mode: str
    epsilon: Optional[float]
    weight_rule: str
    eta: Optional[float]
    grid_extent: Optional[float]
    out: str
    threads: int
    no_timing: bool
    proxy_N: int
    model: ModelSpec


def _parse_ns(text: str) -> Tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError:
        raise click.UsageError("could not parse Ns list %r" % (text,))
    if not vals:
        raise click.UsageError("Ns list is empty")
    return vals


def _read_config_file(path: str) -> dict:
    """Flat key=value file with optional [run]/[model] sections."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.lstrip().startswith("["):
        text = "[run]\n" + text
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise click.UsageError("bad config file %s: %s" % (path, err))
    out = {"run": {}, "model": {}}
    for section in parser.sections():
        if section not in out:
            raise click.UsageError(
                "unknown config section [%s]; expected [run] or [model]"
                % section
            )
        out[section] = {k: v for k, v in parser.items(section)}
    return out


def _parse_g(text: str):
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind == "quadratic":
        return quadratic_g()
    if kind == "const":
        return constant_g(float(rest))
    if kind == "clamp":
        parts = [float(p) for p in rest.split(",")]
        if len(parts) == 2:
            return lipschitz_clamp_g(parts[0], parts[1])
        if len(parts) == 3:
            return lipschitz_clamp_g(parts[0], parts[1], parts[2])
        raise click.UsageError("clamp takes lo,hi[,slope], got %r" % (rest,))
    raise click.UsageError(
        "unknown terminal function %r; expected quadratic, clamp:lo,hi[,slope]"
        " or const:c" % (text,)
    )


def _parse_driver(model_keys: dict):
    text = model_keys.get("driver", "poly:0")
    kind, _, rest = text.partition(":")
    if kind.strip() != "poly":
        raise click.UsageError("driver must be poly:c0,c1,... got %r" % (text,))
    try:
        coeffs = [float(p) for p in rest.split(",")] if rest else [0.0]
    except ValueError:
        raise click.UsageError("bad driver coefficients %r" % (rest,))
    z_coeff = float(model_keys.get("driver-zcoef", "0.0"))
    driver = poly_driver(coeffs, z_coeff)
    if "driver-my" in model_keys:
        driver = with_declared_my(driver, float(model_keys["driver-my"]))
    return driver


def _build_custom_model(model_keys: dict) -> ModelSpec:
    missing = [k for k in ("sigma", "g") if k not in model_keys]
    if missing:
        raise click.UsageError(
            "custom preset needs [model] keys %s in the config file"
            % ", ".join(missing)
        )
    return make_constant_model(
        T=float(model_keys.get("t", "1.0")),
        x0=float(model_keys.get("x0", "0.0")),
        b=float(model_keys.get("b", "0.0")),
        sigma=float(model_keys["sigma"]),
        g=_parse_g(model_keys["g"]),
        driver=_parse_driver(model_keys),
    )


def _preset_model(preset: str, model_keys: dict) -> ModelSpec:
    if preset == "experiment1":
        return experiment1_model()
    if preset == "experiment2":
        return experiment2_model()
    if preset == "linear-oracle":
        return linear_model(-1.0)
    if preset == "custom":
        return _build_custom_model(model_keys)
    raise click.UsageError("unknown preset %r" % (preset,))


def _resolve_settings(
    preset, config, scheme, ns_flag, n_flag, r0, alpha, trunc_mode, epsilon,
    weight_rule, eta, grid_extent, out, threads, no_timing, proxy_n,
) -> Settings:
    file_cfg = _read_config_file(config) if config else {"run": {}, "model": {}}
    run_keys = file_cfg["run"]

    preset = preset or run_keys.get("preset") or "experiment1"
    if preset not in _PRESETS:
        raise click.UsageError(
            "unknown preset %r; expected one of %s"
            % (preset, ", ".join(sorted(_PRESETS)))
        )
    base = _PRESETS[preset]
    model = _preset_model(preset, file_cfg["model"])
    m = model.driver.m

    if scheme:
        schemes = tuple(scheme)
    elif "scheme" in run_keys:
        schemes = tuple(
            s.strip() for s in run_keys["scheme"].split(",") if s.strip()
        )
    else:
        schemes = base["schemes"]

    if ns_flag:
        Ns = _parse_ns(ns_flag)
    elif n_flag is not None:
        Ns = (int(n_flag),)
    elif "ns" in run_keys:
        Ns = _parse_ns(run_keys["ns"])
    elif "n" in run_keys:
        Ns = (int(run_keys["n"]),)
    else:
        Ns = base["Ns"]

    def pick(flag_val, key, default):
        if flag_val is not None:
            return flag_val
        if key in run_keys:
            return run_keys[key]
        return default

    r0_val = float(pick(r0, "r0", base["R0"] if base["R0"] is not None else 10.0))
    alpha_default = base["alpha"] if base["alpha"] is not None else default_alpha(m)
    alpha_val = float(pick(alpha, "alpha", alpha_default))
    mode_val = str(pick(trunc_mode, "trunc-mode", "hard"))
    eps_raw = pick(epsilon, "epsilon", None)
    eps_val = None if eps_raw is None else float(eps_raw)
    rule_val = str(pick(weight_rule, "weight-rule", "truncated"))
    eta_raw = pick(eta, "eta", None)
    eta_val = None if eta_raw is None else float(eta_raw)
    if eta_val is not None and eta_val <= 0.0:
        raise click.UsageError("eta must be positive, got %g" % eta_val)
    extent_raw = pick(grid_extent, "grid-extent", None)
    extent_val = None if extent_raw is None else float(extent_raw)
    if extent_val is not None and extent_val <= 0.0:
        raise click.UsageError(
            "grid-extent must be positive, got %g" % extent_val
        )
    out_val = str(pick(out, "out", "fptree-out"))
    threads_val = int(pick(threads, "threads", 1))
    proxy_val = int(pick(proxy_n, "proxy-n", 120))
    if not no_timing:
        no_timing = run_keys.get("no-timing", "false").strip().lower() in (
            "1", "true", "yes", "on",
        )

    return Settings(
        preset=preset,
        schemes=schemes,
        Ns=Ns,
        R0=r0_val,
        alpha=alpha_val,
        trunc_mode=mode_val,
        epsilon=eps_val,
        weight_rule=rule_val,
        eta=eta_val,
        grid_extent=extent_val,
        out=out_val,
        threads=threads_val,
        no_timing=bool(no_timing),
        proxy_N=proxy_val,
        model=model,
    )


def _truncation(st: Settings) -> TruncationConfig:
    return TruncationConfig(
        R0=st.R0, alpha=st.alpha, mode=st.trunc_mode, epsilon=st.epsilon
    )


def _grid_for(st: Settings, tg: TimeGrid) -> Optional[SpatialGrid]:
    """Spatial mesh for one run, or None for the exact recombining tree.

    A grid is opt-in (--eta / --grid-extent); without one the lattice
    recombines exactly, which dominates any eta > 0.  When only the
    extent is given the mesh defaults to eta = h^2 so the projection
    error O(eta/h) stays one order below the scheme's O(h).
    """
    if st.eta is None and st.grid_extent is None:
        return None
    eta = st.eta if st.eta is not None else tg.h * tg.h
    extent = st.grid_extent
    if extent is None:
        extent = 6.0 * abs(st.model.sigma_const) * math.sqrt(st.model.T)
    return SpatialGrid(
        x0=st.model.x0, eta=eta, M=max(1, int(math.ceil(extent / eta)))
    )


_SCHEME_NAMES = ("explicit", "implicit", "fp", "fp-post")


def _scheme_config(name: str, st: Settings) -> SchemeConfig:
    trunc = _truncation(st)
    if name == "explicit":
        return SchemeConfig(kind="explicit_euler", weight_rule=st.weight_rule)
    if name == "implicit":
        return SchemeConfig(kind="implicit_euler", weight_rule=st.weight_rule)
    if name == "fp":
        return SchemeConfig(
            kind="full_projection_pre", truncation=trunc,
            weight_rule=st.weight_rule,
        )
    if name == "fp-post":
        return SchemeConfig(
            kind="full_projection_post", truncation=trunc,
            weight_rule=st.weight_rule,
        )
    if name.startswith("theta="):
        try:
            theta = float(name.split("=", 1)[1])
        except ValueError:
            raise click.UsageError("bad theta value in %r" % (name,))
        return SchemeConfig(
            kind="theta", theta=theta, weight_rule=st.weight_rule
        )
    raise click.UsageError(
        "unknown scheme %r; expected one of %s or theta=<v>"
        % (name, ", ".join(_SCHEME_NAMES))
    )


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------


def _json_safe(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return value
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _settings_echo(st: Settings) -> dict:
    # deliberately excludes out path, thread count, and anything
    # machine-dependent: artifacts must be byte-identical across runs
    return {
        "preset": st.preset,
        "schemes": list(st.schemes),
        "Ns": list(st.Ns),
        "R0": st.R0,
        "alpha": st.alpha,
        "trunc_mode": st.trunc_mode,
        "epsilon": st.epsilon,
        "weight_rule": st.weight_rule,
        "eta": st.eta,
        "grid_extent": st.grid_extent,
        "driver": st.model.driver.label,
        "T": st.model.T,
        "x0": st.model.x0,
        "b": st.model.b_const,
        "sigma": st.model.sigma_const,
        "driver_constants": {
            "M_y": st.model.driver.M_y,
            "L_y": st.model.driver.L_y,
            "L_z": st.model.driver.L_z,
            "m": st.model.driver.m,
            "f00": st.model.driver.f00,
        },
    }


def _ledger_digest(ledger: analysis.StabilityLedger) -> dict:
    # worst residual over all entries; nan (unverifiable) dominates
    worst = -math.inf
    for e in ledger.entries:
        r = e.residual if hasattr(e, "residual") else e.worst_residual
        if r != r:
            worst = math.nan
            break
        if r > worst:
            worst = r
    return {
        "kind": ledger.kind,
        "applicable": ledger.applicable,
        "applicability_reason": ledger.applicability_reason,
        "c_value": ledger.c_value,
        "tol_abs": ledger.tol_abs,
        "tol_rel": ledger.tol_rel,
        "total_checked": ledger.total_checked,
        "violations": ledger.violations,
        "rhs_overflows": ledger.rhs_overflows,
        "nonfinite": ledger.nonfinite,
        "worst_residual": worst,
    }


def _reference_for(st: Settings) -> Tuple[Reference, dict]:
    base = _PRESETS[st.preset]
    if base["reference"] == "linear_oracle":
        a = st.model.driver.eval(1.0, 0.0) - st.model.driver.f00
        _, y0 = linear_solution(a, st.model)
        return Reference(kind="linear_oracle", value=y0), {
            "kind": "linear_oracle",
            "value": y0,
            "a": a,
        }
    proxy = proxy_reference(
        st.model, _truncation(st), weight_rule=st.weight_rule, N=st.proxy_N
    )
    return Reference(kind="proxy", value=proxy.value), {
        "kind": "proxy",
        "value": proxy.value,
        "implicit_y0": proxy.implicit_y0,
        "fp_y0": proxy.fp_y0,
        "N": proxy.N,
    }


# ---------------------------------------------------------------------------
# check command suites
# ---------------------------------------------------------------------------


def _suite_model_assumptions(st: Settings, budget: int, tol: float, seed: int):
    report = validate_model(st.model, probe_budget=budget, tol=tol, seed=seed)
    if report.passed:
        return True, "all %d assumption checks passed" % len(report.checks)
    parts = [
        "%s worst=%.3g witness=%s" % (c.name, c.worst, c.witness)
        for c in report.failures()
    ]
    return False, "; ".join(parts)


def _suite_moments(st: Settings):
    for N in st.Ns:
        h = st.model.T / N
        dist = trinomial(h)
        for k in range(6):
            lhs = moment_exact(dist, k)
            rhs = gaussian_moment_exact(h, k)
            if lhs != rhs:
                return False, "order-%d moment mismatch at N=%d" % (k, N)
        if moment_exact(dist, 6) == gaussian_moment_exact(h, 6):
            return False, "order-6 moment unexpectedly Gaussian at N=%d" % N
    return True, "orders 0..5 exact, order 6 non-Gaussian, for all Ns"


def _suite_weights(st: Settings):
    for N in st.Ns:
        h = st.model.T / N
        dist = trinomial(h)
        wcfg = make_weight_config(h)
        H, lam = weight_values(wcfg, dist, h)
        mean = math.fsum(w * hj for w, hj in zip(dist.weights, H))
        if mean != 0.0:
            return False, "H mean %r nonzero at N=%d" % (mean, N)
        if lam > 1.0:
            return False, "Lambda %r exceeds 1 at N=%d" % (lam, N)
        if h <= 0.29:
            if lam != 1.0:
                return False, "Lambda %r != 1 at inactive h=%g" % (lam, h)
            if math.sqrt(3.0 * h) > increment_radius(h):
                return False, "increment truncation active at h=%g" % h
    return True, "mean-zero and Lambda <= 1 for all Ns"


def _suite_truncation(st: Settings):
    trunc = _truncation(st)
    h = st.model.T / max(st.Ns)
    from .grids import truncation_radius

    R = truncation_radius(trunc, h)
    xs = [(-1.0) ** k * (0.37 * k * k % (3.0 * R)) for k in range(400)]
    for mode in ("hard", "mollified"):
        cfg = TruncationConfig(R0=trunc.R0, alpha=trunc.alpha, mode=mode,
                               epsilon=trunc.epsilon)
        for a in xs[::7]:
            for b in xs[::13]:
                if abs(truncate(cfg, h, a) - truncate(cfg, h, b)) > abs(a - b) * (
                    1.0 + 1e-12
                ) + 1e-15:
                    return False, "1-Lipschitz violated (%s mode)" % mode
        for a in xs:
            if abs(a) <= R and truncate(cfg, h, a) != a:
                return False, "identity inside radius violated (%s mode)" % mode
            if truncate(cfg, h, -a) != -truncate(cfg, h, a):
                return False, "odd symmetry violated (%s mode)" % mode
    return True, "1-Lipschitz, identity inside radius, odd symmetry"


def _suite_projection(st: Settings):
    from .grids import SpatialGrid

    grid = SpatialGrid(x0=0.0, eta=0.1, M=10)
    cases = [
        (0.349, 0.3),
        (0.35, 0.3),
        (5.0, 1.0),
        (-5.0, -1.0),
    ]
    for x, want in cases:
        got = grid_project(grid, x)
        if abs(got - want) > 1e-15:
            return False, "project(%r) = %r, wanted %r" % (x, got, want)
    # exact midpoints need a dyadic mesh; 0.35/0.1 is not a tie in floats
    dyadic = SpatialGrid(x0=0.0, eta=0.5, M=4)
    for x, want in [(0.25, 0.0), (-0.25, -0.5), (0.75, 0.5)]:
        got = grid_project(dyadic, x)
        if got != want:
            return False, "tie project(%r) = %r, wanted %r" % (x, got, want)
    for x in [-1.7, -0.33, 0.0, 0.08, 0.555, 2.4]:
        once = grid_project(grid, x)
        if grid_project(grid, once) != once:
            return False, "projection not idempotent at %r" % (x,)
    return True, "tie rule and idempotence verified"


def _suite_pre_post(st: Settings):
    N = min(min(st.Ns), 12)
    tg = TimeGrid(T=st.model.T, N=N)
    lattice = build_lattice(st.model, tg, trinomial(tg.h))
    trunc = _truncation(st)
    pre = run_backward(
        SchemeConfig(kind="full_projection_pre", truncation=trunc,
                     weight_rule=st.weight_rule),
        lattice, st.model,
    )
    post = run_backward(
        SchemeConfig(kind="full_projection_post", truncation=trunc,
                     weight_rule=st.weight_rule),
        lattice, st.model,
    )
    h = tg.h
    for i in range(N + 1):
        if not np.array_equal(truncate_array(trunc, h, pre.y[i]), post.y[i]):
            return False, "post y != T(pre y) at level %d" % i
    for i in range(N):
        if not np.array_equal(pre.z[i], post.z[i]):
            return False, "z differs at level %d" % i
    return True, "post equals truncated pre, z identical (bitwise, N=%d)" % N


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Backward schemes for monotone FBSDEs on trinomial lattices."""


def _common_options(fn):
    fn = click.option("--preset", type=str, default=None,
                      help="experiment1 | experiment2 | linear-oracle | custom")(fn)
    fn = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="key=value config file")(fn)
    fn = click.option("--scheme", multiple=True,
                      help="explicit | implicit | fp | fp-post | theta=<v> "
                           "(repeatable)")(fn)
    fn = click.option("--Ns", "ns_flag", type=str, default=None,
                      help="comma-separated list of N values")(fn)
    fn = click.option("--N", "n_flag", type=int, default=None,
                      help="single N (alternative to --Ns)")(fn)
    fn = click.option("--R0", "r0", type=float, default=None,
                      help="truncation radius coefficient")(fn)
    fn = click.option("--alpha", type=float, default=None,
                      help="truncation radius exponent")(fn)
    fn = click.option("--trunc-mode", type=click.Choice(["hard", "mollified"]),
                      default=None)(fn)
    fn = click.option("--epsilon", type=float, default=None,
                      help="mollification width (default h)")(fn)
    fn = click.option("--weight-rule", type=click.Choice(["raw", "truncated"]),
                      default=None)(fn)
    fn = click.option("--eta", type=float, default=None,
                      help="spatial mesh width (default: exact recombining "
                           "tree; with --grid-extent alone, h^2)")(fn)
    fn = click.option("--grid-extent", type=float, default=None,
                      help="half-width of the spatial grid around x0")(fn)
    fn = click.option("--out", type=str, default=None,
                      help="output directory (default fptree-out)")(fn)
    fn = click.option("--threads", type=int, default=None,
                      help="worker cap; results are independent of it")(fn)
    fn = click.option("--no-timing", is_flag=True, default=False,
                      help="omit wall-clock fields from artifacts")(fn)
    fn = click.option("--proxy-N", "proxy_n", type=int, default=None,
                      help="resolution of the proxy reference (default 120)")(fn)
    return fn


def _resolve(kw) -> Settings:
    try:
        return _resolve_settings(
            kw["preset"], kw["config"], kw["scheme"], kw["ns_flag"],
            kw["n_flag"], kw["r0"], kw["alpha"], kw["trunc_mode"],
            kw["epsilon"], kw["weight_rule"], kw["eta"], kw["grid_extent"],
            kw["out"], kw["threads"], kw["no_timing"], kw["proxy_n"],
        )
    except _CONFIG_ERRORS as err:
        raise click.UsageError(str(err))


@main.command()
@_common_options
@click.option("--probe-budget", type=int, default=10_000)
@click.option("--tol", type=float, default=1e-9)
@click.option("--seed", type=int, default=0)
def check(probe_budget, tol, seed, **kw):
    """Run the invariant suites; exit 0 iff all pass."""
    st = _resolve(kw)
    suites = [
        ("model_assumptions",
         lambda: _suite_model_assumptions(st, probe_budget, tol, seed)),
        ("trinomial_moments", lambda: _suite_moments(st)),
        ("weights", lambda: _suite_weights(st)),
        ("truncation", lambda: _suite_truncation(st)),
        ("projection", lambda: _suite_projection(st)),
        ("pre_post_equivalence", lambda: _suite_pre_post(st)),
    ]
    results = []
    for name, fn in suites:
        try:
            passed, detail = fn()
        except _CONFIG_ERRORS as err:
            raise click.UsageError(str(err))
        results.append({"name": name, "passed": passed, "detail": detail})
        click.echo("%s %s: %s" % ("PASS" if passed else "FAIL", name, detail))
    all_passed = all(r["passed"] for r in results)
    if kw["out"]:
        os.makedirs(st.out, exist_ok=True)
        _write_json(
            os.path.join(st.out, "check_report.json"),
            {"passed": all_passed, "suites": results,
             "settings": _settings_echo(st)},
        )
    if not all_passed:
        raise SystemExit(1)


@main.command()
@_common_options
@click.option("--fd-check", is_flag=True, default=False,
              help="also compute the finite-difference oracle value")
@click.option("--dump-lattice", "dump_flag", is_flag=True, default=False,
              help="write lattice structure JSON per N")
def convergence(fd_check, dump_flag, **kw):
    """Y0 versus N for each scheme against the configured reference."""
    st = _resolve(kw)
    os.makedirs(st.out, exist_ok=True)
    try:
        reference, oracle_info = _reference_for(st)
    except _CONFIG_ERRORS as err:
        raise click.UsageError(str(err))

    if fd_check:
        try:
            pde = fd_solve(st.model, dx=0.02)
            oracle_info = dict(oracle_info)
            oracle_info["fd_value_at_origin"] = pde.value_at(0.0, st.model.x0)
        except (FdSolverError, OracleError) as err:
            raise click.ClickException("FD oracle failed: %s" % err)

    summary = {
        "command": "convergence",
        "settings": _settings_echo(st),
        "oracle": oracle_info,
        "schemes": {},
    }
    for name in st.schemes:
        cfg = _scheme_config(name, st)
        try:
            report = convergence_study(
                st.model, cfg, st.Ns, reference, timing=not st.no_timing,
                grid_factory=lambda tg: _grid_for(st, tg),
            )
        except SolverError as err:
            raise click.ClickException(
                "scheme %s failed: %s" % (name, err)
            )
        rows = [
            (e.N, e.h, e.Y0, e.err,
             None if st.no_timing else e.seconds, e.exploded)
            for e in report.entries
        ]
        _write_csv(
            os.path.join(st.out, "convergence_%s.csv" % name.replace("=", "_")),
            ("N", "h", "Y0", "err", "seconds", "exploded"),
            rows,
        )
        digest = {
            "slope": report.slope,
            "slope_residual": report.slope_residual,
            "note": report.note,
            "reference_kind": report.reference_kind,
            "reference_value": report.reference_value,
            "exploded_Ns": [e.N for e in report.entries if e.exploded],
            "Y0": {str(e.N): e.Y0 for e in report.entries},
            "err": {str(e.N): e.err for e in report.entries},
        }
        if not st.no_timing:
            digest["seconds"] = {str(e.N): e.seconds for e in report.entries}
        summary["schemes"][name] = digest
        click.echo(
            "%s: slope=%s exploded=%s"
            % (name,
               "n/a" if report.slope is None else "%.3f" % report.slope,
               digest["exploded_Ns"] or "none")
        )

    if dump_flag:
        for N in st.Ns:
            tg = TimeGrid(T=st.model.T, N=N)
            lattice = build_lattice(
                st.model, tg, trinomial(tg.h), _grid_for(st, tg)
            )
            _write_json(
                os.path.join(st.out, "lattice_N%d.json" % N),
                dump_lattice(lattice),
            )

    _write_json(os.path.join(st.out, "convergence_summary.json"), summary)
    click.echo("artifacts written to %s" % st.out)


@main.command()
@_common_options
def stability(**kw):
    """Per-level max/min curves and stability ledgers."""
    st = _resolve(kw)
    os.makedirs(st.out, exist_ok=True)
    trunc = _truncation(st)
    summary = {
        "command": "stability",
        "settings": _settings_echo(st),
        "runs": {},
    }
    perturb_g = st.model.g
    clamp7 = lipschitz_clamp_g(-7.0, 7.0)

    for name in st.schemes:
        cfg = _scheme_config(name, st)
        for N in st.Ns:
            tg = TimeGrid(T=st.model.T, N=N)
            lattice = build_lattice(
                st.model, tg, trinomial(tg.h), _grid_for(st, tg)
            )
            try:
                run = run_backward(cfg, lattice, st.model)
            except SolverError as err:
                raise click.ClickException(
                    "scheme %s at N=%d failed: %s" % (name, N, err)
                )
            key = "%s_N%d" % (name, N)
            _write_csv(
                os.path.join(st.out, "minmax_%s.csv" % key),
                ("level", "t", "y_max", "y_min", "finite"),
                minmax_processes(run),
            )
            digest = {
                "finite": run.finite,
                "Y0": run.y0,
                "Lambda": run.Lambda,
                "ledgers": {},
            }
            sup = analysis.sup_norm_check(run)
            digest["ledgers"]["sup_norm"] = _ledger_digest(sup)
            if name in ("fp", "fp-post", "implicit"):
                contr = analysis.contraction_check(
                    run, st.model, trunc, tg.h
                )
                digest["ledgers"]["contraction"] = _ledger_digest(contr)
            if name in ("fp", "fp-post"):
                size = analysis.one_step_checks(
                    run, lattice, st.model, trunc, kind="size"
                )
                digest["ledgers"]["size"] = _ledger_digest(size)

                def perturbed(x):
                    return perturb_g(x) + 0.1 * clamp7(x)

                run2 = run_backward(cfg, lattice, st.model, terminal=perturbed)
                stab = analysis.one_step_checks(
                    run, lattice, st.model, trunc, kind="stability", run2=run2
                )
                digest["ledgers"]["stability"] = _ledger_digest(stab)
            summary["runs"][key] = digest
            click.echo(
                "%s: finite=%s violations={%s}"
                % (key, run.finite,
                   ", ".join(
                       "%s:%d" % (k, v["violations"])
                       for k, v in sorted(digest["ledgers"].items())
                   ))
            )

    _write_json(os.path.join(st.out, "stability_summary.json"), summary)
    click.echo("artifacts written to %s" % st.out)


if __name__ == "__main__":
    main()
