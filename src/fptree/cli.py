"""Command-line front end.

Three commands:

* ``check``        validate the settings (exit 2 on a bad one) and probe
                   the model's declared assumption constants (exit 1 if
                   one fails); with --out, write check_report.json.
* ``convergence``  Y0 versus N for the configured schemes against a
                   reference (proxy or closed form); CSV per scheme
                   plus a JSON summary.
* ``stability``    per-level max/min curves and the stability ledgers
                   (sup bound, L2 contraction, one-step inequalities).

Configuration comes from a preset, an optional key=value config file,
and flags; flags win over file keys, file keys over preset defaults.
Artifacts are deterministic: no timestamps, no host details, no wall
times (those go to the console); they are byte-identical across runs.

Exit codes: 0 success, 1 check/run failure, 2 configuration error.
_settings raises every configuration error, before any file is written
or any run starts; _run_failure reports every failed run in one line.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from typing import NamedTuple, Optional, Sequence, Tuple

import click

from . import analysis
from .analysis import convergence_study, minmax_processes
from .forward import Lattice, build_lattice, dump_lattice
from .grids import (
    ConfigurationError,
    SpatialGrid,
    TruncationConfig,
    check_alpha,
    default_alpha,
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


class _Option(NamedTuple):
    """A shared option: one click flag and the config-file key it overrides.

    The file key is the flag without its dashes, lowercased; file values
    are converted by the same click type as the flag's.  ``default``
    applies when neither sets the value and the preset has none.
    """

    flag: str
    type: click.ParamType
    help: Optional[str] = None
    default: object = None
    multiple: bool = False  # repeatable flag; comma-separated in the file
    is_flag: bool = False

    @property
    def key(self) -> str:
        return self.flag.lstrip("-").lower()

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")


_OPTIONS = (
    _Option("--preset", click.STRING,
            "experiment1 | experiment2 | linear-oracle | custom",
            default="experiment1"),
    _Option("--config", click.Path(exists=True, dir_okay=False),
            "key=value config file"),
    _Option("--scheme", click.STRING,
            "explicit | implicit | fp | fp-post | theta=<v> (repeatable)",
            multiple=True),
    _Option("--Ns", click.STRING, "comma-separated list of N values"),
    _Option("--R0", click.FLOAT, "truncation radius coefficient"),
    _Option("--alpha", click.FLOAT, "truncation radius exponent"),
    _Option("--eta", click.FLOAT,
            "spatial mesh width (default: exact recombining tree; with "
            "--grid-extent alone, h^2)"),
    _Option("--grid-extent", click.FLOAT,
            "half-width of the spatial grid around x0"),
    # no default: check writes no report, the other commands fptree-out
    _Option("--out", click.STRING, "output directory (default fptree-out)"),
    _Option("--no-timing", click.BOOL,
            "print no wall-clock times", default=False, is_flag=True),
)

# a config file cannot name another config file
_FILE_OPTIONS = {o.key: o for o in _OPTIONS if o.key != "config"}

_MODEL_KEYS = ("t", "x0", "b", "sigma", "g", "driver", "driver-zcoef",
               "driver-my")

_CONFIG_ERRORS = (ConfigurationError, ModelError, SchemeError)


class Settings(NamedTuple):
    """Resolved run settings after merging preset, file, and flags."""

    preset: str
    scheme: Tuple[str, ...]
    ns: Tuple[int, ...]
    truncation: TruncationConfig
    eta: Optional[float]
    grid_extent: Optional[float]
    out: Optional[str]
    no_timing: bool
    model: ModelSpec
    configs: Tuple[SchemeConfig, ...]  # one per scheme
    lattices: Tuple[Lattice, ...]  # one per N; check builds none


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
    import configparser  # only --config reads it; keep it out of start-up

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.lstrip().startswith("["):
        text = "[run]\n" + text
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise click.UsageError("bad config file %s: %s" % (path, err))
    # keys under [DEFAULT] would leak into both sections unchecked
    extra = ["DEFAULT"] if parser.defaults() else []
    for section in parser.sections() + extra:
        if section not in ("run", "model"):
            raise click.UsageError(
                "unknown config section [%s]; expected [run] or [model]"
                % section
            )
    return {s: dict(parser.items(s)) for s in parser.sections()}


def _check_keys(section: str, keys, allowed) -> None:
    unknown = sorted(set(keys) - set(allowed))
    if unknown:
        raise click.UsageError(
            "unknown [%s] key %s; expected one of %s"
            % (section, ", ".join(unknown), ", ".join(sorted(allowed)))
        )


def _file_value(key: str, text: str):
    opt = _FILE_OPTIONS[key]
    try:
        if opt.multiple:
            return tuple(
                opt.type.convert(s.strip(), None, None)
                for s in text.split(",") if s.strip()
            )
        return opt.type.convert(text, None, None)
    except click.BadParameter as err:
        raise click.UsageError(
            "bad [run] value %s = %r: %s" % (key, text, err.message)
        )


def _parse_g(text: str):
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind == "quadratic":
        return quadratic_g()
    if kind == "const":
        return constant_g(float(rest))
    if kind == "clamp":
        parts = [float(p) for p in rest.split(",")]
        if len(parts) in (2, 3):
            return lipschitz_clamp_g(*parts)
        raise ValueError("clamp takes lo,hi[,slope]")
    raise ValueError("expected quadratic, clamp:lo,hi[,slope] or const:c")


def _parse_poly(text: str):
    kind, _, rest = text.partition(":")
    if kind.strip() != "poly":
        raise ValueError("expected poly:c0,c1,...")
    return [float(p) for p in rest.split(",")] if rest else [0.0]


def _build_custom_model(keys: dict) -> ModelSpec:
    _check_keys("model", keys, _MODEL_KEYS)
    missing = [k for k in ("sigma", "g") if k not in keys]
    if missing:
        raise click.UsageError(
            "custom preset needs [model] keys %s in the config file"
            % ", ".join(missing)
        )

    def value(key, default=None, parse=float):
        text = keys.get(key, default)
        try:
            return parse(text)
        except ValueError as err:
            raise click.UsageError(
                "bad [model] value %s = %r: %s" % (key, text, err)
            )

    driver = poly_driver(
        value("driver", "poly:0", _parse_poly), value("driver-zcoef", "0.0")
    )
    if "driver-my" in keys:
        driver = driver._replace(M_y=value("driver-my"))
    return make_constant_model(
        T=value("t", "1.0"),
        x0=value("x0", "0.0"),
        b=value("b", "0.0"),
        sigma=value("sigma"),
        g=value("g", parse=_parse_g),
        driver=driver,
    )


_PRESETS = {
    "experiment1": dict(
        model=lambda keys: experiment1_model(),
        ns=(5, 10, 15, 20, 30, 40, 50, 60, 70, 80),
        r0=2.0,
        alpha=0.249,
        scheme=("explicit", "implicit", "fp"),
        reference="proxy",
    ),
    "experiment2": dict(
        model=lambda keys: experiment2_model(),
        ns=(15, 17, 19, 25),
        r0=2.5,
        alpha=0.249,
        scheme=("explicit", "implicit", "fp"),
        reference="proxy",
    ),
    "linear-oracle": dict(
        model=lambda keys: linear_model(-1.0),
        ns=(10, 20, 40, 80, 160, 320),
        r0=10.0,
        alpha=1.0,
        scheme=("fp",),
        reference="linear_oracle",
    ),
    "custom": dict(
        model=_build_custom_model,
        ns=(20,),
        r0=10.0,
        alpha=None,  # default_alpha(m) of the configured driver
        scheme=("fp",),
        reference="proxy",
    ),
}


def _shared_options(fn):
    for opt in _OPTIONS:
        fn = click.option(
            opt.flag, type=opt.type, default=None, help=opt.help,
            multiple=opt.multiple, is_flag=opt.is_flag,
        )(fn)
    return fn


def _settings(kw: dict, command: str) -> Settings:
    """Merge flags over config-file keys over preset defaults and
    resolve what the command reads: each scheme's config, each N's mesh
    and, unless the command is check, each N's lattice."""
    sections = _read_config_file(kw["config"]) if kw["config"] else {}
    run_keys = sections.get("run", {})
    _check_keys("run", run_keys, _FILE_OPTIONS)
    file_vals = {
        _FILE_OPTIONS[k].dest: _file_value(k, v) for k, v in run_keys.items()
    }
    flag_vals = {
        o.dest: kw[o.dest] for o in _FILE_OPTIONS.values()
        if kw[o.dest] not in (None, ())
    }
    for layer in (file_vals, flag_vals):
        if "ns" in layer:
            layer["ns"] = _parse_ns(layer["ns"])

    values = {o.dest: o.default for o in _FILE_OPTIONS.values()}
    preset = {**values, **file_vals, **flag_vals}["preset"]
    if preset not in _PRESETS:
        raise click.UsageError(
            "unknown preset %r; expected one of %s"
            % (preset, ", ".join(sorted(_PRESETS)))
        )
    if "model" in sections and preset != "custom":
        raise click.UsageError(
            "a [model] section needs preset custom, not %s" % preset
        )
    base = _PRESETS[preset]
    values.update((k, base[k]) for k in ("ns", "r0", "alpha", "scheme"))
    values.update(file_vals)
    values.update(flag_vals)
    for i, N in enumerate(values["ns"]):
        if N < 1:
            raise click.UsageError("N must be at least 1, got %d" % N)
        if N in values["ns"][:i]:
            raise click.UsageError(
                "N=%d appears twice in Ns; its artifacts would overwrite "
                "each other" % N
            )
    if command == "convergence" and list(values["ns"]) != sorted(values["ns"]):
        raise click.UsageError(
            "convergence needs increasing Ns, got %s"
            % ",".join(str(N) for N in values["ns"])
        )
    for i, name in enumerate(values["scheme"]):
        if name in values["scheme"][:i]:
            raise click.UsageError(
                "scheme %s appears twice; its artifacts would overwrite "
                "each other" % name
            )
    for key in ("eta", "grid_extent"):
        if values[key] is not None and not 0.0 < values[key] < math.inf:
            raise click.UsageError(
                "%s must be positive and finite, got %g"
                % (key.replace("_", "-"), values[key])
            )
    try:
        model = values["model"] = base["model"](sections.get("model", {}))
        m = model.driver.m
        if values["alpha"] is None:
            values["alpha"] = default_alpha(m)
        trunc = values["truncation"] = TruncationConfig(
            R0=values.pop("r0"), alpha=values.pop("alpha"))
        values["configs"] = tuple(
            _scheme_config(name, trunc, m) for name in values["scheme"])
        if command == "convergence" and base["reference"] == "proxy":
            check_alpha(trunc, m)  # the proxy reference runs fp
        # every scheme, ledger and --dump-lattice of a run reads these,
        # so each N's lattice is built once
        grids = [_grid_for(model, values["eta"], values["grid_extent"], N)
                 for N in values["ns"]]
        values["lattices"] = () if command == "check" else tuple(
            build_lattice(model, N, grid)
            for N, grid in zip(values["ns"], grids))
    except _CONFIG_ERRORS as err:
        raise click.UsageError(str(err))
    return Settings(**values)


def _grid_for(model: ModelSpec, eta: Optional[float],
              extent: Optional[float], N: int) -> Optional[SpatialGrid]:
    """Spatial mesh for the run of N steps, or None for the exact
    recombining tree.

    A grid is opt-in (--eta / --grid-extent); without one the lattice
    recombines exactly, which dominates any eta > 0.  When only the
    extent is given the mesh defaults to eta = h^2 so the projection
    error O(eta/h) stays one order below the scheme's O(h).
    """
    if eta is None and extent is None:
        return None
    if eta is None:
        h = model.T / N
        eta = h * h
    if extent is None:
        extent = 6.0 * abs(model.sigma_const) * math.sqrt(model.T)
    if not math.isfinite(extent / eta):
        raise ConfigurationError(
            "grid extent %g over eta %g gives no finite number of mesh "
            "points" % (extent, eta))
    return SpatialGrid(
        x0=model.x0, eta=eta, M=max(1, int(math.ceil(extent / eta)))
    )


_SCHEME_KINDS = {
    "explicit": "explicit_euler",
    "implicit": "implicit_euler",
    "fp": "full_projection_pre",
    "fp-post": "full_projection_post",
}


def _scheme_config(name: str, trunc: TruncationConfig, m: int) -> SchemeConfig:
    if name.startswith("theta="):
        try:
            theta = float(name.split("=", 1)[1])
        except ValueError:
            raise click.UsageError("bad theta value in %r" % (name,))
        if theta not in (0.0, 1.0):
            return SchemeConfig(kind="theta", theta=theta)
        # the two ends are the implicit and explicit schemes, bit for bit
        name = "implicit" if theta else "explicit"
    if name not in _SCHEME_KINDS:
        raise click.UsageError(
            "unknown scheme %r; expected one of %s or theta=<v>"
            % (name, ", ".join(_SCHEME_KINDS))
        )
    if not name.startswith("fp"):
        return SchemeConfig(kind=_SCHEME_KINDS[name])
    check_alpha(trunc, m)
    return SchemeConfig(kind=_SCHEME_KINDS[name], truncation=trunc)


@contextlib.contextmanager
def _run_failure(what: str):
    """End the command with 'Error: <what> failed: <why>' and exit 1
    when a run in the block fails."""
    try:
        yield
    except (SolverError, OracleError, FdSolverError) as err:
        raise click.ClickException("%s failed: %s" % (what, err))


def _out_dir(st: Settings) -> str:
    out = st.out or "fptree-out"
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        raise click.UsageError("bad --out %s: %s" % (out, err.strerror))
    return out


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------


def _json_safe(value):
    if isinstance(value, float):
        # str, not repr: a numpy float's repr names its type
        return value if math.isfinite(value) else str(value)
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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _settings_echo(st: Settings) -> dict:
    # deliberately excludes the out path and anything
    # machine-dependent: artifacts must be byte-identical across runs
    return {
        "preset": st.preset,
        "schemes": list(st.scheme),
        "Ns": list(st.ns),
        "R0": st.truncation.R0,
        "alpha": st.truncation.alpha,
        "eta": st.eta,
        "grid_extent": st.grid_extent,
        "driver": st.model.driver.label,
        "T": st.model.T,
        "x0": st.model.x0,
        "b": st.model.b_const,
        "sigma": st.model.sigma_const,
        "driver_constants": {k: getattr(st.model.driver, k)
                             for k in ("M_y", "L_y", "L_z", "m", "f00")},
    }


def _ledger_digest(ledger: analysis.StabilityLedger) -> dict:
    """The ledger's fields without its per-level arrays."""
    return {k: v for k, v in ledger._asdict().items()
            if not k.startswith("level_")}


def _reference_for(st: Settings) -> dict:
    """The summary's oracle block; errors are taken against its value."""
    if _PRESETS[st.preset]["reference"] == "linear_oracle":
        a = st.model.driver.eval(1.0, 0.0) - st.model.driver.f00
        _, y0 = linear_solution(a, st.model)
        return {"kind": "linear_oracle", "value": y0, "a": a}
    with _run_failure("proxy reference"):
        proxy = proxy_reference(st.model, st.truncation)
    return {"kind": "proxy", **proxy._asdict()}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Backward schemes for monotone FBSDEs on trinomial lattices."""


@main.command()
@_shared_options
def check(**kw):
    """Validate the settings and the model's declared constants."""
    st = _settings(kw, "check")
    # a bad --out is a usage error, reported before any verdict
    out = _out_dir(st) if st.out else None
    report = validate_model(st.model)
    detail = "; ".join(
        "%s worst=%.3g witness=%s" % (c.name, c.worst, c.witness)
        for c in report.failures()
    ) or "all %d assumption checks passed" % len(report.checks)
    click.echo("%s model_assumptions: %s"
               % ("PASS" if report.passed else "FAIL", detail))
    if out:
        suite = {"name": "model_assumptions", "passed": report.passed,
                 "detail": detail}
        _write_json(
            os.path.join(out, "check_report.json"),
            {"passed": report.passed, "suites": [suite],
             "settings": _settings_echo(st)},
        )
    if not report.passed:
        raise SystemExit(1)


@main.command()
@_shared_options
@click.option("--fd-check", is_flag=True, default=False,
              help="also compute the finite-difference oracle value")
@click.option("--dump-lattice", "dump_flag", is_flag=True, default=False,
              help="write lattice structure JSON per N")
def convergence(fd_check, dump_flag, **kw):
    """Y0 versus N for each scheme against the configured reference."""
    st = _settings(kw, "convergence")
    out = _out_dir(st)
    oracle_info = _reference_for(st)
    if fd_check:
        with _run_failure("FD oracle"):
            pde = fd_solve(st.model, dx=0.02)
            oracle_info["fd_value_at_origin"] = pde.value_at(0.0, st.model.x0)

    summary = {
        "command": "convergence",
        "settings": _settings_echo(st),
        "oracle": oracle_info,
        "schemes": {},
    }
    for name, cfg in zip(st.scheme, st.configs):
        t0 = time.perf_counter()
        with _run_failure("scheme %s" % name):
            report = convergence_study(cfg, st.lattices, oracle_info["value"])
        seconds = time.perf_counter() - t0
        _write_csv(
            os.path.join(out, "convergence_%s.csv" % name.replace("=", "_")),
            analysis.ErrorEntry._fields,
            report.entries,
        )
        digest = {
            "slope": report.slope,
            "slope_residual": report.slope_residual,
            "note": report.note,
            "reference_kind": oracle_info["kind"],
            "reference_value": oracle_info["value"],
            "exploded_Ns": [e.N for e in report.entries if e.exploded],
            "Y0": {str(e.N): e.Y0 for e in report.entries},
            "err": {str(e.N): e.err for e in report.entries},
        }
        summary["schemes"][name] = digest
        click.echo(
            "%s: slope=%s exploded=%s%s"
            % (name,
               "n/a" if report.slope is None else "%.3f" % report.slope,
               digest["exploded_Ns"] or "none",
               "" if st.no_timing else " seconds=%.4f" % seconds)
        )

    if dump_flag:
        for N, lattice in zip(st.ns, st.lattices):
            _write_json(
                os.path.join(out, "lattice_N%d.json" % N),
                dump_lattice(lattice),
            )

    _write_json(os.path.join(out, "convergence_summary.json"), summary)
    click.echo("artifacts written to %s" % out)


@main.command()
@_shared_options
def stability(**kw):
    """Per-level max/min curves and stability ledgers."""
    st = _settings(kw, "stability")
    out = _out_dir(st)
    trunc = st.truncation
    summary = {
        "command": "stability",
        "settings": _settings_echo(st),
        "runs": {},
    }
    g, clamp7 = st.model.g, lipschitz_clamp_g(-7.0, 7.0)
    perturbed = st.model._replace(g=lambda x: g(x) + 0.1 * clamp7(x))

    for name, cfg in zip(st.scheme, st.configs):
        for N, lattice in zip(st.ns, st.lattices):
            with _run_failure("scheme %s" % name):
                run = run_backward(cfg, lattice, st.model)
            key = "%s_N%d" % (name, N)
            _write_csv(
                os.path.join(out, "minmax_%s.csv" % key),
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
            if cfg.kind not in ("explicit_euler", "theta"):
                contr = analysis.contraction_check(run, trunc)
                digest["ledgers"]["contraction"] = _ledger_digest(contr)
            if cfg.truncation is not None:
                size = analysis.one_step_checks(run, trunc, kind="size")
                digest["ledgers"]["size"] = _ledger_digest(size)
                run2 = run_backward(cfg, lattice, perturbed)
                stab = analysis.one_step_checks(run, trunc, kind="stability",
                                                run2=run2)
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

    _write_json(os.path.join(out, "stability_summary.json"), summary)
    click.echo("artifacts written to %s" % out)


if __name__ == "__main__":
    main()
