import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

import fptree
from fptree import analysis, cli, forward, oracle, schemes
from fptree.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def assert_plain_csv_cells(out):
    """Every CSV cell is a float, an int, or true/false."""
    paths = sorted(out.glob("*.csv"))
    assert paths
    for path in paths:
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                if cell not in ("true", "false"):
                    float(cell)  # raises on e.g. "np.float64(0.5)"


class TestCheck:
    def test_preset_passes_and_writes_report(self, runner, tmp_path):
        for preset in ("experiment1", "experiment2", "linear-oracle"):
            out = tmp_path / preset
            result = runner.invoke(main, [
                "check", "--preset", preset, "--Ns", "5,10",
                "--out", str(out),
            ])
            assert result.exit_code == 0, (preset, result.output)
            [line] = result.output.splitlines()
            assert line.startswith("PASS model_assumptions: ")
            report = read_json(out / "check_report.json")
            assert report["passed"] is True
            assert [s["name"] for s in report["suites"]] == [
                "model_assumptions"]
            assert report["suites"][0]["passed"] is True
            assert report["settings"]["preset"] == preset

    @pytest.mark.parametrize("args, config", [
        # fp's y holds nan at these settings
        (["--preset", "experiment2", "--R0", "1e150", "--alpha", "0.1",
          "--Ns", "15"], None),
        # the radius R0 h^-alpha underflows to 0
        ([], "[run]\npreset = custom\nns = 1\nalpha = 2.0\n"
             "[model]\nt = 1e300\nsigma = 1.0\ng = quadratic\n"
             "driver = poly:0,-1\n"),
    ], ids=["nan-fp", "zero-radius"])
    def test_extreme_settings_pass(self, runner, tmp_path, args, config):
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            args = ["--config", str(cfg)]
        result = runner.invoke(main, ["check", *args])
        assert result.exit_code == 0, result.output
        assert "PASS model_assumptions" in result.output

    def test_lying_declared_slope_fails(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[run]\npreset = custom\nns = 5\n"
            "[model]\nsigma = 1.0\ng = quadratic\n"
            "driver = poly:0,0,0,-1\ndriver-my = -2.0\n"
        )
        result = runner.invoke(main, ["check", "--config", str(cfg)])
        assert result.exit_code == 1
        assert "FAIL model_assumptions" in result.output

    def test_unknown_preset_is_usage_error(self, runner):
        result = runner.invoke(main, ["check", "--preset", "nope"])
        assert result.exit_code == 2


class TestConvergence:
    def test_linear_oracle_no_timing(self, runner, tmp_path):
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "convergence", "--preset", "linear-oracle",
            "--Ns", "10,20,40", "--no-timing", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "seconds" not in result.output
        csv_text = (out / "convergence_fp.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "N,h,Y0,err,exploded"
        assert len(lines) == 4
        summary = read_json(out / "convergence_summary.json")
        assert summary["oracle"]["kind"] == "linear_oracle"
        fp_digest = summary["schemes"]["fp"]
        assert 0.8 <= fp_digest["slope"] <= 1.2
        assert fp_digest["exploded_Ns"] == []
        assert "seconds" not in fp_digest
        assert_plain_csv_cells(out)

    def test_artifacts_do_not_depend_on_timing(self, runner, tmp_path):
        # wall time goes to the console alone: each scheme's line
        # carries it unless --no-timing is set, and no artifact does
        args = ["convergence", "--preset", "experiment1", "--Ns", "5,10",
                "--scheme", "explicit", "--scheme", "fp"]
        files, outputs = [], []
        for extra in ([], ["--no-timing"]):
            out = tmp_path / ("art%d" % len(extra))
            result = runner.invoke(main, args + extra + ["--out", str(out)])
            assert result.exit_code == 0, result.output
            files.append({p.name: p.read_bytes() for p in out.iterdir()})
            outputs.append(result.output)
        assert files[0] == files[1]
        assert b"seconds" not in b"".join(files[0].values())
        timed = [line for line in outputs[0].splitlines()
                 if line.startswith(("explicit:", "fp:"))]
        assert len(timed) == 2
        assert all(re.search(r" seconds=\d+\.\d{4}$", line)
                   for line in timed)
        assert "seconds" not in outputs[1]

    def test_custom_model_exact_value(self, runner, tmp_path):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(
            "[run]\npreset = custom\nns = 8\nscheme = implicit\n"
            "no-timing = true\n"
            "[model]\nsigma = 1.0\ng = const:2.0\ndriver = poly:0\n"
        )
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "convergence", "--config", str(cfg), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = read_json(out / "convergence_summary.json")
        digest = summary["schemes"]["implicit"]
        assert digest["Y0"]["8"] == 2.0
        assert digest["err"]["8"] == 0.0
        assert digest["slope"] is None
        assert "floor" in digest["note"]

    def test_theta_scheme_parsed_and_written(self, runner, tmp_path):
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "convergence", "--preset", "linear-oracle",
            "--scheme", "theta=0.5", "--Ns", "10,20",
            "--no-timing", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "convergence_theta_0.5.csv").exists()
        summary = read_json(out / "convergence_summary.json")
        assert "theta=0.5" in summary["schemes"]

    def test_bogus_scheme_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "convergence", "--preset", "linear-oracle",
            "--scheme", "bogus", "--Ns", "10",
            "--out", str(tmp_path / "art"),
        ])
        assert result.exit_code == 2

    def test_fd_check_adds_oracle_field(self, runner, tmp_path):
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "convergence", "--preset", "linear-oracle", "--Ns", "10",
            "--no-timing", "--fd-check", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = read_json(out / "convergence_summary.json")
        fd_val = summary["oracle"]["fd_value_at_origin"]
        want = summary["oracle"]["value"]
        assert abs(fd_val - want) / abs(want) <= 1e-3

    def test_dump_lattice_artifacts(self, runner, tmp_path):
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "convergence", "--preset", "linear-oracle", "--Ns", "10",
            "--no-timing", "--dump-lattice", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        dump = read_json(out / "lattice_N10.json")
        assert dump["N"] == 10
        assert len(dump["levels"]) == 11

    def test_spatial_grid_flags(self, runner, tmp_path):
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "convergence", "--preset", "linear-oracle", "--Ns", "10,20",
            "--no-timing", "--eta", "0.05", "--grid-extent", "3.0",
            "--dump-lattice", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = read_json(out / "convergence_summary.json")
        assert summary["settings"]["eta"] == 0.05
        assert summary["settings"]["grid_extent"] == 3.0
        dump = read_json(out / "lattice_N20.json")
        # every level lives on the 121-point mesh around x0
        assert all(len(lv) <= 121 for lv in dump["levels"])
        # a coarse mesh on a shrunken extent costs accuracy, not validity
        digest = summary["schemes"]["fp"]
        assert digest["err"]["20"] <= 0.5

    @pytest.mark.parametrize("command", ["check", "convergence",
                                         "stability"])
    def test_eta_must_be_positive(self, runner, tmp_path, command):
        # eta and the grid extent must be positive and finite, and the
        # mesh they give must have finitely many points, with indices
        # exact in floats: each case is a configuration error of every
        # command, with no traceback and nothing written (at eta =
        # 1e-300 an unchecked int64 cast wraps and gives a silent Y0 of
        # 0.0)
        out = tmp_path / "art"
        for flags in (["--eta", "-0.1"], ["--eta", "nan"], ["--eta", "inf"],
                      ["--grid-extent", "0"], ["--grid-extent", "nan"],
                      ["--grid-extent", "inf"], ["--eta", "1e-320"],
                      ["--eta", "1e-300", "--grid-extent", "1"],
                      ["--eta", "1e-20", "--grid-extent", "1"]):
            result = runner.invoke(main, [
                command, "--preset", "linear-oracle", "--Ns", "10",
                *flags, "--out", str(out),
            ])
            assert result.exit_code == 2, (flags, result.output)
            assert isinstance(result.exception, SystemExit), flags
            assert not out.exists(), flags

    @pytest.mark.parametrize("model, why", [
        # the proxy's implicit run at N=120 has h*M_y = 100/120 >= 0.5
        ("t = 100\nsigma = 1.0\ng = quadratic\ndriver = poly:0,1\n",
         "implicit solve failed at N=120 level 119 node 0: step size "
         "violates the implicit contraction guard: h*theta*M_y = 0.833333 "
         ">= 0.5"),
        # both of the proxy's runs are inf from the terminal level on
        ("sigma = 1.0\ng = const:inf\ndriver = poly:0,-1\n",
         "proxy reference needs finite runs: implicit finite=False, "
         "full-projection finite=False"),
    ], ids=["steep", "nonfinite"])
    def test_failing_proxy_is_an_error_line(self, runner, tmp_path, model,
                                            why):
        # a failed proxy run is a run failure, not a configuration error:
        # the command fails with one Error: line, not a traceback
        cfg = tmp_path / "proxy.cfg"
        cfg.write_text("[run]\npreset = custom\nns = 5\n[model]\n" + model)
        result = runner.invoke(main, [
            "convergence", "--config", str(cfg), "--out", str(tmp_path / "art"),
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [
            "Error: proxy reference failed: " + why]

    @pytest.mark.parametrize("args, model, named", [
        # the proxy runs fp, which needs alpha <= 0.25 for m = 3, whatever
        # the schemes
        (["--preset", "experiment1", "--scheme", "implicit",
          "--alpha", "0.3"], None, "alpha=0.3 exceeds 1/(2(m-1))=0.25"),
        (["--preset", "experiment1", "--eta", "1e-20", "--grid-extent", "1"],
         None, "M must be at most 2**52"),
        # the N=1 lattice's first forward step overflows
        (["--Ns", "1", "--eta", "0.5", "--grid-extent", "1"],
         "sigma = 1.7e308\ng = quadratic\n",
         "the forward step from level 0 node 0 (branch 0) gave the "
         "non-finite state -inf"),
    ], ids=["fp-alpha", "grid", "lattice"])
    def test_settings_error_runs_no_proxy(self, runner, tmp_path,
                                          monkeypatch, args, model, named):
        # a settings error exits 2 before the proxy reference runs and
        # before --out is made
        def no_proxy(*a, **kw):
            raise AssertionError("the proxy reference ran")

        monkeypatch.setattr(cli, "proxy_reference", no_proxy)
        if model is not None:
            cfg = tmp_path / "model.cfg"
            cfg.write_text("[run]\npreset = custom\n[model]\n" + model)
            args = args + ["--config", str(cfg)]
        out = tmp_path / "art"
        result = runner.invoke(main, ["convergence", *args,
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert named in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["convergence", "stability"])
    def test_overflowing_forward_step_warns_nothing(self, runner, tmp_path,
                                                    command):
        # the step overflows in numpy; the error line alone reports it
        cfg = tmp_path / "model.cfg"
        cfg.write_text("[run]\npreset = custom\n[model]\nsigma = 1.7e308\n"
                       "g = quadratic\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [
                command, "--config", str(cfg), "--Ns", "1", "--eta", "0.5",
                "--grid-extent", "1", "--out", str(tmp_path / "art")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "gave the non-finite state -inf" in result.output

    @pytest.mark.parametrize("command", ["check", "convergence"])
    def test_huge_alpha_runs_untruncated(self, runner, tmp_path, command):
        # h ** -400 overflows at every h < 1: the radius is inf and the
        # truncation the identity, not an OverflowError traceback
        result = runner.invoke(main, [
            command, "--preset", "linear-oracle", "--alpha", "400",
            "--no-timing", "--out", str(tmp_path / "art"),
        ])
        assert result.exit_code == 0, result.output


class TestStability:
    def test_experiment2_single_n(self, runner, tmp_path):
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "stability", "--preset", "experiment2", "--Ns", "15",
            "--no-timing", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = read_json(out / "stability_summary.json")
        runs = summary["runs"]
        assert runs["explicit_N15"]["finite"] is False
        assert runs["explicit_N15"]["ledgers"]["sup_norm"]["violations"] == 15
        fp_run = runs["fp_N15"]
        assert fp_run["finite"] is True
        for ledger in ("sup_norm", "contraction", "size", "stability"):
            assert fp_run["ledgers"][ledger]["violations"] == 0
        assert runs["implicit_N15"]["ledgers"]["contraction"]["violations"] == 0
        assert (out / "minmax_fp_N15.csv").exists()
        assert (out / "minmax_explicit_N15.csv").exists()
        assert_plain_csv_cells(out)

    def test_experiment2_verdicts(self, runner, tmp_path):
        # the ledgers' verdicts, not their bits: a kernel change that
        # moves the last bits of the values must leave every
        # (applicable, total_checked, violations) as pinned here
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "stability", "--preset", "experiment2", "--no-timing",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        runs = read_json(out / "stability_summary.json")["runs"]
        got = {name: {kind: (lg["applicable"], lg["total_checked"],
                             lg["violations"])
                      for kind, lg in run["ledgers"].items()}
               for name, run in runs.items()}
        want = {}
        for n, explicit_violations in zip((15, 17, 19, 25), (15, 17, 19, 0)):
            sup = (True, n + 1, 0)
            contraction = (False, n + 1, 0)
            want["explicit_N%d" % n] = {
                "sup_norm": (True, n + 1, explicit_violations)}
            want["implicit_N%d" % n] = {"contraction": contraction,
                                        "sup_norm": sup}
            want["fp_N%d" % n] = {"contraction": contraction,
                                  "size": (True, n * n, 0),
                                  "stability": (True, n * n, 0),
                                  "sup_norm": sup}
        assert got == want

    def test_alpha_above_cap(self, runner, tmp_path):
        # fp needs alpha <= 1/(2(m-1)) = 0.25 for experiment2's m = 3 and
        # is refused before the out directory is made; implicit reads
        # alpha only in the contraction ledger's hypotheses, so it runs
        out = tmp_path / "art"
        args = ["stability", "--preset", "experiment2", "--Ns", "15",
                "--alpha", "0.3", "--no-timing", "--out", str(out)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "alpha=0.3 exceeds 1/(2(m-1))=0.25" in result.output
        assert not out.exists()
        result = runner.invoke(main, args + ["--scheme", "implicit"])
        assert result.exit_code == 0, result.output
        runs = read_json(out / "stability_summary.json")["runs"]
        reason = runs["implicit_N15"]["ledgers"]["contraction"][
            "applicability_reason"]
        assert "alpha=0.3 is not strictly below 1/(2(m-1))" in reason

    def test_theta_ends_are_explicit_and_implicit(self, runner, tmp_path):
        # theta=0 and theta=1 run the explicit and implicit schemes'
        # bits, so they get those schemes' ledgers too
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "stability", "--preset", "experiment2", "--Ns", "15",
            "--scheme", "implicit", "--scheme", "theta=1",
            "--scheme", "explicit", "--scheme", "theta=0",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        runs = read_json(out / "stability_summary.json")["runs"]
        for name, theta in (("implicit", "theta=1"), ("explicit", "theta=0")):
            assert runs["%s_N15" % theta] == runs["%s_N15" % name]
            assert ((out / ("minmax_%s_N15.csv" % theta)).read_bytes()
                    == (out / ("minmax_%s_N15.csv" % name)).read_bytes())
        assert sorted(runs["theta=1_N15"]["ledgers"]) == [
            "contraction", "sup_norm"]

    def test_theta_half_implicit_solve_brackets(self, runner, tmp_path):
        # at level 23, node 7 the closed-form bracket end lies within
        # rounding of the root: moving it towards m instead of away
        # (np.spacing(b) is negative for b < 0) fails the sign check
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "stability", "--preset", "experiment1", "--scheme", "theta=0.5",
            "--Ns", "50", "--no-timing", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        runs = read_json(out / "stability_summary.json")["runs"]
        run = runs["theta=0.5_N50"]
        assert run["finite"] is True
        assert run["Y0"] == pytest.approx(0.5476816346610569, rel=1e-12)


@pytest.mark.parametrize("args, builds, runs", [
    # ten Ns plus the proxy's one lattice at N=120; three schemes per N
    # plus the proxy's implicit and fp runs
    (["convergence", "--preset", "experiment1"], 11, 32),
    # fp alone, against the closed form
    (["convergence", "--preset", "linear-oracle", "--dump-lattice"], 6, 6),
    # three schemes per N plus the perturbed fp run per N
    (["stability", "--preset", "experiment2"], 4, 16),
], ids=["args0-11", "args1-6", "args2-4"])
def test_one_lattice_per_N(runner, tmp_path, monkeypatch, args, builds, runs):
    # every scheme, ledger and dump of a run reads the same lattice per
    # N, and every backward run is its own run_backward call: the
    # benchmark's trace hooks that function and counts each run's nodes
    # there, so a sweep that batches runs has to move this test with it
    calls = {"build_lattice": [], "run_backward": []}
    for name, home in (("build_lattice", forward), ("run_backward", schemes)):
        orig = getattr(home, name)

        def counting(*a, _orig=orig, _calls=calls[name], **kw):
            _calls.append(a)
            return _orig(*a, **kw)

        for mod in (forward, cli, analysis, oracle):
            if vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, counting)
    result = runner.invoke(main, args + ["--no-timing",
                                         "--out", str(tmp_path / "art")])
    assert result.exit_code == 0, result.output
    assert len(calls["build_lattice"]) == builds
    assert len(calls["run_backward"]) == runs


@pytest.mark.parametrize("command", ["check", "convergence", "stability"])
@pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-file"])
def test_out_that_cannot_be_a_directory(runner, tmp_path, command, below):
    # an --out that is a file, or lies below one, is a configuration
    # error naming the path, reported before any verdict
    (tmp_path / "afile").write_text("")
    out = tmp_path.joinpath("afile", *below)
    result = runner.invoke(main, [command, "--preset", "experiment2",
                                  "--Ns", "5", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "bad --out %s: " % out in result.output
    assert "PASS" not in result.output and "FAIL" not in result.output


@pytest.mark.parametrize("command", ["convergence", "stability"])
def test_failing_scheme_names_its_N(runner, tmp_path, command):
    # implicit at N=5 has h*M_y = 4/5 >= 0.5; the proxy's N=120 run is
    # fine, and both commands report the failure in one format
    cfg = tmp_path / "steep.cfg"
    cfg.write_text("[run]\npreset = custom\nns = 5,10\nscheme = implicit\n"
                   "[model]\nt = 4\nsigma = 1.0\ng = quadratic\n"
                   "driver = poly:0,1\n")
    result = runner.invoke(main, [command, "--config", str(cfg),
                                  "--out", str(tmp_path / "art")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    [line] = result.output.splitlines()
    assert line.startswith("Error: scheme implicit failed: implicit solve "
                           "failed at N=5 level 4 node 0: "), line


def test_one_step_kind_passed_by_keyword(runner, tmp_path, monkeypatch):
    # the benchmark's trace names a one-step span by the kind keyword,
    # or else by the fifth positional argument, which one_step_checks
    # no longer has: kind is its third
    calls = []
    orig = analysis.one_step_checks

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs.get("kind")))
        return orig(*args, **kwargs)

    monkeypatch.setattr(cli.analysis, "one_step_checks", spy)
    result = runner.invoke(main, ["stability", "--preset", "experiment2",
                                  "--Ns", "15", "--no-timing",
                                  "--out", str(tmp_path / "art")])
    assert result.exit_code == 0, result.output
    assert calls == [(2, "size"), (2, "stability")]


class TestNsValidation:
    @pytest.mark.parametrize("args, named", [
        (["convergence", "--preset", "linear-oracle", "--Ns", "20,10"],
         "got 20,10"),
        (["convergence", "--preset", "linear-oracle", "--Ns", "10,-20"],
         "got -20"),
        (["convergence", "--preset", "linear-oracle", "--Ns", "0"], "got 0"),
        (["stability", "--preset", "experiment2", "--Ns", "0"], "got 0"),
        (["stability", "--preset", "experiment2", "--Ns", "15,15"], "N=15"),
    ])
    def test_bad_ns_are_usage_errors_before_any_run(self, runner, tmp_path,
                                                    args, named):
        out = tmp_path / "art"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2, result.output
        assert named in result.output
        assert not out.exists()

    def test_duplicate_ns_from_file_rejected(self, runner, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("ns = 5,7,5\n")
        result = runner.invoke(main, ["check", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert "N=5" in result.output

    @pytest.mark.parametrize("flags, text", [
        (["--scheme", "fp", "--scheme", "fp"], ""),
        ([], "scheme = fp,fp\n"),
    ], ids=["flag", "file"])
    def test_duplicate_scheme_rejected(self, runner, tmp_path, flags, text):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(text)
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "convergence", "--preset", "linear-oracle", "--Ns", "10,20",
            "--config", str(cfg), "--out", str(out),
        ] + flags)
        assert result.exit_code == 2, result.output
        assert "scheme fp appears twice" in result.output
        assert not out.exists()

    def test_stability_accepts_permuted_ns(self, runner, tmp_path):
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "stability", "--preset", "experiment2", "--Ns", "17,15",
            "--scheme", "fp", "--no-timing", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        runs = read_json(out / "stability_summary.json")["runs"]
        assert list(runs) == ["fp_N15", "fp_N17"]


class TestConfigPlumbing:
    def test_headerless_file_is_run_section(self, runner, tmp_path):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("preset = linear-oracle\nns = 10,20\nno-timing = true\n")
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "convergence", "--config", str(cfg), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = read_json(out / "convergence_summary.json")
        assert summary["settings"]["preset"] == "linear-oracle"
        assert summary["settings"]["Ns"] == [10, 20]

    def test_unknown_section_rejected(self, runner, tmp_path):
        cfg = tmp_path / "weird.cfg"
        cfg.write_text("[weird]\nkey = 1\n")
        result = runner.invoke(main, ["check", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "unknown config section" in result.output

    def test_flags_beat_file_keys(self, runner, tmp_path):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("preset = linear-oracle\nns = 10,20\nr0 = 3.0\n")
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "convergence", "--config", str(cfg), "--Ns", "5",
            "--R0", "7.5", "--no-timing", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        summary = read_json(out / "convergence_summary.json")
        assert summary["settings"]["Ns"] == [5]
        assert summary["settings"]["R0"] == 7.5

    def test_custom_preset_requires_sigma_and_g(self, runner, tmp_path):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("[run]\npreset = custom\n[model]\nsigma = 1.0\n")
        result = runner.invoke(main, ["check", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "g" in result.output

    @pytest.mark.parametrize("text, key", [
        ("[run]\nr0 = abc\n", "r0"),
        ("[run]\nno-timing = maybe\n", "no-timing"),
        ("[run]\npreset = custom\n[model]\nsigma = 1.0\ng = const:abc\n", "g"),
        ("[run]\npreset = custom\n[model]\nsigma = 1.0\ng = quadratic\n"
         "driver-zcoef = q\n", "driver-zcoef"),
    ])
    def test_malformed_file_value_is_usage_error(self, runner, tmp_path,
                                                 text, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["check", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert key in result.output

    @pytest.mark.parametrize("text, named", [
        ("[run]\nalpah = 0.3\n", "alpah"),
        ("[run]\nthreads = 2\n", "threads"),
        ("[DEFAULT]\nalpah = 0.3\n", "[DEFAULT]"),
        ("[run]\npreset = custom\n[model]\nsigma = 1.0\ng = quadratic\n"
         "sigmaa = 2.0\n", "sigmaa"),
        ("[run]\npreset = experiment1\n[model]\nsigma = 1.0\n", "[model]"),
        ("[run]\nn = 5\n", "n"),
        ("[run]\nweight-rule = raw\n", "weight-rule"),
    ])
    def test_unknown_keys_rejected(self, runner, tmp_path, text, named):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text)
        result = runner.invoke(main, ["check", "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert named in result.output

    @pytest.mark.parametrize("flag, value", [
        ("--N", "5"), ("--weight-rule", "raw"), ("--tol", "1e-9"),
        ("--seed", "0"), ("--probe-budget", "500"),
    ])
    def test_unknown_flags_rejected(self, runner, tmp_path, flag, value):
        command = ("check" if flag in ("--tol", "--seed", "--probe-budget")
                   else "convergence")
        result = runner.invoke(main, [
            command, "--preset", "linear-oracle", flag, value,
            "--out", str(tmp_path / "art"),
        ])
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output and flag in result.output

    @pytest.mark.parametrize("args", [
        ["stability", "--preset", "experiment2", "--Ns", "15", "--R0", "-1"],
        ["stability", "--preset", "experiment2", "--Ns", "15",
         "--scheme", "fp-post", "--alpha", "0.3"],
        ["convergence", "--preset", "linear-oracle", "--Ns", "10",
         "--scheme", "theta=2"],
        # an infinite R0 or alpha would silently make fp the explicit
        # scheme, with ledgers that read "all hypotheses hold"
        ["stability", "--preset", "experiment2", "--Ns", "15", "--R0", "inf"],
        ["convergence", "--preset", "linear-oracle", "--Ns", "10",
         "--alpha", "inf"],
    ])
    def test_invalid_scheme_settings_are_usage_errors(self, runner, tmp_path,
                                                      args):
        result = runner.invoke(main, args + ["--out", str(tmp_path / "art")])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)

    def test_check_writes_report_to_out_from_file(self, runner, tmp_path):
        out = tmp_path / "art"
        cfg = tmp_path / "flat.cfg"
        cfg.write_text("ns = 5\nout = %s\n" % out)
        result = runner.invoke(main, ["check", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert read_json(out / "check_report.json")["passed"] is True


# rows whose value is not in the settings echo of the artifacts
_NOT_ECHOED = {"config", "out", "no-timing"}

# file key: (value A, value B, echo key, A as echoed); A differs from the
# experiment1 default and B differs from A
_PRECEDENCE_CASES = {
    "preset": ("linear-oracle", "experiment2", "preset", "linear-oracle"),
    "scheme": ("fp-post,implicit", "fp", "schemes", ["fp-post", "implicit"]),
    "ns": ("5,7", "6,8", "Ns", [5, 7]),
    "r0": ("3.5", "4.5", "R0", 3.5),
    "alpha": ("0.2", "0.1", "alpha", 0.2),
    "eta": ("0.05", "0.1", "eta", 0.05),
    "grid-extent": ("3.0", "4.0", "grid_extent", 3.0),
}


_ECHO_KEYS = {"preset", "schemes", "Ns", "R0", "alpha", "eta", "grid_extent",
              "driver", "T", "x0", "b", "sigma", "driver_constants"}
_DRIVER_CONSTANT_KEYS = {"M_y", "L_y", "L_z", "m", "f00"}


@pytest.mark.parametrize("args, artifact", [
    (["check", "--preset", "experiment1", "--Ns", "5"], "check_report.json"),
    (["convergence", "--preset", "linear-oracle", "--Ns", "10,20"],
     "convergence_summary.json"),
    (["stability", "--preset", "experiment2", "--Ns", "5", "--scheme", "fp"],
     "stability_summary.json"),
], ids=["check", "convergence", "stability"])
def test_settings_echo_keys(runner, tmp_path, args, artifact):
    # the echo is part of the artifact format: a key added or removed
    # here is a format change and must be recorded as one
    out = tmp_path / "art"
    result = runner.invoke(main, args + ["--no-timing", "--out", str(out)])
    assert result.exit_code == 0, result.output
    echo = read_json(out / artifact)["settings"]
    assert set(echo) == _ECHO_KEYS
    assert set(echo["driver_constants"]) == _DRIVER_CONSTANT_KEYS


def settings_echo(runner, tmp_path, flags, lines):
    """Settings echoed by `check` under the given flags and [run] lines."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    out = tmp_path / "art"
    result = runner.invoke(main, [
        "check", "--config", str(cfg), "--out", str(out),
    ] + flags)
    assert result.exit_code == 0, result.output
    return read_json(out / "check_report.json")["settings"]


@pytest.mark.parametrize("opt", [
    o for o in cli._OPTIONS if o.key not in _NOT_ECHOED
], ids=lambda o: o.flag)
def test_flag_beats_file_beats_preset(runner, tmp_path, opt):
    a, b, echo_key, want = _PRECEDENCE_CASES[opt.key]
    parts = a.split(",") if opt.multiple else [a]
    flags = [arg for part in parts for arg in (opt.flag, part)]
    echo = settings_echo(runner, tmp_path, flags, ["%s = %s" % (opt.key, b)])
    assert echo[echo_key] == want
    echo = settings_echo(runner, tmp_path, [], ["%s = %s" % (opt.key, a)])
    assert echo[echo_key] == want


def readme_block(heading):
    """The first fenced block after a README heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return readme.split(heading, 1)[1].split("```")[1]


def test_readme_common_flags_match_option_table():
    block = readme_block("### Common flags")
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", block))
    assert flags == {o.flag for o in cli._OPTIONS}


def test_readme_library_snippet_runs(capsys):
    block = readme_block("## Library use")
    assert block.startswith("python\n")
    exec(block[len("python\n"):], {})
    y0, finite, lam = capsys.readouterr().out.split()
    assert math.isfinite(float(y0)) and finite == "True" and lam == "1.0"
    # every fp.<name> the README names is still exported
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for name in set(re.findall(r"\bfp\.(\w+)", readme)):
        assert hasattr(fptree, name), name


def test_readme_config_example_runs(runner, tmp_path):
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(readme_block("### Config file"))
    result = runner.invoke(main, ["check", "--config", str(cfg)])
    assert result.exit_code == 0, result.output


def _readme_runs():
    """The argument lists of the README's typical `fptree` runs."""
    runs = []
    for line in readme_block("Typical runs:").splitlines():
        if line.startswith("fptree "):
            args = line.split()[1:]
            if "--out" in args:
                k = args.index("--out")
                del args[k:k + 2]
            runs.append(args)
    return runs


@pytest.mark.parametrize("args", _readme_runs(), ids=" ".join)
def test_readme_typical_runs_exit_zero(runner, tmp_path, args):
    result = runner.invoke(main, args + ["--no-timing", "--out",
                                         str(tmp_path / "art")])
    assert result.exit_code == 0, result.output


def test_start_up_loads_neither_dataclasses_nor_configparser():
    # records are named tuples and only --config reads configparser, so
    # a fresh interpreter importing the CLI pays for neither module
    code = ("import sys, fptree.cli; print(sorted("
            "{'dataclasses', 'configparser'} & set(sys.modules)))")
    src = str(Path(fptree.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_oversized_fd_march_fails_at_once(tmp_path):
    # sigma = 30 asks fd_solve for 18,001 points by 4.5 million steps, a
    # march of minutes: the command sizes it first and fails with one
    # Error: line.  A fresh process under a timeout, so a march that
    # starts fails the test instead of hanging it
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("[run]\npreset = custom\nns = 5\nscheme = implicit\n"
                   "[model]\nsigma = 30.0\ng = quadratic\n"
                   "driver = poly:0,-1\n")
    src = str(Path(fptree.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "fptree.cli", "convergence", "--config",
         str(cfg), "--fd-check", "--out", str(tmp_path / "art")],
        capture_output=True, text=True, timeout=20,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 1, proc.stderr
    assert (proc.stdout + proc.stderr).splitlines() == [
        "Error: FD oracle failed: the march needs 18001 points x 4500000 "
        "steps, more than the 200000000 point-steps fd_solve allows"]


def test_no_record_reaches_the_json_writer(runner, tmp_path, monkeypatch):
    # _json_safe writes a tuple as a list, so a record (a named tuple)
    # in a payload would be written without its field names
    records = []
    json_safe = cli._json_safe

    def spy(value):
        if hasattr(value, "_fields"):
            records.append(type(value).__name__)
        return json_safe(value)

    monkeypatch.setattr(cli, "_json_safe", spy)
    for args in (["check", "--preset", "experiment1", "--Ns", "5"],
                 ["convergence", "--preset", "linear-oracle", "--Ns", "5,10",
                  "--dump-lattice"],
                 ["convergence", "--preset", "experiment1", "--Ns", "5,10",
                  "--eta", "0.1", "--grid-extent", "3.0",
                  "--dump-lattice"],
                 ["stability", "--preset", "experiment2", "--Ns", "5"]):
        result = runner.invoke(main, args + ["--no-timing", "--out",
                                             str(tmp_path / args[0])])
        assert result.exit_code == 0, result.output
    assert records == []
