import json

import pytest
from click.testing import CliRunner

from fptree.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def assert_plain_csv_cells(out):
    """Every CSV cell is a float, an int, true/false, or empty."""
    paths = sorted(out.glob("*.csv"))
    assert paths
    for path in paths:
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                if cell not in ("", "true", "false"):
                    float(cell)  # raises on e.g. "np.float64(0.5)"


class TestCheck:
    def test_preset_passes_and_writes_report(self, runner, tmp_path):
        out = tmp_path / "art"
        result = runner.invoke(main, [
            "check", "--preset", "experiment1", "--Ns", "5,10",
            "--probe-budget", "2000", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "PASS model_assumptions" in result.output
        report = read_json(out / "check_report.json")
        assert report["passed"] is True
        names = [s["name"] for s in report["suites"]]
        assert names == [
            "model_assumptions", "trinomial_moments", "weights",
            "truncation", "projection", "pre_post_equivalence",
        ]
        assert all(s["passed"] for s in report["suites"])

    def test_lying_declared_slope_fails(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(
            "[run]\npreset = custom\nns = 5\n"
            "[model]\nsigma = 1.0\ng = quadratic\n"
            "driver = poly:0,0,0,-1\ndriver-my = -2.0\n"
        )
        result = runner.invoke(main, [
            "check", "--config", str(cfg), "--probe-budget", "2000",
        ])
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
        csv_text = (out / "convergence_fp.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "N,h,Y0,err,seconds,exploded"
        assert len(lines) == 4
        # --no-timing leaves the seconds cell empty
        assert lines[1].split(",")[4] == ""
        summary = read_json(out / "convergence_summary.json")
        assert summary["oracle"]["kind"] == "linear_oracle"
        fp_digest = summary["schemes"]["fp"]
        assert 0.8 <= fp_digest["slope"] <= 1.2
        assert fp_digest["exploded_Ns"] == []
        assert "seconds" not in fp_digest
        assert_plain_csv_cells(out)

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

    def test_eta_must_be_positive(self, runner, tmp_path):
        result = runner.invoke(main, [
            "convergence", "--preset", "linear-oracle", "--Ns", "10",
            "--eta", "-0.1", "--out", str(tmp_path / "art"),
        ])
        assert result.exit_code == 2


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


class TestDeterminism:
    def test_thread_count_does_not_change_artifacts(self, runner, tmp_path):
        outs = []
        for threads, sub in (("1", "a"), ("3", "b")):
            out = tmp_path / sub
            result = runner.invoke(main, [
                "convergence", "--preset", "linear-oracle",
                "--Ns", "10,20", "--no-timing",
                "--threads", threads, "--out", str(out),
            ])
            assert result.exit_code == 0, result.output
            outs.append(out)
        for name in ("convergence_fp.csv", "convergence_summary.json"):
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b
