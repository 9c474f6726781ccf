"""Every backward run of five commands, pinned bitwise.

Three are the benchmark's commands, ``convergence --preset
experiment1``, ``convergence --preset linear-oracle`` and ``stability
--preset experiment2``, with their schemes in a fixed order.  Two pin
paths those miss: the fp-post and theta schemes on experiment2, and
projected (grid) lattices with their --dump-lattice files on
experiment1.  Each ``run_backward`` call they make
(the proxy reference's implicit and fp runs and the stability study's
perturbed fp runs included) is recorded in call order: its scheme kind,
N, Newton iteration total and maximum, and the bytes of every y and z
level, which go into one sha256 per command.  A change to the kernels
that moves a single bit of any level, or a single Newton step, fails
here.  Every artifact each command writes under ``--no-timing`` is
pinned too, by one sha256 over the names, sizes and bytes of its files,
so a change to the writers that moves a single byte fails here as well.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from fptree import analysis, cli, oracle, schemes

EXP1_NS = (5, 10, 15, 20, 30, 40, 50, 60, 70, 80)
LINEAR_NS = (10, 20, 40, 80, 160, 320)
EXP2_NS = (15, 17, 19, 25)

COMMANDS = {
    "conv-exp1": (["convergence", "--preset", "experiment1", "--scheme",
                   "explicit", "--scheme", "implicit", "--scheme", "fp"],
                  "b9deac686f3231b8b758284394bf4299"
                  "a76addaf8cefb98064fc82e902576bcb"),
    "conv-linear": (["convergence", "--preset", "linear-oracle", "--scheme",
                     "fp"],
                    "4dbfdf21f1b2c91cd57ac4ed3c645298"
                    "3e48aa64fe9b158dc5b9df584427222c"),
    "stab-exp2": (["stability", "--preset", "experiment2", "--Ns",
                   "15,17,19,25", "--scheme", "explicit", "--scheme",
                   "implicit", "--scheme", "fp"],
                  "9b8f6dfa5d8730051a3fac46134d3631"
                  "5dc422173776eccf7ab319c95fd7b182"),
    "stab-exp2-post-theta": (["stability", "--preset", "experiment2",
                              "--Ns", "15,25", "--scheme", "fp-post",
                              "--scheme", "theta=0.5"],
                             "b2c8515e4c5151a04b9e704592622e76"
                             "dd8676c5edb055314066749747ebdfab"),
    "conv-exp1-grid": (["convergence", "--preset", "experiment1", "--Ns",
                        "5,10", "--eta", "0.05", "--grid-extent", "6",
                        "--scheme", "fp", "--scheme", "implicit",
                        "--dump-lattice"],
                       "84d2e0ffad20d14072f51b96413540b4"
                       "5af8f6b65588707fc0e675bfca9b20c2"),
}

# (kind, N, Newton total, Newton maximum) of each run, in call order:
# the proxy reference runs first, and stability runs fp twice per N
RUNS = {
    "conv-exp1": (
        [("implicit_euler", 120, 54598, 13), ("full_projection_pre", 120, 0, 0)]
        + [("explicit_euler", n, 0, 0) for n in EXP1_NS]
        + [("implicit_euler", n, total, most) for n, total, most in zip(
            EXP1_NS,
            (145, 539, 1159, 1977, 4190, 7129, 10809, 15214, 20237, 25925),
            (9, 10, 11, 11, 11, 12, 12, 12, 12, 12))]
        + [("full_projection_pre", n, 0, 0) for n in EXP1_NS]),
    "conv-linear": [("full_projection_pre", n, 0, 0) for n in LINEAR_NS],
    "stab-exp2": (
        [("explicit_euler", n, 0, 0) for n in EXP2_NS]
        + [("implicit_euler", n, total, most) for n, total, most in zip(
            EXP2_NS, (1016, 1284, 1592, 2664), (7, 7, 7, 6))]
        + [("full_projection_pre", n, 0, 0) for n in EXP2_NS for _ in "ab"]),
    "stab-exp2-post-theta": (
        [("full_projection_post", n, 0, 0) for n in (15, 25) for _ in "ab"]
        + [("theta", 15, 834, 6), ("theta", 25, 1528, 5)]),
    "conv-exp1-grid": [
        ("implicit_euler", 120, 54598, 13), ("full_projection_pre", 120, 0, 0),
        ("full_projection_pre", 5, 0, 0), ("full_projection_pre", 10, 0, 0),
        ("implicit_euler", 5, 142, 9), ("implicit_euler", 10, 537, 10)],
}

# sha256 of every --no-timing artifact of each command, by artifact_digest
ARTIFACTS = {
    "conv-exp1": ("3393101c9233c3ad43c09d94011b2280"
                  "3def147cff5aea69dccf8fc75cbfd6e6"),
    "conv-linear": ("ff6ff8f9557647a6de6f9c593ecec3f9"
                    "0988c74022af65b09d7e7be8c48cac80"),
    "stab-exp2": ("569d91da69bf7c4a1e43f970cd393116"
                  "91000ed4642515237aecc8d726256177"),
    "stab-exp2-post-theta": ("6fd2144202556fee3e9318669e76e991"
                             "890e2bb905f28780a6b7f67a8307ac07"),
    "conv-exp1-grid": ("9165840a11a091ae5e8f1bd7d25057b2"
                       "d8450325fc2c4aa583da74e1face2ba5"),
}


def artifact_digest(out):
    """One sha256 over the name, size and bytes of each file in out, in
    name order."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        digest.update(("%s %d\n" % (path.name, len(data))).encode())
        digest.update(data)
    return digest.hexdigest()


def record_runs(monkeypatch, args, out):
    """Run one CLI command in-process; its runs and their level digest."""
    runs = []
    digest = hashlib.sha256()
    orig = schemes.run_backward

    def recording(cfg, lattice, spec):
        run = orig(cfg, lattice, spec)
        runs.append((cfg.kind, lattice.time_grid.N,
                     run.solver_iterations_total, run.solver_iterations_max))
        digest.update(("%s %d\n" % (cfg.kind, lattice.time_grid.N)).encode())
        for level in run.y + run.z:
            digest.update(level.tobytes())
        return run

    for mod in (analysis, cli, oracle):
        monkeypatch.setattr(mod, "run_backward", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(args=args + ["--no-timing", "--out", str(out)],
                      prog_name="fptree", standalone_mode=False)
    return runs, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_backward_runs_bitwise(monkeypatch, tmp_path, name):
    args, want = COMMANDS[name]
    runs, got = record_runs(monkeypatch, args, tmp_path)
    assert runs == RUNS[name]
    assert got == want
    assert artifact_digest(tmp_path) == ARTIFACTS[name]
