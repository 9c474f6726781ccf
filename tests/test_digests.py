"""Every backward run of six commands, pinned bitwise.

Three are the benchmark's commands, ``convergence --preset
experiment1``, ``convergence --preset linear-oracle`` and ``stability
--preset experiment2``, with their schemes in a fixed order.  Three pin
paths those miss: the fp-post and theta schemes on experiment2,
projected (grid) lattices with their --dump-lattice files on
experiment1, and a custom driver with a z term, -y - y^3 + z/2, whose
explicit runs explode into inf and nan.  Each ``run_backward`` call
they make (the proxy reference's implicit and fp runs and the stability
study's perturbed fp runs included) is recorded in call order: its
scheme kind, N, Newton iteration total and maximum, and the bytes of
every y and z level, which go into one sha256 per command.  A change to
the kernels that moves a single bit of any level, or a single Newton
step, fails here.  Every artifact each command writes is pinned too, by
one sha256 over the names, sizes and bytes of its files, so a change to
the writers that moves a single byte fails here as well.  The commands
run without ``--no-timing``, as a user runs them: no artifact holds a
wall time, so the flag changes no byte.
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
                  "56a806552439c42c6a06aee3bb791ee5"
                  "76bbeebf16e168a613eaade4a18b3108"),
    "conv-linear": (["convergence", "--preset", "linear-oracle", "--scheme",
                     "fp"],
                    "4dbfdf21f1b2c91cd57ac4ed3c645298"
                    "3e48aa64fe9b158dc5b9df584427222c"),
    "stab-exp2": (["stability", "--preset", "experiment2", "--Ns",
                   "15,17,19,25", "--scheme", "explicit", "--scheme",
                   "implicit", "--scheme", "fp"],
                  "dfd7dcc837df6392998d0f77e2b304e1"
                  "5043858c54a8f2e1f63e98332684961e"),
    "stab-exp2-post-theta": (["stability", "--preset", "experiment2",
                              "--Ns", "15,25", "--scheme", "fp-post",
                              "--scheme", "theta=0.5"],
                             "2077903c8f7ec2005d922eef4f367c52"
                             "5e02766b418fe90c2caeed4e2104642b"),
    "conv-exp1-grid": (["convergence", "--preset", "experiment1", "--Ns",
                        "5,10", "--eta", "0.05", "--grid-extent", "6",
                        "--scheme", "fp", "--scheme", "implicit",
                        "--dump-lattice"],
                       "fb8ae2cae3a8e79fdd11a6aa025fd263"
                       "1507ed20b854f3da611ed33f23eec688"),
    "conv-custom-z": (["convergence", "--scheme", "fp", "--scheme",
                       "implicit", "--scheme", "explicit"],
                      "847389d04a5c482808a6e7c15c5d4817"
                      "08b78550063654081919178bae5d6e4c"),
}

# the --config file of the commands that take one
CONFIGS = {
    "conv-custom-z": ("[run]\npreset = custom\nns = 10,20\n"
                      "[model]\nsigma = 1.5\ng = quadratic\n"
                      "driver = poly:0,-1,0,-1\ndriver-zcoef = 0.5\n"),
}

# (kind, N, Newton total, Newton maximum) of each run, in call order:
# the proxy reference runs first, and stability runs fp twice per N.
# Every live implicit node meets the tolerance at the cubic's
# closed-form root, in one iteration; an experiment1 level i has 2i + 1
# nodes, so a run of N levels takes N^2
RUNS = {
    "conv-exp1": (
        [("implicit_euler", 120, 14400, 1), ("full_projection_pre", 120, 0, 0)]
        + [("explicit_euler", n, 0, 0) for n in EXP1_NS]
        + [("implicit_euler", n, n * n, 1) for n in EXP1_NS]
        + [("full_projection_pre", n, 0, 0) for n in EXP1_NS]),
    "conv-linear": [("full_projection_pre", n, 0, 0) for n in LINEAR_NS],
    "stab-exp2": (
        [("explicit_euler", n, 0, 0) for n in EXP2_NS]
        + [("implicit_euler", n, total, 1) for n, total in zip(
            EXP2_NS, (210, 272, 342, 600))]
        + [("full_projection_pre", n, 0, 0) for n in EXP2_NS for _ in "ab"]),
    "stab-exp2-post-theta": (
        [("full_projection_post", n, 0, 0) for n in (15, 25) for _ in "ab"]
        + [("theta", 15, 210, 1), ("theta", 25, 472, 1)]),
    "conv-exp1-grid": [
        ("implicit_euler", 120, 14400, 1), ("full_projection_pre", 120, 0, 0),
        ("full_projection_pre", 5, 0, 0), ("full_projection_pre", 10, 0, 0),
        ("implicit_euler", 5, 25, 1), ("implicit_euler", 10, 100, 1)],
    "conv-custom-z": [
        ("implicit_euler", 120, 14400, 1), ("full_projection_pre", 120, 0, 0),
        ("full_projection_pre", 10, 0, 0), ("full_projection_pre", 20, 0, 0),
        ("implicit_euler", 10, 100, 1), ("implicit_euler", 20, 400, 1),
        ("explicit_euler", 10, 0, 0), ("explicit_euler", 20, 0, 0)],
}

# sha256 of every artifact of each command, by artifact_digest
ARTIFACTS = {
    "conv-exp1": ("5e4913b7ca4fde271ee139f44bc8f277"
                  "c4e0fabbb5e35ddfacabcca8b0283490"),
    "conv-linear": ("92028cad07f91e11831010b48c999924"
                    "0ed407f0c063e5ff3706b52cc898c391"),
    "stab-exp2": ("e727da96f4f261e333e25c85e19729df"
                  "5c0a8cbecc4889dde503efe330812bfd"),
    "stab-exp2-post-theta": ("f3d1c9d7d65dea3ba7292a78246a3eb2"
                             "0d9c9b1fd5fdfd411d3bb39f6680cc4e"),
    "conv-exp1-grid": ("4d21e8661ecad42c5bc18cf91242a077"
                       "fd778b45b9ff8f45e1acecbfd43a3645"),
    "conv-custom-z": ("2d747afd224dd15dd98d3514fd5eeec9"
                      "25a146172558e61b8dacc3ca45fb50e5"),
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
        cli.main.main(args=args + ["--out", str(out)],
                      prog_name="fptree", standalone_mode=False)
    return runs, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_backward_runs_bitwise(monkeypatch, tmp_path, name):
    args, want = COMMANDS[name]
    if name in CONFIGS:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIGS[name])
        args = args + ["--config", str(cfg)]
    out = tmp_path / "out"
    runs, got = record_runs(monkeypatch, args, out)
    assert runs == RUNS[name]
    assert got == want
    assert artifact_digest(out) == ARTIFACTS[name]
