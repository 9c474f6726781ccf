import math

import numpy as np
import pytest

import fptree as fp
from fptree.analysis import (
    ErrorEntry, _fit_slope, _guarded_exp, _guarded_product, _is_violation,
)

from conftest import (
    build, reference_one_step, size_constants, stability_constant,
)


LINEAR_TRUNC = fp.TruncationConfig(R0=20.0, alpha=1.0)


class TestConvergenceStudy:
    def test_linear_implicit_first_order(self):
        model = fp.linear_model()
        _, y0 = fp.linear_solution(-1.0, model)
        cfg = fp.SchemeConfig(kind="implicit_euler")
        report = fp.convergence_study(
            cfg, [build(model, N) for N in (10, 20, 40, 80)],
            reference=y0,
        )
        assert report.slope == pytest.approx(1.0, abs=0.15)
        assert [e.N for e in report.entries] == [10, 20, 40, 80]
        errs = [e.err for e in report.entries]
        assert errs == sorted(errs, reverse=True)
        # the study times nothing: a second call gives an equal report
        assert report == fp.convergence_study(
            cfg, [build(model, N) for N in (10, 20, 40, 80)],
            reference=y0,
        )

    def test_fp_matches_untruncated_regime(self):
        model = fp.linear_model()
        _, y0 = fp.linear_solution(-1.0, model)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=LINEAR_TRUNC)
        report = fp.convergence_study(
            cfg, [build(model, N) for N in (10, 20, 40)],
            reference=y0,
        )
        assert report.slope == pytest.approx(1.0, abs=0.2)
        assert not any(e.exploded for e in report.entries)

    def test_requires_increasing_Ns(self):
        cfg = fp.SchemeConfig(kind="implicit_euler")
        model = fp.linear_model()
        for Ns in ((40, 20), (20, 20), ()):
            with pytest.raises(ValueError):
                fp.convergence_study(
                    cfg, [build(model, N) for N in Ns],
                    reference=1.0,
                )

    def test_exploded_entries_excluded_from_fit(self, exp2_model):
        cfg = fp.SchemeConfig(kind="explicit_euler")
        report = fp.convergence_study(
            cfg, [build(exp2_model, N) for N in (10, 15, 25)],
            reference=0.0,
        )
        assert any(e.exploded for e in report.entries)
        for e in report.entries:
            if e.exploded:
                assert not math.isfinite(e.err)
        # fewer than two clean points: no slope, note says why
        assert report.slope is None
        assert "slope" in report.note


class TestFitSlope:
    @staticmethod
    def _entries(hs, errs):
        return [
            ErrorEntry(N=round(1.0 / h), h=h, Y0=0.0, err=e, exploded=False)
            for h, e in zip(hs, errs)
        ]

    def test_exact_first_order(self):
        hs = [0.1, 0.05, 0.025]
        slope, resid = _fit_slope(self._entries(hs, [0.3 * h for h in hs]))
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)

    def test_exact_second_order(self):
        hs = [0.1, 0.05, 0.025, 0.0125]
        slope, _ = _fit_slope(self._entries(hs, [2.0 * h * h for h in hs]))
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_floor_entries_ignored(self):
        hs = [0.1, 0.05]
        slope, resid = _fit_slope(self._entries(hs, [1e-13, 1e-14]))
        assert slope is None and resid is None


class TestSupNorm:
    def test_explicit_blowup_counted(self, exp2_model):
        lattice = build(exp2_model, 15)
        cfg = fp.SchemeConfig(kind="explicit_euler")
        run = fp.run_backward(cfg, lattice, exp2_model)
        ledger = fp.sup_norm_check(run)
        assert ledger.kind == "sup_norm"
        assert ledger.applicable
        assert ledger.violations == 15
        assert ledger.nonfinite == 9
        assert ledger.total_checked == 16

    def test_fp_clean(self, exp2_model, exp2_trunc):
        lattice = build(exp2_model, 15)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp2_trunc)
        run = fp.run_backward(cfg, lattice, exp2_model)
        ledger = fp.sup_norm_check(run)
        assert ledger.violations == 0
        assert ledger.nonfinite == 0

    def test_entries_within_terminal_bound(self, exp1_model):
        lattice = build(exp1_model, 10)
        cfg = fp.SchemeConfig(kind="implicit_euler")
        run = fp.run_backward(cfg, lattice, exp1_model)
        ledger = fp.sup_norm_check(run)
        assert ledger.violations == 0
        assert (ledger.level_worst <= ledger.tol_abs).all()
        assert not ledger.level_violations.any()


class TestContraction:
    def test_exp2_fp_zero_violations_not_applicable(self, exp2_model, exp2_trunc):
        lattice = build(exp2_model, 15)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp2_trunc)
        run = fp.run_backward(cfg, lattice, exp2_model)
        ledger = fp.contraction_check(run, exp2_trunc)
        assert ledger.kind == "contraction"
        assert ledger.c_value == pytest.approx(-0.5)
        assert ledger.violations == 0
        assert not ledger.applicable
        assert "h" in ledger.applicability_reason

    def test_linear_small_h_applicable(self):
        spec = fp.linear_model()
        lattice = build(spec, 40)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=LINEAR_TRUNC)
        run = fp.run_backward(cfg, lattice, spec)
        ledger = fp.contraction_check(run, LINEAR_TRUNC)
        assert ledger.applicable
        assert ledger.applicability_reason == "all hypotheses hold"
        assert ledger.violations == 0

    def test_implicit_zero_violations(self, exp2_model, exp2_trunc):
        lattice = build(exp2_model, 15)
        cfg = fp.SchemeConfig(kind="implicit_euler")
        run = fp.run_backward(cfg, lattice, exp2_model)
        ledger = fp.contraction_check(run, exp2_trunc)
        assert ledger.violations == 0

    @pytest.mark.parametrize("kind", [
        "explicit_euler", "implicit_euler", "full_projection_pre"])
    def test_level_norms_are_l2_norm(self, exp2_model, exp2_trunc, kind):
        # the norms of all levels, taken under one errstate, are the
        # level-by-level L2 norms bit for bit, also on the explicit run's
        # inf and nan levels
        lattice = build(exp2_model, 15)
        cfg = fp.SchemeConfig(
            kind=kind, truncation=exp2_trunc if kind.startswith("full_") else None)
        run = fp.run_backward(cfg, lattice, exp2_model)
        ledger = fp.contraction_check(run, exp2_trunc)
        law = fp.chain_law(lattice)
        with np.errstate(over="ignore", invalid="ignore"):
            l2 = np.array([math.sqrt(float(np.sum(m * y * y)))
                           for m, y in zip(law, run.y)])
        assert fp.l2_norms(run.y, law).tobytes() == l2.tobytes()
        c = exp2_model.driver.M_y / 2.0
        bound = _guarded_product(
            np.array([_guarded_exp(c * (exp2_model.T - t))
                      for t in lattice.time_grid.times]), l2[-1])
        with np.errstate(invalid="ignore"):
            want = l2 - bound
        assert ledger.level_worst.tobytes() == want.tobytes()
        assert run.finite == (kind != "explicit_euler")

    def test_nonzero_f00_flagged(self, exp1_trunc):
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=0.0, sigma=1.5,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.5, -1.0)),
        )
        lattice = build(m, 10)
        cfg = fp.SchemeConfig(kind="implicit_euler")
        run = fp.run_backward(cfg, lattice, m)
        ledger = fp.contraction_check(run, exp1_trunc)
        assert not ledger.applicable
        assert "f(0,0)" in ledger.applicability_reason


class TestOneStep:
    def test_size_clean(self, exp1_model, exp1_trunc):
        lattice = build(exp1_model, 20)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc)
        run = fp.run_backward(cfg, lattice, exp1_model)
        ledger = fp.one_step_checks(run, exp1_trunc, kind="size")
        assert ledger.kind == "size"
        assert ledger.applicable
        assert ledger.total_checked == 400
        assert ledger.violations == 0
        assert ledger.rhs_overflows == 0

    def test_stability_needs_second_run(self, exp1_model, exp1_trunc):
        lattice = build(exp1_model, 20)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc)
        run = fp.run_backward(cfg, lattice, exp1_model)
        with pytest.raises(ValueError):
            fp.one_step_checks(run, exp1_trunc, kind="stability")

    def test_stability_runs_on_one_lattice(self, exp2_model, exp2_trunc):
        # the runs' lattices must be one object; N=15 and N=20 would
        # not even broadcast
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp2_trunc)
        run = fp.run_backward(cfg, build(exp2_model, 15), exp2_model)
        run2 = fp.run_backward(cfg, build(exp2_model, 20), exp2_model)
        with pytest.raises(ValueError, match="N=15 lattice.*N=20"):
            fp.one_step_checks(run, exp2_trunc, kind="stability", run2=run2)

    @pytest.mark.parametrize("other", [
        lambda: fp.linear_model(-1.0), fp.experiment1_model,
    ], ids=["linear", "fresh-experiment1"])
    def test_stability_runs_of_one_driver(self, exp1_model, exp1_trunc,
                                          other):
        # the stability bound compares two terminal data under one
        # driver: beside the fp run of the linear model on the same
        # lattice, experiment1's constants would fail 29 of the 225
        # checks of a correct pair of runs; a driver that is another
        # object, even of the same coefficients, is not the run's
        lattice = build(exp1_model, 15)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc)
        run = fp.run_backward(cfg, lattice, exp1_model)
        run2 = fp.run_backward(cfg, lattice, other())
        with pytest.raises(ValueError, match="one driver object"):
            fp.one_step_checks(run, exp1_trunc, kind="stability", run2=run2)

    def test_stability_clean(self, exp1_model, exp1_trunc):
        lattice = build(exp1_model, 20)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc)
        run = fp.run_backward(cfg, lattice, exp1_model)
        run2 = fp.run_backward(cfg, lattice, _perturbed(exp1_model))
        ledger = fp.one_step_checks(run, exp1_trunc, kind="stability",
                                    run2=run2)
        assert ledger.kind == "stability"
        assert ledger.violations == 0
        assert ledger.rhs_overflows == 0

    def test_unknown_kind_rejected(self, exp1_model, exp1_trunc):
        lattice = build(exp1_model, 5)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc)
        run = fp.run_backward(cfg, lattice, exp1_model)
        with pytest.raises(ValueError):
            fp.one_step_checks(run, exp1_trunc, kind="bogus")

    def test_per_level_entries_cover_all_nodes(self, exp1_model, exp1_trunc):
        lattice = build(exp1_model, 8)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc)
        run = fp.run_backward(cfg, lattice, exp1_model)
        ledger = fp.one_step_checks(run, exp1_trunc, kind="size")
        assert ledger.level_checked.tolist() == [2 * i + 1 for i in range(8)]
        assert ledger.level_checked.sum() == ledger.total_checked


def _perturbed(model):
    g = model.g
    return model._replace(g=lambda x: g(x) + 0.1 * np.clip(x, -7.0, 7.0))


def _all_ledgers(model, trunc, N, kind):
    lattice = build(model, N)
    cfg = fp.SchemeConfig(
        kind=kind, truncation=trunc if kind.startswith("full_") else None)
    run = fp.run_backward(cfg, lattice, model)
    run2 = fp.run_backward(cfg, lattice, _perturbed(model))
    return run, [
        fp.sup_norm_check(run),
        fp.contraction_check(run, trunc),
        fp.one_step_checks(run, trunc, "size"),
        fp.one_step_checks(run, trunc, "stability", run2=run2),
    ]


class TestLedgerArrays:
    """Every ledger count is the sum of its per-level arrays."""

    def check_sums(self, ledger):
        assert type(ledger.total_checked) is int
        assert type(ledger.violations) is int
        assert ledger.total_checked == ledger.level_checked.sum()
        assert ledger.violations == ledger.level_violations.sum()
        worst = ledger.level_worst
        if np.isnan(worst).any():
            assert math.isnan(ledger.worst_residual)
        else:
            assert ledger.worst_residual == worst.max()

    def test_explicit_nonfinite_run(self, exp2_model, exp2_trunc):
        run, ledgers = _all_ledgers(exp2_model, exp2_trunc, 15, "explicit_euler")
        assert not run.finite
        for ledger in ledgers:
            self.check_sums(ledger)
            assert math.isnan(ledger.worst_residual)
        # (checked, violations, nonfinite, rhs_overflows) per ledger: no
        # CLI artifact runs the one-step ledgers on a non-finite run
        assert [
            (lg.total_checked, lg.violations, lg.nonfinite, lg.rhs_overflows)
            for lg in ledgers
        ] == [(16, 15, 9, 0), (16, 14, 9, 0), (225, 133, 80, 0),
              (225, 116, 94, 15)]
        assert ledgers[0].level_violations.tolist() == [1] * 15 + [0]

    @pytest.mark.parametrize("N", [15, 25])
    def test_fp_runs(self, exp2_model, exp2_trunc, N):
        run, ledgers = _all_ledgers(
            exp2_model, exp2_trunc, N, "full_projection_pre"
        )
        assert run.finite
        for ledger in ledgers:
            self.check_sums(ledger)
            assert ledger.violations == ledger.nonfinite == 0
            assert math.isfinite(ledger.worst_residual)

    def test_partly_nan_level_reports_nan(self, exp1_model, exp1_trunc):
        # one nan node on level 3 of the second run: its residual and
        # that of its level-2 parent are nan, the others stay finite;
        # the nan, not the worst finite residual, is the level's worst
        lattice = build(exp1_model, 8)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc)
        run = fp.run_backward(cfg, lattice, exp1_model)
        run2 = fp.run_backward(cfg, lattice, _perturbed(exp1_model))
        y3 = run2.y[3].copy()
        y3[0] = math.nan
        run2 = run2._replace(y=run2.y[:3] + (y3,) + run2.y[4:])
        ledger = fp.one_step_checks(run, exp1_trunc, "stability", run2=run2)
        self.check_sums(ledger)
        assert ledger.level_checked[3] == 7
        assert ledger.level_violations.tolist() == [0, 0, 1, 1, 0, 0, 0, 0]
        assert ledger.nonfinite == 2
        assert np.isnan(ledger.level_worst).tolist() == [
            False, False, True, True, False, False, False, False
        ]
        assert math.isnan(ledger.worst_residual)


class TestOneStepReference:
    """All levels at once give the level-by-level ledger, bit for bit."""

    @pytest.mark.parametrize("kind", [
        "full_projection_pre", "implicit_euler", "explicit_euler"])
    @pytest.mark.parametrize("grid", [
        None, fp.SpatialGrid(x0=0.0, eta=0.05, M=160),
    ], ids=["tree", "projected"])
    def test_matches_level_by_level(self, exp2_model, exp2_trunc, kind, grid):
        lattice = build(exp2_model, 15, grid)
        cfg = fp.SchemeConfig(
            kind=kind, truncation=exp2_trunc if kind.startswith("full_") else None)
        run = fp.run_backward(cfg, lattice, exp2_model)
        run2 = fp.run_backward(cfg, lattice, _perturbed(exp2_model))
        assert run.finite == (kind != "explicit_euler")
        for check in ("size", "stability"):
            got = fp.one_step_checks(run, exp2_trunc, check, run2=run2)
            want = reference_one_step(run, exp2_trunc, check, run2=run2)
            for name, value in want.items():
                a, b = np.asarray(getattr(got, name)), np.asarray(value)
                assert (a.dtype, a.shape, a.tobytes()) == \
                    (b.dtype, b.shape, b.tobytes()), (check, name)


def _with_driver(spec, **constants):
    return spec._replace(driver=spec.driver._replace(**constants))


def _lz_model():
    return fp.make_constant_model(
        T=1.0, x0=0.0, b=0.0, sigma=1.5, g=fp.quadratic_g(),
        driver=fp.poly_driver((0.0, -1.0), z_coeff=1.0))


_EXP2_THRESHOLD = "h=0.0666667 exceeds the contraction threshold "
_EXPO_ZERO = ("alpha=0.25 is not strictly below 1/(2(m-1)); "
              + _EXP2_THRESHOLD + "0.0138889")
_HOLDS = "all hypotheses hold"

# model, R0, alpha, N, then (applicability_reason, float.hex(c_value)) of
# the contraction, size and stability ledgers on an implicit run
HYPOTHESIS_CASES = {
    "my_neg_ly_zero": (
        lambda: _with_driver(fp.linear_model(), L_y=0.0), 20.0, 1.0, 10,
        [(_HOLDS, "-0x1.0000000000000p-1"),
         (_HOLDS, "-0x1.0000000000000p+1"),
         (_HOLDS, "-0x1.0000000000000p+1")]),
    # M_y < 0 and L_y > 0 with 1 - mm*alpha = 0: only the first
    # threshold term is finite
    "my_neg_expo_zero": (
        fp.experiment2_model, 2.5, 0.25, 15,
        [(_EXPO_ZERO, "-0x1.0000000000000p-1"),
         (_HOLDS, "0x1.5f2999999999ap+9"),
         (_HOLDS, "0x1.076599999999ap+10")]),
    # 1 - mm*alpha > 0: the second term is below the smallest float
    # here, shown as a power of ten, and is the smaller, normal term at
    # m = 2
    "my_neg_expo_pos": (
        fp.experiment2_model, 2.5, 0.249, 15,
        [(_EXP2_THRESHOLD + "10^-862.3", "-0x1.0000000000000p-1"),
         (_HOLDS, "0x1.5b5ff68b15aa7p+9"),
         (_HOLDS, "0x1.048e5f4eb6a64p+10")]),
    "my_neg_expo_pos_m2": (
        lambda: _with_driver(fp.experiment2_model(), m=2), 1.0, 0.25, 15,
        [(_EXP2_THRESHOLD + "0.000192901", "-0x1.0000000000000p-1"),
         (_HOLDS, "0x1.ec7d807f8c506p+1"),
         (_HOLDS, "0x1.77c486c60fa2bp+2")]),
    "my_nonneg": (
        fp.experiment1_model, 2.0, 0.249, 10,
        [("M_y=0 is not negative", "0x0.0p+0"),
         (_HOLDS, "0x1.1f28db8dd6febp+8"),
         (_HOLDS, "0x1.ad63afbb28e48p+8")]),
    "lz_h_above_h_max": (
        _lz_model, 20.0, 1.0, 10,
        [("8*L_z^2=8 exceeds -M_y; h=0.1 exceeds the contraction "
          "threshold 0.03125", "-0x1.0000000000000p-1"),
         ("h=0.1 exceeds threshold 0.03125", "0x1.e666666666666p+2"),
         ("h=0.1 exceeds threshold 0.03125", "0x1.e666666666666p+1")]),
    "lz_h_below_h_max": (
        _lz_model, 20.0, 1.0, 40,
        [("8*L_z^2=8 exceeds -M_y", "-0x1.0000000000000p-1"),
         (_HOLDS, "0x1.999999999999ap+2"),
         (_HOLDS, "0x1.399999999999ap+1")]),
    # R0^6 overflows: the one-step c takes its limit inf, and the
    # contraction threshold, taken in logs, is a power of ten
    "r0_power_overflows": (
        lambda: _with_driver(fp.experiment2_model(), m=4), 1e100, 0.01, 15,
        [(_EXP2_THRESHOLD + "10^-640.3", "-0x1.0000000000000p-1"),
         (_HOLDS, "inf"),
         (_HOLDS, "inf")]),
    "alpha_above_cap": (
        fp.experiment2_model, 2.5, 0.3, 15,
        [("alpha=0.3 is not strictly below 1/(2(m-1)); "
          + _EXP2_THRESHOLD + "0.0138889", "-0x1.0000000000000p-1"),
         ("alpha above 1/(2(m-1))", "0x1.2ded8967e3045p+10"),
         ("alpha above 1/(2(m-1))", "0x1.c4eab4823aecfp+10")]),
}


@pytest.mark.parametrize("case", list(HYPOTHESIS_CASES))
def test_ledger_hypotheses_pinned(case):
    make, R0, alpha, N, want = HYPOTHESIS_CASES[case]
    spec = make()
    trunc = fp.TruncationConfig(R0=R0, alpha=alpha)
    lattice = build(spec, N)
    cfg = fp.SchemeConfig(kind="implicit_euler")
    run = fp.run_backward(cfg, lattice, spec)
    run2 = fp.run_backward(cfg, lattice, _perturbed(spec))
    ledgers = [
        fp.contraction_check(run, trunc),
        fp.one_step_checks(run, trunc, "size"),
        fp.one_step_checks(run, trunc, "stability", run2=run2),
    ]
    assert [(lg.applicability_reason, float.hex(lg.c_value))
            for lg in ledgers] == want
    h = lattice.time_grid.h
    assert ledgers[1].c_value == size_constants(spec, trunc, h)[0]
    assert ledgers[2].c_value == stability_constant(spec, trunc, h)


@pytest.mark.parametrize("f00", [0.0, 1.0])
def test_underflowed_square_acts_as_zero(exp2_trunc, f00):
    # L_y = L_z = 1e-170 square to 0: the h thresholds and, for
    # f00 != 0, K^2 take their limit inf, as at L_y = L_z = 0, instead
    # of dividing by zero
    ledgers = []
    for L in (1e-170, 0.0):
        spec = _with_driver(fp.experiment2_model(), L_y=L, L_z=L, f00=f00)
        lattice = build(spec, 15)
        cfg = fp.SchemeConfig(kind="full_projection_pre",
                              truncation=exp2_trunc)
        run = fp.run_backward(cfg, lattice, spec)
        ledgers.append([
            fp.contraction_check(run, exp2_trunc),
            fp.one_step_checks(run, exp2_trunc, "size")])
    tiny, zero = ledgers
    for a, b in zip(tiny, zero):
        assert [np.asarray(v).tobytes() for v in a] == \
            [np.asarray(v).tobytes() for v in b]
    contraction, size = tiny
    assert "threshold" not in contraction.applicability_reason
    assert size.applicability_reason == _HOLDS
    assert size.rhs_overflows == (0 if f00 == 0.0 else size.total_checked)


def test_overflowed_power_acts_as_inf(exp2_trunc):
    # a float power that overflows takes its limit inf instead of
    # raising OverflowError.  Contraction: with L_y = 1e-3 and R0 = 1
    # the second threshold is 31250 ** 250, so only the first one binds
    spec = _with_driver(fp.experiment2_model(), L_y=1e-3)
    trunc = exp2_trunc._replace(R0=1.0)
    lattice = build(spec, 15)
    cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=trunc)
    run = fp.run_backward(cfg, lattice, spec)
    ledger = fp.contraction_check(run, trunc)
    assert ledger.applicability_reason == _HOLDS
    assert ledger.violations == 0
    # size: R0 ** 4 overflows, so c and every rhs are inf and the nodes
    # whose lhs is not finite are counted as unverifiable
    spec = fp.experiment2_model()
    trunc = exp2_trunc._replace(R0=1e100)
    cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=trunc)
    run = fp.run_backward(cfg, lattice, spec)
    ledger = fp.one_step_checks(run, trunc, "size")
    assert ledger.c_value == math.inf
    assert ledger.rhs_overflows == ledger.total_checked == 225
    assert ledger.nonfinite == ledger.violations > 0


@pytest.mark.parametrize("N, R0, alpha, constants, reason", [
    # 8 L_y^2 R0^4 overflows: the threshold is a power of ten, not 0
    (80, 1.87e96, 0.2499998, dict(L_y=9419.5, M_y=-79.4, m=3),
     "h=0.0125 exceeds the contraction threshold 10^-490800939.5"),
    # L_y^2 underflows to 0 and R0^6 overflows: the threshold is tiny,
    # where the product of the two is 0 * inf = nan
    (15, 1e100, 0.01, dict(L_y=1e-170, m=4),
     _EXP2_THRESHOLD + "6.35378e-279"),
])
def test_contraction_threshold_in_logs(N, R0, alpha, constants, reason):
    # the threshold min(base, (base / R0^mm)^(1/expo)), with
    # base = (-M_y/4) / (8 L_y^2), is taken in logs, so no square or
    # power of a constant overflows or underflows on the way
    spec = _with_driver(fp.experiment2_model(), **constants)
    lattice = build(spec, N)
    run = fp.run_backward(fp.SchemeConfig(kind="implicit_euler"), lattice,
                          spec)
    trunc = fp.TruncationConfig(R0=R0, alpha=alpha)
    ledger = fp.contraction_check(run, trunc)
    assert not ledger.applicable
    assert ledger.applicability_reason == reason


def test_zero_ly_drops_an_overflowed_radius_term(exp2_trunc):
    # L_y = 0 drops the L_y^2 term of c, also where R0 ** 4 overflows:
    # c is 2 M_y + 8 L_z^2 = -2 (size) or 2 M_y + 4 L_z^2 = -2
    # (stability), not the nan of 0 * inf, and the size ledger of the
    # finite fp run holds at every node
    spec = _with_driver(fp.experiment2_model(), L_y=0.0)
    lattice = build(spec, 15)
    cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp2_trunc)
    run = fp.run_backward(cfg, lattice, spec)
    run2 = fp.run_backward(cfg, lattice, _perturbed(spec))
    assert run.finite
    for R0 in (2.5, 1e100):
        trunc = exp2_trunc._replace(R0=R0)
        size = fp.one_step_checks(run, trunc, "size")
        stability = fp.one_step_checks(run, trunc, "stability", run2=run2)
        assert size.c_value == stability.c_value == -2.0
        assert (size.total_checked, size.violations) == (225, 0)


class TestViolationPredicate:
    def test_nan_residual_is_violation(self):
        assert _is_violation(math.nan, 1.0, 1e-10, 1e-8)

    def test_infinite_rhs_gives_infinite_slack(self):
        assert not _is_violation(1e300, math.inf, 1e-10, 1e-8)

    def test_relative_slack_scales(self):
        assert not _is_violation(1e-6, 1000.0, 1e-10, 1e-8)
        assert _is_violation(1e-6, 1.0, 1e-10, 1e-8)


class TestMinMax:
    def test_rows_per_level(self, exp1_model, exp1_trunc):
        lattice = build(exp1_model, 10)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc)
        run = fp.run_backward(cfg, lattice, exp1_model)
        rows = fp.minmax_processes(run)
        assert len(rows) == 11
        for level, t, y_max, y_min, finite in rows:
            assert y_min <= y_max
            assert finite

    def test_terminal_row_matches_g(self, exp1_model):
        lattice = build(exp1_model, 10)
        cfg = fp.SchemeConfig(kind="implicit_euler")
        run = fp.run_backward(cfg, lattice, exp1_model)
        _, t, y_max, y_min, _ = fp.minmax_processes(run)[-1]
        assert t == pytest.approx(1.0)
        xs = lattice.supports[-1]
        g = exp1_model.g
        assert y_max == pytest.approx(max(g(x) for x in xs))
        assert y_min == pytest.approx(min(g(x) for x in xs))


class TestFdComparison:
    def test_root_and_terminal_rows(self, exp1_model, exp1_trunc, fd_exp1):
        lattice = build(exp1_model, 40)
        cfg = fp.SchemeConfig(kind="full_projection_pre", truncation=exp1_trunc)
        run = fp.run_backward(cfg, lattice, exp1_model)
        rows = fp.fd_comparison(run, fd_exp1)
        assert len(rows) == 2
        level0, t0, count0, sup0 = rows[0]
        assert (level0, t0, count0) == (0, 0.0, 1)
        assert sup0 <= 5e-2
        levelN, tN, countN, supN = rows[1]
        assert levelN == 40 and tN == pytest.approx(1.0)
        # both sides carry the same terminal data; the gap is only the
        # FD solver's linear x-interpolation between its mesh points
        assert supN <= 1e-3

    @pytest.mark.parametrize("nan_node", [False, True])
    def test_matches_node_by_node(self, nan_node):
        # the reference is the per-node loop: the sup of |y - value_at|
        # over a level's in-domain nodes, nan once any difference is nan
        model = fp.linear_model()
        lattice = build(model, 40)
        run = fp.run_backward(fp.SchemeConfig(kind="implicit_euler"),
                              lattice, model)
        if nan_node:
            y = list(run.y)
            y[20] = np.where(np.arange(len(y[20])) == 25, math.nan, y[20])
            run = run._replace(y=tuple(y))
        pde = fp.fd_solve(model, dx=0.05, snapshots=4)
        snap = {round(t, 12): t for t in pde.ts}
        want = []
        for i, t in enumerate(lattice.time_grid.times):
            if round(t, 12) not in snap:
                continue
            diffs = [abs(y - pde.value_at(snap[round(t, 12)], x))
                     for x, y in zip(lattice.supports[i].tolist(),
                                     run.y[i].tolist())
                     if pde.xs[0] <= x <= pde.xs[-1]]
            if diffs:
                sup = math.nan if any(map(math.isnan, diffs)) else max(diffs)
                want.append((i, t, len(diffs), sup))
        got = fp.fd_comparison(run, pde)
        assert repr(got) == repr(want)
        # some nodes of the deeper levels lie outside the FD domain
        assert [row[2] for row in got] == [1, 21, 41, 43, 43]
        assert [math.isnan(row[3]) for row in got] == [
            False, False, nan_node, False, False]
