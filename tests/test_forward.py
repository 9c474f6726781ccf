import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import fptree as fp
from fptree.grids import ConfigurationError
from fptree.model import ModelSpec, constant_b_sigma

from fptree.schemes import _branch_sum

from conftest import WCOL, build, child_indices, col, level_bytes


def one_step(spec, h, grid):
    """build_lattice over one step of size h, the horizon of spec set to
    h: increments (-sqrt(3h), 0, sqrt(3h))."""
    return fp.build_lattice(spec._replace(T=h), 1, grid)


def child_state(lat, branch):
    """The level-1 state of the root's child on `branch`."""
    return lat.supports[1][lat.children[0][0, branch]]


class TestEulerStep:
    """One grid-aligned step lands on x + b h + sigma dw exactly."""

    def test_constant_coefficients(self):
        # experiment1's b=0, sigma=1.5 from x=1 with h=3/16, dw=0.75
        m = fp.make_constant_model(
            T=1.0, x0=1.0, b=0.0, sigma=1.5,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.0,)),
        )
        grid = fp.SpatialGrid(x0=1.0, eta=1.5 * 0.75, M=4)
        lat = one_step(m, 0.1875, grid)
        assert fp.increments(lat.time_grid.h) == (-0.75, 0.0, 0.75)
        assert child_state(lat, 2) == 1.0 + 1.5 * 0.75

    def test_drift(self):
        m = fp.make_constant_model(
            T=1.0, x0=1.0, b=2.0, sigma=1.0,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.0,)),
        )
        grid = fp.SpatialGrid(x0=1.0, eta=0.5, M=4)
        assert child_state(one_step(m, 0.25, grid), 1) == 1.5

    def test_operation_order(self):
        # h = 1/3 gives dw = 1: (x + b h) + sigma dw = 0.5499999999999999
        # projects down to 0.45; x + (b h + sigma dw) = 0.55 would land
        # one cell up, on 0.65
        m = fp.make_constant_model(
            T=1.0, x0=0.25, b=0.6, sigma=0.1,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.0,)),
        )
        grid = fp.SpatialGrid(x0=0.25, eta=0.2, M=4)
        h = 1 / 3
        assert (0.25 + 0.6 * h) + 0.1 * 1.0 < 0.25 + (0.6 * h + 0.1 * 1.0)
        assert float(fp.grid_project(grid, 0.25 + (0.6 * h + 0.1))) == 0.65
        lat = one_step(m, h, grid)
        assert fp.increments(lat.time_grid.h)[2] == 1.0
        assert child_state(lat, 2) == 0.45


class TestQuantizedStep:
    def test_projects_to_grid(self):
        m = fp.experiment1_model()
        grid = fp.SpatialGrid(x0=0.0, eta=0.1, M=100)
        # sigma dw = 1.5 * 0.75 = 1.125 projects to 1.1
        lat = one_step(m, 0.1875, grid)
        assert child_state(lat, 2) == pytest.approx(1.1)
        assert child_state(lat, 0) == pytest.approx(-1.1)
        assert lat.saturation_count == 0

    def test_saturates_at_hull(self):
        m = fp.experiment1_model()
        grid = fp.SpatialGrid(x0=0.0, eta=0.1, M=3)
        lat = one_step(m, 0.1875, grid)
        assert child_state(lat, 2) == pytest.approx(0.3)
        assert child_state(lat, 0) == pytest.approx(-0.3)
        assert lat.saturation_count == 2


class TestBuildLattice:
    def test_level_supports_match_documented_shape(self):
        m = fp.experiment1_model()
        lat = build(m, 2)
        step = 1.5 * math.sqrt(3 * 0.5)
        assert lat.supports[0] == (0.0,)
        assert lat.supports[1] == pytest.approx((-step, 0.0, step))
        assert lat.supports[2] == pytest.approx(
            (-2 * step, -step, 0.0, step, 2 * step)
        )

    def test_level_sizes(self):
        lat = build(fp.experiment1_model(), 7)
        assert [len(s) for s in lat.supports] == [2 * i + 1 for i in range(8)]

    def test_children_identity_stencil(self):
        lat = build(fp.experiment1_model(), 3)
        assert lat.children is None
        for i in range(3):
            kids = lat.gather(i, np.arange(2.0 * i + 3))
            for pos in range(len(lat.supports[i])):
                assert kids[:, pos].tolist() == [pos, pos + 1, pos + 2]

    def test_gather_block_is_a_read_only_view(self):
        lat = build(fp.experiment1_model(), 3)
        vals = np.arange(7.0)
        kids = lat.gather(2, vals)
        assert kids.shape == (3, 5)
        assert np.shares_memory(kids, vals) and not kids.flags.writeable
        for pos in range(5):
            assert kids[:, pos].tolist() == [
                vals[c] for c in child_indices(lat, 2, pos)]
        with pytest.raises(ValueError):
            lat.gather(2, vals[:6])

    @pytest.mark.parametrize("grid", [
        None, fp.SpatialGrid(x0=0.0, eta=0.05, M=60),
    ], ids=["tree", "projected"])
    def test_child_index_is_every_gather_side_by_side(self, grid):
        # the children of levels lo..top, root side first, summed at
        # once: range(N) is the form one_step_checks passes
        assert_expect_runs(grid, down=False)

    @pytest.mark.parametrize("grid", [
        None, fp.SpatialGrid(x0=0.0, eta=0.05, M=60),
    ], ids=["tree", "projected"])
    def test_gather_levels_is_each_gather_side_by_side(self, grid):
        # the children of levels top..lo, top first, summed at once: the
        # form the z pass passes
        assert_expect_runs(grid, down=True)

    def test_supports_shift_with_drift(self):
        m = fp.make_constant_model(
            T=1.0, x0=1.0, b=2.0, sigma=1.0,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.0,)),
        )
        lat = build(m, 2)
        assert lat.supports[0] == (1.0,)
        assert lat.supports[1][1] == pytest.approx(1.0 + 2.0 * 0.5)

    def test_nonconstant_coefficients_need_grid(self):
        _, sigma = constant_b_sigma(0.0, 1.0)
        m = ModelSpec(
            T=1.0, x0=0.0,
            b=lambda t, x: x,
            sigma=sigma,
            g=fp.quadratic_g(),
            driver=fp.poly_driver((0.0,)),
        )
        with pytest.raises(ConfigurationError):
            fp.build_lattice(m, 4)

    def test_grid_aligned_to_tree_is_identity(self):
        m = fp.experiment1_model()
        step = 1.5 * math.sqrt(3 * 0.25)
        grid = fp.SpatialGrid(x0=0.0, eta=step, M=8)
        free = fp.build_lattice(m, 4)
        gridded = fp.build_lattice(m, 4, grid)
        for a, b in zip(free.supports, gridded.supports):
            assert tuple(a) == pytest.approx(tuple(b))
        assert gridded.saturation_count == 0

    def test_tight_grid_saturates(self):
        m = fp.experiment1_model()
        grid = fp.SpatialGrid(x0=0.0, eta=0.5, M=3)
        lat = fp.build_lattice(m, 6, grid)
        assert lat.saturation_count > 0
        hull = 0.5 * 3
        for s in lat.supports:
            assert all(-hull - 1e-12 <= x <= hull + 1e-12 for x in s)

    def test_dump_shape(self):
        lat = build(fp.experiment1_model(), 3)
        d = fp.dump_lattice(lat)
        assert d["N"] == 3
        assert len(d["levels"]) == 4
        assert d["weights"] == list(fp.WEIGHTS)


# ---------------------------------------------------------------------------
# The array lattice against the tuple-of-floats construction it replaced
# ---------------------------------------------------------------------------


# float64 values at the edges of arithmetic: signed zeros and
# infinities, nans of both signs, a signalling nan, subnormals and values
# whose products and sums overflow
SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
    *np.frombuffer(np.array([0x7FF0000000000001, 0xFFF8000000000123],
                            dtype=np.uint64).tobytes()).tolist(),
    5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e308, -6e307,
]


def block_sums(lat, levels, values, H=None):
    """Lattice.expect's reference: schemes._branch_sum(W * block * H) of
    the levels' gather block side by side, positioned as expect sums
    them.  A sum whose two outer terms are nans of different bits takes
    either's bits by its place in the array, so the reference sums the
    tree's child rows of the whole of values and then drops the two
    columns that straddle each pair of child levels."""
    starts = np.cumsum([0] + [len(lat.supports[i + 1]) for i in levels])
    if lat.children is None:
        block = np.stack([values[:-2], values[1:-1], values[2:]])
    else:
        block = values[np.concatenate(
            [lat.children[i] + s for i, s in zip(levels, starts)]).T]
    sums = _branch_sum(WCOL * block if H is None else WCOL * block * H)
    if lat.children is not None:
        return sums
    return np.concatenate([sums[s:s + len(lat.supports[i])]
                           for i, s in zip(levels, starts)])


def level_sums(lat, levels, values, H=None):
    """_branch_sum(W * gather(i, child) * H) of each level of levels on
    its own, side by side: the level operator's sums."""
    starts = np.cumsum([0] + [len(lat.supports[i + 1]) for i in levels])
    sums = []
    for i, s in zip(levels, starts):
        kids = lat.gather(i, values[s:s + len(lat.supports[i + 1])])
        sums.append(_branch_sum(WCOL * kids if H is None
                                else WCOL * kids * H))
    return np.concatenate(sums)


def assert_expect_runs(grid, down):
    """Lattice.expect over every run of consecutive levels of 1- to
    25-step lattices, upward or downward, with and without Z weights,
    is each level's own gather block sum, side by side in the order of
    levels, bit for bit."""
    rng = np.random.default_rng(11)
    H = col(fp.weight_values(0.04)[0])
    for N in (1, 2, 9, 25):
        lat = build(fp.experiment1_model(), N, grid)
        vals = [rng.standard_normal(len(s)) for s in lat.supports]
        for top in range(N):
            for lo in range(top + 1):
                levels = (range(top, lo - 1, -1) if down
                          else range(lo, top + 1))
                flat = np.concatenate([vals[i + 1] for i in levels])
                for Hj in (None, H):
                    got = lat.expect(levels, flat, Hj)
                    assert got.dtype == np.float64
                    assert bitwise_equal(got, level_sums(
                        lat, levels, flat, Hj)), (N, levels)
        # one level as a tuple, the form run_backward passes
        assert bitwise_equal(lat.expect((N - 1,), vals[N]),
                             level_sums(lat, [N - 1], vals[N]))


class TestExpect:
    """Lattice.expect is the level operator's branch sum, bit for bit."""

    def test_outer_branches_share_one_weight(self):
        # the tree's expect and push take W0 v once for both outer
        # branches: an asymmetric law must fail here, not sum wrongly
        assert fp.WEIGHTS[0] == fp.WEIGHTS[2]

    @given(
        projected=st.booleans(), N=st.integers(1, 10),
        ends=st.tuples(st.integers(0, 9), st.integers(0, 9)),
        down=st.booleans(),
        # two of three values special, tiled over the child levels
        picks=st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS),
                                 st.sampled_from(SPECIAL_FLOATS),
                                 st.floats()), min_size=1, max_size=40),
        h=st.one_of(st.none(), st.floats(1e-3, 1.0)),
    )
    # outer children that are nans of both signs, at every place of a
    # level wider than one SIMD register, with Z weights
    @example(projected=False, N=10, ends=(9, 9), down=False,
             picks=[math.nan, math.nan, -math.nan, -math.nan], h=0.01)
    # and over many levels side by side
    @example(projected=False, N=10, ends=(2, 9), down=True,
             picks=[math.nan, -math.nan, 1.0, -math.nan, math.nan],
             h=None)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_on_special_values(self, projected, N, ends, down,
                                       picks, h):
        # raw bytes, nan bits included, against the block form at the
        # same places; against each level's own block up to nan bits
        grid = fp.SpatialGrid(x0=0.0, eta=0.05, M=30) if projected else None
        lat = build(fp.experiment1_model(), N, grid)
        lo, top = sorted(e % N for e in ends)
        levels = range(top, lo - 1, -1) if down else range(lo, top + 1)
        size = sum(len(lat.supports[i + 1]) for i in levels)
        values = np.resize(np.array(picks, dtype=np.float64), size)
        H = None if h is None else col(fp.weight_values(h)[0])
        event("one level" if len(levels) == 1 else "many levels")
        with np.errstate(all="ignore"):
            got = lat.expect(levels, values, H)
            want = block_sums(lat, levels, values, H)
            own = level_sums(lat, levels, values, H)
        assert got.tobytes() == want.tobytes()
        assert level_bytes([got]) == level_bytes([own])


def tuple_tree_supports(spec, tg):
    """Tree supports as tuples of floats, one Python float at a time."""
    step = fp.increments(tg.h)[-1]
    out = []
    for i in range(tg.N + 1):
        base = spec.x0 + spec.b_const * (i * tg.h)
        out.append(tuple(base + spec.sigma_const * (k * step)
                         for k in range(-i, i + 1)))
    return out


def scalar_project(grid, x):
    """Nearest grid index of one float, clamped to the hull, and whether
    it was clamped (ties toward the smaller coordinate)."""
    k = math.ceil((x - grid.x0) / grid.eta - 0.5)
    return min(max(k, -grid.M), grid.M), abs(k) > grid.M


def tuple_grid_lattice(spec, tg, grid):
    """Projected supports, child tables and saturation count as tuples:
    one scalar Euler step x + b h + sigma dw per node and branch, then
    the nearest grid index, the reachable set through a set."""
    def point(k):
        return grid.x0 + k * grid.eta

    root, saturation = scalar_project(grid, spec.x0)
    states, supports, children = [root], [(point(root),)], []
    for i in range(tg.N):
        t, rows = tg.times[i], []
        for k in states:
            x = point(k)
            row = []
            for dw in fp.increments(tg.h):
                kk, sat = scalar_project(
                    grid, x + spec.b(t, x) * tg.h + spec.sigma(t, x) * dw)
                saturation += sat
                row.append(kk)
            rows.append(row)
        states = sorted({k for row in rows for k in row})
        index_of = {k: j for j, k in enumerate(states)}
        children.append(tuple(tuple(index_of[k] for k in row) for row in rows))
        supports.append(tuple(point(k) for k in states))
    return supports, children, int(saturation)


def tuple_dump(lat, supports, children):
    """dump_lattice written over tuples of Python floats and ints."""
    tg = lat.time_grid
    levels = []
    for i, states in enumerate(supports):
        entry = {"level": i, "t": tg.times[i], "states": list(states)}
        if i < tg.N:
            entry["children"] = ("uniform" if children is None
                                 else [list(c) for c in children[i]])
        levels.append(entry)
    return {
        "T": tg.T, "N": tg.N, "h": tg.h,
        "weights": list(fp.WEIGHTS), "increments": list(fp.increments(tg.h)),
        "saturation_count": lat.saturation_count, "levels": levels,
    }


def bitwise_equal(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def constant_model(x0, b, sigma):
    return fp.make_constant_model(
        T=1.0, x0=x0, b=b, sigma=sigma,
        g=fp.quadratic_g(), driver=fp.poly_driver((0.0,)),
    )


def state_model(x0, b, sigma):
    """A model with the given (t, x) coefficient callables."""
    return ModelSpec(T=1.0, x0=x0, b=b, sigma=sigma, g=fp.quadratic_g(),
                     driver=fp.poly_driver((0.0,)))


def ou_model(x0, a, s0, s1, s2):
    """Mean-reverting drift -a x and a diffusion that moves with t and x;
    plain arithmetic, so arrays and floats take the same IEEE steps."""
    return state_model(x0, lambda t, x: -a * x,
                       lambda t, x: s0 + s1 * t + s2 * (x * x) / (1.0 + x * x))


def grid_levels_equal(lat, supports, children):
    for i, want in enumerate(supports):
        assert bitwise_equal(lat.supports[i], want)
    for table, want in zip(lat.children, children, strict=True):
        assert table.dtype == np.int64
        assert table.tolist() == [list(c) for c in want]


class TestArrayLattice:
    @given(
        x0=st.floats(-5.0, 5.0),
        b=st.floats(-3.0, 3.0),
        sigma=st.floats(0.05, 3.0),
        N=st.integers(1, 60),
        eta=st.floats(0.05, 0.5),
        M=st.integers(2, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_tuple_construction(self, x0, b, sigma, N, eta,
                                                 M):
        spec = constant_model(x0, b, sigma)
        tg = fp.TimeGrid(T=1.0, N=N)

        tree = fp.build_lattice(spec, tg.N)
        for got, want in zip(tree.supports, tuple_tree_supports(spec, tg),
                             strict=True):
            assert got.dtype == np.float64
            assert bitwise_equal(got, want)

        # the shift-add chain law is bincount over the explicit table
        law = fp.chain_law(tree)
        w = np.asarray(fp.WEIGHTS)
        m = np.ones(1)
        for i in range(N):
            idx = np.arange(len(m))[:, None] + np.arange(3)
            m = np.bincount(idx.ravel(), weights=(m[:, None] * w).ravel(),
                            minlength=len(m) + 2)
            assert bitwise_equal(law[i + 1], m)

        grid = fp.SpatialGrid(x0=x0, eta=eta, M=M)
        lat = fp.build_lattice(spec, tg.N, grid)
        supports, children, saturation = tuple_grid_lattice(spec, tg, grid)
        assert lat.saturation_count == saturation
        rng = np.random.default_rng(N)
        for i in range(N + 1):
            assert bitwise_equal(lat.supports[i], supports[i])
        for i in range(N):
            table = lat.children[i]
            assert table.dtype == np.int64
            assert table.shape == (len(supports[i]), 3)
            assert table.tolist() == [list(c) for c in children[i]]
            vals = rng.standard_normal(len(supports[i + 1]))
            kids = lat.gather(i, vals)
            for p in range(len(supports[i])):
                cs = child_indices(lat, i, p)
                assert all(type(c) is int for c in cs)
                assert [k[p] for k in kids] == [vals[c] for c in cs]

    @pytest.mark.parametrize("grid", [
        None, fp.SpatialGrid(x0=0.0, eta=0.05, M=60),
    ], ids=["tree", "projected"])
    def test_dump_json_equals_tuple_dump(self, grid):
        spec = fp.experiment1_model()
        tg = fp.TimeGrid(T=1.0, N=9)
        lat = fp.build_lattice(spec, tg.N, grid)
        if grid is None:
            want = tuple_dump(lat, tuple_tree_supports(spec, tg), None)
        else:
            want = tuple_dump(lat, *tuple_grid_lattice(spec, tg, grid)[:2])
        got = fp.dump_lattice(lat)
        assert json.dumps(got, indent=2, sort_keys=True) == json.dumps(
            want, indent=2, sort_keys=True)

    @given(
        x0=st.floats(-2.0, 2.0), a=st.floats(0.0, 3.0),
        s0=st.floats(0.1, 2.0), s1=st.floats(0.0, 1.0),
        s2=st.floats(0.0, 1.0), N=st.integers(1, 40),
        eta=st.floats(0.02, 0.5), M=st.integers(2, 60),
    )
    @example(x0=0.3, a=2.0, s0=1.0, s1=0.1, s2=0.0, N=100, eta=0.01, M=400)
    @settings(max_examples=60, deadline=None)
    def test_state_dependent_coefficients(self, x0, a, s0, s1, s2, N, eta,
                                          M):
        # b = -2x, sigma = 1 + 0.1 t is the explicit example
        spec = ou_model(x0, a, s0, s1, s2)
        tg = fp.TimeGrid(T=1.0, N=N)
        grid = fp.SpatialGrid(x0=0.0, eta=eta, M=M)
        lat = fp.build_lattice(spec, tg.N, grid)
        supports, children, saturation = tuple_grid_lattice(spec, tg, grid)
        grid_levels_equal(lat, supports, children)
        assert lat.saturation_count == saturation

    @pytest.mark.parametrize("value, node", [(math.inf, 2), (math.nan, 0)])
    def test_nonfinite_step_names_level_and_node(self, value, node):
        # level 1 holds -1, 0, 1; the drift is non-finite at one end
        where = (lambda x: x >= 1.0) if node == 2 else (lambda x: x <= -1.0)
        spec = state_model(0.0, lambda t, x: np.where(where(x), value, -x),
                           lambda t, x: 1.0)
        grid = fp.SpatialGrid(x0=0.0, eta=0.5, M=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError) as built:
                fp.build_lattice(spec, 4, grid)
        assert str(built.value) == (
            "the forward step from level 1 node %d (branch 0) gave the "
            "non-finite state %s" % (node, value))

    def test_grid_reads_reachable_states_of_any_model(self):
        # the drift is inf beyond |x| > 5, which no state reaches from 0
        # with b = -2x: the steps from the hull's ends would be inf
        spec = state_model(
            0.0, lambda t, x: np.where(np.abs(x) > 5.0, math.inf, -2.0 * x),
            lambda t, x: 0.5)
        grid = fp.SpatialGrid(x0=0.0, eta=0.25, M=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lat = fp.build_lattice(spec, 20, grid)
        assert np.abs(np.concatenate(lat.supports)).max() <= 5.0

    def test_huge_finite_step_saturates_on_its_side(self):
        # from level 1 (-1, 0, 1) the outer nodes step to -+2.5e299,
        # far beyond the int64 range of (x - x0)/eta
        spec = state_model(
            0.0, lambda t, x: np.where(np.abs(x) > 0.5, 1e300 * x, 0.0),
            lambda t, x: 1.0)
        tg = fp.TimeGrid(T=1.0, N=4)
        grid = fp.SpatialGrid(x0=0.0, eta=0.5, M=10)
        lat = fp.build_lattice(spec, tg.N, grid)
        assert lat.supports[1].tolist() == [-1.0, 0.0, 1.0]
        low, high = lat.supports[2][lat.children[1][[0, 2]]]
        assert low.tolist() == [-5.0] * 3 and high.tolist() == [5.0] * 3
        supports, children, saturation = tuple_grid_lattice(spec, tg, grid)
        grid_levels_equal(lat, supports, children)
        assert lat.saturation_count == saturation >= 6

    @pytest.mark.parametrize("x0, b, sigma, N, named", [
        # sigma k sqrt(3h) overflows from |k| = 2 on
        (0.0, 0.0, 1.7e308, 4, "level 2 node 0 holds the non-finite "
         "state -inf"),
        # only the top state overflows
        (1.5e308, 0.0, 2.9e307, 1, "level 1 node 2 holds the non-finite "
         "state inf"),
        # the drift's base x0 + b t_i overflows at t = 1/2
        (1e308, 1.7e308, 1.0, 4, "level 2 node 0 holds the non-finite "
         "state inf"),
    ], ids=["sigma", "top", "drift"])
    def test_overflowing_tree_state_names_level_and_node(self, x0, b,
                                                         sigma, N, named):
        # the tree raises where the grid does and warns nothing
        spec = constant_model(x0, b, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError) as built:
                fp.build_lattice(spec, N)
        assert str(built.value) == "the tree's " + named

    @pytest.mark.parametrize("x0, sigma, eta, named", [
        # sigma sqrt(3) overflows at the first step, from x0
        (0.0, 1.7e308, 0.5, "level 0 node 0 (branch 0) gave the non-finite "
         "state -inf"),
        # level 1 reaches the hull's end 1.7e308, whose step passes the
        # float range
        (1.6e308, 1e307, 1e306, "level 1 node 2 (branch 2) gave the "
         "non-finite state inf"),
    ], ids=["first-step", "top"])
    def test_overflowing_grid_step_names_level_and_node(self, x0, sigma, eta,
                                                        named):
        # with constant coefficients the grid steps each level's
        # reachable states and names the first non-finite step
        spec = constant_model(x0, 0.0, sigma)
        grid = fp.SpatialGrid(x0=x0, eta=eta, M=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError) as built:
                fp.build_lattice(spec, 2, grid)
        assert str(built.value) == "the forward step from " + named

    @given(
        x0=st.floats(-1.7e308, 1.7e308), b=st.floats(-1.7e308, 1.7e308),
        sigma=st.floats(0.0, 1.7e308).map(lambda s: s or 1.0),
        eta=st.floats(1e-3, 1e307), N=st.integers(1, 6),
        projected=st.booleans(),
    )
    # the one step from x0 = 1.6e308 stays finite, though a step from
    # the hull's end x0 + M eta = 1.7e308 would not
    @example(x0=1.6e308, b=0.0, sigma=1e307, eta=1e306, N=1,
             projected=True)
    @settings(max_examples=200, deadline=None)
    def test_lattice_builds_finite_or_raises(self, x0, b, sigma, eta, N,
                                             projected):
        # on either lattice kind build_lattice names a non-finite state
        # or returns finite supports alone, and warns nothing
        spec = constant_model(x0, b, sigma)
        grid = None
        if projected:
            try:
                grid = fp.SpatialGrid(x0=x0, eta=eta, M=4)
            except ConfigurationError:
                assume(False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                lat = fp.build_lattice(spec, N, grid)
            except ConfigurationError as err:
                event("rejected")
                assert "non-finite state" in str(err)
                return
        assert np.isfinite(np.concatenate(lat.supports)).all()
