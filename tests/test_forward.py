import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fptree as fp
from fptree.grids import ConfigurationError
from fptree.model import ModelSpec, constant_b_sigma

from conftest import build


class TestEulerStep:
    def test_constant_coefficients(self):
        m = fp.experiment1_model()
        # x + b h + sigma dw with b=0, sigma=1.5
        assert fp.euler_step(m, 0.0, 1.0, 0.2, 0.1) == 1.0 + 1.5 * 0.2

    def test_drift(self):
        m = fp.make_constant_model(
            T=1.0, x0=0.0, b=2.0, sigma=1.0,
            g=fp.quadratic_g(), driver=fp.poly_driver((0.0,)),
        )
        assert fp.euler_step(m, 0.0, 1.0, 0.0, 0.25) == 1.5


class TestQuantizedStep:
    def test_projects_to_grid(self):
        m = fp.experiment1_model()
        grid = fp.SpatialGrid(x0=0.0, eta=0.1, M=100)
        x, sat = fp.quantized_forward_step(m, grid, 0.0, 0.0, 0.2, 0.1)
        assert x == pytest.approx(0.3)
        assert not sat

    def test_saturates_at_hull(self):
        m = fp.experiment1_model()
        grid = fp.SpatialGrid(x0=0.0, eta=0.1, M=3)
        x, sat = fp.quantized_forward_step(m, grid, 0.0, 0.0, 10.0, 0.1)
        assert x == pytest.approx(0.3)
        assert sat


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
        for i in range(3):
            for pos in range(len(lat.supports[i])):
                assert lat.child_indices(i, pos) == (pos, pos + 1, pos + 2)

    def test_gather_block_is_a_read_only_view(self):
        lat = build(fp.experiment1_model(), 3)
        vals = np.arange(7.0)
        kids = lat.gather(2, vals)
        assert kids.shape == (3, 5)
        assert np.shares_memory(kids, vals) and not kids.flags.writeable
        for pos in range(5):
            assert kids[:, pos].tolist() == [
                vals[c] for c in lat.child_indices(2, pos)]
        with pytest.raises(ValueError):
            lat.gather(2, vals[:6])

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
            L_g=None,
        )
        tg = fp.TimeGrid(T=1.0, N=4)
        with pytest.raises(ConfigurationError):
            fp.build_lattice(m, tg, fp.trinomial(tg.h))

    def test_grid_aligned_to_tree_is_identity(self):
        m = fp.experiment1_model()
        tg = fp.TimeGrid(T=1.0, N=4)
        step = 1.5 * math.sqrt(3 * tg.h)
        grid = fp.SpatialGrid(x0=0.0, eta=step, M=8)
        free = fp.build_lattice(m, tg, fp.trinomial(tg.h))
        gridded = fp.build_lattice(m, tg, fp.trinomial(tg.h), grid)
        for a, b in zip(free.supports, gridded.supports):
            assert tuple(a) == pytest.approx(tuple(b))
        assert gridded.saturation_count == 0

    def test_tight_grid_saturates(self):
        m = fp.experiment1_model()
        tg = fp.TimeGrid(T=1.0, N=6)
        grid = fp.SpatialGrid(x0=0.0, eta=0.5, M=3)
        lat = fp.build_lattice(m, tg, fp.trinomial(tg.h), grid)
        assert lat.saturation_count > 0
        hull = 0.5 * 3
        for s in lat.supports:
            assert all(-hull - 1e-12 <= x <= hull + 1e-12 for x in s)

    def test_dump_shape(self):
        lat = build(fp.experiment1_model(), 3)
        d = fp.dump_lattice(lat)
        assert d["N"] == 3
        assert len(d["levels"]) == 4
        assert d["weights"] == list(lat.weights)


# ---------------------------------------------------------------------------
# The array lattice against the tuple-of-floats construction it replaced
# ---------------------------------------------------------------------------


def tuple_tree_supports(spec, tg, dist):
    """Tree supports as tuples of floats, one Python float at a time."""
    step = dist.points[-1]
    out = []
    for i in range(tg.N + 1):
        base = spec.x0 + spec.b_const * (i * tg.h)
        out.append(tuple(base + spec.sigma_const * (k * step)
                         for k in range(-i, i + 1)))
    return out


def tuple_grid_lattice(spec, tg, dist, grid):
    """Projected supports and child tables as tuples, through sets."""
    root = fp.grid_project_index(grid, spec.x0)[0]
    states, supports, children = [root], [(grid.point(root),)], []
    for i in range(tg.N):
        rows = [[fp.grid_project_index(
                    grid, fp.euler_step(spec, tg.times[i], grid.point(k),
                                        dw, tg.h))[0]
                 for dw in dist.points] for k in states]
        states = sorted({k for row in rows for k in row})
        index_of = {k: j for j, k in enumerate(states)}
        children.append(tuple(tuple(index_of[k] for k in row) for row in rows))
        supports.append(tuple(grid.point(k) for k in states))
    return supports, children


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
        "weights": list(lat.weights), "increments": list(lat.increments),
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
        dist = fp.trinomial(tg.h)

        tree = fp.build_lattice(spec, tg, dist)
        for got, want in zip(tree.supports, tuple_tree_supports(spec, tg, dist),
                             strict=True):
            assert got.dtype == np.float64
            assert bitwise_equal(got, want)

        # the shift-add chain law is bincount over the explicit table
        law = fp.chain_law(tree)
        w = np.asarray(tree.weights)
        m = np.ones(1)
        for i in range(N):
            idx = np.arange(len(m))[:, None] + np.arange(3)
            m = np.bincount(idx.ravel(), weights=(m[:, None] * w).ravel(),
                            minlength=len(m) + 2)
            assert bitwise_equal(law.masses[i + 1], m)

        grid = fp.SpatialGrid(x0=x0, eta=eta, M=M)
        lat = fp.build_lattice(spec, tg, dist, grid)
        supports, children = tuple_grid_lattice(spec, tg, dist, grid)
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
                cs = lat.child_indices(i, p)
                assert all(type(c) is int for c in cs)
                assert [k[p] for k in kids] == [vals[c] for c in cs]

    @pytest.mark.parametrize("grid", [
        None, fp.SpatialGrid(x0=0.0, eta=0.05, M=60),
    ], ids=["tree", "projected"])
    def test_dump_json_equals_tuple_dump(self, grid):
        spec = fp.experiment1_model()
        tg = fp.TimeGrid(T=1.0, N=9)
        dist = fp.trinomial(tg.h)
        lat = fp.build_lattice(spec, tg, dist, grid)
        if grid is None:
            want = tuple_dump(lat, tuple_tree_supports(spec, tg, dist), None)
        else:
            want = tuple_dump(lat, *tuple_grid_lattice(spec, tg, dist, grid))
        got = fp.dump_lattice(lat)
        assert json.dumps(got, indent=2, sort_keys=True) == json.dumps(
            want, indent=2, sort_keys=True)
