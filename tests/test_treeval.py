import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fptree as fp
from fptree.schemes import _level
from fptree.treeval import TreeStructureError

from conftest import W, WCOL, build, col, float_key, one_node

ZERO = fp.poly_driver((0.0,))
INF = math.inf


H03 = fp.weight_values(0.03)[0]  # (-10, 0, 10)

# the recursive-summation bound of a three-term sum: gamma_2 = 2u/(1-2u)
U = 2.0 ** -53
GAMMA2 = 2 * U / (1 - 2 * U)


def sums(terms):
    """(t0 + t2) + t1 of each node's three Python floats."""
    return [(t0 + t2) + t1 for t0, t1, t2 in terms]


def plain(terms):
    """sums(terms) as float64 bytes."""
    return np.array(sums(terms)).tobytes()


def keys(values):
    return [float_key(v) for v in values]


def expect(kids):
    """E[v] over one stencil: the level operator with a zero driver."""
    return one_node(kids, ZERO, 0.1)[0]


def z_of(kids):
    """z = E[v H] over one stencil at h = 0.03."""
    return one_node(kids, ZERO, 0.03, H=H03)[1]


class TestSafeWeightedSum:
    """Sums inside the level operator: plain, total on non-finite data."""

    def test_matches_fsum_on_finite(self):
        # the plain sum bitwise, and within gamma_2 of the rounded exact sum
        rng = np.random.default_rng(20240607)
        kids = rng.standard_normal((3, 2000)) * 10.0 ** rng.integers(-8, 9, (3, 2000))
        with np.errstate(all="ignore"):
            y = _level(kids, WCOL, col((0.0, 0.0, 0.0)), ZERO, 0.1, 0.0)[0]
        terms = [[w * v for w, v in zip(W, node)] for node in kids.T]
        assert y.tobytes() == plain(terms)
        for got, t in zip(y.tolist(), terms):
            assert abs(got - math.fsum(t)) <= GAMMA2 * sum(map(abs, t))

    def test_nan_dominates(self):
        assert math.isnan(expect((1.0, math.nan, 2.0)))
        assert math.isnan(z_of((1.0, math.nan, 2.0)))

    def test_one_sided_infinity(self):
        assert z_of((-INF, 1.0, 1.0)) == INF
        assert z_of((INF, 1.0, 1.0)) == -INF

    def test_mixed_infinities_are_nan(self):
        assert math.isnan(z_of((INF, 1.0, INF)))

    def test_finite_overflow_is_signed_infinity(self):
        # two finite terms of 1.67e308 add past the largest float
        assert z_of((-1e308, 0.0, 1e308)) == INF
        assert z_of((1e308, 0.0, -1e308)) == -INF

    def test_empty(self):
        empty = np.zeros((3, 0))
        y, z, total, most = _level(empty, WCOL, col((0.0, 0.0, 0.0)), ZERO,
                                   0.1, 1.0)
        assert y.size == z.size == total == most == 0


# finite values of every scale, both zeros, values that overflow in
# pairs, and the non-finite ones
SUMMANDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, INF, -INF, math.nan, 1e308, -1e308,
                     5e-324, -5e-324, 1.0, -1.0]),
)


# f = -0.0 everywhere: v + f h is v bitwise, so y's weighted children
# are W v exactly like z's are W v H
NEG_ZERO = ZERO._replace(eval=lambda y, z: -0.0)
ONES = (1.0, 1.0, 1.0)


class TestLevelSum:
    """The level operator's expectations are the plain (t0 + t2) + t1."""

    @given(st.lists(st.tuples(SUMMANDS, SUMMANDS, SUMMANDS), min_size=1,
                    max_size=16))
    @example(nodes=[(0.0, INF, math.nan)])
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_bitwise(self, nodes):
        # unit weights sum the summands themselves; the trinomial's
        # weights with H = (-10, 0, 10) make pairs of 1e308 overflow.
        # Bitwise but where the reference is nan: a nan made from two
        # nans, as inf * 0 + nan, may carry either sign
        kids = np.array(nodes, dtype=float).T
        for w, hw in ((ONES, ONES), (W, H03)):
            with np.errstate(all="ignore"):
                y, z = _level(kids, col(w), col(hw), NEG_ZERO, 0.03, 0.0)[:2]
            assert keys(y) == keys(sums(
                [[a * v for a, v in zip(w, node)] for node in nodes])), nodes
            assert keys(z) == keys(sums(
                [[a * v * b for a, v, b in zip(w, node, hw)]
                 for node in nodes])), nodes

    def test_signed_zeros(self):
        # all eight sign patterns of three zeros, one per node: the sum
        # is -0.0 only where all three are
        nodes = [tuple(-0.0 if k >> j & 1 else 0.0 for j in range(3))
                 for k in range(8)]
        y, z = _level(np.array(nodes).T, col(ONES), col(ONES), NEG_ZERO,
                      0.03, 0.0)[:2]
        want = np.array([0.0] * 7 + [-0.0]).tobytes()
        assert y.tobytes() == z.tobytes() == plain(nodes) == want


class TestCondExpect:
    def test_basic(self):
        assert expect((3.0, 3.0, 3.0)) == pytest.approx(3.0)
        assert expect((1.0, 2.0, 3.0)) == pytest.approx(2.0)

    @given(
        a=st.floats(-50, 50, allow_nan=False),
        b=st.floats(-50, 50, allow_nan=False),
        vals=st.tuples(
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
            st.floats(-10, 10, allow_nan=False),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_affine(self, a, b, vals):
        lhs = expect(tuple(a * v + b for v in vals))
        rhs = a * expect(vals) + b
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_level_expectation(self):
        lat = build(fp.experiment1_model(), 2)
        vals_next = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = _level(lat.gather(1, vals_next), col(fp.WEIGHTS),
                   col((0.0,) * 3), ZERO, 0.5, 0.0)[0]
        want = (1 / 6) * 2.0 + (2 / 3) * 3.0 + (1 / 6) * 4.0
        assert y[1] == pytest.approx(want)


class TestChainLaw:
    def test_masses_sum_to_one(self):
        lat = build(fp.experiment1_model(), 6)
        law = fp.chain_law(lat)
        for level_masses in law:
            assert math.fsum(level_masses) == pytest.approx(1.0, abs=1e-14)

    def test_two_step_marginal(self):
        lat = build(fp.experiment1_model(), 2)
        law = fp.chain_law(lat)
        assert law[0] == (1.0,)
        assert law[1] == pytest.approx((1 / 6, 2 / 3, 1 / 6))
        assert law[2] == pytest.approx(
            (1 / 36, 2 / 9, 1 / 2, 2 / 9, 1 / 36)
        )

    def test_l2_norm(self):
        lat = build(fp.experiment1_model(), 2)
        law = fp.chain_law(lat)
        levels = (np.array([2.0]), np.array([1.0, -2.0, 3.0]), np.zeros(5))
        want = [2.0, math.sqrt((1 / 6) * 1 + (2 / 3) * 4 + (1 / 6) * 9), 0.0]
        assert fp.l2_norms(levels, law) == pytest.approx(want)

    def test_l2_norm_constant(self):
        lat = build(fp.experiment1_model(), 4)
        law = fp.chain_law(lat)
        levels = [np.full(2 * level + 1, 5.0) for level in range(5)]
        assert fp.l2_norms(levels, law) == pytest.approx([5.0] * 5)

    def test_l2_norms_reject_mismatched_levels(self):
        law = fp.chain_law(build(fp.experiment1_model(), 2))
        for levels in ((np.ones(1), np.ones(3)),
                       (np.ones(1), np.ones(3), np.ones(4))):
            with pytest.raises(TreeStructureError,
                               match=r"\[1, 3, 5\]$"):
                fp.l2_norms(levels, law)
