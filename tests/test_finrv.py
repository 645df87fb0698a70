import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catprob import errors
from catprob.finprob import as_equal, identity_map, make_map, make_space, map_distance, uniform_space
from catprob.finrv import (
    MAX_RESIDUAL_TARGET,
    cond_exp,
    cond_exp_residuals,
    constant_rv,
    expectation,
    l1_distance,
    make_rv,
    max_value,
    pullback,
    second_moment,
    truncate_rv,
)
from catprob.sampling import rand_quotient, rand_rv, rand_space


@st.composite
def seeded_rng(draw):
    return random.Random(draw(st.integers(0, 2**32 - 1)))


def test_canonical_zero_on_null_atoms():
    s = make_space(["a", "n"], [1, 0])
    f = make_rv(s, [F(1, 2), F(7, 3)])
    assert f.value("n") == 0


def test_negative_value_rejected():
    with pytest.raises(errors.NegativeValue):
        make_rv(uniform_space(2), [F(-1, 2), F(1, 2)])


class TestL1:
    def test_zero_on_equal(self):
        f = make_rv(uniform_space(3), [1, 2, 3])
        assert l1_distance(f, f) == 0

    def test_worked_example(self):
        u4 = uniform_space(4)
        f = make_rv(u4, [0, 1, 2, 3])
        g = make_rv(u4, ["1/2", "1/2", "5/2", "5/2"])
        assert l1_distance(f, g) == F(1, 2)

    def test_truncation_noop(self):
        f = make_rv(uniform_space(3), [1, 2, 3])
        assert l1_distance(f, truncate_rv(f, 3)) == 0

    def test_space_mismatch(self):
        with pytest.raises(errors.SpaceMismatch):
            l1_distance(make_rv(uniform_space(2), [0, 1]), make_rv(uniform_space(3), [0, 1, 2]))


class TestMoments:
    def test_constant(self):
        f = constant_rv(uniform_space(5), F(7, 2))
        assert expectation(f) == F(7, 2)
        assert second_moment(f) == F(49, 4)

    def test_worked_examples(self):
        u4 = uniform_space(4)
        f = make_rv(u4, [0, 1, 2, 3])
        assert expectation(f) == F(3, 2)
        assert second_moment(f) == F(7, 2)
        g = make_rv(u4, ["1/2", "1/2", "5/2", "5/2"])
        assert second_moment(g) == F(13, 4)


class TestCondExp:
    def test_identity(self):
        u4 = uniform_space(4)
        f = make_rv(u4, [0, 1, 2, 3])
        assert cond_exp(f, identity_map(u4)) == f

    def test_pairing(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        assert cond_exp(make_rv(u4, [0, 1, 2, 3]), pair).values == (F(1, 2), F(5, 2))

    def test_constant_stays_constant(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        assert cond_exp(constant_rv(u4, F(2, 3)), pair) == constant_rv(u2, F(2, 3))

    @settings(max_examples=50, deadline=None)
    @given(seeded_rng())
    def test_defining_property_on_all_subsets(self, rng):
        # integral over any pulled-back subset matches the source integral
        space = rand_space(rng, max_atoms=6)
        s = rand_quotient(rng, space, max_classes=4)
        g = rand_rv(rng, space, bound=2)
        e = cond_exp(g, s)
        for k in range(s.dst.size + 1):
            for combo in itertools.combinations(s.dst.atoms, k):
                chosen = set(combo)
                lhs = sum((s.dst.weight(b) * e.value(b) for b in combo), space.zero)
                rhs = sum(
                    (space.weight(a) * g.value(a) for a in space.atoms if s.assign[a] in chosen),
                    space.zero,
                )
                assert lhs == rhs

    @settings(max_examples=50, deadline=None)
    @given(seeded_rng())
    def test_tower_property(self, rng):
        space = rand_space(rng)
        s = rand_quotient(rng, space)
        t = rand_quotient(rng, s.dst)
        g = rand_rv(rng, space, bound=3)
        from catprob.finprob import compose

        assert cond_exp(g, compose(s, t)) == cond_exp(cond_exp(g, s), t)

    @settings(max_examples=50, deadline=None)
    @given(seeded_rng())
    def test_contraction(self, rng):
        space = rand_space(rng)
        s = rand_quotient(rng, space)
        f, g = rand_rv(rng, space, bound=2), rand_rv(rng, space, bound=2)
        assert l1_distance(cond_exp(f, s), cond_exp(g, s)) <= l1_distance(f, g)

    @settings(max_examples=50, deadline=None)
    @given(seeded_rng())
    def test_expectation_preserved(self, rng):
        space = rand_space(rng)
        s = rand_quotient(rng, space)
        g = rand_rv(rng, space, bound=2)
        assert expectation(cond_exp(g, s)) == expectation(g)

    @settings(max_examples=50, deadline=None)
    @given(seeded_rng())
    def test_bound_preserved(self, rng):
        space = rand_space(rng)
        s = rand_quotient(rng, space)
        g = rand_rv(rng, space, bound=F(3, 2))
        assert max_value(cond_exp(g, s)) <= F(3, 2)


    def test_residuals_refuse_a_target_past_the_cap(self):
        """2^n subsets: one more atom than the cap is refused before any
        conditional expectation is taken; the cap's own size is not."""
        n = MAX_RESIDUAL_TARGET + 1
        u = uniform_space(n)
        with pytest.raises(errors.CodomainTooLarge) as exc:
            cond_exp_residuals(constant_rv(u, 1), identity_map(u))
        assert str(exc.value) == "target has %d atoms; subset report capped at %d" % (n, n - 1)
        small = uniform_space(3)
        assert len(cond_exp_residuals(constant_rv(small, 1), identity_map(small))) == 2 ** 3


_U2 = uniform_space(2)
_ONE = constant_rv(_U2, 1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: cond_exp(None, None), errors.DomainMismatch, "g is a NoneType, not a FiniteRandomVariable"),
        (lambda: cond_exp(_ONE, None), errors.DomainMismatch, "s is a NoneType, not a MeasurePreservingMap"),
        (lambda: cond_exp_residuals(None, None), errors.DomainMismatch,
         "g is a NoneType, not a FiniteRandomVariable"),
        (lambda: cond_exp_residuals(_ONE, 2), errors.DomainMismatch, "s is a int, not a MeasurePreservingMap"),
        (lambda: cond_exp_residuals(_ONE, identity_map(_U2), [1, 1]), errors.DomainMismatch,
         "result is a list, not a FiniteRandomVariable"),
        (lambda: cond_exp_residuals(_ONE, identity_map(_U2), constant_rv(uniform_space(3), 1)),
         errors.SpaceMismatch, "conditional expectation does not live on the map's target"),
        (lambda: cond_exp_residuals(constant_rv(uniform_space(3), 1), identity_map(_U2)),
         errors.SpaceMismatch, "random variable does not live on the map's source"),
        (lambda: map_distance(None, None), errors.DomainMismatch, "f is a NoneType, not a MeasurePreservingMap"),
        (lambda: map_distance(identity_map(_U2), _ONE), errors.DomainMismatch,
         "g is a FiniteRandomVariable, not a MeasurePreservingMap"),
        (lambda: as_equal(identity_map(_U2), "id"), errors.DomainMismatch,
         "g is a str, not a MeasurePreservingMap"),
    ],
)
def test_kernels_name_an_input_that_is_no_table_or_map(call, error, message):
    """Each of these raised a bare AttributeError; a kernel names the first
    argument that is no random variable or map, or the table on another space."""
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


class TestTruncate:
    def test_noop_below_level(self):
        f = make_rv(uniform_space(2), [1, 2])
        assert truncate_rv(f, 2) == f

    def test_pointwise_min(self):
        f = make_rv(uniform_space(2), [3, 1])
        assert truncate_rv(f, 2).values == (F(2), F(1))

    @settings(max_examples=50, deadline=None)
    @given(seeded_rng())
    def test_l1_error_is_positive_part_mass(self, rng):
        space = rand_space(rng)
        f = rand_rv(rng, space, bound=4)
        n = F(rng.randint(1, 4))
        excess = sum(
            (w * (v - n) for w, v in zip(space.weights, f.values) if v > n),
            space.zero,
        )
        assert l1_distance(f, truncate_rv(f, n)) == excess

    def test_error_vanishes_as_level_grows(self):
        rng = random.Random(7)
        space = rand_space(rng)
        f = rand_rv(rng, space, bound=4)
        errs = [l1_distance(f, truncate_rv(f, n)) for n in range(1, 7)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))
        assert errs[-1] == 0  # bound 4 < level 6


def test_pullback_composes_values():
    u4, u2 = uniform_space(4), uniform_space(2)
    pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
    f = make_rv(u2, [F(1, 3), F(2, 3)])
    assert pullback(f, pair).values == (F(1, 3), F(1, 3), F(2, 3), F(2, 3))
