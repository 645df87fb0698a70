import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from catprob import errors, finprob, jsonio, scalar
from catprob.diagram import dyadic_space
from catprob.finmeas import pushforward
from catprob.finprob import (
    FiniteProbSpace,
    MeasurePreservingMap,
    as_equal,
    compose,
    identity_map,
    make_map,
    make_space,
    map_distance,
    uniform_space,
)
from catprob.finrv import cond_exp, pullback
from catprob.sampling import rand_parallel_map, rand_quotient, rand_space

from oracles import map_distance_literal
from strategies import cases


@st.composite
def seeded_rng(draw):
    return random.Random(draw(st.integers(0, 2**32 - 1)))


class TestMakeSpace:
    def test_uniform_two(self):
        s = make_space(["a", "b"], [F(1, 2), F(1, 2)])
        assert s.weights == (F(1, 2), F(1, 2))

    def test_skewed_two(self):
        s = make_space(["a", "b"], [F(1, 4), F(3, 4)])
        assert s.weight("b") == F(3, 4)

    def test_sum_mismatch(self):
        with pytest.raises(errors.WeightSumMismatch):
            make_space(["a", "b"], [F(1, 4), F(1, 4)])

    @pytest.mark.parametrize("backend", scalar.BACKENDS)
    def test_uniform_space_with_no_atoms(self, backend):
        with pytest.raises(errors.WeightSumMismatch) as want:
            make_space([], [], backend=backend)
        for atoms in (0, []):
            with pytest.raises(errors.WeightSumMismatch) as got:
                uniform_space(atoms, backend=backend)
            assert str(got.value) == str(want.value)

    def test_negative_weight(self):
        with pytest.raises(errors.NegativeWeight):
            make_space(["a", "b"], [F(-1, 4), F(5, 4)])

    def test_duplicate_atom(self):
        with pytest.raises(errors.DuplicateAtom):
            make_space(["a", "a"], [F(1, 2), F(1, 2)])

    def test_rational_strings(self):
        s = make_space(["a", "b"], ["1/4", "3/4"])
        assert s.weight("a") == F(1, 4)

    def test_float_rejected_on_exact_backend(self):
        with pytest.raises(errors.BackendMismatch):
            make_space(["a", "b"], [0.25, 0.75])

    def test_float_backend(self):
        s = make_space(["a", "b"], [0.25, 0.75], backend=scalar.FLOAT)
        assert s.tol == scalar.DEFAULT_TOL
        assert s.weight("b") == 0.75


class TestMakeMap:
    def test_pairing(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        m = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        assert m(3) == 1

    def test_identity(self):
        s = make_space(["a", "b"], [F(1, 4), F(3, 4)])
        m = identity_map(s)
        assert m.assign == {"a": "a", "b": "b"}

    @settings(max_examples=40, deadline=None)
    @given(seeded_rng(), st.sampled_from(scalar.BACKENDS))
    def test_identity_equals_the_validated_map(self, rng, backend):
        s = rand_space(rng, min_atoms=1, backend=backend)
        m = identity_map(s)
        ref = MeasurePreservingMap(s, s, {a: a for a in s.atoms})
        assert m == ref and hash(m) == hash(ref)
        assert list(m.assign.items()) == list(ref.assign.items())
        with pytest.raises(TypeError):
            m.assign[s.atoms[0]] = s.atoms[0]

    def test_three_to_one_collapse(self):
        # pushforward: 3 * 1/4 = 3/4 on the heavy atom
        u4 = uniform_space(4)
        skew = make_space(["x", "y"], [F(1, 4), F(3, 4)])
        m = make_map(u4, skew, {0: "x", 1: "y", 2: "y", 3: "y"})
        assert m(0) == "x"

    def test_not_measure_preserving(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        with pytest.raises(errors.NotMeasurePreserving) as err:
            make_map(u4, u2, {0: 0, 1: 0, 2: 0, 3: 1})
        assert "0" in str(err.value)  # names the witnessing target atom

    def test_partial_assignment(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        with pytest.raises(errors.DomainMismatch):
            make_map(u4, u2, {0: 0, 1: 0, 2: 1})

    def test_mixed_backend(self):
        exact = uniform_space(2)
        floaty = uniform_space(2, backend=scalar.FLOAT)
        with pytest.raises(errors.BackendMismatch):
            make_map(exact, floaty, {0: 0, 1: 1})

    @pytest.mark.parametrize("image", ["zzz", ["x"], ("b", ["x"])])
    def test_image_outside_target_rejected(self, image):
        s = make_space(["a", "b"], [F(1, 2), F(1, 2)])
        with pytest.raises(errors.DomainMismatch, match="not in target space"):
            MeasurePreservingMap(s, s, {"a": image, "b": "b"})


class TestCompose:
    def test_identity_law(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        f = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        assert compose(f, identity_map(u2)) == f
        assert compose(identity_map(u4), f) == f

    def test_pairing_then_swap(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        swap = make_map(u2, u2, {0: 1, 1: 0})
        assert compose(pair, swap).assign == {0: 1, 1: 1, 2: 0, 3: 0}

    def test_middle_mismatch(self):
        u4, u2, u3 = uniform_space(4), uniform_space(2), uniform_space(3)
        f = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        g = make_map(u3, u3, {0: 0, 1: 1, 2: 2})
        with pytest.raises(errors.DomainMismatch):
            compose(f, g)

    @settings(max_examples=40, deadline=None)
    @given(seeded_rng())
    def test_composites_stay_measure_preserving(self, rng):
        space = rand_space(rng)
        f = rand_quotient(rng, space)
        g = rand_quotient(rng, f.dst)
        h = compose(f, g)
        assert h.src == space and h.dst == g.dst

    @settings(max_examples=60, deadline=None)
    @given(seeded_rng())
    def test_exact_composite_equals_validated_map(self, rng):
        # exact composites skip the pushforward re-check; building the same
        # assignment through the validating constructor must agree
        space = rand_space(rng)
        f = rand_parallel_map(rng, rand_quotient(rng, space))
        g = rand_parallel_map(rng, rand_quotient(rng, f.dst))
        h = compose(f, g)
        composite = {a: g.assign[f.assign[a]] for a in space.atoms}
        checked = MeasurePreservingMap(space, g.dst, composite)
        assert h == checked and hash(h) == hash(checked)
        assert tuple(h.assign.items()) == tuple(checked.assign.items())
        with pytest.raises(TypeError):
            h.assign[space.atoms[0]] = None

    def test_float_drift_past_tol_is_rejected(self):
        # each map is within tol, their composite is not: drift adds up
        tol, drift = 1e-9, 0.8e-9
        a = make_space([0, 1], [0.5 + drift, 0.5 - drift], backend=scalar.FLOAT, tol=tol)
        b = make_space([0, 1], [0.5, 0.5], backend=scalar.FLOAT, tol=tol)
        c = make_space([0, 1], [0.5 - drift, 0.5 + drift], backend=scalar.FLOAT, tol=tol)
        f, g = make_map(a, b, {0: 0, 1: 1}), make_map(b, c, {0: 0, 1: 1})
        with pytest.raises(errors.NotMeasurePreserving):
            compose(f, g)


class TestAsEqual:
    def test_reflexive(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        f = make_map(u4, u2, {0: 0, 1: 1, 2: 0, 3: 1})
        assert as_equal(f, f)

    def test_null_atom_difference_ignored(self):
        src = make_space(["a", "b", "n"], [F(1, 2), F(1, 2), 0])
        dst = make_space(["x", "y"], [F(1, 2), F(1, 2)])
        f = make_map(src, dst, {"a": "x", "b": "y", "n": "x"})
        g = make_map(src, dst, {"a": "x", "b": "y", "n": "y"})
        assert as_equal(f, g)
        assert f != g

    def test_swapped_pairing_differs(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        swapped = make_map(u4, u2, {0: 1, 1: 1, 2: 0, 3: 0})
        assert not as_equal(pair, swapped)


class TestMapDistance:
    def test_equal_maps(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        f = make_map(u4, u2, {0: 0, 1: 1, 2: 0, 3: 1})
        assert map_distance(f, f) == 0

    def test_mod_versus_div(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        f = make_map(u4, u2, {w: w % 2 for w in range(4)})
        g = make_map(u4, u2, {w: w // 2 for w in range(4)})
        assert map_distance(f, g) == F(1, 2)
        assert map_distance_literal(f, g) == F(1, 2)

    def test_scale_multiplier(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        f = make_map(u4, u2, {w: w % 2 for w in range(4)})
        g = make_map(u4, u2, {w: w // 2 for w in range(4)})
        assert map_distance(f, g, scale=F(3, 2)) == F(3, 4)

    def test_codomain_cap(self):
        n = 21
        big = uniform_space(n)
        f = identity_map(big)
        with pytest.raises(errors.CodomainTooLarge):
            map_distance(f, f)

    @settings(max_examples=60, deadline=None)
    @given(seeded_rng())
    def test_matches_literal_enumeration(self, rng):
        space = rand_space(rng, max_atoms=6)
        f = rand_quotient(rng, space, max_classes=4)
        g = rand_parallel_map(rng, f)
        assert map_distance(f, g) == map_distance_literal(f, g)

    @settings(max_examples=60, deadline=None)
    @given(seeded_rng())
    def test_bounded_by_pointwise_difference_mass(self, rng):
        space = rand_space(rng, max_atoms=6)
        f = rand_quotient(rng, space, max_classes=4)
        g = rand_parallel_map(rng, f)
        diff_mass = sum(
            (space.weight(a) for a in space.atoms if f.assign[a] != g.assign[a]),
            space.zero,
        )
        assert map_distance(f, g) <= diff_mass

    @settings(max_examples=40, deadline=None)
    @given(seeded_rng())
    def test_pseudometric_axioms(self, rng):
        space = rand_space(rng, max_atoms=6)
        f = rand_quotient(rng, space, max_classes=4)
        g = rand_parallel_map(rng, f)
        h = rand_parallel_map(rng, f)
        assert map_distance(f, f) == 0
        assert map_distance(f, g) == map_distance(g, f)
        assert map_distance(f, h) <= map_distance(f, g) + map_distance(g, h)

    @settings(max_examples=40, deadline=None)
    @given(seeded_rng())
    def test_composition_lipschitz(self, rng):
        space = rand_space(rng, max_atoms=6)
        f1 = rand_quotient(rng, space, max_classes=4)
        f2 = rand_parallel_map(rng, f1)
        g1 = rand_quotient(rng, f1.dst, max_classes=4)
        g2 = rand_parallel_map(rng, g1)
        lhs = map_distance(compose(f1, g1), compose(f2, g2))
        assert lhs <= map_distance(g1, g2) + map_distance(f1, f2)

    def test_matches_literal_enumeration_on_medium_codomains(self):
        rng = random.Random(5)
        for _ in range(30):
            k = rng.randint(5, 9)
            src, dst = uniform_space(3 * k), uniform_space(k)
            f = make_map(src, dst, {a: a % k for a in src.atoms})
            perm = list(src.atoms)
            rng.shuffle(perm)
            g = make_map(src, dst, {a: perm[a] % k for a in src.atoms})
            assert map_distance(f, g) == map_distance_literal(f, g)

    @settings(max_examples=60, deadline=None)
    @given(seeded_rng(), st.sampled_from(scalar.BACKENDS))
    def test_components_match_literal_enumeration(self, rng, backend):
        # a conflict graph of several components (odd cycles, even cycles,
        # paths) plus atoms outside it: each edge (u, v) is a pair of source
        # atoms swapped between f and g, so both maps push the same weights
        exact = backend == scalar.EXACT
        edges, start = [], 0
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(2, 5)
            ring = list(range(start, start + size))
            edges += zip(ring, ring[1:] + ring[:1] if rng.random() < 0.6 else ring[1:])
            start += size
        isolated = rng.randint(0, 2)
        masses = [rng.randint(1, 9) for _ in edges] + [rng.randint(0, 9) for _ in range(isolated)]
        total = 2 * sum(masses[: len(edges)]) + sum(masses[len(edges) :])
        weight = (lambda m: F(m, total)) if exact else (lambda m: m / total)
        src_w, f_assign, g_assign, dst_w = [], {}, {}, [0] * (start + isolated)
        for (u, v), m in zip(edges, masses):
            for a, b in ((u, v), (v, u)):
                f_assign[len(src_w)], g_assign[len(src_w)] = a, b
                src_w.append(m)
                dst_w[a] += m
        for i, m in enumerate(masses[len(edges) :]):
            f_assign[len(src_w)] = g_assign[len(src_w)] = start + i
            src_w.append(m)
            dst_w[start + i] += m
        src = make_space(range(len(src_w)), [weight(m) for m in src_w], backend=backend)
        dst = make_space(range(len(dst_w)), [weight(m) for m in dst_w], backend=backend)
        f, g = make_map(src, dst, f_assign), make_map(src, dst, g_assign)
        got, want = map_distance(f, g), map_distance_literal(f, g)
        assert got == want if exact else abs(got - want) <= 1e-12

    def test_fast_at_the_codomain_cap(self):
        from time import perf_counter

        rng = random.Random(8)
        src, dst = uniform_space(60), uniform_space(20)
        f = make_map(src, dst, {a: a % 20 for a in src.atoms})
        perm = list(src.atoms)
        rng.shuffle(perm)
        g = make_map(src, dst, {a: perm[a] % 20 for a in src.atoms})
        t0 = perf_counter()
        d = map_distance(f, g)
        assert 0 < d <= 1
        assert perf_counter() - t0 < 5.0

    @settings(max_examples=60, deadline=None)
    @given(seeded_rng())
    def test_zero_distance_iff_as_equal(self, rng):
        space = rand_space(rng, max_atoms=6)
        f = rand_quotient(rng, space, max_classes=4)
        g = rand_parallel_map(rng, f)
        assert (map_distance(f, g) == 0) == as_equal(f, g)


# -- positional maps against copies of the old label-keyed ones ---------------------


def _built(build, *args):
    """What a construction gives: its error by type and text, or the object."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _typed(pairs):
    return [(type(a), a, type(b), b) for a, b in pairs]


def _bits(x):
    """A float by its exact bits, anything else by type and value."""
    return x.hex() if type(x) is float else (type(x), x)


def _scaled_bits(x):
    """A value's or space's scaled form, each entry by `_bits`."""
    den, nums = x._scaled
    return den, type(nums), [_bits(n) for n in nums]


def _same_map(new, old):
    """The same table, in order and by type, and the same repr."""
    assert _typed(new.assign.items()) == _typed(old.assign.items())
    assert repr(new) == repr(old)
    assert new.assign == dict(old.assign)


def _same_kernels(new, old, case):
    f, g, mu = case.f, case.g, case.mu
    assert _scaled_bits(cond_exp(f, new)) == _scaled_bits(oracles.old_cond_exp(f, old))
    lifted = pullback(cond_exp(g, new), new)
    assert _scaled_bits(lifted) == _scaled_bits(oracles.old_pullback(oracles.old_cond_exp(g, old), old))
    assert _scaled_bits(pushforward(mu, new)) == _scaled_bits(oracles.old_pushforward(mu, old))


_FAULTS = ["missing", "unknown", "unhashable", "unhashable-inside", "outside", "moved"]


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_positional_maps_match_the_old_label_maps(backend, data):
    """A map built from an assignment, with up to three faults, raises or
    stores what the old label-keyed map did; identities and composites equal
    and hash as validated maps do; the kernels read them to the same bits."""
    draw, case = data.draw, data.draw(cases(backend))
    src, dst = case.map.src, case.map.dst
    order = draw(st.permutations(src.atoms))
    assign = {a: case.map.assign[a] for a in order}  # any key order
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=3)):
        a = draw(st.sampled_from(src.atoms))
        if fault == "missing":
            assign.pop(a, None)
        elif fault == "unknown":
            assign[draw(st.sampled_from(["zz", -1, (1,)]))] = dst.atoms[0]
        elif fault == "unhashable":
            assign[a] = [0]
        elif fault == "unhashable-inside":
            assign[a] = (0, [1])
        elif fault == "outside":
            assign[a] = draw(st.sampled_from(["nowhere", dst.size]))
        else:  # another target atom: mass is preserved only by chance
            assign[a] = draw(st.sampled_from(dst.atoms))
    new = _built(MeasurePreservingMap, src, dst, assign)
    old = _built(oracles.OldMap, src, dst, assign)
    if isinstance(old, tuple):
        assert new == old
        return
    _same_map(new, old)
    _same_kernels(new, old, case)
    # equal maps from every route are equal and hash alike
    for space in (src, dst):
        ident = identity_map(space)
        _same_map(ident, oracles.identity_map_literal(space))
        again = MeasurePreservingMap(space, space, {a: a for a in space.atoms})
        assert ident == again and again == ident and hash(ident) == hash(again)
    for h in (compose(identity_map(src), new), compose(new, identity_map(dst))):
        assert h == new and new == h and hash(h) == hash(new)
        _same_map(h, old)
    rng = random.Random(draw(st.integers(0, 2**16)))
    step = rand_quotient(rng, dst)
    old_step = oracles.OldMap(dst, step.dst, dict(step.assign))
    both = compose(new, step)
    old_both = oracles.compose_literal(old, old_step)
    _same_map(both, old_both)
    _same_kernels(both, old_both, case)
    validated = MeasurePreservingMap(src, step.dst, dict(old_both.assign))
    assert both == validated and hash(both) == hash(validated)
    other = rand_parallel_map(rng, new)
    old_other = oracles.OldMap(src, dst, dict(other.assign))
    assert (new == other) is (old == old_other)
    if new == other:
        assert hash(new) == hash(other)


_LABELS = st.one_of(st.integers(-3, 9), st.text(max_size=2), st.booleans())


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=60, deadline=None)
@given(atoms=st.one_of(st.integers(0, 70), st.lists(_LABELS, max_size=12)))
def test_uniform_space_matches_the_old_route(backend, atoms):
    """The same space, or the same error, as the per-atom route gave:
    duplicates (True is 1), no atoms, and every stored field."""
    new = _built(uniform_space, atoms, backend)
    old = _built(oracles.uniform_space_literal, atoms, backend)
    if isinstance(old, tuple):
        assert new == old
        return
    assert new == old and hash(new) == hash(old) and repr(new) == repr(old)
    assert _scaled_bits(new) == _scaled_bits(old)
    for name in ("atoms", "backend", "tol", "_nulls", "_index"):
        assert getattr(new, name) == getattr(old, name), name
    assert [_bits(w) for w in new.weights] == [_bits(w) for w in old.weights]
    assert type(new.weights) is tuple


#: labels a read may ask a space over range(n) about: its own, equal ones of
#: other types (True is 1), strangers and an unhashable label
_PROBES = (0, 1, 2, 69, 70, 1023, 1024, -1, True, False, 1.0, 0.5, "0", None, (0,), [1])

_READS = {
    "atoms": lambda s: (type(s.atoms), s.atoms),
    "size": lambda s: s.size,
    "weights": lambda s: [_bits(w) for w in s.weights],
    "index": lambda s: [_built(s.index, a) for a in _PROBES],
    "weight": lambda s: [_bits(_built(s.weight, a)) for a in _PROBES],
    "in": lambda s: [_built(s.__contains__, a) for a in _PROBES],
    "hash": hash,
    "repr": repr,
    "json": lambda s: json.dumps(jsonio.space_to_obj(s)),
    "form": _scaled_bits,
}


def _positional_route(route, arg, backend):
    """(a builder of the space over range(n), a builder of its twin from a
    tuple of labels) for `uniform_space(n)`, `dyadic_space(t)` (exact only)
    or a `rand_quotient` target drawn from the seed `arg`."""
    if route == "uniform":
        return lambda: uniform_space(arg, backend), lambda: oracles.uniform_space_literal(arg, backend)
    if route == "dyadic":
        return lambda: dyadic_space(arg), lambda: oracles.uniform_space_literal(1 << arg)

    def target():
        rng = random.Random(arg)
        return rand_quotient(rng, rand_space(rng, 1, 8, backend)).dst

    def twin():
        new = target()
        den, nums = new._scaled
        weights = [scalar.divider(backend)(n, den) for n in nums]
        return FiniteProbSpace(tuple(range(len(nums))), weights, backend, new.tol or None)

    return target, twin


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=80, deadline=None)
@given(
    route=st.one_of(
        st.tuples(st.just("uniform"), st.integers(0, 70)),
        st.tuples(st.just("dyadic"), st.integers(0, 10)),
        st.tuples(st.just("quotient"), st.integers(0, 2**32 - 1)),
    ),
    order=st.permutations(sorted(_READS)),
)
def test_positional_spaces_read_as_their_tuple_twins(backend, route, order):
    """A space over range(n) holds no atom tuple and no index, and every
    public read, in any order from a fresh space, gives what the space built
    from a tuple of the same labels gives: atoms, size, weights, index,
    weight and `in` for its own labels, equal ones and strangers, hash, repr,
    JSON bytes and scaled form; the two are equal both ways, with one hash."""
    new, old = _positional_route(*route, backend)
    twin = _built(old)
    if isinstance(twin, tuple):  # no atoms
        assert _built(new) == twin
        return
    space = new()
    assert space._atoms is None and space._positions is None
    for name in order:
        assert _READS[name](space) == _READS[name](twin), name
    for a, b in ((new(), twin), (twin, new()), (new(), new())):
        assert a == b and b == a and not a != b and hash(a) == hash(b)
    assert new() != uniform_space(space.size + 1, backend)
    others = [("x", a) for a in range(space.size)]  # the same weights on other labels
    assert new() != FiniteProbSpace(others, list(twin.weights), backend, twin.tol or None)


def test_an_image_is_read_back_as_the_target_atom():
    """`assign` reads image positions back through the target's labels, so
    an image given as an equal label of another type (True for 1) reads as
    the target's own label; equality and hash see no difference."""
    u2 = uniform_space(2)
    h = MeasurePreservingMap(u2, u2, {0: False, 1: True})
    assert _typed(h.assign.items()) == _typed([(0, 0), (1, 1)])
    assert h == identity_map(u2) and hash(h) == hash(identity_map(u2))
    assert h(True) == 1 and repr(h) == "MeasurePreservingMap({0: 0, 1: 1})"


@pytest.mark.parametrize("assign", [5, None, [1, 2], "ab"])
def test_a_non_mapping_assignment_is_a_domain_mismatch(assign):
    u2 = uniform_space(2)
    with pytest.raises(errors.DomainMismatch, match="assignment must be a mapping, not "):
        make_map(u2, u2, assign)


# -- spaces built from a user's numbers straight to the scaled form --------------


class _Frac(F):
    pass


def _written(rng, q, backend):
    """The weight q as a user may write it."""
    num, den = q.numerator, q.denominator
    forms = [q, _Frac(q), str(q), "%d/%d" % (3 * num, 3 * den), " %d / %d " % (num, den)]
    if den == 1:
        forms += [num, "+%d" % num]
    if backend == scalar.FLOAT:
        forms.append(float(q))
    return rng.choice(forms)


_FAULTS = [F(-1, 4), "-1/4", "1/-4", True, None, "1/0", "x", 0.5, "1/2/3", [1]]


def _user_weights(rng, backend):
    """Weights summing to 1 in mixed spellings; a fault or a wrong sum at times."""
    n = rng.randint(1, 10)
    raw = [rng.randint(0, 5) for _ in range(n)]
    raw[0] += not any(raw)
    qs = [F(r, sum(raw)) for r in raw]
    if rng.random() < 0.15:
        qs[rng.randrange(n)] += F(1, 7)
    weights = [_written(rng, q, backend) for q in qs]
    if rng.random() < 0.15:
        weights[rng.randrange(n)] = rng.choice(_FAULTS)
    return weights


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_spaces_match_the_old_space(backend, seed):
    """The same error, or a space whose first `weights` read gives what the
    old space stored (a given Fraction's type and value, a float's bits),
    with the old `repr`, `weight`, JSON bytes and equality, and hashes that
    agree wherever spaces are equal."""
    rng = random.Random(seed)
    weights = _user_weights(rng, backend)
    atoms = list("abcdefghij"[: len(weights)])
    new = _built(FiniteProbSpace, atoms, weights, backend)
    old = _built(oracles.OldSpace, atoms, weights, backend)
    if isinstance(old, tuple):
        assert new == old
        return
    assert new._weights is None or backend == scalar.FLOAT
    assert [_bits(w) for w in new.weights] == [_bits(w) for w in old.weights]
    assert type(new.weights) is tuple
    for w, given_w in zip(new.weights, weights):
        if isinstance(given_w, F) and backend == scalar.EXACT:
            assert type(w) is F and w == given_w
    for name in ("atoms", "backend", "tol", "_nulls", "_index"):
        assert getattr(new, name) == getattr(old, name), name
    assert _scaled_bits(new) == _scaled_bits(old)
    assert repr(new) == repr(old)
    assert [_bits(new.weight(a)) for a in atoms] == [_bits(old.weight(a)) for a in atoms]
    assert json.dumps(jsonio.space_to_obj(new)) == json.dumps(oracles.old_space_to_obj(old))
    # the same weights spelled anew, or another draw
    again = [_written(rng, F(w), backend) for w in old.weights] if rng.random() < 0.5 else None
    again = again or _user_weights(rng, backend)
    new2 = _built(FiniteProbSpace, atoms[: len(again)], again, backend)
    old2 = _built(oracles.OldSpace, atoms[: len(again)], again, backend)
    if not isinstance(old2, tuple):
        assert (new == new2) is (old == old2)
        assert hash(new) == hash(new2) or new != new2


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@pytest.mark.parametrize(
    "atoms, weights, message",
    [
        ([0], "1", "weights must be a list, not a string"),
        ([0, 1], "ab", "weights must be a list, not a string"),
        ([0], 5, "weights must be a list, not 5"),
        ([0], None, "weights must be a list, not None"),
        ([0, 1], [], "2 atoms but 0 weights"),
        ([0], ["1/2", "1/2"], "1 atoms but 2 weights"),
    ],
)
def test_weights_that_are_not_a_list_are_a_catprob_error(backend, atoms, weights, message):
    for build in (make_space, FiniteProbSpace):
        with pytest.raises(errors.WeightSumMismatch) as caught:
            build(atoms, weights, backend=backend)
        assert str(caught.value) == message


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda b: make_space(None, ["1"], backend=b), "'NoneType' object is not iterable"),
        (lambda b: FiniteProbSpace(5, ["1"], backend=b), "'int' object is not iterable"),
        (lambda b: make_space([[1]], ["1"], backend=b), "unhashable type: 'list'"),
        (lambda b: make_space([0, {}], ["1/2", "1/2"], backend=b), "unhashable type: 'dict'"),
        (lambda b: uniform_space(None, b), "'NoneType' object is not iterable"),
        (lambda b: uniform_space(1.5, b), "'float' object is not iterable"),
        (lambda b: uniform_space([[0], [1]], b), "unhashable type: 'list'"),
    ],
)
def test_atoms_that_are_not_hashable_labels_are_a_catprob_error(backend, build, message):
    """Atoms that are not an iterable, or hold an unhashable label, raise
    InvalidAtoms with the words of the TypeError they raised before."""
    with pytest.raises(errors.InvalidAtoms) as caught:
        build(backend)
    assert str(caught.value) == message


def test_weights_in_any_iterable_are_still_taken():
    for weights in (("1/2", F(1, 2)), (w for w in ["1/2", "1/2"]), range(1, 2)):
        atoms = [0] if isinstance(weights, range) else [0, 1]
        assert make_space(atoms, weights) == make_space(atoms, [F(1, len(atoms))] * len(atoms))


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_call_reads_one_image_and_builds_no_assign(backend, data):
    """`f(a)` is `f.assign[a]`, for every source label and by type, without
    building `assign`; an unknown label is a KeyError naming it."""
    s = data.draw(cases(backend)).map
    identity = identity_map(s.dst)
    fresh = MeasurePreservingMap(s.src, s.dst, dict(zip(s.src.atoms, map(s, s.src.atoms))))
    for f in (s, identity, compose(s, identity), fresh):
        calls = [f(a) for a in f.src.atoms]
        assert f._assign is None
        with pytest.raises(KeyError) as caught:
            f("nowhere")
        assert caught.value.args == ("nowhere",) and f._assign is None
        assert _typed(zip(f.src.atoms, calls)) == _typed(f.assign.items())
    u2 = uniform_space(2)
    h = MeasurePreservingMap(u2, u2, {0: False, 1: True})
    assert [(type(h(a)), h(a)) for a in (0, 1)] == [(int, 0), (int, 1)]


_TOLS = [0, 1, 1e-9, 0.03125, 0.05, F(1, 32), F(0)]


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pushforward_check_matches_the_old_check(backend, data):
    """The one-pass check passes where the old per-atom check passed, and
    otherwise raises its exception type with its message, on weights in
    sixteenths and float tolerances given as an int, a float or a Fraction;
    the target's `weights` are not read."""
    n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
    cuts = sorted(data.draw(st.lists(st.integers(0, 16), min_size=n - 1, max_size=n - 1)))
    qs = [F(b - a, 16) for a, b in zip([0, *cuts], [*cuts, 16])]
    images = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    pushed = [sum((q for q, b in zip(qs, images) if b == c), F(0)) for c in range(m)]
    shift = data.draw(st.sampled_from([0, F(1, 64), F(1, 32), F(1, 16), F(1, 8)]))
    giver, taker = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    if pushed[giver] >= shift:
        pushed[giver] -= shift
        pushed[taker] += shift
    tol = data.draw(st.sampled_from(_TOLS)) if backend == scalar.FLOAT else None
    spell = float if backend == scalar.FLOAT else str
    src = make_space(range(n), [spell(q) for q in qs], backend=backend, tol=tol)
    dst = make_space(["p%d" % c for c in range(m)], [spell(q) for q in pushed], backend, tol)
    outcomes = []
    for check in (finprob._check_pushforward, oracles.check_pushforward_literal):
        try:
            check(src, dst, images)
        except errors.CatprobError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(None)
        if check is finprob._check_pushforward:
            assert dst._weights is None or backend == scalar.FLOAT
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "src_weights, dst_weights, tol, message",
    [
        ([3.0], [0.0, 1.0], 2, "atom 'p0' receives mass 3.0, target weight is 0.0"),
        ([3.0], [1.0, 0.0], 2, None),
        ([2.5], [0.5, 0.5], 2, None),
        ([2.5], [0.5, 0.5], 1.9, "atom 'p0' receives mass 2.5, target weight is 0.5"),
    ],
)
def test_an_int_tol_bounds_the_gap_by_value(src_weights, dst_weights, tol, message):
    """A float check with an int tol compares the largest gap by value: with
    weights summing to 1 within a wide tol, a gap can exceed it."""
    src = make_space(range(len(src_weights)), src_weights, scalar.FLOAT, tol)
    dst = make_space(["p0", "p1"], dst_weights, scalar.FLOAT, tol)
    for check in (finprob._check_pushforward, oracles.check_pushforward_literal):
        try:
            check(src, dst, (0,))
        except errors.NotMeasurePreserving as exc:
            assert str(exc) == message
        else:
            assert message is None


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_valid_map_is_decided_in_one_pass(backend, data):
    """Checking a valid map walks no atom: `scalar.eq` is not called."""
    s = data.draw(cases(backend)).map
    u4, u2 = uniform_space(4, backend), uniform_space(2, backend)
    skew = make_space("xy", ["1/4", "3/4"], backend)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scalar, "eq", lambda *args: pytest.fail("an atom was walked"))
        MeasurePreservingMap(s.src, s.dst, s.assign)
        MeasurePreservingMap(u4, skew, {0: "x", 1: "y", 2: "y", 3: "y"})  # sden // dden == 1
        MeasurePreservingMap(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})  # 2 on the exact backend
