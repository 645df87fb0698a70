"""The probability kernels against literal per-atom loops, and their Fraction counts.

On the exact backend every kernel must equal its oracle in `oracles.py`
exactly; on the float backend it must match the same loop to the bit.  The
count pins check that the exact kernels work on ints: at most one Fraction
per output entry (one for a scalar), none for a valid map's check, for
`as_equal` or for `max_value`, and no Fraction comparison at all in a kernel
or in building a space, random variable or measure from valid input.  The
value types keep their tables in scaled form, whichever path built them.
"""
import contextlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from catprob import errors, jsonio, sampling, scalar
from catprob.diagram import DyadicGround, make_dyadic
from catprob.finmeas import (
    FiniteMeasure,
    _density_bound,
    bound_check,
    pushforward,
    rho,
    rn_derivative,
    truncate_measure,
    tv_distance,
)
from catprob.finprob import FiniteProbSpace, MeasurePreservingMap, as_equal
from catprob.finrv import (
    FiniteRandomVariable,
    _cross_moment,
    _mean_square_diff,
    cond_exp,
    expectation,
    l1_distance,
    max_value,
    pullback,
    second_moment,
    truncate_rv,
)


@dataclass
class Case:
    space: FiniteProbSpace
    map: MeasurePreservingMap
    f: FiniteRandomVariable
    g: FiniteRandomVariable
    mu: FiniteMeasure
    nu: FiniteMeasure
    r: object


_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16)


def _fraction(rng, top):
    """A rational in [0, top] with a mixed denominator; zero one time in four."""
    if rng.random() < 0.25:
        return F(0)
    den = rng.choice(_DENOMINATORS)
    return F(rng.randint(0, top * den), den)


@st.composite
def cases(draw, backend):
    """A 1-64 atom space with null atoms and mixed denominators, a map onto a
    space with possibly empty fibers, two random variables and two measures."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    num = (lambda q: q) if backend == scalar.EXACT else float
    n = rng.randint(1, 64)
    raw = [_fraction(rng, 3) for _ in range(n)]
    if not any(raw):
        raw[0] = F(1)
    total = sum(raw)
    weights = [num(q / total) for q in raw]
    space = FiniteProbSpace(range(n), weights, backend=backend)
    k = rng.randint(1, min(n, 8) + 1)
    assign = {a: rng.randrange(k) for a in range(n)}
    pushed = [space.zero] * k
    for a, w in enumerate(weights):
        pushed[assign[a]] += w
    s = MeasurePreservingMap(space, FiniteProbSpace(range(k), pushed, backend=backend), assign)

    def rv():
        return FiniteRandomVariable(space, [num(_fraction(rng, 4)) for _ in range(n)])

    def measure():
        return FiniteMeasure(space, [w * num(_fraction(rng, 3)) for w in weights])

    r = num(F(rng.randint(1, 32), 8))
    return Case(space, s, rv(), rv(), measure(), measure(), r)


#: kernel name -> (library call, literal loop) on a Case
KERNELS = {
    "cond_exp": (
        lambda c: cond_exp(c.f, c.map).values, lambda c: oracles.cond_exp_literal(c.f, c.map)
    ),
    "pushforward": (
        lambda c: pushforward(c.mu, c.map).mass,
        lambda c: oracles.pushforward_literal(c.mu.mass, c.map),
    ),
    "l1_distance": (lambda c: l1_distance(c.f, c.g), lambda c: oracles.l1_literal(c.f, c.g)),
    "tv_distance": (lambda c: tv_distance(c.mu, c.nu), lambda c: oracles.tv_literal(c.mu, c.nu)),
    "expectation": (lambda c: expectation(c.f), lambda c: oracles.expectation_literal(c.f)),
    "second_moment": (
        lambda c: second_moment(c.f),
        lambda c: oracles.cross_moment_literal(c.space, c.f.values, c.f.values),
    ),
    "cross_moment": (
        lambda c: _cross_moment(c.f, c.g),
        lambda c: oracles.cross_moment_literal(c.space, c.f.values, c.g.values),
    ),
    "mean_square_diff": (
        lambda c: _mean_square_diff(c.f, c.g),
        lambda c: oracles.mean_square_diff_literal(c.space, c.f.values, c.g.values),
    ),
    "rho": (lambda c: rho(c.f).mass, lambda c: oracles.rho_literal(c.f)),
    "rn_derivative": (lambda c: rn_derivative(c.mu).values, lambda c: oracles.rn_literal(c.mu)),
    "bound_check": (
        lambda c: [bound_check(c.mu, r) for r in (c.r, 0)],
        lambda c: [oracles.bound_check_literal(c.mu, r) for r in (c.r, 0)],
    ),
    "density_bound": (
        lambda c: _density_bound(c.mu), lambda c: oracles.density_bound_literal(c.mu)
    ),
    "max_value": (lambda c: max_value(c.f), lambda c: oracles.max_value_literal(c.f)),
    "measure_total": (lambda c: c.mu.total(), lambda c: oracles.total_mass_literal(c.mu)),
}


def _bits(x):
    """A float by its exact bits, anything else by type and value."""
    return x.hex() if type(x) is float else (type(x), x)


def _same(got, want):
    if isinstance(want, list):
        return [_bits(x) for x in got] == [_bits(x) for x in want]
    return _bits(got) == _bits(want)


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernels_match_literal_loops(backend, data):
    case = data.draw(cases(backend))
    for name, (kernel, literal) in KERNELS.items():
        got, want = kernel(case), literal(case)
        assert _same(got, want), (name, got, want)


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pushforward_check_matches_literal_loop(backend, data):
    """A map onto the target with its weights permuted is rejected exactly
    when a literal fiber sum misses, naming the same atom and mass."""
    case = data.draw(cases(backend))
    dst = case.map.dst
    perm = data.draw(st.permutations(range(dst.size)))
    shuffled = FiniteProbSpace(dst.atoms, [dst.weights[i] for i in perm], backend=backend)
    assign = dict(case.map.assign)
    miss = oracles.pushforward_mismatch_literal(case.space, shuffled, assign)
    if miss is None:
        MeasurePreservingMap(case.space, shuffled, assign)
        return
    b, mass = miss
    with pytest.raises(errors.NotMeasurePreserving) as info:
        MeasurePreservingMap(case.space, shuffled, assign)
    assert str(info.value) == "atom %r receives mass %s, target weight is %s" % (
        b, mass, shuffled.weight(b)
    )


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_as_equal_matches_literal_loop(backend, data):
    """On a map against itself and against a random parallel map of it."""
    case = data.draw(cases(backend))
    f = case.map
    g = sampling.rand_parallel_map(random.Random(data.draw(st.integers(0, 2**16))), f)
    for h in (f, g):
        assert as_equal(f, h) is oracles.as_equal_literal(f, h)


@contextlib.contextmanager
def fractions_built():
    """Count every Fraction constructed in the block (arithmetic included)."""
    count = [0]
    saved = F.__dict__["__new__"]
    new = saved.__func__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    F.__new__ = staticmethod(counting_new)
    try:
        yield count
    finally:
        F.__new__ = saved


def test_fraction_counter_sees_arithmetic():
    with fractions_built() as count:
        F(1, 3) + F(1, 6)
    assert count[0] == 3


def _entries(result):
    return 1 if not isinstance(result, (list, tuple)) else len(result)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_kernels_build_one_fraction_per_entry(data):
    case = data.draw(cases(scalar.EXACT))
    for name, (kernel, _) in KERNELS.items():
        with fractions_built() as count:
            result = kernel(case)
        assert count[0] <= _entries(result), (name, count[0])
    s = case.map
    t = sampling.rand_parallel_map(random.Random(data.draw(st.integers(0, 2**16))), s)
    with fractions_built() as count:
        MeasurePreservingMap(s.src, s.dst, s.assign)
        as_equal(s, t)
        max_value(case.f)
    assert count[0] == 0
    with fractions_built() as count:
        case.mu.total()
    assert count[0] == 1


@contextlib.contextmanager
def fractions_compared():
    """Count every ordering comparison (<, <=, >, >=) a Fraction takes part in."""
    count = [0]
    saved = F.__dict__["_richcmp"]

    def counting_richcmp(self, other, op):
        count[0] += 1
        return saved(self, other, op)

    F._richcmp = counting_richcmp
    try:
        yield count
    finally:
        F._richcmp = saved


def test_comparison_counter_sees_both_sides():
    with fractions_compared() as count:
        F(1, 3) < F(1, 2)
        0 <= F(1, 2)
    assert count[0] == 2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_kernels_and_constructors_compare_no_fractions(data):
    case = data.draw(cases(scalar.EXACT))
    for name, (kernel, _) in KERNELS.items():
        with fractions_compared() as count:
            kernel(case)
        assert count[0] == 0, name
    space = case.space
    raw = [x + 1 for x in case.f.values]  # nonzero on the null atoms too
    with fractions_compared() as count:
        FiniteProbSpace(space.atoms, space.weights)
        FiniteRandomVariable(space, raw)
        FiniteRandomVariable(space, dict(zip(space.atoms, raw)))
        FiniteMeasure(space, case.mu.mass)
    assert count[0] == 0


def test_dyadic_levels_compare_a_constant_number_of_fractions():
    """From depth 7 to 8 the comparisons grow by what one more level costs,
    not with the 2^depth atoms."""
    counts = []
    for depth in (6, 7, 8):
        with fractions_compared() as count:
            make_dyadic(DyadicGround.affine(0, 1), depth)
        counts.append(count[0])
    assert counts[2] - counts[1] == counts[1] - counts[0] <= 16, counts


def _keeps_scaled_form(x, table):
    backend = x.space.backend
    assert x._scaled == scalar.scaled(table, backend), x
    assert type(x._scaled[1]) is tuple
    if backend == scalar.FLOAT:
        assert x._scaled == (1, table) and x._scaled[1] is table


def _roundtrip(x, to_obj, from_obj):
    return from_obj(json.loads(json.dumps(to_obj(x))))


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_value_types_keep_their_scaled_form(backend, data):
    """User-built values, every kernel output and JSON round trips, on spaces
    with null atoms: `_scaled` is `scalar.scaled` of the stored table."""
    case = data.draw(cases(backend))
    space, s = case.space, case.map
    raw = [x + y for x, y in zip(case.f.values, case.g.values)]
    masses = list(case.mu.mass)
    rvs = [
        FiniteRandomVariable(space, raw),
        FiniteRandomVariable(space, dict(zip(space.atoms, raw))),
        cond_exp(case.f, s),
        pullback(cond_exp(case.g, s), s),
        rn_derivative(case.mu),
        truncate_rv(case.f, case.r),
        _roundtrip(case.f, jsonio.rv_to_obj, jsonio.rv_from_obj),
    ]
    measures = [
        FiniteMeasure(space, masses),
        FiniteMeasure(space, dict(zip(space.atoms, masses))),
        pushforward(case.mu, s),
        rho(case.f),
        truncate_measure(case.mu, case.r),
        _roundtrip(case.mu, jsonio.measure_to_obj, jsonio.measure_from_obj),
    ]
    for f in rvs:
        _keeps_scaled_form(f, f.values)
    for mu in measures:
        _keeps_scaled_form(mu, mu.mass)


@pytest.mark.parametrize(
    "ground", [DyadicGround.affine(0, 1), DyadicGround([0, "1/3", 1], [0, 1, "1/2"])]
)
def test_dyadic_levels_keep_their_scaled_form(ground):
    _, m = make_dyadic(ground, 6)
    for level in m.family.values():
        _keeps_scaled_form(level, level.values)


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_both_constructors_word_a_bad_entry_alike(backend, data):
    """A negative entry, or mass on a null atom, raises the same error through
    `__init__` and through `_from_scaled`."""
    case = data.draw(cases(backend))
    space = case.space
    i = data.draw(st.integers(0, space.size - 1))
    values, masses = list(case.f.values), list(case.mu.mass)
    values[i] = masses[i] = -case.r
    faults = [
        (FiniteRandomVariable, values, i, errors.NegativeValue, "value at atom %r is %s < 0"),
        (FiniteMeasure, masses, i, errors.NegativeValue, "mass at atom %r is %s < 0"),
    ]
    if 0 in space._scaled[1]:
        j = space._scaled[1].index(0)
        masses = list(case.mu.mass)
        masses[j] = case.r
        faults.append(
            (FiniteMeasure, masses, j, errors.NotAbsolutelyContinuous,
             "atom %r has weight 0 but mass %s")
        )
    for cls, table, k, error, message in faults:
        want = message % (space.atoms[k], table[k])
        for build in (cls, lambda sp, t: cls._from_scaled(sp, *scalar.scaled(t, backend))):
            with pytest.raises(error) as info:
                build(space, table)
            assert str(info.value) == want
