"""The probability kernels against literal per-atom loops, and their Fraction counts.

On the exact backend every kernel must equal its oracle in `oracles.py`
exactly; on the float backend it must match the same loop to the bit.  The
count pins check that the exact kernels work on ints: no Fraction for a
random variable or measure until its table is read, then at most one per
entry; one for a scalar, and one per row of `cond_exp_residuals`; none for a
valid map's check or for `as_equal`, at most one for `max_value`; and no Fraction comparison at all in a kernel or
in building a space, random variable or measure from valid input.  The
value types keep their tables in scaled form, whichever path built them, and
their one construction route stores or raises what the definition gives.
The metric constructions on exact tables build no Fraction either, until a
distance is read.  The dyadic path's shortcuts (an exact fold by `sum`, a
one-den `ratios`, unit weights left out, step images by sorting) give the
left fold's, the ratios' and the per-atom loops' values to the bit.
"""
import contextlib
import io
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from catprob import cli, errors, jsonio, sampling, scalar
from catprob.diagram import DyadicGround, dyadic_experiment, make_dyadic
from catprob.finmeas import (
    FiniteMeasure,
    _density_bound,
    bound_check,
    pushforward,
    rho,
    rn_derivative,
    tv_distance,
)
from catprob.finprob import FiniteProbSpace, MeasurePreservingMap, as_equal, uniform_space
from catprob.metcat import (
    INF,
    FinPseudometricSpace,
    LipschitzMap,
    coequalizer,
    identity_lipschitz,
    coproduct,
    curry,
    metric_reflection,
    product,
    tensor,
    uncurry,
)
from catprob.finrv import (
    FiniteRandomVariable,
    _cross_moment,
    _mean_square_diff,
    cond_exp,
    cond_exp_residuals,
    expectation,
    l1_distance,
    max_value,
    second_moment,
)
from strategies import cases, every_route


#: kernel name -> (library call, literal loop) on a Case
KERNELS = {
    "cond_exp": (
        lambda c: cond_exp(c.f, c.map), lambda c: oracles.cond_exp_literal(c.f, c.map)
    ),
    "pushforward": (
        lambda c: pushforward(c.mu, c.map),
        lambda c: oracles.pushforward_literal(c.mu.mass, c.map),
    ),
    "l1_distance": (
        lambda c: l1_distance(c.f, c.g), lambda c: oracles.l1_literal(c.space, c.f.values, c.g.values)
    ),
    "tv_distance": (
        lambda c: tv_distance(c.mu, c.nu), lambda c: oracles.tv_literal(c.space, c.mu.mass, c.nu.mass)
    ),
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
    "rho": (lambda c: rho(c.f), lambda c: oracles.rho_literal(c.f)),
    "rn_derivative": (lambda c: rn_derivative(c.mu), lambda c: oracles.rn_literal(c.mu)),
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


def _table(result):
    """A kernel's random variable or measure read as its table; any other result as it is."""
    if isinstance(result, FiniteRandomVariable):
        return result.values
    return result.mass if isinstance(result, FiniteMeasure) else result


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
        got, want = _table(kernel(case)), literal(case)
        assert _same(got, want), (name, got, want)


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cond_exp_residuals_match_the_defining_sums(backend, data):
    """Every row's subset labels, and its residual by type and float bits, as
    the defining sums give them: on a case's map (null atoms, up to 9 target
    atoms) or a copy with labelled atoms, with `result` omitted, the
    conditional expectation, or any table on the target (nonzero rows)."""
    case = data.draw(cases(backend))
    s, f = case.map, case.f
    if data.draw(st.booleans()):
        src = FiniteProbSpace(["a%d" % i for i in range(s.src.size)], s.src.weights, backend=backend)
        dst = FiniteProbSpace([("b", j) for j in range(s.dst.size)], s.dst.weights, backend=backend)
        s = MeasurePreservingMap(src, dst, {src.atoms[i]: dst.atoms[b] for i, b in enumerate(s._images)})
        f = FiniteRandomVariable(src, f.values)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    result = data.draw(st.sampled_from([
        None, cond_exp(f, s), sampling.rand_rv(rng, s.dst, bound=2) if backend == scalar.EXACT
        else FiniteRandomVariable(s.dst, [rng.random() * 2 for _ in range(s.dst.size)]),
    ]))
    got, want = cond_exp_residuals(f, s, result), oracles.cond_exp_residuals_literal(f, s, result)
    assert [combo for combo, _ in got] == [combo for combo, _ in want]
    assert _same([r for _, r in got], [r for _, r in want])


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
    """Count every Fraction constructed in the block (arithmetic included).
    From Python 3.12 arithmetic builds its results through `_from_coprime_ints`,
    not `__new__`, so that is counted too where it exists."""
    count = [0]
    saved = F.__dict__["__new__"]
    new = saved.__func__
    coprime = F.__dict__.get("_from_coprime_ints")

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    def counting_coprime(cls, *args):
        count[0] += 1
        return coprime.__func__(cls, *args)

    F.__new__ = staticmethod(counting_new)
    if coprime is not None:
        F._from_coprime_ints = classmethod(counting_coprime)
    try:
        yield count
    finally:
        F.__new__ = saved
        if coprime is not None:
            F._from_coprime_ints = coprime


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
        if isinstance(result, (FiniteRandomVariable, FiniteMeasure)):
            assert count[0] == 0, name  # none until the table is read
            with fractions_built() as count:
                result = _table(result)
        assert count[0] <= _entries(result), (name, count[0])
    s = case.map
    t = sampling.rand_parallel_map(random.Random(data.draw(st.integers(0, 2**16))), s)
    with fractions_built() as count:
        MeasurePreservingMap(s.src, s.dst, s.assign)
        as_equal(s, t)
    assert count[0] == 0
    for f in (case.f, cond_exp(case.f, s)):
        with fractions_built() as count:
            max_value(f)
        assert count[0] <= 1
    with fractions_built() as count:
        case.mu.total()
    assert count[0] == 1


@pytest.mark.parametrize("k", [8, 10])
def test_exact_residuals_build_one_fraction_per_row(k):
    """k target atoms of 2 source atoms each, of unequal weight: the 2^k rows
    are folded on ints, and each row's residual is the one Fraction it builds."""
    total = (2 * k) * (2 * k + 1) // 2
    src = FiniteProbSpace(range(2 * k), [F(i + 1, total) for i in range(2 * k)])
    dst = FiniteProbSpace(range(k), [F(4 * j + 3, total) for j in range(k)])
    s = MeasurePreservingMap(src, dst, {i: i // 2 for i in range(2 * k)})
    g = FiniteRandomVariable(src, [F(i, 3) for i in range(2 * k)])
    for result in (None, cond_exp(g, s)):
        with fractions_built() as count:
            rows = cond_exp_residuals(g, s, result)
        assert len(rows) == count[0] == 2 ** k and not any(r for _, r in rows)


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
            _table(kernel(case))
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


def test_uniform_space_scales_its_one_weight_once(monkeypatch):
    """A uniform space builds the same Fractions and coerces the same
    number of scalars, whatever its size: none per atom."""
    coerced = [0]
    coerce = scalar.coerce

    def counting_coerce(value, backend):
        coerced[0] += 1
        return coerce(value, backend)

    monkeypatch.setattr(scalar, "coerce", counting_coerce)
    counts = []
    for n in (2**6, 2**7, 2**8):
        coerced[0] = 0
        with fractions_built() as count:
            uniform_space(n)
        counts.append((count[0], coerced[0]))
    assert counts[0] == counts[1] == counts[2], counts
    assert counts[0][1] == 1, counts


def test_dyadic_levels_build_a_constant_number_of_fractions():
    """Each level builds the same few Fractions (its space, l1 error, bound
    check and residual), none per atom: a level's values stay ints."""
    counts = []
    for depth in (6, 7, 8):
        with fractions_built() as count:
            make_dyadic(DyadicGround.affine(0, 1), depth)
        counts.append(count[0])
    assert counts[2] - counts[1] == counts[1] - counts[0] <= 16, counts
    assert counts[2] < 2**8 // 2, counts


def _keeps_scaled_form(x, table):
    backend = x.space.backend
    assert x._scaled == scalar.scaled(table, backend), x
    assert type(x._scaled[1]) is tuple
    if backend == scalar.FLOAT:
        assert x._scaled == (1, table) and x._scaled[1] is table


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_value_types_keep_their_scaled_form(backend, data):
    """User-built values, every kernel output and JSON round trips, on spaces
    with null atoms: `_scaled` is `scalar.scaled` of the stored table."""
    for x in every_route(data.draw(cases(backend))):
        _keeps_scaled_form(x, _table(x))


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


def _outcome(build, space, entries, measure):
    """A construction's error by type and text, or its table, each entry by
    type and value (a float by its bits); a built table's scaled form must
    be the canonical form of that table."""
    try:
        got = build(space, entries)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, list):  # the oracle's table
        return [_bits(x) for x in got]
    table = _table(got)
    _keeps_scaled_form(got, table)
    return [_bits(x) for x in table]


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_route_builds_what_the_definition_gives(backend, data):
    """`__init__` on a list or a dict, and `_from_scaled` on a kernel's form,
    store what `oracles.atom_table_literal` reads, or raise its first fault:
    with null atoms, a negative entry, mass on a null atom, -0.0, and every
    input type a scalar may have."""
    case = data.draw(cases(backend))
    space, draw = case.space, data.draw
    idx = st.integers(0, space.size - 1)
    nulls = [i for i, w in enumerate(space.weights) if not w]
    for cls, given_ in ((FiniteRandomVariable, case.f.values), (FiniteMeasure, case.mu.mass)):
        measure = cls is FiniteMeasure
        table = list(given_)
        for fault in draw(st.lists(st.sampled_from(["negative", "null", "-0.0", "text"]), max_size=3)):
            i = draw(idx)
            if fault == "negative":
                table[i] = -case.r
            elif fault == "null" and nulls:
                table[draw(st.sampled_from(nulls))] = case.r
            elif fault == "-0.0" and backend == scalar.FLOAT:
                table[i] = -0.0
            elif fault == "text":  # "num/den", or an int, as a user may write it
                q = F(table[i])
                table[i] = "%d/%d" % (q.numerator, q.denominator) if q.denominator > 1 else int(q)
        entries = table
        if draw(st.booleans()):
            table = dict(zip(space.atoms, table))
        want = _outcome(lambda sp, t: oracles.atom_table_literal(sp, t, measure), space, entries, measure)
        assert _outcome(cls, space, table, measure) == want
        den, nums = scalar.scaled([scalar.coerce(v, backend) for v in entries], backend)
        k = draw(st.integers(1, 6))  # a kernel's form need not be in lowest terms
        nums = [n * k for n in nums] if backend == scalar.EXACT else [
            0 if n == 0 and draw(st.booleans()) else n for n in nums  # the int 0 of an empty fiber
        ]
        den *= k if backend == scalar.EXACT else 1
        ratios = [scalar.divider(backend)(n, den) for n in nums]
        want = _outcome(lambda sp, t: oracles.atom_table_literal(sp, t, measure), space, ratios, measure)
        assert _outcome(lambda sp, t: cls._from_scaled(sp, den, list(nums)), space, None, measure) == want


def test_string_tables_build_no_fraction():
    """An exact space and tables built from "num/den" strings, then compared,
    hashed and JSON-encoded, build no Fraction at any size."""
    for n in (8, 16, 32):
        raw = [1 + i % 3 for i in range(n)]
        weights = ["%d/%d" % (2 * r, 2 * sum(raw)) for r in raw]
        values = ["%d/%d" % (i, 1 + i % 5) for i in range(n)]
        with fractions_built() as count:
            space, twin = FiniteProbSpace(range(n), weights), FiniteProbSpace(range(n), weights)
            x, y = FiniteRandomVariable(space, values), FiniteRandomVariable(twin, values)
            mu, nu = FiniteMeasure(space, weights), FiniteMeasure(twin, dict(enumerate(weights)))
            assert space == twin and hash(space) == hash(twin)
            assert x == y and hash(x) == hash(y) and mu == nu and hash(mu) == hash(nu)
            for obj in (jsonio.space_to_obj(space), jsonio.rv_to_obj(x), jsonio.measure_to_obj(mu)):
                json.dumps(obj)
        assert count[0] == 0, n


def test_samplers_build_the_same_fractions_at_every_size():
    """`rand_rv`, `rand_measure` and `rand_quotient` build no Fraction per atom."""
    counts = []
    for n in (8, 16, 32):
        rng = random.Random(n)
        space = sampling.rand_space(rng, n, n)
        with fractions_built() as count:
            sampling.rand_rv(rng, space, bound=F(5, 3))
            sampling.rand_measure(rng, space, bound="5/3")
            sampling.rand_quotient(rng, space)
        counts.append(count[0])
    assert counts[0] == counts[1] == counts[2], counts


def test_a_failing_check_builds_only_its_two_worded_fractions():
    """A map that fails its pushforward check words the failing atom from the
    scaled ints: two Fractions, the mass and the weight it words, at any
    size, and the exact target's `weights` are not built."""
    counts = []
    for n in (8, 16, 32):
        raw = [1 + i % 3 for i in range(n)]
        dst = FiniteProbSpace(range(n), ["%d/%d" % (r, sum(raw)) for r in raw])
        src = uniform_space(n)
        with fractions_built() as count:
            with pytest.raises(errors.NotMeasurePreserving) as caught:
                MeasurePreservingMap(src, dst, {a: a for a in range(n)})
        assert str(caught.value).startswith("atom 0 receives mass 1/%d" % n)
        assert dst._weights is None
        counts.append(count[0])
    assert counts == [2, 2, 2], counts


def test_metric_constructions_build_no_fraction():
    """Exact spaces from ints, "num/den" strings and Fractions, with INF, and
    their product, tensor, coproduct, coequalizer, curry and uncurry,
    reflection, a validated map across dens, `==` and JSON build no Fraction
    at any size; only a one-step gap builds its two distances."""
    for n in (2, 3, 4):
        far = [[abs(i - j) if n - 1 not in (i, j) or i == j else INF for j in range(n)]
               for i in range(n)]
        halves = [["%d/2" % abs(i - j) for j in range(n)] for i in range(n)]
        thirds = [[F(abs(i - j), 3) for j in range(n)] for i in range(n)]
        with fractions_built() as count:
            x, y, z = (FinPseudometricSpace(range(n), t) for t in (far, halves, thirds))
            spaces = [product([x, y]), tensor(x, y), coproduct([x, z]), metric_reflection(y)[0]]
            f = LipschitzMap(x, y, {i: i for i in range(n)})  # a den of 1 into a den of 2
            one = FinPseudometricSpace(["*"], [[0]])
            res = coequalizer(LipschitzMap(one, y, {"*": 0}), LipschitzMap(one, y, {"*": n - 1}))
            h = LipschitzMap(spaces[1], y, {(i, j): j for i in range(n) for j in range(n)})
            back = uncurry(curry(h, x, y).per_point, x, y)
            assert back == h and x == FinPseudometricSpace(range(n), far) and f.dst == y
            for s in spaces + [res.space, z]:
                json.dumps(jsonio.metspace_to_obj(s))
        assert count[0] == 2 * len(res.one_step_gaps), n


@pytest.mark.parametrize("ground", ["identity", "tent", "constant"])
def test_martingale_runs_build_at_most_two_fractions_per_level(ground):
    """A `catprob martingale` run adds at most two Fractions per level (its
    space's weight and its l1 error): tables, bound, checks and report rows
    stay on ints."""
    counts = []
    for depth in (6, 7, 8, 9):
        with contextlib.redirect_stdout(io.StringIO()), fractions_built() as count:
            assert cli.main(["martingale", "--ground", ground, "--depth", str(depth)]) == 0
        counts.append(count[0])
    steps = [b - a for a, b in zip(counts, counts[1:])]
    assert max(steps) <= 2, counts


def test_an_exact_metric_space_and_its_maps_hash_by_value():
    """`hash` of an exact space, with INF and non-integer entries, is the hash
    of its points and distances, and a map between such spaces hashes as an
    equal one does."""
    for n in (2, 3, 4):
        table = [[F(abs(i - j), 7) if n - 1 not in (i, j) or i == j else INF for j in range(n)]
                 for i in range(n)]
        space = FinPseudometricSpace(range(n), table)
        same = LipschitzMap(space, FinPseudometricSpace(range(n), table), {i: i for i in range(n)})
        assert hash(identity_lipschitz(space)) == hash(same)
        assert hash(space) == hash((space.points, space.dist))


# -- the dyadic path's shortcuts against the fold, the ratios and the per-atom loops --

#: floats whose sums a compensated `sum` would round otherwise, and both zeros
_FLOATS = st.sampled_from([-0.0, 0.0, 0.1, 1 / 3, 0.5, 1.0, 2.5, 7.0, 1e-300, 1e16, -1e16])


@pytest.mark.parametrize("backend", [scalar.EXACT, scalar.FLOAT, None])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_total_matches_the_left_fold(backend, data):
    """Ints and Fractions on the exact backend; floats, -0.0 among them, otherwise."""
    if backend == scalar.EXACT:
        term = st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=12))
    else:
        term = st.one_of(_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
    terms = data.draw(st.lists(term, max_size=40))
    assert _bits(scalar.total(iter(terms), backend)) == _bits(oracles.total_fold_literal(terms))


def test_float_total_is_the_uncompensated_fold():
    """From Python 3.12 `sum` would give 1.0 here."""
    for backend in (scalar.FLOAT, None):
        assert _bits(scalar.total([1e16, 1.0, -1e16], backend)) == _bits(0.0)
        assert scalar.total([], backend) == 0 and type(scalar.total([], backend)) is int


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ratios_are_the_ratios_over_the_lcm(backend, data):
    """Dens all equal to their lcm, or differing under one lcm (2, 3 and 6
    under 6): each num over its den, exact over the lcm, floats by bits."""
    top = data.draw(st.sampled_from([1, 6, 12, 64]))
    size = data.draw(st.integers(1, 12))
    divisors = st.sampled_from([d for d in range(1, top + 1) if top % d == 0])
    dens = data.draw(st.one_of(st.just([top] * size), st.lists(divisors, min_size=size, max_size=size)))
    num = st.integers(0, 10**9) if backend == scalar.EXACT else _FLOATS
    nums = data.draw(st.lists(num, min_size=size, max_size=size))
    den, got = scalar.ratios(nums, dens, backend)
    if backend == scalar.EXACT:
        assert den == math.lcm(*dens) and all(type(n) is int for n in got)
        assert [F(n, den) for n in got] == [F(n, d) for n, d in zip(nums, dens)]
        if len(set(dens)) == 1:
            assert got is nums  # one den: no rescaled copy
    else:
        assert den == 1 and [_bits(x) for x in got] == [_bits(n / d) for n, d in zip(nums, dens)]


@st.composite
def unit_weight_cases(draw, backend):
    """(map, f, g): a map out of a uniform space, onto its halves (a uniform
    target, as a dyadic step) or onto a lumped target whose weights have
    different dens under one lcm, with two random variables on the source.
    Every scaled weight is 1 on an exact space and on a one-atom float space
    (1.0); a float space of 2 or more atoms keeps its weighting.  Float values
    take -0.0 among others."""
    exact = backend == scalar.EXACT
    n = draw(st.integers(1, 64) if exact else st.sampled_from([1, 1, 1, 2, 3, 8]))
    src = uniform_space(n, backend)
    if n % 2 == 0 and draw(st.booleans()):
        images, k = [a >> 1 for a in range(n)], n // 2
    else:
        k = draw(st.integers(1, min(n, 8)))
        images = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    pushed = [src.zero] * k  # a target atom no image reaches has weight 0
    for a, b in enumerate(images):
        pushed[b] += src.weights[a]
    s = MeasurePreservingMap(src, FiniteProbSpace(range(k), pushed, backend=backend), dict(enumerate(images)))
    # the fractions in [0, 40] with dens up to 12, drawn without `st.fractions`' slow flatmap
    fraction = st.builds(lambda n, d: F(n % (40 * d + 1), d), st.integers(0, 480), st.integers(1, 12))
    value = fraction if exact else _FLOATS.filter(lambda x: x >= 0)  # -0.0 too
    f, g = (FiniteRandomVariable(src, draw(st.lists(value, min_size=n, max_size=n))) for _ in "fg")
    return s, f, g


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_unit_weights_and_one_den_ratios_match_the_literal_loops(backend, data):
    """`cond_exp` and the cross moments give the per-atom loops' values, to the bit."""
    s, f, g = data.draw(unit_weight_cases(backend))
    ws = s.src._scaled[1]
    assert (ws.count(1) == len(ws)) is (backend == scalar.EXACT or s.src.size == 1)
    for x in (f, g):
        assert _same(list(cond_exp(x, s).values), oracles.cond_exp_literal(x, s))
    for x, y in ((f, f), (f, g), (g, f)):
        assert _same(_cross_moment(x, y), oracles.cross_moment_literal(s.src, x.values, y.values))


@pytest.mark.parametrize("depth", [0, 1, 2, 5, 9, 12])
def test_dyadic_step_images_send_each_cell_to_its_parent(depth):
    d, _, _ = dyadic_experiment(DyadicGround([0, F(1, 2), 1], [0, 1, 0]), depth)
    for t in range(depth):
        assert d.connect[(t, t + 1)]._images == tuple(k // 2 for k in range(2 << t))
