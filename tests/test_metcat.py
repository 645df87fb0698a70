import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catprob import errors
from catprob.metcat import (
    INF,
    FinPseudometricSpace,
    LipschitzMap,
    _tensor_table,
    coequalizer,
    completion,
    compose_lipschitz,
    coproduct,
    curry,
    equalizer,
    hom,
    hom_distance,
    identity_lipschitz,
    metric_reflection,
    product,
    projection,
    scale,
    tensor,
    uncurry,
)
from catprob.sampling import rand_lipschitz_map, rand_metric_space

import oracles
from oracles import (
    hom_distance_literal,
    metric_axiom_error,
    one_step_gaps_literal,
    product_table_literal,
    tensor_table_literal,
)


@st.composite
def seeded_rng(draw):
    return random.Random(draw(st.integers(0, 2**32 - 1)))


_distances = st.one_of(
    st.just(INF),
    st.integers(0, 6),
    st.builds(F, st.integers(1, 12), st.sampled_from([2, 3, 4])),
    st.builds(F, st.integers(0, 24), st.sampled_from([5, 6, 12])),
)
_defects = st.one_of(
    _distances,
    st.integers(-3, -1),
    st.builds(F, st.integers(-6, -1), st.sampled_from([2, 3, 5])),
)


@st.composite
def axiom_tables(draw):
    """1-5 point tables: symmetric draws, sometimes closed under shortest
    paths (hence valid), then up to two entries overwritten, each alone or
    with its mirror, which can leave a nonzero diagonal, asymmetry, a
    negative entry or a broken triangle."""
    n = draw(st.integers(1, 5))
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(_distances)
    if draw(st.booleans()):
        for m in range(n):
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][m] + d[m][j])
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d[i][j] = draw(_defects)
        if draw(st.booleans()):
            d[j][i] = d[i][j]
    return d


def on_backend(table, tol):
    """The table as given when tol == 0, else with every finite entry as a float."""
    return table if tol == 0 else [[v if v == INF else float(v) for v in row] for row in table]


@st.composite
def metric_spaces(draw, tol, min_points=1):
    """0-3 point spaces on tol's backend: symmetric draws closed under
    shortest paths, with INF as no edge."""
    n = draw(st.integers(min_points, 3))
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(_distances)
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if INF not in (d[i][m], d[m][j]):
                    d[i][j] = min(d[i][j], d[i][m] + d[m][j])
    return FinPseudometricSpace(["p%d" % i for i in range(n)], on_backend(d, tol), tol=tol)


def assert_pinned(got, want, tol):
    """Equal entry by entry; each entry INF itself or of the backend's type."""
    assert [list(row) for row in got] == [list(row) for row in want]
    for v in itertools.chain.from_iterable(got):
        assert v is INF or type(v) is (F if tol == 0 else float)


def two_point(gap, tol=0):
    return FinPseudometricSpace(["p", "q"], [[0, gap], [gap, 0]], tol=tol)


def all_lipschitz_maps(src, dst):
    """Every 1-Lipschitz assignment src -> dst, by exhaustive enumeration."""
    out = []
    for images in itertools.product(dst.points, repeat=src.size):
        try:
            out.append(LipschitzMap(src, dst, dict(zip(src.points, images))))
        except errors.NotLipschitz:
            continue
    return out


class TestAxioms:
    def test_triangle_violation_rejected(self):
        with pytest.raises(errors.InvalidMetric):
            FinPseudometricSpace(
                ["a", "b", "c"],
                [[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            )

    def test_asymmetry_rejected(self):
        with pytest.raises(errors.InvalidMetric):
            FinPseudometricSpace(["a", "b"], [[0, 1], [2, 0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(errors.InvalidMetric):
            FinPseudometricSpace(["a", "b"], [[1, 1], [1, 0]])

    def test_inf_allowed(self):
        s = FinPseudometricSpace(["a", "b"], [[0, INF], [INF, 0]])
        assert s.distance("a", "b") == INF

    @pytest.mark.parametrize("entry", [True, None, "x"])
    def test_unrepresentable_entry_rejected(self, entry):
        with pytest.raises(errors.InvalidMetric):
            FinPseudometricSpace(["a", "b"], [[0, entry], [entry, 0]])

    @pytest.mark.parametrize("tol", [0, 1e-9])
    @pytest.mark.parametrize("entry", [-INF, float("nan")])
    def test_non_finite_entry_is_not_a_distance(self, entry, tol):
        with pytest.raises(errors.InvalidMetric, match="not a distance"):
            FinPseudometricSpace(["a", "b"], [[0, entry], [entry, 0]], tol=tol)

    def test_symmetric_negative_rejected(self):
        with pytest.raises(errors.InvalidMetric, match="negative distance"):
            FinPseudometricSpace(["a", "b"], [[0, -1], [-1, 0]])

    def test_distance_to_unknown_point(self):
        with pytest.raises(errors.DomainMismatch):
            two_point(F(1)).distance("p", "z")

    @settings(max_examples=1200, deadline=None)
    @given(
        axiom_tables(),
        st.sampled_from([0, 1e-9, 0.5]),
        st.lists(st.sampled_from([-1, 0, 1]), min_size=25, max_size=25),
    )
    def test_scan_matches_literal_oracle(self, table, tol, jitter):
        # tol > 0 gives a float table, whose finite off-diagonal entries move
        # by up to tol/2: mirror entries may differ within tol, so the
        # triangles must read the columns
        points = ["p%d" % i for i in range(len(table))]
        if tol:
            table = [
                [v + jitter[5 * i + j] * tol / 2 if i != j and v != INF else v
                 for j, v in enumerate(row)]
                for i, row in enumerate(on_backend(table, tol))
            ]
        want = metric_axiom_error(points, table, tol)
        try:
            space = FinPseudometricSpace(points, table, tol=tol)
        except errors.InvalidMetric as exc:
            assert str(exc) == want
        else:
            assert want is None
            assert space.dist == tuple(map(tuple, table))


class TestLipschitzMap:
    def test_unknown_assignment_key_rejected(self):
        y = two_point(F(1))
        with pytest.raises(errors.DomainMismatch, match="mentions unknown points"):
            LipschitzMap(y, y, {"p": "p", "q": "q", "zzz": "p"})

    @pytest.mark.parametrize("image", ["zzz", ["p"], ("p", ["q"])])
    def test_image_outside_target_rejected(self, image):
        y = two_point(F(1))
        with pytest.raises(errors.DomainMismatch, match="not in target"):
            LipschitzMap(y, y, {"p": "p", "q": image})

    def test_huge_exact_distance_into_a_float_space(self):
        # the float tol is never added to a Fraction beyond the float range
        huge = FinPseudometricSpace("ab", [[0, F(10**400)], [F(10**400), 0]])
        target = FinPseudometricSpace("pq", [[0, 1.0], [1.0, 0]], tol=1e-9)
        f = LipschitzMap(huge, target, {"a": "p", "b": "q"})
        assert f.assign == {"a": "p", "b": "q"}
        with pytest.raises(errors.NotLipschitz, match="image distance inf"):
            LipschitzMap(huge, two_point(INF, tol=1e-9), {"a": "p", "b": "q"})
        wide = FinPseudometricSpace("ab", [[0, INF], [INF, 0]])
        assert LipschitzMap(wide, two_point(INF, tol=1e-9), {"a": "p", "b": "q"})
        far = two_point(1e300, tol=1e-9)
        assert LipschitzMap(huge, far, {"a": "p", "b": "q"})
        with pytest.raises(errors.NotLipschitz):
            LipschitzMap(two_point(F(1)), two_point(2.0, tol=1e-9), {"p": "p", "q": "q"})


class TestConstructorTables:
    """product, tensor, coequalizer gaps and hom_distance against the literal
    loops of tests/oracles.py, on both backends, with INF entries and an
    empty first factor."""

    @pytest.mark.parametrize("tol", [0, 1e-9])
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_match_literal_loops(self, tol, data):
        x = data.draw(metric_spaces(tol, min_points=0))
        y = data.draw(metric_spaces(tol))
        for spaces in ([x, y], [y, x, y]):
            got = product(spaces)
            assert got.points == tuple(itertools.product(*(s.points for s in spaces)))
            assert_pinned(got.dist, product_table_literal(spaces), tol)
        got = tensor(x, y)
        assert got.points == tuple(itertools.product(x.points, y.points))
        assert_pinned(got.dist, tensor_table_literal(x, y), tol)
        assert _tensor_table(x, y) == (got.points, got.dist)
        # every map out of a space with all distances INF is 1-Lipschitz
        n = data.draw(st.integers(0, 3))
        discrete = [[0 if i == j else INF for j in range(n)] for i in range(n)]
        src = FinPseudometricSpace(range(n), discrete)
        f, g = (
            LipschitzMap(src, y, {i: data.draw(st.sampled_from(y.points)) for i in range(n)})
            for _ in "fg"
        )
        res = coequalizer(f, g)
        want = one_step_gaps_literal(y, res.space.points, res.space.dist)
        assert list(res.one_step_gaps) == want
        assert all(v is INF for gap in res.one_step_gaps for v in gap[2:] if v == INF)
        d, witness = hom_distance(f, g)
        assert (d, witness) == hom_distance_literal(f, g)
        assert d is INF or d == 0 or type(d) is (F if tol == 0 else float)

    def test_product_sup_starts_from_zero(self):
        # as the literal loop: a float -0.0 distance never replaces the start 0
        x = FinPseudometricSpace("ab", [[0, -0.0], [-0.0, 0]], tol=1e-9)
        assert {v.hex() for row in product([x, x]).dist for v in row} == {(0.0).hex()}

    def test_huge_fraction_is_never_added_to_inf(self):
        # Fraction + INF goes through a float, which overflows at 10**400
        big = F(10**400)
        x = FinPseudometricSpace("ab", [[0, big], [big, 0]])
        y = FinPseudometricSpace("pq", [[0, INF], [INF, 0]])
        t = tensor(x, y)
        assert t.distance(("a", "p"), ("b", "p")) == big
        assert t.distance(("a", "p"), ("b", "q")) is INF
        p = product([x, y])
        assert p.distance(("a", "p"), ("b", "p")) == big
        assert p.distance(("a", "p"), ("b", "q")) is INF
        z = FinPseudometricSpace("abc", [[0, big, INF], [big, 0, INF], [INF, INF, 0]])
        one = FinPseudometricSpace(["*"], [[0]])
        for glued in "ab":
            res = coequalizer(LipschitzMap(one, z, {"*": "a"}), LipschitzMap(one, z, {"*": glued}))
            assert res.space.distance(res.projection("a"), res.projection("c")) is INF
            assert res.one_step_gaps == ()


class TestProduct:
    def test_single_factor(self):
        x = two_point(F(3))
        p = product([x])
        assert [pt[0] for pt in p.points] == list(x.points)
        assert p.dist[0][1] == F(3)

    def test_sup_of_gaps(self):
        p = product([two_point(F(1)), two_point(F(3))])
        d = p.distance(("p", "p"), ("q", "q"))
        assert d == F(3)

    def test_one_point_factor_is_isometric(self):
        x = two_point(F(2))
        one = FinPseudometricSpace(["*"], [[0]])
        p = product([x, one])
        assert p.distance(("p", "*"), ("q", "*")) == F(2)

    def test_projections_lipschitz(self):
        xs = [two_point(F(1)), two_point(F(3))]
        p = product(xs)
        for i in range(2):
            projection(p, xs, i)  # constructor validates 1-Lipschitz

    @settings(max_examples=15, deadline=None)
    @given(seeded_rng())
    def test_universal_property(self, rng):
        # every cone from a small test space factors uniquely through the product
        xs = [rand_metric_space(rng, max_points=3) for _ in range(2)]
        t = rand_metric_space(rng, max_points=3)
        cone = [rand_lipschitz_map(rng, t, x) for x in xs]
        prod = product(xs)
        induced = LipschitzMap(
            t, prod, {p: (cone[0].assign[p], cone[1].assign[p]) for p in t.points}
        )
        factoring = [
            m
            for m in all_lipschitz_maps(t, prod)
            if all(
                compose_lipschitz(m, projection(prod, xs, i)).assign == cone[i].assign
                for i in range(2)
            )
        ]
        assert factoring == [induced]


    def test_mixed_backends_raise(self):
        with pytest.raises(errors.BackendMismatch):
            product([two_point(F(1)), two_point(1.0, tol=1e-9)])


class TestEqualizer:
    def test_equal_maps_give_whole_space(self):
        x = two_point(F(1))
        f = identity_lipschitz(x)
        sub, incl = equalizer(f, f)
        assert sub.points == x.points
        assert incl.assign == {"p": "p", "q": "q"}

    def test_single_agreement_point(self):
        x = two_point(F(1))
        y = two_point(F(1))
        f = LipschitzMap(x, y, {"p": "p", "q": "q"})
        g = LipschitzMap(x, y, {"p": "p", "q": "p"})
        sub, _ = equalizer(f, g)
        assert sub.points == ("p",)

    def test_inclusion_preserves_distances(self):
        eq3 = FinPseudometricSpace(["a", "b", "c"], [[0, 2, 3], [2, 0, 1], [3, 1, 0]])
        f = identity_lipschitz(eq3)
        g = LipschitzMap(eq3, eq3, {"a": "a", "b": "b", "c": "b"})
        sub, incl = equalizer(f, g)
        assert sub.points == ("a", "b")
        for x in sub.points:
            for y in sub.points:
                assert sub.distance(x, y) == eq3.distance(incl(x), incl(y))

    def test_not_parallel(self):
        x = two_point(F(1))
        with pytest.raises(errors.NotParallel):
            equalizer(identity_lipschitz(x), identity_lipschitz(two_point(F(2))))

    @settings(max_examples=15, deadline=None)
    @given(seeded_rng())
    def test_universal_property(self, rng):
        x = rand_metric_space(rng, max_points=3)
        y = rand_metric_space(rng, max_points=3)
        f = rand_lipschitz_map(rng, x, y)
        g = rand_lipschitz_map(rng, x, y)
        sub, _ = equalizer(f, g)
        t = rand_metric_space(rng, max_points=3)
        for h in all_lipschitz_maps(t, x):
            equalizes = all(
                f.assign[h.assign[p]] == g.assign[h.assign[p]] for p in t.points
            )
            factors = all(h.assign[p] in sub.points for p in t.points)
            assert equalizes == factors


class TestCoproduct:
    def test_single_space(self):
        x = two_point(F(2))
        c = coproduct([x])
        assert c.distance((0, "p"), (0, "q")) == F(2)

    def test_two_points_at_infinity(self):
        one = FinPseudometricSpace(["*"], [[0]])
        c = coproduct([one, one])
        assert c.distance((0, "*"), (1, "*")) == INF

    def test_inclusions_preserve_distance(self):
        xs = [two_point(F(1)), two_point(F(5))]
        c = coproduct(xs)
        for i, x in enumerate(xs):
            for a in x.points:
                for b in x.points:
                    assert c.distance((i, a), (i, b)) == x.distance(a, b)


    def test_mixed_backends_raise(self):
        with pytest.raises(errors.BackendMismatch):
            coproduct([two_point(F(1)), two_point(1.0, tol=1e-9)])


class TestCoequalizer:
    def test_equal_maps_identity_quotient(self):
        x = two_point(F(1))
        res = coequalizer(identity_lipschitz(x), identity_lipschitz(x))
        assert res.space.size == 2
        assert res.space.dist[0][1] == F(1)

    def test_collapse_to_point(self):
        one = FinPseudometricSpace(["*"], [[0]])
        y = two_point(F(3))
        f = LipschitzMap(one, y, {"*": "p"})
        g = LipschitzMap(one, y, {"*": "q"})
        res = coequalizer(f, g)
        assert res.space.size == 1

    def test_chain_infimum_worked_example(self):
        # identify a ~ b in the 3-point space generated by the edge data
        # ab=2, ac=5, bc=1 (whose metric closure caps ac at 3)
        y = FinPseudometricSpace(
            ["a", "b", "c"], [[0, 2, 3], [2, 0, 1], [3, 1, 0]]
        )
        one = FinPseudometricSpace(["*"], [[0]])
        f = LipschitzMap(one, y, {"*": "a"})
        g = LipschitzMap(one, y, {"*": "b"})
        res = coequalizer(f, g)
        ab = ("a", "b")
        c = ("c",)
        assert res.space.distance(ab, c) == F(1)
        assert res.projection.assign["a"] == ab

    def test_one_step_gap_reported(self):
        # path a-b-c-d; gluing b ~ c makes the two-hop chain (length 2)
        # strictly shorter than any single-intermediate route (length 3)
        y = FinPseudometricSpace(
            ["a", "b", "c", "d"],
            [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
        )
        one = FinPseudometricSpace(["*"], [[0]])
        f = LipschitzMap(one, y, {"*": "b"})
        g = LipschitzMap(one, y, {"*": "c"})
        res = coequalizer(f, g)
        assert res.space.distance(("a",), ("d",)) == F(2)
        assert (("a",), ("d",), F(3), F(2)) in res.one_step_gaps

    @settings(max_examples=15, deadline=None)
    @given(seeded_rng())
    def test_couniversal(self, rng):
        x = rand_metric_space(rng, max_points=2)
        y = rand_metric_space(rng, max_points=3)
        f = rand_lipschitz_map(rng, x, y)
        g = rand_lipschitz_map(rng, x, y)
        res = coequalizer(f, g)
        t = rand_metric_space(rng, max_points=3)
        for h in all_lipschitz_maps(y, t):
            if any(h.assign[f.assign[p]] != h.assign[g.assign[p]] for p in x.points):
                continue
            # h coequalizes, so it must factor through the quotient, uniquely
            factored = {}
            ok = True
            for p in y.points:
                cls = res.projection.assign[p]
                if cls in factored and factored[cls] != h.assign[p]:
                    ok = False
                    break
                factored[cls] = h.assign[p]
            assert ok
            LipschitzMap(res.space, t, factored)  # validates 1-Lipschitz


class TestTensor:
    def test_unit_isometric(self):
        x = two_point(F(2))
        one = FinPseudometricSpace(["*"], [[0]])
        tzr = tensor(x, one)
        assert tzr.distance(("p", "*"), ("q", "*")) == F(2)

    def test_sum_of_gaps(self):
        tzr = tensor(two_point(F(1)), two_point(F(2)))
        assert tzr.distance(("p", "p"), ("q", "q")) == F(3)

    @settings(max_examples=15, deadline=None)
    @given(seeded_rng())
    def test_constructions_pass_axiom_scan(self, rng):
        # the constructor runs the full triple scan on every build
        x = rand_metric_space(rng, max_points=3)
        y = rand_metric_space(rng, max_points=3)
        tensor(x, y)
        product([x, y])
        coproduct([x, y])


    def test_mixed_backends_raise(self):
        with pytest.raises(errors.BackendMismatch):
            tensor(two_point(F(1)), two_point(1.0, tol=1e-9))


class TestHom:
    def test_single_map(self):
        x = two_point(F(1))
        hr = hom([identity_lipschitz(x)])
        assert hr.space.size == 1

    def test_constant_maps_at_target_distance(self):
        x = two_point(F(1))
        y = two_point(F(1))
        const_p = LipschitzMap(x, y, {"p": "p", "q": "p"})
        const_q = LipschitzMap(x, y, {"p": "q", "q": "q"})
        hr = hom([const_p, const_q])
        assert hr.space.dist[0][1] == F(1)

    def test_witness_reported(self):
        x = two_point(F(1))
        y = two_point(F(1))
        f = identity_lipschitz(y)
        g = LipschitzMap(y, y, {"p": "p", "q": "p"})
        d, witness = hom_distance(f, g)
        assert d == F(1)
        assert witness == "q"


    def test_tol_is_the_targets(self):
        exact, floaty = two_point(F(1)), two_point(1.0, tol=1e-6)
        into_exact = hom([LipschitzMap(floaty, exact, {"p": "p", "q": c}) for c in "pq"])
        assert into_exact.space.tol == 0 and into_exact.space.dist[0][1] == F(1)
        into_float = hom([LipschitzMap(exact, floaty, {"p": "p", "q": c}) for c in "pq"])
        assert into_float.space.tol == 1e-6 and into_float.space.dist[0][1] == 1.0

    def test_lipschitz_map_may_cross_backends(self):
        # the check allows the larger tol: 1 + 1e-7 <= 1 within 1e-6
        LipschitzMap(two_point(F(1)), two_point(1 + 1e-7, tol=1e-6), {"p": "p", "q": "q"})
        with pytest.raises(errors.NotLipschitz):
            LipschitzMap(two_point(F(1)), two_point(1.1, tol=1e-6), {"p": "p", "q": "q"})


class TestCurry:
    def test_projection_curries_to_identities(self):
        x = two_point(F(1))
        y = two_point(F(2))
        tzr = tensor(x, y)
        proj = LipschitzMap(tzr, y, {pt: pt[1] for pt in tzr.points})
        res = curry(proj, x, y)
        for m in res.per_point.values():
            assert m.assign == {"p": "p", "q": "q"}

    def test_constant_curries_to_constant_family(self):
        x, y = two_point(F(1)), two_point(F(2))
        z = two_point(F(1))
        tzr = tensor(x, y)
        const = LipschitzMap(tzr, z, {pt: "p" for pt in tzr.points})
        res = curry(const, x, y)
        assert all(set(m.assign.values()) == {"p"} for m in res.per_point.values())

    @settings(max_examples=20, deadline=None)
    @given(seeded_rng())
    def test_roundtrip(self, rng):
        x = rand_metric_space(rng, max_points=3)
        y = rand_metric_space(rng, max_points=3)
        z = rand_metric_space(rng, max_points=4)
        h = rand_lipschitz_map(rng, tensor(x, y), z)
        res = curry(h, x, y)
        assert uncurry(res.per_point, x, y).assign == h.assign


    def test_uncurry_empty_first_factor(self):
        empty = FinPseudometricSpace([], [])
        with pytest.raises(errors.DomainMismatch):
            uncurry({}, empty, two_point(F(1)))

    def test_uncurry_family_missing_a_point(self):
        x, y = two_point(F(1)), two_point(F(2))
        with pytest.raises(errors.DomainMismatch):
            uncurry({"p": identity_lipschitz(y)}, x, y)

    def test_exact_factors_float_target(self):
        x, y = two_point(F(1)), two_point(F(2))
        z = two_point(1.5, tol=1e-9)
        h = LipschitzMap(tensor(x, y), z, {pt: pt[1] for pt in tensor(x, y).points})
        res = curry(h, x, y)
        assert res.hom_result.space.tol == z.tol
        assert uncurry(res.per_point, x, y).assign == h.assign


class TestScaleAndReflection:
    def test_scale_one_is_identity(self):
        x = two_point(F(1))
        assert scale(x, 1) == x

    def test_scale_three(self):
        assert scale(two_point(F(1)), F(3)).dist[0][1] == F(3)

    def test_inf_fixed(self):
        s = FinPseudometricSpace(["a", "b"], [[0, INF], [INF, 0]])
        assert scale(s, F(5)).distance("a", "b") == INF

    @settings(max_examples=20, deadline=None)
    @given(seeded_rng())
    def test_scaling_preserves_lipschitz(self, rng):
        x = rand_metric_space(rng, max_points=3)
        y = rand_metric_space(rng, max_points=3)
        f = rand_lipschitz_map(rng, x, y)
        r = F(rng.randint(1, 5), rng.randint(1, 3))
        LipschitzMap(scale(x, r), scale(y, r), f.assign)  # validates

    def test_reflection_collapses_zero_pairs(self):
        s = FinPseudometricSpace(["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        quot, proj = metric_reflection(s)
        assert quot.size == 2
        assert proj.assign["a"] == proj.assign["b"]

    def test_reflection_idempotent(self):
        s = FinPseudometricSpace(["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        quot, _ = metric_reflection(s)
        again, _ = metric_reflection(quot)
        assert again.size == quot.size
        assert again.dist == quot.dist

    def test_completion_is_identity(self):
        x = two_point(F(1))
        assert completion(x) is x


# -- positional maps against copies of the old label-keyed ones ---------------------


def _built(build, *args):
    """What a construction gives: its error by type and text, or the object."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _typed(pairs):
    return [(type(a), a, type(b), b) for a, b in pairs]


def _same_map(new, old):
    """The same table, in order and by type, and the same repr."""
    assert _typed(new.assign.items()) == _typed(old.assign.items())
    assert dict(new.assign) == dict(old.assign) and repr(new) == repr(old)
    assert (new.src, new.dst) == (old.src, old.dst)


def _same_space(new, old):
    assert (new.points, new.dist, new.tol) == (old.points, old.dist, old.tol)


def _old(m):
    return oracles.OldLipschitzMap(m.src, m.dst, m.assign)


_FAULTS = ["missing", "unknown", "unhashable", "unhashable-inside", "outside", "moved"]


@pytest.mark.parametrize("tol", [0, 1e-9])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_positional_lipschitz_maps_match_the_old_label_maps(tol, data):
    """A map built from an assignment, with up to three faults, raises or
    stores what the old label-keyed map did, and compares as it did; the
    identity, composites and the constructions' maps are the old ones."""
    draw = data.draw
    x, y, z = (draw(metric_spaces(tol)) for _ in "xyz")
    rng = random.Random(draw(st.integers(0, 2**16)))
    f = rand_lipschitz_map(rng, x, y)
    assign = {p: f.assign[p] for p in draw(st.permutations(x.points))}  # any key order
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=3)):
        p = draw(st.sampled_from(x.points))
        if fault == "missing":
            assign.pop(p, None)
        elif fault == "unknown":
            assign[draw(st.sampled_from(["zz", -1, (1,)]))] = y.points[0]
        elif fault == "unhashable":
            assign[p] = [0]
        elif fault == "unhashable-inside":
            assign[p] = (0, [1])
        elif fault == "outside":
            assign[p] = draw(st.sampled_from(["nowhere", y.size]))
        else:  # another target point: 1-Lipschitz only by chance
            assign[p] = draw(st.sampled_from(y.points))
    new = _built(LipschitzMap, x, y, assign)
    old = _built(oracles.OldLipschitzMap, x, y, assign)
    if isinstance(old, tuple):
        assert new == old
        return
    _same_map(new, old)
    g = rand_lipschitz_map(rng, x, y)
    for a, b, old_a, old_b in ((new, g, old, _old(g)), (g, new, _old(g), old)):
        assert (a == b) is (old_a == old_b)
    ident = identity_lipschitz(x)
    _same_map(ident, oracles.identity_lipschitz_literal(x))
    step = rand_lipschitz_map(rng, y, z)
    _same_map(compose_lipschitz(new, step), oracles.compose_lipschitz_literal(old, _old(step)))
    _same_map(compose_lipschitz(ident, new), oracles.compose_lipschitz_literal(_old(ident), old))
    sub, incl = equalizer(new, g)
    old_sub, old_incl = oracles.old_equalizer(old, _old(g))
    _same_space(sub, old_sub)
    _same_map(incl, old_incl)
    res = coequalizer(new, g)
    members, proj = oracles.old_coequalizer(old, _old(g), res.space)
    assert res.space.points == tuple(members)
    _same_map(res.projection, proj)
    # beside y, a space whose classes interleave: (u, p) ~ (v, p) at distance 0
    pair = FinPseudometricSpace(["u", "v"], [[0, 0], [0, 0]], tol=tol)
    for space in (y, tensor(pair, y)):
        quot, proj = metric_reflection(space)
        members, old_proj = oracles.old_metric_reflection(space, quot)
        assert quot.points == tuple(members)
        _same_map(proj, old_proj)
    h = rand_lipschitz_map(rng, tensor(x, y), z)
    res = curry(h, x, y)
    per, space, outer = oracles.old_curry(_old(h), x, y)
    assert list(res.per_point) == list(per)
    for p in x.points:
        _same_map(res.per_point[p], per[p])
    _same_space(res.hom_result.space, space)
    _same_map(res.outer, outer)
    _same_map(uncurry(res.per_point, x, y), oracles.old_uncurry(per, x, y))


def test_equal_lipschitz_maps_hash_alike():
    """A validated map, an identity, composites, an equalizer's inclusion, a
    quotient's projection and an uncurried family that agree are equal and
    hash alike; a map that differs is unequal."""
    x = FinPseudometricSpace(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    ident = identity_lipschitz(x)
    proj = coequalizer(ident, ident).projection  # onto the classes (p,)
    one = FinPseudometricSpace(["*"], [[0]])
    routes = [
        ident,
        LipschitzMap(x, x, {"c": "c", "a": "a", "b": "b"}),
        compose_lipschitz(ident, ident),
        equalizer(ident, ident)[1],  # its subspace is all of x
        compose_lipschitz(proj, LipschitzMap(proj.dst, x, {(p,): p for p in x.points})),
    ]
    for a in routes:
        for b in routes:
            assert a == b and hash(a) == hash(b)
    from_one = LipschitzMap(tensor(one, x), x, {pt: pt[1] for pt in tensor(one, x).points})
    assert from_one == uncurry({"*": ident}, one, x)
    assert len({*routes, from_one, uncurry({"*": ident}, one, x)}) == 2
    flip = LipschitzMap(x, x, {"a": "c", "b": "b", "c": "a"})
    shrink = LipschitzMap._from_images(x, scale(x, F(1, 2)), range(3))
    for other in (flip, shrink):  # other images, or the same ones into another target
        assert other != ident and ident != other and other not in set(routes)


def test_an_image_is_read_back_as_the_target_point():
    """`assign` reads image positions back through the target's labels, so
    an image given as an equal label of another type (True for 1) reads as
    the target's own label; equality and hash see no difference."""
    y = FinPseudometricSpace([0, 1], [[0, 1], [1, 0]])
    h = LipschitzMap(y, y, {0: False, 1: True})
    assert _typed(h.assign.items()) == _typed([(0, 0), (1, 1)])
    assert h == identity_lipschitz(y) and hash(h) == hash(identity_lipschitz(y))
    assert h(True) == 1 and repr(h) == "LipschitzMap({0: 0, 1: 1})"


@pytest.mark.parametrize("assign", [5, None, [1, 2], "ab"])
def test_a_non_mapping_assignment_is_a_domain_mismatch(assign):
    y = two_point(F(1))
    with pytest.raises(errors.DomainMismatch, match="assignment must be a mapping, not "):
        LipschitzMap(y, y, assign)
