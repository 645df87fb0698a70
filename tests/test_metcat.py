import itertools
import random
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catprob import errors, metcat, scalar
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
        assert _tensor_table(x, y) == (got.points, got._scaled)
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

    def test_too_many_points_raise_before_any_cell_is_built(self, monkeypatch):
        """Seven 10-point factors would give 10**7 points: the guard raises
        first, so `itertools.product` is never reached."""
        line = FinPseudometricSpace(range(10), [[abs(i - j) for j in range(10)] for i in range(10)])
        monkeypatch.setattr(metcat, "itertools", SimpleNamespace(product=lambda *a: pytest.fail("a cell was built")))
        with pytest.raises(errors.ProductTooLarge) as caught:
            product([line] * 7)
        assert str(caught.value) == "product would have more than 1000000 points"

    def test_product_and_tensor_share_the_guard(self, monkeypatch):
        monkeypatch.setattr(metcat, "MAX_PRODUCT_POINTS", 3)
        x, one = two_point(F(1)), FinPseudometricSpace(["*"], [[0]])
        three = FinPseudometricSpace("abc", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert product([three, one]).size == tensor(three, one).size == 3
        for build, what in ((lambda: product([x, x]), "product"), (lambda: tensor(x, x), "tensor")):
            with pytest.raises(errors.ProductTooLarge) as caught:
                build()
            assert str(caught.value) == "%s would have more than 3 points" % what

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


# -- positional maps against the definition of a map --------------------------------


def _built(build, *args):
    """What a construction gives: its error by type and text, or the object."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _typed(pairs):
    return [(type(a), a, type(b), b) for a, b in pairs]


def _holds(m, table, src, dst):
    """`m` maps `src` to `dst` and holds `table` ({source point: target
    point}), in source order and by type, with the repr that names it."""
    assert (m.src, m.dst) == (src, dst)
    assert _typed(m.assign.items()) == _typed(table.items())
    assert dict(m.assign) == table and repr(m) == "LipschitzMap(%r)" % (table,)


def _class_of(classes):
    return {p: c for c in classes for p in c}


_FAULTS = ["missing", "unknown", "unhashable", "unhashable-inside", "outside", "moved"]


@pytest.mark.parametrize("tol", [0, 1e-9])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_positional_lipschitz_maps_hold_what_the_definition_gives(tol, data):
    """A map built from an assignment, with up to three faults, raises the
    first fault of `oracles.map_literal` or holds its table, and compares by
    it; the identity, composites and the constructions' maps hold the tables
    their definitions give."""
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
    table = _built(oracles.map_literal, x, y, assign, oracles.LIPSCHITZ_WORDS)
    if isinstance(table, tuple):
        assert new == table
        return
    _holds(new, table, x, y)
    g = rand_lipschitz_map(rng, x, y)
    assert (new == g) is (g == new) is (dict(g.assign) == table)
    ident = identity_lipschitz(x)
    _holds(ident, {p: p for p in x.points}, x, x)
    step = rand_lipschitz_map(rng, y, z)
    _holds(compose_lipschitz(new, step), {p: step.assign[table[p]] for p in x.points}, x, z)
    _holds(compose_lipschitz(ident, new), table, x, y)
    sub, incl = equalizer(new, g)
    keep = [p for p in x.points if table[p] == g.assign[p]]
    assert (sub.points, sub.tol) == (tuple(keep), x.tol)
    assert sub.dist == tuple(tuple(x.distance(p, q) for q in keep) for p in keep)
    _holds(incl, {p: p for p in keep}, sub, x)
    res = coequalizer(new, g)
    classes = oracles.classes_literal(y.points, [(y.points.index(table[p]), y.points.index(g.assign[p])) for p in x.points])
    assert res.space.points == tuple(classes)
    _holds(res.projection, {q: _class_of(classes)[q] for q in y.points}, y, res.space)
    # beside y, a space whose classes interleave: (u, p) ~ (v, p) at distance 0
    pair = FinPseudometricSpace(["u", "v"], [[0, 0], [0, 0]], tol=tol)
    for space in (y, tensor(pair, y)):
        quot, proj = metric_reflection(space)
        n = space.size
        zero = [(i, j) for i in range(n) for j in range(i + 1, n) if scalar.eq(space.dist[i][j], 0, space.tol)]
        classes = oracles.classes_literal(space.points, zero)
        assert quot.points == tuple(classes)
        _holds(proj, {q: _class_of(classes)[q] for q in space.points}, space, quot)
    xy = tensor(x, y)
    h = rand_lipschitz_map(rng, xy, z)
    res = curry(h, x, y)
    assert list(res.per_point) == list(x.points)
    for p in x.points:
        _holds(res.per_point[p], {q: h.assign[(p, q)] for q in y.points}, y, z)
    maps = [res.per_point[p] for p in x.points]
    hom_space = res.hom_result.space
    assert (hom_space.points, hom_space.tol) == (tuple(range(x.size)), z.tol)
    assert hom_space.dist == tuple(
        tuple(0 if i == j else oracles.hom_distance_literal(f_i, f_j)[0] for j, f_j in enumerate(maps))
        for i, f_i in enumerate(maps)
    )
    _holds(res.outer, {p: i for i, p in enumerate(x.points)}, x, hom_space)
    _holds(uncurry(res.per_point, x, y), dict(h.assign), xy, z)


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_lipschitz_call_reads_one_image_and_builds_no_assign(seed):
    """`f(p)` is `f.assign[p]` for every point, without building `assign`;
    an unknown point is a KeyError naming it."""
    rng = random.Random(seed)
    x, y = rand_metric_space(rng), rand_metric_space(rng)
    f = rand_lipschitz_map(rng, x, y)
    for h in (f, identity_lipschitz(x), compose_lipschitz(identity_lipschitz(x), f)):
        calls = [h(p) for p in h.src.points]
        with pytest.raises(KeyError) as caught:
            h("nowhere")
        assert caught.value.args == ("nowhere",) and h._assign is None
        assert calls == [h.assign[p] for p in h.src.points]


# -- tables held as scaled ints, against the definition of a metric space ----------


@pytest.mark.parametrize("tol", [0, 1e-9])
@pytest.mark.parametrize(
    "points, dist", [(["a"], 5), (["a"], None), (["a"], [5]), (["a", "b"], [[0, 1], None])]
)
def test_a_table_that_is_not_a_list_of_rows_is_invalid(points, dist, tol):
    with pytest.raises(errors.InvalidMetric, match="distance table is not a list of rows: "):
        FinPseudometricSpace(points, dist, tol=tol)


_VALUES = st.one_of(
    st.just(INF),
    st.integers(0, 6),
    st.builds(F, st.integers(1, 24), st.sampled_from([2, 3, 4, 8])),
    st.sampled_from([F(10**400), F(1, 3**700)]),  # past the float range
)
_BAD_ENTRIES = st.one_of(
    _VALUES,
    st.integers(-3, -1),
    st.builds(F, st.integers(-6, -1), st.sampled_from([2, 3])),
    st.sampled_from([None, True, "x", "1/0", " inf", "-inf", float("nan"), -INF, 0.5, [1]]),
)


@st.composite
def _written(draw, value, tol):
    """`value` as a user may write it: as it is, as a Fraction, a "num/den"
    string, an int when whole, a float on a float table; INF also as "inf"
    or another infinite float."""
    if value == INF:
        return draw(st.sampled_from([INF, "inf", float("inf")]))
    q = F(value)
    forms = [value, q, "%d/%d" % (q.numerator, q.denominator)]
    forms += [int(q)] if q.denominator == 1 else []
    forms += [float(q)] if tol and abs(q) < 2**64 else []
    return draw(st.sampled_from(forms))


@st.composite
def user_tables(draw, tol, defects=2, min_points=0):
    """0-4 point tables written as a user may write them: symmetric draws,
    sometimes closed under shortest paths (hence valid, unless a defect
    follows), then up to `defects` entries overwritten, each alone or with
    its mirror."""
    n = draw(st.integers(min_points, 4))
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = draw(_VALUES)
    if not defects or draw(st.booleans()):
        for m in range(n):
            for i in range(n):
                for j in range(n):
                    if INF not in (d[i][m], d[m][j]):
                        d[i][j] = min(d[i][j], d[i][m] + d[m][j])
    table = [[draw(_written(v, tol)) for v in row] for row in d]
    for _ in range(draw(st.integers(0, defects)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[i][j] = draw(_BAD_ENTRIES)
        if draw(st.booleans()):
            table[j][i] = table[i][j]
    return table


def _bits(x):
    """A distance by type and value, a float by its bits."""
    return type(x), x.hex() if type(x) is float else x


def _same_table(new, points, table, tol):
    """`new` is the space on `points` with `table`: the same reads, one entry
    or the whole table, by type and bits, its size and repr; INF is the one
    object.  The table's entries are read as distances on tol's backend."""
    backend = scalar.EXACT if tol == 0 else scalar.FLOAT
    table = [[INF if d == INF else scalar.coerce(d, backend) for d in row] for row in table]
    for p, row in zip(points, table):
        for q, d in zip(points, row):
            assert _bits(new.distance(p, q)) == _bits(d)
    assert _built(new.distance, "nowhere", 0) == (errors.DomainMismatch, "points 'nowhere', 0: not both in the space")
    assert [list(map(_bits, r)) for r in new.dist] == [list(map(_bits, r)) for r in table]
    assert all(v is INF for row in new.dist for v in row if v == INF)
    assert (new.points, new.size, new.tol) == (tuple(points), len(points), tol)
    assert repr(new) == "FinPseudometricSpace(points=%r)" % (tuple(points),)
    again = FinPseudometricSpace(points, table, tol=tol)  # a user's table: lowest terms
    assert new == again and hash(new) == hash(again) and new._scaled == again._scaled


def _failed(got):
    """Whether `_built` gave an error, by type and text."""
    return isinstance(got, tuple) and isinstance(got[0], type) and issubclass(got[0], Exception)


def _both(table, tol, points=None):
    """A table's space and the definition's table: each the object, or its error."""
    points = ["p%d" % i for i in range(len(table))] if points is None else points
    return (
        _built(FinPseudometricSpace, points, table, tol),
        _built(oracles.metric_space_literal, points, table, tol),
    )


@pytest.mark.parametrize("tol", [0, 1e-9])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_scaled_tables_hold_what_the_definition_gives(tol, data):
    """A user's table, with INF, ints, Fractions, "num/den" strings and up to
    two defects, raises the first fault of `oracles.metric_space_literal` or
    reads as its table; `==` against a second space, on either backend,
    compares points and values, and equal spaces hash alike."""
    table = data.draw(user_tables(tol))
    new, want = _both(table, tol)
    if _failed(want):
        assert new == want
        return
    _same_table(new, new.points, want, tol)
    other_tol = data.draw(st.sampled_from([0, 1e-9]))
    other = data.draw(st.one_of(st.just(table), user_tables(other_tol, defects=0)))
    new2, want2 = _both(other, other_tol)
    if _failed(want2):
        assert new2 == want2
        return
    equal = new.points == new2.points and want == want2
    for a, b in ((new, new2), (new2, new)):
        assert (a == b) is equal and (a != b) is not equal
    if equal:
        assert hash(new) == hash(new2)


def _valid(draw, tol, min_points=0):
    """A valid table's space and its table (a float table may overflow, both alike)."""
    new, table = _both(draw(user_tables(tol, defects=0, min_points=min_points)), tol)
    assert new == table if _failed(table) else not _failed(new)
    assume(not _failed(table))
    return new, table


def _images(draw, src, dst):
    """Image positions of a map src -> dst: random, or a constant one when
    those expand a pair (a constant map never does)."""
    images = tuple(draw(st.lists(st.integers(0, dst.size - 1), min_size=src.size, max_size=src.size)))
    if _failed(_pair_check(src, dst, images)):
        return (draw(st.integers(0, dst.size - 1)),) * src.size
    return images


def _pair_check(src, dst, images):
    """None, or the first expanding pair's error as `oracles.map_literal` words it."""
    table = {p: dst.points[i] for p, i in zip(src.points, images)}
    got = _built(oracles.map_literal, src, dst, table, oracles.LIPSCHITZ_WORDS)
    return got if _failed(got) else None


def _shortest(table):
    """Shortest-path distances over a table whose INF is no edge."""
    d = [list(r) for r in table]
    n = len(d)
    for m in range(n):
        for i in range(n):
            for j in range(n):
                if INF not in (d[i][m], d[m][j]) and d[i][m] + d[m][j] < d[i][j]:
                    d[i][j] = d[i][m] + d[m][j]
    return d


@pytest.mark.parametrize("tol", [0, 1e-9])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_constructions_on_scaled_tables_hold_what_the_definitions_give(tol, data):
    """The pair check on any images (also across backends and across dens),
    and scale, equalizer, coequalizer (space, projection and gaps),
    metric_reflection, hom and hom_distance, and curry and uncurry, raise the
    definition's first fault or build the tables and image positions their
    definitions give."""
    draw = data.draw
    t, _ = _valid(draw, tol, min_points=1)
    s, _ = _valid(draw, draw(st.sampled_from([tol, 0, 1e-9])))
    images = tuple(draw(st.lists(st.integers(0, t.size - 1), min_size=s.size, max_size=s.size)))
    got = _built(LipschitzMap._from_images, s, t, images)
    assert (got if _failed(got) else None) == _pair_check(s, t, images)
    r = draw(st.one_of(st.integers(-1, 4), st.sampled_from(["3/2", "0", "x", F(7, 3), 0.5, True])))
    new = _built(scale, t, r)
    factor = _built(scalar.coerce, r, t.backend)
    if _failed(factor) or factor <= 0:
        assert new == (factor if _failed(factor) else (ValueError, "scale factor must be positive"))
    else:
        want = _built(oracles.metric_space_literal, t.points,
                      [[INF if d is INF else d * factor for d in row] for row in t.dist], t.tol)
        assert new == want if _failed(want) else _same_table(new, t.points, want, t.tol) is None
    s, _ = _valid(draw, tol)
    fi, gi = (_images(draw, s, t) for _ in "fg")
    f, g = (LipschitzMap._from_images(s, t, i) for i in (fi, gi))
    sub, incl = equalizer(f, g)
    pos = tuple(i for i, (u, v) in enumerate(zip(fi, gi)) if u == v)
    _same_table(sub, [s.points[i] for i in pos], [[s.dist[i][j] for j in pos] for i in pos], s.tol)
    assert incl._images == pos
    res = coequalizer(f, g)
    classes = oracles.classes_literal(t.points, zip(fi, gi))
    where = {p: k for k, c in enumerate(classes) for p in c}
    k = len(classes)
    step = [[0 if a == b else INF for b in range(k)] for a in range(k)]
    for p, row in zip(t.points, t.dist):
        for q, d in zip(t.points, row):
            a, b = where[p], where[q]
            if a != b and d < step[a][b]:
                step[a][b] = d
    chain = _shortest(step)
    _same_table(res.space, classes, chain, t.tol)
    assert res.projection._images == tuple(where[p] for p in t.points)
    gaps = oracles.one_step_gaps_literal(t, classes, chain)
    assert [(a, b, _bits(c), _bits(d)) for a, b, c, d in res.one_step_gaps] == [
        (a, b, _bits(c), _bits(d)) for a, b, c, d in gaps
    ]
    assert all(v is INF for gap in res.one_step_gaps for v in gap[2:] if v == INF)
    quot, proj = metric_reflection(t)
    n = t.size
    zero = [(i, j) for i in range(n) for j in range(i + 1, n) if scalar.eq(t.dist[i][j], 0, t.tol)]
    classes = oracles.classes_literal(t.points, zero)
    first = [t.points.index(c[0]) for c in classes]
    _same_table(quot, classes, [[t.dist[i][j] for j in first] for i in first], t.tol)
    where = {p: k for k, c in enumerate(classes) for p in c}
    assert proj._images == tuple(where[p] for p in t.points)
    family = [fi, gi] + [_images(draw, s, t) for _ in range(draw(st.integers(0, 2)))]
    maps = [LipschitzMap._from_images(s, t, i) for i in family]
    hr = hom(maps)
    _same_table(hr.space, range(len(maps)), [
        [0 if a is b else oracles.hom_distance_literal(a, b)[0] for b in maps] for a in maps
    ], t.tol)
    d, witness = hom_distance(f, g)
    want_d, want_witness = oracles.hom_distance_literal(f, g)
    assert (_bits(d), witness) == (_bits(want_d), want_witness)
    x, _ = _valid(draw, tol)
    y, _ = _valid(draw, tol)
    xy = tensor(x, y)
    _same_table(xy, list(itertools.product(x.points, y.points)), oracles.tensor_table_literal(x, y), tol)
    # h's source: the tensor, the same table on the other backend, or another space
    other_tol = 1e-9 if tol == 0 else 0
    sources = [xy, _both(xy.dist, other_tol, xy.points)[0], _both(t.dist, tol)[0]]
    src = draw(st.sampled_from(sources))
    if _failed(src):
        return
    hi = _images(draw, src, t)
    h = LipschitzMap._from_images(src, t, hi)
    new = _built(curry, h, x, y)
    if src.points != xy.points or src.dist != xy.dist:
        assert new == (errors.DomainMismatch, "map source is not the tensor of the given spaces")
        return
    m = y.size
    per = [tuple(hi[i * m:(i + 1) * m]) for i in range(x.size)]
    faults = [_pair_check(y, t, images) for images in per]
    if any(faults) or not x.size:
        assert new == next((fault for fault in faults if fault), (ValueError, "hom needs at least one map"))
        return
    assert [p._images for p in new.per_point.values()] == per
    members = list(new.per_point.values())
    _same_table(new.hom_result.space, range(x.size), [
        [0 if a is b else oracles.hom_distance_literal(a, b)[0] for b in members] for a in members
    ], t.tol)
    assert new.outer._images == range(x.size)
    back = _built(uncurry, new.per_point, x, y)
    images = tuple(itertools.chain.from_iterable(per))
    fault = _pair_check(xy, t, images)
    assert back == fault if fault else (back.src, back._images) == (xy, images)


@pytest.mark.parametrize(
    "src_gap, dst_gap",
    [(F(1, 2), 1), (1, F(1, 2)), (F(2, 3), F(3, 4)), (F(3, 4), F(2, 3)), (INF, 1), (1, INF)],
)
def test_the_pair_check_compares_across_dens(src_gap, dst_gap):
    """Two exact tables over different dens: a map expands exactly when the
    pair loop says so, with its message."""
    src, dst = two_point(src_gap), two_point(dst_gap)
    got = _built(LipschitzMap._from_images, src, dst, (0, 1))
    want = _pair_check(src, dst, (0, 1))
    assert (got if _failed(got) else None) == want
    assert _failed(want) is (dst_gap > src_gap)


def test_float_reflection_collapses_pairs_within_tol():
    space = FinPseudometricSpace("abc", [[0, 1e-10, 1], [1e-10, 0, 1], [1, 1, 0]], tol=1e-9)
    quot, proj = metric_reflection(space)
    _same_table(quot, [("a", "b"), ("c",)], [[0, 1], [1, 0]], 1e-9)
    assert proj._images == (0, 0, 1)


#: 2^61 - 1 on 64-bit builds: a den it divides has no inverse in the hash rule
_MODULUS = sys.hash_info.modulus


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, 2, 7, 12, _MODULUS, 3 * _MODULUS, _MODULUS**2, 2**61]),
    st.lists(st.tuples(st.integers(0, 10**20), st.booleans()), min_size=1, max_size=4),
)
def test_metric_hashes_are_the_old_hashes(den, points):
    """`hash(space)` is the parent's `hash((points, dist))` on exact tables
    (points on a line at k/den, some at infinity) whose den the hash modulus
    may divide, and on the same tables as floats; equal spaces across
    backends hash alike."""
    pos = [INF if far else F(k, den) for k, far in points]
    n = len(pos)
    table = [
        [0 if i == j else INF if INF in (pos[i], pos[j]) else abs(pos[i] - pos[j]) for j in range(n)]
        for i in range(n)
    ]
    exact = FinPseudometricSpace(range(n), table)
    rounded = [[v if v is INF else float(v) for v in r] for r in table]
    # each distance rounds on its own, so the float copy is a pseudometric only within
    # a few units in the last place of its largest distance: a tol of 1e-9 alone fails
    # the triangle check on points near 10^8 and beyond
    largest = max([v for r in rounded for v in r if v is not INF], default=0)
    floats = FinPseudometricSpace(range(n), rounded, tol=1e-9 * (1 + largest))
    for space in (exact, floats):
        assert hash(space) == hash((space.points, space.dist))
    if exact == floats:
        assert hash(exact) == hash(floats)
