import json
import random
from copy import copy
from fractions import Fraction as F
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catprob import diagram, errors, finprob, jsonio, scalar
from catprob.diagram import (
    MAX_DYADIC_DEPTH,
    ConsistentMeasureFamily,
    DiagramReport,
    DyadicGround,
    FiltrationDiagram,
    Martingale,
    cauchy_certificate,
    dyadic_error,
    dyadic_experiment,
    dyadic_report,
    induced_martingale,
    is_martingale,
    isometry_report,
    kolmogorov_extend,
    make_dyadic,
    martingale_limit,
    restrict_measure,
    rn_family,
    second_moment_gap,
    second_moment_identity_report,
    validate,
)
from catprob.finmeas import FiniteMeasure, base_measure, make_measure, rn_derivative, tv_distance, zero_measure
from catprob.finprob import (
    MeasurePreservingMap,
    identity_map,
    make_map,
    make_space,
    uniform_space,
)
from catprob.metcat import FinPseudometricSpace
from catprob.finrv import (
    FiniteRandomVariable,
    cond_exp,
    constant_rv,
    l1_distance,
    make_rv,
    pullback,
    second_moment,
)
from catprob.sampling import (
    rand_commuting_triangle,
    rand_measure,
    rand_refining_chain,
    rand_rv,
    rand_space,
)

from oracles import (
    chain_order_literal,
    composite_fill_literal,
    covering_pairs_literal,
    diagram_problems_literal,
    dyadic_tables_per_cell,
    integral_abs_by_refinement,
    is_martingale_literal,
    level_family_literal,
    pointwise_identities_literal,
    abs_dev_integral_literal,
    integral_literal,
    interval_average_literal,
    top_level_literal,
    value_at_literal,
)
from test_jsonio import _diagram_document


@st.composite
def seeded_rng(draw):
    return random.Random(draw(st.integers(0, 2**32 - 1)))


def two_chain_over_uniform4():
    """1-space <- 2-space <- uniform-4 (the pairing chain), top at the 4-space."""
    u4, u2, u1 = uniform_space(4), uniform_space(2), uniform_space(1)
    pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
    collapse = make_map(u2, u1, {0: 0, 1: 0})
    return FiltrationDiagram.chain([u1, u2, u4], [collapse, pair])


IDENTITY = DyadicGround.affine(0, 1)


@st.composite
def dyadic_grounds(draw):
    """Grounds with 2-5 breakpoints: dyadic ones land on grid points at fine
    levels and inside cells at coarse ones, others stay inside cells; values
    with zeros make f - c change sign inside a cell."""
    dyadic = st.integers(1, 63).map(lambda j: F(j, 64))
    other = st.sampled_from([3, 5, 7, 9, 11, 21]).flatmap(
        lambda d: st.integers(1, d - 1).map(lambda j: F(j, d))
    )
    inner = draw(st.sets(st.one_of(dyadic, other), max_size=3))
    bps = [0] + sorted(inner) + [1]
    value = st.one_of(st.just(0), st.builds(F, st.integers(0, 12), st.integers(1, 6)))
    return DyadicGround(bps, [draw(value) for _ in bps])


class TestValidate:
    def test_single_space_valid(self):
        u2 = uniform_space(2)
        d = FiltrationDiagram([0], [], {0: u2}, {}, top=0)
        assert validate(d).ok

    def test_dyadic_three_chain_valid(self):
        d, _ = make_dyadic(IDENTITY, 2)
        assert validate(d).ok

    def test_corrupted_connect_reports_triple(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        ident = make_map(u2, u2, {0: 0, 1: 1})
        swapped = make_map(u4, u2, {0: 1, 1: 1, 2: 0, 3: 0})
        d = FiltrationDiagram(
            [0, 1, 2], [(0, 1), (1, 2)], {0: u2, 1: u2, 2: u4}, {(0, 1): ident, (1, 2): pair}, top=2
        )
        # the constructor rejects such a table, so swap it into a copy of a valid diagram
        bad = object.__new__(FiltrationDiagram)
        for name in FiltrationDiagram.__slots__:
            setattr(bad, name, getattr(d, name))
        bad.connect = MappingProxyType({**d.connect, (0, 2): swapped})
        report = validate(bad)
        assert not report.ok
        assert report.problems == ("functoriality fails at 0 <= 1 <= 2 on atom 0",)

    def test_constructor_rejects_corrupted(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        ident = make_map(u2, u2, {0: 0, 1: 1})
        swapped = make_map(u4, u2, {0: 1, 1: 1, 2: 0, 3: 0})
        with pytest.raises(errors.InvalidDiagram, match="functoriality fails"):
            FiltrationDiagram(
                [0, 1, 2],
                [(0, 1), (1, 2)],
                {0: u2, 1: u2, 2: u4},
                {(0, 1): ident, (1, 2): pair, (0, 2): swapped},
                top=2,
            )

    def test_constructor_rejects_non_identity_reflexive_connect(self):
        s = make_space(["a", "b", "n"], [F(1, 2), F(1, 2), 0])
        endo = make_map(s, s, {"a": "a", "b": "b", "n": "a"})  # idempotent, not id
        with pytest.raises(errors.InvalidDiagram, match="reflexive connect at 0 is not the identity"):
            FiltrationDiagram([0], [], {0: s}, {(0, 0): endo}, top=0)

    def test_constructor_rejects_order_pair_on_non_element(self):
        u2 = uniform_space(2)
        ident = identity_map(u2)
        with pytest.raises(errors.InvalidDiagram, match="non-elements"):
            FiltrationDiagram([0, 1], [(0, 1), (0, 5)], {0: u2, 1: u2}, {(0, 1): ident})

    def test_constructor_rejects_wrong_endpoint_map_whose_atoms_do_not_read(self):
        # the full scan cannot read the map on level b's atoms: only its endpoints are reported
        stray = make_map(uniform_space([5, 6]), uniform_space([0, 1]), {5: 0, 6: 1})
        with pytest.raises(errors.InvalidDiagram) as exc:
            FiltrationDiagram(
                ["a", "b"],
                [("a", "b")],
                {"a": uniform_space([0, 1]), "b": uniform_space(["x", "y"])},
                {("a", "b"): stray},
            )
        assert str(exc.value) == "connecting map 'a' <= 'b' has wrong endpoints"

    @pytest.mark.parametrize("pair", [(1, 0), (0, 7)])
    def test_constructor_rejects_connect_outside_order(self, pair):
        u2 = uniform_space(2)
        ident = identity_map(u2)
        with pytest.raises(errors.InvalidDiagram, match="outside the order"):
            FiltrationDiagram([0, 1], [(0, 1)], {0: u2, 1: u2}, {(0, 1): ident, pair: ident})


def _closed(elements, pairs):
    """Reflexive-transitive closure of the order pairs, by repeated joining."""
    leq = {(e, e) for e in elements} | set(pairs)
    while True:
        more = {(i, k) for (i, j) in leq for (j2, k) in leq if j == j2} - leq
        if not more:
            return frozenset(leq)
        leq |= more


def _raw_diagram(elements, leq, spaces, connect, top):
    """A diagram object with the given fields, built without validation."""
    d = object.__new__(FiltrationDiagram)
    d.elements, d.leq, d.top = tuple(elements), frozenset(leq), top
    d.spaces, d.connect = MappingProxyType(dict(spaces)), MappingProxyType(dict(connect))
    d.backend, d.tol = d.spaces[d.elements[0]].backend, max(s.tol for s in spaces.values())
    d.covers = covering_pairs_literal(d)
    rank = {e: t for t, e in enumerate(d.elements)}
    above = {e: {j for i, j in d.leq if i == e} for e in d.elements}
    d._order = above, sorted(d.leq, key=lambda p: (rank[p[0]], rank[p[1]]))
    return d


@st.composite
def doctored_diagrams(draw):
    """(diagram object, constructor arguments) on 1-5 elements.

    Posets: chains, diamonds, several elements under one top, and random
    orders.  Every level is the uniform space on m atoms, each element e
    carries a permutation g_e, and f_ij = g_i^-1 . g_j, so the maps commute;
    half the tables give the covering pairs only.  Then one to three
    doctorings, some of which leave it valid: a corrupted, deleted, wrongly
    ended or stray map, a non-identity reflexive map, a float level, a
    reversed order pair (non-antisymmetric leq) or a top that is not the
    maximum.
    The constructor arguments give the same order (a reversed pair is one
    more generator) and the same table, where a deleted map is left for the
    constructor to derive.
    """
    n = draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["chain", "diamond", "fan", "random"]))
    if shape == "diamond" and n >= 3:
        gens = [(0, t) for t in range(1, n - 1)] + [(t, n - 1) for t in range(1, n - 1)]
    elif shape == "fan":
        gens = [(t, n - 1) for t in range(n - 1)]
    elif shape == "random":
        gens = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
        gens = [(a, b) for a, b in gens if a < b]
    else:
        gens = [(t, t + 1) for t in range(n - 1)]
    top = n - 1
    if shape == "random" and draw(st.booleans()):
        top = None  # possibly without upper bounds
    elif shape == "random":
        gens += [(t, top) for t in range(n - 1)]
    elements = draw(st.permutations(range(n)))  # rank order differs from the order
    m = draw(st.integers(1, 4))
    space = uniform_space(m)
    perms = {e: draw(st.permutations(range(m))) for e in elements}
    inverse = {e: {b: a for a, b in enumerate(p)} for e, p in perms.items()}
    leq = _closed(elements, gens)
    spaces = {e: space for e in elements}
    connect = {
        (i, j): make_map(space, space, {a: inverse[i][perms[j][a]] for a in range(m)})
        for (i, j) in leq
    }
    if draw(st.booleans()):  # give the covering pairs only, as a chain gives its steps
        for i, j in leq:
            if i != j and any(k not in (i, j) and (i, k) in leq and (k, j) in leq for k in elements):
                del connect[(i, j)]
    pairs = sorted(leq)
    below = [(i, j) for i, j in pairs if i != j] or pairs
    ops = ["corrupt"] * 4 + ["delete", "endpoints", "reflexive", "stray", "float", "leq", "top"]
    for op in draw(st.lists(st.sampled_from(ops), min_size=1, max_size=3)):  # mostly corruptions
        i, j = draw(st.sampled_from(pairs if op in ("delete", "reflexive") else below))
        shift = draw(st.integers(1, max(1, m - 1)))  # moves every atom when m > 1
        perm = [(a + shift) % m for a in range(m)]
        if op == "corrupt" and (i, j) in connect and i != j:
            old = connect[(i, j)].assign
            connect[(i, j)] = make_map(space, space, {a: perm[old[a]] for a in range(m)})
        elif op == "delete":
            connect.pop((i, j), None)
        elif op == "endpoints":
            connect[(i, j)] = identity_map(uniform_space(m, backend=scalar.FLOAT))
        elif op == "reflexive":
            connect[(j, j)] = make_map(space, space, dict(enumerate(perm)))
        elif op == "stray" and i != j:
            connect[(j, i)] = make_map(space, space, dict(enumerate(perm)))
        elif op == "float":
            spaces[j] = uniform_space(m, backend=scalar.FLOAT)
        elif op == "leq" and i != j:
            leq = _closed(elements, set(leq) | {(j, i)})
            gens = gens + [(j, i)]
        elif op == "top":
            top = draw(st.sampled_from(list(elements) + [n]))
    d = _raw_diagram(elements, leq, spaces, connect, top)
    return d, (elements, gens, spaces, connect, top)


class TestCoverTriples:
    @settings(max_examples=500, deadline=None)
    @given(doctored_diagrams())
    def test_validate_matches_full_scan_oracle(self, case):
        d, args = case
        expected = diagram_problems_literal(d)
        assert validate(d) == DiagramReport(ok=not expected, problems=expected)
        # the constructor reports what the old fill's whole table reported, or
        # raises what the old fill raised
        elements, _, spaces, connect, top = args
        try:
            table, _ = composite_fill_literal(elements, d.leq, spaces, connect)
        except errors.CatprobError as exc:
            with pytest.raises(errors.CatprobError) as info:
                FiltrationDiagram(*args)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            return
        expected = diagram_problems_literal(_raw_diagram(elements, d.leq, spaces, table, top))
        try:
            built = FiltrationDiagram(*args)
        except errors.InvalidDiagram as exc:
            assert exc.problems == expected
            assert str(exc) == "; ".join(expected[:6])
        else:
            assert expected == ()
            assert built.covering_pairs() == covering_pairs_literal(built)
            assert list(built.connect.items()) == list(table.items())

    def test_covers_match_literal_on_built_diagrams(self):
        u1, u2 = uniform_space(1), uniform_space(2)
        to1 = make_map(u2, u1, {0: 0, 1: 0})
        diamond = FiltrationDiagram(
            ["b", "l", "r", "t"],
            [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")],
            {"b": u1, "l": u2, "r": u2, "t": u2},
            {("b", "l"): to1, ("b", "r"): to1, ("l", "t"): identity_map(u2),
             ("r", "t"): identity_map(u2)},
            top="t",
        )
        for d in (diamond, make_dyadic(IDENTITY, 4)[0], two_chain_over_uniform4()):
            assert d.covers == covering_pairs_literal(d)
        assert diamond.covers == (("b", "l"), ("b", "r"), ("l", "t"), ("r", "t"))

    def test_full_scan_only_for_a_failing_diagram(self, monkeypatch):
        # a valid chain is decided on its cover triples alone; the triple x
        # atom scan runs once, and only to word the report of a failing one
        calls = {"n": 0}
        full_scan = diagram._functoriality_problems

        def counted(d):
            calls["n"] += 1
            return full_scan(d)

        monkeypatch.setattr(diagram, "_functoriality_problems", counted)
        d, _ = make_dyadic(IDENTITY, 10)
        assert calls["n"] == 0
        bad = object.__new__(FiltrationDiagram)
        for name in FiltrationDiagram.__slots__:
            setattr(bad, name, getattr(d, name))
        swapped = {a: b ^ 1 for a, b in d.connect[(3, 10)].assign.items()}
        bad.connect = MappingProxyType(
            {**d.connect, (3, 10): make_map(d.spaces[10], d.spaces[3], swapped)}
        )
        report = validate(bad)
        assert calls["n"] == 1
        # the low bit the swap flips is dropped on the way to any level below 3
        assert report.problems == tuple(
            "functoriality fails at 3 <= %d <= 10 on atom 0" % j for j in range(4, 10)
        ) == diagram_problems_literal(bad)


def _count_calls(monkeypatch, owner, name, static=False):
    """A counter of the calls of `owner.name` from here on; `static` patches a static method."""
    calls = {"n": 0}
    original = getattr(owner, name)

    def counted(*args):
        calls["n"] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, staticmethod(counted) if static else counted)
    return calls


def _count_cover_reads(monkeypatch):
    """A counter of the triples the cover-triple scan compares: it composes
    the image positions of f_il and f_lk once for each."""
    return _count_calls(monkeypatch, diagram, "_then")


def _dyadic_steps(depth):
    spaces = [diagram.dyadic_space(t) for t in range(depth + 1)]
    steps = [
        make_map(spaces[t + 1], spaces[t], {j: j >> 1 for j in spaces[t + 1].atoms})
        for t in range(depth)
    ]
    return spaces, steps


class TestDerivedComposites:
    """Composites are derived on first read through the factor the old fill chose."""

    def test_dyadic_build_composes_nothing(self, monkeypatch):
        calls = _count_calls(monkeypatch, diagram, "compose")
        d, m = make_dyadic(IDENTITY, 10)
        assert calls["n"] == 0
        assert d.connect.via == {(i, k): k - 1 for k in range(11) for i in range(k - 1)}
        # a composite is built on its first read, through its factors, and kept
        assert d.to_top(0) == make_map(d.spaces[10], d.spaces[0], {a: 0 for a in d.spaces[10].atoms})
        assert calls["n"] == 9
        assert d.to_top(0) is d.connect[(0, 10)]
        assert calls["n"] == 9

    @pytest.mark.parametrize("depth", [5, 6])
    def test_chain_build_work_per_depth(self, monkeypatch, depth):
        # steps only: no composite built and no cover triple compared; with
        # every composite given, each of the depth(depth - 1)/2 triples is
        # compared, through one composition of image positions
        calls = _count_calls(monkeypatch, diagram, "compose")
        reads = _count_cover_reads(monkeypatch)
        spaces, steps = _dyadic_steps(depth)
        d = FiltrationDiagram.chain(spaces, steps)
        assert (calls["n"], reads["n"]) == (0, 0)
        full = dict(d.connect)
        assert calls["n"] == depth * (depth - 1) // 2
        calls["n"] = reads["n"] = 0
        FiltrationDiagram(range(depth + 1), list(d.covers), dict(enumerate(spaces)), full, top=depth)
        assert calls["n"] == 0
        assert reads["n"] == depth * (depth - 1) // 2

    def test_missing_cover_map_is_reported_not_recursed(self):
        u1, u2, u4 = uniform_space(1), uniform_space(2), uniform_space(4)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        args = ([0, 1, 2], [(0, 1), (1, 2)], {0: u1, 1: u2, 2: u4}, {(1, 2): pair}, 2)
        with pytest.raises(errors.InvalidDiagram) as info:
            FiltrationDiagram(*args)
        expected = ("missing connecting map for 0 <= 1", "missing connecting map for 0 <= 2")
        assert info.value.problems == expected
        assert str(info.value) == "; ".join(expected)
        table, _ = composite_fill_literal(args[0], _closed(args[0], args[1]), args[2], args[3])
        raw = _raw_diagram(args[0], _closed(args[0], args[1]), args[2], table, 2)
        assert diagram_problems_literal(raw) == expected

    def test_wrong_endpoints_fail_as_the_old_fill_did(self):
        u1, u2, u4, u8 = (uniform_space(n) for n in (1, 2, 4, 8))
        collapse = make_map(u2, u1, {0: 0, 1: 0})
        spaces = {0: u1, 1: u2, 2: u4}
        # a step into the wrong space: composing it raises
        into_u4 = make_map(u4, u4, {a: a for a in range(4)})
        with pytest.raises(errors.DomainMismatch) as info:
            FiltrationDiagram([0, 1, 2], [(0, 1), (1, 2)], spaces, {(0, 1): collapse, (1, 2): into_u4})
        assert str(info.value) == "codomain of the first map differs from domain of the second"
        # a step from the wrong space: the composite inherits it, and both are reported
        from_u8 = make_map(u8, u2, {a: a // 4 for a in range(8)})
        with pytest.raises(errors.InvalidDiagram) as info:
            FiltrationDiagram([0, 1, 2], [(0, 1), (1, 2)], spaces, {(0, 1): collapse, (1, 2): from_u8})
        assert info.value.problems == (
            "connecting map 0 <= 2 has wrong endpoints",
            "connecting map 1 <= 2 has wrong endpoints",
        )

    def test_non_chain_with_a_given_non_cover_map(self, monkeypatch):
        u1, u2 = uniform_space(1), uniform_space(2)
        to1, ident = make_map(u2, u1, {0: 0, 1: 0}), identity_map(u2)
        swap = make_map(u2, u2, {0: 1, 1: 0})
        order = [("b", "l"), ("b", "r"), ("l", "t"), ("r", "t")]
        # a diamond over one space: b -> l -> t commutes, b -> r -> t swaps
        spaces = {"b": u2, "l": u2, "r": u2, "t": u2}
        steps = {("b", "l"): ident, ("b", "r"): ident, ("l", "t"): ident, ("r", "t"): swap}
        for given in ({}, {("b", "t"): ident}):
            connect = {**steps, **given}
            table, _ = composite_fill_literal(["b", "l", "r", "t"], _closed("blrt", order), spaces, connect)
            raw = _raw_diagram("blrt", _closed("blrt", order), spaces, table, "t")
            with pytest.raises(errors.InvalidDiagram) as info:
                FiltrationDiagram("blrt", order, spaces, connect, top="t")
            assert info.value.problems == diagram_problems_literal(raw)
            assert info.value.problems == ("functoriality fails at 'b' <= 'r' <= 't' on atom 0",)
        # a valid diamond with its composite given: nothing is derived, and the
        # given map is compared on both cover triples through it
        spaces = {"b": u1, "l": u2, "r": u2, "t": u2}
        steps = {("b", "l"): to1, ("b", "r"): to1, ("l", "t"): ident, ("r", "t"): swap}
        reads = _count_cover_reads(monkeypatch)
        d = FiltrationDiagram("blrt", order, spaces, {**steps, ("b", "t"): to1}, top="t")
        assert d.connect.via == {}
        assert reads["n"] == 2

    def test_float_chain_derives_as_the_exact_one_and_compares_no_triple(self, monkeypatch):
        # the composites are built at construction, each once, through the
        # factors the exact chain derives, and `validate` compares none of them
        spaces, steps = _dyadic_steps(4)
        exact = FiltrationDiagram.chain(spaces, steps)
        floats = [uniform_space(s.size, backend=scalar.FLOAT) for s in spaces]
        steps = [make_map(floats[t + 1], floats[t], dict(f.assign)) for t, f in enumerate(steps)]
        calls = _count_calls(monkeypatch, diagram, "compose")
        reads = _count_cover_reads(monkeypatch)
        d = FiltrationDiagram.chain(floats, steps)
        assert (calls["n"], reads["n"]) == (6, 0)
        assert type(d.connect) is diagram._Connect and d.connect.via == exact.connect.via
        assert validate(d).ok and (calls["n"], reads["n"]) == (6, 0)
        assert list(d.connect) == list(exact.connect)
        assert all(d.connect[p].assign == exact.connect[p].assign for p in exact.connect)

    def test_float_chain_rejects_a_derived_composite_drifting_past_tol(self):
        # each step is within tol, the composite read through both is not
        # `validate` reads no derived composite, so only the build at construction sees it
        tol, drift = 1e-9, 0.8e-9
        a = make_space([0, 1], [0.5 + drift, 0.5 - drift], backend=scalar.FLOAT, tol=tol)
        b = make_space([0, 1], [0.5, 0.5], backend=scalar.FLOAT, tol=tol)
        c = make_space([0, 1], [0.5 - drift, 0.5 + drift], backend=scalar.FLOAT, tol=tol)
        f, g = make_map(a, b, {0: 0, 1: 1}), make_map(b, c, {0: 0, 1: 1})
        FiltrationDiagram.chain([c, b], [g])
        FiltrationDiagram.chain([b, a], [f])
        with pytest.raises(errors.NotMeasurePreserving) as info:
            FiltrationDiagram.chain([c, b, a], [g, f])
        assert str(info.value) == "atom 0 receives mass 0.5000000008, target weight is 0.4999999992"

    def test_equality_compares_cover_maps_only(self, monkeypatch):
        spaces, steps = _dyadic_steps(4)
        derived = FiltrationDiagram.chain(spaces, steps)
        full = dict(FiltrationDiagram.chain(spaces, steps).connect)
        given = FiltrationDiagram(range(5), [(t, t + 1) for t in range(4)], dict(enumerate(spaces)), full, top=4)
        calls = _count_calls(monkeypatch, diagram, "compose")
        assert given == derived and derived == given
        assert derived == FiltrationDiagram.chain(spaces, steps)
        assert calls["n"] == 0
        # the same spaces and order with another last step
        other = make_map(spaces[4], spaces[3], {j: j % 8 for j in spaces[4].atoms})
        assert FiltrationDiagram.chain(spaces, steps[:3] + [other]) != derived
        assert calls["n"] == 0


class TestInvalidDiagramError:
    def test_carries_every_problem(self):
        u1 = uniform_space(1)
        with pytest.raises(errors.InvalidDiagram) as info:
            FiltrationDiagram(range(5), [], {e: u1 for e in range(5)}, {})
        problems = tuple(
            "no upper bound for %r, %r" % (i, j) for i in range(5) for j in range(i + 1, 5)
        )
        assert info.value.problems == problems
        assert len(problems) == 10
        assert str(info.value) == "; ".join(problems[:6])


class TestInducedMartingale:
    def test_constant(self):
        d = two_chain_over_uniform4()
        m = induced_martingale(constant_rv(d.spaces[2], F(5, 7)), d)
        for i in d.elements:
            assert m.family[i] == constant_rv(d.spaces[i], F(5, 7))

    def test_two_chain_worked_example(self):
        d = two_chain_over_uniform4()
        x = make_rv(d.spaces[2], [0, 1, 2, 3])
        m = induced_martingale(x, d)
        assert m.family[0].values == (F(3, 2),)
        assert m.family[1].values == (F(1, 2), F(5, 2))
        assert m.family[2].values == (F(0), F(1), F(2), F(3))

    def test_no_top(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        d = FiltrationDiagram.chain([u2, u4], [pair], top=False)
        with pytest.raises(errors.NoTopElement):
            induced_martingale(make_rv(u4, [0, 1, 2, 3]), d)

    @settings(max_examples=30, deadline=None)
    @given(seeded_rng())
    def test_induced_always_consistent(self, rng):
        top = uniform_space(1 << rng.randint(1, 4))
        d = rand_refining_chain(rng, top, rng.randint(1, 3))
        x = rand_rv(rng, top, bound=2)
        m = induced_martingale(x, d)
        chk = is_martingale(m.family, d)
        assert chk.ok and chk.residual == 0


class TestIsMartingale:
    def test_mismatched_constants_fail(self):
        d = two_chain_over_uniform4()
        family = {
            0: constant_rv(d.spaces[0], 1),
            1: constant_rv(d.spaces[1], 2),
            2: constant_rv(d.spaces[2], 3),
        }
        assert not is_martingale(family, d).ok

    def test_perturbation_shows_in_residual(self):
        d = two_chain_over_uniform4()
        x = make_rv(d.spaces[2], [0, 1, 2, 3])
        m = induced_martingale(x, d)
        eps = F(1, 8)
        vals = list(m.family[1].values)
        vals[0] += eps
        family = dict(m.family)
        family[1] = make_rv(d.spaces[1], vals)
        chk = is_martingale(family, d)
        assert not chk.ok
        assert chk.residual >= eps * d.spaces[1].weight(0)

    def test_index_mismatch(self):
        d = two_chain_over_uniform4()
        with pytest.raises(errors.IndexMismatch):
            is_martingale({0: constant_rv(d.spaces[0], 1)}, d)


class TestSecondMomentGap:
    def test_zero_on_equal_indices(self):
        d = two_chain_over_uniform4()
        m = induced_martingale(make_rv(d.spaces[2], [0, 1, 2, 3]), d)
        assert second_moment_gap(m, 1, 1) == 0

    def test_worked_instance(self):
        d = two_chain_over_uniform4()
        x = make_rv(d.spaces[2], [0, 1, 2, 3])
        m = induced_martingale(x, d)
        assert second_moment(m.family[2]) == F(7, 2)
        assert second_moment(m.family[1]) == F(13, 4)
        assert second_moment_gap(m, 1, 2) == F(1, 4)
        lifted = pullback(m.family[1], d.connect[(1, 2)])
        increment = sum(
            w * (a - b) ** 2
            for w, a, b in zip(d.spaces[2].weights, x.values, lifted.values)
        )
        assert increment == F(1, 4)

    @settings(max_examples=30, deadline=None)
    @given(seeded_rng())
    def test_telescoping(self, rng):
        top = uniform_space(1 << rng.randint(2, 4))
        d = rand_refining_chain(rng, top, 2)
        m = induced_martingale(rand_rv(rng, top, bound=2), d)
        order = d.chain_order()
        i, j, k = order[0], order[1], order[2]
        assert second_moment_gap(m, i, k) == second_moment_gap(m, i, j) + second_moment_gap(m, j, k)

    @settings(max_examples=30, deadline=None)
    @given(seeded_rng())
    def test_total_gap_capped(self, rng):
        # bound r gives E[X^2] <= r E[X] <= r^2, capping the whole gap column
        top = uniform_space(1 << rng.randint(1, 4))
        d = rand_refining_chain(rng, top, 2)
        x = rand_rv(rng, top, bound=1)
        m = induced_martingale(x, d)
        order = d.chain_order()
        total = second_moment_gap(m, order[0], order[-1])
        from catprob.finrv import expectation

        assert total <= 1 - expectation(x) ** 2


class TestCauchyCertificate:
    def test_constant_certifies_immediately(self):
        d = two_chain_over_uniform4()
        m = induced_martingale(constant_rv(d.spaces[2], 1), d)
        cert = cauchy_certificate(m, F(1, 100))
        assert cert.index == 0

    def test_huge_tolerance_certifies_immediately(self):
        d, m = make_dyadic(IDENTITY, 6)
        cert = cauchy_certificate(m, 2)  # larger than the bound r = 1
        assert cert.index == 0

    def test_dyadic_certificate_index(self):
        # independent oracle: G(n) = 1/3 - 1/(12 * 4^n) for the identity ground
        d, m = make_dyadic(IDENTITY, 8)
        moments = {n: F(1, 3) - F(1, 12 * 4**n) for n in range(9)}
        for n in range(9):
            assert second_moment(m.family[n]) == moments[n]
        eps = F(1, 32)
        expected = min(n for n in range(9) if moments[8] - moments[n] <= eps**2)
        cert = cauchy_certificate(m, eps)
        assert cert.index == expected == 4

    def test_not_a_chain(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        first_bit = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        second_bit = make_map(u4, u2, {0: 0, 1: 1, 2: 0, 3: 1})
        d = FiltrationDiagram(
            ["l1", "l2", "t"],
            [("l1", "t"), ("l2", "t")],
            {"l1": u2, "l2": u2, "t": u4},
            {("l1", "t"): first_bit, ("l2", "t"): second_bit},
            top="t",
        )
        m = induced_martingale(make_rv(u4, [0, 1, 2, 3]), d)
        with pytest.raises(errors.NotAChain):
            cauchy_certificate(m, F(1, 4))

    @settings(max_examples=30, deadline=None)
    @given(seeded_rng())
    def test_certified_claim_holds(self, rng):
        # from the certificate index on, every pair of levels is eps-close in l1
        top = uniform_space(1 << rng.randint(2, 4))
        d = rand_refining_chain(rng, top, 3)
        m = induced_martingale(rand_rv(rng, top, bound=1), d)
        eps = F(1, rng.choice((2, 4, 8)))
        cert = cauchy_certificate(m, eps)  # topped chains always certify
        order = d.chain_order()
        start = order.index(cert.index)
        for a in range(start, len(order)):
            for b in range(a, len(order)):
                i, j = order[a], order[b]
                lifted = pullback(m.family[i], d.connect[(i, j)])
                assert l1_distance(lifted, m.family[j]) <= eps

    def test_topless_chain_reports_tail(self):
        d, m = make_dyadic(IDENTITY, 4)
        topless = FiltrationDiagram.chain(
            [d.spaces[t] for t in range(5)],
            [d.connect[(t, t + 1)] for t in range(4)],
            top=False,
        )
        bare = Martingale(topless, dict(m.family), bound=1)
        with pytest.raises(errors.NoCertificate) as err:
            cauchy_certificate(bare, F(1, 32))
        assert err.value.tail_gap == 1 - second_moment(m.family[4])


class TestMartingaleLimit:
    def test_roundtrip(self):
        d = two_chain_over_uniform4()
        x = make_rv(d.spaces[2], [0, 1, 2, 3])
        assert martingale_limit(induced_martingale(x, d)) == x

    def test_constant(self):
        d = two_chain_over_uniform4()
        m = induced_martingale(constant_rv(d.spaces[2], F(2, 3)), d)
        assert martingale_limit(m) == constant_rv(d.spaces[2], F(2, 3))

    def test_worked_family_inverts(self):
        d = two_chain_over_uniform4()
        family = {
            0: make_rv(d.spaces[0], ["3/2"]),
            1: make_rv(d.spaces[1], ["1/2", "5/2"]),
            2: make_rv(d.spaces[2], [0, 1, 2, 3]),
        }
        m = Martingale(d, family)
        assert martingale_limit(m) == make_rv(d.spaces[2], [0, 1, 2, 3])

    def test_canonical_on_null_atoms(self):
        top = make_space(["a", "b", "n"], [F(1, 2), F(1, 2), 0])
        u1 = uniform_space(1)
        collapse = make_map(top, u1, {"a": 0, "b": 0, "n": 0})
        d = FiltrationDiagram.chain([u1, top], [collapse])
        x = make_rv(top, [1, 2, 7])  # canonicalizes to (1, 2, 0)
        assert martingale_limit(induced_martingale(x, d)).values == (F(1), F(2), F(0))

    def test_forged_family_rejected(self):
        d = two_chain_over_uniform4()
        family = {
            0: constant_rv(d.spaces[0], 1),
            1: constant_rv(d.spaces[1], 2),
            2: constant_rv(d.spaces[2], 3),
        }
        with pytest.raises(errors.Inconsistent):
            Martingale(d, family)

    @settings(max_examples=30, deadline=None)
    @given(seeded_rng())
    def test_limit_uniqueness(self, rng):
        top = uniform_space(1 << rng.randint(1, 4))
        d = rand_refining_chain(rng, top, rng.randint(1, 3))
        x = rand_rv(rng, top, bound=2)
        y = rand_rv(rng, top, bound=2)
        mx, my = induced_martingale(x, d), induced_martingale(y, d)
        same = all(mx.family[i] == my.family[i] for i in d.elements)
        assert same == (x == y)

    @settings(max_examples=30, deadline=None)
    @given(seeded_rng())
    def test_squared_error_dominated_by_moment_gap(self, rng):
        # the residual second-moment gap bounds the squared l1 error and is
        # itself nonincreasing along the chain; that is the convergence driver
        top = uniform_space(1 << rng.randint(2, 4))
        d = rand_refining_chain(rng, top, 3)
        x = rand_rv(rng, top, bound=2)
        m = induced_martingale(x, d)
        order = d.chain_order()
        gaps = [second_moment_gap(m, i, order[-1]) for i in order]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        for i, gap in zip(order, gaps):
            err = l1_distance(pullback(m.family[i], d.to_top(i)), x)
            assert err * err <= gap
        assert l1_distance(pullback(m.family[order[-1]], d.to_top(order[-1])), x) == 0

    def test_l1_error_alone_is_not_monotone(self):
        # regression: plain l1 errors may bounce on the way down (conditional
        # expectation is the mean-square projection, not the l1-best one)
        u8 = uniform_space(8)
        x = make_rv(u8, ["7/8", "15/16", "9/16", "57/32", "11/32", "5/16", "5/4", "31/16"])
        mid = make_space(range(3), [F(1, 2), F(1, 8), F(3, 8)])
        coarse = make_space(range(2), [F(3, 8), F(5, 8)])
        bottom = uniform_space(1)
        to_mid = make_map(u8, mid, {0: 2, 1: 2, 2: 1, 3: 0, 4: 0, 5: 0, 6: 2, 7: 0})
        mid_to_coarse = make_map(mid, coarse, {0: 1, 1: 1, 2: 0})
        coarse_to_bottom = make_map(coarse, bottom, {0: 0, 1: 0})
        d = FiltrationDiagram.chain(
            [bottom, coarse, mid, u8], [coarse_to_bottom, mid_to_coarse, to_mid]
        )
        m = induced_martingale(x, d)
        errs = [
            l1_distance(pullback(m.family[i], d.to_top(i)), x) for i in d.chain_order()
        ]
        assert errs == [F(63, 128), F(947, 1920), F(169, 384), F(0)]
        assert errs[1] > errs[0]  # the bounce


class TestKolmogorovExtend:
    def test_roundtrip(self):
        d = two_chain_over_uniform4()
        rng = random.Random(3)
        mu = rand_measure(rng, d.spaces[2], bound=2)
        fam = restrict_measure(mu, d)
        assert kolmogorov_extend(fam) == mu

    def test_base_measure_family(self):
        d = two_chain_over_uniform4()
        fam = restrict_measure(base_measure(d.spaces[2]), d)
        assert kolmogorov_extend(fam) == base_measure(d.spaces[2])

    def test_rn_family_of_base_is_constant_one(self):
        d = two_chain_over_uniform4()
        fam = restrict_measure(base_measure(d.spaces[2]), d)
        m = rn_family(fam)
        for i in d.elements:
            assert m.family[i] == constant_rv(d.spaces[i], 1)

    def test_zero_family_gives_zero_martingale(self):
        d = two_chain_over_uniform4()
        fam = restrict_measure(zero_measure(d.spaces[2]), d)
        m = rn_family(fam)
        for i in d.elements:
            assert m.family[i] == constant_rv(d.spaces[i], 0)

    @settings(max_examples=30, deadline=None)
    @given(seeded_rng())
    def test_commuting_square(self, rng):
        top = uniform_space(1 << rng.randint(1, 3))
        d = rand_refining_chain(rng, top, rng.randint(1, 3))
        mu = rand_measure(rng, top, bound=2)
        fam = restrict_measure(mu, d)
        left = rn_derivative(kolmogorov_extend(fam))
        right = martingale_limit(rn_family(fam))
        assert left == right


class TestIsometryReport:
    def test_equal_martingales(self):
        d = two_chain_over_uniform4()
        x = make_rv(d.spaces[2], [0, 1, 2, 3])
        m = induced_martingale(x, d)
        rep = isometry_report(m, m, x, x)
        assert rep.sup_levels == 0 and rep.limit_distance == 0 and rep.ok

    def test_top_in_index_set_gives_equality(self):
        d = two_chain_over_uniform4()
        x = make_rv(d.spaces[2], [0, 1, 2, 3])
        y = make_rv(d.spaces[2], ["1/2", "1/2", "5/2", "5/2"])
        rep = isometry_report(
            induced_martingale(x, d), induced_martingale(y, d), x, y
        )
        assert rep.sup_levels == rep.limit_distance == F(1, 2)
        assert rep.ok

    def test_truncated_dyadic_tail_bound(self):
        # martingales truncated at depth 4, limits sampled at depth 8
        n_trunc, n_fine = 4, 8
        g_up, g_down = IDENTITY, DyadicGround.affine(1, 0)
        d4_up, m4_up = make_dyadic(g_up, n_trunc)
        _, m4_down = make_dyadic(g_down, n_trunc)
        _, m8_up = make_dyadic(g_up, n_fine)
        _, m8_down = make_dyadic(g_down, n_fine)
        x_up, x_down = m8_up.family[n_fine], m8_down.family[n_fine]
        fm = MeasurePreservingMap(
            x_up.space,
            d4_up.spaces[n_trunc],
            {j: j >> (n_fine - n_trunc) for j in x_up.space.atoms},
        )
        rep = isometry_report(m4_up, m4_down, x_up, x_down, finest_map=fm)
        assert rep.ok
        assert rep.tail_bound == 2 * F(1, 2 ** (n_trunc + 2))

    @settings(max_examples=25, deadline=None)
    @given(seeded_rng())
    def test_random_truncated_chains(self, rng):
        # drop the top level, keep the coarse prefix as its own diagram, and
        # bound the limit distance through the finest retained level
        top = uniform_space(1 << rng.randint(2, 4))
        d = rand_refining_chain(rng, top, 3)
        order = d.chain_order()
        keep = order[: len(order) - 1]
        sub = FiltrationDiagram.chain(
            [d.spaces[i] for i in keep],
            [d.connect[(keep[t], keep[t + 1])] for t in range(len(keep) - 1)],
            labels=keep,
            top=False,
        )
        x1 = rand_rv(rng, top, bound=2)
        x2 = rand_rv(rng, top, bound=2)
        m1 = Martingale(sub, {i: cond_exp(x1, d.to_top(i)) for i in keep})
        m2 = Martingale(sub, {i: cond_exp(x2, d.to_top(i)) for i in keep})
        rep = isometry_report(m1, m2, x1, x2, finest_map=d.to_top(keep[-1]))
        assert rep.ok

    def test_diagram_mismatch(self):
        d1 = two_chain_over_uniform4()
        u4, u2, u1 = uniform_space(4), uniform_space(2), uniform_space(1)
        swapped = make_map(u4, u2, {0: 1, 1: 1, 2: 0, 3: 0})
        collapse = make_map(u2, u1, {0: 0, 1: 0})
        d2 = FiltrationDiagram.chain([u1, u2, u4], [collapse, swapped])
        x = make_rv(u4, [0, 1, 2, 3])
        m1 = induced_martingale(x, d1)
        m2 = induced_martingale(x, d2)
        with pytest.raises(errors.DiagramMismatch):
            isometry_report(m1, m2, x, x)


class TestDyadic:
    def test_constant_ground_constant_martingale(self):
        d, m = make_dyadic(DyadicGround.constant(F(2, 5)), 3)
        for t in d.elements:
            assert m.family[t] == constant_rv(d.spaces[t], F(2, 5))

    def test_identity_depth3_midpoints(self):
        _, m = make_dyadic(IDENTITY, 3)
        assert m.family[3].values == tuple(F(2 * j + 1, 16) for j in range(8))

    def test_diagram_validates(self):
        d, _ = make_dyadic(DyadicGround([0, "1/3", 1], [0, 2, "1/2"]), 4)
        assert validate(d).ok

    def test_identity_error_closed_form(self):
        for n in range(7):
            assert dyadic_error(IDENTITY, n) == F(1, 2 ** (n + 2))

    def test_constant_error_zero(self):
        g = DyadicGround.constant(F(3, 7))
        assert all(dyadic_error(g, n) == 0 for n in range(5))

    def test_error_nonincreasing_for_affine(self):
        g = DyadicGround.affine(F(1, 3), F(9, 4))
        errs = [dyadic_error(g, n) for n in range(11)]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_error_matches_refinement_oracle(self):
        g = DyadicGround([0, "1/2", 1], [0, 1, 0])  # tent
        for n in (0, 1, 2, 3):
            _, m = make_dyadic(g, n)
            approx = integral_abs_by_refinement(g, list(m.family[n].values), n, refine=64)
            exact = dyadic_error(g, n)
            assert abs(float(exact) - float(approx)) < 1e-2 / (1 << n)

    def test_depth_guard(self):
        with pytest.raises(errors.DepthTooLarge):
            make_dyadic(IDENTITY, 25)

    @pytest.mark.parametrize("depth", [-1, 25, True, 2.0, MAX_DYADIC_DEPTH + 1])
    @pytest.mark.parametrize("engine", [make_dyadic, dyadic_error])
    def test_one_depth_guard(self, engine, depth):
        with pytest.raises(errors.DepthTooLarge, match="depth must be an int in 0..18"):
            engine(IDENTITY, depth)

    @settings(max_examples=40, deadline=None)
    @given(dyadic_grounds(), st.integers(0, 8))
    def test_engine_matches_per_cell_oracle(self, ground, depth):
        levels, errors_ = dyadic_tables_per_cell(ground, depth)
        _, m, engine_errors = dyadic_experiment(ground, depth)
        assert [list(m.family[t].values) for t in range(depth + 1)] == levels
        assert engine_errors == errors_
        _, m2 = make_dyadic(ground, depth)
        assert m2.family == m.family
        assert dyadic_error(ground, depth) == errors_[depth]

    def test_breakpoint_call_counts_do_not_double(self, monkeypatch):
        # work on the ground stays O(breakpoints x depth), not O(2^depth)
        calls = {"n": 0}
        for name in ("value_at", "abs_dev_integral", "interval_average"):
            method = getattr(DyadicGround, name)

            def counted(self, *args, _method=method):
                calls["n"] += 1
                return _method(self, *args)

            monkeypatch.setattr(DyadicGround, name, counted)
        g = DyadicGround([0, "1/3", "1/2", "5/7", 1], [0, 3, 1, "1/2", 2])
        counts = {}
        for depth in (9, 10):
            calls["n"] = 0
            make_dyadic(g, depth)
            dyadic_error(g, depth)
            counts[depth] = calls["n"]
        # per level and call: under `pieces` split cells, each one
        # abs_dev_integral plus two value_at per piece it meets
        pieces = len(g.breakpoints) - 1
        per_level = 2 * pieces * (1 + 2 * pieces)
        assert 0 < counts[9] <= per_level * (9 + 1)
        assert counts[10] - counts[9] <= per_level

    def test_bad_segments(self):
        with pytest.raises(errors.BadSegments):
            DyadicGround([0, "1/2"], [1, 1])  # does not reach 1
        with pytest.raises(errors.BadSegments):
            DyadicGround([0, "2/3", "1/3", 1], [0, 1, 1, 0])


class TestSecondMomentIdentities:
    def test_worked_instance(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        x = make_rv(u4, [0, 1, 2, 3])
        rep = second_moment_identity_report(x, identity_map(u4), pair, pair)
        assert rep.ok
        assert rep.fine_moment == F(7, 2)
        assert rep.coarse_moment == F(13, 4)
        assert rep.fine_moment - rep.coarse_moment == F(1, 4)
        assert rep.mean_square_increment == F(1, 4)

    @settings(max_examples=40, deadline=None)
    @given(seeded_rng())
    def test_randomized_triangles(self, rng):
        from catprob.sampling import rand_commuting_triangle

        omega = rand_space(rng)
        fine, coarse, step = rand_commuting_triangle(rng, omega)
        x = rand_rv(rng, omega, bound=2)
        assert second_moment_identity_report(x, fine, coarse, step).ok

    @pytest.mark.parametrize("backend", scalar.BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(rng=seeded_rng())
    def test_pointwise_checks_match_literal_reads(self, backend, rng):
        """With a lifted level kept, nudged at one atom or halved, the product
        and square expansions (compared on scaled ints, cross-multiplied) give
        what a check on scalars read atom by atom gives.  A halved exact level
        keeps its numerators over twice the denominator."""
        omega = rand_space(rng, backend=backend)
        fine, coarse, step = rand_commuting_triangle(rng, omega)
        x = rand_rv(rng, omega, bound=2)
        nudge = F(1, 7) if backend == scalar.EXACT else rng.choice([1e-12, 1e-3])
        seen = []

        def record(kernel, change=None):
            def run(f, s):
                out = kernel(f, s)
                if change == "nudge":
                    values = list(out.values)
                    values[rng.randrange(len(values))] += nudge
                    out = FiniteRandomVariable(out.space, values)
                elif change == "halve":
                    out = FiniteRandomVariable(out.space, [v / 2 for v in out.values])
                seen.append(out)
                return out
            return run

        sf_change, sg_change = (rng.choice([None, None, "nudge", "halve"]) for _ in "fg")
        lifts = iter([record(diagram.pullback, sf_change), record(diagram.pullback, sg_change)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(diagram, "cond_exp", record(diagram.cond_exp))
            mp.setattr(diagram, "pullback", lambda f, s: next(lifts)(f, s))
            rep = second_moment_identity_report(x, fine, coarse, step)
        want = pointwise_identities_literal(omega, fine, coarse, step, *seen)
        assert (rep.product_expansion, rep.square_expansion) == want

    def test_noncommuting_triangle_rejected(self):
        u4, u2 = uniform_space(4), uniform_space(2)
        pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
        swapped = make_map(u4, u2, {0: 1, 1: 1, 2: 0, 3: 0})
        x = make_rv(u4, [0, 1, 2, 3])
        with pytest.raises(errors.DomainMismatch):
            second_moment_identity_report(x, identity_map(u4), swapped, pair)


class TestFloatBackend:
    def test_pipeline_within_tolerance(self):
        from catprob import scalar

        rng = random.Random(4)
        top = rand_space(rng, min_atoms=6, max_atoms=8, backend=scalar.FLOAT)
        d = rand_refining_chain(rng, top, 2)
        x = rand_rv(rng, top, bound=2)
        m = induced_martingale(x, d)
        assert l1_distance(martingale_limit(m), x) <= scalar.DEFAULT_TOL
        mu = rand_measure(rng, top, bound=2)
        fam = restrict_measure(mu, d)
        from catprob.finmeas import tv_distance

        assert tv_distance(kolmogorov_extend(fam), mu) <= scalar.DEFAULT_TOL


class TestConsistentMeasureFamily:
    def test_inconsistent_family_rejected(self):
        d = two_chain_over_uniform4()
        bad = {
            0: base_measure(d.spaces[0]),
            1: base_measure(d.spaces[1]),
            2: zero_measure(d.spaces[2]),
        }
        with pytest.raises(errors.Inconsistent):
            ConsistentMeasureFamily(d, bad)

    def test_bound_inferred(self):
        d = two_chain_over_uniform4()
        fam = restrict_measure(base_measure(d.spaces[2]), d)
        assert fam.bound == 1

    def test_zero_bound_rejects_positive_mass(self):
        d = two_chain_over_uniform4()
        family = dict(restrict_measure(base_measure(d.spaces[2]), d).family)
        with pytest.raises(errors.Inconsistent) as err:
            ConsistentMeasureFamily(d, family, bound=0)
        assert str(err.value) == "level 0 exceeds bound * base weights"

    def test_zero_bound_accepts_the_zero_family(self):
        d = two_chain_over_uniform4()
        fam = ConsistentMeasureFamily(d, {i: zero_measure(d.spaces[i]) for i in d.elements}, 0)
        assert fam.bound == 0 and kolmogorov_extend(fam) == zero_measure(d.spaces[2])


#: the faults a doctored family can carry, one or more at a time
FAULTS = ("index", "space", "bound", "cover")


@st.composite
def doctored_families(draw):
    """(is a martingale, diagram, family, bound): a consistent family of
    either side over a random chain, then up to two faults from FAULTS."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    backend = draw(st.sampled_from(scalar.BACKENDS))
    top = rand_space(rng, min_atoms=2, max_atoms=6, backend=backend)
    d = rand_refining_chain(rng, top, rng.randint(1, 3))
    martingale = draw(st.booleans())
    if martingale:
        levels = dict(induced_martingale(rand_rv(rng, top, bound=2), d).family)
    else:
        levels = dict(restrict_measure(rand_measure(rng, top, bound=2), d).family)
    family, bound = dict(levels), None
    quarter = scalar.coerce("1/4", backend)
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2, unique=True)):
        i, j = draw(st.permutations(d.elements))[:2]
        if fault == "index" and draw(st.booleans()):
            del family[i]
        elif fault == "index":
            family["stray"] = levels[j]
        elif fault == "space":
            family[i] = levels[j]
        elif fault == "bound":
            bound = draw(st.sampled_from(["-1/2", "0", "1/8", "1/2", "1", "2"]))
        else:  # off by a quarter on the heaviest atom: inconsistent on a cover
            x = levels[i]
            a = max(range(x.space.size), key=x.space.weights.__getitem__)
            if martingale:
                values = list(x.values)
                values[a] += quarter
                family[i] = FiniteRandomVariable(x.space, values)
            else:
                mass = list(x.mass)
                mass[a] += quarter * x.space.weights[a]
                family[i] = FiniteMeasure(x.space, mass)
    return martingale, d, family, bound


def _defined(martingale):
    """The definition of a martingale (a measure family unless `martingale`), as a constructor."""
    return lambda d, family, bound: level_family_literal(martingale, d, family, bound)


def _outcome(build, d, family, bound):
    """(type, message) of the exception, else (family, bound type, bound, repr)."""
    try:
        built = build(d, family, bound)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(built, tuple):
        family, bound, text = built
    else:
        family, bound, text = built.family, built.bound, repr(built)
    return dict(family), type(bound), bound, text


class TestLevelFamiliesHoldWhatTheDefinitionGives:
    """Both family types against `oracles.level_family_literal`: the same
    exception type and message, or the same family, bound and repr."""

    @settings(max_examples=300, deadline=None)
    @given(doctored_families())
    def test_constructors_match(self, case):
        martingale, d, family, bound = case
        new = Martingale if martingale else ConsistentMeasureFamily
        assert _outcome(new, d, family, bound) == _outcome(_defined(martingale), d, family, bound)

    def test_top_to_levels_and_back_keep_their_messages(self):
        d = two_chain_over_uniform4()
        topless = FiltrationDiagram.chain(
            [d.spaces[t] for t in range(3)], [d.connect[(t, t + 1)] for t in range(2)], top=False
        )
        x, mu = make_rv(d.spaces[2], [0, 1, 2, 3]), base_measure(d.spaces[2])
        m, fam = Martingale(topless, induced_martingale(x, d).family), restrict_measure(mu, d)
        topless_fam = ConsistentMeasureFamily(topless, fam.family)
        top_needed = "%s needs a designated top element"
        wrong_space = "%s does not live on the top space"
        cases = [
            (lambda: induced_martingale(x, topless), top_needed % "induced martingale"),
            (lambda: restrict_measure(mu, topless), top_needed % "restriction"),
            (lambda: martingale_limit(m), top_needed % "martingale limit"),
            (lambda: kolmogorov_extend(topless_fam), top_needed % "extension"),
            (lambda: induced_martingale(m.family[1], d), wrong_space % "random variable"),
            (lambda: restrict_measure(fam.family[1], d), wrong_space % "measure"),
        ]
        for call, message in cases:
            with pytest.raises(errors.CatprobError) as err:
                call()
            assert str(err.value) == message


def test_dyadic_runs_read_no_step_map_table(monkeypatch, capsys):
    """The dyadic engine and `catprob martingale` check each step map's
    pushforward and read the maps by image position: no `assign` is built."""
    from catprob.cli import main

    built = []
    table = MeasurePreservingMap.assign
    monkeypatch.setattr(MeasurePreservingMap, "assign", property(lambda m: built.append(m) or table.fget(m)))
    checks = _count_calls(monkeypatch, MeasurePreservingMap, "_check", static=True)
    tent = DyadicGround([0, F(1, 2), 1], [0, 1, 0])
    diagram.dyadic_experiment(tent, 8)
    assert checks["n"] == 8  # each step map's pushforward is checked
    assert main(["martingale", "--ground", "tent", "--depth", "8"]) == 0
    assert built == [] and checks["n"] == 16
    d, _ = make_dyadic(tent, 2)
    assert dict(d.connect[(1, 2)].assign) == {0: 0, 1: 0, 2: 1, 3: 1}
    assert built == [d.connect[(1, 2)]]  # the counter sees a read


@st.composite
def random_relations(draw):
    """Constructor arguments (elements, generating pairs, spaces, connect, top)
    on 1-6 elements.  The generators are any relation, so the order may have
    cycles or pairs without an upper bound.  Every level is the uniform space
    on m atoms and f_ij = g_i^-1 . g_j, so the maps commute; each pair's map
    may be left out, and at times one map is corrupted or a stray one added."""
    n = draw(st.integers(1, 6))
    elements = tuple(draw(st.permutations(range(n))))
    gens = draw(st.lists(st.tuples(st.sampled_from(elements), st.sampled_from(elements)), max_size=9))
    m = draw(st.integers(1, 3))
    space = uniform_space(m)
    perms = {e: draw(st.permutations(range(m))) for e in elements}
    inverse = {e: {b: a for a, b in enumerate(p)} for e, p in perms.items()}
    connect = {}
    for i, j in sorted(_closed(elements, gens)):
        if draw(st.booleans()):
            connect[(i, j)] = make_map(space, space, {a: inverse[i][perms[j][a]] for a in range(m)})
    shift = {a: (a + 1) % m for a in range(m)}
    if connect and draw(st.booleans()):
        connect[draw(st.sampled_from(sorted(connect)))] = make_map(space, space, shift)
    if draw(st.booleans()):
        connect[(draw(st.sampled_from(elements)), draw(st.sampled_from(elements)))] = make_map(
            space, space, shift
        )
    top = draw(st.sampled_from(elements + (None, n)))
    return elements, gens, {e: space for e in elements}, connect, top


@st.composite
def chain_relations(draw):
    """Constructor arguments on a chain of 2-20 levels given by its steps,
    its elements listed in order or shuffled, with a few composite pairs
    given too; or a near-chain: a step left out (two chains), a step doubled
    back (a cycle), or one more element beside the chain or below a level.
    Maps as in `random_relations`: a step's map is left out at times, and
    at times one map is corrupted."""
    n = draw(st.integers(2, 20))
    levels = list(range(n))
    gens = list(zip(levels, levels[1:]))
    gens += draw(st.lists(st.tuples(st.sampled_from(levels), st.sampled_from(levels)).map(sorted).map(tuple), max_size=3))
    kind = draw(st.sampled_from(["chain", "chain", "chain", "gap", "cycle", "beside", "below"]))
    if kind == "gap":
        gens.remove(draw(st.sampled_from(gens[: n - 1])))
    elif kind == "cycle":
        gens.append(draw(st.sampled_from(gens[: n - 1]))[::-1])
    elif kind != "chain":
        levels.append(n)
        if kind == "below":
            gens.append((n, draw(st.sampled_from(levels[:-1]))))
    elements = tuple(draw(st.permutations(levels)) if draw(st.booleans()) else levels)
    m = draw(st.integers(1, 3))
    space = uniform_space(m)
    perms = {e: draw(st.permutations(range(m))) for e in elements}
    inverse = {e: {b: a for a, b in enumerate(p)} for e, p in perms.items()}
    given_pairs = [p for p in dict.fromkeys(gens) if p[0] != p[1]]
    dropped = draw(st.sampled_from(given_pairs)) if given_pairs and draw(st.integers(0, 3)) == 0 else None
    connect = {
        (i, j): make_map(space, space, {a: inverse[i][perms[j][a]] for a in range(m)})
        for i, j in given_pairs
        if (i, j) != dropped
    }
    if connect and draw(st.integers(0, 3)) == 0:
        shift = {a: (a + 1) % m for a in range(m)}
        connect[draw(st.sampled_from(sorted(connect)))] = make_map(space, space, shift)
    top = draw(st.sampled_from([max(elements), None, elements[0]]))
    return elements, gens, {e: space for e in elements}, connect, top


@settings(max_examples=400, deadline=None)
@given(st.one_of(random_relations(), chain_relations()))
def test_up_set_scans_match_the_definitions(case):
    """The closure's up-sets, the ranked order, `covers`, the derived pairs
    `connect.via` and every problem of `validate`, in order, as the closed
    order, the covering pairs, the composite fill and the diagram problems
    define them; the constructor raises those problems, or builds the
    diagram, whose maximum and chain test read as the pairs say."""
    elements, gens, spaces, connect, top = case
    leq = _closed(elements, gens)
    rank = {e: t for t, e in enumerate(elements)}
    ordered = sorted(leq, key=lambda p: (rank[p[0]], rank[p[1]]))
    above = diagram._closure(elements, gens)
    assert above == {i: {j for j in elements if (i, j) in leq} for i in elements}
    table = dict(connect)
    for e in elements:
        table.setdefault((e, e), identity_map(spaces[e]))
    full, via = composite_fill_literal(elements, leq, spaces, table)
    raw = _raw_diagram(elements, leq, spaces, full, top)
    assert diagram._covers(above, ordered) == covering_pairs_literal(raw)
    derived = diagram._derive(elements, ordered, set(table))
    assert list(derived.items()) == list(via.items())
    expected = diagram_problems_literal(raw)
    assert validate(raw).problems == expected
    # composites derived on first read, as the constructor holds them
    lazy = copy(raw)
    lazy.connect = diagram._Connect(dict(table), dict(derived))
    assert validate(lazy).problems == expected
    try:
        built = FiltrationDiagram(elements, gens, spaces, connect, top=top)
    except errors.InvalidDiagram as exc:
        assert exc.problems == expected
        assert str(exc) == "; ".join(expected[:6])
    else:
        assert expected == ()
        assert built.leq == leq and built._order == (above, ordered)
        assert built.maximum() == next((m for m in elements if all((i, m) in leq for i in elements)), None)
        assert built.is_chain() == all((i, j) in leq or (j, i) in leq for i in elements for j in elements)
        assert built.covers == covering_pairs_literal(built)
        assert list(built.connect.via.items()) == list(via.items())


def test_building_a_chain_calls_no_le(monkeypatch):
    """The order scans of a chain build read up-sets, never `FiltrationDiagram.le`."""
    calls = _count_calls(monkeypatch, FiltrationDiagram, "le")
    d, _ = make_dyadic(IDENTITY, 9)
    assert len(d.elements) == 10 and calls["n"] == 0
    assert d.le(0, 9) and calls["n"] == 1  # the counter sees a call


# -- the dyadic path on scaled ints, against today's code before it ---------------

#: every k/q strictly inside (0, 1) for q in 3, 5, 6, 7 (so 1/2 = 3/6 too)
_INNER_BREAKPOINTS = sorted({F(k, q) for q in (3, 5, 6, 7) for k in range(1, q)})


@st.composite
def non_dyadic_grounds(draw):
    """Piecewise-affine grounds with 0-4 breakpoints of dens 3, 5, 6 and 7
    and values of small dens, 0 included."""
    inner = draw(st.lists(st.sampled_from(_INNER_BREAKPOINTS), unique=True, max_size=4))
    bps = [F(0)] + sorted(inner) + [F(1)]
    value = st.one_of(st.just(F(0)), st.fractions(0, 5, max_denominator=12))
    return DyadicGround(bps, draw(st.lists(value, min_size=len(bps), max_size=len(bps))))


def _raised_or(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(non_dyadic_grounds(), st.one_of(st.integers(0, 12), st.sampled_from([-1, MAX_DYADIC_DEPTH + 1, True])))
def test_dyadic_tables_match_the_per_cell_tables(ground, depth):
    """Every level's averages, read over the level's den, and every l1 error
    by type and value (split cells included) are the per-cell tables'; a
    depth that is no int in 0..MAX_DYADIC_DEPTH raises DepthTooLarge."""
    got = _raised_or(diagram._dyadic_tables, ground, depth)
    if type(depth) is not int or not 0 <= depth <= MAX_DYADIC_DEPTH:
        assert got == (errors.DepthTooLarge, "depth must be an int in 0..%d, not %r" % (MAX_DYADIC_DEPTH, depth))
        return
    levels, errors_ = got
    want_levels, want_errors = dyadic_tables_per_cell(ground, depth)
    assert [[F(a, den) for a in averages] for den, averages in levels] == want_levels
    assert [(type(e), e) for e in errors_] == [(F, e) for e in want_errors]


#: arguments of the ground's integrals: grid points, breakpoints, points
#: outside [0, 1], and spellings `scalar.coerce` takes or rejects
_GROUND_ARGS = st.one_of(
    st.sampled_from([0, 1, F(1, 2), "1/3", F(5, 7), F(-1, 3), F(4, 3), 2, True, 0.5]),
    st.builds(F, st.integers(0, 16), st.sampled_from([1, 2, 4, 8, 16])),
    st.sampled_from(_INNER_BREAKPOINTS),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(non_dyadic_grounds(), dyadic_grounds()), _GROUND_ARGS, _GROUND_ARGS, _GROUND_ARGS)
def test_ground_integrals_match_the_old_pieces(ground, lo, hi, c):
    """`value_at`, `integral`, `interval_average` and `abs_dev_integral` give
    equal Fractions, or raise the same error, as the trapezoids over the
    pieces, each end read through `value_at`, inside [0, 1] and out, with
    lo > hi and lo == hi."""

    def typed(call, *args):
        out = _raised_or(call, *args)
        return out if isinstance(out, tuple) else (type(out), out)

    assert typed(ground.value_at, lo) == typed(value_at_literal, ground, lo)
    assert typed(ground.integral, lo, hi) == typed(integral_literal, ground, lo, hi)
    assert typed(ground.interval_average, lo, hi) == typed(interval_average_literal, ground, lo, hi)
    assert typed(ground.abs_dev_integral, lo, hi, c) == typed(abs_dev_integral_literal, ground, lo, hi, c)


_U1 = uniform_space(1)
_ORDER_WORDS = "a diagram takes hashable elements and (i, j) order pairs"
_MAPPING_WORDS = "a diagram takes mappings of spaces and of maps"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FiltrationDiagram.chain(5, []), errors.InvalidDiagram,
         "a chain takes sequences of spaces, step maps and labels"),
        (lambda: FiltrationDiagram.chain([None], []), errors.InvalidDiagram, "no space for elements [0]"),
        (lambda: FiltrationDiagram(None, [], {}, {}), errors.InvalidDiagram, _ORDER_WORDS),
        (lambda: FiltrationDiagram([[0]], [], {}, {}), errors.InvalidDiagram, _ORDER_WORDS),
        (lambda: FiltrationDiagram([0], [None], {0: _U1}, {}), errors.InvalidDiagram, _ORDER_WORDS),
        (lambda: FiltrationDiagram([0], [(0, 0, 0)], {0: _U1}, {}), errors.InvalidDiagram, _ORDER_WORDS),
        (lambda: FiltrationDiagram([0], [], 5, {}), errors.InvalidDiagram, _MAPPING_WORDS),
        (lambda: FiltrationDiagram([0], [], {0: None}, {}), errors.InvalidDiagram, "no space for elements [0]"),
        (lambda: FiltrationDiagram([0], [], {0: _U1}, "ab"), errors.InvalidDiagram, _MAPPING_WORDS),
        (lambda: FiltrationDiagram([0], [], {0: _U1}, {(0, 0): 5}), errors.InvalidDiagram,
         "connect holds no MeasurePreservingMap for [(0, 0)]"),
        (lambda: DyadicGround(None, [0, 1]), errors.BadSegments, "breakpoints must be a list, not None"),
        (lambda: DyadicGround("ab", [0, 1]), errors.BadSegments, "breakpoints must be a list, not 'ab'"),
        (lambda: DyadicGround([0, 1], None), errors.BadSegments, "values must be a list, not None"),
    ],
)
def test_malformed_diagram_and_ground_arguments_raise_library_errors(call, error, message):
    """Each of these raised a bare TypeError, ValueError or AttributeError."""
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_dyadic_runs_read_no_atom_tuple_or_index(monkeypatch, capsys):
    """Every level of the dyadic chain is held as positions: neither the
    engine nor `catprob martingale` reads a space's `atoms` or `_index`, so
    no atom tuple and no index dict is built."""
    from catprob.cli import main

    reads = []
    for name in ("atoms", "_index"):
        read = getattr(finprob.FiniteProbSpace, name).fget
        monkeypatch.setattr(
            finprob.FiniteProbSpace, name, property(lambda s, _r=read, _n=name: reads.append(_n) or _r(s))
        )
    tent = DyadicGround([0, F(1, 2), 1], [0, 1, 0])
    d, m, _ = dyadic_experiment(tent, 12)
    assert main(["martingale", "--ground", "tent", "--depth", "12"]) == 0
    assert reads == []
    assert all(s._atoms is None and s._positions is None for s in d.spaces.values())
    assert d.spaces[3].atoms == tuple(range(8)) and reads == ["atoms"]  # the counter sees a read


@settings(max_examples=30, deadline=None)
@given(non_dyadic_grounds(), st.integers(0, 9))
def test_dyadic_report_rows_match_the_per_cell_tables(ground, depth):
    """`dyadic_report`'s rows are the per-cell l1 errors, the second moments
    (each level's mean square average, its cells of weight 2^-t) and their
    gaps, as `scalar.to_json` writes them, and its check holds."""
    rows, ok = dyadic_report(ground, depth)
    averages, l1 = dyadic_tables_per_cell(ground, depth)
    moments = [sum((a * a for a in level), F(0)) / len(level) for level in averages]
    gaps = [F(0)] + [b - a for a, b in zip(moments, moments[1:])]
    text = scalar.to_json
    assert ok is True
    assert [list(r) for r in rows] == [
        [t, text(l1[t]), text(moments[t]), text(gaps[t])] for t in range(depth + 1)
    ]


@st.composite
def perturbed_families(draw):
    """(is a martingale, diagram, family): a consistent family of either side
    over a random chain on either backend, with one level, the top at times,
    moved on its heaviest atom by 0, a tiny amount (within a float tol) or 1/4."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    backend = draw(st.sampled_from(scalar.BACKENDS))
    top = rand_space(rng, min_atoms=2, max_atoms=6, backend=backend)
    d = rand_refining_chain(rng, top, rng.randint(1, 3))
    martingale = draw(st.booleans())
    if martingale:
        family = dict(induced_martingale(rand_rv(rng, top, bound=2), d).family)
    else:
        family = dict(restrict_measure(rand_measure(rng, top, bound=2), d).family)
    i = draw(st.sampled_from(d.elements))
    delta = scalar.coerce(draw(st.sampled_from(["0", "1/1000000000000", "1/4"])), backend)
    x = family[i]
    a = max(range(x.space.size), key=x.space.weights.__getitem__)
    if martingale:
        values = list(x.values)
        values[a] += delta
        family[i] = FiniteRandomVariable(x.space, values)
    else:
        mass = list(x.mass)
        mass[a] += delta * x.space.weights[a]
        family[i] = FiniteMeasure(x.space, mass)
    return martingale, d, family


def _check_by_bits(chk):
    """A MartingaleCheck with its residual by type and bits, or an error by type and text."""
    if isinstance(chk, tuple):
        return chk
    r = chk.residual
    return chk.ok, type(r), r.hex() if type(r) is float else r, chk.worst_pair


class TestChecksSkipOnlyEqualForms:
    """The checks that skip the distance of a pair with equal forms return and
    raise what the definitions, which compute every pair, give: the same
    MartingaleCheck (floats by their bits), constructor outcome and top-level
    outcome."""

    @settings(max_examples=150, deadline=None)
    @given(perturbed_families())
    def test_checks_match_the_definitions(self, case):
        martingale, d, family = case
        if martingale:
            got = _check_by_bits(_raised_or(is_martingale, family, d))
            assert got == _check_by_bits(_raised_or(is_martingale_literal, family, d))
            limit = martingale_limit
        else:
            limit = kolmogorov_extend
        assert _outcome(Martingale if martingale else ConsistentMeasureFamily, d, family, None) == _outcome(
            _defined(martingale), d, family, None
        )
        # the top-level check on the family as given, built or not
        fam = SimpleNamespace(diagram=d, family=MappingProxyType(family))
        assert _raised_or(limit, fam) == _raised_or(top_level_literal, d, family, martingale)

    @settings(max_examples=150, deadline=None)
    @given(doctored_families())
    def test_constructors_match_the_definitions(self, case):
        martingale, d, family, bound = case
        new = Martingale if martingale else ConsistentMeasureFamily
        assert _outcome(new, d, family, bound) == _outcome(_defined(martingale), d, family, bound)


def test_passing_checks_compute_no_distance(monkeypatch):
    """A valid dyadic run and its limit compute no l1 distance; a family one
    level off computes it on the two covers around that level only."""
    calls = _count_calls(monkeypatch, diagram, "l1_distance")
    d, m = make_dyadic(DyadicGround([0, F(1, 3), 1], [0, 1, F(1, 2)]), 6)
    assert martingale_limit(m) is m.family[6]
    assert calls["n"] == 0
    family = dict(m.family)
    family[3] = FiniteRandomVariable(d.spaces[3], [v + 1 for v in family[3].values])
    chk = is_martingale(family, d)
    assert not chk.ok and calls["n"] == 2 and chk.worst_pair in ((2, 3), (3, 4))


def _top_by_bits(top):
    """A top level by type, space and table (floats by their bits), or an error by type and text."""
    if isinstance(top, tuple):
        return top
    table = top.values if isinstance(top, FiniteRandomVariable) else top.mass
    return type(top), top.space, [v.hex() if type(v) is float else v for v in table]


class TestTopLevelsOfConstructedFamilies:
    """A constructed family's limit or extension, on either backend, is the
    top level `oracles.top_level_literal` gives, which conditions or pushes
    it down to every level and compares: by value and by float bits, and
    the very object the family holds."""

    @staticmethod
    def _matches_the_literal(martingale, d, family, bound):
        new, limit = (Martingale, martingale_limit) if martingale else (ConsistentMeasureFamily, kolmogorov_extend)
        try:
            built = new(d, family, bound)
        except errors.CatprobError:
            return  # only the families a constructor accepts
        got = _raised_or(limit, built)
        assert _top_by_bits(got) == _top_by_bits(_raised_or(top_level_literal, d, dict(built.family), martingale))
        assert isinstance(got, tuple) or got is built.family[d.top]

    @settings(max_examples=150, deadline=None)
    @given(perturbed_families())
    def test_perturbed_families(self, case):
        self._matches_the_literal(*case, None)

    @settings(max_examples=150, deadline=None)
    @given(doctored_families())
    def test_doctored_families(self, case):
        self._matches_the_literal(*case)


def _count_projections(monkeypatch):
    """Counters of the projections and distances `diagram` calls, by name."""
    names = ("cond_exp", "pushforward", "l1_distance", "tv_distance")
    return {name: _count_calls(monkeypatch, diagram, name) for name in names}


def test_exact_top_levels_take_no_projection_or_distance(monkeypatch):
    """On an exact diagram a family induced from a top holds that top, taken
    along no identity, and an exact constructed family's limit and extension
    are its top level, with no conditional expectation, pushforward or
    distance computed; a float family is conditioned onto every level."""
    d = two_chain_over_uniform4()
    x, mu = make_rv(d.spaces[2], [0, 1, 2, 3]), make_measure(d.spaces[2], ["1/8", "1/8", "1/4", "1/2"])
    calls = _count_projections(monkeypatch)
    m, fam = induced_martingale(x, d), restrict_measure(mu, d)
    assert m.family[d.top] is x and fam.family[d.top] is mu
    # one projection per level below the top, then one per covering pair to check
    assert calls["cond_exp"]["n"] == calls["pushforward"]["n"] == len(d.elements) - 1 + len(d.covers)
    calls = _count_projections(monkeypatch)
    assert martingale_limit(m) is x and kolmogorov_extend(fam) is mu
    assert {name: c["n"] for name, c in calls.items()} == dict.fromkeys(calls, 0)
    u4, u2, u1 = (uniform_space(n, scalar.FLOAT) for n in (4, 2, 1))
    fd = FiltrationDiagram.chain([u1, u2, u4], [make_map(u2, u1, {0: 0, 1: 0}), make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})])
    fm = induced_martingale(make_rv(u4, [0.0, 1.0, 2.0, 3.0]), fd)
    calls = _count_projections(monkeypatch)
    assert martingale_limit(fm) is fm.family[fd.top]
    assert calls["cond_exp"]["n"] == len(fd.elements)


def _drifting_float_martingale():
    """A float martingale on a chain of three one-atom levels whose covering
    pairs each differ by 6e-10, within the tol of 1e-9, so its top misses
    the bottom level by about 1.2e-9."""
    v = uniform_space(1, scalar.FLOAT)
    step = make_map(v, v, {0: 0})
    d = FiltrationDiagram.chain([v, v, v], [step, step])
    return Martingale(d, {t: make_rv(v, [1.0 + t * 6e-10]) for t in d.elements})


def test_float_limit_rechecks_drift_along_a_path():
    """The constructor checks covering pairs within the tol, so float drift
    can add up along a path past it: the limit still checks every level and
    names the level it misses and by how much."""
    m = _drifting_float_martingale()
    gap = l1_distance(m.family[2], m.family[0])
    assert gap > m.diagram.tol
    with pytest.raises(errors.Inconsistent) as err:
        martingale_limit(m)
    assert str(err.value) == "reconstructed limit misses level 0 by %s" % gap
    assert (err.value.level, err.value.pair, err.value.residual) == (0, None, gap)


def _moved(table, i, values):
    """`table` (a dict of levels) with level i replaced by a table of its type."""
    return {**table, i: type(table[i])(table[i].space, values)}


_X4 = [0, 1, 2, 3]
_MU4 = ["1/8", "1/8", "1/4", "1/2"]


@pytest.mark.parametrize(
    "build, message, fields",
    [
        (lambda d: Martingale(d, dict(induced_martingale(make_rv(d.spaces[2], _X4), d).family), 1),
         "level 0 exceeds the bound 1", (0, None, None)),
        (lambda d: Martingale(d, _moved(dict(induced_martingale(make_rv(d.spaces[2], _X4), d).family), 1, [1, 2])),
         "consistency fails at (1, 2) with residual 1/2", (None, (1, 2), F(1, 2))),
        (lambda d: ConsistentMeasureFamily(d, dict(restrict_measure(make_measure(d.spaces[2], _MU4), d).family), 1),
         "level 1 exceeds bound * base weights", (1, None, None)),
        (lambda d: ConsistentMeasureFamily(
            d, _moved(dict(restrict_measure(make_measure(d.spaces[2], _MU4), d).family), 2, ["1/4"] * 4)),
         "restriction fails at 1 <= 2 with residual 1/2", (None, (1, 2), F(1, 2))),
    ],
    ids=["martingale-bound", "martingale-consistency", "measure-bound", "measure-restriction"],
)
def test_inconsistent_names_its_level_pair_and_residual(build, message, fields):
    """Each constructor's raise of Inconsistent keeps its message and carries
    the failing level or covering pair and the residual there (None where
    the check has none); the limit's raise is read in
    `test_float_limit_rechecks_drift_along_a_path`."""
    with pytest.raises(errors.Inconsistent) as err:
        build(two_chain_over_uniform4())
    assert str(err.value) == message
    assert (err.value.level, err.value.pair, err.value.residual) == fields


# -- the closed order ranked once: chain order and order scans; the covers' writer


_ORDER_PROBLEMS = ("antisymmetry fails", "no upper bound")


def _order_problems(d):
    return [p for p in validate(d).problems if p.startswith(_ORDER_PROBLEMS)]


def _writes_the_schema(d):
    """The diagram's document is the schema's, and reads back to it."""
    text = json.dumps(jsonio.diagram_to_obj(d), sort_keys=True)
    assert text == json.dumps(_diagram_document(d), sort_keys=True)
    assert jsonio.diagram_from_obj(json.loads(text)) == d


@settings(max_examples=300, deadline=None)
@given(st.one_of(doctored_diagrams().map(lambda case: case[1]), random_relations(), chain_relations()))
def test_ranked_pairs_write_and_scan_as_defined(args):
    """`validate`'s order scans by position give the diagram problems' order
    problems, in order; a diagram that builds writes the schema's document
    from its covering pairs, reads back equal, and gives the chain order by
    rank, or its error."""
    elements, gens, spaces, connect, top = args
    raw = _raw_diagram(elements, _closed(elements, gens), spaces, connect, top)
    assert _order_problems(raw) == [p for p in diagram_problems_literal(raw) if p.startswith(_ORDER_PROBLEMS)]
    try:
        d = FiltrationDiagram(*args)
    except errors.CatprobError:
        return
    _writes_the_schema(d)
    assert _raised_or(d.chain_order) == _raised_or(chain_order_literal, d)


def test_chains_write_as_defined():
    """Sampled refining chains, dyadic chains at depths 0-6 and a chain of
    mixed labels write the schema's document and keep their chain order."""
    built = []
    for seed in range(20):
        rng = random.Random(seed)
        backend = scalar.BACKENDS[seed % 2]
        built.append(rand_refining_chain(rng, rand_space(rng, backend=backend), rng.randint(1, 4)))
    built += [make_dyadic(DyadicGround([0, F(1, 3), 1], [0, 1, F(1, 2)]), t)[0] for t in range(7)]
    d = two_chain_over_uniform4()
    labels = ["c", (1, "b"), 0.5]
    built.append(FiltrationDiagram.chain([d.spaces[t] for t in range(3)], [d.connect[(0, 1)], d.connect[(1, 2)]],
                                         labels=labels))
    for d in built:
        _writes_the_schema(d)
        assert d.chain_order() == chain_order_literal(d)
    assert built[-1].chain_order() == tuple(labels)


@pytest.mark.parametrize("elements", [[0, 0], [0, 1, 0], [1, True]])
def test_repeated_elements_are_rejected(elements):
    """Each of these built a diagram whose order and ranks read an element twice."""
    with pytest.raises(errors.InvalidDiagram) as exc:
        FiltrationDiagram(elements, [], {0: _U1, 1: _U1}, {})
    assert str(exc.value) == "repeated elements in %r" % (tuple(elements),)


_U2_CHAIN = FiltrationDiagram.chain([_U1, _U1], [identity_map(_U1)])
_WRONG = "family member at 0 lives on the wrong space"
_NONE_RV = "family member at 0 is a NoneType, not a FiniteRandomVariable"
_NOT_INDEXED = "family is not indexed by the diagram's elements"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FinPseudometricSpace(None, [[0]]), errors.InvalidMetric, "'NoneType' object is not iterable"),
        (lambda: FinPseudometricSpace(5, [[0]]), errors.InvalidMetric, "'int' object is not iterable"),
        (lambda: FinPseudometricSpace([[1]], [[0]]), errors.InvalidMetric, "unhashable type: 'list'"),
        (lambda: Martingale(_U2_CHAIN, None), errors.IndexMismatch, _NOT_INDEXED),
        (lambda: Martingale(_U2_CHAIN, [0, 1]), errors.IndexMismatch, _NOT_INDEXED),
        (lambda: Martingale(_U2_CHAIN, {0: None, 1: None}), errors.SpaceMismatch, _NONE_RV),
        (lambda: Martingale(_U2_CHAIN, {0: 0, 1: 0}, bound=1), errors.SpaceMismatch,
         "family member at 0 is a int, not a FiniteRandomVariable"),
        (lambda: ConsistentMeasureFamily(_U2_CHAIN, [[1]]), errors.IndexMismatch, _NOT_INDEXED),
        (lambda: ConsistentMeasureFamily(_U2_CHAIN, {0: None, 1: None}), errors.SpaceMismatch,
         "family member at 0 is a NoneType, not a FiniteMeasure"),
        (lambda: is_martingale(None, _U2_CHAIN), errors.IndexMismatch, _NOT_INDEXED),
        (lambda: is_martingale({0: None, 1: None}, _U2_CHAIN), errors.SpaceMismatch,
         "family member at 0 is a NoneType, not an atom table"),
        (lambda: is_martingale({0: make_rv(uniform_space(2), [0, 0]), 1: None}, _U2_CHAIN),
         errors.SpaceMismatch, _WRONG),
    ],
)
def test_malformed_families_and_metric_points_raise_library_errors(call, error, message):
    """Each of these raised a bare TypeError or AttributeError, but the last,
    a table on another space, which is worded by its space."""
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


_NOT_A_DIAGRAM = "%s is a NoneType, not a FiltrationDiagram"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate(None), _NOT_A_DIAGRAM % "d"),
        (lambda: is_martingale({}, None), _NOT_A_DIAGRAM % "d"),
        (lambda: Martingale(None, {}), _NOT_A_DIAGRAM % "diagram"),
        (lambda: ConsistentMeasureFamily(None, {}), _NOT_A_DIAGRAM % "diagram"),
        (lambda: induced_martingale(constant_rv(_U1, 1), None), _NOT_A_DIAGRAM % "d"),
        (lambda: restrict_measure(base_measure(_U1), None), _NOT_A_DIAGRAM % "d"),
        (lambda: martingale_limit(None), "family is a NoneType, not a Martingale"),
        (lambda: kolmogorov_extend(None), "family is a NoneType, not a ConsistentMeasureFamily"),
        (lambda: martingale_limit(SimpleNamespace(diagram=None, family={})),
         "family is a SimpleNamespace, not a Martingale"),
    ],
)
def test_a_wrong_typed_diagram_or_family_is_a_domain_mismatch(call, message):
    """Each of these raised a bare AttributeError."""
    with pytest.raises(errors.DomainMismatch) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("bound", [None, "-1"])
def test_levels_of_the_other_side_are_rejected(bound):
    """A measure is no martingale level and a random variable no measure-family
    level, though both are atom tables on the level's space: each raises
    SpaceMismatch, naming both types, before any bound is taken (a negative
    one included).  A level of the right type on another space is worded by
    its space."""
    d, m = make_dyadic(DyadicGround.affine(0, 1), 2)
    fam = restrict_measure(base_measure(d.spaces[2]), d)
    measures = {i: FiniteMeasure(d.spaces[i], list(m.family[i].values)) for i in d.elements}
    values = {i: FiniteRandomVariable(d.spaces[i], list(fam.family[i].mass)) for i in d.elements}
    for build, family, words in (
        (Martingale, measures, "a FiniteMeasure, not a FiniteRandomVariable"),
        (ConsistentMeasureFamily, values, "a FiniteRandomVariable, not a FiniteMeasure"),
    ):
        with pytest.raises(errors.SpaceMismatch) as exc:
            build(d, family, bound)
        assert str(exc.value) == "family member at 0 is %s" % words
    elsewhere = uniform_space(1, scalar.FLOAT)
    for build, level in ((Martingale, make_rv(elsewhere, [0.0])), (ConsistentMeasureFamily, base_measure(elsewhere))):
        family = dict((m if build is Martingale else fam).family)
        family[0] = level
        with pytest.raises(errors.SpaceMismatch) as exc:
            build(d, family)
        assert str(exc.value) == _WRONG
    assert Martingale(d, dict(m.family)).family == m.family
    assert ConsistentMeasureFamily(d, dict(fam.family)).family == fam.family
