"""Contracts shared by every value type: read-only storage, ==/!= agreement,
and the one tolerance check both kinds of space run."""
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from catprob import errors, scalar
from catprob.diagram import DyadicGround, FiltrationDiagram, make_dyadic, restrict_measure
from catprob.finmeas import FiniteMeasure, make_measure
from catprob.finprob import make_map, make_space, uniform_space
from catprob.finrv import FiniteRandomVariable, make_rv
from catprob.metcat import FinPseudometricSpace, LipschitzMap, identity_lipschitz
from strategies import cases, every_route, kernel_outputs
from test_kernels import fractions_built


def _dyadic():
    return make_dyadic(DyadicGround.affine(0, 1), 2)


class TestFrozenStorage:
    def test_map_assign(self):
        m = make_map(uniform_space(2), uniform_space(1), {0: 0, 1: 0})
        with pytest.raises(TypeError):
            m.assign[0] = 1
        with pytest.raises(TypeError):
            del m.assign[0]

    def test_lipschitz_assign(self):
        f = identity_lipschitz(FinPseudometricSpace(["a", "b"], [[0, 1], [1, 0]]))
        with pytest.raises(TypeError):
            f.assign["a"] = "b"

    def test_diagram_spaces_and_connect(self):
        d, _ = _dyadic()
        with pytest.raises(TypeError):
            d.spaces[0] = uniform_space(1)
        with pytest.raises(TypeError):
            d.connect[(0, 1)] = d.connect[(0, 0)]

    def test_martingale_family(self):
        d, m = _dyadic()
        with pytest.raises(TypeError):
            m.family[0] = m.family[0]

    def test_measure_family(self):
        d, _ = _dyadic()
        fam = restrict_measure(make_measure(d.spaces[2], ["1/8", "1/8", "1/4", "1/2"]), d)
        with pytest.raises(TypeError):
            fam.family[0] = fam.family[0]

    def test_diagram_numeric_model(self):
        u2 = make_space([0, 1], [0.5, 0.5], backend=scalar.FLOAT, tol=1e-6)
        u1 = make_space([0], [1.0], backend=scalar.FLOAT)
        d = FiltrationDiagram.chain([u1, u2], [make_map(u2, u1, {0: 0, 1: 0})])
        assert (d.backend, d.tol) == (scalar.FLOAT, 1e-6)


def _values():
    """(a, b, c) per value type: a == b, a != c, all built independently."""
    s = uniform_space(2)
    t = make_space([0, 1], ["1/4", "3/4"])
    one = uniform_space(1)
    swap = {0: 1, 1: 0}
    x = FinPseudometricSpace(["a", "b"], [[0, 1], [1, 0]])
    y = FinPseudometricSpace(["a", "b"], [[0, 2], [2, 0]])
    d2, _ = _dyadic()
    d1, _ = make_dyadic(DyadicGround.affine(0, 1), 1)
    return [
        (uniform_space(2), s, t),
        (make_map(s, one, {0: 0, 1: 0}), make_map(s, one, {0: 0, 1: 0}), make_map(s, s, swap)),
        (make_rv(s, [1, 2]), FiniteRandomVariable(s, [1, 2]), make_rv(s, [2, 1])),
        (make_measure(s, ["1/4", 0]), FiniteMeasure(s, ["1/4", 0]), make_measure(s, [0, "1/4"])),
        (x, FinPseudometricSpace(["a", "b"], [[0, 1], [1, 0]]), y),
        (
            identity_lipschitz(x),
            LipschitzMap(x, x, {"a": "a", "b": "b"}),
            LipschitzMap(x, x, {"a": "b", "b": "a"}),
        ),
        (d2, _dyadic()[0], d1),
    ]


_CASES = _values()


@pytest.mark.parametrize("a, b, c", _CASES, ids=[type(case[0]).__name__ for case in _CASES])
def test_ne_is_the_negation_of_eq(a, b, c):
    for u, v in ((a, b), (a, c), (b, c), (a, a)):
        assert (u != v) is (not (u == v))
    assert a == b and a != c
    assert a != "foreign" and not (a == "foreign")
    assert a != 0


def test_a_random_variable_never_equals_a_measure():
    s = uniform_space(2)
    for table in ([0, 0], [1, "1/2"]):
        f, mu = FiniteRandomVariable(s, table), FiniteMeasure(s, table)
        assert f._scaled == mu._scaled
        assert f != mu and mu != f and not (f == mu) and not (mu == f)


class TestTolerance:
    @pytest.mark.parametrize("tol", [True, -1, -1e-9, math.nan, math.inf, "0", None])
    def test_metric_space_rejects(self, tol):
        with pytest.raises(ValueError, match="tol must be"):
            FinPseudometricSpace(["a", "b"], [[0, 0], [0, 0]], tol=tol)

    def test_metric_tol_true_does_not_hide_asymmetry(self):
        with pytest.raises(ValueError):
            FinPseudometricSpace(["a", "b"], [["0", "1"], ["2", "0"]], tol=True)

    def test_negative_tol_is_not_a_weight_sum_mismatch(self):
        with pytest.raises(ValueError, match="tol must be"):
            make_space(["a", "b"], [0.5, 0.5], backend=scalar.FLOAT, tol=-1e-3)

    @pytest.mark.parametrize("tol", [True, math.nan, math.inf, "1e-9"])
    def test_prob_space_rejects(self, tol):
        with pytest.raises(ValueError, match="tol must be"):
            make_space(["a", "b"], [0.5, 0.5], backend=scalar.FLOAT, tol=tol)

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-6, F(1, 10**6)])
    def test_accepted(self, tol):
        assert make_space(["a"], [1.0], backend=scalar.FLOAT, tol=tol).tol == tol
        assert FinPseudometricSpace(["a"], [[0]], tol=tol).tol == tol


class TestFloatScalars:
    def _space(self):
        return make_space(["a", "b"], [0.5, 0.5], backend=scalar.FLOAT)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rv_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="not a finite scalar"):
            FiniteRandomVariable(self._space(), [bad, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_measure_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="not a finite scalar"):
            FiniteMeasure(self._space(), [bad, 0.0])

    def test_bool_weights_rejected(self):
        with pytest.raises(errors.BackendMismatch):
            make_space(["a", "b"], [True, False], backend=scalar.FLOAT)

    def test_finite_values_unchanged(self):
        s = self._space()
        assert FiniteRandomVariable(s, [1, F(1, 4)]).values == (1.0, 0.25)
        assert make_rv(s, ["3/4", 0.5]).values == (0.75, 0.5)


@pytest.mark.parametrize("cls", [FiniteRandomVariable, FiniteMeasure])
class TestTableShape:
    """A user's table is a list, or a dict by atom, with one entry per atom."""

    def test_unknown_atoms_are_named(self, cls):
        s = uniform_space(["a", "b"])
        table = {"a": 0, "b": 0, "zz": 5, 7: 0, (1,): 0, "y": 0, "x": 0}
        with pytest.raises(errors.SpaceMismatch, match=r"given for unknown atoms \['zz', 7, \(1,\), 'y'\]$"):
            cls(s, table)

    def test_a_string_is_not_read_per_character(self, cls):
        with pytest.raises(errors.SpaceMismatch, match="a list or a dict by atom, not a string"):
            cls(uniform_space(2), "12")

    @pytest.mark.parametrize("table", [5, None, 1.5, True])
    def test_a_non_iterable_is_a_space_mismatch(self, cls, table):
        with pytest.raises(errors.SpaceMismatch, match=r"a list or a dict by atom, not %r$" % (table,)):
            cls(uniform_space(2), table)

    def test_missing_atoms_come_first(self, cls):
        with pytest.raises(errors.SpaceMismatch, match=r"missing for atoms \['b'\]$"):
            cls(uniform_space(["a", "b"]), {"a": 0, "zz": 0})


class TestFirstBadAtom:
    """Every entry is coerced first, as a space's weights are; then the first
    atom, in atom order, with a negative entry or with mass on a null atom is
    reported."""

    def test_a_non_number_is_reported_before_a_negative_entry(self):
        s = uniform_space(2)
        for table in ([-1, 0.5], [0.5, -1]):
            with pytest.raises(errors.BackendMismatch):
                FiniteRandomVariable(s, table)
            with pytest.raises(errors.BackendMismatch):
                make_space(["a", "b"], table)

    def test_the_first_bad_atom_is_reported(self):
        s = make_space(["a", "b", "c"], [0, 1, 0])
        with pytest.raises(errors.NotAbsolutelyContinuous, match="atom 'a' has weight 0 but mass 1"):
            FiniteMeasure(s, [1, -1, 0])
        with pytest.raises(errors.NegativeValue, match="mass at atom 'b' is -1 < 0"):
            FiniteMeasure(s, [0, -1, 1])
        with pytest.raises(errors.NegativeValue, match="value at atom 'a' is -1/2 < 0"):
            FiniteRandomVariable(s, ["-1/2", -1, 0])


class TestNullAtomZeros:
    """Null atoms carry 0 in a user-built random variable, zeroed once."""

    def test_float_table_on_a_null_atom_space(self):
        s = make_space(["a", "n", "b"], [0.25, 0.0, 0.75], backend=scalar.FLOAT)
        for table in ([0.1 + 0.2, 5.0, -0.0], {"a": 0.1 + 0.2, "n": "5", "b": -0.0}):
            f = FiniteRandomVariable(s, table)
            # the value on the null atom becomes +0.0; every other keeps its bits
            assert [x.hex() for x in f.values] == [(0.1 + 0.2).hex(), "0x0.0p+0", "-0x0.0p+0"]
            assert f._scaled == (1, f.values) and f._scaled[1] is f.values
        # a kernel output is zeroed there too
        g = FiniteRandomVariable._from_scaled(s, 1, [0.1 + 0.2, 5.0, -0.0])
        assert [x.hex() for x in g.values] == [(0.1 + 0.2).hex(), "0x0.0p+0", "-0x0.0p+0"]
        with pytest.raises(errors.NegativeValue, match="value at atom 'n' is -1.0 < 0"):
            FiniteRandomVariable(s, [1.0, -1.0, 1.0])

    def test_exact_table_on_a_null_atom_space(self):
        s = make_space(["a", "n", "b"], [F(1, 4), 0, F(3, 4)])
        f = FiniteRandomVariable(s, [F(1, 3), F(1, 7), F(1, 2)])
        assert f.values == (F(1, 3), 0, F(1, 2))
        assert f._scaled == (6, (2, 0, 3)) == scalar.scaled(f.values)


def _table_name(x):
    return "values" if isinstance(x, FiniteRandomVariable) else "mass"


class TestLazyTables:
    """An exact table, user-built or a kernel output, holds only `_scaled`
    until it is read; the table is read-only, and on floats it is `_scaled[1]`
    itself."""

    def _check_table(self, x):
        name, (den, nums) = _table_name(x), x._scaled
        backend = x.space.backend
        if backend == scalar.EXACT:
            assert x._table is None
        table = getattr(x, name)
        want = tuple(scalar.divider(backend)(n, den) for n in nums)
        assert [(type(v), v) for v in table] == [(type(v), v) for v in want]
        assert getattr(x, name) is table
        if backend == scalar.FLOAT:
            assert table is nums
        with pytest.raises(AttributeError):
            setattr(x, name, table)

    @pytest.mark.parametrize("backend", scalar.BACKENDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_kernel_outputs(self, backend, data):
        for x in kernel_outputs(data.draw(cases(backend))):
            self._check_table(x)

    def test_dyadic_levels(self):
        _, m = make_dyadic(DyadicGround([0, "1/3", 1], [0, 1, "1/2"]), 5)
        for level in m.family.values():
            self._check_table(level)

    def test_user_built_tables_build_their_fractions_on_first_read(self):
        given_ = [F(1, 3), F(2), F(0)]
        s = make_space(["a", "b", "c"], ["1/2", "1/4", "1/4"])
        with fractions_built() as count:
            f, mu = FiniteRandomVariable(s, given_), FiniteMeasure(s, given_[::-1])
        assert count[0] == 0 and f._table is None and mu._table is None
        for x, want in ((f, given_), (mu, given_[::-1])):
            with fractions_built() as count:
                table = getattr(x, _table_name(x))
            assert count[0] == len(want)
            assert [(type(v), v) for v in table] == [(type(v), v) for v in want]
            with pytest.raises(AttributeError):
                setattr(x, _table_name(x), ())


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equality_and_hash_agree_with_the_tables(backend, data):
    """`==` and `hash` read the canonical scaled form: they agree with a
    comparison of the tables, and build no table of an unread kernel output."""
    xs = every_route(data.draw(cases(backend)))
    unread = [x for x in xs if x._table is None]
    got = [[x == y for y in xs] for x in xs]
    hashes = [hash(x) for x in xs]
    assert all(x._table is None for x in unread)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            want = oracles.value_eq_literal(x, y)
            assert got[i][j] is want, (x, y)
            assert not want or hashes[i] == hashes[j], (x, y)
