"""One numeric model: every number enters through `scalar.coerce` (a user's
table or weights through `scalar.coerce_scaled`, under the same rules) and
leaves through `scalar.to_json`, on the probability side, the metric side and
the dyadic grounds alike."""
import ast
import inspect
import json
import math
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from catprob import diagram, errors, finmeas, finprob, finrv, jsonio, metcat, sampling, scalar, suites
from catprob.diagram import DyadicGround
from catprob.finprob import make_space
from catprob.metcat import INF, FinPseudometricSpace, scale


def _exact_entry(v):
    return FinPseudometricSpace(["a", "b"], [[0, v], [v, 0]])


def _float_entry(v):
    return FinPseudometricSpace(["a", "b"], [[0, v], [v, 0]], tol=1e-9)


def _ground_value(v):
    return DyadicGround([0, 1], [v, 1])


def _scale_factor(v):
    return scale(_exact_entry(1), v)


def _float_weight(v):
    return make_space(["a", "b"], [v, 0.5], backend=scalar.FLOAT)


#: (entry point, it takes binary floats, the error a metric table raises instead)
_ENTRY_POINTS = [
    (_exact_entry, False, errors.InvalidMetric),
    (_float_entry, True, errors.InvalidMetric),
    (_ground_value, False, None),
    (_scale_factor, False, None),
    (_float_weight, True, None),
]
_BAD_INPUTS = [
    (True, errors.BackendMismatch),
    (None, errors.BackendMismatch),
    (0.5, errors.BackendMismatch),
    ("x", ValueError),
    ("1/0", ZeroDivisionError),
]


@pytest.mark.parametrize(
    "enter, value, error",
    [
        pytest.param(enter, value, wrapped or error, id="%s-%r" % (enter.__name__[1:], value))
        for enter, takes_floats, wrapped in _ENTRY_POINTS
        for value, error in _BAD_INPUTS
        if not (takes_floats and isinstance(value, float))
    ],
)
def test_entry_points_share_the_number_rules(enter, value, error):
    with pytest.raises(error):
        enter(value)


class TestStoredTypes:
    def test_exact_table_holds_fractions(self):
        x = FinPseudometricSpace(["a", "b", "c"], [[0, 1, INF], [1, 0, "inf"], [INF, math.inf, 0]])
        assert x.backend == scalar.EXACT
        assert x.dist[0][1] == 1 and type(x.dist[0][1]) is F
        assert all(d is INF or type(d) is F for row in x.dist for d in row)

    def test_float_table_holds_floats(self):
        x = FinPseudometricSpace(["a", "b"], [[0, F(1, 3)], ["1/3", 0]], tol=1e-9)
        assert x.backend == scalar.FLOAT
        assert x.dist == ((0.0, 1 / 3), (1 / 3, 0.0))
        assert all(type(d) is float for row in x.dist for d in row)

    def test_infinity_is_the_one_object(self):
        for tol in (0, 1e-9):
            x = FinPseudometricSpace(["a", "b"], [[0, "inf"], [float("inf"), 0]], tol=tol)
            assert x.dist[0][1] is INF and x.dist[1][0] is INF

    def test_scale_takes_the_factor_in_the_table_backend(self):
        assert scale(_exact_entry(1), "5/2").dist[0][1] == F(5, 2)
        assert scale(_float_entry(1), "1/2").dist[0][1] == 0.5

    def test_ground_keeps_exact_values(self):
        g = DyadicGround([0, "1/3", 1], [1, F(1, 2), "2"])
        assert g.breakpoints == (0, F(1, 3), 1) and g.values == (1, F(1, 2), 2)
        assert all(type(v) is F for v in g.breakpoints + g.values)

    def test_ground_rejects_decimal_strings(self):
        with pytest.raises(ValueError):
            DyadicGround([0, "0.5", 1], [0, 1, 0])


def test_exact_coerce_returns_a_fraction_as_it_is():
    q = F(1, 3)
    assert scalar.coerce(q, scalar.EXACT) is q


@pytest.mark.parametrize(
    "value, text",
    [
        (F(1, 3), "1/3"),
        (F(-7, 2), "-7/2"),
        (F(4), "4"),
        (0, "0"),
        (-3, "-3"),
        (INF, "inf"),
        (math.inf, "inf"),
        (0.25, 0.25),
        (0.0, 0.0),
    ],
)
def test_to_json(value, text):
    out = scalar.to_json(value)
    assert out == text and type(out) is type(text)


def _rho_form(weights, values):
    """rho's kernel output before `scalar.lowest` reduces it: not in lowest terms."""
    (wden, ws), (den, xs) = scalar.scaled(weights), scalar.scaled(values)
    return den * wden, [x * w for x, w in zip(xs, ws)]


@pytest.mark.parametrize(
    "den, nums",
    [
        (1, [0, 0, 0]),
        (1, [3, 0, 12]),
        (6, [0, 6, 12, 3, 2, 5]),
        (12, [0, 4, 8, 24]),
        _rho_form([F(1, 2), F(1, 4), F(1, 4)], [F(2, 3), 0, F(4)]),
        _rho_form([F(1, 6), F(1, 3), F(1, 2)], [F(3), F(3, 2), F(1, 3)]),
    ],
)
def test_scaled_to_json_writes_what_to_json_writes(den, nums):
    out = scalar.scaled_to_json(den, nums)
    assert out == [scalar.to_json(F(n, den)) for n in nums]
    assert all(type(x) is str for x in out)


def test_scaled_to_json_passes_floats_through():
    nums = (0.25, 0.0, 1 / 3, -0.0, 5.0)
    out = scalar.scaled_to_json(1, nums)
    assert [x.hex() for x in out] == [x.hex() for x in nums]


#: a row's entries: exact ones, or floats with both zeros; infinity on both
_ROW_ENTRIES = {
    scalar.EXACT: st.one_of(st.fractions(min_value=0, max_value=4, max_denominator=12), st.just(INF)),
    scalar.FLOAT: st.one_of(st.floats(0, 4), st.sampled_from([0.0, -0.0, INF])),
}


@st.composite
def scaled_rows(draw):
    """(values, (den, nums)): a row of 0-6 entries drawn from at most three, so
    that many rows repeat one entry, and its scaled form, INF kept, over an
    exact den that may exceed the least, as a list or a tuple."""
    backend = draw(st.sampled_from(scalar.BACKENDS))
    pool = draw(st.lists(_ROW_ENTRIES[backend], min_size=1, max_size=3))
    size = draw(st.sampled_from([0, 1, 2, 3, 6]))
    values = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    box = draw(st.sampled_from([list, tuple]))
    if backend == scalar.FLOAT:
        return values, (1, box(values))
    den = math.lcm(*[v.denominator for v in values if v is not INF]) * draw(st.integers(1, 3))
    return values, (den, box(v if v is INF else v.numerator * (den // v.denominator) for v in values))


@settings(max_examples=400, deadline=None)
@given(scaled_rows())
def test_scaled_to_json_is_to_json_of_each_value(row):
    """The same JSON, float bits and -0.0 included, for rows of equal entries too."""
    values, (den, nums) = row
    out = scalar.scaled_to_json(den, nums)
    assert json.dumps(out) == json.dumps([scalar.to_json(v) for v in values])


#: The only places the probability side may test which backend it is on:
#: the tol rule, the float re-check of a composite (drift adds up along a
#: path) and the float maximum of the density bound.
_BACKEND_TESTS = ["FiniteProbSpace.__init__", "compose", "_density_bound"]


def _backend_tests(module):
    """Qualified name of the function around each comparison against a backend."""
    found = []

    def names_backend(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.value.id == "scalar" and node.attr in ("EXACT", "FLOAT")
        if isinstance(node, ast.Name):
            return node.id in ("EXACT", "FLOAT")
        return isinstance(node, ast.Constant) and node.value in scalar.BACKENDS

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Compare) and any(
            names_backend(x) for x in [node.left] + node.comparators
        ):
            found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(inspect.getsource(module)), [])
    return found


#: The only places the metric side may test which backend it is on: the
#: user route's exact fast path, the constructor's storage rule (float rows
#: as floats, an exact table's Fractions on first read) and the pair check's
#: one pass on two exact tables.
_METCAT_BACKEND_TESTS = ["_coerce_table", "FinPseudometricSpace.__init__", "LipschitzMap._check"]

#: The only place the diagram layer may test which backend it is on: a float
#: diagram builds its composites at once, as their drift adds up along a path.
#: The martingale and measure-family checks run one body on both backends.
_DIAGRAM_BACKEND_TESTS = ["FiltrationDiagram.__init__"]


#: The route of a space over range(n), held as positions, from its
#: constructors to its first reads: one body for both backends.
_POSITIONAL_ROUTE = [
    (finprob, "FiniteProbSpace.atoms"),
    (finprob, "FiniteProbSpace._index"),
    (finprob, "FiniteProbSpace.size"),
    (finprob, "FiniteProbSpace.__eq__"),
    (finprob, "uniform_space"),
    (diagram, "dyadic_space"),
    (diagram, "dyadic_experiment"),
    (sampling, "rand_quotient"),
]


def _functions(module):
    """Qualified name of every function in the module, as `_backend_tests` scopes them."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
            if isinstance(node, ast.FunctionDef):
                found.append(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(inspect.getsource(module)), [])
    return found


def test_kernels_have_one_body_for_both_backends():
    tests = [t for m in (finprob, finrv, finmeas, sampling) for t in _backend_tests(m)]
    assert sorted(tests) == sorted(_BACKEND_TESTS)
    assert sorted(_backend_tests(metcat)) == sorted(_METCAT_BACKEND_TESTS)
    assert sorted(_backend_tests(diagram)) == sorted(_DIAGRAM_BACKEND_TESTS)
    assert _backend_tests(suites) == _backend_tests(jsonio) == []  # the suites and the codec never fork
    for module, name in _POSITIONAL_ROUTE:  # scanned, and with no backend test
        assert name in _functions(module) and name not in _backend_tests(module), name


# -- the user route: a user's numbers straight to the scaled form ------------------


class _Int(int):
    pass


class _Frac(F):
    pass


_TEXTS = [
    "1/2", " 3 / 4 ", "+7", " -9 ", "-2/6", "-0/5", "0/-5", "3/-4", "-3/-4", "1_000/3",
    "1/0", "0/0", "-4/0", "1/2/3", "", " ", "x", "2/x", "/3", "1/", "1.5", "1e3",
]

_LITERALS = st.one_of(
    st.sampled_from(_TEXTS),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(-99, 99)),
    st.text(alphabet=" +-_/0123456789", max_size=8),
)

_USER_NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.fractions(),
    st.builds(_Frac, st.integers(-50, 50), st.integers(1, 50)),
    st.builds(_Int, st.integers(-50, 50)),
    st.floats(),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    _LITERALS,
)


def _outcome(route, *args):
    """An error by type and message, or a scaled form by its types and bits."""
    try:
        den, nums = route(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return den, type(den), type(nums), [(type(n), n.hex() if type(n) is float else n) for n in nums]


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=300, deadline=None)
@given(values=st.lists(_USER_NUMBERS, max_size=6))
def test_coerce_scaled_is_coerce_then_scaled(backend, values):
    """The same error, type and message, or the same form; an exact one of ints."""
    new = _outcome(scalar.coerce_scaled, values, backend)
    assert new == _outcome(lambda xs, b: scalar.scaled(tuple(scalar.coerce(v, b) for v in xs), b), values, backend)
    if new[0] != "raised" and backend == scalar.EXACT:
        assert new[1] is int and all(kind is int for kind, _ in new[3])


def _coerced(coerce, value, backend):
    """An error by type and message, or the scalar by type and bits."""
    try:
        x = coerce(value, backend)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return type(x), x.hex() if type(x) is float else x


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@settings(max_examples=300, deadline=None)
@given(value=_USER_NUMBERS)
def test_coerce_keeps_its_accept_set_and_messages(backend, value):
    assert _coerced(scalar.coerce, value, backend) == _coerced(oracles.coerce_literal, value, backend)


def _ratio(parse, text):
    """An error by type and message, or the pair `parse` gives."""
    try:
        return parse(text)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def _literal_ratio(text):
    f = oracles.ratio_literal(text)
    return f.numerator, f.denominator


@settings(max_examples=300, deadline=None)
@given(text=_LITERALS)
def test_parse_ratio_is_the_literal_in_lowest_terms(text):
    """The ints (num, den) of the literal's value with den > 0, or the same error."""
    out = _ratio(scalar.parse_ratio, text)
    assert out == _ratio(_literal_ratio, text) == _ratio(scalar.parse_ratio, text)  # parsed, then cached
    assert out[0] == "raised" or all(type(x) is int for x in out)


@pytest.mark.parametrize(
    "text, ratio",
    [
        ("1/2", (1, 2)),
        (" -2/6 ", (-1, 3)),
        ("-0/5", (0, 1)),
        ("3/-4", (-3, 4)),
        ("1_0/4", (5, 2)),
        ("7", (7, 1)),
    ],
)
def test_parse_ratio_reduces_with_the_sign_on_the_numerator(text, ratio):
    out = scalar.parse_ratio(text)
    assert out == ratio and all(type(x) is int for x in out)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("1/0", ZeroDivisionError, "Fraction(1, 0)"),
        (" -4 /0", ZeroDivisionError, "Fraction(-4, 0)"),
        ("1/2/3", ValueError, "not a rational literal: '1/2/3'"),
        ("x", ValueError, "not a rational literal: 'x'"),
        ("1/x", ValueError, "not a rational literal: '1/x'"),
        (" x/2", ValueError, "not a rational literal: ' x/2'"),
        ("", ValueError, "not a rational literal: ''"),
    ],
)
def test_parse_ratio_names_a_malformed_literal(text, error, message):
    """A zero den raises what `Fraction` raises; a malformed literal is named."""
    with pytest.raises(error) as caught:
        scalar.parse_ratio(text)
    assert str(caught.value) == message


@pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="int() has no digit limit here")
@pytest.mark.parametrize("form", ["{}", "1/{}", "{}/7"])
def test_parse_ratio_leaves_a_long_literal_to_int(form):
    """A well-formed part past int()'s digit limit is no malformed literal:
    parse_ratio raises int()'s own ValueError, as `Fraction` does."""
    text = form.format("1" * (sys.get_int_max_str_digits() + 1))
    with pytest.raises(ValueError) as caught:
        scalar.parse_ratio(text)
    with pytest.raises(ValueError) as expected:
        F(text)
    assert str(caught.value) == str(expected.value) and "not a rational literal" not in str(caught.value)
