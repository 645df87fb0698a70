import copy
import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from catprob import errors, finprob, jsonio, metcat, scalar
from catprob.diagram import (
    DyadicGround,
    FiltrationDiagram,
    induced_martingale,
    make_dyadic,
    restrict_measure,
)
from catprob.finprob import (
    FiniteProbSpace,
    MeasurePreservingMap,
    make_map,
    make_space,
    uniform_space,
)
from catprob.metcat import INF, FinPseudometricSpace
from catprob.sampling import (
    rand_measure,
    rand_metric_space,
    rand_quotient,
    rand_refining_chain,
    rand_rv,
    rand_space,
)


def roundtrip(obj, to_obj, from_obj):
    return from_obj(json.loads(json.dumps(to_obj(obj))))


def test_space_roundtrip_bit_exact():
    s = make_space(["a", "b", "c"], ["1/3", "1/3", "1/3"])
    back = roundtrip(s, jsonio.space_to_obj, jsonio.space_from_obj)
    assert back == s
    assert back.weights == (F(1, 3), F(1, 3), F(1, 3))


def test_space_float_backend_roundtrip():
    s = make_space(["a", "b"], [0.1, 0.9], backend=scalar.FLOAT)
    back = roundtrip(s, jsonio.space_to_obj, jsonio.space_from_obj)
    assert back == s and back.tol == s.tol


def test_map_roundtrip_with_int_atoms():
    u4, u2 = uniform_space(4), uniform_space(2)
    m = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
    back = roundtrip(m, jsonio.map_to_obj, jsonio.map_from_obj)
    assert back == m


def test_measure_and_rv_roundtrip():
    rng = random.Random(5)
    space = rand_space(rng)
    mu = rand_measure(rng, space, bound=2)
    assert roundtrip(mu, jsonio.measure_to_obj, jsonio.measure_from_obj) == mu
    f = rand_rv(rng, space, bound=2)
    assert roundtrip(f, jsonio.rv_to_obj, jsonio.rv_from_obj) == f


def test_metspace_roundtrip_with_inf():
    s = FinPseudometricSpace(["a", "b"], [[0, INF], [INF, 0]])
    obj = jsonio.metspace_to_obj(s)
    assert obj["dist"][0][1] == "inf"
    assert roundtrip(s, jsonio.metspace_to_obj, jsonio.metspace_from_obj) == s


def test_diagram_and_martingale_roundtrip():
    d, m = make_dyadic(DyadicGround([0, "1/2", 1], [0, 1, "1/2"]), 3)
    back_d = roundtrip(d, jsonio.diagram_to_obj, jsonio.diagram_from_obj)
    assert back_d == d
    back_m = roundtrip(m, jsonio.martingale_to_obj, jsonio.martingale_from_obj)
    assert back_m.family == m.family and back_m.bound == m.bound


def test_measure_family_roundtrip():
    rng = random.Random(9)
    d, _ = make_dyadic(DyadicGround.affine(0, 1), 2)
    fam = restrict_measure(rand_measure(rng, d.spaces[2], bound=2), d)
    back = roundtrip(fam, jsonio.measure_family_to_obj, jsonio.measure_family_from_obj)
    assert back.family == fam.family and back.bound == fam.bound


def test_parse_error_on_missing_field():
    with pytest.raises(errors.ParseError):
        jsonio.space_from_obj({"atoms": ["a"]})


def test_parse_error_on_unknown_label():
    u2 = uniform_space(2)
    obj = jsonio.map_to_obj(make_map(u2, u2, {0: 0, 1: 1}))
    obj["assign"] = {"0": 0, "7": 1}
    with pytest.raises(errors.ParseError):
        jsonio.map_from_obj(obj)


def test_parse_error_reports_location(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(errors.ParseError) as err:
        jsonio.read_json(str(p))
    assert "broken.json:1" in str(err.value)


def test_invalid_payload_wrapped_as_parse_error():
    with pytest.raises(errors.ParseError):
        jsonio.space_from_obj({"atoms": ["a", "b"], "weights": ["1/2", "1/4"]})


# -- fuzzing: every decoder either decodes or raises ParseError ------------------------

_D, _M = make_dyadic(DyadicGround([0, "1/2", 1], [0, 1, "1/2"]), 1)
_FAM = restrict_measure(rand_measure(random.Random(1), _D.spaces[1], bound=2), _D)

#: decoder -> (a valid document, the keys of its schema)
DECODERS = {
    jsonio.space_from_obj: (jsonio.space_to_obj(_D.spaces[1]), ("atoms", "weights", "backend", "tol")),
    jsonio.map_from_obj: (jsonio.map_to_obj(_D.connect[(0, 1)]), ("src", "dst", "assign")),
    jsonio.measure_from_obj: (jsonio.measure_to_obj(_FAM.family[1]), ("space", "mass")),
    jsonio.rv_from_obj: (jsonio.rv_to_obj(_M.family[1]), ("space", "values")),
    jsonio.metspace_from_obj: (
        jsonio.metspace_to_obj(FinPseudometricSpace(["a", "b"], [[0, INF], [INF, 0]])),
        ("points", "dist", "tol"),
    ),
    jsonio.diagram_from_obj: (jsonio.diagram_to_obj(_D), ("elements", "leq", "spaces", "connect", "top")),
    jsonio.martingale_from_obj: (jsonio.martingale_to_obj(_M), ("diagram", "family", "bound")),
    jsonio.measure_family_from_obj: (jsonio.measure_family_to_obj(_FAM), ("diagram", "family", "bound")),
    jsonio.ground_from_obj: (
        {"breakpoints": [0, "1/2", 1], "values": [0, 1, "1/2"]},
        ("breakpoints", "values"),
    ),
}
_KEYS = sorted({k for _, keys in DECODERS.values() for k in keys} | {"0", "1", "a", "lo", "hi"})

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(-2, 2, allow_nan=False)
    | st.sampled_from(["0", "1", "1/2", "1/0", "inf", "a", "exact", "float"])
    | st.text(max_size=3)
)


def _containers(kids):
    seeded = [st.fixed_dictionaries({k: kids for k in keys}) for _, keys in DECODERS.values()]
    return st.one_of(
        st.lists(kids, max_size=3), st.dictionaries(st.sampled_from(_KEYS), kids, max_size=3), *seeded
    )


#: Any JSON value; objects are often seeded with one schema's keys.
JSON_VALUES = st.recursive(_SCALARS, _containers, max_leaves=10)


@st.composite
def mutated(draw, doc):
    """A copy of `doc` with one nested value replaced by an arbitrary JSON value."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        k = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[k]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        else:
            node[k] = draw(JSON_VALUES)
            return doc


@pytest.mark.parametrize("decode", DECODERS, ids=lambda f: f.__name__)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_decoders_are_total(decode, data):
    valid, keys = DECODERS[decode]
    doc = data.draw(
        st.one_of(
            JSON_VALUES,
            st.fixed_dictionaries({k: JSON_VALUES for k in keys}),
            mutated(valid),
        )
    )
    try:
        decode(doc)
    except errors.ParseError:
        pass


@pytest.mark.parametrize("decode", DECODERS, ids=lambda f: f.__name__)
def test_decoders_accept_their_valid_document(decode):
    valid, _ = DECODERS[decode]
    decode(copy.deepcopy(valid))


#: (decoder, key path of an array field in its valid document)
ARRAY_FIELDS = [
    (jsonio.space_from_obj, ("atoms",)),
    (jsonio.space_from_obj, ("weights",)),
    (jsonio.measure_from_obj, ("mass",)),
    (jsonio.rv_from_obj, ("values",)),
    (jsonio.metspace_from_obj, ("points",)),
    (jsonio.metspace_from_obj, ("dist",)),
    (jsonio.diagram_from_obj, ("elements",)),
    (jsonio.diagram_from_obj, ("leq",)),
    (jsonio.diagram_from_obj, ("connect",)),
    (jsonio.martingale_from_obj, ("family", "0")),
    (jsonio.measure_family_from_obj, ("family", "1")),
    (jsonio.ground_from_obj, ("breakpoints",)),
    (jsonio.ground_from_obj, ("values",)),
]


@pytest.mark.parametrize(
    "decode, path", ARRAY_FIELDS, ids=lambda x: x.__name__ if callable(x) else ".".join(x)
)
def test_string_for_an_array_is_parse_error(decode, path):
    doc = copy.deepcopy(DECODERS[decode][0])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "1" * len(node[path[-1]])
    with pytest.raises(errors.ParseError, match="must be an array"):
        decode(doc)


@pytest.mark.parametrize(
    "to_obj, from_obj",
    [(jsonio.rv_to_obj, jsonio.rv_from_obj), (jsonio.measure_to_obj, jsonio.measure_from_obj)],
)
def test_embedded_space_must_match_a_supplied_one(to_obj, from_obj):
    x = _M.family[1] if to_obj is jsonio.rv_to_obj else _FAM.family[1]
    obj = json.loads(json.dumps(to_obj(x)))
    assert from_obj(obj, space=x.space) == x
    other = make_space(x.space.atoms, ["1/4", "3/4"])
    with pytest.raises(errors.ParseError, match="embedded space disagrees"):
        from_obj(obj, space=other)


def test_values_string_is_not_read_per_character():
    s = make_space(["a", "b"], ["1/2", "1/2"])
    with pytest.raises(errors.ParseError, match="'values' must be an array"):
        jsonio.rv_from_obj({"space": jsonio.space_to_obj(s), "values": "37"})


def test_dist_row_string_is_not_read_per_character():
    # each row must be an array: "01" is not the distances 0 and 1
    ok = {"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]}
    assert jsonio.metspace_from_obj(ok).dist[0][1] == 1
    with pytest.raises(errors.ParseError, match="'dist' must be an array of arrays"):
        jsonio.metspace_from_obj({"points": ["a", "b"], "dist": ["01", "10"]})


def _two_chain_obj(leq):
    u1 = jsonio.space_to_obj(uniform_space(1))
    return {
        "elements": ["a", "b"],
        "leq": leq,
        "spaces": {"a": u1, "b": u1},
        "connect": [{"lo": "a", "hi": "b", "assign": {"0": 0}}],
        "top": "b",
    }


@pytest.mark.parametrize("pair", ["ab", ["a"], ["a", "b", "b"], {"a": "b"}])
def test_leq_entry_must_be_a_two_element_array(pair):
    assert jsonio.diagram_from_obj(_two_chain_obj([["a", "b"]])).le("a", "b")
    with pytest.raises(errors.ParseError, match="'leq' must be an array of 2-element arrays"):
        jsonio.diagram_from_obj(_two_chain_obj([pair]))


def test_parse_error_keeps_the_invalid_diagram_as_its_cause():
    # five unrelated elements: every pair lacks an upper bound, ten problems
    u1 = jsonio.space_to_obj(uniform_space(1))
    obj = {
        "diagram": {
            "elements": list(range(5)),
            "leq": [],
            "spaces": {str(e): u1 for e in range(5)},
            "connect": [],
            "top": None,
        },
        "family": {str(e): ["1"] for e in range(5)},
    }
    with pytest.raises(errors.ParseError) as err:
        jsonio.measure_family_from_obj(obj)
    cause = err.value.__cause__
    assert isinstance(cause, errors.InvalidDiagram)
    assert len(cause.problems) == 10
    assert all(p.startswith("no upper bound for ") for p in cause.problems)
    assert str(err.value).count("no upper bound") == 6


def test_dyadic_diagram_encoding_is_pinned():
    """The JSON of the tent ground's depth-6 dyadic diagram, byte for byte,
    as the label-keyed maps wrote it."""
    d, _ = make_dyadic(DyadicGround([0, F(1, 2), 1], [0, 1, 0]), 6)
    text = json.dumps(jsonio.diagram_to_obj(d), indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "46e912b7b29f4a77796a24fa7d7d33738b5098b5c906d75658282cd9b2c9bd26"


def _metric_encodings():
    """The JSON written for the tensor, product, coproduct and a quotient of
    one exact table with INF and non-integer entries, and for a float table
    and its tensor."""
    from catprob.metcat import LipschitzMap, coequalizer, coproduct, product, tensor

    x = FinPseudometricSpace(["a", "b", "c"], [[0, "1/2", INF], ["1/2", 0, INF], [INF, INF, 0]])
    y = FinPseudometricSpace(
        ["p", "q", "r"], [[0, F(5, 3), 2], [F(5, 3), 0, F(1, 3)], [2, F(1, 3), 0]]
    )
    cop = coproduct([x, y])
    one = FinPseudometricSpace(["*"], [[0]])
    quot = coequalizer(
        LipschitzMap(one, cop, {"*": (0, "a")}), LipschitzMap(one, cop, {"*": (1, "r")})
    ).space
    z = FinPseudometricSpace(
        ["u", "v", "w"], [[0, 0.1, INF], [0.1, 0, INF], [INF, INF, 0]], tol=1e-9
    )
    return {
        "tensor": tensor(x, y), "product": product([x, y]), "coproduct": cop,
        "quotient": quot, "float": z, "float-tensor": tensor(z, z),
    }


#: sha256 of `write_json(metspace_to_obj(space))`, as the Fraction tables wrote it
_METRIC_ENCODINGS = {
    "tensor": "e57ea9534a3edb44ead9ba1054fc802740208d8db10071734cba33846b5c83fb",
    "product": "777661f3cf8cc889d97dd9d22149e9d4ee8b2f263fca6d47521b6b7af8e2c907",
    "coproduct": "aaa49a283f67d6bbe1d44a1ec97dc45365e0bf64cd7d785ad494dabf3db291c4",
    "quotient": "dd98beefff8c5723417866b69cf89a8a9a1915296561c23fcf522a8556d97b2f",
    "float": "eb291802cbf55451d7f89fdf05168c06ec1cc2e3ec6c3b7e6ba1d8186a97a42f",
    "float-tensor": "c93ad1f15c40cb83a2bf5d1afff301334bab680c33a2f7aeb7a50d2ff66ed605",
}


def test_metric_space_encodings_are_pinned(tmp_path):
    for name, space in _metric_encodings().items():
        path = tmp_path / ("%s.json" % name)
        jsonio.write_json(jsonio.metspace_to_obj(space), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _METRIC_ENCODINGS[name], name


# -- read and written by position, against the schema written out -------------------

#: kind -> (decoder, encoder)
_KINDS = {
    "space": (jsonio.space_from_obj, jsonio.space_to_obj),
    "map": (jsonio.map_from_obj, jsonio.map_to_obj),
    "diagram": (jsonio.diagram_from_obj, jsonio.diagram_to_obj),
    "martingale": (jsonio.martingale_from_obj, jsonio.martingale_to_obj),
    "measure family": (jsonio.measure_family_from_obj, jsonio.measure_family_to_obj),
    "metric": (jsonio.metspace_from_obj, jsonio.metspace_to_obj),
}


def _label(a):
    """A label as JSON writes it: a tuple as an array."""
    return [_label(x) for x in a] if isinstance(a, tuple) else a


def _read_label(j):
    """A label as JSON reads it back: an array as a tuple."""
    return tuple(_read_label(x) for x in j) if isinstance(j, list) else j


def _space_document(s):
    weights = [scalar.to_json(w) for w in s.weights]
    return {"atoms": [_label(a) for a in s.atoms], "weights": weights, "backend": s.backend, "tol": s.tol}


def _assign_document(m):
    return {str(a): _label(m.assign[a]) for a in m.src.atoms}


def _diagram_document(d):
    rank = {e: t for t, e in enumerate(d.elements)}
    pairs = sorted(((i, j) for i, j in d.leq if i != j), key=lambda p: (rank[p[0]], rank[p[1]]))
    return {
        "elements": [_label(e) for e in d.elements],
        "leq": [[_label(i), _label(j)] for i, j in pairs],
        "spaces": {str(e): _space_document(d.spaces[e]) for e in d.elements},
        "connect": [{"lo": _label(i), "hi": _label(j), "assign": _assign_document(d.connect[(i, j)])} for i, j in pairs],
        "top": None if d.top is None else _label(d.top),
    }


def _document(kind, x):
    """The document the schema gives for `x`, from its public attributes: each
    label as written, each scalar by `scalar.to_json`, a diagram's pairs of the
    closed order ranked by element position, reflexive ones left out."""
    if kind == "space":
        return _space_document(x)
    if kind == "map":
        return {"src": _space_document(x.src), "dst": _space_document(x.dst), "assign": _assign_document(x)}
    if kind == "diagram":
        return _diagram_document(x)
    if kind == "metric":
        return {"points": [_label(p) for p in x.points], "dist": [[scalar.to_json(v) for v in r] for r in x.dist],
                "tol": x.tol}
    tables = {i: x.family[i].values if kind == "martingale" else x.family[i].mass for i in x.diagram.elements}
    return {
        "diagram": _diagram_document(x.diagram),
        "family": {str(i): [scalar.to_json(v) for v in t] for i, t in tables.items()},
        "bound": scalar.to_json(x.bound),
    }


#: label kinds for n atoms, points or elements; "range" keeps a space over range(n)
_LABELS = {
    "range": lambda n: range(n),
    "int tuple": lambda n: tuple(range(n)),
    "str": lambda n: ["a%d" % k for k in range(n)],
    "tuple": lambda n: [(k, "x") for k in range(n)],
    "reversed": lambda n: list(range(n))[::-1],
    "bool": lambda n: [0, True, *range(2, n)][:n],
}


def _relabel_space(s, labels):
    return FiniteProbSpace(labels(s.size), s.weights, backend=s.backend)


def _relabel_map(m, src, dst):
    images = map(dst.atoms.__getitem__, m._images)
    return MeasurePreservingMap(src, dst, dict(zip(src.atoms, images)))


def _relabel_chain(d, labels):
    order = d.chain_order()  # coarse to fine
    spaces = [_relabel_space(d.spaces[e], labels) for e in order]
    pairs = zip(order, order[1:])
    steps = [_relabel_map(d.connect[p], spaces[t + 1], spaces[t]) for t, p in enumerate(pairs)]
    return FiltrationDiagram.chain(spaces, steps, labels=labels(len(order)), top=True)


@st.composite
def labelled_values(draw, kinds=tuple(_KINDS)):
    """(kind, value): a sampled space, map, chain, family or metric space on
    either backend, its atoms, points and elements labelled by one of _LABELS."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind, backend = draw(st.sampled_from(kinds)), draw(st.sampled_from(scalar.BACKENDS))
    labels = _LABELS[draw(st.sampled_from(sorted(_LABELS)))]
    if kind == "metric":
        x = rand_metric_space(rng)
        table = x.dist if backend == scalar.EXACT else [[float(v) for v in r] for r in x.dist]
        tol = 0 if backend == scalar.EXACT else 1e-9
        return kind, FinPseudometricSpace(labels(x.size), table, tol=tol)
    top = _relabel_space(rand_space(rng, min_atoms=1, max_atoms=12, backend=backend), labels)
    if kind == "space":
        return kind, top
    if kind == "map":
        q = rand_quotient(rng, top)
        return kind, _relabel_map(q, top, _relabel_space(q.dst, labels))
    d = _relabel_chain(rand_refining_chain(rng, top, rng.randint(0, 3)), labels)
    if kind == "diagram":
        return kind, d
    top = d.spaces[d.top]
    if kind == "martingale":
        return kind, induced_martingale(rand_rv(rng, top, bound=2), d)
    return kind, restrict_measure(rand_measure(rng, top, bound=2), d)


def _comparable(x):
    return (x.diagram, dict(x.family), x.bound) if hasattr(x, "family") else x


def _outcome(decode, encode, doc):
    """("error", text, type of the cause), or ("value", the value, its encoding)."""
    try:
        x = decode(copy.deepcopy(doc))
    except errors.ParseError as exc:
        return "error", str(exc), type(exc.__cause__)
    return "value", _comparable(x), json.dumps(encode(x), indent=2, sort_keys=True)


@settings(max_examples=250, deadline=None)
@given(labelled_values())
def test_valid_documents_write_the_schema_and_read_back(case):
    kind, x = case
    decode, encode = _KINDS[kind]
    text = json.dumps(encode(x), indent=2, sort_keys=True)
    assert text == json.dumps(_document(kind, x), indent=2, sort_keys=True)
    doc = json.loads(text)
    assert _outcome(decode, encode, doc) == ("value", _comparable(x), text)
    if kind == "metric":  # the table's literals, parsed once each, by value
        n, backend = len(doc["points"]), x.backend
        den, rows = metcat._coerce_table(doc["dist"], n, backend)
        for row, entries in zip(rows, doc["dist"]):
            for v, entry in zip(row, entries):
                assert v is INF if entry == "inf" else scalar.divider(backend)(v, den) == scalar.coerce(entry, backend)


def _maps_of(kind, x, doc):
    """Each map a decoded value holds, with the `assign` object it was read from."""
    if kind == "map":
        return [(x, doc["assign"])]
    d, diagram_doc = (x, doc) if kind == "diagram" else (x.diagram, doc["diagram"])
    return [
        (d.connect[(_read_label(e["lo"]), _read_label(e["hi"]))], e["assign"]) for e in diagram_doc["connect"]
    ]


def _reads_as_written(kind, x, doc):
    """A decoded map holds what its `assign` object says, key by key and image
    by image (an image equal to its label, as `true` is to 1), on spaces of
    one backend, and preserves measure."""
    for m, table in _maps_of(kind, x, doc):
        assert m.src.backend == m.dst.backend
        assert sorted(table) == sorted(map(str, m.src.atoms))
        for a in m.src.atoms:
            assert _read_label(table[str(a)]) == m.assign[a]
        assert oracles.pushforward_mismatch_literal(m.src, m.dst, m.assign) is None


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_faulty_documents_fail_or_read_back(data):
    """A document with one value replaced fails with a ParseError, or reads to
    a value that writes a document reading back to it, with the same bytes,
    whose maps hold what their `assign` objects say."""
    kind, x = data.draw(labelled_values())
    decode, encode = _KINDS[kind]
    doc = data.draw(mutated(json.loads(json.dumps(encode(x)))))
    got = _outcome(decode, encode, doc)
    if got[0] == "value":
        assert _outcome(decode, encode, json.loads(got[2])) == got
        if kind not in ("space", "metric"):
            _reads_as_written(kind, decode(copy.deepcopy(doc)), doc)


#: images that are not a target label as written, or only equal to one
_ODD_IMAGES = st.one_of(
    st.integers(-2, 12),
    st.booleans(),
    st.sampled_from([0.0, 1.0, -1.0, "0", "1", "a0", None, [0, "x"], [1, "x"], [], {}]),
)


@st.composite
def faulty_assign_documents(draw):
    """(kind, document): a map, diagram or family document with one `assign`
    object given an odd image, a key fewer or an extra key, or one space
    switched to the other backend."""
    kind, x = draw(labelled_values(("map", "diagram", "measure family")))
    doc = json.loads(json.dumps(_KINDS[kind][1](x)))
    d = doc["diagram"] if kind == "measure family" else doc
    tables = [doc["assign"]] if kind == "map" else [entry["assign"] for entry in d["connect"]]
    spaces = [doc["src"], doc["dst"]] if kind == "map" else list(d["spaces"].values())
    fault = draw(st.sampled_from(["image", "drop", "extra", "backend"] if tables else ["backend"]))
    if fault == "backend":
        space = draw(st.sampled_from(spaces))
        space["backend"] = scalar.FLOAT if space["backend"] == scalar.EXACT else scalar.EXACT
        return kind, doc
    table = draw(st.sampled_from(tables))
    key = draw(st.sampled_from(sorted(table)))
    if fault == "image":
        table[key] = draw(_ODD_IMAGES)
    elif fault == "drop":
        del table[key]
    else:
        table[draw(st.sampled_from(["x", "-1", "99", key + " "]))] = table[key]
    return kind, doc


@settings(max_examples=400, deadline=None)
@given(faulty_assign_documents())
def test_faulty_assign_objects_fail_or_read_as_written(case):
    """Each fault an `assign` object can hold fails with a ParseError, or the
    document reads to maps that hold what their `assign` objects say."""
    kind, doc = case
    decode, encode = _KINDS[kind]
    got = _outcome(decode, encode, doc)
    if got[0] == "value":
        _reads_as_written(kind, decode(copy.deepcopy(doc)), doc)


@pytest.mark.parametrize("backend", scalar.BACKENDS)
def test_literal_tables_parse_each_literal_once(monkeypatch, backend):
    calls = []

    def counted(text, _parse=scalar.parse_ratio):
        calls.append(text)
        return _parse(text)

    monkeypatch.setattr(scalar, "parse_ratio", counted)
    doc = {"atoms": list(range(64)), "weights": ["1/64"] * 64, "backend": scalar.EXACT}
    assert jsonio.space_from_obj(doc) == uniform_space(64)
    assert calls == ["1/64"]
    calls.clear()
    table = [["0", "1/2", "inf"], ["1/2", "0", "inf"], ["inf", "inf", "0"]]
    x = jsonio.metspace_from_obj({"points": ["a", "b", "c"], "dist": table})
    assert x.dist[0][1] == F(1, 2)
    assert calls == ["0", "1/2"]


def test_range_labelled_family_reads_by_position(monkeypatch):
    """No decoded space builds its atom tuple or label index, no map is built
    from a label dict, and `_key_lookup` reads only the objects keyed by element."""
    d, _ = make_dyadic(DyadicGround([0, "1/2", 1], [0, 1, "1/2"]), 4)
    mu = rand_measure(random.Random(3), d.spaces[4], bound=2)
    text = json.dumps(jsonio.measure_family_to_obj(restrict_measure(mu, d)))
    looked_up = []

    def key_lookup(labels, table, what, _lookup=jsonio._key_lookup):
        looked_up.append(what)
        return _lookup(labels, table, what)

    def by_label(*args):
        raise AssertionError("a map was read through its label dict")

    monkeypatch.setattr(jsonio, "_key_lookup", key_lookup)
    monkeypatch.setattr(finprob._Map, "__init__", by_label)
    fam = jsonio.measure_family_from_obj(json.loads(text))
    assert looked_up == ["measure family.diagram.spaces", "measure family.family"]
    assert all(s._atoms is None and s._positions is None for s in fam.diagram.spaces.values())
    assert json.dumps(jsonio.measure_family_to_obj(fam)) == text
    assert all(s._atoms is None and s._positions is None for s in fam.diagram.spaces.values())


@pytest.mark.parametrize("extra", [None, "x"])
def test_labels_that_print_alike_are_ambiguous(extra):
    """Atoms 1 and "1" are two labels, but one key: the map's object is
    ambiguous, also when a third key makes up the count."""
    src = make_space([0, 1, "1"], ["1/4", "1/4", "1/2"])
    m = make_map(src, uniform_space(1), {0: 0, 1: 0, "1": 0})
    doc = jsonio.map_to_obj(m)
    assert doc == _document("map", m)
    if extra:
        doc["assign"][extra] = 0
    assert _outcome(jsonio.map_from_obj, jsonio.map_to_obj, doc) == (
        "error", "map.assign: ambiguous label '1'", type(None)
    )
