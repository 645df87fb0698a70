"""JSON schemas for every value type, with bit-exact rational round trips.

Exact scalars travel as "num/den" strings, floats as JSON numbers, infinity
as the literal "inf".  Tables keyed by atoms or poset elements are JSON
objects keyed by str(label); the declared label arrays keep the original
(possibly non-string) labels, and loading matches keys back against them.
Atoms 0..n-1 decode as a space over range(n), `_read_map` reads an `assign`
object to image positions, and `scalar.parse_ratio` parses each distinct
literal once per process.  A diagram is written by its covering pairs, from
which the reader derives every composite; a document that also lists the
composites of the closed order reads to the same diagram.
"""
from __future__ import annotations

import json

from . import scalar
from .diagram import ConsistentMeasureFamily, DyadicGround, FiltrationDiagram, Martingale
from .errors import ParseError
from .finmeas import FiniteMeasure
from .finprob import FiniteProbSpace, MeasurePreservingMap
from .finrv import FiniteRandomVariable
from .metcat import FinPseudometricSpace


def _atom_to_json(a):
    if isinstance(a, tuple):
        return [_atom_to_json(x) for x in a]
    return a


def _atom_from_json(a):
    if isinstance(a, list):
        return tuple(_atom_from_json(x) for x in a)
    return a


def _key_lookup(labels, table, what):
    """Resolve a str-keyed JSON object against declared labels."""
    if not isinstance(table, dict):
        raise ParseError("%s: expected an object keyed by label" % what)
    byname = {}
    for label in labels:
        name = str(label)
        if name in byname:
            raise ParseError("%s: ambiguous label %r" % (what, name))
        byname[name] = label
    out = {}
    for name, value in table.items():
        if name not in byname:
            raise ParseError("%s: unknown label %r" % (what, name))
        out[byname[name]] = value
    missing = [str(l) for l in labels if l not in out]
    if missing:
        raise ParseError("%s: missing entries for %r" % (what, missing[:4]))
    return out


def _need(obj, key, what):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError("%s: missing field %r" % (what, key))
    return obj[key]


def _need_list(obj, key, what, rows=None):
    """`_need`, for a field that must be a JSON array (a string is not one).
    With `rows`, each entry must be an array of `rows` entries (any if 0)."""
    value = _need(obj, key, what)
    if not isinstance(value, list):
        raise ParseError("%s: field %r must be an array" % (what, key))
    if rows is not None and not all(isinstance(r, list) and rows in (0, len(r)) for r in value):
        shape = "%d-element arrays" % rows if rows else "arrays"
        raise ParseError("%s: field %r must be an array of %s" % (what, key, shape))
    return value


class _guard:
    """Report any failure other than a ParseError as a ParseError about `what`
    (a class, not a generator: a document enters one per space, map and level)."""

    __slots__ = ("what",)

    def __init__(self, what):
        self.what = what

    def __enter__(self):
        pass

    def __exit__(self, kind, exc, tb):
        if kind is not None and issubclass(kind, Exception) and not issubclass(kind, ParseError):
            raise ParseError("%s: %s" % (self.what, exc)) from exc


# -- spaces ------------------------------------------------------------------------


def _labels(space):
    """Each atom's JSON label, by position; a space over range(n) writes its positions,
    also once its atom tuple is built."""
    return list(range(space.size)) if space._positional else [_atom_to_json(a) for a in space._atoms]


def _names(space):
    """str(label) of each atom, by position: the keys of a JSON object by atom."""
    return list(map(str, range(space.size) if space._positional else space._atoms))


def space_to_obj(s):
    weights = scalar.scaled_to_json(*s._scaled)
    return {"atoms": _labels(s), "weights": weights, "backend": s.backend, "tol": s.tol}


def space_from_obj(obj, what="space"):
    raw_atoms = _need_list(obj, "atoms", what)
    weights = _need_list(obj, "weights", what)
    with _guard(what):
        n = len(raw_atoms)  # the ints 0..n-1 (not true, not 1.0) are positions
        ints = raw_atoms == list(range(n)) and all(type(a) is int for a in raw_atoms)
        atoms = range(n) if ints else [_atom_from_json(a) for a in raw_atoms]
        backend = obj.get("backend")
        if backend is None:
            backend = scalar.EXACT if all(isinstance(w, (str, int)) for w in weights) else scalar.FLOAT
        return FiniteProbSpace(atoms, weights, backend=backend, tol=obj.get("tol"))


# -- maps --------------------------------------------------------------------------


def map_to_obj(m):
    return {
        "src": space_to_obj(m.src),
        "dst": space_to_obj(m.dst),
        "assign": dict(zip(_names(m.src), map(_labels(m.dst).__getitem__, m._images))),
    }


def _read_map(src, dst, table, what, where, names):
    """The map src -> dst of an `assign` object, its images read by the keys `names`
    straight to positions; a faulty object, or an image such as `true` that only
    equals a label, goes through `_key_lookup` and the label-keyed constructor."""
    images, unique = None, src._positional or len(set(names)) == len(names)  # no two print alike
    if unique and type(table) is dict and len(table) == len(names):
        try:
            raw = list(map(table.__getitem__, names))
            if not dst._positional:
                images = tuple([dst._index[_atom_from_json(b)] for b in raw])
            elif min(raw) >= 0:  # a negative index would count from the end
                images = tuple(map(range(dst.size).__getitem__, raw))
        except (KeyError, TypeError, IndexError):
            images = None
    with _guard(where):
        if images is None:
            raw = _key_lookup(src.atoms, table, what)
            return MeasurePreservingMap(src, dst, {a: _atom_from_json(b) for a, b in raw.items()})
        scalar.same_backend(src, dst)
        return MeasurePreservingMap._from_images(src, dst, images)


def map_from_obj(obj, what="map"):
    src = space_from_obj(_need(obj, "src", what), what + ".src")
    dst = space_from_obj(_need(obj, "dst", what), what + ".dst")
    return _read_map(src, dst, _need(obj, "assign", what), what + ".assign", what, _names(src))


# -- measures and random variables ---------------------------------------------------


def _table_to_obj(x, field):
    return {"space": space_to_obj(x.space), field: scalar.scaled_to_json(*x._scaled)}


def _table_from_obj(obj, space, what, table_type, field):
    """A random variable or measure; an embedded space must equal a supplied one."""
    with _guard(what):
        if space is None:
            space = space_from_obj(_need(obj, "space", what), what + ".space")
        elif isinstance(obj, dict) and "space" in obj:
            if space_from_obj(obj["space"], what + ".space") != space:
                raise ParseError("%s: embedded space disagrees with the supplied one" % what)
        return table_type(space, _need_list(obj, field, what))


def measure_to_obj(mu):
    return _table_to_obj(mu, "mass")


def measure_from_obj(obj, space=None, what="measure"):
    return _table_from_obj(obj, space, what, FiniteMeasure, "mass")


def rv_to_obj(f):
    return _table_to_obj(f, "values")


def rv_from_obj(obj, space=None, what="rv"):
    return _table_from_obj(obj, space, what, FiniteRandomVariable, "values")


# -- metric spaces --------------------------------------------------------------------


def metspace_to_obj(x):
    den, rows = x._scaled
    return {
        "points": [_atom_to_json(p) for p in x.points],
        "dist": [scalar.scaled_to_json(den, row) for row in rows],
        "tol": x.tol,
    }


def metspace_from_obj(obj, what="metric space"):
    raw_points = _need_list(obj, "points", what)
    dist = _need_list(obj, "dist", what, rows=0)
    with _guard(what):
        points = [_atom_from_json(p) for p in raw_points]
        return FinPseudometricSpace(points, dist, tol=obj.get("tol", 0))


# -- diagrams and families -------------------------------------------------------------


def diagram_to_obj(d):
    # the covering pairs, ranked by position: on a valid diagram they generate the
    # order and fix every other map, which the reader derives (it also reads composites)
    names = {e: _names(d.spaces[e]) for e in d.elements}  # a pair's assign object, by position
    labels = {e: _labels(d.spaces[e]) for e in d.elements}
    return {
        "elements": [_atom_to_json(e) for e in d.elements],
        "leq": [[_atom_to_json(i), _atom_to_json(j)] for i, j in d.covers],
        "spaces": {str(e): space_to_obj(d.spaces[e]) for e in d.elements},
        "connect": [
            {
                "lo": _atom_to_json(i),
                "hi": _atom_to_json(j),
                "assign": dict(zip(names[j], map(labels[i].__getitem__, d.connect[(i, j)]._images))),
            }
            for (i, j) in d.covers
        ],
        "top": None if d.top is None else _atom_to_json(d.top),
    }


def diagram_from_obj(obj, what="diagram"):
    with _guard(what):
        elements = [_atom_from_json(e) for e in _need_list(obj, "elements", what)]
        spaces_raw = _key_lookup(elements, _need(obj, "spaces", what), what + ".spaces")
        spaces = {
            e: space_from_obj(spaces_raw[e], "%s.spaces[%s]" % (what, e)) for e in elements
        }
        leq = [
            (_atom_from_json(i), _atom_from_json(j))
            for i, j in _need_list(obj, "leq", what, rows=2)
        ]
        connect, names = {}, {}
        for entry in _need_list(obj, "connect", what):
            i = _atom_from_json(_need(entry, "lo", what + ".connect"))
            j = _atom_from_json(_need(entry, "hi", what + ".connect"))
            if j not in spaces or i not in spaces:
                raise ParseError("%s.connect: unknown pair (%r, %r)" % (what, i, j))
            keys = names.get(j) or names.setdefault(j, _names(spaces[j]))  # once per space
            table, where = _need(entry, "assign", what + ".connect"), "%s.connect (%r, %r)" % (what, i, j)
            connect[(i, j)] = _read_map(spaces[j], spaces[i], table, what + ".connect", where, keys)
        top = obj.get("top")
        top = None if top is None else _atom_from_json(top)
        return FiltrationDiagram(elements, leq, spaces, connect, top=top)


def _family_to_obj(fam):
    return {
        "diagram": diagram_to_obj(fam.diagram),
        "family": {
            str(i): scalar.scaled_to_json(*fam.family[i]._scaled) for i in fam.diagram.elements
        },
        "bound": scalar.to_json(fam.bound),
    }


def _family_from_obj(obj, what, family_type, level_type):
    d = diagram_from_obj(_need(obj, "diagram", what), what + ".diagram")
    fam_raw = _key_lookup(d.elements, _need(obj, "family", what), what + ".family")
    family = {}
    for i in d.elements:
        with _guard("%s.family[%s]" % (what, i)):
            family[i] = level_type(d.spaces[i], _need_list(fam_raw, i, what + ".family"))
    with _guard(what):
        return family_type(d, family, bound=obj.get("bound"))


martingale_to_obj = measure_family_to_obj = _family_to_obj


def martingale_from_obj(obj, what="martingale"):
    return _family_from_obj(obj, what, Martingale, FiniteRandomVariable)


def measure_family_from_obj(obj, what="measure family"):
    return _family_from_obj(obj, what, ConsistentMeasureFamily, FiniteMeasure)


# -- dyadic grounds ---------------------------------------------------------------------


def ground_from_obj(obj, what="ground"):
    """A dyadic ground function from {"breakpoints": [...], "values": [...]}."""
    breakpoints = _need_list(obj, "breakpoints", what)
    values = _need_list(obj, "values", what)
    with _guard(what):
        return DyadicGround(breakpoints, values)


# -- file helpers ------------------------------------------------------------------------


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("%s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("%s:%d:%d: %s" % (path, exc.lineno, exc.colno, exc.msg)) from exc


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
