"""Finite extended-pseudometric spaces and 1-Lipschitz maps.

Constructions: sup-metric product, equalizer subspace, infinity-separated
coproduct, chain-infimum coequalizer, sum-metric tensor, sup-metric hom over
a supplied family of maps, currying both ways, scaling, metric reflection.
Distances may be infinite; every table holds infinity as the one object
`INF` (`math.inf`).

Distances follow the numeric model of `scalar`, the one the probability
side and the dyadic grounds use.  The backend comes from `tol`: tol == 0
makes an exact table, tol > 0 a float table.  A space stores its table once,
as the scaled form `_scaled = (den, rows)`: on an exact table, rows of ints
over one den in lowest terms, so equal tables have equal forms; on a float
table, den 1 and rows of floats.  INF stays INF in both.  `dist` is a
read-only property: an exact table builds its Fractions on first read, and
`distance` builds only its one entry.  A user's table enters by
`scalar.coerce_scaled`'s rules (ints, Fractions and "num/den" strings on
both backends, floats on the float one); infinity (`math.inf` or "inf") is
taken on both; bools, None, nan, -inf, finite floats in an exact table and
anything else raise InvalidMetric.  `tol` must be a finite real >= 0.

The constructions take only spaces and maps (else DomainMismatch), compute
on the rows with one body for both backends, and hand their forms, marked
`_Built`, to the one constructor.  Ints and INF compare exactly, `max` and
`min` mix them freely, and sums test for INF first (int + INF overflows
above about 1.8e308).  An exact construction's axioms follow from its
inputs' (see the README), so it is not scanned; every other table gets one
axiom scan: exact with INF read as 2*max + 1, float with tol slack.

`product`, `tensor` and `coproduct` take one backend, as the probability
side does, and raise BackendMismatch on mixed inputs.  A hom space holds
target distances, so it takes its target's tol.  A LipschitzMap, the
probability side's map type (`finprob._Map`) checked by the 1-Lipschitz pair
scan, may join spaces of different backends; the constructions build their
maps from image positions, and each map is still scanned.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from . import scalar
from .errors import (
    BackendMismatch,
    DomainMismatch,
    EmptyFamily,
    InvalidMetric,
    NotLipschitz,
    NotParallel,
    ProductTooLarge,
)
from .finprob import _Map, _Scaled, _given, _then

INF = math.inf

#: Guard on product/tensor point counts.  Product/tensor of two line metrics, 2 CPUs:
#: 144, 400, 576 points take .005/.001, .04/.006, .08/.013 s exact; .12/.12, 2.4/2.5, 7/11 s float.
MAX_PRODUCT_POINTS = 10 ** 6


def _coerce_dist(value, backend):
    """One entry of a user's table by `scalar.coerce_scaled`'s rules, as
    (num, den), or INF for infinity."""
    try:
        den, (num,) = scalar.coerce_scaled((value,), backend)
    except (ValueError, ZeroDivisionError, BackendMismatch) as exc:
        if value == INF or value == "inf":
            return INF
        raise InvalidMetric("not a distance: %r (%s)" % (value, exc)) from None
    return num, den


def _coerce_table(dist, n, backend):
    """The scaled form of a user's n x n table, its entries coerced in row order."""
    try:
        rows = [list(r) for r in dist]
    except TypeError:  # the table, or one of its rows, is not iterable
        raise InvalidMetric("distance table is not a list of rows: %r" % (dist,)) from None
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidMetric("distance table is not %d x %d" % (n, n))
    ratios = None
    if backend == scalar.EXACT:  # coerce_scaled's rules inline, in one pass
        try:
            ratios = [
                [
                    (v, 1) if type(v) is int else v.as_integer_ratio() if type(v) is Fraction
                    else INF if v is INF or v == "inf"
                    else scalar.parse_ratio(v) if type(v) is str
                    else _coerce_dist(v, backend)
                    for v in r
                ]
                for r in rows
            ]
        except (ValueError, ZeroDivisionError):  # a malformed string: the walk words it
            pass
    if ratios is None:
        ratios = [[INF if v is INF else _coerce_dist(v, backend) for v in r] for r in rows]
    den = math.lcm(*[p[1] for r in ratios for p in r if p is not INF])
    return den, tuple([tuple([p if p is INF else p[0] * (den // p[1]) for p in r]) for r in ratios])


def _lowest(den, rows):
    """An exact form in lowest terms, the least den, as every exact table is
    stored; a form over den 1 (every float form) is returned as it is."""
    if den == 1:
        return den, rows
    g = math.gcd(den, *filter(INF.__ne__, itertools.chain.from_iterable(rows)))
    if g == 1:
        return den, rows
    return den // g, tuple([tuple([v if v is INF else v // g for v in r]) for r in rows])


class FinPseudometricSpace:
    """Ordered finite point set with a symmetric distance table, exact for
    tol=0 and float for tol > 0, stored as its scaled form (see the module
    docstring); `dist` is built from it, and `==` and `hash` read the values."""

    __slots__ = ("points", "tol", "_index", "_scaled", "_dist")

    def __init__(self, points, dist, tol=0):
        scalar.check_tol(tol)
        self.tol = tol  # first, since it fixes the backend
        try:
            points = tuple(points)
            index = {p: i for i, p in enumerate(points)}
        except TypeError as exc:  # not iterable, or an unhashable label
            raise InvalidMetric(str(exc)) from None
        if len(index) != len(points):
            raise InvalidMetric("duplicate point labels")
        backend = self.backend
        exact = backend == scalar.EXACT
        if not isinstance(dist, _Scaled):
            den, rows = _coerce_table(dist, len(points), backend)
        elif exact:  # a construction's rows: ints and INF, maybe not in lowest terms
            den, rows = _lowest(*dist)
        else:  # a construction's rows: floats, and maybe the int 0 of an empty sup
            den, rows = 1, tuple([tuple(map(float, r)) for r in dist[1]])
        if not (exact and type(dist) is _Built):  # an exact construction is a metric by proof
            _check_axioms(points, den, rows, tol, scalar.divider(backend))
        self.points, self._index, self._scaled = points, index, (den, rows)
        self._dist = None if exact else rows

    @property
    def dist(self):
        """The distance table; an exact table builds its Fractions here, once,
        one per distinct entry (a symmetric table holds each twice)."""
        if self._dist is None:
            den, rows = self._scaled
            value = {v: _value(v, den, Fraction) for v in set(itertools.chain.from_iterable(rows))}
            self._dist = tuple([tuple(map(value.__getitem__, r)) for r in rows])
        return self._dist

    def distance(self, x, y):
        try:
            i, j = self._index[x], self._index[y]
        except (KeyError, TypeError):
            raise DomainMismatch("points %r, %r: not both in the space" % (x, y)) from None
        if self._dist is not None:
            return self._dist[i][j]
        den, rows = self._scaled
        return _value(rows[i][j], den, Fraction)

    @property
    def backend(self):
        return scalar.EXACT if self.tol == 0 else scalar.FLOAT

    @property
    def size(self):
        return len(self.points)

    def __eq__(self, other):
        """Same points and distances: equal forms on one backend, else equal `dist`."""
        if not isinstance(other, FinPseudometricSpace):
            return NotImplemented
        if self.points != other.points:
            return False
        if self.backend == other.backend:
            return self._scaled == other._scaled
        return self.dist == other.dist

    def __hash__(self):
        return hash((self.points, self.dist))

    def __repr__(self):
        return "FinPseudometricSpace(points=%r)" % (self.points,)


def _value(v, den, div):
    """An entry of a scaled form as a distance: INF, or div(v, den)."""
    return v if v is INF else div(v, den)


def _check_axioms(points, den, rows, tol, div):
    """Raise InvalidMetric for the first axiom failure, in scan order: per
    row i, d(i,i) = 0 and then each entry's sign and symmetry; then every
    triangle d(i,j) <= d(i,k) + d(k,j), in (i, j, k) order.

    The scan reads the stored rows.  On an exact table, INF is read as
    top = 2*max + 1 (an int sum never overflows, as int + INF may).  Once
    the entries are known to be non-negative, top keeps the int triangle
    true exactly when the saturating one holds: a sum with a top term is at
    least top, which no entry exceeds, and a finite sum is at most
    2*max < top.  A float table is read as it is, INF included, with tol
    slack.  Messages print the entries as `dist` reads them, `div(v, den)`.
    """
    n = len(rows)
    table = rows
    if tol == 0:
        if any(INF in r for r in rows):
            # > 0 past row 0, whose d(0,0) = 0 is among the finite entries
            top = 2 * max(filter(INF.__ne__, itertools.chain.from_iterable(rows)), default=0) + 1
            rows = [tuple([top if v is INF else v for v in r]) for r in rows]
        # slack is the int 0, as a 0.0 tol would make the sums floats.  Once
        # the rows pass, the table is symmetric and triangle (j, i) repeats
        # (i, j), so only the upper triangle is scanned.
        slack, upper = 0, True
    else:  # symmetric only within tol: every j, against the real columns
        slack, upper = tol, False

    def entry(i, j):
        return _value(table[i][j], den, div)

    cols = list(zip(*rows))
    for i, (ri, ci) in enumerate(zip(rows, cols)):
        if abs(ri[i]) > slack:  # d(i,i) = 0, within tol on a float table
            raise InvalidMetric("d(%r,%r) = %s != 0" % (points[i], points[i], entry(i, i)))
        if ri != ci or min(ri) < 0:  # the walk only names the failing entry
            for j, (a, b) in enumerate(zip(ri, ci)):
                if a < 0:
                    raise InvalidMetric("negative distance at (%r,%r)" % (points[i], points[j]))
                if not (a == b or scalar.eq(a, b, slack)):  # INF equals only INF
                    raise InvalidMetric(
                        "asymmetry at (%r,%r): %s vs %s"
                        % (points[i], points[j], entry(i, j), entry(j, i))
                    )
    add = operator.add
    for i, ri in enumerate(rows):
        for j in range(i + 1 if upper else 0, n):
            cj = cols[j]
            if ri[j] > min(map(add, ri, cj)) + slack:
                k = next(k for k in range(n) if ri[j] > ri[k] + cj[k] + slack)
                raise InvalidMetric(
                    "triangle violated: d(%r,%r) > d(%r,%r) + d(%r,%r)"
                    % (points[i], points[j], points[i], points[k], points[k], points[j])
                )


class LipschitzMap(_Map):
    """Point assignment that never expands distances (1-Lipschitz), stored
    by image positions as `MeasurePreservingMap` is (see `finprob._Map`).

    Source and target may have different backends (curry sends an exact
    tensor factor into a float hom space); the check then allows the larger
    tol.
    """

    __slots__ = ()
    _words, _labels = ("points", "points", "point", "target"), operator.attrgetter("points")

    @staticmethod
    def _check(src, dst, images):
        """Raise NotLipschitz for the first expanding pair, in (x, y) order.

        Two exact tables are compared in one pass on their ints: image entry
        a over dden against source entry b over sden, as a <= b when the dens
        are equal and as a * sden <= b * dden when not.  An int compares
        exactly against INF, and INF times a den is INF; a den past the float
        range overflows there, and the walk decides.  The walk, on the
        entries as `dist` reads them with the larger tol, checks every other
        pair of spaces and words the first failing pair of any map that fails.
        """
        if src.backend == dst.backend == scalar.EXACT:
            (sden, srows), (dden, drows) = src._scaled, dst._scaled
            image = itertools.chain.from_iterable(map(drows[i].__getitem__, images) for i in images)
            given = itertools.chain.from_iterable(srows)
            if sden != dden:
                mul, repeat = operator.mul, itertools.repeat
                image, given = map(mul, image, repeat(sden)), map(mul, given, repeat(dden))
            try:
                if all(map(operator.le, image, given)):
                    return
            except OverflowError:
                pass
        tol = max(src.tol, dst.tol)
        for x, i, row in zip(src.points, images, src.dist):
            image_row = dst.dist[i]
            for y, j, dxy in zip(src.points, images, row):
                dfxy = image_row[j]
                if not scalar.le(dfxy, dxy, tol):
                    raise NotLipschitz(
                        "pair (%r,%r): image distance %s > source distance %s"
                        % (x, y, dfxy, dxy)
                    )

    def __init__(self, src, dst, assign):  # its own, so the benchmark tracer counts it
        _Map.__init__(self, src, dst, assign)


def identity_lipschitz(space):
    return LipschitzMap._from_images(space, space, range(space.size))


def compose_lipschitz(f, g):
    """f first, then g."""
    if f.dst != g.src:
        raise DomainMismatch("maps do not compose")
    return LipschitzMap._from_images(f.src, g.dst, _then(f._images, g._images))


def _over_one_den(spaces):
    """The least common den of the spaces' forms, and each space's rows over it."""
    den = math.lcm(*[s._scaled[0] for s in spaces])
    tables = []
    for s in spaces:
        d, rows = s._scaled
        if d != den:
            k = den // d
            rows = tuple([tuple([v if v is INF else v * k for v in r]) for r in rows])
        tables.append(rows)
    return den, tables


class _Built(_Scaled):
    """A construction's form: its axioms follow from its inputs' on an exact table."""


def _space(points, den, rows, tol):
    """A construction's space: its form through the one constructor."""
    return FinPseudometricSpace(points, _Built((den, tuple(map(tuple, rows)))), tol=tol)


def _family(kind, name, family):
    """A construction's family of `kind`s, as a tuple."""
    if not isinstance(family, Iterable):
        raise DomainMismatch("%s is a %s, not an iterable" % (name, type(family).__name__))
    family = tuple(family)
    _given(kind, *[("%s[%d]" % (name, i), v) for i, v in enumerate(family)])
    return family


# -- limits ---------------------------------------------------------------------

def product(spaces):
    """Product with the sup metric; points are tuples of factor points."""
    spaces = _family(FinPseudometricSpace, "spaces", spaces)
    if not spaces:
        raise EmptyFamily("product of an empty family is not supported")
    cells, points = _cells("product", spaces)
    _, tol = scalar.same_backend(*spaces)
    den, tables = _over_one_den(spaces)
    # the product of the factor rows gives each cell's distances in cell
    # order; max from 0, as a loop keeping the first strictly larger one
    table = [
        tuple([max(0, *ds) for ds in itertools.product(*[d[a] for d, a in zip(tables, xs)])])
        for xs in cells
    ]
    return _space(points, den, table, tol)


def _cells(what, spaces):
    """Index cells and points of a product or tensor, after the size guard."""
    count = 1
    for s in spaces:
        count *= s.size
        if count > MAX_PRODUCT_POINTS:
            raise ProductTooLarge("%s would have more than %d points" % (what, MAX_PRODUCT_POINTS))
    cells = list(itertools.product(*(range(s.size) for s in spaces)))
    return cells, tuple(itertools.product(*(s.points for s in spaces)))


def projection(prod_space, spaces, i):
    """The i-th projection out of a product built by `product`."""
    return LipschitzMap(prod_space, spaces[i], {p: p[i] for p in prod_space.points})


def equalizer(f, g):
    """Subspace where f and g agree, with its distance-preserving inclusion."""
    _given(LipschitzMap, ("f", f), ("g", g))
    if f.src != g.src or f.dst != g.dst:
        raise NotParallel("equalizer needs a parallel pair")
    src = f.src
    pos = tuple([i for i, (u, v) in enumerate(zip(f._images, g._images)) if u == v])
    den, rows = src._scaled
    table = [tuple(map(rows[i].__getitem__, pos)) for i in pos]
    sub = _space([src.points[i] for i in pos], den, table, src.tol)
    return sub, LipschitzMap._from_images(sub, src, pos)


# -- colimits -------------------------------------------------------------------

def coproduct(spaces):
    """Disjoint union; points are (component index, point), cross distances inf."""
    spaces = _family(FinPseudometricSpace, "spaces", spaces)
    if not spaces:
        raise EmptyFamily("coproduct of an empty family is not supported")
    _, tol = scalar.same_backend(*spaces)
    den, tables = _over_one_den(spaces)
    cells = [(i, a) for i, s in enumerate(spaces) for a in range(s.size)]
    points = [(i, spaces[i].points[a]) for i, a in cells]
    far = [(INF,) * s.size for s in spaces]
    table = [
        tuple(itertools.chain(*[tables[i][a] if i == j else f for j, f in enumerate(far)]))
        for i, a in cells
    ]
    return _space(points, den, table, tol)


def _partition(points, pairs):
    """Classes of the equivalence on positions generated by `pairs`.

    Returns (class_of, members): the class number of each position and the
    points of each class in position order.  Classes are numbered by their
    least position.
    """
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    class_of, members = [], []
    for i, p in enumerate(points):
        r = find(i)  # the least position of i's class, so class_of[r] is known
        c = len(members) if r == i else class_of[r]
        if r == i:
            members.append([])
        members[c].append(p)
        class_of.append(c)
    return class_of, [tuple(m) for m in members]


def _min_plus_closure(table):
    """Close a square table (list of lists) under paths, in place; INF is no edge."""
    n = len(table)
    for m in range(n):
        row_m = table[m]
        for i in range(n):
            dim = table[i][m]
            if dim is INF:
                continue
            row_i = table[i]
            for j in range(n):
                dmj = row_m[j]
                if dmj is INF:
                    continue
                alt = dim + dmj
                if row_i[j] is INF or alt < row_i[j]:
                    row_i[j] = alt


@dataclass
class CoequalizerResult:
    space: FinPseudometricSpace
    projection: LipschitzMap
    #: class pairs where the single-intermediate formula exceeds the chain infimum
    one_step_gaps: tuple


def coequalizer(f, g):
    """Quotient of the target by the relation generated by f(x) ~ g(x).

    The quotient metric is the chain infimum: build the class graph with
    edge weight min over representatives of the target distance, then close
    under paths (all-pairs shortest path).  The one-step formula
    inf{d(y1',y) + d(y,y2')} is also evaluated; pairs where it is strictly
    larger than the chain value are reported in `one_step_gaps`, whose two
    values are distances as `dist` reads them.  Both run on the target's rows.
    """
    _given(LipschitzMap, ("f", f), ("g", g))
    if f.src != g.src or f.dst != g.dst:
        raise NotParallel("coequalizer needs a parallel pair")
    Y = f.dst
    class_of, members = _partition(Y.points, zip(f._images, g._images))
    k = len(members)
    den, rows = Y._scaled
    chain = [[(0 if i == j else INF) for j in range(k)] for i in range(k)]
    for ci, row in zip(class_of, rows):
        for cj, d in zip(class_of, row):
            if ci != cj and d < chain[ci][cj]:
                chain[ci][cj] = chain[cj][ci] = d
    _min_plus_closure(chain)
    # single-intermediate value, for the discrepancy report
    gaps, div = [], scalar.divider(Y.backend)
    pos = [[] for _ in members]
    for i, c in enumerate(class_of):
        pos[c].append(i)
    for ci in range(k):
        for cj in range(ci + 1, k):
            sums = [  # d(i,m) + d(m,j), in (i, m, j) order
                INF if a is INF or b is INF else a + b
                for i in pos[ci]
                for a, row_m in zip(rows[i], rows)
                for b in map(row_m.__getitem__, pos[cj])
            ]
            one, chained = min(sums, default=INF), chain[ci][cj]
            if one != chained:
                one, chained = _value(one, den, div), _value(chained, den, div)
                gaps.append((members[ci], members[cj], one, chained))
    quot = _space(members, den, chain, Y.tol)
    proj = LipschitzMap._from_images(Y, quot, tuple(class_of))
    return CoequalizerResult(quot, proj, tuple(gaps))


# -- monoidal structure -----------------------------------------------------------

def _tensor_table(x_space, y_space):
    """Points and the sum-metric form (den, rows) of the tensor, before
    validation; a factor's INF makes the sum INF.  On one backend the form
    is in lowest terms: adding a zero diagonal entry of one factor gives
    every entry of the other, so a nonempty table needs the least common den."""
    cells, points = _cells("tensor", [x_space, y_space])
    den, (dx, dy) = _over_one_den([x_space, y_space])
    table = tuple([
        tuple([INF if a is INF or b is INF else a + b for a in dx[i] for b in dy[j]])
        for i, j in cells
    ])
    return points, (den if cells else 1, table)


def tensor(x_space, y_space):
    """Pair points with the sum metric."""
    _given(FinPseudometricSpace, ("x_space", x_space), ("y_space", y_space))
    _, tol = scalar.same_backend(x_space, y_space)
    points, (den, table) = _tensor_table(x_space, y_space)
    return _space(points, den, table, tol)


def _hom_sup(f, g):
    """(sup over source positions of f's target entry between the images,
    the first position reaching it), on the target's rows; (0, None) on an
    empty source."""
    rows = f.dst._scaled[1]
    best, witness = 0, None
    for k, i, j in zip(itertools.count(), f._images, g._images):
        d = rows[i][j]
        if witness is None or d > best:
            best, witness = d, k
    return best, witness


def hom_distance(f, g):
    """Sup over source points of the target distance, with a witness point."""
    _given(LipschitzMap, ("f", f), ("g", g))
    if f.src != g.src or f.dst != g.dst:
        raise NotParallel("hom distance needs a parallel pair")
    best, k = _hom_sup(f, g)  # (0, None) on an empty source, where all maps coincide
    d = _value(best, f.dst._scaled[0], scalar.divider(f.dst.backend))
    return d, None if k is None else f.src.points[k]


@dataclass
class HomResult:
    space: FinPseudometricSpace  # points are 0..n-1, positions in `maps`
    maps: tuple


def hom(maps):
    """Sup metric on a finite family of parallel 1-Lipschitz maps."""
    maps = _family(LipschitzMap, "maps", maps)
    if not maps:
        raise EmptyFamily("hom needs at least one map")
    for m in maps[1:]:
        if m.src != maps[0].src or m.dst != maps[0].dst:
            raise NotParallel("hom maps must share source and target")
    dst = maps[0].dst  # the distances are the target's, and so is the tol
    n = len(maps)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = _hom_sup(maps[i], maps[j])[0]
    return HomResult(_space(range(n), dst._scaled[0], table, dst.tol), maps)


@dataclass
class CurryResult:
    per_point: dict  # x -> LipschitzMap(Y, Z)
    hom_result: HomResult
    outer: LipschitzMap  # X -> hom space (indices aligned with X's point order)


def curry(h, x_space, y_space):
    """Split h: X tensor Y -> Z into a 1-Lipschitz family of maps Y -> Z.

    Requires h's source to be the tensor of the two given spaces, on their
    one backend.  Both the per-point maps and the outer assignment into
    the sup metric are validated 1-Lipschitz (they are, by the sum-metric
    inequality).
    """
    _given(LipschitzMap, ("h", h))
    _given(FinPseudometricSpace, ("x_space", x_space), ("y_space", y_space))
    if not h.src.backend == x_space.backend == y_space.backend:  # a tensor has one backend
        raise DomainMismatch("map source is not the tensor of the given spaces")
    if (h.src.points, h.src._scaled) != _tensor_table(x_space, y_space):
        raise DomainMismatch("map source is not the tensor of the given spaces")
    n = y_space.size  # h's source points run over y for each x in turn
    per = {
        x: LipschitzMap._from_images(y_space, h.dst, h._images[k * n:(k + 1) * n])
        for k, x in enumerate(x_space.points)
    }
    hr = hom(per.values())
    outer = LipschitzMap._from_images(x_space, hr.space, range(x_space.size))
    return CurryResult(per, hr, outer)


def uncurry(per_point, x_space, y_space):
    """Inverse of curry: rebuild the map on the tensor from the family."""
    _given(Mapping, ("per_point", per_point))
    _given(FinPseudometricSpace, ("x_space", x_space), ("y_space", y_space))
    if not x_space.points or any(x not in per_point for x in x_space.points):
        raise DomainMismatch("uncurry needs a map for each point of a nonempty first factor")
    members = [per_point[x] for x in x_space.points]
    for m in members:
        if not isinstance(m, LipschitzMap) or m.src != y_space or m.dst != members[0].dst:
            raise DomainMismatch("family members must be parallel maps from the second factor")
    images = tuple(itertools.chain.from_iterable(m._images for m in members))
    return LipschitzMap._from_images(tensor(x_space, y_space), members[0].dst, images)


# -- rescaling and reflection -------------------------------------------------------

def scale(space, r):
    """Multiply every distance by r > 0 (inf stays inf)."""
    _given(FinPseudometricSpace, ("space", space))
    rden, (rnum,) = scalar.coerce_scaled((r,), space.backend)
    if not rnum > 0:
        raise ValueError("scale factor must be positive")
    den, rows = space._scaled
    table = [tuple([INF if d is INF else d * rnum for d in row]) for row in rows]
    return _space(space.points, den * rden, table, space.tol)


def metric_reflection(space):
    """Collapse distance-0 pairs, an equivalence (by the triangle inequality) on
    whose classes the table is well defined; the result is its own reflection."""
    _given(FinPseudometricSpace, ("space", space))
    n = space.size
    den, rows = space._scaled
    class_of, members = _partition(
        space.points,
        (
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if scalar.eq(rows[i][j], 0, space.tol)
        ),
    )
    reps = [space._index[m[0]] for m in members]
    table = [tuple(map(rows[i].__getitem__, reps)) for i in reps]
    quot = _space(members, den, table, space.tol)
    return quot, LipschitzMap._from_images(space, quot, tuple(class_of))


def completion(space):
    """Identity on finite spaces: every finite pseudometric space is complete."""
    return space
