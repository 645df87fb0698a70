"""Finite extended-pseudometric spaces and 1-Lipschitz maps.

Constructions: sup-metric product, equalizer subspace, infinity-separated
coproduct, chain-infimum coequalizer, sum-metric tensor, sup-metric hom over
a supplied family of maps, currying both ways, scaling, metric reflection.
Distances may be infinite; every table holds infinity as the one object
`INF` (`math.inf`).  Comparisons, `max` and `min` use Python's exact
ordering against it, also for Fractions.  Sums saturate there through
`_sat_add` (the closure skips INF edges), since Fraction + INF goes through
a float and overflows.

Distances follow the numeric model of `scalar`, the one the probability
side and the dyadic grounds use.  The backend comes from `tol`: tol == 0
makes an exact table, which `scalar.coerce` fills with Fractions from ints,
Fractions and "num/den" strings; tol > 0 makes a float table, which holds
floats.  Infinity (`math.inf` or "inf") is taken on both; bools, None, nan,
-inf, finite floats in an exact table and anything else raise InvalidMetric.
One axiom scan serves both backends: on ints over an exact table's common
denominator, with infinity as 2*max + 1, and on a float table as it is,
with tol slack.  `tol` must be a finite real >= 0.

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
from dataclasses import dataclass

from . import scalar
from .errors import (
    BackendMismatch,
    DomainMismatch,
    InvalidMetric,
    NotLipschitz,
    NotParallel,
    ProductTooLarge,
)
from .finprob import _Map, _then

INF = math.inf

#: Guard on product/tensor point counts.
MAX_PRODUCT_POINTS = 10 ** 6


def _coerce_dist(value, backend):
    try:
        return scalar.coerce(value, backend)
    except (ValueError, ZeroDivisionError, BackendMismatch) as exc:
        if value == INF or value == "inf":
            return INF
        raise InvalidMetric("not a distance: %r (%s)" % (value, exc)) from None


class FinPseudometricSpace:
    """Ordered finite point set with a symmetric distance table.

    The backend comes from `tol`: the default tol=0 gives an exact table of
    Fractions with exact checks, tol > 0 a float table whose axiom checks
    are relaxed by tol.
    """

    __slots__ = ("points", "dist", "tol", "_index")

    def __init__(self, points, dist, tol=0):
        scalar.check_tol(tol)
        self.tol = tol  # first, since it fixes the backend
        points = tuple(points)
        index = {p: i for i, p in enumerate(points)}
        if len(index) != len(points):
            raise InvalidMetric("duplicate point labels")
        n = len(points)
        rows = [list(r) for r in dist]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise InvalidMetric("distance table is not %d x %d" % (n, n))
        backend = self.backend
        table = tuple(tuple(_coerce_dist(v, backend) for v in row) for row in rows)
        _check_axioms(points, table, tol)
        self.points = points
        self.dist = table
        self._index = index

    def distance(self, x, y):
        try:
            return self.dist[self._index[x]][self._index[y]]
        except (KeyError, TypeError):
            raise DomainMismatch("points %r, %r: not both in the space" % (x, y)) from None

    @property
    def backend(self):
        return scalar.EXACT if self.tol == 0 else scalar.FLOAT

    @property
    def size(self):
        return len(self.points)

    def __eq__(self, other):
        if not isinstance(other, FinPseudometricSpace):
            return NotImplemented
        return self.points == other.points and self.dist == other.dist

    def __hash__(self):
        return hash((self.points, self.dist))

    def __repr__(self):
        return "FinPseudometricSpace(points=%r)" % (self.points,)


def _check_axioms(points, table, tol):
    """Raise InvalidMetric for the first axiom failure, in scan order: per
    row i, d(i,i) = 0 and then each entry's sign and symmetry; then every
    triangle d(i,j) <= d(i,k) + d(k,j), in (i, j, k) order.

    One table of comparable numbers serves both backends.  An exact table
    is scaled to ints over its common denominator, with INF as
    top = 2*max + 1.  Once the entries are known to be non-negative, top
    keeps the int triangle true exactly when the saturating one holds: a
    sum with a top term is at least top, which no entry exceeds, and a
    finite sum is at most 2*max < top.  A float table is read as it is, INF
    included, with tol slack.  Messages print the entries of `table`.
    """
    n = len(table)
    if tol == 0:
        _, nums = scalar.scaled([v for row in table for v in row if v is not INF])
        top = 2 * max(nums, default=0) + 1  # > 0 past row 0, whose d(0,0) = 0 is in nums
        finite = iter(nums)
        rows = [tuple([top if v is INF else next(finite) for v in row]) for row in table]
        # slack is the int 0, as a 0.0 tol would make the sums floats.  Once
        # the rows pass, the table is symmetric and triangle (j, i) repeats
        # (i, j), so only the upper triangle is scanned.
        slack, upper = 0, True
    else:  # symmetric only within tol: every j, against the real columns
        rows, slack, upper = table, tol, False
    cols = list(zip(*rows))
    for i, (ri, ci) in enumerate(zip(rows, cols)):
        if abs(ri[i]) > slack:  # d(i,i) = 0, within tol on a float table
            raise InvalidMetric("d(%r,%r) = %s != 0" % (points[i], points[i], table[i][i]))
        if ri != ci or min(ri) < 0:  # the walk only names the failing entry
            for j, (a, b) in enumerate(zip(ri, ci)):
                if a < 0:
                    raise InvalidMetric("negative distance at (%r,%r)" % (points[i], points[j]))
                if not (a == b or scalar.eq(a, b, slack)):  # INF equals only INF
                    raise InvalidMetric(
                        "asymmetry at (%r,%r): %s vs %s"
                        % (points[i], points[j], table[i][j], table[j][i])
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
    def _check(src, dst, images):  # the first expanding pair, in (x, y) order
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


# -- limits ---------------------------------------------------------------------

def product(spaces):
    """Product with the sup metric; points are tuples of factor points."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("product of an empty family is not supported")
    cells, points = _cells("product", spaces)
    _, tol = scalar.same_backend(*spaces)
    dists = [s.dist for s in spaces]
    # the product of the factor rows gives each cell's distances in cell
    # order; max from 0, as a loop keeping the first strictly larger one
    table = [
        [max(0, *ds) for ds in itertools.product(*[d[a] for d, a in zip(dists, xs)])]
        for xs in cells
    ]
    return FinPseudometricSpace(points, table, tol=tol)


def _cells(what, spaces):
    """Index cells and points of a product or tensor, after the size guard."""
    count = 1
    for s in spaces:
        count *= s.size
        if count > MAX_PRODUCT_POINTS:
            raise ProductTooLarge("%s would have more than %d points" % (what, MAX_PRODUCT_POINTS))
    cells = list(itertools.product(*(range(s.size) for s in spaces)))
    return cells, tuple(itertools.product(*(s.points for s in spaces)))


def _sat_add(a, b):
    """a + b, saturating at INF.  A Fraction is never added to INF: that
    converts it to a float, which overflows above about 1.8e308."""
    return INF if a is INF or b is INF else a + b


def projection(prod_space, spaces, i):
    """The i-th projection out of a product built by `product`."""
    return LipschitzMap(prod_space, spaces[i], {p: p[i] for p in prod_space.points})


def equalizer(f, g):
    """Subspace where f and g agree, with its distance-preserving inclusion."""
    if f.src != g.src or f.dst != g.dst:
        raise NotParallel("equalizer needs a parallel pair")
    src = f.src
    pos = tuple([i for i, (u, v) in enumerate(zip(f._images, g._images)) if u == v])
    table = [[src.dist[i][j] for j in pos] for i in pos]
    sub = FinPseudometricSpace([src.points[i] for i in pos], table, tol=src.tol)
    return sub, LipschitzMap._from_images(sub, src, pos)


# -- colimits -------------------------------------------------------------------

def coproduct(spaces):
    """Disjoint union; points are (component index, point), cross distances inf."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("coproduct of an empty family is not supported")
    _, tol = scalar.same_backend(*spaces)
    cells = [(i, a) for i, s in enumerate(spaces) for a in range(s.size)]
    points = [(i, spaces[i].points[a]) for i, a in cells]
    table = [
        [spaces[i].dist[a][b] if i == j else INF for j, b in cells]
        for i, a in cells
    ]
    return FinPseudometricSpace(points, table, tol=tol)


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
    larger than the chain value are reported in `one_step_gaps`.
    """
    if f.src != g.src or f.dst != g.dst:
        raise NotParallel("coequalizer needs a parallel pair")
    Y = f.dst
    class_of, members = _partition(Y.points, zip(f._images, g._images))
    k = len(members)
    chain = [[(0 if i == j else INF) for j in range(k)] for i in range(k)]
    for ci, row in zip(class_of, Y.dist):
        for cj, d in zip(class_of, row):
            if ci != cj and d < chain[ci][cj]:
                chain[ci][cj] = chain[cj][ci] = d
    _min_plus_closure(chain)
    # single-intermediate value, for the discrepancy report
    gaps, dist, via = [], Y.dist, range(Y.size)
    pos = [[Y._index[p] for p in m] for m in members]
    for ci in range(k):
        for cj in range(ci + 1, k):
            sums = [_sat_add(dist[i][m], dist[m][j]) for i in pos[ci] for m in via for j in pos[cj]]
            one = min(sums, default=INF)
            if one != chain[ci][cj]:
                gaps.append((members[ci], members[cj], one, chain[ci][cj]))
    quot = FinPseudometricSpace(members, chain, tol=Y.tol)
    proj = LipschitzMap._from_images(Y, quot, tuple(class_of))
    return CoequalizerResult(quot, proj, tuple(gaps))


# -- monoidal structure -----------------------------------------------------------

def _tensor_table(x_space, y_space):
    """Points and sum-metric rows of the tensor, before validation."""
    cells, points = _cells("tensor", [x_space, y_space])
    dx, dy = x_space.dist, y_space.dist
    table = tuple(tuple([_sat_add(a, b) for a in dx[i] for b in dy[j]]) for i, j in cells)
    return points, table


def tensor(x_space, y_space):
    """Pair points with the sum metric."""
    _, tol = scalar.same_backend(x_space, y_space)
    points, table = _tensor_table(x_space, y_space)
    return FinPseudometricSpace(points, table, tol=tol)


def hom_distance(f, g):
    """Sup over source points of the target distance, with a witness point."""
    if f.src != g.src or f.dst != g.dst:
        raise NotParallel("hom distance needs a parallel pair")
    best, witness = 0, None
    for p, i, j in zip(f.src.points, f._images, g._images):
        d = f.dst.dist[i][j]
        if witness is None or d > best:
            best, witness = d, p
    return best, witness  # (0, None) on an empty source, where all maps coincide


@dataclass
class HomResult:
    space: FinPseudometricSpace  # points are 0..n-1, positions in `maps`
    maps: tuple


def hom(maps):
    """Sup metric on a finite family of parallel 1-Lipschitz maps."""
    maps = tuple(maps)
    if not maps:
        raise ValueError("hom needs at least one map")
    for m in maps[1:]:
        if m.src != maps[0].src or m.dst != maps[0].dst:
            raise NotParallel("hom maps must share source and target")
    tol = maps[0].dst.tol  # the distances are the target's
    n = len(maps)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d, _ = hom_distance(maps[i], maps[j])
            table[i][j] = d
            table[j][i] = d
    return HomResult(FinPseudometricSpace(range(n), table, tol=tol), maps)


@dataclass
class CurryResult:
    per_point: dict  # x -> LipschitzMap(Y, Z)
    hom_result: HomResult
    outer: LipschitzMap  # X -> hom space (indices aligned with X's point order)


def curry(h, x_space, y_space):
    """Split h: X tensor Y -> Z into a 1-Lipschitz family of maps Y -> Z.

    Requires h's source to be the tensor of the two given spaces.  Both the
    per-point maps and the outer assignment into the sup metric are validated
    1-Lipschitz (they are, by the sum-metric inequality).
    """
    if (h.src.points, h.src.dist) != _tensor_table(x_space, y_space):
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
    if not x_space.points or any(x not in per_point for x in x_space.points):
        raise DomainMismatch("uncurry needs a map for each point of a nonempty first factor")
    members = [per_point[x] for x in x_space.points]
    for m in members:
        if m.src != y_space or m.dst != members[0].dst:
            raise DomainMismatch("family members must be parallel maps from the second factor")
    images = tuple(itertools.chain.from_iterable(m._images for m in members))
    return LipschitzMap._from_images(tensor(x_space, y_space), members[0].dst, images)


# -- rescaling and reflection -------------------------------------------------------

def scale(space, r):
    """Multiply every distance by r > 0 (inf stays inf)."""
    r = scalar.coerce(r, space.backend)
    if not r > 0:
        raise ValueError("scale factor must be positive")
    table = [
        [INF if d is INF else d * r for d in row]
        for row in space.dist
    ]
    return FinPseudometricSpace(space.points, table, tol=space.tol)


def metric_reflection(space):
    """Collapse distance-0 pairs; on the result d = 0 implies equality.

    Distance 0 is an equivalence by the triangle inequality, and the induced
    table is well-defined on classes.  Applying the operation twice gives the
    same space (idempotence).
    """
    n = space.size
    class_of, members = _partition(
        space.points,
        (
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if scalar.eq(space.dist[i][j], 0, space.tol)
        ),
    )
    reps = [space._index[m[0]] for m in members]
    table = [[space.dist[i][j] for j in reps] for i in reps]
    quot = FinPseudometricSpace(members, table, tol=space.tol)
    return quot, LipschitzMap._from_images(space, quot, tuple(class_of))


def completion(space):
    """Identity on finite spaces: every finite pseudometric space is complete."""
    return space
