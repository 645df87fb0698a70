"""Brute-force oracles the fast implementations are checked against.

Most are definitions, written as loops over public attributes: partition and
subset suprema, per-atom kernels with conditional expectation by fibers, the
dyadic tables cell by cell, the metric axioms and constructions by their
formulas, the problems of a diagram, and what a space, table, map or level
family holds, or the first fault it raises, in the order its constructor
checks.  Besides `scalar`'s public functions, they call only the library's
public constructors and kernels, and import no private name.

A few are literal copies of earlier code, kept because each catches a mutant
that no definition catches; the docstring of each names it.  They are the
composite fill, the naturality and lipschitz suite bodies, and the samplers.
"""
from __future__ import annotations

import itertools
import math
import random
import re
from collections.abc import Mapping
from fractions import Fraction

from catprob import scalar
from catprob.diagram import MartingaleCheck
from catprob.errors import (
    BackendMismatch,
    DomainMismatch,
    IndexMismatch,
    Inconsistent,
    InvalidMetric,
    NegativeValue,
    NegativeWeight,
    NoTopElement,
    NotAbsolutelyContinuous,
    NotLipschitz,
    NotMeasurePreserving,
    NotAChain,
    SpaceMismatch,
    WeightSumMismatch,
)
from catprob.finmeas import FiniteMeasure, pushforward, rho, rn_derivative, tv_distance
from catprob.finprob import FiniteProbSpace, MeasurePreservingMap, compose, identity_map, map_distance
from catprob.finrv import FiniteRandomVariable, cond_exp, l1_distance
from catprob.metcat import INF
from catprob.sampling import rand_measure, rand_parallel_map, rand_quotient, rand_rv, rand_space
from catprob.suites import CheckResult, SuiteReport


# -- suprema over partitions and subsets -----------------------------------------------


def set_partitions(items):
    """All partitions of a finite sequence (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def tv_partition_supremum(mu, nu):
    """Supremum over measurable partitions of the summed absolute differences."""
    space = mu.space
    best = space.zero
    for part in set_partitions(space.atoms):
        total = space.zero
        for block in part:
            m = sum((mu.mass_of(a) for a in block), space.zero)
            n = sum((nu.mass_of(a) for a in block), space.zero)
            total += abs(m - n)
        if total > best:
            best = total
    return best


def map_distance_literal(f, g):
    """sup over subsets A of the codomain of P(f^-1(A) symdiff g^-1(A))."""
    src, dst = f.src, f.dst
    atoms = list(dst.atoms)
    best = src.zero
    for mask in range(1 << len(atoms)):
        chosen = {a for i, a in enumerate(atoms) if (mask >> i) & 1}
        mass = src.zero
        for a in src.atoms:
            if (f.assign[a] in chosen) != (g.assign[a] in chosen):
                mass += src.weight(a)
        if mass > best:
            best = mass
    return best


# -- per-atom loops for the kernels -----------------------------------------------------
#
# Each loop does scalar arithmetic atom by atom, in the order of the float
# kernels, so on the float backend it must agree with the library to the
# bit and on the exact backend to the exact value.


def total_fold_literal(terms):
    """The sum of `terms` from the int 0, left to right."""
    total = 0
    for t in terms:
        total = total + t
    return total


def pushforward_literal(values, s):
    """Per target atom, the sum of `values` (one per source atom) over its fiber."""
    out = []
    for b in s.dst.atoms:
        total = s.src.zero
        for a, v in zip(s.src.atoms, values):
            if s.assign[a] == b:
                total += v
        out.append(total)
    return out


def pushforward_mismatch_literal(src, dst, assign):
    """First target atom whose fiber mass differs from its weight (beyond
    tol), with that mass; None when the assignment preserves measure."""
    for b, w in zip(dst.atoms, dst.weights):
        mass = src.zero
        for a, p in zip(src.atoms, src.weights):
            if assign[a] == b:
                mass += p
        if abs(mass - w) > dst.tol:
            return b, mass
    return None


def cond_exp_literal(g, s):
    """Per target atom: sum of weight * value over its fiber / its weight (0 if null)."""
    out = []
    for b, q in zip(s.dst.atoms, s.dst.weights):
        total = s.src.zero
        for a, w, x in zip(s.src.atoms, s.src.weights, g.values):
            if s.assign[a] == b:
                total += w * x
        out.append(s.dst.zero if q == 0 else total / q)
    return out


def cond_exp_residuals_literal(g, s, result=None):
    """The defining property written out: per target subset B in `combinations`
    order, (B, |sum over b in B of q(b) * E[g|s](b) - sum over the preimage of B
    of w(a) * g(a)|), each sum a loop from the backend's zero."""
    dst = s.dst
    if result is None:
        result = cond_exp(g, s)
    rows = []
    for k in range(dst.size + 1):
        for combo in itertools.combinations(dst.atoms, k):
            lhs = dst.zero
            for b in combo:
                lhs += dst.weight(b) * result.value(b)
            rhs = dst.zero
            for a in s.src.atoms:
                if s.assign[a] in combo:
                    rhs += s.src.weight(a) * g.value(a)
            rows.append((combo, abs(lhs - rhs)))
    return rows


def l1_literal(space, xs, ys):
    """The integral of |x - y|: two random variables' l1 distance."""
    total = space.zero
    for w, x, y in zip(space.weights, xs, ys):
        total += w * abs(x - y)
    return total


def tv_literal(space, xs, ys):
    """The sum of |x - y|: two measures' total variation distance."""
    total = space.zero
    for x, y in zip(xs, ys):
        total += abs(x - y)
    return total


def expectation_literal(f):
    total = f.space.zero
    for w, x in zip(f.space.weights, f.values):
        total += w * x
    return total


def cross_moment_literal(space, xs, ys):
    """Integral of x * y; the second moment when ys is xs."""
    total = space.zero
    for w, x, y in zip(space.weights, xs, ys):
        total += w * x * y
    return total


def mean_square_diff_literal(space, xs, ys):
    total = space.zero
    for w, x, y in zip(space.weights, xs, ys):
        total += w * (x - y) * (x - y)
    return total


def rho_literal(g):
    return [x * w for x, w in zip(g.values, g.space.weights)]


def rn_literal(mu):
    return [mu.space.zero if w == 0 else m / w for w, m in zip(mu.space.weights, mu.mass)]


def bound_check_literal(mu, r):
    return all(m <= r * w + mu.space.tol for w, m in zip(mu.space.weights, mu.mass))


def max_value_literal(f):
    """Largest value over the positive-weight atoms (0 if none)."""
    best = f.space.zero
    for w, x in zip(f.space.weights, f.values):
        if w > 0 and x > best:
            best = x
    return best


def total_mass_literal(mu):
    total = mu.space.zero
    for m in mu.mass:
        total += m
    return total


def value_eq_literal(x, y):
    """Two random variables or measures are equal when they have one type and
    one space and their tables agree atom by atom."""
    if type(x) is not type(y) or x.space != y.space:
        return False
    xs, ys = (x.values, y.values) if hasattr(x, "values") else (x.mass, y.mass)
    for a, b in zip(xs, ys):
        if a != b:
            return False
    return True


def pointwise_identities_literal(omega, fine, coarse, step, c_f, c_g, sf, sg):
    """The product and square expansions of the second-moment report, on
    scalars read atom by atom: (product_ok, square_ok)."""
    tol, product_ok, square_ok = omega.tol, True, True
    for w_atom in omega.atoms:
        if not omega.weight(w_atom) > 0:
            continue
        lhs = sf.value(w_atom) * sg.value(w_atom)
        rhs = omega.zero
        for b in coarse.dst.atoms:
            inner = omega.zero
            for a in fine.dst.atoms:
                if step.assign[a] == b and fine.assign[w_atom] == a:
                    inner += c_f.value(a)
            rhs += c_g.value(b) * inner
        if not scalar.eq(lhs, rhs, tol):
            product_ok = False
            break
    for w_atom in omega.atoms:
        if not omega.weight(w_atom) > 0:
            continue
        if not scalar.eq(sg.value(w_atom) ** 2, c_g.value(coarse.assign[w_atom]) ** 2, tol):
            square_ok = False
            break
        if not scalar.eq(sf.value(w_atom) ** 2, c_f.value(fine.assign[w_atom]) ** 2, tol):
            square_ok = False
            break
    return product_ok, square_ok


def as_equal_literal(f, g):
    """The mass of the atoms where the maps differ is zero (within tol)."""
    src = f.src
    mass = src.zero
    for a, w in zip(src.atoms, src.weights):
        if f.assign[a] != g.assign[a]:
            mass += w
    return abs(mass - src.zero) <= src.tol


def density_bound_literal(mu):
    """Largest mass / weight over the positive-weight atoms (0 if none)."""
    best = mu.space.zero
    for w, m in zip(mu.space.weights, mu.mass):
        if w > 0 and m / w > best:
            best = m / w
    return best


# -- what a constructor holds, or the first fault it raises ------------------------------


_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def ratio_literal(text):
    """A "num" or "num/den" string as a Fraction, by the grammar of Python's int
    literals (a sign, digits with single underscores between them, spaces
    around) rather than by what int() rejects: anything else raises the
    README's ValueError, and a zero den what `Fraction` raises."""
    parts = text.strip().split("/")
    if len(parts) > 2 or not all(_INT_LITERAL.fullmatch(part) for part in parts):
        raise ValueError("not a rational literal: %r" % text)
    return Fraction(*map(int, parts))


def coerce_literal(value, backend):
    """A user's number as the backend's scalar: the accept set and the
    messages the README documents.  Exact: a Fraction as it is, an int or a
    Fraction subclass as a Fraction, a "num/den" string parsed; float: the
    same plus floats, as a finite float.  Neither takes a bool."""
    if isinstance(value, bool):
        raise BackendMismatch("booleans are not scalars")
    if backend == scalar.EXACT:
        if isinstance(value, (int, Fraction)):
            return value if type(value) is Fraction else Fraction(value)
        if isinstance(value, str):
            return ratio_literal(value)
        if isinstance(value, float):
            raise BackendMismatch("float %r passed to the exact backend; use Fraction or 'num/den'" % value)
        raise BackendMismatch("cannot use %r as an exact scalar" % (value,))
    if isinstance(value, str):
        value = ratio_literal(value)
    elif not isinstance(value, (int, float, Fraction)):
        raise BackendMismatch("cannot use %r as a float scalar" % (value,))
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("%r is not a finite scalar" % (value,))
    return value


def space_literal(atoms, weights, backend=scalar.EXACT, tol=None):
    """The weights a space on `atoms` holds, or its first fault: each weight
    coerced in order, the first negative one, then their sum from 0 in order
    against 1 (within the tol on floats)."""
    ws = tuple([coerce_literal(w, backend) for w in weights])
    for a, w in zip(atoms, ws):
        if w < 0:
            raise NegativeWeight("weight of atom %r is %s < 0" % (a, w))
    total = total_fold_literal(ws)
    tol = 0 if backend == scalar.EXACT else scalar.DEFAULT_TOL if tol is None else tol
    if total != 1 and not abs(total - 1) <= tol:
        raise WeightSumMismatch("weights sum to %s, expected 1" % (scalar.coerce(total, backend),))
    return ws


def uniform_space_literal(atoms, backend=scalar.EXACT):
    """The space with weight 1/n on each of its n atoms (over range(n) for an int)."""
    if isinstance(atoms, int):
        atoms = range(atoms)
    atoms = tuple(atoms)
    n = len(atoms)
    weights = [scalar.divider(backend)(1, n)] * n if n else []  # no atoms: sum 0, rejected
    return FiniteProbSpace(atoms, weights, backend=backend)


def atom_table_literal(space, entries, measure=False):
    """The table a random variable (a measure with `measure`) on `space` reads
    for `entries`, one per atom, or its first fault: each entry coerced in
    order, then per atom a negative entry, or a measure's mass on a weight-0
    atom.  A random variable reads the space's zero on a weight-0 atom."""
    xs = [coerce_literal(v, space.backend) for v in entries]
    for a, x, w in zip(space.atoms, xs, space.weights):
        if x < 0:
            raise NegativeValue("%s at atom %r is %s < 0" % ("mass" if measure else "value", a, x))
        if measure and w == 0 and x != 0:
            raise NotAbsolutelyContinuous("atom %r has weight 0 but mass %s" % (a, x))
    return [x if measure or w != 0 else space.zero for x, w in zip(xs, space.weights)]


#: a map type's nouns: missing keys, unknown keys, an image, the target
MAP_WORDS = ("source atoms", "atoms", "atom", "target space")
LIPSCHITZ_WORDS = ("points", "points", "point", "target")


def map_literal(src, dst, assign, words=MAP_WORDS):
    """The table {source label: target label} a measure-preserving map (a
    1-Lipschitz map with LIPSCHITZ_WORDS) holds for `assign`, or its first
    fault: spaces of two backends (measure-preserving maps only), a source
    label missing, a key that is no source label, an image that is no target
    label (in the assignment's order), then the first target atom whose
    fiber misses its weight, or the first pair, row by row, whose images are
    farther apart than it is beyond the larger tol.  An image reads back as
    the target's own label (1 for True)."""
    keys, unknown, image, target = words
    if words == MAP_WORDS:
        scalar.same_backend(src, dst)
    missing = [a for a in _labels(src) if a not in assign]
    if missing:
        raise DomainMismatch("assignment missing %s %r" % (keys, missing[:4]))
    extra = [a for a in assign if a not in _labels(src)]
    if extra:
        raise DomainMismatch("assignment mentions unknown %s %r" % (unknown, extra[:4]))
    labels = _labels(dst)
    for b in assign.values():
        if _unhashable(b) or not any(b == c for c in labels):
            raise DomainMismatch("image %s %r not in %s" % (image, b, target))
    table = {a: next(c for c in labels if c == assign[a]) for a in _labels(src)}
    if words == MAP_WORDS:
        miss = pushforward_mismatch_literal(src, dst, table)
        if miss is not None:
            b, mass = miss
            raise NotMeasurePreserving(
                "atom %r receives mass %s, target weight is %s" % (b, mass, dst.weight(b))
            )
        return table
    tol = max(src.tol, dst.tol)
    for x in src.points:
        for y in src.points:
            dxy, dfxy = src.distance(x, y), dst.distance(table[x], table[y])
            if not scalar.le(dfxy, dxy, tol):
                raise NotLipschitz("pair (%r,%r): image distance %s > source distance %s" % (x, y, dfxy, dxy))
    return table


def _labels(space):
    return space.points if hasattr(space, "points") else space.atoms


def _unhashable(b):
    try:
        hash(b)
    except TypeError:
        return True
    return False


# -- the dyadic engine and its ground ----------------------------------------------------


def integral_abs_by_refinement(ground, step_values, depth, refine=16):
    """Midpoint-sum approximation of the l1 error of a depth-n step function.

    Splits each dyadic cell into `refine` exact midpoints; for piecewise
    affine grounds the result is within max-slope / (2 * refine * 2^depth)
    of the true integral.
    """
    n = 1 << depth
    total = Fraction(0)
    for j in range(n):
        c = step_values[j]
        for k in range(refine):
            x = Fraction(j, n) + Fraction(2 * k + 1, 2 * refine * n)
            total += abs(ground.value_at(x) - c)
    return total / Fraction(refine * n)


def dyadic_tables_per_cell(ground, depth):
    """Every level's cell averages and l1 error, one cell at a time.

    Level t averages each of its 2^t cells with its own `interval_average`
    and sums each cell's `abs_dev_integral` against that average: 2^t
    interval scans per level, against the library's single walk.
    """
    levels, errors = [], []
    for t in range(depth + 1):
        n = 1 << t
        cells = [(Fraction(j, n), Fraction(j + 1, n)) for j in range(n)]
        averages = [ground.interval_average(lo, hi) for lo, hi in cells]
        levels.append(averages)
        errors.append(sum(
            (ground.abs_dev_integral(lo, hi, c) for (lo, hi), c in zip(cells, averages)),
            Fraction(0),
        ))
    return levels, errors


def value_at_literal(ground, x):
    x = scalar.coerce(x, scalar.EXACT)
    bps, vals = ground.breakpoints, ground.values
    for t in range(len(bps) - 1):
        if bps[t] <= x <= bps[t + 1]:
            lo, hi = bps[t], bps[t + 1]
            return vals[t] + (vals[t + 1] - vals[t]) * (x - lo) / (hi - lo)
    raise ValueError("argument %s outside [0,1]" % (x,))


def _pieces_literal(ground, lo, hi):
    cuts = [lo]
    for b in ground.breakpoints:
        if lo < b < hi:
            cuts.append(b)
    cuts.append(hi)
    return [
        (a, b, value_at_literal(ground, a), value_at_literal(ground, b))
        for a, b in zip(cuts, cuts[1:])
    ]


def integral_literal(ground, lo, hi):
    lo, hi = scalar.coerce(lo, scalar.EXACT), scalar.coerce(hi, scalar.EXACT)
    total = Fraction(0)
    for a, b, fa, fb in _pieces_literal(ground, lo, hi):
        total += (b - a) * (fa + fb) / 2
    return total


def interval_average_literal(ground, lo, hi):
    lo, hi = scalar.coerce(lo, scalar.EXACT), scalar.coerce(hi, scalar.EXACT)
    return integral_literal(ground, lo, hi) / (hi - lo)


def abs_dev_integral_literal(ground, lo, hi, c):
    lo, hi, c = scalar.coerce(lo, scalar.EXACT), scalar.coerce(hi, scalar.EXACT), scalar.coerce(c, scalar.EXACT)
    total = Fraction(0)
    for a, b, fa, fb in _pieces_literal(ground, lo, hi):
        ea, eb = fa - c, fb - c
        if ea * eb >= 0:
            total += abs(ea + eb) * (b - a) / 2
        else:
            root = a + (b - a) * ea / (ea - eb)
            total += abs(ea) * (root - a) / 2 + abs(eb) * (b - root) / 2
    return total


# -- metric spaces and their constructions ------------------------------------------------


def metric_axiom_error(points, table, tol=0):
    """First axiom failure of a distance table, as the message the
    constructor raises, or None when the table is an extended pseudometric.

    Checks run in the literal order: per row, the diagonal and then each
    entry for sign and symmetry; then every triangle (i, j, k).  With
    tol > 0 each check has tol slack: |d(i,i)| <= tol, symmetry within tol
    (an infinite entry equals only an infinite one) and
    d(i,j) <= d(i,k) + d(k,j) + tol.  A sum with an infinite term is
    infinite, and an infinite d(i,j) fails against any finite sum.
    """
    inf = float("inf")
    n = len(points)
    for i in range(n):
        if not abs(table[i][i]) <= tol:
            return "d(%r,%r) = %s != 0" % (points[i], points[i], table[i][i])
        for j in range(n):
            a, b = table[i][j], table[j][i]
            if a < 0:
                return "negative distance at (%r,%r)" % (points[i], points[j])
            if a != b and (inf in (a, b) or abs(a - b) > tol):
                return "asymmetry at (%r,%r): %s vs %s" % (points[i], points[j], a, b)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a, b = table[i][k], table[k][j]
                via = inf if inf in (a, b) else a + b
                if via != inf and table[i][j] > via + tol:
                    return "triangle violated: d(%r,%r) > d(%r,%r) + d(%r,%r)" % (
                        points[i], points[j], points[i], points[k], points[k], points[j]
                    )
    return None


# Metric constructor tables, as loops over the factors' tables.  They test
# for infinity before any sum, so no Fraction is ever added to it.


def metric_space_literal(points, dist, tol=0):
    """The table a metric space on `points` reads for the user's `dist`, or
    its first fault: duplicate labels, a table that is not n x n, each entry
    coerced in row order (INF, or "inf", where a number is not taken), then
    `metric_axiom_error`.  The backend is exact for tol 0, float otherwise."""
    backend = scalar.EXACT if tol == 0 else scalar.FLOAT
    points = tuple(points)
    if len(set(points)) != len(points):
        raise InvalidMetric("duplicate point labels")
    n = len(points)
    rows = [list(r) for r in dist]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InvalidMetric("distance table is not %d x %d" % (n, n))
    table = [[_distance_literal(v, backend) for v in r] for r in rows]
    fault = metric_axiom_error(points, table, tol)
    if fault is not None:
        raise InvalidMetric(fault)
    return table


def _distance_literal(value, backend):
    try:
        return coerce_literal(value, backend)
    except (ValueError, ZeroDivisionError, BackendMismatch) as exc:
        if value == INF or value == "inf":
            return INF
        raise InvalidMetric("not a distance: %r (%s)" % (value, exc)) from None


def classes_literal(points, pairs):
    """The classes of the equivalence on `points` generated by `pairs` of
    positions: each class in point order, the classes by their first point."""
    classes = [{i} for i in range(len(points))]
    for i, j in pairs:
        ci = next(c for c in classes if i in c)
        cj = next(c for c in classes if j in c)
        if ci is not cj:
            ci |= cj
            classes.remove(cj)
    return [tuple(points[i] for i in sorted(c)) for c in sorted(classes, key=min)]


# Metric constructor tables, as loops over the factors' tables.  They test
# for infinity before any sum, so no Fraction is ever added to it.


def product_table_literal(spaces):
    """Sup-metric table of the product, over the points in product order."""
    inf = float("inf")
    cells = list(itertools.product(*(range(s.size) for s in spaces)))
    table = []
    for xs in cells:
        row = []
        for ys in cells:
            best = 0
            for s, a, b in zip(spaces, xs, ys):
                d = s.dist[a][b]
                if d == inf:
                    best = d
                    break
                if d > best:
                    best = d
            row.append(best)
        table.append(row)
    return table


def tensor_table_literal(x_space, y_space):
    """Sum-metric table of the tensor, over the points in product order."""
    inf = float("inf")
    cells = [(i, j) for i in range(x_space.size) for j in range(y_space.size)]
    table = []
    for i1, j1 in cells:
        row = []
        for i2, j2 in cells:
            dx, dy = x_space.dist[i1][i2], y_space.dist[j1][j2]
            row.append(inf if dx == inf or dy == inf else dx + dy)
        table.append(row)
    return table


def one_step_gaps_literal(space, classes, chain):
    """Class pairs (c1, c2, one-step value, chain value) where the best
    single-intermediate route inf d(y1, y) + d(y, y2), y1 in c1 and y2 in
    c2, differs from the chain distance.  `classes` are the quotient's
    points (tuples of points of `space`), `chain` its table."""
    inf = float("inf")
    n = space.size
    class_of = [next(c for c, m in enumerate(classes) if p in m) for p in space.points]
    gaps = []
    for ci in range(len(classes)):
        for cj in range(ci + 1, len(classes)):
            one = inf
            for i in range(n):
                if class_of[i] != ci:
                    continue
                for m in range(n):
                    for j in range(n):
                        if class_of[j] != cj:
                            continue
                        d1, d2 = space.dist[i][m], space.dist[m][j]
                        if d1 == inf or d2 == inf:
                            continue
                        if d1 + d2 < one:
                            one = d1 + d2
            if one != chain[ci][cj]:
                gaps.append((classes[ci], classes[cj], one, chain[ci][cj]))
    return gaps


def hom_distance_literal(f, g):
    """Sup over source points of d(f(p), g(p)) with the first point reaching
    it, or the target backend's 0 and None on an empty source."""
    inf = float("inf")
    best, witness = Fraction(0) if f.dst.tol == 0 else 0.0, None
    for p in f.src.points:
        d = f.dst.distance(f.assign[p], g.assign[p])
        if witness is None or (best != inf and (d == inf or d > best)):
            best, witness = d, p
    return best, witness


# -- diagrams and level families -------------------------------------------------------


def diagram_problems_literal(d):
    """Every violated diagram invariant, in report order, with functoriality
    scanned over every triple i <= j <= k atom by atom."""
    problems = []
    els = d.elements
    rank = {e: t for t, e in enumerate(els)}
    # order axioms (closure gives reflexivity and transitivity for free)
    for (i, j) in sorted(d.leq, key=lambda p: (rank[p[0]], rank[p[1]])):
        if rank[i] < rank[j] and (j, i) in d.leq:
            problems.append("antisymmetry fails: %r <= %r <= %r" % (i, j, i))
    for i in els:
        for j in els:
            if rank[i] < rank[j] and not any(
                d.le(i, k) and d.le(j, k) for k in els
            ):
                problems.append("no upper bound for %r, %r" % (i, j))
    backends = {d.spaces[e].backend for e in els}
    if len(backends) > 1:
        problems.append("mixed numeric backends across levels")
    # connect coverage and endpoints
    for p in d.connect:
        if p not in d.leq:
            problems.append("connecting map for %r outside the order" % (p,))
    for (i, j) in sorted(d.leq, key=lambda p: (rank[p[0]], rank[p[1]])):
        m = d.connect.get((i, j))
        if m is None:
            problems.append("missing connecting map for %r <= %r" % (i, j))
            continue
        if m.src != d.spaces[j] or m.dst != d.spaces[i]:
            problems.append("connecting map %r <= %r has wrong endpoints" % (i, j))
        if i == j and any(m.assign[a] != a for a in m.src.atoms):
            problems.append("reflexive connect at %r is not the identity" % (i,))
    # functoriality over all ordered triples
    for i in els:
        for j in els:
            if not d.le(i, j):
                continue
            for k in els:
                if not d.le(j, k):
                    continue
                mij = d.connect.get((i, j))
                mjk = d.connect.get((j, k))
                mik = d.connect.get((i, k))
                if mij is None or mjk is None or mik is None:
                    continue
                for a in d.spaces[k].atoms:
                    if mik.assign[a] != mij.assign[mjk.assign[a]]:
                        problems.append(
                            "functoriality fails at %r <= %r <= %r on atom %r"
                            % (i, j, k, a)
                        )
                        break
    if d.top is not None:
        if d.top not in els:
            problems.append("top %r is not an element" % (d.top,))
        elif not all(d.le(i, d.top) for i in els):
            problems.append("top %r is not the poset maximum" % (d.top,))
    return tuple(problems)


def covering_pairs_literal(d):
    """Pairs i < j of the order with nothing strictly between, in rank order."""
    rank = {e: t for t, e in enumerate(d.elements)}
    out = []
    for (i, j) in sorted(d.leq, key=lambda p: (rank[p[0]], rank[p[1]])):
        if i == j:
            continue
        if any(k not in (i, j) and d.le(i, k) and d.le(k, j) for k in d.elements):
            continue
        out.append((i, j))
    return tuple(out)


def chain_order_literal(d):
    """A chain's elements, each ranked by the number of elements at or below it."""
    if not d.is_chain():
        raise NotAChain("the index poset is not totally ordered")
    return tuple(sorted(d.elements, key=lambda e: sum(1 for i in d.elements if d.le(i, e))))


def is_martingale_literal(family, d):
    """`is_martingale` by its definition: each covering pair's residual
    l1(E[X_j | f_ij], X_i), by `cond_exp_literal`, the largest one and the
    first pair reaching it, and whether it is zero within the tol."""
    if not isinstance(family, Mapping) or set(family) != set(d.elements):
        raise IndexMismatch("family is not indexed by the diagram's elements")
    for i in d.elements:
        if not isinstance(family[i], (FiniteRandomVariable, FiniteMeasure)) or family[i].space != d.spaces[i]:
            raise SpaceMismatch("family member at %r lives on the wrong space" % (i,))
    zero = scalar.zero(d.backend)
    residual, worst = zero, None
    for (i, j) in covering_pairs_literal(d):
        projected = cond_exp_literal(family[j], d.connect[(i, j)])
        r = l1_literal(d.spaces[i], projected, family[i].values)
        if r > residual:
            residual, worst = r, (i, j)
    return MartingaleCheck(ok=scalar.eq(residual, zero, d.tol), residual=residual, worst_pair=worst)


def level_family_literal(martingale, d, family, bound=None):
    """The family, bound and repr a `Martingale` (a `ConsistentMeasureFamily`
    unless `martingale`) holds, or its first fault, checked in the
    constructor's order: the index set, each member's type, the bound (the
    largest peak when None) and its sign; then for a martingale each level
    against the bound and the covering pairs (`is_martingale_literal`); for
    a measure family, level by level, its space and bound * base weights,
    then each covering pair's pushforward against the level below."""
    if not isinstance(family, Mapping) or set(family) != set(d.elements):
        raise IndexMismatch("family is not indexed by the diagram's elements")
    level = FiniteRandomVariable if martingale else FiniteMeasure
    for i in d.elements:
        if not isinstance(family[i], level):
            raise SpaceMismatch(
                "family member at %r is a %s, not a %s" % (i, type(family[i]).__name__, level.__name__)
            )
    peak = max_value_literal if martingale else density_bound_literal
    bound = max(peak(family[i]) for i in d.elements) if bound is None else scalar.coerce(bound, d.backend)
    if bound < 0:
        raise NegativeValue("bound must be nonnegative")
    if martingale:
        for i in d.elements:
            if not scalar.le(max(family[i].values), bound, d.tol):
                raise Inconsistent("level %r exceeds the bound %s" % (i, bound))
        chk = is_martingale_literal(family, d)
        if not chk.ok:
            raise Inconsistent("consistency fails at %r with residual %s" % (chk.worst_pair, chk.residual))
    else:
        for i in d.elements:
            if family[i].space != d.spaces[i]:
                raise SpaceMismatch("family member at %r lives on the wrong space" % (i,))
            if not bound_check_literal(family[i], bound):
                raise Inconsistent("level %r exceeds bound * base weights" % (i,))
        for (i, j) in covering_pairs_literal(d):
            pushed = pushforward_literal(family[j].mass, d.connect[(i, j)])
            gap = tv_literal(d.spaces[i], pushed, family[i].mass)
            if not scalar.eq(gap, scalar.zero(d.backend), d.tol):
                raise Inconsistent("restriction fails at %r <= %r with residual %s" % (i, j, gap))
    name = "Martingale" if martingale else "ConsistentMeasureFamily"
    return {i: family[i] for i in d.elements}, bound, "%s(levels=%r, bound=%s)" % (name, list(d.elements), bound)


def top_level_literal(d, family, martingale):
    """The top level a martingale's limit (a measure family's extension unless
    `martingale`) returns, or its first fault: no top, then the first level
    whose image of the top level, conditioned or pushed down to it, is not
    the family's level within the tol."""
    what, miss = ("martingale limit", "reconstructed limit") if martingale else ("extension", "extension")
    if d.top is None:
        raise NoTopElement("%s needs a designated top element" % what)
    top = family[d.top]
    for i in d.elements:
        space = d.spaces[i]
        if martingale:
            gap = l1_literal(space, cond_exp_literal(top, d.to_top(i)), family[i].values)
        else:
            gap = tv_literal(space, pushforward_literal(top.mass, d.to_top(i)), family[i].mass)
        if not scalar.eq(gap, space.zero, d.tol):
            raise Inconsistent("%s misses level %r by %s" % (miss, i, gap))
    return top


# -- kept copies ----------------------------------------------------------------------
#
# Literal copies of earlier code, each kept because it catches a mutant that
# no definition above catches.


def composite_fill_literal(elements, leq, spaces, connect):
    """The connecting-map table `FiltrationDiagram.__init__` built before it
    derived composites on first read, and the factor k of each derived pair:
    identities on the diagonal, then every missing pair of the closed order
    `leq` composed along the first available factorization, repeated to a
    fixpoint (it raises what `compose` raised).

    Kept copy: the factor a derived pair goes through is a choice, not a
    definition; this catches `_derive` taking the last factor, or one sweep
    only."""
    table, via = dict(connect), {}
    for e in elements:
        if (e, e) not in table:
            table[(e, e)] = identity_map(spaces[e])
    rank = {e: t for t, e in enumerate(elements)}
    ordered = sorted(leq, key=lambda p: (rank[p[0]], rank[p[1]]))
    changed = True
    while changed:
        changed = False
        for (i, j) in ordered:
            if (i, j) in table:
                continue
            for k in elements:
                if k in (i, j):
                    continue
                if (i, k) in leq and (k, j) in leq:
                    if (i, k) in table and (k, j) in table:
                        table[(i, j)] = compose(table[(k, j)], table[(i, k)])
                        via[(i, j)] = k
                        changed = True
                        break
    return table, via


_BOUNDS = ("1/2", "1", "2", "3")


def _record_literal(check, passed, detail=""):
    check.trials += 1
    if not passed:
        check.failures += 1
        if not check.worst:
            check.worst = detail


def naturality_suite_literal(seed, trials, backend=scalar.EXACT):
    """`suites.naturality_suite` as it was before each trial computed each
    kernel output once.  Kept copy: with a distance kernel perturbed, it
    catches a check fed the wrong operand (the roundtrip residual taken
    against `mu` itself), which no passing report shows."""
    rng = random.Random(seed)
    natural = CheckResult(
        "rho-naturality", "pushforward(rho(g), s) == rho(cond_exp(g, s))"
    )
    roundtrip = CheckResult(
        "rn-roundtrip", "rho(rn_derivative(mu)) == mu"
    )
    isometry = CheckResult(
        "rho-isometry", "tv(rho(f), rho(g)) == l1(f, g)"
    )
    report = SuiteReport("naturality", seed, backend, [natural, roundtrip, isometry])
    for _ in range(trials):
        space = rand_space(rng, backend=backend)
        tol = space.tol
        s = rand_quotient(rng, space)
        g = rand_rv(rng, space, bound=scalar.coerce(rng.choice(_BOUNDS), backend))
        lhs = pushforward(rho(g), s)
        rhs = rho(cond_exp(g, s))
        _record_literal(natural, scalar.eq(tv_distance(lhs, rhs), space.zero, tol),
                        "residual %s" % tv_distance(lhs, rhs))
        mu = rand_measure(rng, space, bound=scalar.coerce(rng.choice(_BOUNDS), backend))
        back = rho(rn_derivative(mu))
        _record_literal(roundtrip, scalar.eq(tv_distance(back, mu), space.zero, tol),
                        "residual %s" % tv_distance(back, mu))
        f2 = rand_rv(rng, space, bound=scalar.coerce(rng.choice(_BOUNDS), backend))
        lhs_d = tv_distance(rho(g), rho(f2))
        rhs_d = l1_distance(g, f2)
        _record_literal(isometry, scalar.eq(lhs_d, rhs_d, tol), "%s vs %s" % (lhs_d, rhs_d))
    return report


def lipschitz_suite_literal(seed, trials, backend=scalar.EXACT):
    """`suites.lipschitz_suite` as it was before each trial computed each
    kernel output once.  Kept copy: with a distance kernel perturbed, it
    catches a check fed the wrong operand (the pushforward contraction
    reusing `mu`'s image for `nu`), which no passing report shows."""
    rng = random.Random(seed)
    comp = CheckResult(
        "compose-additive",
        "d(g1 o f1, g2 o f2) <= d(g1, g2) + d(f1, f2)",
    )
    push = CheckResult(
        "pushforward-map-lipschitz",
        "tv(push(mu, f1), push(mu, f2)) <= r * d(f1, f2) for mu <= r * P",
    )
    ce = CheckResult(
        "condexp-map-lipschitz",
        "l1(E[x|f1], E[x|f2]) <= r * d(f1, f2) for x <= r",
    )
    push_c = CheckResult(
        "pushforward-contraction", "tv(push(mu, s), push(nu, s)) <= tv(mu, nu)"
    )
    ce_c = CheckResult(
        "condexp-contraction", "l1(E[x|s], E[y|s]) <= l1(x, y)"
    )
    report = SuiteReport("lipschitz", seed, backend, [comp, push, ce, push_c, ce_c])
    for _ in range(trials):
        space = rand_space(rng, backend=backend)
        tol = space.tol
        r = scalar.coerce(rng.choice(_BOUNDS), backend)
        f1 = rand_quotient(rng, space, max_classes=6)
        f2 = rand_parallel_map(rng, f1)
        g1 = rand_quotient(rng, f1.dst, max_classes=6)
        g2 = rand_parallel_map(rng, g1)
        d_f = map_distance(f1, f2)
        d_g = map_distance(g1, g2)
        d_comp = map_distance(compose(f1, g1), compose(f2, g2))
        _record_literal(comp, scalar.le(d_comp, d_f + d_g, tol),
                        "%s > %s + %s" % (d_comp, d_g, d_f))
        mu = rand_measure(rng, space, bound=r)
        lhs = tv_distance(pushforward(mu, f1), pushforward(mu, f2))
        _record_literal(push, scalar.le(lhs, r * d_f, tol), "%s > %s" % (lhs, r * d_f))
        x = rand_rv(rng, space, bound=r)
        lhs = l1_distance(cond_exp(x, f1), cond_exp(x, f2))
        _record_literal(ce, scalar.le(lhs, r * d_f, tol), "%s > %s" % (lhs, r * d_f))
        nu = rand_measure(rng, space, bound=r)
        _record_literal(
            push_c,
            scalar.le(
                tv_distance(pushforward(mu, f1), pushforward(nu, f1)),
                tv_distance(mu, nu),
                tol,
            ),
        )
        y = rand_rv(rng, space, bound=r)
        _record_literal(
            ce_c,
            scalar.le(
                l1_distance(cond_exp(x, f1), cond_exp(y, f1)),
                l1_distance(x, y),
                tol,
            ),
        )
    return report


# The samplers before they built spaces, tables and maps from scaled ints and
# positions.  Kept copies: fed the same draws, they pin the objects drawn, to
# the float bit, and the generator's state, which no report shows; they catch
# `rand_measure` multiplying in another order, `weight_classes` reading
# reversed numerators, `rand_quotient` summing a reversed weight table, and
# `rand_parallel_map` with its fault finder inverted or an identity in place
# of the shuffled automorphism.

_OLD_DENOMS = (4, 8, 16, 32, 64, 12, 24, 48, 60)


def rand_space_literal(rng, min_atoms=2, max_atoms=8, backend=scalar.EXACT):
    n = rng.randint(min_atoms, max_atoms)
    atoms = tuple(range(n))
    div = scalar.divider(backend)
    if rng.random() < 0.5:
        return FiniteProbSpace(atoms, [div(1, n)] * n, backend=backend)
    den = rng.choice(_OLD_DENOMS)
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return FiniteProbSpace(atoms, [div(p, den) for p in parts], backend=backend)


def rand_rv_literal(rng, space, bound=1):
    bound = scalar.coerce(bound, space.backend)
    div = scalar.divider(space.backend)
    return FiniteRandomVariable(
        space, [div(bound * rng.randint(0, 64), 64) for _ in range(space.size)]
    )


def rand_measure_literal(rng, space, bound=1):
    bound = scalar.coerce(bound, space.backend)
    div = scalar.divider(space.backend)
    return FiniteMeasure(space, [div(bound * w * rng.randint(0, 64), 64) for w in space.weights])


def _pushed_weights_literal(src, images, size):
    pushed = [src.zero] * size
    for w, b in zip(src.weights, images):
        pushed[b] += w
    return pushed


def rand_quotient_literal(rng, src, max_classes=None):
    n = src.size
    k = rng.randint(1, max_classes or n)
    assign = {a: rng.randrange(k) for a in src.atoms}
    used = sorted(set(assign.values()))
    relabel = {c: t for t, c in enumerate(used)}
    assign = {a: relabel[c] for a, c in assign.items()}
    targets = range(len(used))  # labels that are their own positions
    dst = FiniteProbSpace(
        targets,
        _pushed_weights_literal(src, list(assign.values()), len(used)),
        backend=src.backend,
        tol=src.tol or None,
    )
    return MeasurePreservingMap(src, dst, assign)


def weight_classes_literal(space):
    groups = {}
    for a in space.atoms:
        groups.setdefault(space.weight(a), []).append(a)
    return [g for g in groups.values() if len(g) > 1]


def rand_automorphism_literal(rng, space):
    perm = {a: a for a in space.atoms}
    for group in weight_classes_literal(space):
        shuffled = group[:]
        rng.shuffle(shuffled)
        perm.update(dict(zip(group, shuffled)))
    return MeasurePreservingMap(space, space, perm)


def rand_parallel_map_literal(rng, f, attempts=40):
    choices = [
        compose(rand_automorphism_literal(rng, f.src), f),
        compose(f, rand_automorphism_literal(rng, f.dst)),
    ]
    rng.shuffle(choices)
    for h in choices:
        if h != f:
            return h
    for _ in range(attempts):
        assign = {a: rng.choice(f.dst.atoms) for a in f.src.atoms}
        try:
            return MeasurePreservingMap(f.src, f.dst, assign)
        except NotMeasurePreserving:
            continue
    return f
