"""Independent brute-force oracles the fast implementations are checked against.

These stay deliberately literal: enumerate partitions, enumerate subsets,
integrate by refinement.  They share no code path with the library versions,
except the old composite fill and the copies of the old family constructors
near the end, which call the library's `compose` and kernels as they did,
the copies of the old random-variable and measure constructors, which call
`scalar.coerce` and `scalar.scaled` as they did, and the copies of the old
label-keyed maps and their kernels at the end, which build the library's
spaces and value types as they did, and the copies of the old label-keyed
Lipschitz maps and the constructions' maps, which call the library's metric
helpers as they did, and the copies of the old user-number route, space and
samplers, which call `scalar.scaled` and build the library's objects as they
did, and the copy of the old pushforward check, which calls the library's
`_fiber_sums` as it did, and the copies of the old metric space and its
constructions, which call `scalar.coerce` and the library's `_partition` and
`_min_plus_closure` as they did, and the copies of the dyadic path's tables,
checks and report rows and of the map samplers at the end, which call the
library's kernels and build its maps as they did, and the copies of the
old order scans and `validate` at the very end, which call the library's
cover-triple and functoriality scans as they did, and the copies of the old
check suites and diagram writer after them, which call the library's
kernels, samplers and `space_to_obj` as they did, and the copies of the
label-keyed JSON readers and writers and of the per-entry literal parse last
of all, which call the library's JSON helpers, constructors, `parse_ratio`
and metric coercion as they did.  The copies of the dyadic path's fold,
ratios, weighting and step images close the file; they call the library's
`_fiber_sums`, `scalar.common` and `_from_scaled` as they did.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from copy import copy
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from catprob import scalar
from catprob.diagram import (
    MAX_DYADIC_DEPTH,
    DiagramReport,
    ConsistentMeasureFamily,
    FiltrationDiagram,
    Martingale,
    MartingaleCheck,
    _cover_triples_commute,
    _functoriality_problems,
    dyadic_experiment,
    is_martingale,
)
from catprob.errors import (
    BackendMismatch,
    DepthTooLarge,
    DomainMismatch,
    DuplicateAtom,
    IndexMismatch,
    Inconsistent,
    InvalidMetric,
    NegativeValue,
    NegativeWeight,
    NotAbsolutelyContinuous,
    NotLipschitz,
    NotAChain,
    NotMeasurePreserving,
    NoTopElement,
    ParseError,
    SpaceMismatch,
    WeightSumMismatch,
)
from catprob.finmeas import FiniteMeasure, _density_bound, bound_check, pushforward, rho, rn_derivative, tv_distance
from catprob.finprob import (
    FiniteProbSpace,
    MeasurePreservingMap,
    _Equal,
    _fiber_sums,
    compose,
    identity_map,
    map_distance,
)
from catprob.finrv import FiniteRandomVariable, cond_exp, l1_distance, max_value, second_moment
from catprob.jsonio import (
    _atom_from_json,
    _atom_to_json,
    _guard,
    _key_lookup,
    _need,
    _need_list,
    space_to_obj,
)
from catprob.metcat import (
    INF,
    FinPseudometricSpace,
    _coerce_dist,
    _min_plus_closure,
    _partition,
    tensor,
)
from catprob.sampling import rand_measure, rand_parallel_map, rand_quotient, rand_rv, rand_space
from catprob.suites import CheckResult, SuiteReport


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


# -- literal per-atom loops for the exact kernels ------------------------------
#
# Each loop does scalar arithmetic atom by atom, in the order of the float
# kernels, so on the float backend it must agree with the library to the
# bit and on the exact backend to the exact value.


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


def l1_literal(f, g):
    total = f.space.zero
    for w, x, y in zip(f.space.weights, f.values, g.values):
        total += w * abs(x - y)
    return total


def tv_literal(mu, nu):
    total = mu.space.zero
    for x, y in zip(mu.mass, nu.mass):
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
                via = table[i][k] + table[k][j]
                if via != inf and table[i][j] > via + tol:
                    return "triangle violated: d(%r,%r) > d(%r,%r) + d(%r,%r)" % (
                        points[i], points[j], points[i], points[k], points[k], points[j]
                    )
    return None


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
    it, or (0, None) on an empty source."""
    inf = float("inf")
    best, witness = 0, None
    for p in f.src.points:
        d = f.dst.distance(f.assign[p], g.assign[p])
        if witness is None or (best != inf and (d == inf or d > best)):
            best, witness = d, p
    return best, witness


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


def composite_fill_literal(elements, leq, spaces, connect):
    """The connecting-map table `FiltrationDiagram.__init__` built before it
    derived composites on first read: identities on the diagonal, then every
    missing pair of the closed order `leq` composed along the first available
    factorization, repeated to a fixpoint (it raises what `compose` raised)."""
    table = dict(connect)
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
                        changed = True
                        break
    return table


# -- the two level-family constructors, one body per side -------------------------
#
# Literal copies of `Martingale.__init__` and `ConsistentMeasureFamily.__init__`
# from before the two sides shared one construction.  Each returns the stored
# family, the bound and the repr, or raises what the constructor raised.


def martingale_literal(diagram, family, bound=None):
    if set(family) != set(diagram.elements):
        raise IndexMismatch("family is not indexed by the diagram's elements")
    family = MappingProxyType({i: family[i] for i in diagram.elements})
    if bound is None:
        bound = max(
            (max_value(family[i]) for i in diagram.elements),
            default=scalar.zero(diagram.backend),
        )
    else:
        bound = scalar.coerce(bound, diagram.backend)
    if bound < 0:
        raise NegativeValue("bound must be nonnegative")
    for i in diagram.elements:
        if not scalar.le(max_value(family[i]), bound, diagram.tol):
            raise Inconsistent("level %r exceeds the bound %s" % (i, bound))
    chk = is_martingale(family, diagram)
    if not chk.ok:
        raise Inconsistent(
            "consistency fails at %r with residual %s" % (chk.worst_pair, chk.residual)
        )
    return family, bound, "Martingale(levels=%r, bound=%s)" % (list(family), bound)


def measure_family_literal(diagram, family, bound=None):
    if set(family) != set(diagram.elements):
        raise IndexMismatch("family is not indexed by the diagram's elements")
    family = MappingProxyType({i: family[i] for i in diagram.elements})
    backend = diagram.backend
    if bound is None:
        bound = max(
            (_density_bound(family[i]) for i in diagram.elements),
            default=scalar.zero(backend),
        )
    else:
        bound = scalar.coerce(bound, backend)
    if bound < 0:
        raise NegativeValue("bound must be nonnegative")
    for i in diagram.elements:
        if family[i].space != diagram.spaces[i]:
            raise SpaceMismatch("family member at %r lives on the wrong space" % (i,))
        if bound > 0 and not bound_check(family[i], bound):
            raise Inconsistent("level %r exceeds bound * base weights" % (i,))
    for (i, j) in diagram.covers:
        gap = tv_distance(pushforward(family[j], diagram.connect[(i, j)]), family[i])
        if not scalar.eq(gap, scalar.zero(backend), diagram.tol):
            raise Inconsistent(
                "restriction fails at %r <= %r with residual %s" % (i, j, gap)
            )
    return family, bound, "ConsistentMeasureFamily(levels=%r, bound=%s)" % (list(family), bound)


# -- the construction of random variables and measures before they shared one route --
# Copies of the old `scalar.lowest`, `finrv._check` and `finrv._entries`, and of
# the old `__init__` and `_from_scaled` of each type, which called them.  Each
# returns what the old object stored, (table, (den, nums)), with an exact
# kernel output's table (stored as None) built as the old property built it.


def _old_lowest(den, nums, backend, values=None, zeros=()):
    if zeros and (backend == scalar.EXACT or values is None):
        nums = list(nums)
        for i in zeros:
            nums[i] = 0
    if backend != scalar.EXACT:
        values = tuple([n / den for n in nums]) if values is None else values
        return values, (1, values)
    g = math.gcd(den, *nums)
    return values, (den // g, tuple([n // g for n in nums]))


def _old_check(space, den, nums, what, null_zero=True):
    nulls = space._nulls
    if min(nums) < 0 or not null_zero and any([nums[i] for i in nulls]):
        div = scalar.divider(space.backend)
        for a, n, w in zip(space.atoms, nums, space._scaled[1]):
            if n < 0:
                raise NegativeValue("%s at atom %r is %s < 0" % (what, a, div(n, den)))
            if not (w or null_zero or n == 0):
                raise NotAbsolutelyContinuous("atom %r has weight 0 but mass %s" % (a, div(n, den)))


def _old_entries(space, table, words, null_zero=True):
    if isinstance(table, dict):
        missing = [a for a in space.atoms if a not in table]
        if missing:
            raise SpaceMismatch("%s missing for atoms %r" % (words[1], missing[:4]))
        table = [table[a] for a in space.atoms]
    elif len(table := list(table)) != space.size:
        raise SpaceMismatch("%d %s for a %d-atom space" % (len(table), words[2], space.size))
    coerce, backend = scalar.coerce, space.backend
    vals = tuple([coerce(v, backend) for v in table])
    den, nums = scaled = scalar.scaled(vals, backend)
    _old_check(space, den, nums, words[0], null_zero)
    if null_zero and space._nulls:
        vals = list(vals)
        for i in space._nulls:
            vals[i] = space.zero
        return _old_lowest(den, nums, backend, tuple(vals), space._nulls)
    return vals, scaled


def _old_read(stored):
    table, (den, nums) = stored
    if table is None:
        table = tuple([Fraction(n, den) for n in nums])
    return table, (den, nums)


def rv_init_literal(space, values):
    return _old_read(_old_entries(space, values, ("value", "values", "values")))


def measure_init_literal(space, mass):
    return _old_read(_old_entries(space, mass, ("mass", "mass", "masses"), False))


def rv_from_scaled_literal(space, den, nums):
    _old_check(space, den, nums, "value")
    return _old_read(_old_lowest(den, nums, space.backend, zeros=space._nulls))


def measure_from_scaled_literal(space, den, nums):
    _old_check(space, den, nums, "mass", False)
    return _old_read(_old_lowest(den, nums, space.backend))


# -- measure-preserving maps before they stored image positions --------------------
# Copies of the old label-keyed `MeasurePreservingMap`, `_valid_map`,
# `identity_map`, `compose`, `uniform_space`, `_fiber_sums` and
# `_check_pushforward`, and of the old `cond_exp`, `pullback` and
# `pushforward`, which read a map's `assign` by label.


def uniform_space_literal(atoms, backend=scalar.EXACT):
    if isinstance(atoms, int):
        atoms = range(atoms)
    atoms = tuple(atoms)
    n = len(atoms)
    weights = [scalar.divider(backend)(1, n)] * n if n else []  # no atoms: sum 0, rejected
    return FiniteProbSpace(atoms, weights, backend=backend)


def _old_fiber_sums(src, assign, values, targets):
    sums = dict.fromkeys(targets, 0)
    for a, v in zip(src.atoms, values):
        sums[assign[a]] += v
    return [sums[b] for b in targets]


def _old_check_pushforward(src, dst, assign):
    (sden, sws), (dden, dws) = src._scaled, dst._scaled
    pushed = _old_fiber_sums(src, assign, sws, dst.atoms)
    for b, p, w in zip(dst.atoms, pushed, dws):
        if not scalar.eq(p * dden, w * sden, dst.tol):
            raise NotMeasurePreserving(
                "atom %r receives mass %s, target weight is %s"
                % (b, scalar.divider(src.backend)(p, sden), dst.weight(b))
            )


def _old_valid_map(src, dst, assign):
    h = object.__new__(OldMap)
    h.src, h.dst, h.assign = src, dst, MappingProxyType(assign)
    return h


class OldMap:
    __slots__ = ("src", "dst", "assign")

    def __init__(self, src, dst, assign):
        scalar.same_backend(src, dst)
        assign = dict(assign)
        missing = [a for a in src.atoms if a not in assign]
        if missing:
            raise DomainMismatch("assignment missing source atoms %r" % (missing[:4],))
        extra = [a for a in assign if a not in src._index]
        if extra:
            raise DomainMismatch("assignment mentions unknown atoms %r" % (extra[:4],))
        try:
            for a, b in assign.items():
                if b not in dst._index:
                    raise DomainMismatch("image atom %r not in target space" % (b,))
        except TypeError:  # an unhashable image
            raise DomainMismatch("image atom %r not in target space" % (b,)) from None
        _old_check_pushforward(src, dst, assign)
        self.src = src
        self.dst = dst
        self.assign = MappingProxyType({a: assign[a] for a in src.atoms})

    def __eq__(self, other):
        if not isinstance(other, OldMap):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.assign == other.assign
        )

    def __hash__(self):
        return hash((self.src, self.dst, tuple(self.assign[a] for a in self.src.atoms)))

    def __repr__(self):
        return "MeasurePreservingMap(%r)" % (dict(self.assign),)


def identity_map_literal(space):
    return _old_valid_map(space, space, {a: a for a in space.atoms})


def compose_literal(f, g):
    if f.dst != g.src:
        raise DomainMismatch("codomain of the first map differs from domain of the second")
    assign = {a: g.assign[f.assign[a]] for a in f.src.atoms}
    if f.src.backend != scalar.EXACT:  # within-tol drift adds up along a path
        return OldMap(f.src, g.dst, assign)
    # exact pushforward is functorial, so the composite preserves measure
    return _old_valid_map(f.src, g.dst, assign)


def old_cond_exp(g, s):
    if g.space != s.src:
        raise SpaceMismatch("random variable does not live on the map's source")
    src, dst = s.src, s.dst
    # per target atom: sum of w * x over the fiber / the target weight
    (wden, ws), (qden, qs), (den, xs) = src._scaled, dst._scaled, g._scaled
    moment = _old_fiber_sums(src, s.assign, map(mul, ws, xs), dst.atoms)
    dens = [den * wden * q if q else 1 for q in qs]
    out = scalar.ratios([mx * qden for mx in moment], dens, src.backend)
    return FiniteRandomVariable._from_scaled(dst, *out)


def old_pullback(f, s):
    if f.space != s.dst:
        raise SpaceMismatch("random variable does not live on the map's target")
    (den, nums), index = f._scaled, f.space._index
    out = [nums[index[s.assign[a]]] for a in s.src.atoms]
    return FiniteRandomVariable._from_scaled(s.src, den, out)


def old_pushforward(mu, s):
    if mu.space != s.src:
        raise SpaceMismatch("measure does not live on the map's source")
    den, ms = mu._scaled
    return FiniteMeasure._from_scaled(s.dst, den, _old_fiber_sums(s.src, s.assign, ms, s.dst.atoms))


# -- Lipschitz maps before they stored image positions ----------------------------
# Copies of the old label-keyed `LipschitzMap`, `identity_lipschitz` and
# `compose_lipschitz`, and of the maps `equalizer`, `coequalizer`,
# `metric_reflection`, `curry` and `uncurry` built by label.  Each
# construction takes the old maps; the quotients take the library's quotient
# space, whose table other tests pin, and return the old classes with it.


class OldLipschitzMap:
    __slots__ = ("src", "dst", "assign")

    def __init__(self, src, dst, assign):
        assign = dict(assign)
        missing = [p for p in src.points if p not in assign]
        if missing:
            raise DomainMismatch("assignment missing points %r" % (missing[:4],))
        if len(assign) > src.size:
            extra = [p for p in assign if p not in src._index]
            raise DomainMismatch("assignment mentions unknown points %r" % (extra[:4],))
        position = {}
        for p, q in assign.items():
            try:
                position[p] = dst._index[q]
            except (KeyError, TypeError):
                raise DomainMismatch("image point %r not in target" % (q,)) from None
        tol = max(src.tol, dst.tol)
        image = [position[x] for x in src.points]
        for i, x in enumerate(src.points):
            image_row = dst.dist[image[i]]
            for j, y in enumerate(src.points):
                dxy = src.dist[i][j]
                dfxy = image_row[image[j]]
                if not scalar.le(dfxy, dxy, tol):
                    raise NotLipschitz(
                        "pair (%r,%r): image distance %s > source distance %s"
                        % (x, y, dfxy, dxy)
                    )
        self.src = src
        self.dst = dst
        self.assign = MappingProxyType({p: assign[p] for p in src.points})

    def __call__(self, point):
        return self.assign[point]

    def __eq__(self, other):
        if not isinstance(other, OldLipschitzMap):
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.assign == other.assign
        )

    def __repr__(self):
        return "LipschitzMap(%r)" % (dict(self.assign),)


def identity_lipschitz_literal(space):
    return OldLipschitzMap(space, space, {p: p for p in space.points})


def compose_lipschitz_literal(f, g):
    if f.dst != g.src:
        raise DomainMismatch("maps do not compose")
    return OldLipschitzMap(f.src, g.dst, {p: g.assign[f.assign[p]] for p in f.src.points})


def old_equalizer(f, g):
    src = f.src
    keep = [p for p in src.points if f.assign[p] == g.assign[p]]
    pos = [src._index[p] for p in keep]
    table = [[src.dist[i][j] for j in pos] for i in pos]
    sub = FinPseudometricSpace(keep, table, tol=src.tol)
    incl = OldLipschitzMap(sub, src, {p: p for p in keep})
    return sub, incl


def old_coequalizer(f, g, quot):
    """The classes of the old `coequalizer` and its projection onto `quot`."""
    Y = f.dst
    class_of, members = _partition(
        Y.points, ((Y._index[f.assign[x]], Y._index[g.assign[x]]) for x in f.src.points)
    )
    proj = OldLipschitzMap(Y, quot, {p: members[class_of[i]] for i, p in enumerate(Y.points)})
    return members, proj


def old_metric_reflection(space, quot):
    """The classes of the old `metric_reflection` and its projection onto `quot`."""
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
    proj = OldLipschitzMap(
        space, quot, {p: members[class_of[i]] for i, p in enumerate(space.points)}
    )
    return members, proj


def old_hom_space(maps):
    """The old `hom` space of a family of old maps."""
    n = len(maps)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d, _ = hom_distance_literal(maps[i], maps[j])
            table[i][j] = d
            table[j][i] = d
    return FinPseudometricSpace(range(n), table, tol=maps[0].dst.tol)


def old_curry(h, x_space, y_space):
    """The per-point maps, hom space and outer map of the old `curry`."""
    per = {}
    for x in x_space.points:
        per[x] = OldLipschitzMap(
            y_space, h.dst, {y: h.assign[(x, y)] for y in y_space.points}
        )
    space = old_hom_space([per[x] for x in x_space.points])
    outer = OldLipschitzMap(
        x_space, space, {x: i for i, x in enumerate(x_space.points)}
    )
    return per, space, outer


def old_uncurry(per_point, x_space, y_space):
    if not x_space.points or any(x not in per_point for x in x_space.points):
        raise DomainMismatch("uncurry needs a map for each point of a nonempty first factor")
    some = per_point[x_space.points[0]]
    assign = {}
    for x in x_space.points:
        m = per_point[x]
        if m.src != y_space or m.dst != some.dst:
            raise DomainMismatch("family members must be parallel maps from the second factor")
        for y in y_space.points:
            assign[(x, y)] = m.assign[y]
    return OldLipschitzMap(tensor(x_space, y_space), some.dst, assign)


# -- user numbers, spaces and samplers before the scaled user route --------------
# Copies of the old `scalar.coerce` and `scalar.parse_rational`, of the route a
# user's table took through them (`coerce` per entry, then `scaled`), of the old
# `FiniteProbSpace`, which stored the coerced weights and compared and hashed
# them, of the old `jsonio.space_to_obj`, and of the old samplers, which built
# the library's spaces and tables from Fractions (or floats).


def _old_parse_rational(text):
    parts = text.strip().split("/")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    if len(parts) == 2:
        return Fraction(int(parts[0]), int(parts[1]))
    raise ValueError("not a rational literal: %r" % text)


def old_coerce(value, backend):
    if backend == scalar.EXACT:
        if type(value) is Fraction:
            return value
        if isinstance(value, bool):
            raise BackendMismatch("booleans are not scalars")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return _old_parse_rational(value)
        if isinstance(value, float):
            raise BackendMismatch(
                "float %r passed to the exact backend; use Fraction or 'num/den'" % value
            )
        raise BackendMismatch("cannot use %r as an exact scalar" % (value,))
    if backend == scalar.FLOAT:
        if type(value) is not float:
            if isinstance(value, bool):
                raise BackendMismatch("booleans are not scalars")
            if isinstance(value, str):
                value = _old_parse_rational(value)
            elif not isinstance(value, (int, float, Fraction)):
                raise BackendMismatch("cannot use %r as a float scalar" % (value,))
            value = float(value)
        if not math.isfinite(value):
            raise ValueError("%r is not a finite scalar" % (value,))
        return value
    raise ValueError("unknown backend %r" % backend)


def coerce_scaled_literal(xs, backend):
    return scalar.scaled(tuple(old_coerce(v, backend) for v in xs), backend)


class OldSpace:
    __slots__ = ("atoms", "weights", "backend", "tol", "_index", "_scaled", "_nulls")

    def __init__(self, atoms, weights, backend=scalar.EXACT, tol=None):
        atoms = tuple(atoms)
        index = dict(zip(atoms, range(len(atoms))))
        if len(index) != len(atoms):  # name the first atom seen a second time
            first = {}
            dup = next(a for i, a in enumerate(atoms) if first.setdefault(a, i) != i)
            raise DuplicateAtom("atom %r occurs more than once" % (dup,))
        if backend not in scalar.BACKENDS:
            raise ValueError("unknown backend %r" % backend)
        if tol is not None:
            scalar.check_tol(tol)
        if backend == scalar.EXACT:
            tol = 0
        elif tol is None:
            tol = scalar.DEFAULT_TOL
        if type(weights) is _Equal:  # one weight, coerced and scaled once
            w = old_coerce(weights[0], backend)
            den, (num,) = scalar.scaled([w], backend)
            ws, scaled = (w,) * len(atoms), (den, (num,) * len(atoms))
        else:
            raw = list(weights)
            if len(raw) != len(atoms):
                raise ValueError("%d atoms but %d weights" % (len(atoms), len(raw)))
            ws = tuple([old_coerce(w, backend) for w in raw])
            scaled = scalar.scaled(ws, backend)
        den, nums = scaled
        if min(nums, default=0) < 0:  # one int test; the walk only words the error
            a, w = next((a, w) for a, w in zip(atoms, ws) if w < 0)
            raise NegativeWeight("weight of atom %r is %s < 0" % (a, w))
        total = scalar.total(nums)
        if not scalar.eq(total, den, tol):
            raise WeightSumMismatch(
                "weights sum to %s, expected 1" % (scalar.divider(backend)(total, den),)
            )
        self.atoms, self.weights, self.backend, self.tol, self._scaled = atoms, ws, backend, tol, scaled
        self._nulls = tuple([i for i, w in enumerate(nums) if not w]) if 0 in nums else ()
        self._index = index

    def weight(self, atom):
        return self.weights[self._index[atom]]

    def __eq__(self, other):
        if not isinstance(other, OldSpace):
            return NotImplemented
        return (self.atoms, self.weights, self.backend) == (other.atoms, other.weights, other.backend)

    def __hash__(self):
        return hash((self.atoms, self.weights, self.backend))

    def __repr__(self):
        body = ", ".join("%r:%s" % (a, w) for a, w in zip(self.atoms, self.weights))
        return "FiniteProbSpace(%s)" % body


def old_space_to_obj(s):
    return {
        "atoms": [_atom_to_json(a) for a in s.atoms],
        "weights": [scalar.to_json(w) for w in s.weights],
        "backend": s.backend,
        "tol": s.tol,
    }


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


def _old_pushed_weights(src, images, size):
    den, ws = src._scaled
    div = scalar.divider(src.backend)
    return [div(p, den) for p in _fiber_sums(images, ws, size)]


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
        _old_pushed_weights(src, list(assign.values()), len(used)),
        backend=src.backend,
        tol=src.tol or None,
    )
    return MeasurePreservingMap(src, dst, assign)


def weight_classes_literal(space):
    groups = {}
    for a in space.atoms:
        groups.setdefault(space.weight(a), []).append(a)
    return [g for g in groups.values() if len(g) > 1]


# -- the pushforward check and the order scans, as they were ------------------------
#
# A literal copy of `finprob._check_pushforward` from before it compared all
# fiber sums in one pass and worded its message from the scaled ints, and
# literal copies of the three order scans of `FiltrationDiagram` from before
# they read up-sets: `_covers`, the constructor's `via` loop and `validate`'s
# upper-bound scan.


def check_pushforward_literal(src, dst, images):
    (sden, sws), (dden, dws) = src._scaled, dst._scaled
    pushed = _fiber_sums(images, sws, dst.size)
    for b, p, w in zip(dst.atoms, pushed, dws):
        if not scalar.eq(p * dden, w * sden, dst.tol):
            raise NotMeasurePreserving(
                "atom %r receives mass %s, target weight is %s"
                % (b, scalar.divider(src.backend)(p, sden), dst.weight(b))
            )


def covers_literal(elements, leq, ordered):
    return tuple(
        (i, j)
        for (i, j) in ordered
        if i != j
        and not any(k not in (i, j) and (i, k) in leq and (k, j) in leq for k in elements)
    )


def via_literal(elements, leq, table, ordered):
    have, via, size = set(table), {}, None
    while size != len(via):
        size = len(via)
        for i, j in (p for p in ordered if p not in have):
            for k in elements:
                if (i, k) in have and (k, j) in have and (i, k) in leq and (k, j) in leq:
                    via[(i, j)] = k
                    have.add((i, j))
                    break
    return via


def upper_bound_problems_literal(d):
    problems = []
    els = d.elements
    rank = {e: t for t, e in enumerate(els)}
    for i in els:
        for j in els:
            if rank[i] < rank[j] and not any(
                d.le(i, k) and d.le(j, k) for k in els
            ):
                problems.append("no upper bound for %r, %r" % (i, j))
    return problems


# -- metric spaces before their tables were scaled -----------------------------
# A copy of the old `FinPseudometricSpace` (`OldMetricSpace`), which coerced
# each entry through `scalar.coerce` and stored its table of Fractions or
# floats, with its `_coerce_dist` and `_check_axioms`; of the old 1-Lipschitz
# pair check; and of the old constructions on the stored tables.  A map is
# its image positions, as the library's maps store them, and a construction
# returns its spaces and the image positions of its maps, each checked.

_INF = math.inf


def _old_coerce_dist(value, backend):
    try:
        return scalar.coerce(value, backend)
    except (ValueError, ZeroDivisionError, BackendMismatch) as exc:
        if value == _INF or value == "inf":
            return _INF
        raise InvalidMetric("not a distance: %r (%s)" % (value, exc)) from None


class OldMetricSpace:
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
        table = tuple(tuple(_old_coerce_dist(v, backend) for v in row) for row in rows)
        _old_check_axioms(points, table, tol)
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
        if not isinstance(other, OldMetricSpace):
            return NotImplemented
        return self.points == other.points and self.dist == other.dist

    def __hash__(self):
        return hash((self.points, self.dist))

    def __repr__(self):
        return "FinPseudometricSpace(points=%r)" % (self.points,)


def _old_check_axioms(points, table, tol):
    n = len(table)
    if tol == 0:
        _, nums = scalar.scaled([v for row in table for v in row if v is not _INF])
        top = 2 * max(nums, default=0) + 1  # > 0 past row 0, whose d(0,0) = 0 is in nums
        finite = iter(nums)
        rows = [tuple([top if v is _INF else next(finite) for v in row]) for row in table]
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


def old_lipschitz_check(src, dst, images):
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


def _old_sat_add(a, b):
    return _INF if a is _INF or b is _INF else a + b


def old_metric_scale(space, r):
    r = scalar.coerce(r, space.backend)
    if not r > 0:
        raise ValueError("scale factor must be positive")
    table = [[_INF if d is _INF else d * r for d in row] for row in space.dist]
    return OldMetricSpace(space.points, table, tol=space.tol)


def old_metric_equalizer(src, f_images, g_images):
    pos = tuple([i for i, (u, v) in enumerate(zip(f_images, g_images)) if u == v])
    table = [[src.dist[i][j] for j in pos] for i in pos]
    sub = OldMetricSpace([src.points[i] for i in pos], table, tol=src.tol)
    old_lipschitz_check(sub, src, pos)
    return sub, pos


def old_metric_coequalizer(Y, f_images, g_images):
    class_of, members = _partition(Y.points, zip(f_images, g_images))
    k = len(members)
    chain = [[(0 if i == j else _INF) for j in range(k)] for i in range(k)]
    for ci, row in zip(class_of, Y.dist):
        for cj, d in zip(class_of, row):
            if ci != cj and d < chain[ci][cj]:
                chain[ci][cj] = chain[cj][ci] = d
    _min_plus_closure(chain)
    gaps, dist, via = [], Y.dist, range(Y.size)
    pos = [[Y._index[p] for p in m] for m in members]
    for ci in range(k):
        for cj in range(ci + 1, k):
            sums = [
                _old_sat_add(dist[i][m], dist[m][j]) for i in pos[ci] for m in via for j in pos[cj]
            ]
            one = min(sums, default=_INF)
            if one != chain[ci][cj]:
                gaps.append((members[ci], members[cj], one, chain[ci][cj]))
    quot = OldMetricSpace(members, chain, tol=Y.tol)
    old_lipschitz_check(Y, quot, tuple(class_of))
    return quot, tuple(class_of), tuple(gaps)


def old_metric_reflection_space(space):
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
    quot = OldMetricSpace(members, table, tol=space.tol)
    old_lipschitz_check(space, quot, tuple(class_of))
    return quot, tuple(class_of)


def _old_tensor_table(x_space, y_space):
    cells = list(itertools.product(range(x_space.size), range(y_space.size)))
    points = tuple(itertools.product(x_space.points, y_space.points))
    dx, dy = x_space.dist, y_space.dist
    table = tuple(tuple([_old_sat_add(a, b) for a in dx[i] for b in dy[j]]) for i, j in cells)
    return points, table


def old_metric_tensor(x_space, y_space):
    _, tol = scalar.same_backend(x_space, y_space)
    points, table = _old_tensor_table(x_space, y_space)
    return OldMetricSpace(points, table, tol=tol)


def old_hom_distance(src, dst, f_images, g_images):
    best, witness = 0, None
    for p, i, j in zip(src.points, f_images, g_images):
        d = dst.dist[i][j]
        if witness is None or d > best:
            best, witness = d, p
    return best, witness


def old_metric_hom(src, dst, family):
    """The hom space of the maps src -> dst given by their image positions."""
    if not family:
        raise ValueError("hom needs at least one map")
    n = len(family)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d, _ = old_hom_distance(src, dst, family[i], family[j])
            table[i][j] = d
            table[j][i] = d
    return OldMetricSpace(range(n), table, tol=dst.tol)


def old_metric_curry(h_src, h_dst, h_images, x_space, y_space):
    """The per-point image positions and the hom space of the old `curry`."""
    if (h_src.points, h_src.dist) != _old_tensor_table(x_space, y_space):
        raise DomainMismatch("map source is not the tensor of the given spaces")
    n = y_space.size
    per = [tuple(h_images[k * n:(k + 1) * n]) for k in range(x_space.size)]
    for images in per:
        old_lipschitz_check(y_space, h_dst, images)
    space = old_metric_hom(y_space, h_dst, per)
    old_lipschitz_check(x_space, space, range(x_space.size))
    return per, space


def old_metric_uncurry(per, dst, x_space, y_space):
    """The tensor and the image positions of the old `uncurry`."""
    images = tuple(itertools.chain.from_iterable(per))
    src = old_metric_tensor(x_space, y_space)
    old_lipschitz_check(src, dst, images)
    return src, images


# -- the dyadic path before it ran on scaled ints ----------------------------------
#
# Literal copies of `diagram._dyadic_tables`, `is_martingale`, the bound and cover
# loops of `Martingale` and `ConsistentMeasureFamily` (with `finmeas.bound_check`),
# `_top_level` and the rows of `catprob martingale`, from before a check whose
# projection equals its level skipped the distance, bounds were compared on the
# ints and the per-level counts came from int floor division.  They call the
# library's kernels as they did.


def dyadic_tables_literal(ground, depth):
    if type(depth) is not int or not 0 <= depth <= MAX_DYADIC_DEPTH:
        raise DepthTooLarge("depth must be an int in 0..%d, not %r" % (MAX_DYADIC_DEPTH, depth))
    n = 1 << depth
    bps, vals = ground.breakpoints, ground.values
    pieces, base = [], Fraction(0)  # base: the integral of f up to the piece
    for a, b, fa, fb in zip(bps, bps[1:], vals, vals[1:]):
        s = (fb - fa) / (b - a)
        # F(k/n) = base + fa (x - a) + s (x - a)^2 / 2 = c0 + c1 k + c2 k^2
        pieces.append((a, b, s, (base - fa * a + s * a * a / 2, (fa - s * a) / n, s / (2 * n * n))))
        base += (b - a) * (fa + fb) / 2
    den = math.lcm(*(c.denominator for *_, coeffs in pieces for c in coeffs))
    prefix = []  # den * F(k/n); a grid point on a breakpoint goes to the left piece
    for a, b, s, coeffs in pieces:
        c0, c1, c2 = (c.numerator * (den // c.denominator) for c in coeffs)
        prefix.extend(c0 + k * (c1 + k * c2) for k in range(len(prefix), math.floor(b * n) + 1))
    levels, errors = [], []
    for t in range(depth + 1):
        m, ends = 1 << t, prefix[:: n >> t]
        averages = [(hi - lo) * m for lo, hi in zip(ends, ends[1:])]  # over den
        inside = [(abs(s), math.floor(b * m) - math.ceil(a * m)) for a, b, s, _ in pieces]
        total = sum((s * cells for s, cells in inside if cells > 0), Fraction(0)) / (4 * m * m)
        for j in sorted({math.floor(b * m) for b in bps[1:-1] if (b * m).denominator != 1}):
            lo, hi = Fraction(j, m), Fraction(j + 1, m)
            total += ground.abs_dev_integral(lo, hi, Fraction(averages[j], den))
        levels.append((den, averages))
        errors.append(total)
    return levels, errors


def is_martingale_literal(family, d):
    if set(family) != set(d.elements):
        raise IndexMismatch("family is not indexed by the diagram's elements")
    for i in d.elements:
        if family[i].space != d.spaces[i]:
            raise SpaceMismatch("family member at %r lives on the wrong space" % (i,))
    zero = scalar.zero(d.backend)
    residual, worst = zero, None
    for (i, j) in d.covers:
        r = l1_distance(cond_exp(family[j], d.connect[(i, j)]), family[i])
        if r > residual:
            residual, worst = r, (i, j)
    return MartingaleCheck(ok=scalar.eq(residual, zero, d.tol), residual=residual, worst_pair=worst)


def _level_setup_literal(diagram, family, bound, peak):
    if set(family) != set(diagram.elements):
        raise IndexMismatch("family is not indexed by the diagram's elements")
    family = MappingProxyType({i: family[i] for i in diagram.elements})
    if bound is None:
        bound = max(peak(family[i]) for i in diagram.elements)
    else:
        bound = scalar.coerce(bound, diagram.backend)
    if bound < 0:
        raise NegativeValue("bound must be nonnegative")
    return family, bound


def bound_check_loop_literal(mu, r):
    space = mu.space
    rden, (rnum,) = scalar.scaled([scalar.coerce(r, space.backend)], space.backend)
    if rnum < 0:
        raise ValueError("bound must be nonnegative")
    # m / mden <= (rnum / rden) * (w / wden), cross-multiplied
    (wden, ws), (mden, ms) = space._scaled, mu._scaled
    lhs, rhs, tol = wden * rden, mden * rnum, space.tol
    for w, m in zip(ws, ms):
        if not scalar.le(m * lhs, w * rhs, tol):
            return False
    return True


def martingale_checks_literal(diagram, family, bound=None):
    """`Martingale(diagram, family, bound)` as it was: (family, bound, repr), or its error."""
    family, bound = _level_setup_literal(diagram, family, bound, max_value)
    for i in diagram.elements:
        if not scalar.le(max_value(family[i]), bound, diagram.tol):
            raise Inconsistent("level %r exceeds the bound %s" % (i, bound))
    chk = is_martingale_literal(family, diagram)
    if not chk.ok:
        raise Inconsistent(
            "consistency fails at %r with residual %s" % (chk.worst_pair, chk.residual)
        )
    return family, bound, "Martingale(levels=%r, bound=%s)" % (list(family), bound)


def measure_family_checks_literal(diagram, family, bound=None):
    """`ConsistentMeasureFamily(diagram, family, bound)` as it was: (family, bound, repr), or its error."""
    family, bound = _level_setup_literal(diagram, family, bound, _density_bound)
    for i in diagram.elements:
        if family[i].space != diagram.spaces[i]:
            raise SpaceMismatch("family member at %r lives on the wrong space" % (i,))
        if not bound_check_loop_literal(family[i], bound):
            raise Inconsistent("level %r exceeds bound * base weights" % (i,))
    for (i, j) in diagram.covers:
        gap = tv_distance(pushforward(family[j], diagram.connect[(i, j)]), family[i])
        if not scalar.eq(gap, scalar.zero(diagram.backend), diagram.tol):
            raise Inconsistent(
                "restriction fails at %r <= %r with residual %s" % (i, j, gap)
            )
    return family, bound, "ConsistentMeasureFamily(levels=%r, bound=%s)" % (list(family), bound)


def _levels_from_top_literal(top, d, project, what, noun):
    if d.top is None:
        raise NoTopElement("%s needs a designated top element" % what)
    if top.space != d.spaces[d.top]:
        raise SpaceMismatch("%s does not live on the top space" % noun)
    return {i: project(top, d.to_top(i)) for i in d.elements}


def top_level_literal(fam, project, distance, what, miss):
    d = fam.diagram
    top = fam.family.get(d.top)  # None without a top, and then _levels_from_top raises
    for i, level in _levels_from_top_literal(top, d, project, what, None).items():
        gap = distance(level, fam.family[i])
        if not scalar.eq(gap, top.space.zero, d.tol):
            raise Inconsistent("%s misses level %r by %s" % (miss, i, gap))
    return top


def martingale_rows_literal(ground, depth):
    """The rows and `ok` of `catprob martingale`, as the subcommand computed them."""
    _, mart, errors = dyadic_experiment(ground, depth)
    moments = [second_moment(mart.family[t]) for t in range(depth + 1)]
    table = []
    for t in range(depth + 1):
        gap = moments[t] - moments[t - 1] if t > 0 else Fraction(0)
        table.append(
            {
                "depth": t,
                "l1_error": scalar.to_json(errors[t]),
                "second_moment": scalar.to_json(moments[t]),
                "gap": scalar.to_json(gap),
            }
        )
    telescoped = sum((moments[t] - moments[t - 1] for t in range(1, depth + 1)), Fraction(0))
    ok = telescoped == moments[-1] - moments[0]
    return table, ok


# -- the map samplers before they built maps from positions ---------------------------
#
# Literal copies of `sampling.rand_automorphism` and `sampling.rand_parallel_map`
# from before they built their maps through `_from_images`; the parallel map
# draws its automorphisms through the copy, as it did through the library's.


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


# -- the order scans and `validate`, and the ground's integrals, as they were ------
#
# Literal copies of `diagram._closure`, `_covers`, `_derive` and `validate` from
# before the closed order was ranked once, its covers and derived pairs were
# read by set algebra, and `validate` took the constructor's up-sets and skipped
# the upper-bound scan under an element above all others; and of the
# `DyadicGround` integrals from before a piece's ends were read from its
# index.  `validate_literal` calls the library's `_cover_triples_commute` and
# `_functoriality_problems` as it did.


def up_sets_literal(elements, leq):
    above = {e: set() for e in elements}
    for i, j in leq:
        above[i].add(j)
    return above


def covers_scan_literal(above, ordered):
    return tuple(
        (i, j)
        for (i, j) in ordered
        if i != j and not any(k != i and k != j and j in above[k] for k in above[i])
    )


def closure_literal(elements, pairs):
    above = up_sets_literal(elements, itertools.chain(zip(elements, elements), pairs))
    for k in elements:
        for i in elements:
            if k in above[i]:
                above[i] |= above[k]
    return above


def derive_literal(elements, above, ordered, have):
    via, size = {}, None
    while size != len(via):
        size = len(via)
        for i, j in (p for p in ordered if p not in have):
            up = above[i]
            for k in elements:
                if k in up and j in above[k] and (i, k) in have and (k, j) in have:
                    via[(i, j)] = k
                    have.add((i, j))
                    break
    return via


def validate_literal(d):
    via = getattr(d.connect, "via", {})
    problems = []
    els = d.elements
    rank = {e: t for t, e in enumerate(els)}
    for (i, j) in sorted(d.leq, key=lambda p: (rank[p[0]], rank[p[1]])):
        if rank[i] < rank[j] and (j, i) in d.leq:
            problems.append("antisymmetry fails: %r <= %r <= %r" % (i, j, i))
    above = up_sets_literal(els, d.leq)
    for i in els:
        for j in els:
            if rank[i] < rank[j] and above[i].isdisjoint(above[j]):
                problems.append("no upper bound for %r, %r" % (i, j))
    backends = {d.spaces[e].backend for e in els}
    if len(backends) > 1:
        problems.append("mixed numeric backends across levels")
    for p in d.connect:
        if p not in d.leq:
            problems.append("connecting map for %r outside the order" % (p,))
    for (i, j) in sorted(d.leq.difference(via), key=lambda p: (rank[p[0]], rank[p[1]])):
        m = d.connect.get((i, j))
        if m is None:
            problems.append("missing connecting map for %r <= %r" % (i, j))
            continue
        if m.src != d.spaces[j] or m.dst != d.spaces[i]:
            problems.append("connecting map %r <= %r has wrong endpoints" % (i, j))
        if i == j and type(m._images) is not range and tuple(map(m.dst.atoms.__getitem__, m._images)) != m.src.atoms:
            problems.append("reflexive connect at %r is not the identity" % (i,))
    if problems or not _cover_triples_commute(d, via):
        if via:
            full = copy(d)
            full.connect = dict(d.connect)
            return validate_literal(full)
        problems.extend(_functoriality_problems(d))
    if d.top is not None:
        if d.top not in els:
            problems.append("top %r is not an element" % (d.top,))
        elif not all(d.top in above[i] for i in els):
            problems.append("top %r is not the poset maximum" % (d.top,))
    return DiagramReport(ok=not problems, problems=tuple(problems))


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


# -- the check suites, the diagram writer and the order scans, as they were --------
#
# Literal copies of `suites._record`, `naturality_suite` and `lipschitz_suite`
# from before a trial computed each kernel output once and worded only a
# failing check, of `jsonio.diagram_to_obj` and `FiltrationDiagram.chain_order`
# from before they read the constructor's ranked pairs and up-sets, and of
# `validate`'s antisymmetry and upper-bound scans from before they went by
# position.  The suites call the kernels and samplers bound in this module.


_BOUNDS = ("1/2", "1", "2", "3")


def _record_literal(check, passed, detail=""):
    check.trials += 1
    if not passed:
        check.failures += 1
        if not check.worst:
            check.worst = detail


def naturality_suite_literal(seed, trials, backend=scalar.EXACT):
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


def diagram_to_obj_literal(d):
    rank = {e: t for t, e in enumerate(d.elements)}
    pairs = sorted(
        (p for p in d.connect if p[0] != p[1]),
        key=lambda p: (rank[p[0]], rank[p[1]]),
    )
    return {
        "elements": [_atom_to_json(e) for e in d.elements],
        "leq": [
            [_atom_to_json(i), _atom_to_json(j)]
            for (i, j) in sorted(
                ((i, j) for (i, j) in d.leq if i != j),
                key=lambda p: (rank[p[0]], rank[p[1]]),
            )
        ],
        "spaces": {str(e): space_to_obj(d.spaces[e]) for e in d.elements},
        "connect": [
            {
                "lo": _atom_to_json(i),
                "hi": _atom_to_json(j),
                "assign": {str(a): _atom_to_json(b) for a, b in d.connect[(i, j)].assign.items()},
            }
            for (i, j) in pairs
        ],
        "top": None if d.top is None else _atom_to_json(d.top),
    }


def chain_order_literal(d):
    if not d.is_chain():
        raise NotAChain("the index poset is not totally ordered")
    return tuple(sorted(d.elements, key=lambda e: sum(1 for i in d.elements if d.le(i, e))))


def order_scan_problems_literal(d):
    """`validate`'s antisymmetry and upper-bound problems, in order."""
    above, ordered = d._order
    problems = []
    els = d.elements
    rank = {e: t for t, e in enumerate(els)}
    for (i, j) in ordered:
        if rank[i] < rank[j] and (j, i) in d.leq:
            problems.append("antisymmetry fails: %r <= %r <= %r" % (i, j, i))
    common = set.intersection(*above.values())
    if not common:
        for i in els:
            for j in els:
                if rank[i] < rank[j] and above[i].isdisjoint(above[j]):
                    problems.append("no upper bound for %r, %r" % (i, j))
    return problems


# -- JSON read and written by label, literals parsed per entry ---------------------
# Copies of `jsonio`'s space, map, diagram and family readers and writers from
# before they read and wrote by position: every space gets an atom tuple, every
# `assign` object goes through `_key_lookup` and `MeasurePreservingMap`, every
# writer walks a map's `assign` view.  The copies of `scalar.coerce_scaled` and
# `metcat._coerce_table` parse every string entry, repeats included.


def space_to_obj_by_label(s):
    return {
        "atoms": [_atom_to_json(a) for a in s.atoms],
        "weights": scalar.scaled_to_json(*s._scaled),
        "backend": s.backend,
        "tol": s.tol,
    }


def space_from_obj_by_label(obj, what="space"):
    raw_atoms = _need_list(obj, "atoms", what)
    weights = _need_list(obj, "weights", what)
    with _guard(what):
        atoms = [_atom_from_json(a) for a in raw_atoms]
        backend = obj.get("backend")
        if backend is None:
            backend = (
                scalar.EXACT
                if all(isinstance(w, (str, int)) for w in weights)
                else scalar.FLOAT
            )
        return FiniteProbSpace(atoms, weights, backend=backend, tol=obj.get("tol"))


def map_to_obj_by_label(m):
    return {
        "src": space_to_obj_by_label(m.src),
        "dst": space_to_obj_by_label(m.dst),
        "assign": {str(a): _atom_to_json(b) for a, b in m.assign.items()},
    }


def map_from_obj_by_label(obj, what="map"):
    src = space_from_obj_by_label(_need(obj, "src", what), what + ".src")
    dst = space_from_obj_by_label(_need(obj, "dst", what), what + ".dst")
    raw = _key_lookup(src.atoms, _need(obj, "assign", what), what + ".assign")
    with _guard(what):
        return MeasurePreservingMap(src, dst, {a: _atom_from_json(b) for a, b in raw.items()})


def diagram_to_obj_by_label(d):
    pairs = [(i, j) for i, j in d._order[1] if i != j]
    return {
        "elements": [_atom_to_json(e) for e in d.elements],
        "leq": [[_atom_to_json(i), _atom_to_json(j)] for i, j in pairs],
        "spaces": {str(e): space_to_obj_by_label(d.spaces[e]) for e in d.elements},
        "connect": [
            {
                "lo": _atom_to_json(i),
                "hi": _atom_to_json(j),
                "assign": {str(a): _atom_to_json(b) for a, b in d.connect[(i, j)].assign.items()},
            }
            for (i, j) in pairs
        ],
        "top": None if d.top is None else _atom_to_json(d.top),
    }


def diagram_from_obj_by_label(obj, what="diagram"):
    with _guard(what):
        elements = [_atom_from_json(e) for e in _need_list(obj, "elements", what)]
        spaces_raw = _key_lookup(elements, _need(obj, "spaces", what), what + ".spaces")
        spaces = {
            e: space_from_obj_by_label(spaces_raw[e], "%s.spaces[%s]" % (what, e)) for e in elements
        }
        leq = [
            (_atom_from_json(i), _atom_from_json(j))
            for i, j in _need_list(obj, "leq", what, rows=2)
        ]
        connect = {}
        for entry in _need_list(obj, "connect", what):
            i = _atom_from_json(_need(entry, "lo", what + ".connect"))
            j = _atom_from_json(_need(entry, "hi", what + ".connect"))
            if j not in spaces or i not in spaces:
                raise ParseError("%s.connect: unknown pair (%r, %r)" % (what, i, j))
            raw = _key_lookup(
                spaces[j].atoms, _need(entry, "assign", what + ".connect"), what + ".connect"
            )
            assign = {a: _atom_from_json(b) for a, b in raw.items()}
            with _guard("%s.connect (%r, %r)" % (what, i, j)):
                connect[(i, j)] = MeasurePreservingMap(spaces[j], spaces[i], assign)
        top = obj.get("top")
        top = None if top is None else _atom_from_json(top)
        return FiltrationDiagram(elements, leq, spaces, connect, top=top)


def family_to_obj_by_label(fam):
    return {
        "diagram": diagram_to_obj_by_label(fam.diagram),
        "family": {
            str(i): scalar.scaled_to_json(*fam.family[i]._scaled) for i in fam.diagram.elements
        },
        "bound": scalar.to_json(fam.bound),
    }


def _family_from_obj_by_label(obj, what, family_type, level_type):
    d = diagram_from_obj_by_label(_need(obj, "diagram", what), what + ".diagram")
    fam_raw = _key_lookup(d.elements, _need(obj, "family", what), what + ".family")
    family = {}
    for i in d.elements:
        with _guard("%s.family[%s]" % (what, i)):
            family[i] = level_type(d.spaces[i], _need_list(fam_raw, i, what + ".family"))
    with _guard(what):
        return family_type(d, family, bound=obj.get("bound"))


def martingale_from_obj_by_label(obj, what="martingale"):
    return _family_from_obj_by_label(obj, what, Martingale, FiniteRandomVariable)


def measure_family_from_obj_by_label(obj, what="measure family"):
    return _family_from_obj_by_label(obj, what, ConsistentMeasureFamily, FiniteMeasure)


def coerce_scaled_per_entry(values, backend):
    if backend != scalar.EXACT:
        return 1, tuple([scalar.coerce(v, backend) for v in values])
    pairs = [
        (v, 1) if type(v) is int else scalar.parse_ratio(v) if type(v) is str
        else (v if type(v) is Fraction else scalar.coerce(v, scalar.EXACT)).as_integer_ratio()
        for v in values
    ]
    den = math.lcm(*[d for _, d in pairs])
    return den, tuple([n * (den // d) for n, d in pairs])


def coerce_table_per_entry(dist, n, backend):
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
                    else scalar.parse_ratio(v) if type(v) is str else _coerce_dist(v, backend)
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


# -- the fold, ratios, weighting and step images before the dyadic path skipped them --
# Copies from before an exact fold used builtin `sum`, a one-den `ratios` returned
# its nums, unit weights skipped their products and step images were sorted: every
# fold is `reduce(add)` from 0, every ratio is rescaled, every term is weighted and
# a step's images are each cell twice by `zip`.


def total_fold_literal(terms):
    return functools.reduce(operator.add, terms, 0)


def ratios_rescale_literal(nums, dens, backend):
    if backend != scalar.EXACT:
        return 1, [n / d for n, d in zip(nums, dens)]
    den = math.lcm(*dens)
    return den, [n * (den // d) for n, d in zip(nums, dens)]


def cond_exp_weighted_literal(g, s):
    src, dst = s.src, s.dst
    (wden, ws), (qden, qs), (den, xs) = src._scaled, dst._scaled, g._scaled
    moment = _fiber_sums(s._images, map(mul, ws, xs), dst.size)
    over, nums = ratios_rescale_literal(moment, [q or 1 for q in qs] if dst._nulls else qs, src.backend)
    return FiniteRandomVariable._from_scaled(dst, over * den * (wden // qden), nums)


def cross_integral_weighted_literal(f, g):
    den, xs, ys = scalar.common(f._scaled, g._scaled)
    terms = map(mul, map(mul, f.space._scaled[1], xs), ys)
    return total_fold_literal(terms), f.space._scaled[0] * den * den


def step_images_literal(size):
    r = list(range(size))
    return tuple(itertools.chain.from_iterable(zip(r, r)))
