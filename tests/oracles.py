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
helpers as they did.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from catprob import scalar
from catprob.diagram import is_martingale
from catprob.errors import (
    DomainMismatch,
    IndexMismatch,
    Inconsistent,
    NegativeValue,
    NotAbsolutelyContinuous,
    NotLipschitz,
    NotMeasurePreserving,
    SpaceMismatch,
)
from catprob.finmeas import FiniteMeasure, _density_bound, bound_check, pushforward, tv_distance
from catprob.finprob import FiniteProbSpace, compose, identity_map
from catprob.finrv import FiniteRandomVariable, max_value
from catprob.metcat import FinPseudometricSpace, _partition, tensor


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
