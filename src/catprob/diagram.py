"""Filtration diagrams of finite quotient spaces and the martingale engine.

A diagram is a finite directed poset of spaces with compatible connecting
maps (finer level -> coarser level).  An optional designated top element is
the master space and the poset maximum; its maps to the levels induce
martingales by conditional expectation, and the engine inverts that
construction: reading the top-level data off a consistent family (martingale
limit / measure extension), as an exact family's construction proved it or,
on floats, after checking it against every level, certifying
convergence through second-moment gaps, and running the dyadic ground-truth
experiments where every quantity has a closed form.  Every diagram and
family is validated when it is built.
"""
from __future__ import annotations

from collections.abc import Mapping
from contextlib import suppress
from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import floor, lcm
from operator import sub
from types import MappingProxyType

from . import scalar
from .errors import (
    BadSegments,
    DepthTooLarge,
    DiagramMismatch,
    DomainMismatch,
    Inconsistent,
    IndexMismatch,
    InvalidDiagram,
    InvariantViolation,
    NegativeValue,
    NoCertificate,
    NoTopElement,
    NotAChain,
    SpaceMismatch,
)
from .finmeas import FiniteMeasure, _density_bound, bound_check, pushforward, rn_derivative, tv_distance
from .finprob import FiniteProbSpace, MeasurePreservingMap, _given, _then, compose, identity_map, uniform_space
from .finrv import (
    FiniteRandomVariable,
    _AtomTable,
    _cross_integral,
    _cross_moment,
    _mean_square_diff,
    cond_exp,
    l1_distance,
    max_value,
    pullback,
    second_moment,
)
from .scalar import EXACT

#: Depth guard for the dyadic engine (2^depth atoms): `catprob martingale
#: --ground tent` at depth 18, through `cli.main`, takes 0.51-0.54 s and 88 MB
#: peak RSS on 2 CPUs (Python 3.11.7), against 0.18-0.19 s and 52 MB at depth 17.
MAX_DYADIC_DEPTH = 18


def _covers(above, ordered):
    """The pairs i < j of `ordered` with nothing strictly between, in its
    order: j is strictly above i and above no k strictly above i."""
    strict = {i: up - {i} for i, up in above.items()}
    between = {i: set().union(*map(strict.__getitem__, up)) for i, up in strict.items()}
    return tuple([(i, j) for i, j in ordered if j in strict[i] and j not in between[i]])


def _closure(elements, pairs):
    """The reflexive-transitive closure of the order pairs as up-sets (each
    element -> the set of elements above it): one Warshall pass over k."""
    above = {e: {e} for e in elements}
    for i, j in pairs:
        above[i].add(j)
    for k in elements:
        up = above[k]
        for s in above.values():
            if k in s:
                s |= up
    return above


def _derive(elements, ordered, have):
    """`via` of `_Connect`: each pair (i, j) of `ordered` not in `have`, derived through
    the first k of `elements` with (i, k) and (k, j) in the order and at hand (in
    `have`, or derived before), sweeping the pairs left until a sweep derives none."""
    ups, downs = {e: set() for e in elements}, {e: set() for e in elements}  # the pairs at hand
    for i, j in have.intersection(ordered):
        ups[i].add(j)
        downs[j].add(i)
    via, size, left = {}, None, [p for p in ordered if p not in have]
    while size != len(via):
        size, left = len(via), [p for p in left if p not in via]
        for i, j in left:
            ks = ups[i] & downs[j]
            if ks:
                via[(i, j)] = ks.pop() if len(ks) == 1 else min(ks, key=elements.index)
                ups[i].add(j)
                downs[j].add(i)
    return via


class _Connect(Mapping):
    """Read-only connecting maps: the given ones and identities, then each pair
    (i, k) of `via`, in its order, built on first read as f_il . f_lk through
    l = via[(i, k)] and kept."""

    __slots__ = ("_maps", "via", "_keys")

    def __init__(self, maps, via):
        self._maps, self.via, self._keys = maps, via, (*maps, *via)

    def __getitem__(self, p):
        try:
            return self._maps[p]
        except KeyError:
            (i, k), l = p, self.via[p]
            m = self._maps[p] = compose(self[(l, k)], self[(i, l)])
            return m

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def _composes_exactly(d):
    """Whether `d`'s paths compose exactly: those of an exact diagram do."""
    return d.backend == EXACT


class FiltrationDiagram:
    """Poset of finite spaces with connecting maps f_ij: space_j -> space_i.

    `leq` may be any generating set of order pairs; the reflexive-transitive
    closure is taken.  `connect`, a read-only `_Connect` on both backends, may
    omit composite and reflexive pairs: identities fill the reflexive ones, and
    each composite is derived (`connect.via`) and built on first read, on floats
    at once, as `compose` re-checks drift.  `spaces` is read-only too.  `backend`
    is that of the first element's space and `tol` the largest tolerance over the levels.
    `covers` holds the covering pairs of the closed order, computed once in
    rank order; functoriality on them implies it on every triple (see
    `validate`), and the martingale and measure checks walk them.  Elements
    are distinct.  `_order` holds the up-sets of the closed order and its
    pairs ranked by the elements' positions, the one ranking that `validate`
    and `chain_order` read; `jsonio` writes a diagram by its covers.
    """

    __slots__ = ("elements", "leq", "spaces", "connect", "top", "backend", "tol", "covers", "_order")

    def __init__(self, elements, leq, spaces, connect, top=None):
        try:
            elements, leq = tuple(elements), tuple(leq)
            pairs = [(i, j) for i, j in leq]
            hash(elements)  # every element is a dict key
        except (TypeError, ValueError):  # not iterable, an unhashable element, or not pairs
            raise InvalidDiagram("a diagram takes hashable elements and (i, j) order pairs") from None
        if not elements:
            raise InvalidDiagram("a diagram needs at least one element")
        if len(set(elements)) != len(elements):
            raise InvalidDiagram("repeated elements in %r" % (elements,))
        stray = [p for p, (i, j) in zip(leq, pairs) if i not in elements or j not in elements]
        if stray:
            raise InvalidDiagram("order pairs name non-elements: %r" % (stray[:4],))
        above = _closure(elements, pairs)
        ordered = [(i, j) for i in elements for j in elements if j in above[i]]  # ranked by position
        self.elements, self.leq, self._order = elements, frozenset(ordered), (above, ordered)
        try:
            missing = [e for e in elements if not (e in spaces and isinstance(spaces[e], FiniteProbSpace))]
            table = dict(connect)
        except (TypeError, ValueError):  # not mappings
            raise InvalidDiagram("a diagram takes mappings of spaces and of maps") from None
        if missing:
            raise InvalidDiagram("no space for elements %r" % (missing[:4],))
        self.spaces = MappingProxyType({e: spaces[e] for e in elements})
        self.backend = self.spaces[elements[0]].backend
        self.tol = max(self.spaces[e].tol for e in elements)
        bad = [p for p, m in table.items() if not isinstance(m, MeasurePreservingMap)]
        if bad:
            raise InvalidDiagram("connect holds no MeasurePreservingMap for %r" % (bad[:4],))
        for e in elements:
            if (e, e) not in table:
                table[(e, e)] = identity_map(self.spaces[e])
        self.covers = _covers(above, ordered)
        self.connect = _Connect(table, _derive(elements, ordered, set(table)))
        if self.backend != EXACT:  # build now: `compose` re-checks floats, as drift adds up
            list(map(self.connect.__getitem__, self.connect.via))
        self.top = top
        report = validate(self)
        if not report.ok:
            raise InvalidDiagram("; ".join(report.problems[:6]), problems=report.problems)

    @classmethod
    def chain(cls, spaces_list, step_maps, labels=None, top=True):
        """Chain diagram: spaces coarse to fine, step_maps[t]: level t+1 -> level t."""
        try:
            n, steps = len(spaces_list), len(step_maps)
            labels = tuple(range(n) if labels is None else labels)
        except TypeError:  # a non-sequence
            raise InvalidDiagram("a chain takes sequences of spaces, step maps and labels") from None
        if len(labels) != n:
            raise InvalidDiagram("%d labels for %d spaces" % (len(labels), n))
        if steps != n - 1:
            raise InvalidDiagram("a chain of %d spaces needs %d step maps" % (n, n - 1))
        leq = list(zip(labels, labels[1:]))
        top = labels[-1] if top else None
        return cls(labels, leq, dict(zip(labels, spaces_list)), dict(zip(leq, step_maps)), top=top)

    def le(self, i, j):
        return (i, j) in self.leq

    def covering_pairs(self):
        """Pairs i < j with nothing strictly between, in rank order."""
        return self.covers

    def maximum(self):
        return next((m for m in self.elements if all(m in up for up in self._order[0].values())), None)

    def is_chain(self):
        # an antisymmetric order is total when it holds every pair of its k elements
        return 2 * len(self.leq) == len(self._order[0]) * (len(self._order[0]) + 1)

    def chain_order(self):
        if not self.is_chain():
            raise NotAChain("the index poset is not totally ordered")
        return tuple(sorted(self.elements, key=lambda e: -len(self._order[0][e])))  # fewer above, later

    def to_top(self, i):
        """The map f_i from the master space onto level i."""
        if self.top is None:
            raise NoTopElement("diagram has no designated top element")
        return self.connect[(i, self.top)]

    def __eq__(self, other):
        if not isinstance(other, FiltrationDiagram):
            return NotImplemented
        return (
            self.elements == other.elements
            and self.leq == other.leq
            and self.spaces == other.spaces
            and self.top == other.top
            # on a valid diagram the covering maps fix every other map
            and all(self.connect[p] == other.connect[p] for p in self.covers)
        )

    def __repr__(self):
        return "FiltrationDiagram(elements=%r, top=%r)" % (self.elements, self.top)


@dataclass
class DiagramReport:
    ok: bool
    problems: tuple


def validate(d):
    """Report every violated diagram invariant; empty problem list means valid.

    Functoriality, f_ik = f_ij . f_jk for every triple i <= j <= k, is
    decided on the cover triples (i, l, k): each covering pair (l, k) and
    each i < l.  Given a partial order, a map with the right endpoints for
    every pair and identities on the diagonal, they imply every triple, by
    induction on the length of j..k.  A triple with i = j or j = k holds by
    the identities, and one with (j, k) covering is a cover triple.
    Otherwise pick a covering pair (l, k) with j < l: the shorter triple
    (i, j, l) and the cover triples (i, l, k) and (j, l, k) give
    f_ik = f_il . f_lk = f_ij . f_jl . f_lk = f_ij . f_jk.  A composite
    derived (`d.connect.via`, on both backends) as f_il . f_lk has its factors'
    endpoints, and its triple (i, l, k) holds by construction, so neither is
    checked: a chain given by its steps has no triple left.  When a check or
    a cover triple fails, every triple of the whole table is scanned atom by
    atom, so the problems are those of a full scan.  Under an element above
    all others every pair has an upper bound, and none is scanned for.
    """
    _given(FiltrationDiagram, ("d", d))
    above, ordered = d._order
    via = getattr(d.connect, "via", {})  # the rescan's plain mapping derives nothing
    problems = []
    els = d.elements
    # order axioms (closure gives reflexivity and transitivity for free)
    for i, j in combinations(els, 2):  # by position
        if j in above[i] and i in above[j]:
            problems.append("antisymmetry fails: %r <= %r <= %r" % (i, j, i))
    common = set.intersection(*above.values())  # the elements above all others
    if not common:
        for i, j in combinations(els, 2):
            if above[i].isdisjoint(above[j]):
                problems.append("no upper bound for %r, %r" % (i, j))
    backends = {d.spaces[e].backend for e in els}
    if len(backends) > 1:
        problems.append("mixed numeric backends across levels")
    # connect coverage and endpoints
    for p in d.connect:
        if p not in d.leq:
            problems.append("connecting map for %r outside the order" % (p,))
    for (i, j) in [p for p in ordered if p not in via]:
        m = d.connect.get((i, j))
        if m is None:
            problems.append("missing connecting map for %r <= %r" % (i, j))
            continue
        if m.src != d.spaces[j] or m.dst != d.spaces[i]:
            problems.append("connecting map %r <= %r has wrong endpoints" % (i, j))
        # a range is an identity's own image positions
        if i == j and type(m._images) is not range and _then(m._images, m.dst.atoms) != m.src.atoms:
            problems.append("reflexive connect at %r is not the identity" % (i,))
    # the cover triples' proof needs every check above to have passed
    if problems or not _cover_triples_commute(d, via):
        if via:  # report on the whole table; `dict` builds each composite in `via` order
            full = copy(d)
            full.connect = dict(d.connect)
            return validate(full)
        problems.extend(_functoriality_problems(d))
    if d.top is not None:
        if d.top not in els:
            problems.append("top %r is not an element" % (d.top,))
        elif d.top not in common:
            problems.append("top %r is not the poset maximum" % (d.top,))
    return DiagramReport(ok=not problems, problems=tuple(problems))


def _cover_triples_commute(d, via):
    """Whether f_ik = f_il . f_lk on every atom of k, for each covering pair
    (l, k) and each i < l with f_ik not derived through l, comparing whole
    tuples of image positions (the endpoints are checked, so they line up);
    f_lk is read only when such an i is left."""
    connect = d.connect
    for l, k in d.covers:
        down = None
        for i in d.elements:
            # skip an f_ik derived as f_il . f_lk (a given one reads as k, never l)
            if i != l and (i, l) in d.leq and via.get((i, k), k) != l:
                if down is None:
                    down = connect[(l, k)]._images
                if _then(down, connect[(i, l)]._images) != tuple(connect[(i, k)]._images):
                    return False
    return True


def _functoriality_problems(d):
    """The first failing atom of every triple i <= j <= k, atom by atom."""
    problems = []
    els, get = d.elements, d.connect.get
    for i, j, k in ((i, j, k) for i in els for j in els if d.le(i, j) for k in els if d.le(j, k)):
        mij, mjk, mik = get((i, j)), get((j, k)), get((i, k))
        if mij is None or mjk is None or mik is None:
            continue
        with suppress(KeyError):  # a map with wrong endpoints, reported as such, is skipped
            for a in d.spaces[k].atoms:
                if mik.assign[a] != mij.assign[mjk.assign[a]]:
                    problems.append("functoriality fails at %r <= %r <= %r on atom %r" % (i, j, k, a))
                    break
    return problems


# -- martingales -------------------------------------------------------------------


def _same_form(x, y):
    """Whether two tables on one space hold equal scaled forms.  Every form is
    canonical (lowest terms, nulls at 0, floats over 1), so equal forms are
    equal values and their l1 or tv distance is exactly 0, on floats too."""
    return x._scaled == y._scaled


@dataclass
class MartingaleCheck:
    ok: bool
    residual: object
    worst_pair: object


def is_martingale(family, d):
    """Check the consistency condition on all covering pairs.

    Transitivity plus the tower property extends the check to every pair, so
    covering pairs suffice on a validated diagram.  Returns the maximal
    residual l1(E[X_j | f_ij], X_i) and the pair attaining it.  A pair whose
    two scaled forms are equal has residual 0 (`_same_form`), so only a pair
    that differs computes it.
    """
    _given(FiltrationDiagram, ("d", d))
    if not isinstance(family, Mapping) or set(family) != set(d.elements):
        raise IndexMismatch("family is not indexed by the diagram's elements")
    for i in d.elements:
        if not isinstance(family[i], _AtomTable):  # worded as `_LevelFamily._setup` words it
            kind = type(family[i]).__name__
            raise SpaceMismatch("family member at %r is a %s, not an atom table" % (i, kind))
        if family[i].space != d.spaces[i]:
            raise SpaceMismatch("family member at %r lives on the wrong space" % (i,))
    zero = scalar.zero(d.backend)
    residual, worst = zero, None
    for (i, j) in d.covers:
        projected = cond_exp(family[j], d.connect[(i, j)])
        if _same_form(projected, family[i]):
            continue
        r = l1_distance(projected, family[i])
        if r > residual:
            residual, worst = r, (i, j)
    return MartingaleCheck(ok=scalar.eq(residual, zero, d.tol), residual=residual, worst_pair=worst)


class _LevelFamily:
    """Level-indexed values (read-only) over a diagram, all below one bound.

    Martingales (random variables under conditional expectation) and
    consistent measure families (measures under pushforward) are the two
    sides of the density isomorphism and share this one construction.  Each
    subclass passes its level type and its peak (`max_value`, `_density_bound`)
    to `_setup` and runs its own checks, in its own order, in its own `__init__`.
    """

    __slots__ = ("diagram", "family", "bound")

    def _setup(self, diagram, family, bound, peak, level):
        """Store and return the read-only family and its bound (max `peak` if None)."""
        _given(FiltrationDiagram, ("diagram", diagram))
        if not isinstance(family, Mapping) or set(family) != set(diagram.elements):
            raise IndexMismatch("family is not indexed by the diagram's elements")
        family = MappingProxyType({i: family[i] for i in diagram.elements})
        for i in diagram.elements:  # a member of the other side, or no table, has no peak
            if not isinstance(family[i], level):
                kind = type(family[i]).__name__
                raise SpaceMismatch("family member at %r is a %s, not a %s" % (i, kind, level.__name__))
        if bound is None:
            bound = max(peak(family[i]) for i in diagram.elements)
        else:
            bound = scalar.coerce(bound, diagram.backend)
        if bound < 0:
            raise NegativeValue("bound must be nonnegative")
        self.diagram, self.family, self.bound = diagram, family, bound
        return family, bound

    def level(self, i):
        return self.family[i]

    def __repr__(self):
        return "%s(levels=%r, bound=%s)" % (type(self).__name__, list(self.family), self.bound)


class Martingale(_LevelFamily):
    """Level-indexed random variables (read-only), consistent under conditional expectation."""

    __slots__ = ()

    def __init__(self, diagram, family, bound=None):
        family, bound = self._setup(diagram, family, bound, max_value, FiniteRandomVariable)
        bden, (bnum,) = scalar.scaled([bound], diagram.backend)
        for i in diagram.elements:
            den, nums = family[i]._scaled
            # max / den <= bnum / bden, cross-multiplied (both dens are 1 on floats)
            if not scalar.le(max(nums) * bden, bnum * den, diagram.tol):
                raise Inconsistent("level %r exceeds the bound %s" % (i, bound), level=i)
        chk = is_martingale(family, diagram)
        if not chk.ok:
            msg = "consistency fails at %r with residual %s" % (chk.worst_pair, chk.residual)
            raise Inconsistent(msg, pair=chk.worst_pair, residual=chk.residual)


class ConsistentMeasureFamily(_LevelFamily):
    """Level-indexed measures (read-only), consistent under pushforward, all below bound*P."""

    __slots__ = ()

    def __init__(self, diagram, family, bound=None):
        family, bound = self._setup(diagram, family, bound, _density_bound, FiniteMeasure)
        for i in diagram.elements:
            if family[i].space != diagram.spaces[i]:
                raise SpaceMismatch("family member at %r lives on the wrong space" % (i,))
            if not bound_check(family[i], bound):
                raise Inconsistent("level %r exceeds bound * base weights" % (i,), level=i)
        for (i, j) in diagram.covers:
            pushed = pushforward(family[j], diagram.connect[(i, j)])
            if _same_form(pushed, family[i]):
                continue
            gap = tv_distance(pushed, family[i])
            if not scalar.eq(gap, scalar.zero(diagram.backend), diagram.tol):
                msg = "restriction fails at %r <= %r with residual %s" % (i, j, gap)
                raise Inconsistent(msg, pair=(i, j), residual=gap)


def _levels_from_top(top, d, project, what, noun):
    """Every level's image of a top-level value: level i is project(top, f_i),
    and the top's own is the top where paths compose exactly (E[x | id] = x,
    id_*mu = mu); a float (w * x) / w need not give back x's bits."""
    _given(FiltrationDiagram, ("d", d))
    if d.top is None:
        raise NoTopElement("%s needs a designated top element" % what)
    if top.space != d.spaces[d.top]:
        raise SpaceMismatch("%s does not live on the top space" % noun)
    exact = _composes_exactly(d)
    return {i: top if exact and i == d.top else project(top, d.to_top(i)) for i in d.elements}


def induced_martingale(x, d, bound=None):
    """Condition a top-level random variable down every level: X_i = E[X | f_i]."""
    _given(FiniteRandomVariable, ("x", x))
    family = _levels_from_top(x, d, cond_exp, "induced martingale", "random variable")
    return Martingale(d, family, bound=max_value(x) if bound is None else bound)


def restrict_measure(mu, d, bound=None):
    """Push a top-level measure onto every level: the induced consistent family."""
    _given(FiniteMeasure, ("mu", mu))
    family = _levels_from_top(mu, d, pushforward, "restriction", "measure")
    return ConsistentMeasureFamily(d, family, bound=bound)


def second_moment_gap(m, i, j):
    """E[X_j^2] - E[X_i^2], cross-checked against E[(X_j - X_i o f_ij)^2].

    The two agree exactly for martingales and the gap is nonnegative; both
    facts are verified here rather than assumed.
    """
    d = m.diagram
    if not d.le(i, j):
        raise IndexMismatch("%r <= %r does not hold in the index poset" % (i, j))
    xi, xj = m.family[i], m.family[j]
    gap = second_moment(xj) - second_moment(xi)
    lifted = pullback(xi, d.connect[(i, j)])
    cross = _mean_square_diff(xj, lifted)
    tol = max(xi.space.tol, xj.space.tol)
    if not scalar.eq(gap, cross, tol):
        raise InvariantViolation(
            "second-moment gap %s differs from mean-square increment %s" % (gap, cross)
        )
    if not scalar.le(xj.space.zero, gap, tol):
        raise InvariantViolation("second-moment gap %s is negative" % (gap,))
    return gap


@dataclass
class CauchyCertificate:
    index: object
    #: (level, second moment, remaining gap toward the cap) per chain level
    table: tuple
    cap: object


def cauchy_certificate(m, eps):
    """Least chain index from which all later second-moment gaps are below eps^2.

    A gap bound of eps^2 certifies l1 closeness eps between the level and any
    finer level (the mean-square increment dominates the squared l1 distance).
    With a designated top the cap is the realized limit's second moment; on a
    topless chain only the r^2 bound from X <= r is available, and if even the
    last level leaves a larger tail the certificate honestly fails.
    """
    d = m.diagram
    order = d.chain_order()
    eps = scalar.coerce(eps, d.backend)
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    moments = [(i, second_moment(m.family[i])) for i in order]
    if d.top is not None:
        cap = moments[-1][1]
    else:
        cap = m.bound * m.bound
    table = tuple((i, g, cap - g) for i, g in moments)
    target = eps * eps
    for i, g in moments:
        if scalar.le(cap - g, target, d.tol):
            return CauchyCertificate(index=i, table=table, cap=cap)
    tail = cap - moments[-1][1]
    raise NoCertificate(
        "tail gap %s exceeds eps^2 = %s" % (tail, target), tail_gap=tail
    )


def _top_level(fam, kind, project, distance, what, miss):
    """The family's top level.  A constructed `kind` (the side of `project`)
    whose paths compose exactly returns it as construction proved it: its covers hold at tol 0,
    `validate` proved functoriality, and the tower property carries the
    covers to every path.  Any other family's top image on every level
    (`_levels_from_top`) must be the family's level within the diagram's tol;
    a level with an equal form (`_same_form`) computes no distance."""
    try:
        d = fam.diagram
        top = fam.family.get(d.top)  # None without a top, and then _levels_from_top raises
    except AttributeError:  # tested only once a read fails, so a valid call pays nothing
        _given(kind, ("family", fam))
        raise
    if d.top is not None and isinstance(fam, kind) and _composes_exactly(d):
        return top
    for i, level in _levels_from_top(top, d, project, what, None).items():
        if _same_form(level, fam.family[i]):
            continue
        gap = distance(level, fam.family[i])
        if not scalar.eq(gap, top.space.zero, d.tol):
            raise Inconsistent("%s misses level %r by %s" % (miss, i, gap), level=i, residual=gap)
    return top


def martingale_limit(m):
    """The unique top-level random variable inducing the martingale: its top level.

    Requires a designated top.  An exact `Martingale` returns it as its
    construction proved it.  Otherwise the top level is conditioned down onto
    every level and compared with the family there: on the float backend the
    constructor's covering-pair check lets drift add up along a path.
    """
    return _top_level(m, Martingale, cond_exp, l1_distance, "martingale limit", "reconstructed limit")


def kolmogorov_extend(fam):
    """The unique top-level measure restricting to every level: the family's top level.

    An exact `ConsistentMeasureFamily` returns it as construction proved it;
    otherwise the top level is pushed onto every level and compared there.
    """
    return _top_level(fam, ConsistentMeasureFamily, pushforward, tv_distance, "extension", "extension")


def rn_family(fam):
    """Levelwise densities of a consistent measure family form a martingale."""
    family = {i: rn_derivative(fam.family[i]) for i in fam.diagram.elements}
    return Martingale(fam.diagram, family, bound=fam.bound)


@dataclass
class IsometryReport:
    sup_levels: object
    limit_distance: object
    tail_bound: object
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self):
        return self.lower_ok and self.upper_ok


def isometry_report(m1, m2, x1, x2, finest_map=None):
    """Compare the level-sup distance of two martingales with their limits' distance.

    s = max over levels of l1(X_i, Y_i) and d = l1(X, Y) satisfy s <= d, and
    d - s is bounded by how far each limit sits from its own finest-level
    conditional expectation.  When the limits live on the diagram's top the
    finest level is top itself, the bound is zero, and s = d exactly; when
    they live on a strictly finer space, pass `finest_map` from that space
    onto the diagram's finest level.
    """
    if m1.diagram != m2.diagram:
        raise DiagramMismatch("martingales live over different diagrams")
    if x1.space != x2.space:
        raise SpaceMismatch("limit candidates live on different spaces")
    d = m1.diagram
    sup = x1.space.zero
    for i in d.elements:
        v = l1_distance(m1.family[i], m2.family[i])
        if v > sup:
            sup = v
    dist = l1_distance(x1, x2)
    if finest_map is None:
        if d.top is None or x1.space != d.spaces[d.top]:
            raise DomainMismatch(
                "limits do not live on the diagram's top; pass finest_map explicitly"
            )
        finest_map = d.connect[(d.top, d.top)]
    else:
        if finest_map.src != x1.space or finest_map.dst != d.spaces[d.maximum()]:
            raise DomainMismatch("finest_map must send the limits' space onto the finest level")
    bound = x1.space.zero
    for x in (x1, x2):
        bound += l1_distance(x, pullback(cond_exp(x, finest_map), finest_map))
    tol = max(x1.space.tol, d.tol)
    return IsometryReport(
        sup_levels=sup,
        limit_distance=dist,
        tail_bound=bound,
        lower_ok=scalar.le(sup, dist, tol),
        upper_ok=scalar.le(dist, sup + bound, tol),
    )


# -- dyadic ground truth ---------------------------------------------------------


class DyadicGround:
    """Piecewise-affine nonnegative function on [0,1] with rational breakpoints.

    Every integral used by the engine (interval averages, absolute-error
    integrals, second moments) has a closed form in exact rationals, so the
    dyadic experiments are oracle-grade: no quadrature error anywhere.
    Breakpoints, values and arguments are exact scalars (`scalar.coerce`):
    ints, Fractions and "num/den" strings, never bools or floats.
    """

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints, values):
        for what, xs in (("breakpoints", breakpoints), ("values", values)):
            if isinstance(xs, str) or not hasattr(xs, "__iter__"):
                raise BadSegments("%s must be a list, not %r" % (what, xs))
        bps = tuple([scalar.coerce(b, EXACT) for b in breakpoints])
        vals = tuple([scalar.coerce(v, EXACT) for v in values])
        if len(bps) < 2 or len(vals) != len(bps):
            raise BadSegments("need n >= 2 breakpoints with one value each")
        if bps[0] != 0 or bps[-1] != 1:
            raise BadSegments("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise BadSegments("breakpoints must be strictly increasing")
        if any(v < 0 for v in vals):
            raise NegativeValue("ground function values must be nonnegative")
        self.breakpoints = bps
        self.values = vals

    @classmethod
    def affine(cls, v0, v1):
        return cls([0, 1], [v0, v1])

    @classmethod
    def constant(cls, c):
        return cls([0, 1], [c, c])

    def bound(self):
        """Least r with f <= r (affine pieces peak at breakpoints)."""
        return max(self.values)

    def value_at(self, x):
        x = scalar.coerce(x, EXACT)
        bps, vals = self.breakpoints, self.values
        for t in range(len(bps) - 1):
            if bps[t] <= x <= bps[t + 1]:
                lo, hi = bps[t], bps[t + 1]
                return vals[t] + (vals[t + 1] - vals[t]) * (x - lo) / (hi - lo)
        raise ValueError("argument %s outside [0,1]" % (x,))

    def _pieces(self, lo, hi):
        """Affine pieces covering [lo,hi]: (a, b, f(a), f(b)) per piece, with f
        read at a breakpoint inside from `values`."""
        bps, vals = self.breakpoints, self.values
        inner = [t for t in range(1, len(bps) - 1) if lo < bps[t] < hi]
        cuts = [lo, *[bps[t] for t in inner], hi]
        ends = [self.value_at(lo), *[vals[t] for t in inner], self.value_at(hi)]
        return list(zip(cuts, cuts[1:], ends, ends[1:]))

    def integral(self, lo, hi):
        """Exact integral of f over [lo,hi] (sum of trapezoids)."""
        lo, hi = scalar.coerce(lo, EXACT), scalar.coerce(hi, EXACT)
        total = Fraction(0)
        for a, b, fa, fb in self._pieces(lo, hi):
            total += (b - a) * (fa + fb) / 2
        return total

    def interval_average(self, lo, hi):
        lo, hi = scalar.coerce(lo, EXACT), scalar.coerce(hi, EXACT)
        return self.integral(lo, hi) / (hi - lo)

    def abs_dev_integral(self, lo, hi, c):
        """Exact integral of |f - c| over [lo,hi], splitting each piece at its root, on ints."""
        lo, hi, c = scalar.coerce(lo, EXACT), scalar.coerce(hi, EXACT), scalar.coerce(c, EXACT)
        (cn, cd), total = c.as_integer_ratio(), Fraction(0)
        for a, b, fa, fb in self._pieces(lo, hi):  # f - c is ea / e at a and eb / e at b
            (an, ad), (bn, bd) = fa.as_integer_ratio(), fb.as_integer_ratio()
            (hn, hd), e = (b - a).as_integer_ratio(), lcm(ad, bd, cd)
            ea, eb = an * (e // ad) - cn * (e // cd), bn * (e // bd) - cn * (e // cd)
            if ea * eb >= 0:
                total += Fraction(abs(ea + eb) * hn, 2 * e * hd)
            else:  # two triangles, of widths (b - a)|ea| / |ea - eb| and (b - a)|eb| / |ea - eb|
                total += Fraction((ea * ea + eb * eb) * hn, 2 * e * hd * abs(ea - eb))
        return total


def dyadic_space(depth):
    """2^depth equal-weight atoms labeled 0..2^depth-1."""
    return uniform_space(1 << depth)


def _dyadic_tables(ground, depth):
    """Every level's cell averages and exact l1 error, from one breakpoint walk.

    The prefix integral F is quadratic in the finest grid index k on each
    piece, so one walk gives every F(k/2^depth) as ints over one denominator,
    and a level's averages are differences of F on its own grid, kept as a
    scaled form (den, nums) for `FiniteRandomVariable._from_scaled`.  A cell of
    width h inside a piece of slope s adds h|f(b) - f(a)|/4 = |s|h^2/4 to the
    l1 error; only cells a breakpoint splits go through `abs_dev_integral`.
    Each piece's ends and |slope| are read as ints once, so a level counts its
    inside cells by int floor division and sums their error over one den: one
    Fraction per level, besides the split cells'.
    """
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
    den = lcm(*(c.denominator for *_, coeffs in pieces for c in coeffs))
    prefix = []  # den * F(k/n); a grid point on a breakpoint goes to the left piece
    for a, b, s, coeffs in pieces:
        c0, c1, c2 = (c.numerator * (den // c.denominator) for c in coeffs)
        prefix.extend(c0 + k * (c1 + k * c2) for k in range(len(prefix), floor(b * n) + 1))
    # per piece: its ends a = an/ad, b = bn/bd, and |slope| over one den
    ends = [(a.numerator, a.denominator, b.numerator, b.denominator) for a, b, _, _ in pieces]
    sden = lcm(*(s.denominator for _, _, s, _ in pieces))
    slopes = [abs(s.numerator) * (sden // s.denominator) for _, _, s, _ in pieces]
    inner = [(b.numerator, b.denominator) for b in bps[1:-1]]
    levels, errors = [], []
    for t in range(depth + 1):
        m, grid = 1 << t, prefix[:: n >> t]
        averages = [(hi - lo) * m for lo, hi in zip(grid, grid[1:])]  # over den
        # cells inside a piece: floor(b m) - ceil(a m), by int floor division
        cells = [bn * m // bd + -an * m // ad for an, ad, bn, bd in ends]
        total = Fraction(sum([s * c for s, c in zip(slopes, cells) if c > 0]), sden * 4 * m * m)
        for j in sorted({bn * m // bd for bn, bd in inner if bn * m % bd}):  # split cells
            lo, hi = Fraction(j, m), Fraction(j + 1, m)
            total += ground.abs_dev_integral(lo, hi, Fraction(averages[j], den))
        levels.append((den, averages))
        errors.append(total)
    return levels, errors


def dyadic_experiment(ground, depth):
    """`make_dyadic`'s diagram and martingale, and `dyadic_error` at every
    level 0..depth, from one pass of the dyadic engine."""
    if not isinstance(ground, DyadicGround):
        raise BadSegments("ground must be a DyadicGround")
    levels, errors = _dyadic_tables(ground, depth)
    spaces = [dyadic_space(t) for t in range(depth + 1)]
    # atom j of level t + 1 lies in cell j >> 1, so a step's images are the cells
    # 0, 0, 1, 1, ...: each cell twice, sorted; every level's share one list's ints
    cells = list(range(1 << depth >> 1))
    steps = [
        MeasurePreservingMap._from_images(fine, s, tuple(sorted(r * 2)))
        for s, fine in zip(spaces, spaces[1:])
        for r in [cells[: s.size]]
    ]
    diagram = FiltrationDiagram.chain(spaces, steps, top=True)
    family = {t: FiniteRandomVariable._from_scaled(spaces[t], *levels[t]) for t in range(depth + 1)}
    return diagram, Martingale(diagram, family, bound=ground.bound()), errors


def dyadic_report(ground, depth):
    """`catprob martingale`'s rows and check, from one pass of the dyadic engine.

    Per level t: (t, l1 error, second moment, its gap over level t - 1, 0 at
    t = 0), each as `scalar.to_json` writes it, and whether the gaps
    telescope to the last moment minus the first.  The moments are read as
    scaled pairs (`_cross_integral`, what `second_moment` divides out) and put
    over one den, so the gaps and the check are int arithmetic."""
    _, m, errors = dyadic_experiment(ground, depth)
    moments = [_cross_integral(x, x) for x in m.family.values()]
    den = lcm(*[d for _, d in moments])
    nums = [n * (den // d) for n, d in moments]
    gaps = [0] + list(map(sub, nums[1:], nums))
    ok = sum(gaps) == nums[-1] - nums[0]
    texts = scalar.scaled_to_json(den, nums), scalar.scaled_to_json(den, gaps)
    return list(zip(range(depth + 1), map(scalar.to_json, errors), *texts)), ok


def make_dyadic(ground, depth):
    """Chain of dyadic quotients 0..depth with the ground function's averages.

    Level t has 2^t atoms; the step map halves indices; the martingale level
    t value at atom j is the exact average of the ground function over
    [j/2^t, (j+1)/2^t].  The top is the finest level.  All levels come from
    one breakpoint walk (the exact prefix integral on the finest grid).
    """
    return dyadic_experiment(ground, depth)[:2]


def dyadic_error(ground, depth):
    """Exact l1 distance between the ground function and its depth-n averages,
    from the same one-pass engine: a cell inside one affine piece contributes
    h|f(b) - f(a)|/4, and only cells a breakpoint splits are integrated."""
    return _dyadic_tables(ground, depth)[1][depth]


# -- second-moment identity suite ---------------------------------------------------


@dataclass
class SecondMomentIdentities:
    product_expansion: bool
    cross_moment: bool
    square_expansion: bool
    moment_values: bool
    moment_monotone: bool
    gap_identity: bool
    fine_moment: object
    coarse_moment: object
    mean_square_increment: object

    @property
    def ok(self):
        return all(holds for _, holds in self.items())

    def items(self):
        return (
            ("product-expansion", self.product_expansion),
            ("cross-moment", self.cross_moment),
            ("square-expansion", self.square_expansion),
            ("moment-values", self.moment_values),
            ("moment-monotone", self.moment_monotone),
            ("gap-identity", self.gap_identity),
        )


def second_moment_identity_report(x, fine, coarse, step):
    """Verify the six second-moment identities for one commuting triangle.

    `fine` and `coarse` share x's space as source, `step` closes the triangle
    (step o fine = coarse, checked).  With c_f = E[x|fine] and c_g = E[x|coarse]
    lifted back to the source, the identities relate their products, squares,
    expectations, and the gap E[(lift_f)^2] - E[(lift_g)^2] to the mean-square
    increment.  Pointwise statements are checked on positive-weight atoms
    (values on null atoms are canonicalized to zero).
    """
    if fine.src != x.space or coarse.src != x.space:
        raise SpaceMismatch("maps must start at the random variable's space")
    if step.src != fine.dst or step.dst != coarse.dst:
        raise DomainMismatch("step map must close the triangle fine -> coarse")
    # the endpoints match, so the three maps' image positions line up
    fi, ci, si = fine._images, coarse._images, step._images
    for a, f, c in zip(x.space.atoms, fi, ci):
        if si[f] != c:
            raise DomainMismatch("triangle does not commute at atom %r" % (a,))
    omega = x.space
    tol = omega.tol
    c_f = cond_exp(x, fine)
    c_g = cond_exp(x, coarse)
    sf = pullback(c_f, fine)
    sg = pullback(c_g, coarse)
    # the pointwise checks compare scaled ints, cross-multiplied (floats: over 1)
    (fden, fs), (gden, gs), ws = sf._scaled, sg._scaled, omega._scaled[1]
    (cfden, cfs), (cgden, cgs) = c_f._scaled, c_g._scaled

    # (product expansion) sf*sg as the literal double sum over coarse fibers
    product_ok = True
    for i in range(omega.size):
        if not ws[i]:
            continue
        lhs = fs[i] * gs[i]
        rhs = 0
        for b in range(coarse.dst.size):
            inner = 0
            for a in range(fine.dst.size):
                if si[a] == b and fi[i] == a:
                    inner += cfs[a]
            rhs += cgs[b] * inner
        if not scalar.eq(lhs * (cgden * cfden), rhs * (fden * gden), tol):
            product_ok = False
            break
    # (cross moment) E[sf*sg] = sum of squared coarse values against coarse weights
    e_cross = _cross_moment(sf, sg)
    coarse_sq = _cross_moment(c_g, c_g)
    cross_ok = scalar.eq(e_cross, coarse_sq, tol)
    # (square expansion) pointwise squares expand over the fibers
    square_ok = True
    for i in range(omega.size):
        if not ws[i]:
            continue
        jg, jf = ci[i], fi[i]
        if not scalar.eq(gs[i] ** 2 * cgden**2, cgs[jg] ** 2 * gden**2, tol) or not scalar.eq(
            fs[i] ** 2 * cfden**2, cfs[jf] ** 2 * fden**2, tol
        ):
            square_ok = False
            break
    # (moment values) both second moments against the quotient weights
    fine_sq = _cross_moment(c_f, c_f)
    m_sf = second_moment(sf)
    m_sg = second_moment(sg)
    values_ok = scalar.eq(m_sg, coarse_sq, tol) and scalar.eq(m_sf, fine_sq, tol)
    # (monotonicity) coarse moment never exceeds fine moment
    mono_ok = scalar.le(m_sg, m_sf, tol)
    # (gap identity) moment gap equals the mean-square increment
    increment = _mean_square_diff(sf, sg)
    gap_ok = scalar.eq(m_sf - m_sg, increment, tol)
    return SecondMomentIdentities(
        product_expansion=product_ok,
        cross_moment=cross_ok,
        square_expansion=square_ok,
        moment_values=values_ok,
        moment_monotone=mono_ok,
        gap_identity=gap_ok,
        fine_moment=m_sf,
        coarse_moment=m_sg,
        mean_square_increment=increment,
    )
