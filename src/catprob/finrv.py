"""Nonnegative random variables on finite spaces: L1 metric, moments,
conditional expectation along a measure-preserving map, truncation.

Values are canonicalized to 0 on weight-zero atoms, so equality of the
stored tables is exactly almost-sure equality.  `_AtomTable` is the table
type random variables share with measures (`finmeas`).  Every integral is
one fold to a scaled pair (num, den) (`_integral`), divided out once
(`_value`); the second moment's pair (`_cross_integral(f, f)`) can be read
before that division, as the dyadic report reads it.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress
from operator import mul, sub

from . import scalar
from .errors import CodomainTooLarge, NegativeValue, NotAbsolutelyContinuous, SpaceMismatch
from .finprob import MeasurePreservingMap, _fiber_sums, _given

#: Cap on the target atoms of `cond_exp_residuals` (2^n subsets).  At the cap, 16 target
#: atoms of 2 source atoms each, exact, the table takes 0.3 s, and `catprob condexp` 1.2 s
#: for its 11 MB JSON report (2 CPUs, Python 3.11.7).
MAX_RESIDUAL_TARGET = 16


class _AtomTable:
    """An atom-indexed nonnegative table, what random variables and measures
    both store: its scaled form `_scaled` (den, nums), in lowest terms as
    `scalar.scaled` gives it, which the kernels, `==` and `hash` read.  Every
    table is built by `_build`, from a user's table (`__init__`) or a kernel's
    form (`_from_scaled`).  An exact table holds only ints and builds its
    Fractions on the first read of its read-only table; a float table is
    `_scaled[1]`.  Per type: `_null_zero` (a random variable reads 0 on a
    weight-zero atom, a measure may carry no mass there) and the error words."""

    __slots__ = ("space", "_table", "_scaled")

    def __init__(self, space, table):
        """A list, or a dict by atom, coerced and scaled (`scalar.coerce_scaled`)."""
        if type(table) is not list:
            if isinstance(table, dict):
                missing = [a for a in space.atoms if a not in table]
                if missing:
                    raise SpaceMismatch("%s missing for atoms %r" % (self._words[1], missing[:4]))
                if len(table) != space.size:
                    unknown = [a for a in table if a not in space._index]
                    raise SpaceMismatch("%s given for unknown atoms %r" % (self._words[1], unknown[:4]))
                table = [table[a] for a in space.atoms]
            elif isinstance(table, str):
                raise SpaceMismatch("%s must be a list or a dict by atom, not a string" % self._words[1])
            else:
                try:
                    table = list(table)
                except TypeError:  # not iterable
                    msg = "%s must be a list or a dict by atom, not %r" % (self._words[1], table)
                    raise SpaceMismatch(msg) from None
        if len(table) != space.size:
            raise SpaceMismatch("%d %s for a %d-atom space" % (len(table), self._words[2], space.size))
        self._build(space, *scalar.coerce_scaled(table, space.backend))

    @classmethod
    def _from_scaled(cls, space, den, nums):
        """Build from a kernel's scaled form: nums a list, or a tuple already
        in lowest terms (see `scalar.lowest`)."""
        x = object.__new__(cls)
        x._build(space, den, nums)
        return x

    def _build(self, space, den, nums):
        """Store (den, nums) after one sign and null-atom check, a C-level test on a
        valid table; only a failing table is walked, to name its first bad atom."""
        nulls = space._nulls
        if min(nums) < 0 or not self._null_zero and any([nums[i] for i in nulls]):
            div = scalar.divider(space.backend)
            for a, n, w in zip(space.atoms, nums, space._scaled[1]):
                if n < 0:
                    raise NegativeValue("%s at atom %r is %s < 0" % (self._words[0], a, div(n, den)))
                if not (w or self._null_zero or n == 0):
                    raise NotAbsolutelyContinuous("atom %r has weight 0 but mass %s" % (a, div(n, den)))
        self.space = space
        self._table, self._scaled = scalar.lowest(
            den, nums, space.backend, nulls if self._null_zero else ()
        )

    def _read(self):
        """The table; an exact one builds its Fractions here, once."""
        if self._table is None:
            den, nums = self._scaled
            self._table = tuple([Fraction(n, den) for n in nums])
        return self._table

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.space == other.space and self._scaled == other._scaled

    def __hash__(self):
        return hash((self.space, self._scaled))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, list(self._read()))


class FiniteRandomVariable(_AtomTable):
    """Nonnegative values, one per atom, read-only as `values`; canonically 0 on
    weight-zero atoms, so equality of tables is almost-sure equality."""

    __slots__ = ()
    _null_zero, _words = True, ("value", "values", "values")

    values = property(_AtomTable._read)

    def __init__(self, space, values):
        _AtomTable.__init__(self, space, values)

    def value(self, atom):
        return self.values[self.space.index(atom)]


def make_rv(space, values):
    return FiniteRandomVariable(space, values)


def constant_rv(space, c):
    return FiniteRandomVariable(space, [c] * space.size)


def _require_same_space(f, g):
    if not (isinstance(f, FiniteRandomVariable) and isinstance(g, FiniteRandomVariable)):
        _given(FiniteRandomVariable, ("f", f), ("g", g))
    if f.space != g.space:
        raise SpaceMismatch("random variables live on different spaces")


def _integral(space, den, terms):
    """Integral from per-atom `terms`, each a scaled weight times scaled
    values whose denominators multiply to `den`, as the pair (num, den): one
    fold, and `_value` divides it out.  The terms come as `map` chains, which
    keep the per-atom operation order without a Python-level loop."""
    return scalar.total(terms, space.backend), space._scaled[0] * den


def _unit(ws):
    """Whether every scaled weight is 1 (an exact uniform space's, or a float
    one-atom space's 1.0), so `w * x` is `x` itself, bits and -0.0 included."""
    return ws.count(1) == len(ws)


def _value(space, pair):
    """An integral's (num, den) as a scalar of the space's backend: one division."""
    return scalar.divider(space.backend)(*pair)


def l1_distance(f, g):
    """Integral of |f - g| against the space's weights."""
    _require_same_space(f, g)
    space = f.space
    den, xs, ys = scalar.common(f._scaled, g._scaled)
    terms = map(mul, space._scaled[1], map(abs, map(sub, xs, ys)))
    return _value(space, _integral(space, den, terms))


def expectation(f):
    if not isinstance(f, FiniteRandomVariable):
        _given(FiniteRandomVariable, ("f", f))
    den, xs = f._scaled
    return _value(f.space, _integral(f.space, den, map(mul, f.space._scaled[1], xs)))


def second_moment(f):
    if not isinstance(f, FiniteRandomVariable):
        _given(FiniteRandomVariable, ("f", f))
    return _cross_moment(f, f)


def _cross_integral(f, g):
    """Integral of the product of two random variables on f's space, as (w * x) * y,
    as the pair (num, den) of `_integral`: `_cross_integral(f, f)` is the second
    moment before its one division."""
    den, xs, ys = scalar.common(f._scaled, g._scaled)
    ws = f.space._scaled[1]
    return _integral(f.space, den * den, map(mul, xs if _unit(ws) else map(mul, ws, xs), ys))


def _cross_moment(f, g):
    return _value(f.space, _cross_integral(f, g))


def _mean_square_diff(f, g):
    """Integral of the squared difference d of two random variables on f's space, as (w * d) * d."""
    den, xs, ys = scalar.common(f._scaled, g._scaled)
    ws_d = map(mul, f.space._scaled[1], map(sub, xs, ys))
    return _value(f.space, _integral(f.space, den * den, map(mul, ws_d, map(sub, xs, ys))))


def max_value(f):
    """Largest value on positive-weight atoms (the least bound r with f <= r)."""
    if not isinstance(f, FiniteRandomVariable):
        _given(FiniteRandomVariable, ("f", f))
    den, nums = f._scaled
    best = max(nums)  # null atoms carry 0, so they never win
    return scalar.divider(f.space.backend)(best, den) if best > 0 else f.space.zero


def _along(g, s):
    """(s.src, s.dst) once g lives on s's source; `_given` names a g or s of another type."""
    try:
        if isinstance(g, FiniteRandomVariable) and g.space == s.src:
            return s.src, s.dst
    except AttributeError:
        _given(MeasurePreservingMap, ("s", s))
        raise
    _given(FiniteRandomVariable, ("g", g))
    raise SpaceMismatch("random variable does not live on the map's source")


def cond_exp(g, s):
    """Conditional expectation of g along s: weight-averaged fiber sums.

    The defining property: for every subset B of target atoms the integral of
    the result over B equals the integral of g over the preimage of B.
    Atoms of weight zero in the target get the canonical value 0.
    """
    src, dst = _along(g, s)
    # per target atom: sum of w * x over the fiber / the target weight
    (wden, ws), (qden, qs), (den, xs) = src._scaled, dst._scaled, g._scaled
    moment = _fiber_sums(s._images, xs if _unit(ws) else map(mul, ws, xs), dst.size)
    # mx * qden / (q * den * wden) is mx / q over den * (wden // qden): a target
    # weight is a fiber sum of source weights, so qden divides wden (both are 1
    # on floats); the ratios run on the small ints q, 1 on a null atom (whose
    # value `_from_scaled` sets to 0)
    over, nums = scalar.ratios(moment, [q or 1 for q in qs] if dst._nulls else qs, src.backend)
    return FiniteRandomVariable._from_scaled(dst, over * den * (wden // qden), nums)


def pullback(f, s):
    """Precompose f (on the map's target) with the map: values f(s(a))."""
    if not isinstance(f, FiniteRandomVariable):
        _given(FiniteRandomVariable, ("f", f))
    if f.space != s.dst:
        raise SpaceMismatch("random variable does not live on the map's target")
    den, nums = f._scaled
    return FiniteRandomVariable._from_scaled(s.src, den, list(map(nums.__getitem__, s._images)))


def truncate_rv(f, n):
    """Pointwise minimum with the level n > 0."""
    if not isinstance(f, FiniteRandomVariable):
        _given(FiniteRandomVariable, ("f", f))
    backend = f.space.backend
    den, xs, (cap,) = scalar.common(f._scaled, scalar.scaled([scalar.coerce(n, backend)], backend))
    if cap <= 0:
        raise ValueError("truncation level must be positive")
    return FiniteRandomVariable._from_scaled(f.space, den, [min(x, cap) for x in xs])


def cond_exp_residuals(g, s, result=None):
    """Residual of the defining integral property, one entry per target subset.

    For each subset B of target atoms: |integral of the conditional
    expectation over B minus the integral of g over the preimage of B|.
    All entries are zero (up to tolerance) by construction; the table is the
    auditable evidence.  Enumeration over 2^|target| subsets, so a target
    of more than MAX_RESIDUAL_TARGET atoms raises CodomainTooLarge.
    """
    src, dst = _along(g, s)
    if dst.size > MAX_RESIDUAL_TARGET:
        raise CodomainTooLarge(
            "target has %d atoms; subset report capped at %d" % (dst.size, MAX_RESIDUAL_TARGET)
        )
    if result is None:
        result = cond_exp(g, s)
    elif not isinstance(result, FiniteRandomVariable) or result.space != dst:
        _given(FiniteRandomVariable, ("result", result))
        raise SpaceMismatch("conditional expectation does not live on the map's target")
    # each atom's integrand once, over one den: w * E[g|s] on the target, w * g on the source
    (qden, qs), (eden, es), (wden, ws), (xden, xs) = dst._scaled, result._scaled, src._scaled, g._scaled
    lterms, rterms, lden, rden = list(map(mul, qs, es)), list(map(mul, ws, xs)), qden * eden, wden * xden
    div, backend, rows = scalar.divider(dst.backend), dst.backend, []
    for k in range(dst.size + 1):
        for combo, chosen in zip(combinations(dst.atoms, k), combinations(range(dst.size), k)):
            lhs = scalar.total(map(lterms.__getitem__, chosen), backend)
            rhs = scalar.total(compress(rterms, map(set(chosen).__contains__, s._images)), backend)
            rows.append((combo, div(abs(lhs * rden - rhs * lden), lden * rden)))
    return rows
