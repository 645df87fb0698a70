"""Nonnegative random variables on finite spaces: L1 metric, moments,
conditional expectation along a measure-preserving map, truncation.

Values are canonicalized to 0 on weight-zero atoms, so equality of the
stored tables is exactly almost-sure equality.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul, sub

from . import scalar
from .errors import NegativeValue, NotAbsolutelyContinuous, SpaceMismatch
from .finprob import _fiber_sums


def _lazy_table(x):
    """The table of a random variable or measure; an exact kernel output
    stores only `_scaled` and builds its Fractions here, once."""
    if x._table is None:
        den, nums = x._scaled
        x._table = tuple([Fraction(n, den) for n in nums])
    return x._table


class FiniteRandomVariable:
    """Atom-indexed table of nonnegative values on a finite space, kept also
    in scaled form, `_scaled == scalar.scaled(values)`, for the kernels.
    `values` is read-only: a user-built table keeps the scalars it was given,
    an exact kernel output builds its Fractions from `_scaled` on first read.
    Equality and hashing read `_scaled`, which is canonical (in lowest terms)."""

    __slots__ = ("space", "_table", "_scaled")

    values = property(_lazy_table)

    def __init__(self, space, values):
        self.space = space
        self._table, self._scaled = _entries(space, values, ("value", "values", "values"))

    @classmethod
    def _from_scaled(cls, space, den, nums):
        """Build from a kernel's ints (den, nums), with `__init__`'s checks and null-atom zeros."""
        f = object.__new__(cls)
        f.space = space
        _check(space, den, nums, "value")
        f._table, f._scaled = scalar.lowest(den, nums, space.backend, zeros=space._nulls)
        return f

    def value(self, atom):
        return self.values[self.space.index(atom)]

    def __eq__(self, other):
        if not isinstance(other, FiniteRandomVariable):
            return NotImplemented
        return self.space == other.space and self._scaled == other._scaled

    def __hash__(self):
        return hash((self.space, self._scaled))

    def __repr__(self):
        return "FiniteRandomVariable(%r)" % (list(self.values),)


def _entries(space, table, words, null_zero=True):
    """A user's table (a list, or a dict by atom) coerced, checked and scaled; `words` name it."""
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
    _check(space, den, nums, words[0], null_zero)
    if null_zero and space._nulls:  # canonical representative: null atoms carry 0
        vals = list(vals)
        for i in space._nulls:
            vals[i] = space.zero
        return scalar.lowest(den, nums, backend, tuple(vals), space._nulls)
    return vals, scaled


def _check(space, den, nums, what, null_zero=True):
    """Raise at a scaled table's first negative entry (or, unless `null_zero`, nonzero one on
    a null atom); a valid table passes one C-level test."""
    nulls = space._nulls
    if min(nums) < 0 or not null_zero and any([nums[i] for i in nulls]):
        div = scalar.divider(space.backend)
        for a, n, w in zip(space.atoms, nums, space._scaled[1]):
            if n < 0:
                raise NegativeValue("%s at atom %r is %s < 0" % (what, a, div(n, den)))
            if not (w or null_zero or n == 0):
                raise NotAbsolutelyContinuous("atom %r has weight 0 but mass %s" % (a, div(n, den)))


def make_rv(space, values):
    return FiniteRandomVariable(space, values)


def constant_rv(space, c):
    return FiniteRandomVariable(space, [c] * space.size)


def _require_same_space(f, g):
    if f.space != g.space:
        raise SpaceMismatch("random variables live on different spaces")


def _integral(space, den, terms):
    """Integral from per-atom `terms`, each a scaled weight times scaled
    values whose denominators multiply to `den`: one fold, one division.
    The terms come as `map` chains, which keep the per-atom operation order
    without a Python-level loop."""
    div = scalar.divider(space.backend)
    return div(scalar.total(terms), space._scaled[0] * den)


def l1_distance(f, g):
    """Integral of |f - g| against the space's weights."""
    _require_same_space(f, g)
    space = f.space
    den, xs, ys = scalar.common(f._scaled, g._scaled)
    return _integral(space, den, map(mul, space._scaled[1], map(abs, map(sub, xs, ys))))


def expectation(f):
    den, xs = f._scaled
    return _integral(f.space, den, map(mul, f.space._scaled[1], xs))


def second_moment(f):
    return _cross_moment(f, f)


def _cross_moment(f, g):
    """Integral of the product of two random variables on f's space, as (w * x) * y."""
    den, xs, ys = scalar.common(f._scaled, g._scaled)
    return _integral(f.space, den * den, map(mul, map(mul, f.space._scaled[1], xs), ys))


def _mean_square_diff(f, g):
    """Integral of the squared difference d of two random variables on f's space, as (w * d) * d."""
    den, xs, ys = scalar.common(f._scaled, g._scaled)
    ws_d = map(mul, f.space._scaled[1], map(sub, xs, ys))
    return _integral(f.space, den * den, map(mul, ws_d, map(sub, xs, ys)))


def max_value(f):
    """Largest value on positive-weight atoms (the least bound r with f <= r)."""
    den, nums = f._scaled
    best = max(nums)  # null atoms carry 0, so they never win
    return scalar.divider(f.space.backend)(best, den) if best > 0 else f.space.zero


def cond_exp(g, s):
    """Conditional expectation of g along s: weight-averaged fiber sums.

    The defining property: for every subset B of target atoms the integral of
    the result over B equals the integral of g over the preimage of B.
    Atoms of weight zero in the target get the canonical value 0.
    """
    if g.space != s.src:
        raise SpaceMismatch("random variable does not live on the map's source")
    src, dst = s.src, s.dst
    # per target atom: sum of w * x over the fiber / the target weight
    (wden, ws), (qden, qs), (den, xs) = src._scaled, dst._scaled, g._scaled
    moment = _fiber_sums(src, s.assign, map(mul, ws, xs), dst.atoms)
    dens = [den * wden * q if q else 1 for q in qs]
    out = scalar.ratios([mx * qden for mx in moment], dens, src.backend)
    return FiniteRandomVariable._from_scaled(dst, *out)


def pullback(f, s):
    """Precompose f (on the map's target) with the map: values f(s(a))."""
    if f.space != s.dst:
        raise SpaceMismatch("random variable does not live on the map's target")
    (den, nums), index = f._scaled, f.space._index
    out = [nums[index[s.assign[a]]] for a in s.src.atoms]
    return FiniteRandomVariable._from_scaled(s.src, den, out)


def truncate_rv(f, n):
    """Pointwise minimum with the level n > 0."""
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
    auditable evidence.  Enumeration over 2^|target| subsets.
    """
    import itertools

    if result is None:
        result = cond_exp(g, s)
    dst = s.dst
    rows = []
    for k in range(dst.size + 1):
        for combo in itertools.combinations(dst.atoms, k):
            chosen = set(combo)
            lhs = dst.zero
            for b in combo:
                lhs += dst.weight(b) * result.value(b)
            rhs = dst.zero
            for a in s.src.atoms:
                if s.assign[a] in chosen:
                    rhs += s.src.weight(a) * g.value(a)
            rows.append((combo, abs(lhs - rhs)))
    return rows
