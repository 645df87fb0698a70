"""Nonnegative random variables on finite spaces: L1 metric, moments,
conditional expectation along a measure-preserving map, truncation.

Values are canonicalized to 0 on weight-zero atoms, so equality of the
stored tables is exactly almost-sure equality.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import scalar
from .errors import NegativeValue, SpaceMismatch
from .finprob import _fiber_sums


class FiniteRandomVariable:
    """Atom-indexed table of nonnegative values on a finite space."""

    __slots__ = ("space", "values")

    def __init__(self, space, values):
        if isinstance(values, dict):
            missing = [a for a in space.atoms if a not in values]
            if missing:
                raise SpaceMismatch("values missing for atoms %r" % (missing[:4],))
            raw = [values[a] for a in space.atoms]
        else:
            raw = list(values)
            if len(raw) != space.size:
                raise SpaceMismatch(
                    "%d values for a %d-atom space" % (len(raw), space.size)
                )
        vals = []
        for a, v in zip(space.atoms, raw):
            v = scalar.coerce(v, space.backend)
            if v < 0:
                raise NegativeValue("value at atom %r is %s < 0" % (a, v))
            # canonical representative: null atoms carry 0
            vals.append(space.zero if space.weight(a) == 0 else v)
        self.space = space
        self.values = tuple(vals)

    def value(self, atom):
        return self.values[self.space.index(atom)]

    def __eq__(self, other):
        if not isinstance(other, FiniteRandomVariable):
            return NotImplemented
        return self.space == other.space and self.values == other.values

    def __hash__(self):
        return hash((self.space, self.values))

    def __repr__(self):
        return "FiniteRandomVariable(%r)" % (list(self.values),)


def make_rv(space, values):
    return FiniteRandomVariable(space, values)


def constant_rv(space, c):
    return FiniteRandomVariable(space, [c] * space.size)


def _require_same_space(f, g):
    if f.space != g.space:
        raise SpaceMismatch("random variables live on different spaces")


def _integral(space, nums, den):
    """Integral of the values nums[a] / den against an exact space's
    weights: int products over the common denominators, one Fraction."""
    wden, ws = space._scaled
    return Fraction(sum(map(mul, ws, nums)), wden * den)


def _common(xs, ys):
    """Two exact value tables over one common denominator: (den, xnums, ynums)."""
    den, nums = scalar.scaled(xs + ys)
    return den, nums[: len(xs)], nums[len(xs) :]


def l1_distance(f, g):
    """Integral of |f - g| against the space's weights."""
    _require_same_space(f, g)
    space = f.space
    if space.backend == scalar.EXACT:
        den, xs, ys = _common(f.values, g.values)
        return _integral(space, [abs(x - y) for x, y in zip(xs, ys)], den)
    total = space.zero
    for w, x, y in zip(space.weights, f.values, g.values):
        total += w * (x - y if x >= y else y - x)
    return total


def expectation(f):
    space = f.space
    if space.backend == scalar.EXACT:
        den, xs = scalar.scaled(f.values)
        return _integral(space, xs, den)
    total = space.zero
    for w, x in zip(space.weights, f.values):
        total += w * x
    return total


def second_moment(f):
    return _cross_moment(f.space, f.values, f.values)


def _cross_moment(space, xs, ys):
    """Integral of the product of two value tables on `space`."""
    if space.backend == scalar.EXACT:
        den, xs, ys = _common(xs, ys)
        return _integral(space, list(map(mul, xs, ys)), den * den)
    total = space.zero
    for w, x, y in zip(space.weights, xs, ys):
        total += w * x * y
    return total


def _mean_square_diff(space, xs, ys):
    """Integral of the squared difference of two value tables on `space`."""
    if space.backend == scalar.EXACT:
        den, xs, ys = _common(xs, ys)
        return _integral(space, [(x - y) * (x - y) for x, y in zip(xs, ys)], den * den)
    total = space.zero
    for w, x, y in zip(space.weights, xs, ys):
        diff = x - y
        total += w * diff * diff
    return total


def max_value(f):
    """Largest value on positive-weight atoms (the least bound r with f <= r)."""
    best = f.space.zero
    for w, x in zip(f.space.weights, f.values):
        if w > 0 and x > best:
            best = x
    return best


def cond_exp(g, s):
    """Conditional expectation of g along s: weight-averaged fiber sums.

    The defining property: for every subset B of target atoms the integral of
    the result over B equals the integral of g over the preimage of B.
    Atoms of weight zero in the target get the canonical value 0.
    """
    if g.space != s.src:
        raise SpaceMismatch("random variable does not live on the map's source")
    src, dst = s.src, s.dst
    if src.backend == scalar.EXACT:
        # per target atom: sum of w * x over the fiber / sum of w over the fiber
        ws = src._scaled[1]
        den, xs = scalar.scaled(g.values)
        mass = _fiber_sums(src, s.assign, ws, dst.atoms)
        moment = _fiber_sums(src, s.assign, map(mul, ws, xs), dst.atoms)
        out = [Fraction(mx, den * m) if m else dst.zero for m, mx in zip(mass, moment)]
    else:
        sums = {b: src.zero for b in dst.atoms}
        for a in src.atoms:
            w = src.weight(a)
            if w != 0:
                sums[s.assign[a]] += w * g.value(a)
        out = [dst.zero if q == 0 else sums[b] / q for b, q in zip(dst.atoms, dst.weights)]
    return FiniteRandomVariable(dst, out)


def pullback(f, s):
    """Precompose f (on the map's target) with the map: values f(s(a))."""
    if f.space != s.dst:
        raise SpaceMismatch("random variable does not live on the map's target")
    return FiniteRandomVariable(s.src, [f.value(s.assign[a]) for a in s.src.atoms])


def truncate_rv(f, n):
    """Pointwise minimum with the level n > 0."""
    n = scalar.coerce(n, f.space.backend)
    if n <= 0:
        raise ValueError("truncation level must be positive")
    return FiniteRandomVariable(f.space, [x if x <= n else n for x in f.values])


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
