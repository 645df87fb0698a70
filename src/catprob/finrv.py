"""Nonnegative random variables on finite spaces: L1 metric, moments,
conditional expectation along a measure-preserving map, truncation.

Values are canonicalized to 0 on weight-zero atoms, so equality of the
stored tables is exactly almost-sure equality.
"""
from __future__ import annotations

from operator import mul, sub

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
        for a, v, w in zip(space.atoms, raw, space._scaled[1]):
            v = scalar.coerce(v, space.backend)
            if v < 0:
                raise NegativeValue("value at atom %r is %s < 0" % (a, v))
            # canonical representative: null atoms carry 0
            vals.append(v if w else space.zero)
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
    den, xs, ys = scalar.scaled_pair(f.values, g.values, space.backend)
    return _integral(space, den, map(mul, space._scaled[1], map(abs, map(sub, xs, ys))))


def expectation(f):
    space = f.space
    den, xs = scalar.scaled(f.values, space.backend)
    return _integral(space, den, map(mul, space._scaled[1], xs))


def second_moment(f):
    return _cross_moment(f.space, f.values, f.values)


def _cross_moment(space, xs, ys):
    """Integral of the product of two value tables on `space`, as (w * x) * y."""
    den, xs, ys = scalar.scaled_pair(xs, ys, space.backend)
    return _integral(space, den * den, map(mul, map(mul, space._scaled[1], xs), ys))


def _mean_square_diff(space, xs, ys):
    """Integral of the squared difference d of two value tables on `space`, as (w * d) * d."""
    den, xs, ys = scalar.scaled_pair(xs, ys, space.backend)
    ws_d = map(mul, space._scaled[1], map(sub, xs, ys))
    return _integral(space, den * den, map(mul, ws_d, map(sub, xs, ys)))


def max_value(f):
    """Largest value on positive-weight atoms (the least bound r with f <= r)."""
    best = f.space.zero
    for w, x in zip(f.space._scaled[1], f.values):
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
    # per target atom: sum of w * x over the fiber / the target weight
    (wden, ws), (qden, qs) = src._scaled, dst._scaled
    den, xs = scalar.scaled(g.values, src.backend)
    moment = _fiber_sums(src, s.assign, map(mul, ws, xs), dst.atoms)
    div = scalar.divider(src.backend)
    out = [div(mx * qden, den * wden * q) if q else dst.zero for mx, q in zip(moment, qs)]
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
