"""Finite measures absolutely continuous w.r.t. a space's weights.

Total variation is the atomwise l1 sum (the atomic partition attains the
partition supremum on finite spaces; the brute-force supremum survives as a
test oracle).  `rho` and `rn_derivative` are the two directions of the
density correspondence between random variables and measures: multiply by
the weights / divide by the weights, atom by atom.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul, sub

from . import scalar
from .errors import SpaceMismatch
from .finprob import _fiber_sums
from .finrv import FiniteRandomVariable, _check, _entries, _lazy_table


class FiniteMeasure:
    """Atom-indexed nonnegative masses; zero wherever the base weight is zero.
    Kept also in scaled form, `_scaled == scalar.scaled(mass)`, for the kernels;
    `mass` is read-only, stored and compared as `FiniteRandomVariable.values`."""

    __slots__ = ("space", "_table", "_scaled")

    mass = property(_lazy_table)

    def __init__(self, space, mass):
        self.space = space
        self._table, self._scaled = _entries(space, mass, ("mass", "mass", "masses"), False)

    @classmethod
    def _from_scaled(cls, space, den, nums):
        """Build from a kernel's ints (den, nums), with `__init__`'s checks."""
        mu = object.__new__(cls)
        mu.space = space
        _check(space, den, nums, "mass", False)
        mu._table, mu._scaled = scalar.lowest(den, nums, space.backend)
        return mu

    def mass_of(self, atom):
        return self.mass[self.space.index(atom)]

    def total(self):
        return scalar.divider(self.space.backend)(scalar.total(self._scaled[1]), self._scaled[0])

    def __eq__(self, other):
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return self.space == other.space and self._scaled == other._scaled

    def __hash__(self):
        return hash((self.space, self._scaled))

    def __repr__(self):
        return "FiniteMeasure(%r)" % (list(self.mass),)


def make_measure(space, mass):
    return FiniteMeasure(space, mass)


def base_measure(space):
    """The space's own weights as a measure."""
    return FiniteMeasure(space, list(space.weights))


def zero_measure(space):
    return FiniteMeasure(space, [0] * space.size)


def tv_distance(mu, nu):
    """Atomwise sum of |mu_a - nu_a| (equals the partition supremum)."""
    if mu.space != nu.space:
        raise SpaceMismatch("measures live on different spaces")
    den, xs, ys = scalar.common(mu._scaled, nu._scaled)
    return scalar.divider(mu.space.backend)(scalar.total(map(abs, map(sub, xs, ys))), den)


def pushforward(mu, s):
    """Image measure along s: each target atom collects its fiber's mass."""
    if mu.space != s.src:
        raise SpaceMismatch("measure does not live on the map's source")
    den, ms = mu._scaled
    return FiniteMeasure._from_scaled(s.dst, den, _fiber_sums(s.src, s.assign, ms, s.dst.atoms))


def bound_check(mu, r):
    """True iff mu_a <= r * p_a at every atom (atomwise suffices here)."""
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


def _density_bound(mu):
    """Largest mu_a / p_a over the positive-weight atoms (0 when none carries mass)."""
    space = mu.space
    # floats divide: a cross-multiplied float maximum may pick another atom within rounding
    if space.backend == scalar.EXACT:
        (wden, ws), (mden, ms) = space._scaled, mu._scaled
        num, den = 0, 1  # the best m / w so far, compared cross-multiplied
        for w, m in zip(ws, ms):
            if w and m * den > num * w:
                num, den = m, w
        return Fraction(num * wden, den * mden)
    best = space.zero
    for w, m in zip(space.weights, mu.mass):
        if w > 0 and m / w > best:
            best = m / w
    return best


def truncate_measure(mu, n):
    """Meet with n times the base weights: atomwise min(mu_a, n * p_a)."""
    space = mu.space
    nden, (num,) = scalar.scaled([scalar.coerce(n, space.backend)], space.backend)
    if num <= 0:
        raise ValueError("truncation level must be positive")
    wden, ws = space._scaled
    den, ms, caps = scalar.common(mu._scaled, (nden * wden, [num * w for w in ws]))
    return FiniteMeasure._from_scaled(space, den, [min(m, c) for m, c in zip(ms, caps)])


def rho(g):
    """Density to measure: mass_a = g_a * p_a."""
    space = g.space
    (wden, ws), (den, xs) = space._scaled, g._scaled
    return FiniteMeasure._from_scaled(space, den * wden, list(map(mul, xs, ws)))


def rn_derivative(mu):
    """Measure to density: g_a = mu_a / p_a, canonical 0 on null atoms.

    rho(rn_derivative(mu)) == mu holds exactly; absolute continuity is a type
    invariant of FiniteMeasure so no error case remains here.
    """
    space = mu.space
    (wden, ws), (mden, ms) = space._scaled, mu._scaled
    out = scalar.ratios([m * wden for m in ms], [mden * w if w else 1 for w in ws], space.backend)
    return FiniteRandomVariable._from_scaled(space, *out)
