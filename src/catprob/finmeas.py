"""Finite measures absolutely continuous w.r.t. a space's weights.

Total variation is the atomwise l1 sum (the atomic partition attains the
partition supremum on finite spaces; the brute-force supremum survives as a
test oracle).  `rho` and `rn_derivative` are the two directions of the
density correspondence between random variables and measures: multiply by
the weights / divide by the weights, atom by atom.  A measure and a random
variable are one table type (`finrv._AtomTable`), built and stored alike.
"""
from __future__ import annotations

from fractions import Fraction
from operator import mul, sub

from . import scalar
from .errors import SpaceMismatch
from .finprob import _fiber_sums, _given
from .finrv import FiniteRandomVariable, _AtomTable


class FiniteMeasure(_AtomTable):
    """Nonnegative masses, one per atom, read-only as `mass`; zero wherever the
    base weight is zero (absolute continuity is a type invariant)."""

    __slots__ = ()
    _null_zero, _words = False, ("mass", "mass", "masses")

    mass = property(_AtomTable._read)

    def __init__(self, space, mass):
        _AtomTable.__init__(self, space, mass)

    def mass_of(self, atom):
        return self.mass[self.space.index(atom)]

    def total(self):
        backend = self.space.backend
        return scalar.divider(backend)(scalar.total(self._scaled[1], backend), self._scaled[0])


def make_measure(space, mass):
    return FiniteMeasure(space, mass)


def base_measure(space):
    """The space's own weights as a measure."""
    return FiniteMeasure._from_scaled(space, *space._scaled)


def zero_measure(space):
    return FiniteMeasure(space, [0] * space.size)


def tv_distance(mu, nu):
    """Atomwise sum of |mu_a - nu_a| (equals the partition supremum)."""
    if not (isinstance(mu, FiniteMeasure) and isinstance(nu, FiniteMeasure)):
        _given(FiniteMeasure, ("mu", mu), ("nu", nu))
    if mu.space != nu.space:
        raise SpaceMismatch("measures live on different spaces")
    den, xs, ys = scalar.common(mu._scaled, nu._scaled)
    backend = mu.space.backend
    return scalar.divider(backend)(scalar.total(map(abs, map(sub, xs, ys)), backend), den)


def pushforward(mu, s):
    """Image measure along s: each target atom collects its fiber's mass."""
    if not isinstance(mu, FiniteMeasure):
        _given(FiniteMeasure, ("mu", mu))
    if mu.space != s.src:
        raise SpaceMismatch("measure does not live on the map's source")
    den, ms = mu._scaled
    return FiniteMeasure._from_scaled(s.dst, den, _fiber_sums(s._images, ms, s.dst.size))


def bound_check(mu, r):
    """True iff mu_a <= r * p_a at every atom (atomwise suffices here)."""
    if not isinstance(mu, FiniteMeasure):
        _given(FiniteMeasure, ("mu", mu))
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
    if not isinstance(mu, FiniteMeasure):
        _given(FiniteMeasure, ("mu", mu))
    space = mu.space
    nden, (num,) = scalar.scaled([scalar.coerce(n, space.backend)], space.backend)
    if num <= 0:
        raise ValueError("truncation level must be positive")
    wden, ws = space._scaled
    den, ms, caps = scalar.common(mu._scaled, (nden * wden, [num * w for w in ws]))
    return FiniteMeasure._from_scaled(space, den, [min(m, c) for m, c in zip(ms, caps)])


def rho(g):
    """Density to measure: mass_a = g_a * p_a."""
    if not isinstance(g, FiniteRandomVariable):
        _given(FiniteRandomVariable, ("g", g))
    space = g.space
    (wden, ws), (den, xs) = space._scaled, g._scaled
    return FiniteMeasure._from_scaled(space, den * wden, list(map(mul, xs, ws)))


def rn_derivative(mu):
    """Measure to density: g_a = mu_a / p_a, canonical 0 on null atoms.

    rho(rn_derivative(mu)) == mu holds exactly; absolute continuity is a type
    invariant of FiniteMeasure, so only a `mu` of another type is an error.
    """
    if not isinstance(mu, FiniteMeasure):
        _given(FiniteMeasure, ("mu", mu))
    space = mu.space
    (wden, ws), (mden, ms) = space._scaled, mu._scaled
    out = scalar.ratios([m * wden for m in ms], [mden * w if w else 1 for w in ws], space.backend)
    return FiniteRandomVariable._from_scaled(space, *out)
