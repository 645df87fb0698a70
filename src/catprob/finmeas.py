"""Finite measures absolutely continuous w.r.t. a space's weights.

Total variation is the atomwise l1 sum (the atomic partition attains the
partition supremum on finite spaces; the brute-force supremum survives as a
test oracle).  `rho` and `rn_derivative` are the two directions of the
density correspondence between random variables and measures: multiply by
the weights / divide by the weights, atom by atom.
"""
from __future__ import annotations

from fractions import Fraction
from operator import sub

from . import scalar
from .errors import NegativeValue, NotAbsolutelyContinuous, SpaceMismatch
from .finprob import _fiber_sums
from .finrv import FiniteRandomVariable


class FiniteMeasure:
    """Atom-indexed nonnegative masses; zero wherever the base weight is zero."""

    __slots__ = ("space", "mass")

    def __init__(self, space, mass):
        if isinstance(mass, dict):
            missing = [a for a in space.atoms if a not in mass]
            if missing:
                raise SpaceMismatch("mass missing for atoms %r" % (missing[:4],))
            raw = [mass[a] for a in space.atoms]
        else:
            raw = list(mass)
            if len(raw) != space.size:
                raise SpaceMismatch(
                    "%d masses for a %d-atom space" % (len(raw), space.size)
                )
        vals = []
        for a, m, w in zip(space.atoms, raw, space._scaled[1]):
            m = scalar.coerce(m, space.backend)
            if m < 0:
                raise NegativeValue("mass at atom %r is %s < 0" % (a, m))
            if not w and m != 0:
                raise NotAbsolutelyContinuous(
                    "atom %r has weight 0 but mass %s" % (a, m)
                )
            vals.append(m)
        self.space = space
        self.mass = tuple(vals)

    def mass_of(self, atom):
        return self.mass[self.space.index(atom)]

    def total(self):
        backend = self.space.backend
        den, nums = scalar.scaled(self.mass, backend)
        return scalar.divider(backend)(scalar.total(nums), den)

    def __eq__(self, other):
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return self.space == other.space and self.mass == other.mass

    def __hash__(self):
        return hash((self.space, self.mass))

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
    backend = mu.space.backend
    den, xs, ys = scalar.scaled_pair(mu.mass, nu.mass, backend)
    return scalar.divider(backend)(scalar.total(map(abs, map(sub, xs, ys))), den)


def pushforward(mu, s):
    """Image measure along s: each target atom collects its fiber's mass."""
    if mu.space != s.src:
        raise SpaceMismatch("measure does not live on the map's source")
    den, ms = scalar.scaled(mu.mass, mu.space.backend)
    div = scalar.divider(mu.space.backend)
    pushed = _fiber_sums(s.src, s.assign, ms, s.dst.atoms)
    return FiniteMeasure(s.dst, [div(p, den) for p in pushed])


def bound_check(mu, r):
    """True iff mu_a <= r * p_a at every atom (atomwise suffices here)."""
    r = scalar.coerce(r, mu.space.backend)
    if r < 0:
        raise ValueError("bound must be nonnegative")
    space = mu.space
    # m / mden <= (rnum / rden) * (w / wden), cross-multiplied
    (wden, ws), (mden, ms) = space._scaled, scalar.scaled(mu.mass, space.backend)
    rden, (rnum,) = scalar.scaled([r], space.backend)
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
        (wden, ws), (mden, ms) = space._scaled, scalar.scaled(mu.mass)
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
    n = scalar.coerce(n, mu.space.backend)
    if n <= 0:
        raise ValueError("truncation level must be positive")
    out = []
    for w, m in zip(mu.space.weights, mu.mass):
        cap = n * w
        out.append(m if m <= cap else cap)
    return FiniteMeasure(mu.space, out)


def rho(g):
    """Density to measure: mass_a = g_a * p_a."""
    space = g.space
    (wden, ws), (den, xs) = space._scaled, scalar.scaled(g.values, space.backend)
    div = scalar.divider(space.backend)
    return FiniteMeasure(space, [div(x * w, den * wden) for x, w in zip(xs, ws)])


def rn_derivative(mu):
    """Measure to density: g_a = mu_a / p_a, canonical 0 on null atoms.

    rho(rn_derivative(mu)) == mu holds exactly; absolute continuity is a type
    invariant of FiniteMeasure so no error case remains here.
    """
    space = mu.space
    (wden, ws), (mden, ms) = space._scaled, scalar.scaled(mu.mass, space.backend)
    div = scalar.divider(space.backend)
    out = [div(m * wden, mden * w) if w else space.zero for w, m in zip(ws, ms)]
    return FiniteRandomVariable(space, out)
