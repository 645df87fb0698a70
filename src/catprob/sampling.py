"""Seeded random instance generation for the check suites and tests.

Spaces have 2..8 atoms and rational weights with denominator at most 64
(exact backend), which keeps every enumeration oracle feasible and every
identity decidable.  Maps are sampled among valid measure-preserving
assignments: quotients by random grouping (always valid), and parallel
variants by weight-preserving relabelings plus rejection.
"""
from __future__ import annotations

from fractions import Fraction

from . import scalar
from .diagram import FiltrationDiagram
from .finmeas import FiniteMeasure
from .finprob import (
    FiniteProbSpace,
    MeasurePreservingMap,
    _fiber_sums,
    _pushforward_fault,
    _Scaled,
    compose,
    uniform_space,
)
from .finrv import FiniteRandomVariable

_DENOMS = (4, 8, 16, 32, 64, 12, 24, 48, 60)


def rand_space(rng, min_atoms=2, max_atoms=8, backend=scalar.EXACT):
    """Random space; roughly half the draws are uniform to seed weight collisions."""
    n = rng.randint(min_atoms, max_atoms)
    atoms = tuple(range(n))
    if rng.random() < 0.5:
        return uniform_space(atoms, backend)
    den = rng.choice(_DENOMS)
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return FiniteProbSpace(atoms, _Scaled((den, parts)), backend=backend)


def rand_rv(rng, space, bound=1):
    """Values in [0, bound] with small denominators; canonical on null atoms."""
    bden, (bnum,) = scalar.coerce_scaled([bound], space.backend)
    nums = [bnum * rng.randint(0, 64) for _ in range(space.size)]
    return FiniteRandomVariable._from_scaled(space, bden * 64, nums)


def rand_measure(rng, space, bound=1):
    """Measure below bound * weights (hence absolutely continuous)."""
    bden, (bnum,) = scalar.coerce_scaled([bound], space.backend)
    wden, ws = space._scaled
    nums = [bnum * w * rng.randint(0, 64) for w in ws]
    return FiniteMeasure._from_scaled(space, bden * wden * 64, nums)


def rand_quotient(rng, src, max_classes=None):
    """Random grouping of the source atoms; the target weights are derived,
    so the resulting map is measure preserving by construction."""
    n = src.size
    k = rng.randint(1, max_classes or n)
    draws = [rng.randrange(k) for _ in range(n)]
    used = sorted(set(draws))
    images = tuple(map({c: t for t, c in enumerate(used)}.__getitem__, draws))
    den, ws = src._scaled
    pushed = _Scaled((den, _fiber_sums(images, ws, len(used))))
    # target labels are their own positions
    dst = FiniteProbSpace(range(len(used)), pushed, backend=src.backend, tol=src.tol or None)
    return MeasurePreservingMap._from_images(src, dst, images)


def weight_classes(space):
    """Atoms grouped by equal weight (the orbits available to relabelings)."""
    groups = {}
    for a, w in zip(space.atoms, space._scaled[1]):
        groups.setdefault(w, []).append(a)
    return [g for g in groups.values() if len(g) > 1]


def rand_automorphism(rng, space):
    """Weight-preserving permutation of the atoms (identity if none exists)."""
    images, index = list(range(space.size)), space._index
    for group in weight_classes(space):
        shuffled = group[:]
        rng.shuffle(shuffled)
        for a, b in zip(group, shuffled):
            images[index[a]] = index[b]
    return MeasurePreservingMap._from_images(space, space, tuple(images))


def rand_parallel_map(rng, f, attempts=40):
    """Another measure-preserving map with the same endpoints as f.

    Tries compositions of f with source/target automorphisms, then rejection
    sampling of raw assignments; falls back to f itself (distance 0 is a
    legitimate sample).
    """
    choices = [compose(rand_automorphism(rng, f.src), f), compose(f, rand_automorphism(rng, f.dst))]
    rng.shuffle(choices)
    for h in choices:
        if h != f:
            return h
    src, dst = f.src, f.dst
    targets = range(dst.size)  # `choice` draws a position as it draws an atom
    for _ in range(attempts):
        images = tuple([rng.choice(targets) for _ in range(src.size)])
        if _pushforward_fault(src, dst, images) is None:
            return MeasurePreservingMap._from_images(src, dst, images, check=False)
    return f


def rand_refining_chain(rng, top_space, levels):
    """Chain diagram with the given top: repeated random coarsenings below it."""
    spaces = [top_space]
    steps = []
    current = top_space
    for _ in range(levels):
        q = rand_quotient(rng, current)
        steps.append(q)
        spaces.append(q.dst)
        current = q.dst
    spaces.reverse()
    steps.reverse()
    return FiltrationDiagram.chain(spaces, steps, top=True)


def rand_commuting_triangle(rng, omega):
    """Maps fine: omega -> A and coarse: omega -> B with step: A -> B closing it."""
    fine = rand_quotient(rng, omega)
    step = rand_quotient(rng, fine.dst)
    return fine, compose(fine, step), step


# -- finite pseudometric sampling ---------------------------------------------------


def rand_metric_space(rng, max_points=4, max_den=8):
    """Random finite pseudometric space via the shortest-path closure of a
    random symmetric weight table (which always satisfies the axioms)."""
    from .metcat import INF, FinPseudometricSpace, _min_plus_closure

    n = rng.randint(1, max_points)
    raw = [[None] * n for _ in range(n)]
    for i in range(n):
        raw[i][i] = Fraction(0)
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                raw[i][j] = INF
            else:
                raw[i][j] = Fraction(rng.randint(0, 4 * max_den), max_den)
            raw[j][i] = raw[i][j]
    # the shortest-path closure turns any symmetric table into a pseudometric
    _min_plus_closure(raw)
    return FinPseudometricSpace(range(n), raw)


def rand_lipschitz_map(rng, src, dst, attempts=60):
    """Random 1-Lipschitz assignment by rejection (constants always succeed)."""
    from .errors import NotLipschitz
    from .metcat import LipschitzMap

    for _ in range(attempts):
        assign = {p: rng.choice(dst.points) for p in src.points}
        try:
            return LipschitzMap(src, dst, assign)
        except NotLipschitz:
            continue
    q = rng.choice(dst.points)
    return LipschitzMap(src, dst, {p: q for p in src.points})
