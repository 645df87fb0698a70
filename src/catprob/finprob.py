"""Finite probability spaces, measure-preserving maps, and the map metric.

A space is an ordered tuple of atom labels with nonnegative weights summing
to one.  A map between spaces is an atom assignment whose pushforward of the
source weights reproduces the target weights exactly (or within tolerance on
the float backend).  The distance between two parallel maps is the largest
probability of a symmetric difference of preimages, computed by explicit
subset enumeration over the codomain.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from types import MappingProxyType

from . import scalar
from .errors import (
    CodomainTooLarge,
    DomainMismatch,
    DuplicateAtom,
    NegativeWeight,
    NotMeasurePreserving,
    WeightSumMismatch,
)

#: Hard cap on codomain size for subset enumeration (2^n subsets).
MAX_ENUM_CODOMAIN = 20


class FiniteProbSpace:
    """Ordered finite set of atoms with a probability weight per atom.

    Immutable after construction; all derived objects hold a reference and
    compare spaces by value (atoms, weights, backend).
    """

    __slots__ = ("atoms", "weights", "backend", "tol", "_index")

    def __init__(self, atoms, weights, backend=scalar.EXACT, tol=None):
        atoms = tuple(atoms)
        if len(set(atoms)) != len(atoms):
            seen, dup = set(), None
            for a in atoms:
                if a in seen:
                    dup = a
                    break
                seen.add(a)
            raise DuplicateAtom("atom %r occurs more than once" % (dup,))
        if backend not in scalar.BACKENDS:
            raise ValueError("unknown backend %r" % backend)
        if tol is not None:
            scalar.check_tol(tol)
        if backend == scalar.EXACT:
            tol = 0
        elif tol is None:
            tol = scalar.DEFAULT_TOL
        raw = list(weights)
        if len(raw) != len(atoms):
            raise ValueError(
                "%d atoms but %d weights" % (len(atoms), len(raw))
            )
        ws = tuple(scalar.coerce(w, backend) for w in raw)
        for a, w in zip(atoms, ws):
            if w < 0:
                raise NegativeWeight("weight of atom %r is %s < 0" % (a, w))
        total = sum(ws, scalar.zero(backend))
        if not scalar.eq(total, scalar.one(backend), tol):
            raise WeightSumMismatch("weights sum to %s, expected 1" % (total,))
        self.atoms = atoms
        self.weights = ws
        self.backend = backend
        self.tol = tol
        self._index = {a: i for i, a in enumerate(atoms)}

    @property
    def size(self):
        return len(self.atoms)

    def index(self, atom):
        return self._index[atom]

    def weight(self, atom):
        return self.weights[self._index[atom]]

    @property
    def zero(self):
        return scalar.zero(self.backend)

    @property
    def one(self):
        return scalar.one(self.backend)

    def __contains__(self, atom):
        return atom in self._index

    def __eq__(self, other):
        if not isinstance(other, FiniteProbSpace):
            return NotImplemented
        return (
            self.atoms == other.atoms
            and self.weights == other.weights
            and self.backend == other.backend
        )

    def __hash__(self):
        return hash((self.atoms, self.weights, self.backend))

    def __repr__(self):
        body = ", ".join("%r:%s" % (a, w) for a, w in zip(self.atoms, self.weights))
        return "FiniteProbSpace(%s)" % body


def make_space(atoms, weights, backend=scalar.EXACT, tol=None):
    """Build a validated space; atom order is preserved."""
    return FiniteProbSpace(atoms, weights, backend=backend, tol=tol)


def uniform_space(atoms, backend=scalar.EXACT):
    """Equal-weight space over the given labels (or over range(n) for an int)."""
    if isinstance(atoms, int):
        atoms = range(atoms)
    atoms = tuple(atoms)
    n = len(atoms)
    w = Fraction(1, n) if backend == scalar.EXACT else 1.0 / n
    return FiniteProbSpace(atoms, [w] * n, backend=backend)


def _fiber_sums(src, assign, values, targets):
    """Per target atom, the sum of `values` (one per source atom) over its fiber."""
    sums = dict.fromkeys(targets, src.zero)
    for a, v in zip(src.atoms, values):
        sums[assign[a]] += v
    return [sums[b] for b in targets]


class MeasurePreservingMap:
    """Atom assignment src -> dst (read-only) whose pushforward matches the dst weights."""

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
        for a, b in assign.items():
            if b not in dst._index:
                raise DomainMismatch("image atom %r not in target space" % (b,))
        pushed = _fiber_sums(src, assign, src.weights, dst.atoms)
        for b, p, w in zip(dst.atoms, pushed, dst.weights):
            if not scalar.eq(p, w, dst.tol):
                raise NotMeasurePreserving(
                    "atom %r receives mass %s, target weight is %s" % (b, p, w)
                )
        self.src = src
        self.dst = dst
        self.assign = MappingProxyType({a: assign[a] for a in src.atoms})

    def __call__(self, atom):
        return self.assign[atom]

    def __eq__(self, other):
        if not isinstance(other, MeasurePreservingMap):
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


def make_map(src, dst, assign):
    """Build a validated measure-preserving map."""
    return MeasurePreservingMap(src, dst, assign)


def identity_map(space):
    return MeasurePreservingMap(space, space, {a: a for a in space.atoms})


def compose(f, g):
    """Composite in diagram order: f first, then g (f: A->B, g: B->C gives A->C)."""
    if f.dst != g.src:
        raise DomainMismatch("codomain of the first map differs from domain of the second")
    assign = {a: g.assign[f.assign[a]] for a in f.src.atoms}
    if f.src.backend != scalar.EXACT:  # within-tol drift adds up along a path
        return MeasurePreservingMap(f.src, g.dst, assign)
    # exact pushforward is functorial, so the composite preserves measure
    h = object.__new__(MeasurePreservingMap)
    h.src, h.dst, h.assign = f.src, g.dst, MappingProxyType(assign)
    return h


def _require_parallel(f, g):
    if f.src != g.src or f.dst != g.dst:
        raise DomainMismatch("maps are not a parallel pair")


def as_equal(f, g):
    """Almost-sure equality: the atoms where the maps differ carry zero mass."""
    _require_parallel(f, g)
    src = f.src
    mass = src.zero
    for a in src.atoms:
        if f.assign[a] != g.assign[a]:
            mass += src.weight(a)
    return scalar.eq(mass, src.zero, src.tol)


def map_distance(f, g, scale=1):
    """Largest symmetric-difference mass sup_A P(f^-1(A) delta g^-1(A)).

    An atom a contributes to the subset A exactly when A separates f(a)
    from g(a), so the supremum is a maximum cut over the conflict graph on
    codomain atoms (edge weight = source mass sent to differing images).
    All subsets of the conflicting atoms are enumerated with a Gray-code
    walk (one flip per step, exact rescaled-integer arithmetic), so the
    MAX_ENUM_CODOMAIN cap stays practical.  `scale` multiplies the result
    (the metric family is the same up to a positive factor).
    """
    _require_parallel(f, g)
    src, dst = f.src, f.dst
    scale = scalar.coerce(scale, src.backend)
    if scale <= 0:
        raise ValueError("scale must be positive")
    if dst.size > MAX_ENUM_CODOMAIN:
        raise CodomainTooLarge(
            "codomain has %d atoms; enumeration capped at %d"
            % (dst.size, MAX_ENUM_CODOMAIN)
        )
    edges = {}
    for a in src.atoms:
        w = src.weight(a)
        if w == 0:
            continue
        u, v = dst.index(f.assign[a]), dst.index(g.assign[a])
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        edges[key] = edges.get(key, src.zero) + w
    zero = src.zero
    if not edges:
        return zero * scale
    verts = sorted({u for e in edges for u in e})
    pos = {u: i for i, u in enumerate(verts)}
    if src.backend == scalar.EXACT:
        denom = 1
        for m in edges.values():
            denom = denom * m.denominator // gcd(denom, m.denominator)

        def weight_of(m):
            return m.numerator * (denom // m.denominator)

    else:
        denom = None

        def weight_of(m):
            return m
    adj = [[] for _ in verts]
    for (u, v), m in sorted(edges.items()):
        w = weight_of(m)
        adj[pos[u]].append((pos[v], w))
        adj[pos[v]].append((pos[u], w))
    # Gray-code walk over subsets of verts[1:]; vertex 0 stays outside
    # (complementary subsets cut the same edges)
    k = len(verts)
    side = [False] * k
    cut = 0
    best = 0
    for step in range(1, 1 << (k - 1)):
        v = (step & -step).bit_length()  # trailing zeros of step, plus one
        side[v] = not side[v]
        sv = side[v]
        for u, w in adj[v]:
            cut += w if side[u] != sv else -w
        if cut > best:
            best = cut
    if denom is not None:
        return Fraction(best, denom) * scale
    return best * scale
