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
from operator import attrgetter, eq, sub
from types import MappingProxyType

from . import scalar
from .errors import (
    CodomainTooLarge,
    DomainMismatch,
    DuplicateAtom,
    InvalidAtoms,
    NegativeWeight,
    NotMeasurePreserving,
    WeightSumMismatch,
)

#: Hard cap on codomain size for subset enumeration (2^n subsets).
MAX_ENUM_CODOMAIN = 20


class FiniteProbSpace:
    """Ordered finite set of atoms with a probability weight per atom.

    Immutable after construction; all derived objects hold a reference and
    compare spaces by value (atoms, weights, backend).  A space keeps its
    weights in scaled form (`scalar.coerce_scaled`), which the kernels, `==`
    and `hash` read; an exact space builds its `weights` on first read.  A
    space over `range(n)` keeps its atoms as their positions (`_positional`, which
    stays true): it builds its `atoms` tuple and its `_index` dict on first read.
    """

    __slots__ = ("_atoms", "_weights", "backend", "tol", "_positions", "_positional", "_scaled", "_nulls")

    def __init__(self, atoms, weights, backend=scalar.EXACT, tol=None):
        if type(atoms) is range and atoms.start == 0 and atoms.step == 1:  # labels are positions
            index = self._atoms = None
        else:
            atoms = self._atoms = _atom_tuple(atoms)
            try:
                index = dict(zip(atoms, range(len(atoms))))
            except TypeError as exc:  # an unhashable label
                raise InvalidAtoms(str(exc)) from None
            if len(index) != len(atoms):  # name the first atom seen a second time
                first = {}
                dup = next(a for i, a in enumerate(atoms) if first.setdefault(a, i) != i)
                raise DuplicateAtom("atom %r occurs more than once" % (dup,))
        if backend not in scalar.BACKENDS:
            raise ValueError("unknown backend %r" % backend)
        if tol is not None:
            scalar.check_tol(tol)
        if backend == scalar.EXACT:
            tol = 0
        elif tol is None:
            tol = scalar.DEFAULT_TOL
        if type(weights) is _Equal:  # one weight: coerced, scaled, checked and summed once
            den, probe = scalar.scaled((scalar.coerce(weights[0], backend),), backend)  # stays a tuple
            nums, total = probe * len(atoms), scalar.total_of_copies(probe[0], len(atoms), backend)
        else:
            if type(weights) is _Scaled:  # a scaled form the library computed
                den, nums = weights
            elif isinstance(weights, str):
                raise WeightSumMismatch("weights must be a list, not a string")
            else:
                try:
                    raw = list(weights)
                except TypeError:  # not iterable
                    raise WeightSumMismatch("weights must be a list, not %r" % (weights,)) from None
                if len(raw) != len(atoms):
                    raise WeightSumMismatch("%d atoms but %d weights" % (len(atoms), len(raw)))
                den, nums = scalar.coerce_scaled(raw, backend)
            probe, total = nums, scalar.total(nums, backend)
        div = scalar.divider(backend)
        if min(probe, default=0) < 0:  # one int test; the walk only words the error
            a, n = next((a, n) for a, n in zip(atoms, nums) if n < 0)
            raise NegativeWeight("weight of atom %r is %s < 0" % (a, div(n, den)))
        if not scalar.eq(total, den, tol):
            raise WeightSumMismatch("weights sum to %s, expected 1" % (div(total, den),))
        self._weights, self._scaled = scalar.lowest(den, nums, backend)
        self.backend, self.tol, self._positions, self._positional = backend, tol, index, index is None
        self._nulls = tuple([i for i, w in enumerate(nums) if not w]) if 0 in probe else ()

    @property
    def atoms(self):
        """The atom labels, a tuple; a space over range(n) builds it here, once."""
        if self._atoms is None:
            self._atoms = tuple(range(self.size))
        return self._atoms

    @property
    def _index(self):
        """Atom label -> position; a space over range(n) builds it here, once."""
        if self._positions is None:
            self._positions = dict(zip(self.atoms, range(self.size)))
        return self._positions

    @property
    def weights(self):
        """The weights; an exact space builds its Fractions here, once."""
        if self._weights is None:
            den, nums = self._scaled
            self._weights = tuple([Fraction(n, den) for n in nums])
        return self._weights

    @property
    def size(self):
        return len(self._scaled[1])

    def index(self, atom):
        return self._index[atom]

    def weight(self, atom):
        return self.weights[self._index[atom]]

    @property
    def zero(self):
        return scalar.zero(self.backend)

    def __contains__(self, atom):
        return atom in self._index

    def __eq__(self, other):
        if self is other:  # a diagram's maps hold its own levels
            return True
        if not isinstance(other, FiniteProbSpace):
            return NotImplemented
        # spaces over range(n) with equal forms have equal atoms, so no tuple is built
        return (self._scaled, self.backend) == (other._scaled, other.backend) and (
            self._positional and other._positional or self.atoms == other.atoms
        )

    def __hash__(self):
        return hash((self.atoms, self._scaled, self.backend))

    def __repr__(self):
        body = ", ".join("%r:%s" % (a, w) for a, w in zip(self.atoms, self.weights))
        return "FiniteProbSpace(%s)" % body


def _atom_tuple(atoms):
    """`tuple(atoms)`; atoms that are not iterable raise InvalidAtoms in TypeError's words."""
    try:
        return tuple(atoms)
    except TypeError as exc:
        raise InvalidAtoms(str(exc)) from None


def make_space(atoms, weights, backend=scalar.EXACT, tol=None):
    """Build a validated space; atom order is preserved."""
    return FiniteProbSpace(atoms, weights, backend=backend, tol=tol)


class _Equal(tuple):
    """The weights of `uniform_space`: its one entry on every atom."""


class _Scaled(tuple):
    """A scaled form the library computed: weights (den, nums) with nums a
    list, or a metric table (den, rows), rows a tuple of tuples."""


def uniform_space(atoms, backend=scalar.EXACT):
    """Equal-weight space over the given labels (or over range(n) for an int, held as positions)."""
    atoms = range(atoms) if isinstance(atoms, int) else _atom_tuple(atoms)
    n = len(atoms)
    weights = _Equal([scalar.divider(backend)(1, n)]) if n else []  # no atoms: sum 0, rejected
    return FiniteProbSpace(atoms, weights, backend=backend)


def _fiber_sums(images, values, size):
    """Per target position, the sum from 0 of `values` (one per source atom)
    over its fiber, in source atom order."""
    sums = [0] * size
    for b, v in zip(images, values):
        sums[b] += v
    return sums


def _pushforward_fault(src, dst, images):
    """None when `images` pushes src's weights onto dst's, else the first target
    position b that misses, with its fiber sum p over src's den: (b, p).

    Fiber sums p and target weights w are compared cross-multiplied, as
    p * dden == w * sden, in one pass.  When dden divides sden (always for a
    valid exact map, as forms are in lowest terms, and on the float backend,
    where both are 1) that is p == w * (sden // dden).  Otherwise, or when
    that pass fails, the atoms are walked.  Nothing is worded here, so a
    sampler may reject many draws against one target at the cost of the sums.
    """
    (sden, sws), (dden, dws) = src._scaled, dst._scaled
    pushed, tol = _fiber_sums(images, sws, dst.size), dst.tol
    k, r = divmod(sden, dden)
    if not r:
        want = dws if k == 1 else [w * k for w in dws]
        # `<=`, not `tol.__ge__`, which gives NotImplemented (true) for an int tol and a float
        if all(map(eq, pushed, want)) if tol == 0 else max(map(abs, map(sub, pushed, want))) <= tol:
            return None
    for b, (p, w) in enumerate(zip(pushed, dws)):
        if not scalar.eq(p * dden, w * sden, tol):
            return b, p
    return None


def _then(first, second):
    """The image positions of one map followed by another, from theirs."""
    return tuple(map(second.__getitem__, first))


class _Map:
    """An assignment src -> dst, stored as `_images`, the target position of
    each source label in source order (`range(n)` for an identity); labels
    come from each space's `_index` and `_labels`, its label tuple.  `assign`
    is built on first read.  A subclass names its messages' nouns (`_words`)
    and its check on the positions (`_check`), run unless known to hold."""

    __slots__ = ("src", "dst", "_images", "_assign")

    def __init__(self, src, dst, assign):
        try:
            assign = dict(assign)
        except (TypeError, ValueError):
            raise DomainMismatch("assignment must be a mapping, not %r" % (assign,)) from None
        labels = self._labels(src)
        try:
            index = dst._index
            images = tuple([index[assign[a]] for a in labels])
        except (KeyError, TypeError):  # a missing label or a bad image
            images = None
        if images is None or len(assign) != len(images):  # word the first fault
            keys, unknown, image, target = self._words
            missing = [a for a in labels if a not in assign]
            if missing:
                raise DomainMismatch("assignment missing %s %r" % (keys, missing[:4]))
            extra = [a for a in assign if a not in src._index]
            if extra:
                raise DomainMismatch("assignment mentions unknown %s %r" % (unknown, extra[:4]))
            try:
                for a, b in assign.items():
                    if b not in dst._index:
                        raise DomainMismatch("image %s %r not in %s" % (image, b, target))
            except TypeError:  # an unhashable image
                raise DomainMismatch("image %s %r not in %s" % (image, b, target)) from None
        self._check(src, dst, images)
        self.src, self.dst, self._images, self._assign = src, dst, images, None

    @classmethod
    def _from_images(cls, src, dst, images, check=True):
        """The map sending source label k to target label images[k], from
        positions the library computed: the labels are not looked up."""
        if check:
            cls._check(src, dst, images)
        h = object.__new__(cls)
        h.src, h.dst, h._images, h._assign = src, dst, images, None
        return h

    @property
    def assign(self):
        if self._assign is None:
            images = map(self._labels(self.dst).__getitem__, self._images)
            self._assign = MappingProxyType(dict(zip(self._labels(self.src), images)))
        return self._assign

    def __call__(self, label):
        return self._labels(self.dst)[self._images[self.src._index[label]]]

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        # an identity holds a range
        return (self.src, self.dst, tuple(self._images)) == (other.src, other.dst, tuple(other._images))

    def __hash__(self):
        return hash((self.src, self.dst, tuple(self._images)))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, dict(self.assign))


class MeasurePreservingMap(_Map):
    """Atom assignment src -> dst whose pushforward matches the dst weights."""

    __slots__ = ()
    _words, _labels = ("source atoms", "atoms", "atom", "target space"), attrgetter("atoms")

    @staticmethod
    def _check(src, dst, images):
        """Raise NotMeasurePreserving unless `images` pushes src's weights onto dst's,
        wording the failing atom's two values from the scaled forms."""
        if (fault := _pushforward_fault(src, dst, images)) is not None:
            b, p = fault
            mass = scalar.divider(src.backend)(p, src._scaled[0])
            weight = scalar.divider(dst.backend)(dst._scaled[1][b], dst._scaled[0])
            raise NotMeasurePreserving(
                "atom %r receives mass %s, target weight is %s" % (dst.atoms[b], mass, weight)
            )

    def __init__(self, src, dst, assign):
        scalar.same_backend(src, dst)
        _Map.__init__(self, src, dst, assign)


def make_map(src, dst, assign):
    """Build a validated measure-preserving map."""
    return MeasurePreservingMap(src, dst, assign)


def identity_map(space):
    """The identity on `space`; it preserves measure by definition, so no fiber is summed."""
    return MeasurePreservingMap._from_images(space, space, range(space.size), check=False)


def compose(f, g):
    """Composite in diagram order: f first, then g (f: A->B, g: B->C gives A->C)."""
    if f.dst != g.src:
        raise DomainMismatch("codomain of the first map differs from domain of the second")
    # exact pushforward is functorial, so the composite preserves measure;
    # within-tol drift adds up along a path, so a float one is checked
    images = _then(f._images, g._images)
    return MeasurePreservingMap._from_images(f.src, g.dst, images, f.src.backend != scalar.EXACT)


def _given(kind, *named):
    """Raise DomainMismatch at the first (name, value) whose value is not a `kind`."""
    for name, value in named:
        if not isinstance(value, kind):
            raise DomainMismatch("%s is a %s, not a %s" % (name, type(value).__name__, kind.__name__))


def _require_parallel(f, g):
    _given(MeasurePreservingMap, ("f", f), ("g", g))
    if f.src != g.src or f.dst != g.dst:
        raise DomainMismatch("maps are not a parallel pair")


def as_equal(f, g):
    """Almost-sure equality: the atoms where the maps differ carry zero mass."""
    _require_parallel(f, g)
    src = f.src
    mass = scalar.total(
        (w for w, u, v in zip(src._scaled[1], f._images, g._images) if u != v), src.backend
    )
    return scalar.eq(mass, 0, src.tol)


def map_distance(f, g, scale=1):
    """Largest symmetric-difference mass sup_A P(f^-1(A) delta g^-1(A)).

    An atom a contributes to the subset A exactly when A separates f(a)
    from g(a), so the supremum is a maximum cut over the conflict graph on
    codomain atoms (edge weight = source mass sent to differing images).
    A max cut is the sum of the max cuts of the graph's connected
    components.  A bipartite component is cut whole; each other component
    has all its subsets enumerated, on its own, by a Gray-code walk (one
    flip per step, on ints over the common denominator on the exact
    backend), so the MAX_ENUM_CODOMAIN cap stays practical.  `scale`
    multiplies the result (the metric family is the same up to a positive
    factor).
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
    den, weights = src._scaled
    edges = {}
    for w, u, v in zip(weights, f._images, g._images):
        if w == 0 or u == v:
            continue
        key = (u, v) if u < v else (v, u)
        edges[key] = edges.get(key, 0) + w
    adj = {}
    for (u, v), w in sorted(edges.items()):
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
    best = 0
    side = {}  # two-colouring by breadth-first search, one component at a time
    for root in sorted(adj):
        if root in side:
            continue
        side[root] = False
        comp, bipartite, weight = [root], True, 0
        for u in comp:
            for v, w in adj[u]:
                if v not in side:
                    side[v] = not side[u]
                    comp.append(v)
                elif side[v] == side[u]:
                    bipartite = False
                if u < v:
                    weight += w
        best += weight if bipartite else _max_cut(sorted(comp), adj)
    sden, (snum,) = scalar.scaled([scale], src.backend)
    return scalar.divider(src.backend)(best * snum, den * sden)


def _max_cut(verts, adj):
    """Max cut of one connected component, by a Gray-code walk over the
    subsets of verts[1:]; verts[0] stays outside (complementary subsets cut
    the same edges)."""
    pos = {u: i for i, u in enumerate(verts)}
    nbrs = [[(pos[v], w) for v, w in adj[u]] for u in verts]
    side = [False] * len(verts)
    cut = 0
    best = 0
    for step in range(1, 1 << (len(verts) - 1)):
        v = (step & -step).bit_length()  # trailing zeros of step, plus one
        side[v] = not side[v]
        sv = side[v]
        for u, w in nbrs[v]:
            cut += w if side[u] != sv else -w
        if cut > best:
            best = cut
    return best
