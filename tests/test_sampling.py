"""The samplers against their formulas written out literally.

Each seed replays one draw sequence twice: once through `sampling` and once
through the formulas below, exact values on the exact backend and float
bits on the float one.  A change that reorders the draws or the arithmetic
shows here.
"""
import random
from fractions import Fraction

import pytest

import oracles
from catprob import sampling, scalar

_BOUND = Fraction(5, 3)


def _bits(xs):
    return [x.hex() if type(x) is float else (type(x), x) for x in xs]


def _literal_draws(rng, backend):
    """Weights, values, masses, the quotient's assignment and target weights."""
    exact = backend == scalar.EXACT
    bound = _BOUND if exact else float(_BOUND)
    n = rng.randint(2, 8)
    if rng.random() < 0.5:
        weights = [Fraction(1, n)] * n if exact else [1.0 / n] * n
    else:
        den = rng.choice(sampling._DENOMS)
        cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        weights = [Fraction(p, den) if exact else p / den for p in parts]
    if exact:
        values = [bound * Fraction(rng.randint(0, 64), 64) for _ in range(n)]
        mass = [bound * w * Fraction(rng.randint(0, 64), 64) for w in weights]
    else:
        values = [bound * rng.randint(0, 64) / 64.0 for _ in range(n)]
        mass = [bound * w * rng.randint(0, 64) / 64.0 for w in weights]
    zero = Fraction(0) if exact else 0.0
    values = [x if w else zero for w, x in zip(weights, values)]  # canonical on null atoms
    k = rng.randint(1, n)
    raw = [rng.randrange(k) for _ in range(n)]
    relabel = {c: t for t, c in enumerate(sorted(set(raw)))}
    assign = [relabel[c] for c in raw]
    pushed = []
    for t in range(len(relabel)):
        total = Fraction(0) if exact else 0.0
        for a in range(n):
            if assign[a] == t:
                total += weights[a]
        pushed.append(total)
    return weights, values, mass, assign, pushed


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@pytest.mark.parametrize("seed", range(20))
def test_samplers_match_their_formulas(backend, seed):
    rng = random.Random(seed)
    space = sampling.rand_space(rng, backend=backend)
    f = sampling.rand_rv(rng, space, bound=_BOUND)
    mu = sampling.rand_measure(rng, space, bound=_BOUND)
    q = sampling.rand_quotient(rng, space)
    weights, values, mass, assign, pushed = _literal_draws(random.Random(seed), backend)
    assert _bits(space.weights) == _bits(weights)
    assert _bits(f.values) == _bits(values)
    assert _bits(mu.mass) == _bits(mass)
    assert [q.assign[a] for a in space.atoms] == assign
    assert _bits(q.dst.weights) == _bits(pushed)


def _same_table(new, old):
    """Equal objects, and equal tables and scaled forms by type and bits."""
    assert new == old and hash(new) == hash(old)
    assert _bits(new._read()) == _bits(old._read())
    assert new._scaled[0] == old._scaled[0] and _bits(new._scaled[1]) == _bits(old._scaled[1])


def _same_space(new, old):
    assert new == old and hash(new) == hash(old) and repr(new) == repr(old)
    assert (new.atoms, new.tol, new._nulls) == (old.atoms, old.tol, old._nulls)
    assert new._scaled[0] == old._scaled[0] and _bits(new._scaled[1]) == _bits(old._scaled[1])
    assert _bits(new.weights) == _bits(old.weights)


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@pytest.mark.parametrize("seed", range(40))
def test_samplers_match_their_old_code(backend, seed):
    """Each sampler against a literal copy of its old code, fed the same
    draws: the same objects and tables, and the generator left in the same
    state.  Sizes reach 24 atoms, and a quotient is quotiented again."""
    bounds = [1, 3, Fraction(5, 3), "7/4"] + ([0.75] if backend == scalar.FLOAT else [])
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    for max_atoms in (1, 8, 24):
        size = dict(min_atoms=1, max_atoms=max_atoms, backend=backend)
        space = sampling.rand_space(new_rng, **size)
        old_space = oracles.rand_space_literal(old_rng, **size)
        _same_space(space, old_space)
        for bound in bounds:
            f = sampling.rand_rv(new_rng, space, bound)
            _same_table(f, oracles.rand_rv_literal(old_rng, space, bound))
            mu = sampling.rand_measure(new_rng, space, bound)
            _same_table(mu, oracles.rand_measure_literal(old_rng, space, bound))
        q = space
        for k in (None, 3):
            old_q = oracles.rand_quotient_literal(old_rng, q, k)
            q = sampling.rand_quotient(new_rng, q, k)
            assert q == old_q and hash(q) == hash(old_q)
            assert list(q.assign.items()) == list(old_q.assign.items())
            _same_space(q.dst, old_q.dst)
            q = q.dst
        for s in (space, q):
            assert sampling.weight_classes(s) == oracles.weight_classes_literal(s)
        assert new_rng.getstate() == old_rng.getstate()


def _same_map(new, old):
    assert new == old and hash(new) == hash(old) and type(new) is type(old)
    assert list(new.assign.items()) == list(old.assign.items())


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@pytest.mark.parametrize("seed", range(40))
def test_map_samplers_match_their_old_code(backend, seed):
    """`rand_quotient`, `rand_automorphism` and `rand_parallel_map`, which build
    their maps from positions, against literal copies of their code from
    before: the same maps, and the generator in the same state after each
    call.  Non-uniform sources make the automorphisms trivial at times, so
    the parallel sampler falls through to its rejection draws."""
    new_rng, old_rng = random.Random(seed), random.Random(seed)
    for max_atoms in (1, 4, 8, 16):
        size = dict(min_atoms=1, max_atoms=max_atoms, backend=backend)
        space = sampling.rand_space(new_rng, **size)
        _same_space(space, oracles.rand_space_literal(old_rng, **size))
        f = sampling.rand_quotient(new_rng, space, 3)
        _same_map(f, oracles.rand_quotient_literal(old_rng, space, 3))
        assert new_rng.getstate() == old_rng.getstate()
        for s in (space, f.dst):
            _same_map(sampling.rand_automorphism(new_rng, s), oracles.rand_automorphism_literal(old_rng, s))
            assert new_rng.getstate() == old_rng.getstate()
        for attempts in (0, 3, 40):
            g = sampling.rand_parallel_map(new_rng, f, attempts)
            _same_map(g, oracles.rand_parallel_map_literal(old_rng, f, attempts))
            assert new_rng.getstate() == old_rng.getstate()
