"""Random probability cases shared by the kernel and value-type tests: a
space with null atoms and mixed denominators, a map out of it, and random
variables and measures on it, built by every route the library offers."""
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F

from hypothesis import strategies as st

from catprob import jsonio, scalar
from catprob.finmeas import FiniteMeasure, pushforward, rho, rn_derivative, truncate_measure
from catprob.finprob import FiniteProbSpace, MeasurePreservingMap
from catprob.finrv import FiniteRandomVariable, cond_exp, pullback, truncate_rv


@dataclass
class Case:
    space: FiniteProbSpace
    map: MeasurePreservingMap
    f: FiniteRandomVariable
    g: FiniteRandomVariable
    mu: FiniteMeasure
    nu: FiniteMeasure
    r: object


_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16)


def _fraction(rng, top):
    """A rational in [0, top] with a mixed denominator; zero one time in four."""
    if rng.random() < 0.25:
        return F(0)
    den = rng.choice(_DENOMINATORS)
    return F(rng.randint(0, top * den), den)


@st.composite
def cases(draw, backend):
    """A 1-64 atom space with null atoms and mixed denominators, a map onto a
    space with possibly empty fibers, two random variables and two measures."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    num = (lambda q: q) if backend == scalar.EXACT else float
    n = rng.randint(1, 64)
    raw = [_fraction(rng, 3) for _ in range(n)]
    if not any(raw):
        raw[0] = F(1)
    total = sum(raw)
    weights = [num(q / total) for q in raw]
    space = FiniteProbSpace(range(n), weights, backend=backend)
    k = rng.randint(1, min(n, 8) + 1)
    assign = {a: rng.randrange(k) for a in range(n)}
    pushed = [space.zero] * k
    for a, w in enumerate(weights):
        pushed[assign[a]] += w
    s = MeasurePreservingMap(space, FiniteProbSpace(range(k), pushed, backend=backend), assign)

    def rv():
        return FiniteRandomVariable(space, [num(_fraction(rng, 4)) for _ in range(n)])

    def measure():
        return FiniteMeasure(space, [w * num(_fraction(rng, 3)) for w in weights])

    r = num(F(rng.randint(1, 32), 8))
    return Case(space, s, rv(), rv(), measure(), measure(), r)


def kernel_outputs(case):
    """The result of every kernel that returns a random variable or a measure."""
    s = case.map
    return [
        cond_exp(case.f, s),
        pullback(cond_exp(case.g, s), s),
        rn_derivative(case.mu),
        truncate_rv(case.f, case.r),
        pushforward(case.mu, s),
        rho(case.f),
        truncate_measure(case.mu, case.r),
    ]


def _roundtrip(x, to_obj, from_obj):
    return from_obj(json.loads(json.dumps(to_obj(x))))


def every_route(case):
    """Random variables and measures on the case's spaces, built from lists,
    dicts, kernels and JSON round trips, with equal tables among them."""
    space = case.space
    raw = [x + y for x, y in zip(case.f.values, case.g.values)]
    masses = list(case.mu.mass)
    outputs = kernel_outputs(case)
    return [
        FiniteRandomVariable(space, raw),
        FiniteRandomVariable(space, dict(zip(space.atoms, raw))),
        FiniteRandomVariable(space, case.f.values),
        FiniteRandomVariable(outputs[0].space, outputs[0].values),
        _roundtrip(case.f, jsonio.rv_to_obj, jsonio.rv_from_obj),
        _roundtrip(outputs[0], jsonio.rv_to_obj, jsonio.rv_from_obj),
        FiniteMeasure(space, masses),
        FiniteMeasure(space, dict(zip(space.atoms, masses))),
        FiniteMeasure(outputs[4].space, outputs[4].mass),
        _roundtrip(case.mu, jsonio.measure_to_obj, jsonio.measure_from_obj),
        _roundtrip(outputs[5], jsonio.measure_to_obj, jsonio.measure_from_obj),
        rho(rn_derivative(case.mu)),
        case.f,
        case.mu,
    ] + outputs + kernel_outputs(case)
