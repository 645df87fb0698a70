"""Seeded verification suites behind the `check-*` subcommands.

Each suite runs a fixed number of randomized trials and returns one result
row per checked property: a stable id, a readable statement, and the trial
and failure counts.  All numerical work happens in the library modules; this
module only drives instances and aggregates outcomes.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import scalar
from .diagram import second_moment_identity_report
from .finmeas import pushforward, rho, rn_derivative, tv_distance
from .finprob import compose, map_distance
from .finrv import cond_exp, l1_distance
from .sampling import (
    rand_commuting_triangle,
    rand_measure,
    rand_parallel_map,
    rand_quotient,
    rand_rv,
    rand_space,
)

#: the bounds a trial draws from, coerced once per backend
_BOUNDS = {b: tuple([scalar.coerce(x, b) for x in ("1/2", "1", "2", "3")]) for b in scalar.BACKENDS}


@dataclass
class CheckResult:
    id: str
    statement: str
    trials: int = 0
    failures: int = 0
    worst: str = ""

    @property
    def ok(self):
        return self.failures == 0


@dataclass
class SuiteReport:
    name: str
    seed: int
    backend: str
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failing_ids(self):
        return [c.id for c in self.checks if not c.ok]


def _record(check, passed, fmt="", *args):
    """Count one trial; a check's first failure is worded as `fmt % args`."""
    check.trials += 1
    if not passed:
        check.failures += 1
        if not check.worst:
            check.worst = fmt % args


def naturality_suite(seed, trials, backend=scalar.EXACT):
    """Density/measure correspondence: naturality square, roundtrip, isometry."""
    rng = random.Random(seed)
    natural = CheckResult(
        "rho-naturality", "pushforward(rho(g), s) == rho(cond_exp(g, s))"
    )
    roundtrip = CheckResult(
        "rn-roundtrip", "rho(rn_derivative(mu)) == mu"
    )
    isometry = CheckResult(
        "rho-isometry", "tv(rho(f), rho(g)) == l1(f, g)"
    )
    report = SuiteReport("naturality", seed, backend, [natural, roundtrip, isometry])
    for _ in range(trials):
        space = rand_space(rng, backend=backend)
        tol = space.tol
        s = rand_quotient(rng, space)
        g = rand_rv(rng, space, bound=rng.choice(_BOUNDS[backend]))
        rho_g = rho(g)
        residual = tv_distance(pushforward(rho_g, s), rho(cond_exp(g, s)))
        _record(natural, scalar.eq(residual, space.zero, tol), "residual %s", residual)
        mu = rand_measure(rng, space, bound=rng.choice(_BOUNDS[backend]))
        residual = tv_distance(rho(rn_derivative(mu)), mu)
        _record(roundtrip, scalar.eq(residual, space.zero, tol), "residual %s", residual)
        f2 = rand_rv(rng, space, bound=rng.choice(_BOUNDS[backend]))
        lhs_d = tv_distance(rho_g, rho(f2))
        rhs_d = l1_distance(g, f2)
        _record(isometry, scalar.eq(lhs_d, rhs_d, tol), "%s vs %s", lhs_d, rhs_d)
    return report


def lipschitz_suite(seed, trials, backend=scalar.EXACT):
    """Map-metric estimates: composition, pushforward and conditional
    expectation as functions of the map, and plain contraction."""
    rng = random.Random(seed)
    comp = CheckResult(
        "compose-additive",
        "d(g1 o f1, g2 o f2) <= d(g1, g2) + d(f1, f2)",
    )
    push = CheckResult(
        "pushforward-map-lipschitz",
        "tv(push(mu, f1), push(mu, f2)) <= r * d(f1, f2) for mu <= r * P",
    )
    ce = CheckResult(
        "condexp-map-lipschitz",
        "l1(E[x|f1], E[x|f2]) <= r * d(f1, f2) for x <= r",
    )
    push_c = CheckResult(
        "pushforward-contraction", "tv(push(mu, s), push(nu, s)) <= tv(mu, nu)"
    )
    ce_c = CheckResult(
        "condexp-contraction", "l1(E[x|s], E[y|s]) <= l1(x, y)"
    )
    report = SuiteReport("lipschitz", seed, backend, [comp, push, ce, push_c, ce_c])
    for _ in range(trials):
        space = rand_space(rng, backend=backend)
        tol = space.tol
        r = rng.choice(_BOUNDS[backend])
        f1 = rand_quotient(rng, space, max_classes=6)
        f2 = rand_parallel_map(rng, f1)
        g1 = rand_quotient(rng, f1.dst, max_classes=6)
        g2 = rand_parallel_map(rng, g1)
        d_f = map_distance(f1, f2)
        d_g = map_distance(g1, g2)
        d_comp = map_distance(compose(f1, g1), compose(f2, g2))
        _record(comp, scalar.le(d_comp, d_f + d_g, tol), "%s > %s + %s", d_comp, d_g, d_f)
        r_d_f = r * d_f
        mu = rand_measure(rng, space, bound=r)
        mu_f1 = pushforward(mu, f1)
        lhs = tv_distance(mu_f1, pushforward(mu, f2))
        _record(push, scalar.le(lhs, r_d_f, tol), "%s > %s", lhs, r_d_f)
        x = rand_rv(rng, space, bound=r)
        x_f1 = cond_exp(x, f1)
        lhs = l1_distance(x_f1, cond_exp(x, f2))
        _record(ce, scalar.le(lhs, r_d_f, tol), "%s > %s", lhs, r_d_f)
        nu = rand_measure(rng, space, bound=r)
        lhs, rhs = tv_distance(mu_f1, pushforward(nu, f1)), tv_distance(mu, nu)
        _record(push_c, scalar.le(lhs, rhs, tol), "%s > %s", lhs, rhs)
        y = rand_rv(rng, space, bound=r)
        lhs, rhs = l1_distance(x_f1, cond_exp(y, f1)), l1_distance(x, y)
        _record(ce_c, scalar.le(lhs, rhs, tol), "%s > %s", lhs, rhs)
    return report


def second_moment_suite(seed, trials, backend=scalar.EXACT):
    """The six second-moment identities on random commuting triangles."""
    rng = random.Random(seed)
    statements = {
        "product-expansion": "lift_f * lift_g expands over the coarse fibers",
        "cross-moment": "E[lift_f * lift_g] == sum of squared coarse values",
        "square-expansion": "pointwise squares expand over the fibers",
        "moment-values": "second moments match the quotient-weighted sums",
        "moment-monotone": "coarse second moment <= fine second moment",
        "gap-identity": "moment gap == mean-square increment",
    }
    checks = {k: CheckResult(k, v) for k, v in statements.items()}
    report = SuiteReport("second-moment", seed, backend, list(checks.values()))
    for _ in range(trials):
        omega = rand_space(rng, backend=backend)
        fine, coarse, step = rand_commuting_triangle(rng, omega)
        x = rand_rv(rng, omega, bound=rng.choice(_BOUNDS[backend]))
        result = second_moment_identity_report(x, fine, coarse, step)
        words = (result.fine_moment, result.coarse_moment, result.mean_square_increment)
        for key, passed in result.items():
            _record(checks[key], passed, "fine moment %s, coarse moment %s, increment %s", *words)
    return report
