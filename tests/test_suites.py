"""The check suites against literal copies of their bodies from before a
trial computed each kernel output once and worded only failing checks: the
same reports, fewer kernel calls."""
import re
from fractions import Fraction

import pytest

import oracles
from catprob import diagram, scalar, suites
from catprob.suites import CheckResult

_PAIRS = [
    (suites.naturality_suite, oracles.naturality_suite_literal),
    (suites.lipschitz_suite, oracles.lipschitz_suite_literal),
]


def _rows(report):
    return report.name, report.seed, report.backend, [
        (c.id, c.statement, c.trials, c.failures, c.worst) for c in report.checks
    ]


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@pytest.mark.parametrize("new, old", _PAIRS, ids=["naturality", "lipschitz"])
def test_reports_match_the_old_suites(new, old, backend):
    for seed in range(40):
        assert _rows(new(seed, 5, backend)) == _rows(old(seed, 5, backend))


#: the checks a doubled and shifted kernel makes fail, per suite
_WORDED = {
    ("tv_distance", "naturality"): {"rho-naturality", "rn-roundtrip", "rho-isometry"},
    ("tv_distance", "lipschitz"): {"pushforward-map-lipschitz"},
    ("l1_distance", "naturality"): {"rho-isometry"},
    ("l1_distance", "lipschitz"): {"condexp-map-lipschitz"},
}


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@pytest.mark.parametrize("kernel", ["tv_distance", "l1_distance"])
@pytest.mark.parametrize("new, old", _PAIRS, ids=["naturality", "lipschitz"])
def test_failing_checks_word_the_old_worst(monkeypatch, new, old, kernel, backend):
    """With one distance kernel doubled and shifted in both, checks fail,
    and the failures and `worst` texts are the old ones."""
    def perturbed(x, y, _distance=getattr(suites, kernel)):
        return 2 * _distance(x, y) + scalar.coerce("1/64", x.space.backend)

    monkeypatch.setattr(suites, kernel, perturbed)
    monkeypatch.setattr(oracles, kernel, perturbed)
    worded = set()
    for seed in range(40):
        report = new(seed, 5, backend)
        assert _rows(report) == _rows(old(seed, 5, backend))
        worded |= {c.id for c in report.checks if c.worst}
    assert worded == _WORDED[kernel, report.name]


def _counted(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _call=getattr(suites, name), _name=name):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(suites, name, counted)
    return calls


@pytest.mark.parametrize("backend", scalar.BACKENDS)
def test_a_trial_computes_each_kernel_output_once(monkeypatch, backend):
    """A naturality trial makes 3 `tv_distance` and 4 `rho` calls, a
    lipschitz trial 3 `pushforward` and 3 `cond_exp` calls (5, 5, 4 and 4
    when each check recomputed its outputs and worded every trial)."""
    calls = _counted(monkeypatch, ("tv_distance", "rho", "pushforward", "cond_exp"))
    suites.naturality_suite(0, 1, backend)
    assert (calls["tv_distance"], calls["rho"]) == (3, 4)
    calls.update(dict.fromkeys(calls, 0))
    suites.lipschitz_suite(0, 1, backend)
    assert (calls["pushforward"], calls["cond_exp"]) == (3, 3)


class _Unprintable:
    def __str__(self):
        raise AssertionError("a check worded text it did not need")


def test_record_words_only_the_first_failure():
    check = CheckResult("id", "statement")
    suites._record(check, True, "%s", _Unprintable())
    suites._record(check, False, "%s > %s", 1, 2)
    suites._record(check, False, "%s", _Unprintable())
    suites._record(check, False)
    assert (check.trials, check.failures, check.worst) == (4, 3, "1 > 2")


def _rows_unworded(report):
    return [(c.id, c.trials, c.failures) for c in report.checks]


@pytest.mark.parametrize("backend", scalar.BACKENDS)
@pytest.mark.parametrize("kernel, check", [
    ("tv_distance", "pushforward-contraction"),
    ("l1_distance", "condexp-contraction"),
])
def test_failing_contractions_word_both_sides(monkeypatch, kernel, check, backend):
    """A distance tripled on spaces under 4 atoms breaks a contraction; its
    first failure names the two sides, `lhs > rhs`, which read the old empty
    text, and the counts are the old ones."""
    def perturbed(x, y, _distance=getattr(suites, kernel)):
        d = _distance(x, y)
        return 3 * d if x.space.size < 4 else d

    monkeypatch.setattr(suites, kernel, perturbed)
    monkeypatch.setattr(oracles, kernel, perturbed)
    new, old = suites.lipschitz_suite(0, 50, backend), oracles.lipschitz_suite_literal(0, 50, backend)
    assert _rows_unworded(new) == _rows_unworded(old)
    (worded,) = [c for c in new.checks if c.id == check]
    (was,) = [c for c in old.checks if c.id == check]
    assert worded.failures and was.worst == ""
    lhs, rhs = map(Fraction, worded.worst.split(" > "))
    assert lhs > rhs


@pytest.mark.parametrize("backend", scalar.BACKENDS)
def test_failing_identities_word_the_moments(monkeypatch, backend):
    """A mean-square increment shifted by 1/64 breaks the gap identity; its
    first failure names the two moments and the increment, whose gap is off."""
    def shifted(f, g, _diff=diagram._mean_square_diff):
        return _diff(f, g) + scalar.coerce("1/64", f.space.backend)

    assert all(c.worst == "" for c in suites.second_moment_suite(0, 20, backend).checks)
    monkeypatch.setattr(diagram, "_mean_square_diff", shifted)
    report = suites.second_moment_suite(0, 20, backend)
    assert report.failing_ids() == ["gap-identity"]
    (gap,) = [c for c in report.checks if c.id == "gap-identity"]
    assert gap.failures == 20
    fine, coarse, increment = map(
        Fraction, re.fullmatch(r"fine moment (\S+), coarse moment (\S+), increment (\S+)", gap.worst).groups()
    )
    assert abs(fine - coarse + Fraction(1, 64) - increment) < Fraction(1, 10**6)
