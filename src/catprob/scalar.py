"""Dual numeric backend: exact rationals or floats with a tolerance.

This module is the one home of the number rules.  Every number comes in
through `coerce` (a user's table or weights through `coerce_scaled`, the
same rules straight to the scaled form) and goes out to JSON through
`to_json`, on the probability side, on metric tables (whose backend comes
from their tol) and on dyadic grounds (always exact).  Every probability
space picks one backend at construction and every object derived from it
inherits the choice.  On the exact backend all comparisons are decidable
equalities on `fractions.Fraction`; on the float backend an equality
assertion means |a - b| <= tol.  Mixing backends in one operation raises
BackendMismatch instead of coercing.  The kernels compute on one scaled
form, (den, nums), on both backends (`scaled`, `divider`, `total`); `total`
sums an exact form's ints with builtin `sum`, exact in any order, and folds
a float one from 0 in order, which keeps its bits on every Python version.
Spaces, random variables and measures store that form when built, and
kernels read it there.  An exact space, random variable or measure holds
only its ints (`lowest`); its Fractions are built on first read, and
`scaled_to_json` writes it out from the ints, as it writes an integral read
as its (num, den) pair (the dyadic report's second moments and gaps, over
one den).  A metric table is held the same way, one row of the form per
point, with infinity kept as `inf` itself, which `scaled_to_json` writes as
"inf" and `scaled_hashes` hashes as the values would hash.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, inf, isfinite, lcm
from operator import add, truediv
from sys import hash_info

from .errors import BackendMismatch

EXACT = "exact"
FLOAT = "float"
DEFAULT_TOL = 1e-9

BACKENDS = (EXACT, FLOAT)


def coerce(value, backend):
    """Bring a user-supplied number into the backend's scalar type.

    Exact backend accepts ints, Fractions (returned as they are) and
    "num/den" strings; floats are rejected because binary floats silently
    lose exactness.  Float backend accepts the same plus floats, and returns
    a finite float.  Neither takes a bool; any non-number raises
    BackendMismatch, a malformed string ValueError or ZeroDivisionError.
    """
    if backend == EXACT:
        if type(value) is Fraction:
            return value
        if isinstance(value, bool):
            raise BackendMismatch("booleans are not scalars")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(*parse_ratio(value))
        if isinstance(value, float):
            raise BackendMismatch(
                "float %r passed to the exact backend; use Fraction or 'num/den'" % value
            )
        raise BackendMismatch("cannot use %r as an exact scalar" % (value,))
    if backend == FLOAT:
        if type(value) is not float:
            if isinstance(value, bool):
                raise BackendMismatch("booleans are not scalars")
            if isinstance(value, str):
                value = Fraction(*parse_ratio(value))
            elif not isinstance(value, (int, float, Fraction)):
                raise BackendMismatch("cannot use %r as a float scalar" % (value,))
            value = float(value)
        if not isfinite(value):
            raise ValueError("%r is not a finite scalar" % (value,))
        return value
    raise ValueError("unknown backend %r" % backend)


def to_json(x):
    """The JSON form of a scalar: "num/den" for an int or Fraction, "inf"
    for infinity, a JSON number for a float."""
    if type(x) is float:  # before `== inf`, which is slow on a Fraction
        return "inf" if x == inf else x
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def scaled_to_json(den, nums):
    """`[to_json(n / den) for n in nums]` from a scaled form, building no scalar:
    per exact entry one gcd and the "num/den" text, and "inf" for a metric
    table's infinity.  A den of 1 (every float form) writes each entry as
    `to_json` does."""
    if den == 1:
        return [to_json(n) for n in nums]
    out = []
    for n in nums:
        if n is inf:
            out.append("inf")
            continue
        g = gcd(n, den)
        out.append(str(n // g) if g == den else "%d/%d" % (n // g, den // g))
    return out


def scaled_hashes(den, nums):
    """`tuple([hash(n / den) for n in nums])` from a scaled form, building no
    scalar: an exact n / den hashes as the Fraction would, by Python's rule for
    rationals (|n| times the inverse of den modulo `hash_info.modulus`, signed,
    with -1 read as -2, and `hash_info.inf` when the reduced den has no
    inverse); a den of 1 (every float form) hashes each entry itself, and a
    metric table's infinity hashes as `inf`.  A tuple hashes its items'
    hashes, so a tuple of these hashes as the tuple of the values."""
    if den == 1:
        return tuple(map(hash, nums))
    p = hash_info.modulus
    inverse = pow(den, -1, p) if den % p else None
    out = []
    for n in nums:
        if n is inf:
            out.append(hash(inf))
            continue
        if inverse is not None:
            h = abs(n) * inverse % p
        else:  # the rule reads the reduced fraction
            g = gcd(n, den)
            d = den // g
            h = abs(n) // g * pow(d, -1, p) % p if d % p else hash_info.inf
        h = h if n >= 0 else -h
        out.append(-2 if h == -1 else h)
    return tuple(out)


def ratio_text(num, den, backend):
    """`str(divider(backend)(num, den))`, with no Fraction built on the exact backend."""
    if backend != EXACT:
        return str(num / den)
    return scaled_to_json(den, [num])[0]


def check_tol(tol):
    """Raise ValueError unless `tol` is a finite real >= 0 (a bool is not one)."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float, Fraction)) or not 0 <= tol < inf:
        raise ValueError("tol must be a finite real >= 0, not %r" % (tol,))


def parse_ratio(text):
    """Parse "num/den" or "num" into ints (num, den) in lowest terms, den > 0, raising
    ValueError naming a malformed literal, or ZeroDivisionError as `Fraction` would."""
    parts = text.strip().split("/")
    if len(parts) > 2:
        raise ValueError("not a rational literal: %r" % text)
    try:
        num, den = int(parts[0]), (int(parts[1]) if len(parts) == 2 else 1)
    except ValueError as e:  # past int()'s digit limit a well-formed part keeps int()'s error
        if str(e).startswith("invalid literal"):
            raise ValueError("not a rational literal: %r" % text) from None
        raise
    if not den:
        raise ZeroDivisionError("Fraction(%s, 0)" % num)
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def scaled(xs, backend=EXACT):
    """Write scalars over one common denominator: (den, nums).

    On the exact backend `den` is the least common multiple of the
    denominators (1 for no scalars) and xs[i] == Fraction(nums[i], den), so
    a kernel sums, multiplies and compares ints.  On the float backend `den`
    is 1 and `nums` is `xs` itself, not a copy: multiplying or dividing a
    float by the int 1 is exact, so one kernel body serves both backends.
    Spaces, random variables and measures store it as `_scaled`, for kernels.
    """
    if backend != EXACT:
        return 1, xs
    pairs = [x.as_integer_ratio() for x in xs]
    den = lcm(*[d for _, d in pairs])
    return den, tuple([n * (den // d) for n, d in pairs])


def coerce_scaled(values, backend):
    """`scaled(tuple([coerce(v, backend) for v in values]), backend)`, with no
    Fraction built on the exact backend: an int is (v, 1), a Fraction its
    `as_integer_ratio`, a string `parse_ratio`'s ints (once per distinct string),
    and anything else goes through `coerce`: the values and errors are `coerce`'s."""
    if backend != EXACT:
        return 1, tuple([coerce(v, backend) for v in values])
    memo = {}
    pairs = [
        (v, 1) if type(v) is int else memo.get(v) or memo.setdefault(v, parse_ratio(v)) if type(v) is str
        else (v if type(v) is Fraction else coerce(v, EXACT)).as_integer_ratio()
        for v in values
    ]
    den = lcm(*[d for _, d in pairs])
    return den, tuple([n * (den // d) for n, d in pairs])


def common(a, b):
    """Two scaled forms over one denominator, (den, xnums, ynums); float forms pass as they are."""
    (xden, xs), (yden, ys) = a, b
    if xden == yden:
        return xden, xs, ys
    den = lcm(xden, yden)
    return den, [x * (den // xden) for x in xs], [y * (den // yden) for y in ys]


def ratios(nums, dens, backend):
    """nums[i] / dens[i] as one scaled form (the quotients over 1 on the float
    backend).  When every den is their lcm (a uniform target's), the form is
    `nums` itself, not a rescaled copy."""
    if backend != EXACT:
        return 1, [n / d for n, d in zip(nums, dens)]
    den = lcm(*dens)
    if dens.count(den) == len(dens):
        return den, nums
    return den, [n * (den // d) for n, d in zip(nums, dens)]


def lowest(den, nums, backend, zeros=()):
    """(table, (den, nums)): the form with 0 at the indices `zeros`, in lowest
    terms as `scaled` gives it, and the table to store, None on the exact
    backend (the Fractions are built on first read) and nums on the float one.
    A tuple is a form from `scaled` or `coerce_scaled`: lowest terms, floats.  A
    list is a kernel's: reduced on the exact backend, and divided out on the
    float one, which also makes floats of the int 0s a kernel may sum to."""
    given, exact = type(nums) is tuple, backend == EXACT
    if zeros:
        nums = list(nums)
        for i in zeros:
            nums[i] = 0 if exact else 0.0
    if not exact:
        nums = tuple(nums) if given else tuple([n / den for n in nums])
        return nums, (1, nums)
    if zeros or not given:
        g = gcd(den, *nums)
        den, nums = den // g, tuple([n // g for n in nums] if g > 1 else nums)
    return None, (den, nums)


def divider(backend):
    """How the backend turns (num, den) into a scalar: `Fraction` on the
    exact backend, true division on the float one.  A kernel picks it once
    per call, not once per entry."""
    return Fraction if backend == EXACT else truediv


def total(terms, backend=None):
    """Sum of `terms` from the int 0, in order.

    On the exact backend the terms are ints (or Fractions), whose sum is
    exact in any order, so builtin `sum` folds them.  Otherwise (a float
    backend, or none given) it is a left fold with `add`: from Python 3.12
    `sum` compensates float sums, which would change the bits the kernels
    promise.  0 + x equals 0.0 + x for every x >= 0, so a float fold gives
    the bits of a loop from 0.0.
    """
    return sum(terms) if backend == EXACT else reduce(add, terms, 0)


def total_of_copies(x, n, backend):
    """`total([x] * n)`: n * x on the exact backend, which equals it, and the
    fold itself on the float one, whose bits it keeps."""
    return x * n if backend == EXACT else total([x] * n)


_EXACT_ZERO, _EXACT_ONE = Fraction(0), Fraction(1)


def zero(backend):
    return _EXACT_ZERO if backend == EXACT else 0.0


def one(backend):
    return _EXACT_ONE if backend == EXACT else 1.0


def eq(a, b, tol):
    """Backend-aware equality: exact when tol == 0, else |a-b| <= tol."""
    if tol == 0:
        return a == b
    return abs(a - b) <= tol


def le(a, b, tol):
    """Backend-aware <=, slackened by tol on the float backend; exactly when
    `b` is a Fraction beyond the float range, where `b + tol` overflows."""
    if tol == 0:
        return a <= b
    try:
        return a <= b + tol
    except OverflowError:
        return a <= b + Fraction(tol)


def same_backend(*objs):
    """Check that all objects (anything with .backend/.tol) agree; return (backend, tol)."""
    backends = {o.backend for o in objs}
    if len(backends) != 1:
        raise BackendMismatch("mixed numeric backends: %s" % sorted(backends))
    tols = {o.tol for o in objs}
    return backends.pop(), max(tols)
