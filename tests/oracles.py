"""Independent brute-force oracles the fast implementations are checked against.

These stay deliberately literal: enumerate partitions, enumerate subsets,
integrate by refinement.  They share no code path with the library versions.
"""
from __future__ import annotations

from fractions import Fraction


def set_partitions(items):
    """All partitions of a finite sequence (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def tv_partition_supremum(mu, nu):
    """Supremum over measurable partitions of the summed absolute differences."""
    space = mu.space
    best = space.zero
    for part in set_partitions(space.atoms):
        total = space.zero
        for block in part:
            m = sum((mu.mass_of(a) for a in block), space.zero)
            n = sum((nu.mass_of(a) for a in block), space.zero)
            total += abs(m - n)
        if total > best:
            best = total
    return best


def map_distance_literal(f, g):
    """sup over subsets A of the codomain of P(f^-1(A) symdiff g^-1(A))."""
    src, dst = f.src, f.dst
    atoms = list(dst.atoms)
    best = src.zero
    for mask in range(1 << len(atoms)):
        chosen = {a for i, a in enumerate(atoms) if (mask >> i) & 1}
        mass = src.zero
        for a in src.atoms:
            if (f.assign[a] in chosen) != (g.assign[a] in chosen):
                mass += src.weight(a)
        if mass > best:
            best = mass
    return best


def integral_abs_by_refinement(ground, step_values, depth, refine=16):
    """Midpoint-sum approximation of the l1 error of a depth-n step function.

    Splits each dyadic cell into `refine` exact midpoints; for piecewise
    affine grounds the result is within max-slope / (2 * refine * 2^depth)
    of the true integral.
    """
    n = 1 << depth
    total = Fraction(0)
    for j in range(n):
        c = step_values[j]
        for k in range(refine):
            x = Fraction(j, n) + Fraction(2 * k + 1, 2 * refine * n)
            total += abs(ground.value_at(x) - c)
    return total / Fraction(refine * n)


def dyadic_tables_per_cell(ground, depth):
    """Every level's cell averages and l1 error, one cell at a time.

    Level t averages each of its 2^t cells with its own `interval_average`
    and sums each cell's `abs_dev_integral` against that average: 2^t
    interval scans per level, against the library's single walk.
    """
    levels, errors = [], []
    for t in range(depth + 1):
        n = 1 << t
        cells = [(Fraction(j, n), Fraction(j + 1, n)) for j in range(n)]
        averages = [ground.interval_average(lo, hi) for lo, hi in cells]
        levels.append(averages)
        errors.append(sum(
            (ground.abs_dev_integral(lo, hi, c) for (lo, hi), c in zip(cells, averages)),
            Fraction(0),
        ))
    return levels, errors


def metric_axiom_error(points, table):
    """First axiom failure of an exact distance table, as the message the
    constructor raises, or None when the table is an extended pseudometric.

    Checks run in the literal order: per row, the diagonal and then each
    entry for sign and symmetry; then every triangle (i, j, k).  A sum with
    an infinite term is infinite, and an infinite d(i,j) fails against any
    finite sum.
    """
    inf = float("inf")
    n = len(points)
    for i in range(n):
        if table[i][i] != 0:
            return "d(%r,%r) = %s != 0" % (points[i], points[i], table[i][i])
        for j in range(n):
            if table[i][j] < 0:
                return "negative distance at (%r,%r)" % (points[i], points[j])
            if table[i][j] != table[j][i]:
                return "asymmetry at (%r,%r): %s vs %s" % (
                    points[i], points[j], table[i][j], table[j][i]
                )
    for i in range(n):
        for j in range(n):
            for k in range(n):
                via = table[i][k] + table[k][j]
                if via != inf and table[i][j] > via:
                    return "triangle violated: d(%r,%r) > d(%r,%r) + d(%r,%r)" % (
                        points[i], points[j], points[i], points[k], points[k], points[j]
                    )
    return None
