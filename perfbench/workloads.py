"""The benchmark's workloads: seeded inputs, timed items and their oracles.

A workload is a list of items built from the seed during set-up.  `run`
calls the library on one item and returns what it produced; `check` compares
that with values the benchmark derives on its own (closed forms, or plain
Fraction arithmetic on the generated inputs) and returns a description of
the first mismatch, or None.  Nothing a check compares against comes from
the code under test.

  dyadic-deep           `catprob martingale` at depth 9 through `cli.main`,
                        grounds identity and tent: one long chain, so the
                        diagram build/validate, the dyadic engine and
                        `cond_exp` on 2^9 atoms carry the time.
  random-small          exact backend; per item the three check suites for
                        one trial each plus an extension trial through JSON:
                        thousands of 2-64-atom objects, so per-call
                        construction, `map_distance`, sampling and jsonio.
  random-small-float    the same items on the float backend.
  metric-constructions  the metric layer alone: constructions on random
                        spaces of at most 4 points, curry/uncurry, and the
                        `catprob metcat` path through JSON.
"""
import contextlib
import io
import json
import math
import random
import statistics
import time
from fractions import Fraction

from catprob import cli, diagram, finmeas, finprob, finrv, jsonio, metcat, scalar, suites

#: 2^9 atoms: a table takes about 0.2 s, short against the host's speed
#: swings, and a run repeats it often enough for a steady per-item
#: percentile (at depth 11, 1 s per table, runs spread by 0.23).  The
#: traced run's doubling ladder goes on to depth 13.
DYADIC_DEPTH = 9
LADDER_DEPTHS = range(9, 14)
RANDOM_SMALL_ITEMS = 108  # a multiple of 18, the period of the size cycle
METRIC_ITEMS = 32

SUITE_IDS = (
    ("lipschitz", (
        "compose-additive",
        "pushforward-map-lipschitz",
        "condexp-map-lipschitz",
        "pushforward-contraction",
        "condexp-contraction",
    )),
    ("naturality", ("rho-naturality", "rn-roundtrip", "rho-isometry")),
    ("second-moment", (
        "product-expansion",
        "cross-moment",
        "square-expansion",
        "moment-values",
        "moment-monotone",
        "gap-identity",
    )),
)


def _seeds(seed, n):
    rng = random.Random(seed)
    return [rng.randrange(2 ** 31) for _ in range(n)]


# -- dyadic-deep -------------------------------------------------------------------


def build_dyadic(seed):
    grounds = ["identity", "tent"]
    random.Random(seed).shuffle(grounds)
    return grounds


def run_dyadic(ground, probe):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["martingale", "--ground", ground, "--depth", str(DYADIC_DEPTH)])
    return status, out.getvalue()


def _dyadic_expected(ground, t):
    """(l1 error, second moment, gap) of the level-t averages, in closed form.

    identity f(x) = x: a cell of width h = 2^-t deviates from its average by
    h/4 on average and has variance h^2/12.  tent (0 -> 1 -> 0 at 1/2): for
    t >= 1 each cell lies on one piece of slope 2, giving h/2 and h^2/3; at
    t = 0 the average is 1/2 with mean deviation 1/4.  Both have
    integral of f^2 equal to 1/3.
    """
    h = Fraction(1, 2 ** t)
    if ground == "identity":
        moments = [Fraction(1, 3) - s * s / 12 for s in (2 * h, h)]
        error = h / 4
    elif t == 0:
        return Fraction(1, 4), Fraction(1, 4), Fraction(0)
    else:
        moments = [Fraction(1, 4) if t == 1 else Fraction(1, 3) - 4 * h * h / 3,
                   Fraction(1, 3) - h * h / 3]
        error = h / 2
    gap = moments[1] - moments[0] if t > 0 else Fraction(0)
    return error, moments[1], gap


def check_dyadic(ground, result):
    status, text = result
    if status != 0:
        return "martingale %s exited with %r" % (ground, status)
    report = json.loads(text)
    if report.get("ok") is not True or report.get("ground") != ground:
        return "martingale %s: report not ok" % ground
    rows = report["rows"]
    if [r["depth"] for r in rows] != list(range(DYADIC_DEPTH + 1)):
        return "martingale %s: wrong rows" % ground
    for r in rows:
        got = tuple(Fraction(r[k]) for k in ("l1_error", "second_moment", "gap"))
        if got != _dyadic_expected(ground, r["depth"]):
            return "martingale %s: row %d is %r" % (ground, r["depth"], got)
    return None


def doubling_ratio():
    """Median time ratio of make_dyadic + dyadic_error from depth d-1 to d on the ladder."""
    ground = diagram.DyadicGround.affine(0, 1)
    times = []
    for depth in LADDER_DEPTHS:
        t0 = time.perf_counter()
        diagram.make_dyadic(ground, depth)
        diagram.dyadic_error(ground, depth)
        times.append(time.perf_counter() - t0)
    return statistics.median(b / a for a, b in zip(times, times[1:]))


# -- random-small and random-small-float -------------------------------------------


def _extension_input(seed, i, backend):
    """A refining chain over 2..64 uniform top atoms, as plain numbers.

    Sizes cycle with the item index (top 2^(1 + i % 6) atoms, 1..3 quotient
    steps, each halving the atom count) so that every seed gets the same mix
    of sizes; groupings, masses and values come from the item's seed.
    """
    rng = random.Random(seed)
    exact = backend == scalar.EXACT

    def q(num, den):
        return Fraction(num, den) if exact else num / den

    n = 2 ** (1 + i % 6)
    weights = [[q(1, n)] * n]  # finest level first
    assigns = []  # assigns[t] sends atoms of level t onto level t + 1
    for _ in range(1 + (i // 6) % 3):
        fine = weights[-1]
        k = (len(fine) + 1) // 2
        assign = list(range(k)) + [rng.randrange(k) for _ in range(len(fine) - k)]
        rng.shuffle(assign)
        coarse = [q(0, 1)] * k
        for a, b in enumerate(assign):
            coarse[b] += fine[a]
        weights.append(coarse)
        assigns.append(assign)
    bound = rng.randint(1, 3)
    mass = [w * q(bound * rng.randint(0, 64), 64) for w in weights[0]]
    values = [q(rng.randint(0, 64 * bound), 64) for _ in range(n)]
    levels = [mass]
    for assign, w in zip(assigns, weights[1:]):
        pushed = [q(0, 1)] * len(w)
        for a, b in enumerate(assign):
            pushed[b] += levels[-1][a]
        levels.append(pushed)
    return {
        "backend": backend,
        "weights": weights,
        "assigns": assigns,
        "mass": mass,
        "values": values,
        "levels": levels,
        "density": [m / w for m, w in zip(mass, weights[0])],
    }


def build_random_small(seed, backend):
    return [
        (s, _extension_input(s, i, backend))
        for i, s in enumerate(_seeds(seed, RANDOM_SMALL_ITEMS))
    ]


def _run_extension(inp, probe):
    backend = inp["backend"]
    spaces = [finprob.FiniteProbSpace(range(len(w)), w, backend=backend) for w in inp["weights"]]
    steps = [
        finprob.MeasurePreservingMap(spaces[t], spaces[t + 1], dict(enumerate(a)))
        for t, a in enumerate(inp["assigns"])
    ]
    d = diagram.FiltrationDiagram.chain(spaces[::-1], steps[::-1], top=True)
    top = spaces[0]
    fam = diagram.restrict_measure(finmeas.FiniteMeasure(top, inp["mass"]), d)
    with probe.span("jsonio.encode"):
        text = json.dumps(jsonio.measure_family_to_obj(fam))
    probe.count("jsonio.encode.bytes", len(text))
    with probe.span("jsonio.decode"):
        fam = jsonio.measure_family_from_obj(json.loads(text))
    probe.count("jsonio.decode.bytes", len(text))
    ext = diagram.kolmogorov_extend(fam)
    left = finmeas.rn_derivative(ext)
    right = diagram.martingale_limit(diagram.rn_family(fam))
    x = finrv.FiniteRandomVariable(top, inp["values"])
    limit = diagram.martingale_limit(diagram.induced_martingale(x, d))
    return {
        # chain labels run coarse (0) to fine, the input lists fine to coarse
        "levels": [fam.family[len(spaces) - 1 - t].mass for t in range(len(spaces))],
        "extension": ext.mass,
        "left": left.values,
        "right": right.values,
        "square": finrv.l1_distance(left, right),
        "limit": limit.values,
    }


def run_random_small(item, probe):
    seed, ext = item
    backend = ext["backend"]
    reports = [
        suites.lipschitz_suite(seed, 1, backend=backend),
        suites.naturality_suite(seed, 1, backend=backend),
        suites.second_moment_suite(seed, 1, backend=backend),
    ]
    return reports, _run_extension(ext, probe)


def _close(got, want, exact):
    if len(got) != len(want):
        return False
    if exact:
        return all(a == b for a, b in zip(got, want))
    return all(abs(a - b) <= scalar.DEFAULT_TOL for a, b in zip(got, want))


def check_random_small(item, result):
    seed, inp = item
    reports, out = result
    for report, (name, ids) in zip(reports, SUITE_IDS):
        if report.name != name or report.backend != inp["backend"]:
            return "suite %s seed %d: wrong report" % (name, seed)
        if tuple(c.id for c in report.checks) != ids:
            return "suite %s seed %d: checks %r" % (name, seed, [c.id for c in report.checks])
        bad = [c.id for c in report.checks if c.trials != 1 or c.failures != 0]
        if bad or not report.ok:
            return "suite %s seed %d: failing %r" % (name, seed, bad)
    exact = inp["backend"] == scalar.EXACT
    levels = out["levels"]
    if len(levels) != len(inp["levels"]) or not all(
        _close(a, b, exact) for a, b in zip(levels, inp["levels"])
    ):
        return "extension seed %d: decoded family differs from the restrictions" % seed
    for key, want in (
        ("extension", inp["mass"]),
        ("left", inp["density"]),
        ("right", inp["density"]),
        ("limit", inp["values"]),
    ):
        if not _close(out[key], want, exact):
            return "extension seed %d: %s differs" % (seed, key)
    if not _close([out["square"]], [0], exact):
        return "extension seed %d: density square residual %s" % (seed, out["square"])
    return None


# -- metric-constructions ------------------------------------------------------------


def _metric_table(rng, n):
    """Random pseudometric on n points, drawn like sampling.rand_metric_space:
    the shortest-path closure of a random symmetric table, ~15% infinite."""
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = math.inf if rng.random() < 0.15 else Fraction(rng.randint(0, 32), 8)
    for m in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][m] + d[m][j])
    return d


def _tensor_table(dx, dy):
    pairs = [(i, j) for i in range(len(dx)) for j in range(len(dy))]
    return [[dx[i][k] + dy[j][l] for k, l in pairs] for i, j in pairs]


def _lipschitz_assign(rng, src, dst):
    """Random 1-Lipschitz map between two tables, as a list of target indices.

    Points are placed in random order, each on a random target point that
    keeps every distance to the points already placed; a constant map if
    that gets stuck.
    """
    order = list(range(len(src)))
    rng.shuffle(order)
    image = {}
    for p in order:
        ok = [q for q in range(len(dst)) if all(dst[q][image[r]] <= src[p][r] for r in image)]
        if not ok:
            return [rng.randrange(len(dst))] * len(src)
        image[p] = rng.choice(ok)
    return [image[p] for p in range(len(src))]


def build_metric(seed):
    """Point counts cycle over the 16 combinations of 1..4 for x and y, with
    z's count running along a Latin square, so every seed gets the same
    sizes; distances and maps come from the seed."""
    items = []
    for i, s in enumerate(_seeds(seed, METRIC_ITEMS)):
        rng = random.Random(s)
        x, y, z = (_metric_table(rng, 1 + n % 4) for n in (i, i >> 2, i + (i >> 2)))
        items.append({
            "seed": s,
            "x": x,
            "y": y,
            "z": z,
            "f": _lipschitz_assign(rng, x, y),
            "g": _lipschitz_assign(rng, x, y),
            "h": _lipschitz_assign(rng, _tensor_table(x, y), z),
        })
    return items


def _worked_quotient():
    """Identify a ~ b in the line a -2- b -1- c; the quotient has d([a],[c]) = 1."""
    y = metcat.FinPseudometricSpace(["a", "b", "c"], [[0, 2, 3], [2, 0, 1], [3, 1, 0]])
    one = metcat.FinPseudometricSpace(["*"], [[0]])
    res = metcat.coequalizer(
        metcat.LipschitzMap(one, y, {"*": "a"}), metcat.LipschitzMap(one, y, {"*": "b"})
    )
    return res.space.distance(("a", "b"), ("c",))


def run_metric(inp, probe):
    x, y, z = (metcat.FinPseudometricSpace(range(len(inp[k])), inp[k]) for k in "xyz")
    out = {
        "x": x,
        "y": y,
        "product": metcat.product([x, y]),
        "tensor": metcat.tensor(x, y),
        "coproduct": metcat.coproduct([x, y]),
    }
    f = metcat.LipschitzMap(x, y, dict(enumerate(inp["f"])))
    g = metcat.LipschitzMap(x, y, dict(enumerate(inp["g"])))
    out.update(f=f, g=g, coequalizer=metcat.coequalizer(f, g))
    tensor = out["tensor"]
    h = metcat.LipschitzMap(tensor, z, dict(zip(tensor.points, inp["h"])))
    out["h"] = h
    out["uncurried"] = metcat.uncurry(metcat.curry(h, x, y).per_point, x, y)
    with probe.span("jsonio.encode"):
        text = json.dumps(jsonio.metspace_to_obj(tensor))
    probe.count("jsonio.encode.bytes", len(text))
    with probe.span("jsonio.decode"):
        decoded = jsonio.metspace_from_obj(json.loads(text))
    probe.count("jsonio.decode.bytes", len(text))
    out["decoded"] = decoded
    out["reflection"], _ = metcat.metric_reflection(decoded)
    out["worked"] = _worked_quotient()
    return out


def _combine(a, b, op):
    return math.inf if math.inf in (a, b) else op(a, b)


def _chain_metric(y, f, g):
    """Classes of y under f(p) ~ g(p) and the chain-infimum distance between them."""
    n = y.size
    cls = list(range(n))
    for p in f.src.points:
        a, b = cls[y.points.index(f.assign[p])], cls[y.points.index(g.assign[p])]
        cls = [min(a, b) if c in (a, b) else c for c in cls]
    dist = {(a, b): 0 if a == b else math.inf for a in set(cls) for b in set(cls)}
    for i in range(n):
        for j in range(n):
            key = (cls[i], cls[j])
            dist[key] = min(dist[key], y.dist[i][j])
    for m in set(cls):
        for a in set(cls):
            for b in set(cls):
                dist[a, b] = min(dist[a, b], _combine(dist[a, m], dist[m, b], lambda u, v: u + v))
    return cls, dist


def check_metric(inp, out):
    seed = inp["seed"]
    x, y = out["x"], out["y"]
    if x.dist != tuple(map(tuple, inp["x"])) or y.dist != tuple(map(tuple, inp["y"])):
        return "seed %d: spaces do not hold their input tables" % seed
    pairs = [(i, j) for i in range(x.size) for j in range(y.size)]
    points = tuple((x.points[i], y.points[j]) for i, j in pairs)
    for key, op in (("product", max), ("tensor", lambda u, v: u + v)):
        want = tuple(
            tuple(_combine(x.dist[i][k], y.dist[j][l], op) for k, l in pairs) for i, j in pairs
        )
        if out[key].points != points or out[key].dist != want:
            return "seed %d: %s table differs" % (seed, key)
    spaces = (x, y)
    cop = [(a, i) for a, s in enumerate(spaces) for i in range(s.size)]
    cop_points = tuple((a, spaces[a].points[i]) for a, i in cop)
    cop_want = tuple(
        tuple(spaces[a].dist[i][j] if a == b else math.inf for b, j in cop) for a, i in cop
    )
    if out["coproduct"].points != cop_points or out["coproduct"].dist != cop_want:
        return "seed %d: coproduct table differs" % seed
    res = out["coequalizer"]
    cls, dist = _chain_metric(y, out["f"], out["g"])
    if res.space.size != len(set(cls)):
        return "seed %d: coequalizer has %d classes" % (seed, res.space.size)
    proj = [res.projection.assign[p] for p in y.points]
    for i in range(y.size):
        for j in range(y.size):
            if (proj[i] == proj[j]) != (cls[i] == cls[j]):
                return "seed %d: coequalizer classes differ" % seed
            if res.space.distance(proj[i], proj[j]) != dist[cls[i], cls[j]]:
                return "seed %d: coequalizer distance differs" % seed
    if out["uncurried"].assign != out["h"].assign:
        return "seed %d: curry/uncurry round trip changed the map" % seed
    tensor, decoded = out["tensor"], out["decoded"]
    if decoded.points != tensor.points or decoded.dist != tensor.dist:
        return "seed %d: metric space JSON round trip differs" % seed
    classes = sum(1 for i in range(tensor.size) if 0 not in tensor.dist[i][:i])
    if out["reflection"].size != classes:
        return "seed %d: reflection has %d points, want %d" % (seed, out["reflection"].size, classes)
    if out["worked"] != 1:
        return "seed %d: worked quotient gives %s" % (seed, out["worked"])
    return None


#: name -> (build(seed), run(item, probe), check(item, result))
WORKLOADS = {
    "dyadic-deep": (build_dyadic, run_dyadic, check_dyadic),
    "random-small": (
        lambda seed: build_random_small(seed, scalar.EXACT), run_random_small, check_random_small
    ),
    "random-small-float": (
        lambda seed: build_random_small(seed, scalar.FLOAT), run_random_small, check_random_small
    ),
    "metric-constructions": (build_metric, run_metric, check_metric),
}
