"""Command-line harness: file-based operations and seeded check suites.

Every subcommand is a thin binding over the library; no numerical logic
lives here.  Identical configuration and seed produce byte-identical
reports (sorted JSON keys, ordered CSV rows, no timestamps).

`main` parses with one parser per process, built on its first call and
reused by every later one; `build_parser` still returns a fresh parser.
Argparse formats help, usage and errors when it prints them, so they still
follow the terminal width and the current `sys.stdout`/`sys.stderr`.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import jsonio, scalar, suites
from .diagram import (
    DyadicGround,
    dyadic_report,
    kolmogorov_extend,
    martingale_limit,
    rn_family,
)
from .errors import CatprobError
from .finmeas import pushforward, rho, rn_derivative, tv_distance
from .finprob import as_equal, map_distance
from .finrv import cond_exp, cond_exp_residuals, l1_distance
from .metcat import metric_reflection

_GROUNDS = {
    "identity": lambda: DyadicGround.affine(0, 1),
    "constant": lambda: DyadicGround.constant(Fraction(1, 2)),
    "tent": lambda: DyadicGround([0, Fraction(1, 2), 1], [0, 1, 0]),
}


def _backend():
    value = os.environ.get("CATPROB_BACKEND", scalar.EXACT)
    if value not in scalar.BACKENDS:
        raise CatprobError("CATPROB_BACKEND must be one of %s" % (scalar.BACKENDS,))
    return value


def _inject_tol(obj, tol):
    """Attach a tolerance to every embedded float space lacking one."""
    if isinstance(obj, dict):
        if "atoms" in obj and "weights" in obj and obj.get("tol") is None:
            weights = obj["weights"] if isinstance(obj["weights"], list) else ()  # a decoder words it
            if obj.get("backend") == scalar.FLOAT or any(isinstance(w, float) for w in weights):
                obj["tol"] = tol
        for v in obj.values():
            _inject_tol(v, tol)
    elif isinstance(obj, list):
        for v in obj:
            _inject_tol(v, tol)


def _emit(report, rows, args):
    """Write the report as JSON (full dict) or CSV (tabular rows)."""
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------------


def cmd_rn(args):
    obj = jsonio.read_json(args.measure)
    _inject_tol(obj, args.tol)
    if args.space:
        space = jsonio.space_from_obj(jsonio.read_json(args.space))
        mu = jsonio.measure_from_obj(obj, space=space)
    else:
        mu = jsonio.measure_from_obj(obj)
    g = rn_derivative(mu)
    residual = tv_distance(rho(g), mu)
    ok = scalar.eq(residual, mu.space.zero, mu.space.tol)
    derivative = scalar.scaled_to_json(*g._scaled)
    payload = {
        "derivative": derivative,
        "atoms": [str(a) for a in mu.space.atoms],
        "roundtrip_residual": scalar.to_json(residual),
        "ok": ok,
    }
    rows = [["atom", "derivative"]] + [
        [str(a), v] for a, v in zip(mu.space.atoms, derivative)
    ] + [["roundtrip_residual", scalar.to_json(residual)]]
    _emit(payload, rows, args)
    return 0 if ok else 1


def cmd_condexp(args):
    map_obj = jsonio.read_json(args.map)
    _inject_tol(map_obj, args.tol)
    s = jsonio.map_from_obj(map_obj)
    rv_obj = jsonio.read_json(args.rv)
    _inject_tol(rv_obj, args.tol)
    embedded = isinstance(rv_obj, dict) and "space" in rv_obj
    g = jsonio.rv_from_obj(rv_obj, space=None if embedded else s.src)
    result = cond_exp(g, s)
    dst = s.dst
    subsets = []
    ok = True
    for combo, residual in cond_exp_residuals(g, s, result):
        ok = ok and scalar.eq(residual, dst.zero, dst.tol)
        subsets.append(
            {"subset": [str(b) for b in combo], "residual": scalar.to_json(residual)}
        )
    payload = {
        "values": scalar.scaled_to_json(*result._scaled),
        "atoms": [str(b) for b in dst.atoms],
        "subset_residuals": subsets,
        "ok": ok,
    }
    rows = [["subset", "residual"]] + [
        ["|".join(d["subset"]), d["residual"]] for d in subsets
    ]
    _emit(payload, rows, args)
    return 0 if ok else 1


def cmd_martingale(args):
    if args.ground in _GROUNDS:
        ground = _GROUNDS[args.ground]()
    else:
        ground = jsonio.ground_from_obj(jsonio.read_json(args.ground))
    levels, ok = dyadic_report(ground, args.depth)
    columns = ["depth", "l1_error", "second_moment", "gap"]
    table = [dict(zip(columns, level)) for level in levels]
    payload = {"ground": args.ground, "depth": args.depth, "rows": table, "ok": ok}
    _emit(payload, [columns] + [list(level) for level in levels], args)
    return 0 if ok else 1


def cmd_extend(args):
    obj = jsonio.read_json(args.family)
    _inject_tol(obj, args.tol)
    fam = jsonio.measure_family_from_obj(obj)
    mu = kolmogorov_extend(fam)
    d = fam.diagram
    residuals = {
        str(i): scalar.to_json(tv_distance(pushforward(mu, d.to_top(i)), fam.family[i]))
        for i in d.elements
    }
    left = rn_derivative(mu)
    right = martingale_limit(rn_family(fam))
    square = l1_distance(left, right)
    ok = scalar.eq(square, mu.space.zero, mu.space.tol)
    payload = {
        "extension": scalar.scaled_to_json(*mu._scaled),
        "atoms": [str(a) for a in mu.space.atoms],
        "restriction_residuals": residuals,
        "density_square_residual": scalar.to_json(square),
        "ok": ok,
    }
    rows = [["level", "restriction_residual"]] + [
        [k, v] for k, v in residuals.items()
    ] + [["density_square_residual", scalar.to_json(square)]]
    _emit(payload, rows, args)
    return 0 if ok else 1


def cmd_mapdist(args):
    f = jsonio.map_from_obj(jsonio.read_json(args.first))
    g = jsonio.map_from_obj(jsonio.read_json(args.second))
    try:
        scale = scalar.coerce("1" if args.bound is None else args.bound, f.src.backend)
    except (ValueError, ZeroDivisionError):
        scale = None
    if scale is None or scale <= 0:
        raise CatprobError("--bound must be a positive 'num/den', not %r" % (args.bound,))
    d = map_distance(f, g, scale=scale)
    payload = {
        "distance": scalar.to_json(d), "scale": scalar.to_json(scale), "as_equal": as_equal(f, g)
    }
    rows = [["distance", "scale", "as_equal"], [payload[k] for k in ("distance", "scale", "as_equal")]]
    _emit(payload, rows, args)
    return 0


def cmd_metcat(args):
    obj = jsonio.read_json(args.space)
    space = jsonio.metspace_from_obj(obj)  # construction runs the full axiom scan
    reflected, _ = metric_reflection(space)
    payload = {
        "points": space.size,
        "axioms_ok": True,
        "reflection_points": reflected.size,
        "identified_pairs": space.size - reflected.size,
    }
    rows = [["points", "axioms_ok", "reflection_points"],
            [space.size, True, reflected.size]]
    _emit(payload, rows, args)
    return 0


def cmd_check(suite, args):
    """Run `suites.<suite>`, looked up at call time, and report it."""
    if args.trials < 0:
        raise CatprobError("--trials must be an int >= 0, not %r" % (args.trials,))
    report = getattr(suites, suite)(args.seed, args.trials, backend=_backend())
    columns = ["id", "statement", "trials", "failures", "worst"]
    rows = [[getattr(c, k) for k in columns] for c in report.checks]
    payload = {
        "command": report.name,
        "seed": report.seed,
        "backend": report.backend,
        "ok": report.ok,
        "checks": [dict(zip(columns, row)) for row in rows],
    }
    _emit(payload, [columns] + rows, args)
    if not report.ok:
        sys.stderr.write("failing checks: %s\n" % ", ".join(report.failing_ids()))
        return 1
    return 0


_TOL = ("--tol", {"type": float, "default": scalar.DEFAULT_TOL})
_SUITE = [("--seed", {"type": int, "default": 0}), ("--trials", {"type": int, "default": 500})]

#: name -> (handler, help, the subcommand's own options); all take --format and --out
_COMMANDS = {
    "rn": (cmd_rn, "density of a measure plus roundtrip residual",
           [("--measure", {"required": True}), ("--space", {"default": None}), _TOL]),
    "condexp": (cmd_condexp, "conditional expectation along a map",
                [("--rv", {"required": True}), ("--map", {"required": True}), _TOL]),
    "martingale": (cmd_martingale, "dyadic convergence experiment", [
        ("--ground", {"default": "identity",
                      "help": "identity|constant|tent or a JSON file of breakpoints/values"}),
        ("--depth", {"type": int, "default": 8}),
    ]),
    "extend": (cmd_extend, "extend a consistent measure family to the top",
               [("--family", {"required": True}), _TOL]),
    "mapdist": (cmd_mapdist, "metric between two parallel maps", [
        ("--first", {"required": True}),
        ("--second", {"required": True}),
        ("--bound", {"default": None, "help": "bound/scale factor as 'num/den'"}),
    ]),
    "metcat": (cmd_metcat, "axiom scan for a finite pseudometric space",
               [("--space", {"required": True})]),
    "check-appendix": (functools.partial(cmd_check, "second_moment_suite"),
                       "second-moment identity suite", _SUITE),
    "check-naturality": (functools.partial(cmd_check, "naturality_suite"),
                         "density/measure correspondence suite", _SUITE),
    "check-lipschitz": (functools.partial(cmd_check, "lipschitz_suite"),
                        "map-metric estimate suite", _SUITE),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="catprob",
        description="Exact calculus on finite probability spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
    return parser


_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CatprobError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
