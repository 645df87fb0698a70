"""The report contract: fixed `catprob` invocations and the demos, pinned by sha256.

A CLI report is byte-identical for a given configuration and seed, and so is
each demo's output.  Each case below runs in-process from `tests/contract/`,
whose `inputs/` hold its documents, and its exit status and the sha256 of its
stdout and stderr are committed, one line per case, in
`tests/contract/digests.txt`.  A case that writes its report with `--out FILE`
runs it into a temporary directory, and the file's sha256 takes the place of
stdout's, which must be empty.  Stdlib only, so it runs on any installed Python:

    python tests/contract.py

It exits 0 when every case matches.  Otherwise it names each case that moved
on stderr, prints the whole new table on stdout and exits 1.  A moved digest
is a contract change: name it in CHANGES.md, then commit the new table.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "tests" / "contract"
DIGESTS = HERE / "digests.txt"

_SUITES = ("check-appendix", "check-naturality", "check-lipschitz")


def _cases():
    """(name, CATPROB_BACKEND or None, argv), in table order; a demo's argv is its path."""
    cases = []

    def add(*argv, backend=None):
        name = " ".join(argv) if backend is None else "CATPROB_BACKEND=%s %s" % (backend, " ".join(argv))
        cases.append((name, backend, list(argv)))

    for fmt in ("json", "csv"):
        for ground in ("identity", "constant", "tent", "inputs/kinked_ground.json"):
            for depth in ("0", "12"):
                add("martingale", "--ground", ground, "--depth", depth, "--format", fmt)
        add("martingale", "--format", fmt)
        add("rn", "--measure", "inputs/skew_measure.json", "--format", fmt)
        add("rn", "--measure", "inputs/tuple_measure.json", "--format", fmt)
        add("rn", "--measure", "inputs/float_measure.json", "--format", fmt)
        add("rn", "--measure", "inputs/skew_mass.json", "--space", "inputs/skew_space.json", "--format", fmt)
        add("condexp", "--rv", "inputs/u4_rv.json", "--map", "inputs/pair_map.json", "--format", fmt)
        add("condexp", "--rv", "inputs/labelled_values.json", "--map", "inputs/labelled_map.json",
            "--format", fmt)
        add("condexp", "--rv", "inputs/float_rv.json", "--map", "inputs/float_map.json", "--format", fmt)
        add("extend", "--family", "inputs/dyadic_family.json", "--format", fmt)
        add("extend", "--family", "inputs/labelled_family.json", "--format", fmt)
        add("extend", "--family", "inputs/float_family.json", "--format", fmt)
        add("mapdist", "--first", "inputs/pair_map.json", "--second", "inputs/swap_map.json", "--format", fmt)
        add("mapdist", "--first", "inputs/pair_map.json", "--second", "inputs/swap_map.json",
            "--bound", "3/2", "--format", fmt)
        add("mapdist", "--first", "inputs/float_map.json", "--second", "inputs/float_swap_map.json",
            "--format", fmt)
        add("metcat", "--space", "inputs/inf_table.json", "--format", fmt)
        add("metcat", "--space", "inputs/float_table.json", "--format", fmt)
    add("rn", "--measure", "inputs/loose_measure.json")  # weights 1e-6 off 1: exit 2 at the default tol
    add("rn", "--measure", "inputs/loose_measure.json", "--tol", "1e-3")
    for backend in ("exact", "float"):
        for suite in _SUITES:
            for seed in ("0", "7"):
                add(suite, "--seed", seed, "--trials", "200", backend=backend)
            add(suite, "--seed", "3", "--trials", "50", "--format", "csv", backend=backend)
    # failing inputs: exit status 2 and one `error:` line
    add("rn", "--measure", "inputs/bad_literal_measure.json")
    add("rn", "--measure", "inputs/bad_literal_weights.json")
    add("metcat", "--space", "inputs/bad_literal_table.json")
    add("martingale", "--ground", "inputs/bad_literal_ground.json")
    add("martingale", "--ground", "inputs/bool_ground.json")
    add("martingale", "--depth", "19")
    add("metcat", "--space", "inputs/asymmetric_table.json")
    add("mapdist", "--first", "inputs/pair_map.json", "--second", "inputs/not_preserving_map.json")
    add("mapdist", "--first", "inputs/pair_map.json", "--second", "inputs/swap_map.json", "--bound", "abc")
    for doc in ("negative_image", "mixed_backend", "extra_key", "missing_key", "alike_labels"):
        add("mapdist", "--first", "inputs/pair_map.json", "--second", "inputs/%s_map.json" % doc)
    add("mapdist", "--first", "inputs/bool_image_map.json", "--second", "inputs/swap_map.json")
    add("extend", "--family", "inputs/zero_bound_family.json")
    add("condexp", "--rv", "inputs/number.json", "--map", "inputs/pair_map.json")
    add("condexp", "--rv", "inputs/negative_values.json", "--map", "inputs/labelled_map.json")
    add("rn", "--measure", "inputs/broken.json")
    add("rn", "--measure", "inputs/missing.json")
    add("check-naturality", "--trials", "-3")
    add("check-appendix", "--trials", "1", backend="nonsense")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        add("demos/" + demo.name)
    # 1,024 subsets each, on 20 source atoms of unequal weight (the exact one with a null target atom)
    add("condexp", "--rv", "inputs/wide_values.json", "--map", "inputs/wide_map.json", "--format", "json")
    add("condexp", "--rv", "inputs/wide_float_values.json", "--map", "inputs/wide_float_map.json",
        "--format", "json")
    for fmt in ("json", "csv"):  # the same bytes as the report on stdout
        add("martingale", "--ground", "tent", "--depth", "12", "--format", fmt, "--out", "FILE")
    return cases


CASES = _cases()


def _run(backend, argv):
    """Exit status, stdout and stderr of one case, run in `tests/contract/`; for
    an `--out FILE` case, the file's text in place of stdout, when stdout is empty."""
    from catprob import cli

    out, err = io.StringIO(), io.StringIO()
    cwd, env = os.getcwd(), os.environ.pop("CATPROB_BACKEND", None)
    tmp = tempfile.TemporaryDirectory() if "FILE" in argv else None
    path = tmp and os.path.join(tmp.name, "report")
    try:
        os.chdir(HERE)
        if backend is not None:
            os.environ["CATPROB_BACKEND"] = backend
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if argv[0].startswith("demos/"):
                runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
                status = 0
            else:
                status = cli.main([path if a == "FILE" else a for a in argv])
    finally:
        os.chdir(cwd)
        os.environ.pop("CATPROB_BACKEND", None)
        if env is not None:
            os.environ["CATPROB_BACKEND"] = env
    text = out.getvalue()
    if tmp is not None:  # a report on stdout as well moves the line
        with tmp:
            text = Path(path).read_bytes().decode() if not text else "stdout: " + text
    return status, text, err.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def line(name, backend, argv):
    """The digest line of one case, as this tree gives it."""
    status, out, err = _run(backend, argv)
    return "%d %s %s %s" % (status, _sha(out), _sha(err), name)


def table():
    """The digest line of every case, as this tree gives them."""
    return [line(*case) for case in CASES]


def committed():
    """The committed digest lines."""
    return DIGESTS.read_text(encoding="utf-8").splitlines() if DIGESTS.exists() else []


def main():
    new, old = table(), committed()
    if new == old:
        print("%d cases match %s" % (len(new), DIGESTS.relative_to(ROOT)), file=sys.stderr)
        return 0
    pinned = {line.split(" ", 3)[3]: line for line in old}
    for line in new:
        if pinned.pop(line.split(" ", 3)[3], None) != line:
            print("moved: %s" % line, file=sys.stderr)
    for line in pinned.values():
        print("gone: %s" % line, file=sys.stderr)
    print("\n".join(new))
    return 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
