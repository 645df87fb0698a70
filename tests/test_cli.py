import argparse
import contextlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catprob import cli, jsonio, suites
from catprob.cli import main
from catprob.diagram import DyadicGround, make_dyadic, restrict_measure
from catprob.finmeas import make_measure
from catprob.finprob import identity_map, make_map, make_space, uniform_space
from catprob.finrv import MAX_RESIDUAL_TARGET, make_rv
import contract
from test_jsonio import mutated


@pytest.fixture
def skew_measure_file(tmp_path):
    s = make_space(["a", "b"], ["1/4", "3/4"])
    mu = make_measure(s, ["1/8", "1/2"])
    path = tmp_path / "measure.json"
    jsonio.write_json(jsonio.measure_to_obj(mu), str(path))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rn_roundtrip(skew_measure_file, capsys):
    code, out = run(capsys, "rn", "--measure", skew_measure_file)
    payload = json.loads(out)
    assert code == 0
    assert payload["derivative"] == ["1/2", "2/3"]
    assert payload["roundtrip_residual"] == "0"


def test_condexp_reports_zero_residuals(tmp_path, capsys):
    u4, u2 = uniform_space(4), uniform_space(2)
    pair = make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})
    jsonio.write_json(jsonio.map_to_obj(pair), str(tmp_path / "map.json"))
    jsonio.write_json(
        jsonio.rv_to_obj(make_rv(u4, [0, 1, 2, 3])), str(tmp_path / "rv.json")
    )
    code, out = run(
        capsys, "condexp", "--rv", str(tmp_path / "rv.json"), "--map", str(tmp_path / "map.json")
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["values"] == ["1/2", "5/2"]
    assert all(d["residual"] == "0" for d in payload["subset_residuals"])


def test_martingale_csv_matches_closed_form(capsys):
    code, out = run(
        capsys, "martingale", "--ground", "identity", "--depth", "8", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "depth,l1_error,second_moment,gap"
    for row in lines[1:]:
        depth, l1_error, _, _ = row.split(",")
        assert F(l1_error) == F(1, 2 ** (int(depth) + 2))


def test_extend_roundtrip(tmp_path, capsys):
    d, _ = make_dyadic(DyadicGround.affine(0, 1), 2)
    mu = make_measure(d.spaces[2], ["1/8", "1/16", "1/4", "1/8"])
    fam = restrict_measure(mu, d)
    jsonio.write_json(jsonio.measure_family_to_obj(fam), str(tmp_path / "fam.json"))
    code, out = run(capsys, "extend", "--family", str(tmp_path / "fam.json"))
    payload = json.loads(out)
    assert code == 0
    assert payload["extension"] == ["1/8", "1/16", "1/4", "1/8"]
    assert payload["density_square_residual"] == "0"


def test_mapdist_worked_example(tmp_path, capsys):
    u4, u2 = uniform_space(4), uniform_space(2)
    f = make_map(u4, u2, {w: w % 2 for w in range(4)})
    g = make_map(u4, u2, {w: w // 2 for w in range(4)})
    jsonio.write_json(jsonio.map_to_obj(f), str(tmp_path / "f.json"))
    jsonio.write_json(jsonio.map_to_obj(g), str(tmp_path / "g.json"))
    code, out = run(
        capsys,
        "mapdist", "--first", str(tmp_path / "f.json"), "--second", str(tmp_path / "g.json"),
        "--bound", "3/2",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["distance"] == "3/4"
    assert payload["as_equal"] is False


def test_metcat_scan(tmp_path, capsys):
    obj = {"points": ["a", "b", "c"], "dist": [["0", "1", "1"], ["1", "0", "0"], ["1", "0", "0"]]}
    jsonio.write_json(obj, str(tmp_path / "space.json"))
    code, out = run(capsys, "metcat", "--space", str(tmp_path / "space.json"))
    payload = json.loads(out)
    assert code == 0
    assert payload["axioms_ok"] is True
    assert payload["reflection_points"] == 2


def test_metcat_rejects_bad_table(tmp_path, capsys):
    obj = {"points": ["a", "b"], "dist": [["0", "1"], ["2", "0"]]}
    jsonio.write_json(obj, str(tmp_path / "space.json"))
    code = main(["metcat", "--space", str(tmp_path / "space.json")])
    assert code == 2


def test_metcat_malformed_points_is_parse_error(tmp_path, capsys):
    obj = {"points": 3, "dist": [["0"]]}
    jsonio.write_json(obj, str(tmp_path / "space.json"))
    code = main(["metcat", "--space", str(tmp_path / "space.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_suites_pass(capsys):
    for cmd in ("check-appendix", "check-naturality", "check-lipschitz"):
        code, out = run(capsys, cmd, "--seed", "42", "--trials", "40")
        payload = json.loads(out)
        assert code == 0, cmd
        assert payload["ok"] is True


@pytest.mark.parametrize("command", ["check-appendix", "check-naturality", "check-lipschitz"])
@pytest.mark.parametrize("trials", ["-1", "-3"])
def test_negative_trials_is_error(monkeypatch, capsys, command, trials):
    """No suite runs and no report is written; zero trials is still a report."""
    monkeypatch.setattr(suites, "naturality_suite", None)  # any suite call would raise
    monkeypatch.setattr(suites, "second_moment_suite", None)
    monkeypatch.setattr(suites, "lipschitz_suite", None)
    assert main([command, "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --trials must be an int >= 0, not %s\n" % trials
    monkeypatch.undo()
    code, out = run(capsys, command, "--trials", "0")
    assert code == 0 and all(c["trials"] == 0 for c in json.loads(out)["checks"])


@pytest.mark.parametrize(
    "command, suite",
    [("check-appendix", "second_moment_suite"), ("check-naturality", "naturality_suite"),
     ("check-lipschitz", "lipschitz_suite")],
)
def test_check_commands_look_their_suite_up_at_call_time(monkeypatch, capsys, command, suite):
    """A suite rebound on `suites` after the parser is built is the one that runs."""
    main([command, "--trials", "1"])  # the cached parser exists before the patch
    capsys.readouterr()
    calls, real = [], getattr(suites, suite)

    def patched(seed, trials, backend):
        calls.append((seed, trials, backend))
        return real(seed, trials, backend=backend)

    monkeypatch.setattr(suites, suite, patched)
    monkeypatch.setenv("CATPROB_BACKEND", "float")
    code, out = run(capsys, command, "--seed", "3", "--trials", "2")
    assert code == 0 and calls == [(3, 2, "float")]
    assert json.loads(out)["checks"][0]["trials"] == 2


def test_reports_are_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        assert main(["check-lipschitz", "--seed", "7", "--trials", "25", "--out", path]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_float_backend_env(capsys, monkeypatch):
    monkeypatch.setenv("CATPROB_BACKEND", "float")
    code, out = run(capsys, "check-naturality", "--seed", "3", "--trials", "25")
    payload = json.loads(out)
    assert code == 0
    assert payload["backend"] == "float"


def test_seed_changes_report(capsys):
    _, out1 = run(capsys, "check-appendix", "--seed", "1", "--trials", "10")
    _, out2 = run(capsys, "check-appendix", "--seed", "1", "--trials", "10")
    assert out1 == out2


def test_rn_with_separate_space_file(tmp_path, capsys):
    s = make_space(["a", "b"], ["1/4", "3/4"])
    jsonio.write_json(jsonio.space_to_obj(s), str(tmp_path / "space.json"))
    jsonio.write_json({"mass": ["1/8", "1/2"]}, str(tmp_path / "mu.json"))
    code, out = run(
        capsys,
        "rn", "--measure", str(tmp_path / "mu.json"), "--space", str(tmp_path / "space.json"),
    )
    assert code == 0
    assert json.loads(out)["derivative"] == ["1/2", "2/3"]


def test_out_flag_writes_file(tmp_path, skew_measure_file):
    target = tmp_path / "report.json"
    assert main(["rn", "--measure", skew_measure_file, "--out", str(target)]) == 0
    assert json.loads(target.read_text())["roundtrip_residual"] == "0"


def _exit_and_error(tmp_path, capsys, name, obj, *argv):
    path = str(tmp_path / name)
    jsonio.write_json(obj, path)
    code = main([a if a != "FILE" else path for a in argv])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("doc", [5, None, True, [], 1.5, "space"])
def test_condexp_rv_document_that_is_not_an_object(tmp_path, capsys, doc):
    # no field of a document that is not an object is read, so a string is not searched
    u4, u2 = uniform_space(4), uniform_space(2)
    jsonio.write_json(jsonio.map_to_obj(make_map(u4, u2, {0: 0, 1: 0, 2: 1, 3: 1})), str(tmp_path / "m.json"))
    code, err = _exit_and_error(
        tmp_path, capsys, "r.json", doc, "condexp", "--rv", "FILE", "--map", str(tmp_path / "m.json")
    )
    assert code == 2
    assert err == "error: rv: missing field 'values'\n"


def test_condexp_caps_the_subset_report(tmp_path, capsys):
    """A target past the library's cap is refused, after the conditional
    expectation is taken, with the report's own words."""
    n = MAX_RESIDUAL_TARGET + 1
    u = uniform_space(n)
    jsonio.write_json(jsonio.map_to_obj(identity_map(u)), str(tmp_path / "m.json"))
    code, err = _exit_and_error(
        tmp_path, capsys, "r.json", jsonio.rv_to_obj(make_rv(u, [1] * n)),
        "condexp", "--rv", "FILE", "--map", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert err == "error: target has %d atoms; subset report capped at %d\n" % (n, n - 1)


@pytest.mark.parametrize("weights", [5, None])
@pytest.mark.parametrize("command", ["rn", "condexp --map", "condexp --rv", "extend"])
def test_weights_that_are_not_an_array_are_a_parse_error(tmp_path, capsys, command, weights):
    # no space has a tol, so the CLI looks for float weights before a decoder runs
    bad, good = {"atoms": [0], "weights": weights}, {"atoms": [0], "weights": ["1"]}
    rv = {"space": good, "values": ["1"]}
    m = {"src": good, "dst": good, "assign": {"0": 0}}
    if command == "rn":
        doc, argv, where = {"space": bad, "mass": ["1"]}, ["rn", "--measure", "FILE"], "measure.space"
    elif command == "extend":
        doc = _dyadic_family_obj(["1/8", "1/16", "1/4", "1/8"])
        doc["diagram"]["spaces"]["0"] = bad
        argv, where = ["extend", "--family", "FILE"], "measure family.diagram.spaces[0]"
    else:
        if command == "condexp --map":
            m["src"], where = bad, "map.src"
        else:
            rv["space"], where = bad, "rv.space"
        jsonio.write_json(m, str(tmp_path / "m.json"))
        doc, argv = rv, ["condexp", "--rv", "FILE", "--map", str(tmp_path / "m.json")]
    code, err = _exit_and_error(tmp_path, capsys, "doc.json", doc, *argv)
    assert code == 2
    assert err == "error: %s: field 'weights' must be an array\n" % where


def test_metcat_tol_true_is_parse_error(tmp_path, capsys):
    obj = {"points": ["a", "b"], "dist": [["0", "1"], ["2", "0"]], "tol": True}
    code, err = _exit_and_error(tmp_path, capsys, "space.json", obj, "metcat", "--space", "FILE")
    assert code == 2
    assert err.startswith("error: ") and "tol must be" in err


def test_metcat_dist_row_string_is_parse_error(tmp_path, capsys):
    # a row must be an array: "01" is not the distances 0 and 1
    obj = {"points": ["a", "b"], "dist": ["01", "10"]}
    code, err = _exit_and_error(tmp_path, capsys, "space.json", obj, "metcat", "--space", "FILE")
    assert code == 2
    assert err.startswith("error: ") and "'dist' must be an array of arrays" in err


def test_rn_atoms_not_a_list_is_parse_error(tmp_path, capsys):
    obj = {"space": {"atoms": 3, "weights": ["1"]}, "mass": ["1"]}
    code, err = _exit_and_error(tmp_path, capsys, "mu.json", obj, "rn", "--measure", "FILE")
    assert code == 2
    assert err.startswith("error: ")


def test_mapdist_assign_list_is_parse_error(tmp_path, capsys):
    s = make_space(["a", "b"], ["1/2", "1/2"])
    obj = jsonio.map_to_obj(make_map(s, s, {"a": "a", "b": "b"}))
    jsonio.write_json(obj, str(tmp_path / "ok.json"))
    obj["assign"] = ["a", "b"]
    code, err = _exit_and_error(
        tmp_path, capsys, "f.json", obj, "mapdist", "--first", "FILE",
        "--second", str(tmp_path / "ok.json"),
    )
    assert code == 2
    assert err.startswith("error: ")


def test_extend_three_entry_leq_pair_is_parse_error(tmp_path, capsys):
    d, _ = make_dyadic(DyadicGround.affine(0, 1), 2)
    mu = make_measure(d.spaces[2], ["1/8", "1/16", "1/4", "1/8"])
    obj = jsonio.measure_family_to_obj(restrict_measure(mu, d))
    obj["diagram"]["leq"][0].append(0)
    code, err = _exit_and_error(tmp_path, capsys, "fam.json", obj, "extend", "--family", "FILE")
    assert code == 2
    assert err.startswith("error: ")


def _dyadic_family_obj(mass):
    d, _ = make_dyadic(DyadicGround.affine(0, 1), 2)
    return jsonio.measure_family_to_obj(restrict_measure(make_measure(d.spaces[2], mass), d))


def test_extend_zero_bound_is_the_familys_error(tmp_path, capsys):
    obj = _dyadic_family_obj(["1/8", "1/16", "1/4", "1/8"])
    obj["bound"] = "0"
    code, err = _exit_and_error(tmp_path, capsys, "fam.json", obj, "extend", "--family", "FILE")
    assert code == 2
    assert err == "error: measure family: level 0 exceeds bound * base weights\n"


def test_rn_mass_string_is_parse_error(tmp_path, capsys):
    # a string is not an array of one-character masses
    obj = {"space": {"atoms": ["a", "b"], "weights": ["1/2", "1/2"]}, "mass": "11"}
    code, err = _exit_and_error(tmp_path, capsys, "mu.json", obj, "rn", "--measure", "FILE")
    assert code == 2
    assert err.startswith("error: ")


def test_extend_level_string_is_parse_error(tmp_path, capsys):
    obj = _dyadic_family_obj(["1/4"] * 4)
    assert obj["family"]["0"] == ["1"]
    obj["family"]["0"] = "1"
    code, err = _exit_and_error(tmp_path, capsys, "fam.json", obj, "extend", "--family", "FILE")
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize("bound", ["abc", "nan", "1/0", "-1", "0"])
def test_mapdist_bad_bound_is_error(tmp_path, capsys, bound):
    s = make_space(["a", "b"], ["1/2", "1/2"])
    obj = jsonio.map_to_obj(make_map(s, s, {"a": "a", "b": "b"}))
    code, err = _exit_and_error(
        tmp_path, capsys, "f.json", obj, "mapdist", "--first", "FILE", "--second", "FILE",
        "--bound", bound,
    )
    assert code == 2
    assert err.startswith("error: ") and "--bound" in err


@pytest.mark.parametrize(
    "obj",
    [
        {"breakpoints": [0, 1]},
        {"breakpoints": ["x", 1], "values": [0, 1]},
        [0, 1],
    ],
)
def test_martingale_malformed_ground_file_is_parse_error(tmp_path, capsys, obj):
    code, err = _exit_and_error(tmp_path, capsys, "g.json", obj, "martingale", "--ground", "FILE")
    assert code == 2
    assert err.startswith("error: ground: ")


def test_martingale_ground_file_matches_builtin(tmp_path, capsys):
    path = str(tmp_path / "tent.json")
    jsonio.write_json({"breakpoints": [0, "1/2", 1], "values": [0, 1, 0]}, path)
    _, from_file = run(capsys, "martingale", "--ground", path, "--depth", "4", "--format", "csv")
    _, builtin = run(capsys, "martingale", "--ground", "tent", "--depth", "4", "--format", "csv")
    assert from_file == builtin


def test_martingale_ground_file_rejects_bool_and_float(tmp_path, capsys):
    obj = {"breakpoints": [0, 1], "values": [True, 0.1]}
    code, err = _exit_and_error(
        tmp_path, capsys, "g.json", obj, "martingale", "--ground", "FILE", "--depth", "1"
    )
    assert code == 2
    assert err.startswith("error: ground: ")


#: the arguments each subcommand requires, and the options of its own
_REQUIRED = {
    "rn": ["--measure", "m.json"],
    "condexp": ["--rv", "r.json", "--map", "m.json"],
    "martingale": [],
    "extend": ["--family", "f.json"],
    "mapdist": ["--first", "f.json", "--second", "g.json"],
    "metcat": ["--space", "s.json"],
    "check-appendix": [],
    "check-naturality": [],
    "check-lipschitz": [],
}
_OWN = {
    "rn": {"--tol"},
    "condexp": {"--tol"},
    "extend": {"--tol"},
    "martingale": {"--depth"},
    "mapdist": {"--bound"},
    "check-appendix": {"--seed", "--trials"},
    "check-naturality": {"--seed", "--trials"},
    "check-lipschitz": {"--seed", "--trials"},
}


@pytest.mark.parametrize(
    "command, option",
    [
        (command, option)
        for command in _REQUIRED
        for option in ("--seed", "--trials", "--depth", "--bound", "--tol")
        if option not in _OWN.get(command, ())
    ],
)
def test_foreign_option_exits_2(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED[command], option, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % option in capsys.readouterr().err


def test_the_committed_corpus_pins_every_case_in_order():
    """`tests/contract/digests.txt` holds one line per case of `tests/contract.py`."""
    assert [line.split(" ", 3)[3] for line in contract.committed()] == [name for name, _, _ in contract.CASES]


@pytest.mark.parametrize("name, backend, argv", contract.CASES, ids=[name for name, _, _ in contract.CASES])
def test_reports_match_the_committed_corpus(name, backend, argv):
    """One case of `tests/contract.py`: its exit status and the digests of its
    stdout and stderr, as committed in `tests/contract/digests.txt`."""
    pinned = {line.split(" ", 3)[3]: line for line in contract.committed()}
    assert contract.line(name, backend, argv) == pinned.get(name)


def _counted_parsers(monkeypatch):
    """A counter of the `argparse.ArgumentParser`s constructed from here on."""
    built = {"n": 0}
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built["n"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_main_builds_its_parser_once(monkeypatch, capsys):
    assert main(["martingale", "--depth", "2"]) == 0
    built = _counted_parsers(monkeypatch)
    for ground in ("identity", "tent", "constant"):
        assert main(["martingale", "--ground", ground, "--depth", "2"]) == 0
    assert built["n"] == 0
    fresh = cli.build_parser()  # still a new parser, one per subcommand and the root
    assert built["n"] == 1 + len(cli._COMMANDS) and fresh is not cli._parser()


def test_options_do_not_leak_between_calls(tmp_path, capsys):
    _, csv_out = run(capsys, "martingale", "--depth", "2", "--format", "csv")
    _, json_out = run(capsys, "martingale", "--depth", "2")
    assert csv_out.startswith("depth,") and json.loads(json_out)["depth"] == 2
    target = tmp_path / "report.json"
    _, written = run(capsys, "martingale", "--depth", "2", "--out", str(target))
    _, printed = run(capsys, "martingale", "--depth", "2")
    assert written == "" and target.read_text() == printed == json_out


def _exit(capsys, call, argv):
    """(exit code, stdout, stderr) of one call that may exit."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv", [["--help"], ["martingale", "--help"], ["martingale", "--depth", "x"], []]
)
def test_help_and_usage_errors_repeat(argv, capsys):
    cli._parser.cache_clear()  # the first call builds the parser
    first = _exit(capsys, main, argv)
    assert first[0] in (0, 2) and first[1] + first[2]
    assert _exit(capsys, main, argv) == first == _exit(capsys, cli.build_parser().parse_args, argv)


def test_help_wraps_to_the_width_at_print_time(monkeypatch, capsys):
    texts = []
    for columns in ("60", "160"):
        monkeypatch.setenv("COLUMNS", columns)
        argv = ["martingale", "--help"]
        texts.append(_exit(capsys, main, argv))
        assert texts[-1] == _exit(capsys, cli.build_parser().parse_args, argv)
    (_, narrow, _), (_, wide, _) = texts
    assert max(map(len, narrow.splitlines())) <= 60 < max(map(len, wide.splitlines()))


# -- fuzzing: a mutated input file ends in a report or an `error:` line ----------------

_U4, _U2 = uniform_space(4), uniform_space(2)
_PAIR = make_map(_U4, _U2, {0: 0, 1: 0, 2: 1, 3: 1})
_SWAP = make_map(_U4, _U2, {0: 1, 1: 1, 2: 0, 3: 0})
_DYADIC, _ = make_dyadic(DyadicGround([0, F(1, 2), 1], [0, 1, 0]), 2)

#: subcommand -> (file option -> its valid document)
_SKEW = make_measure(make_space(["a", "b"], ["1/4", "3/4"]), ["1/8", "1/2"])
_FAMILY = restrict_measure(make_measure(_DYADIC.spaces[2], ["1/8", "1/4", "1/2", "3/8"]), _DYADIC)
_TABLE = [[0, "1/2", "inf"], ["1/2", 0, "inf"], ["inf", "inf", 0]]
_FUZZED = {
    "rn": {"--measure": jsonio.measure_to_obj(_SKEW)},
    "condexp": {"--rv": jsonio.rv_to_obj(make_rv(_U4, [0, 1, 2, 3])), "--map": jsonio.map_to_obj(_PAIR)},
    "extend": {"--family": jsonio.measure_family_to_obj(_FAMILY)},
    "mapdist": {"--first": jsonio.map_to_obj(_PAIR), "--second": jsonio.map_to_obj(_SWAP)},
    "metcat": {"--space": {"points": ["a", "b", "c"], "dist": _TABLE}},
    "martingale": {"--ground": {"breakpoints": [0, "1/2", 1], "values": [0, 1, "1/2"]}},
}


@pytest.mark.parametrize("command", _FUZZED)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_files_end_in_a_report_or_an_error_line(command, data, tmp_path):
    """No exception escapes `cli.main`; the status is 0 or 1 with a report, or
    2 with stderr starting `error:`."""
    docs = _FUZZED[command]
    bad = data.draw(st.sampled_from(sorted(docs)))
    argv = [command] + (["--depth", "4"] if command == "martingale" else [])
    for option, doc in docs.items():
        path = tmp_path / ("%s.json" % option.strip("-"))
        path.write_text(json.dumps(data.draw(mutated(doc)) if option == bad else doc))
        argv += [option, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
    else:
        assert out.getvalue()
