import hashlib
import json
from fractions import Fraction as F

import pytest

from catprob import jsonio
from catprob.cli import main
from catprob.diagram import DyadicGround, make_dyadic, restrict_measure
from catprob.finmeas import make_measure
from catprob.finprob import make_map, make_space, uniform_space
from catprob.finrv import make_rv


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


#: sha256 of the `martingale --depth 12` report per ground and format, as
#: the label-keyed maps gave it
_MARTINGALE_REPORTS = {
    ("identity", "json"): "05260a10fb581369e911202074db0e3adf36bde2232e88ad704c1431076ea049",
    ("identity", "csv"): "3fe48689cf6db3cb3b09b309e5eee17683656cff60c615284ffc2631df8b2fda",
    ("tent", "json"): "8a3274fcbe5201c25a4c0f2d0615c3c153de5a8c9463dce864b45d13df86ed4b",
    ("tent", "csv"): "ef4040faa26ff702f2d795abcbf78c2be2d7ae6fda6de9f7a54e608794868052",
    ("constant", "json"): "89b33d2a3139e2e76659cdda3ffb77bd92edb11993831b09511b590b1b983012",
    ("constant", "csv"): "d16b8a3f51afec4c0266e513e9bc8020c4a5b398cd93cead34147055d2add083",
}


@pytest.mark.parametrize("ground, fmt", sorted(_MARTINGALE_REPORTS))
def test_martingale_report_bytes_are_pinned(capsys, ground, fmt):
    code, out = run(capsys, "martingale", "--ground", ground, "--depth", "12", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _MARTINGALE_REPORTS[(ground, fmt)]
