"""Command-line interface: reports, exit codes, reproducibility."""

import copy
import json

import pytest

from weylift import BracketFlavor, Endo, QQ, parse_element
from weylift.cli import main, run_command
from weylift.serialize import dump_json, endo_to_json, load_json, object_from_json

FL1 = BracketFlavor("standard", 1)


def pelt(text):
    return parse_element(text, QQ, FL1, "P")


def shear_file(tmp_path, name="sig.json"):
    path = tmp_path / name
    dump_json(endo_to_json(Endo("P", FL1, QQ, [pelt("x1 + p1^2"), pelt("p1")])), str(path))
    return str(path)


def weyl_file(tmp_path, name="xd.json"):
    from weylift.weyl import WeylElt

    x, d = WeylElt.generator(QQ, FL1, 0), WeylElt.generator(QQ, FL1, 1)
    path = tmp_path / name
    dump_json(endo_to_json(Endo("W", FL1, QQ, [x + d, d])), str(path))
    return str(path)


def test_report_shape(tmp_path):
    rep, code = run_command(["check", "--endo", shear_file(tmp_path)])
    assert code == 0
    assert rep["schema"] == "weylift/1"
    assert rep["command"] == "check"
    assert set(rep) >= {"schema", "command", "inputs_digest", "result", "verification", "timing_ms"}
    assert rep["result"]["symplecto"] is True


def test_check_failure_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    dump_json(endo_to_json(Endo("P", FL1, QQ, [pelt("2*x1"), pelt("p1")])), str(path))
    rep, code = run_command(["check", "--endo", str(path)])
    assert code == 2
    assert rep["result"]["symplecto"] is False


def test_usage_errors(tmp_path):
    _, code = run_command(["check", "--endo", str(tmp_path / "missing.json")])
    assert code == 1
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    _, code = run_command(["check", "--endo", str(bad)])
    assert code == 1
    _, code = run_command(["nonsense"])
    assert code == 1
    _, code = run_command(["corpus", "--count", "2"])  # --seed required
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["invert", "--in", "{missing}"],
        ["invert", "--in", "{broken}", "--order", "3"],
        ["bracket", "x1", "p1", "--field", "abc"],
        ["bracket", "x1", "p1", "--field", "4"],
        ["bracket", "x1", "p1", "--field", "7:x"],
        ["bracket", "x1", "p1", "--field", "7:2"],
        ["lift", "--in", "{shear}", "--order", "4", "--primes", "3,x"],
        ["lift", "--in", "{shear}", "--order", "4", "--primes", "3,4"],
        ["phi-p", "--in", "{weyl}", "--prime", "4"],
        ["phi-p", "--in", "{weyl}", "--prime", "1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_input_is_usage_error(tmp_path, argv):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    paths = {
        "missing": str(tmp_path / "missing.json"),
        "broken": str(broken),
        "shear": shear_file(tmp_path),
        "weyl": weyl_file(tmp_path),
    }
    rep, code = run_command([arg.format(**paths) for arg in argv])
    assert code == 1
    assert set(rep) == {"schema", "error"}
    assert set(rep["error"]) == {"usage"}
    assert isinstance(rep["error"]["usage"], str)


def test_field_flags_accepted():
    for field, expected in (("Q", "-1"), ("7", "6")):
        rep, code = run_command(["bracket", "x1", "p1", "--n", "1", "--field", field])
        assert code == 0
        assert rep["result"]["bracket"] == expected


def test_compose(tmp_path):
    a = shear_file(tmp_path, "a.json")
    b = tmp_path / "b.json"
    dump_json(endo_to_json(Endo("P", FL1, QQ, [pelt("x1"), pelt("p1 + x1^2")])), str(b))
    out = tmp_path / "out.json"
    rep, code = run_command(["compose", a, str(b), "--out", str(out)])
    assert code == 0
    combined = object_from_json(load_json(str(out)))
    lhs = Endo("P", FL1, QQ, [pelt("x1 + p1^2"), pelt("p1")])
    rhs = Endo("P", FL1, QQ, [pelt("x1"), pelt("p1 + x1^2")])
    assert combined.images == lhs.compose(rhs).images


def test_invert_endo(tmp_path):
    rep, code = run_command(["invert", "--endo", shear_file(tmp_path), "--order", "6"])
    assert code == 0
    assert rep["result"]["endo"]["images"] == ["-p1^2 + x1", "p1"]
    assert rep["verification"]["two_sided"] is True


def test_approximate(tmp_path):
    rep, code = run_command(["approximate", "--endo", shear_file(tmp_path), "--order", "5"])
    assert code == 0
    assert rep["result"]["report"]["residual_height"] is None
    assert rep["result"]["word"]["gens"]


def test_phi_p(tmp_path):
    path = weyl_file(tmp_path)
    rep, code = run_command(["phi-p", "--endo", path, "--prime", "2"])
    assert code == 0
    assert rep["result"]["images"] == ["z1 + w1 + 1", "w1"]
    rep, code = run_command(["phi-p", "--endo", path, "--prime", "3"])
    assert code == 0
    assert rep["result"]["images"] == ["z1 + w1"][:1] + ["w1"]


def test_phi_p_rejects_commutative_input(tmp_path):
    rep, code = run_command(["phi-p", "--endo", shear_file(tmp_path), "--prime", "2"])
    assert code == 2


def test_lift(tmp_path):
    rep, code = run_command([
        "lift", "--endo", shear_file(tmp_path), "--order", "4", "--primes", "2,5",
    ])
    assert code == 0
    assert rep["result"]["certificate"]["pass"] is True
    assert rep["result"]["endo"]["images"] == ["d1^2 + x1", "d1"]


def test_singscan(tmp_path):
    sig = shear_file(tmp_path)
    rep, code = run_command(["singscan", "--endo", sig, "--order", "3"])
    assert code == 0
    assert rep["result"]["verdict"] == "PoleWitness"
    assert rep["result"]["curve"] == [3, 1]
    rep, code = run_command(["singscan", "--endo", sig, "--order", "1"])
    assert code == 0
    assert rep["result"]["verdict"] == "ConsistentWithHN"
    _, code = run_command(["singscan", "--endo", sig, "--order", "3", "--samples", "5"])
    assert code == 1  # --samples without --seed
    rep, code = run_command([
        "singscan", "--endo", sig, "--order", "3", "--samples", "5", "--seed", "1",
    ])
    assert code == 0


def test_bracket():
    rep, code = run_command(["bracket", "p1", "x1", "--n", "1"])
    assert code == 0
    assert rep["result"]["bracket"] == "1"
    rep, code = run_command(["bracket", "x1", "p1", "--n", "1", "--field", "5"])
    assert code == 0
    assert rep["result"]["bracket"] == "4"
    _, code = run_command(["bracket", "x1 + q2", "p1", "--n", "1"])
    assert code == 1
    _, code = run_command(["bracket", "x1 +", "p1", "--n", "1"])
    assert code == 1


def test_bracket_weyl_side():
    rep, code = run_command(["bracket", "d1", "x1", "--side", "W", "--n", "1"])
    assert code == 0
    assert rep["result"]["bracket"] == "1"
    rep, code = run_command(["bracket", "d1", "x1", "--side", "W", "--flavor", "haug", "--n", "1"])
    assert code == 0
    assert rep["result"]["bracket"] == "h"


def test_corpus_reproducible(tmp_path):
    args = ["corpus", "--seed", "11", "--count", "3", "--n", "1", "--length", "3", "--maxdeg", "2"]
    rep1, code1 = run_command(args)
    rep2, code2 = run_command(args)
    assert code1 == code2 == 0
    a, b = copy.deepcopy(rep1), copy.deepcopy(rep2)
    a.pop("timing_ms"), b.pop("timing_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    rep3, _ = run_command(["corpus", "--seed", "12", "--count", "3", "--n", "1", "--length", "3", "--maxdeg", "2"])
    assert rep3["result"] != rep1["result"]


def test_round_trip_through_files(tmp_path):
    rep, _ = run_command(["corpus", "--seed", "11", "--count", "2", "--n", "1", "--length", "3", "--maxdeg", "2"])
    for entry in rep["result"]["items"]:
        path = tmp_path / "e.json"
        path.write_text(json.dumps(entry["endo"]))
        back, code = run_command(["check", "--endo", str(path)])
        assert code == 0
        assert back["result"]["symplecto"] is True


def test_main_exit_and_stdout(tmp_path, capsys):
    code = main(["check", "--endo", shear_file(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    parsed = json.loads(out)
    assert parsed["command"] == "check"


def test_inputs_digest_stable(tmp_path):
    sig = shear_file(tmp_path)
    rep1, _ = run_command(["singscan", "--endo", sig, "--order", "2"])
    rep2, _ = run_command(["singscan", "--endo", sig, "--order", "2"])
    assert rep1["inputs_digest"] == rep2["inputs_digest"]
    rep3, _ = run_command(["singscan", "--endo", sig, "--order", "3"])
    assert rep3["inputs_digest"] != rep1["inputs_digest"]
