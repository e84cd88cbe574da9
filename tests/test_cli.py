"""Command-line interface: reports, exit codes, reproducibility."""

import copy
import hashlib
import json
from fractions import Fraction

import pytest

from weylift import BracketFlavor, Endo, QQ, parse_element
from weylift.cli import main, run_command
from weylift.serialize import dump_json, endo_from_json, endo_to_json, load_json
from weylift.tame import ElementaryGen, TameWord, evaluate, random_tame

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
        ["bracket", "--", "1/0", "x1"],
        ["bracket", "--field", "7", "--", "1/7", "x1"],
        ["check", "--in", "{zero_den_endo}"],
        ["invert", "--in", "{zero_den_word}"],
        ["bracket", "x1", "p1", "--n", "0"],
        ["corpus", "--seed", "1", "--n", "0"],
        ["corpus", "--seed", "1", "--count", "-1"],
        ["corpus", "--seed", "1", "--length", "-1"],
        ["corpus", "--seed", "1", "--maxdeg", "-3"],
        ["corpus", "--seed", "1", "--maxdeg", "0"],
        ["approximate", "--in", "{shear}", "--order", "-2"],
        ["invert", "--in", "{shear}", "--order", "-1"],
        ["singscan", "--in", "{shear}", "--order", "-1"],
        ["singscan", "--in", "{shear}", "--order", "2", "--samples", "-3", "--seed", "1"],
        ["lift", "--in", "{shear}", "--order", "1"],
        ["lift", "--in", "{shear}", "--order", "x"],
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
        "zero_den_endo": str(tmp_path / "zero_den_endo.json"),
        "zero_den_word": str(tmp_path / "zero_den_word.json"),
    }
    doc = endo_to_json(Endo("P", FL1, QQ, [pelt("x1"), pelt("p1")]))
    doc["images"][0] = "x1 + 1/0*x1^2"
    dump_json(doc, paths["zero_den_endo"])
    word = {"kind": "symplectic", "n": 1, "gens": [
        {"kind": "xshift", "index": 0, "poly": {"2": "1/0"}},
    ]}
    dump_json(word, paths["zero_den_word"])
    rep, code = run_command([arg.format(**paths) for arg in argv])
    assert code == 1
    assert set(rep) == {"schema", "error"}
    assert set(rep["error"]) == {"usage"}
    assert isinstance(rep["error"]["usage"], str)


def test_power_past_the_expansion_bound_is_usage_error(monkeypatch):
    import weylift.elements

    # A small bound reaches the same guard as EXPANSION_BOUND, sooner.
    monkeypatch.setattr(weylift.elements, "EXPANSION_BOUND", 500)
    rep, code = run_command(["bracket", "--side", "W", "--", "(x1+d1)^5000", "x1"])
    assert code == 1
    assert set(rep) == {"schema", "error"}
    message = rep["error"]["usage"]
    assert message.startswith("ExpansionBoundExceeded: ")
    assert "(bound 500)" in message


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
    combined = endo_from_json(load_json(str(out)))
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


def _golden_files(tmp_path):
    """Input documents for the pinned reports, written under tmp_path."""
    fl2 = BracketFlavor("standard", 2)
    # x1 += x2 and p2 -= p1, then shifts on both pairs: an n = 2 word
    # whose first letter is linear.
    cross = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]]
    word = TameWord("symplectic", 2, [
        ElementaryGen("sp", cross),
        ElementaryGen("pshift", (0, {2: Fraction(1), 3: Fraction(-2)})),
        ElementaryGen("xshift", (1, {2: Fraction(3)})),
    ])
    paths = {}

    def put(name, endo):
        path = tmp_path / f"{name}.json"
        dump_json(endo_to_json(endo), str(path))
        paths[name] = str(path)

    put("linear2", evaluate(word, "P", fl2, QQ))
    # Its stage potentials use several generators at once (mixed splits).
    put("mixed", evaluate(random_tame(2, 4, 2, seed=4), "P", fl2, QQ))
    put("composite", Endo("P", FL1, QQ, [pelt("x1 + p1^2"), pelt("p1")]).compose(
        Endo("P", FL1, QQ, [pelt("x1"), pelt("p1 + x1^2")])
    ))
    shifts = TameWord("symplectic", 1, [
        ElementaryGen("xshift", (0, {2: Fraction(1)})),
        ElementaryGen("pshift", (0, {3: Fraction(2)})),
    ])
    put("weyl", evaluate(shifts, "W", FL1, QQ))
    put("shear", Endo("P", FL1, QQ, [pelt("x1 + p1^2"), pelt("p1")]))
    aux = BracketFlavor("standard", 1, aux=True)
    put("special", Endo("P", aux, QQ, [
        parse_element(text, QQ, aux, "P") for text in ("x1 + x1*p1^2", "u", "p1", "v")
    ]))
    return paths


_BRACKET_EXPRS = {
    ("standard", "P"): ("x1^2*p1 + 3*x2*p2^2", "p1^3*x2 + x1*p2"),
    ("standard", "W"): ("x1^2*d1 + 3*x2*d2^2", "d1^3*x2 + x1*d2"),
    ("haug", "P"): ("x1^2*p1*h + 2*x2*p2", "p1^2 + x1*p2*h"),
    ("haug", "W"): ("x1^2*d1*h + 2*x2*d2", "d1^2 + x1*d2*h"),
    ("skew", "P"): ("xi1*xi3^2 + 2*xi2*xi4*h", "xi2^2*xi3 + 3*xi1*k1_2"),
    ("skew", "W"): ("xi1*xi3^2 + 2*xi2*xi4*h", "xi2^2*xi3 + 3*xi1*k1_2"),
}


def _bracket(flavor, side, field):
    return ["bracket", *_BRACKET_EXPRS[flavor, side], "--side", side,
            "--flavor", flavor, "--n", "2", "--field", field]


#: (argv, sha256 of the canonical JSON report without timing_ms).
_PINNED = [
    (["approximate", "--in", "{linear2}", "--order", "4"], "f732626ef561fef628217d4bef43a5992c76a5ca47d6271576cc0455af87dfde"),
    (["approximate", "--in", "{linear2}", "--order", "4", "--tie-break", "alt"], "9b1d1265b1b5c085b57aaaaf0ea5e83448557c9130699c584db549a856b3df0c"),
    (["approximate", "--in", "{mixed}", "--order", "4"], "ab532e6c1cd7f93740969a69b880b8985d7f9dae347c4763f907ccb68e640368"),
    (["approximate", "--in", "{mixed}", "--order", "4", "--tie-break", "alt"], "256f0993368934a92fa558ed7b49c7afd32e3648e201019bbb3daefecf359b4c"),
    # Order 6 reaches the second-order term of the residual's undo shift.
    (["approximate", "--in", "{mixed}", "--order", "6"], "e36e9a103b60ebdebeacafa42b46cf9be7e09921974200052779ec931ed8531e"),
    (["approximate", "--in", "{mixed}", "--order", "6", "--tie-break", "alt"], "8f27c41527c2506f7b592a4cb97491ccfa6551a87e8f3521e25dbc7b2dc98c9f"),
    (["lift", "--in", "{composite}", "--order", "5", "--primes", "3,5,7"], "574e5e31184753930c4e89c17d611aed9bc5f1a4288f7c96764e9010accbc4cb"),
    (["check", "--in", "{shear}"], "672bb016eacdb4041360afcafe6ab0e8c00cb2bf38f266ed6124f3e694e1785e"),
    (["check", "--in", "{weyl}"], "3b0e001fcca1b96b8f1948b259ef8970e454856cf0b717c09fb44fcbac7a4afd"),
    (["phi-p", "--in", "{weyl}", "--prime", "3"], "6b8ef1b4d1308a094d670a830520c2b8f4d8aaece8e9b7dd44f4a46dabd0eff4"),
    (["phi-p", "--in", "{weyl}", "--prime", "5"], "b3e69a3f98751405096e2b650de29b6e562e0355c1ef93a817a1c06233d715b2"),
    (["singscan", "--in", "{shear}", "--order", "3"], "76543f19daacba5a49aaf2fd902beab39d32d24c8ff38c843661578136fe6c4c"),
    (["singscan", "--in", "{special}", "--order", "3"], "6e479b294c2df9fe1067697b2b361731d8f2f7d2bdfb291556b686ca6ed33f50"),
    (["singscan", "--in", "{shear}", "--order", "2", "--samples", "20", "--seed", "4"], "35d6039064eb2bdbb06a57d3e2c9142bb874c4d26cf5682ad463bf604d3a8b3a"),
    (_bracket("standard", "P", "Q"), "75d9a4ce1ab72efa52ae369bde150cc2cbbb7ddab5771d92b44ac3804fb7aebd"),
    (_bracket("standard", "P", "7"), "a3ad6e401f151cfa2f9ac3019b52304bf22b908188770d7633bbbf9ff94ea3b4"),
    (_bracket("standard", "W", "Q"), "7cae641c2339184eff2b4be4035f099bb4e27c3525e71ce4bebafbdc47386e53"),
    (_bracket("standard", "W", "7"), "8de25049762d141810e955ae5dd416facaffe60cda8e963266dc064d43d8ea02"),
    (_bracket("haug", "P", "Q"), "373ff30a959e1350f46f68ffb424587f366b7ab43eb6193a7f92aab84af9c93e"),
    (_bracket("haug", "P", "7"), "c67b4911bb7f5bf01befbc6eda87f4c8d721d79dee63bf99dce679ef5a327fc0"),
    (_bracket("haug", "W", "Q"), "3f574254a0b9b2051601e004e88646a9df74b57ee442deb323702a4c8b2a542d"),
    (_bracket("haug", "W", "7"), "0192108e90ada64656985e1bb789c9b1bb8f21e17faa6094916493091879fccf"),
    (_bracket("skew", "P", "Q"), "25d43656391ccf5751629d9172fe2eec9be617f540983f41de1f6412fba81f1f"),
    (_bracket("skew", "P", "7"), "f99256edb5eb2990b22f69e05b340cae3e571e41bd02b5b1f07681cde59934dd"),
    (_bracket("skew", "W", "Q"), "9317c35d326ecf58bce8553c948cc2b0ae599fb8737d0c09c0dec7608a217520"),
    (_bracket("skew", "W", "7"), "ff0d677316d77f64eb795dec97be8834e66bef6c1ac8006dddcc267e67a224c3"),
]


def _report_digest(report):
    report = {k: v for k, v in report.items() if k != "timing_ms"}
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_reports_are_pinned(tmp_path):
    paths = _golden_files(tmp_path)
    for argv, want in _PINNED:
        rep, code = run_command([arg.format(**paths) for arg in argv])
        assert code == 0, (argv, rep)
        assert _report_digest(rep) == want, argv
