"""Command-line interface: reports, exit codes, reproducibility."""

import copy
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import weylift
from weylift import BracketFlavor, Endo, Field, Poly, QQ, parse_element
from weylift.cli import main, run_command
from weylift.errors import ExpansionBoundExceeded
from weylift.serialize import (
    canonical_json,
    digest,
    dump_json,
    endo_from_json,
    endo_to_json,
    load_json,
)
from weylift.tame import ElementaryGen, TameWord, evaluate, random_tame
from weylift.weyl import WeylElt

FL1 = BracketFlavor("standard", 1)


def pelt(text):
    return parse_element(text, QQ, FL1, "P")


def shear_file(tmp_path, name="sig.json"):
    path = tmp_path / name
    dump_json(endo_to_json(Endo("P", FL1, QQ, [pelt("x1 + p1^2"), pelt("p1")])), str(path))
    return str(path)


def weyl_file(tmp_path, name="xd.json"):
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
        ["check", "--in", "{string_field_endo}"],
        ["invert", "--in", "{list_poly_word}"],
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
        ["bracket", "--", "{deep}", "x1"],
        ["check", "--in", "{deep_json}"],
        ["check", "--in", "{deep_image_endo}"],
        ["check", "--in", "{huge_flavor_endo}"],
        ["singscan", "--in", "{huge_flavor_endo}", "--order", "2"],
        ["bracket", "--n", str(10**30), "--", "x1", "d1"],
        ["corpus", "--seed", "1", "--n", str(10**30)],
        ["corpus", "--seed", "1", "--count", "1", "--n", "3000"],
        ["corpus", "--seed", "1", "--count", "1", "--maxdeg", "1000000000"],
        ["corpus", "--seed", "1", "--count", "1", "--length", "1000000000"],
        ["corpus", "--seed", "1", "--count", "1", "--length", "18"],
        ["corpus", "--seed", "1", "--count", "1000000000"],
        ["bracket", "--", "x1^²", "x1"],
        ["bracket", "--", "x1^١", "x1"],
        ["bracket", "--", "²", "x1"],
        ["invert", "--in", "{gl_word}"],
        ["invert", "--in", "{stretch_word}"],
        ["invert", "--in", "{zero_sp_word}"],
        ["invert", "--in", "{half_index_word}"],
        ["invert", "--in", "{half_n_word}"],
        ["invert", "--in", "{half_n_letter_word}"],
        ["invert", "--in", "{true_n_word}"],
        ["invert", "--in", "{zero_n_word}"],
        ["invert", "--in", "{negative_n_word}"],
        ["compose", "{true_n_endo}", "{true_n_endo}"],
        ["compose", "{true_k_endo}", "{true_k_endo}"],
        ["compose", "{float_modulus_endo}", "{float_modulus_endo}"],
        ["check", "--in", "{string_aux_endo}"],
        ["invert", "--in", "{arabic_exponent_word}"],
        ["invert", "--in", "{spaced_exponent_word}"],
        ["invert", "--in", "{float_value_word}"],
        ["invert", "--in", "{true_value_word}"],
        ["invert", "--in", "{float_sp_word}"],
        ["compose", "{string_images_endo}", "{string_images_endo}"],
        ["compose", "{string_k_images_endo}", "{string_k_images_endo}"],
        ["invert", "--in", "{string_rows_word}"],
        ["check", "--in", "{string_names_endo}"],
        ["compose", "{repeated_names_endo}", "{repeated_names_endo}"],
        ["check", "--in", "{skew_names_endo}"],
        ["approximate", "--in", "{shear}", "--order", "1000000000"],
        ["lift", "--in", "{shear}", "--order", "1000000000"],
        ["invert", "--in", "{inverse_endo}", "--order", "1000000000"],
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
        "string_field_endo": str(tmp_path / "string_field_endo.json"),
        "list_poly_word": str(tmp_path / "list_poly_word.json"),
        "deep": "(" * 3000 + "x1" + ")" * 3000,
        "deep_json": str(tmp_path / "deep.json"),
        "deep_image_endo": str(tmp_path / "deep_image_endo.json"),
        "huge_flavor_endo": str(tmp_path / "huge_flavor_endo.json"),
        "gl_word": str(tmp_path / "gl_word.json"),
        "stretch_word": str(tmp_path / "stretch_word.json"),
        "zero_sp_word": str(tmp_path / "zero_sp_word.json"),
        "half_index_word": str(tmp_path / "half_index_word.json"),
        **{
            name: str(tmp_path / f"{name}.json")
            for name in (
                "half_n_word", "half_n_letter_word", "true_n_word", "zero_n_word",
                "negative_n_word", "true_n_endo", "true_k_endo", "float_modulus_endo",
                "string_aux_endo", "arabic_exponent_word", "spaced_exponent_word",
                "float_value_word", "true_value_word", "float_sp_word",
                "string_images_endo", "string_k_images_endo", "string_rows_word",
                "string_names_endo", "repeated_names_endo", "skew_names_endo",
                "inverse_endo",
            )
        },
    }
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    doc = endo_to_json(Endo("P", FL1, QQ, [pelt("x1"), pelt("p1")]))
    dump_json({**doc, "field": "Q"}, paths["string_field_endo"])
    doc["images"][0] = "x1 + 1/0*x1^2"
    dump_json(doc, paths["zero_den_endo"])
    doc["images"][0] = paths["deep"]
    dump_json(doc, paths["deep_image_endo"])
    doc["images"][0] = "x1"
    doc["flavor"]["n"] = 10**30
    dump_json(doc, paths["huge_flavor_endo"])
    word = {"kind": "symplectic", "n": 1, "gens": [
        {"kind": "xshift", "index": 0, "poly": {"2": "1/0"}},
    ]}
    dump_json(word, paths["zero_den_word"])
    word["gens"][0]["poly"] = []
    dump_json(word, paths["list_poly_word"])
    word["gens"][0] = {"kind": "xshift", "index": 0.5, "poly": {"2": "1"}}
    dump_json(word, paths["half_index_word"])
    word["gens"][0] = {"kind": "sp", "matrix": [["2", "0"], ["0", "1"]]}
    dump_json(word, paths["stretch_word"])
    word["gens"][0] = {"kind": "sp", "matrix": [["0", "0"], ["0", "0"]]}
    dump_json(word, paths["zero_sp_word"])
    word = {"kind": "gl", "n": 1, "gens": [{"kind": "lin", "matrix": [["1", "2"], ["0", "1"]]}]}
    dump_json(word, paths["gl_word"])
    # Document integers are JSON integers: no float, no bool, and a word's n >= 1.
    letter = {"kind": "xshift", "index": 0, "poly": {"2": "1"}}
    for name, n, gens in (
        ("half_n_word", 1.5, []),
        ("half_n_letter_word", 1.5, [letter]),
        ("true_n_word", True, [letter]),
        ("zero_n_word", 0, []),
        ("negative_n_word", -3, []),
    ):
        dump_json({"kind": "symplectic", "n": n, "gens": gens}, paths[name])
    # Word values are JSON integers or exact rational strings, and an exponent
    # key is the decimal text of an int >= 1, as word_to_json writes them.
    for name, gen in (
        ("arabic_exponent_word", {**letter, "poly": {"\u0661": "1"}}),
        ("spaced_exponent_word", {**letter, "poly": {" 2": "1"}}),
        ("float_value_word", {**letter, "poly": {"2": 0.1}}),
        ("true_value_word", {**letter, "poly": {"2": True}}),
        ("float_sp_word", {"kind": "sp", "matrix": [[0.5, 0], [0, 2]]}),
        # Arrays are JSON arrays: a string would be read one character at a time.
        ("string_rows_word", {"kind": "sp", "matrix": ["10", "01"]}),
    ):
        dump_json({"kind": "symplectic", "n": 1, "gens": [gen]}, paths[name])
    haug, skew = BracketFlavor("haug", 1), BracketFlavor("skew", 1)
    for name, doc in (
        ("string_images_endo", _endo_doc(FL1, "12")),
        ("string_k_images_endo", _endo_doc(skew, ["xi1", "xi2"], {"k_images": "h"})),
        # A flavor's names are absent or ["z", "w"], as center_flavor writes them.
        (
            "string_names_endo",
            _endo_doc(FL1, ["z1", "w1"], {"flavor": {**FL1.to_json(), "names": "zw"}}),
        ),
        (
            "repeated_names_endo",
            _endo_doc(haug, ["x1 + h", "x1 + 2*h"], {"flavor": {**haug.to_json(), "names": ["x", "x"]}}),
        ),
        # A skew flavor's generators are xi whatever the names say.
        (
            "skew_names_endo",
            _endo_doc(skew, ["xi1", "xi2"], {"flavor": {**skew.to_json(), "names": ["z", "w"]}}),
        ),
        ("inverse_endo", _endo_doc(FL1, ["x1 + x1^2", "p1"])),
    ):
        dump_json(doc, paths[name])
    doc = endo_to_json(Endo.identity("P", FL1, QQ))
    dump_json({**doc, "flavor": {"kind": "standard", "n": True}}, paths["true_n_endo"])
    doc = endo_to_json(Endo.identity("P", FL1, Field("Fp", 7)))
    dump_json({**doc, "field": {"kind": "Fp", "p": 7, "k": True}}, paths["true_k_endo"])
    doc = endo_to_json(Endo.identity("P", FL1, Field("Fp", 2, 2, (1, 1, 1))))
    doc["field"]["modulus"] = [1.0, 1, 1]
    dump_json(doc, paths["float_modulus_endo"])
    doc = endo_to_json(Endo.identity("P", BracketFlavor("standard", 1, aux=True), QQ))
    doc["flavor"]["aux"] = "false"
    dump_json(doc, paths["string_aux_endo"])
    rep, code = run_command([arg.format(**paths) for arg in argv])
    assert code == 1
    assert set(rep) == {"schema", "error"}
    assert set(rep["error"]) == {"usage"}
    assert isinstance(rep["error"]["usage"], str)


def _endo_doc(flavor, images, extra=None):
    return {**endo_to_json(Endo.identity("P", flavor, QQ)), "images": images, **(extra or {})}


def test_constant_term_is_refused_where_a_truncation_reads_it(tmp_path):
    refused = {"type": "WeyliftError", "message": "image of generator 0 has a constant term"}
    for idx, images in enumerate((["x1 + 1", "p1"], ["x1 + p1^2 + 1", "p1"])):
        path = str(tmp_path / f"translation{idx}.json")
        dump_json(_endo_doc(FL1, images), path)
        for argv in (
            ["approximate", "--in", path, "--order", "4"],
            ["lift", "--in", path, "--order", "4"],
            ["invert", "--in", path, "--order", "3"],
        ):
            rep, code = run_command(argv)
            assert (code, rep["error"]) == (2, refused), argv
        for argv in (
            ["check", "--in", path],
            ["compose", path, path],
            ["singscan", "--in", path, "--order", "2"],
        ):
            assert run_command(argv)[1] == 0, argv


def test_endo_document_reads_only_the_slots_of_its_flavor(tmp_path):
    def composed(doc):
        path = str(tmp_path / "doc.json")
        dump_json(doc, path)
        return run_command(["compose", path, path])

    haug, skew = BracketFlavor("haug", 1), BracketFlavor("skew", 1)
    shear, hshear = ["x1 + p1^2", "p1"], ["x1 + p1^2*h", "p1"]
    # h_image on a flavor without h, and k_images on one without k, are ignored.
    for flavor, images, extra in (
        (FL1, shear, {"h_image": "x1"}),
        (haug, hshear, {"k_images": ["x1"]}),
    ):
        rep, code = composed(_endo_doc(flavor, images, extra))
        plain, plain_code = composed(_endo_doc(flavor, images))
        assert code == plain_code == 0
        assert rep["result"] == plain["result"]
    rep, code = composed(_endo_doc(haug, hshear, {"h_image": "2*h"}))
    assert code == 0
    assert rep["result"]["endo"]["h_image"] == "4*h"
    for doc, message in (
        (_endo_doc(FL1, [*shear, "x1"]), "expected 2 images, got 3"),
        (_endo_doc(haug, hshear, {"h_image": 2}), "an image must be an expression string, got 2"),
        (
            _endo_doc(skew, ["xi1", "xi2"], {"k_images": ["k1_2", "k1_2"]}),
            "expected 4 slot images, got 5",
        ),
    ):
        rep, code = composed(doc)
        assert code == 1
        assert rep["error"]["usage"].endswith(message)


def test_extension_field_endo_reads_back(tmp_path):
    f4 = Field("Fp", 2, 2, (1, 1, 1))

    def welt(text):
        return parse_element(text, f4, FL1, "W", WeylElt)

    path, out = str(tmp_path / "f4.json"), str(tmp_path / "f4c.json")
    dump_json(endo_to_json(Endo("W", FL1, f4, [welt("a*x1 + d1^2"), welt("(a+1)*d1")])), path)
    rep, code = run_command(["check", "--in", path])
    assert (code, rep["result"]) == (0, {"weyl": True})
    _, code = run_command(["compose", path, path, "--out", out])
    assert code == 0
    assert load_json(out)["images"] == ["(a+1)*x1", "a*d1"]
    rep, code = run_command(["check", "--in", out])
    assert (code, rep["result"]) == (0, {"weyl": True})


def test_leading_minus_expression_points_after_double_dash():
    rep, code = run_command(["bracket", "--side", "W", "-x1", "d1"])
    assert code == 1
    assert "the following arguments are required: EXPR" in rep["error"]["usage"]
    assert "goes after '--'" in rep["error"]["usage"]
    rep, code = run_command(["bracket", "--side", "W", "--", "-x1", "d1"])
    assert code == 0
    assert rep["result"]["bracket"] == "1"


def test_power_past_the_expansion_bound_is_usage_error(monkeypatch):
    import weylift.elements

    # A small bound reaches the same guards as EXPANSION_BOUND, sooner:
    # (x1+d1)^60 passes 500 terms, and 10^20 is past the exponent cap.
    monkeypatch.setattr(weylift.elements, "EXPANSION_BOUND", 500)
    for expr, guard in (("(x1+d1)^60", "terms"), ("x1^99999999999999999999", "exponent")):
        rep, code = run_command(["bracket", "--side", "W", "--", expr, "x1"])
        assert code == 1
        assert set(rep) == {"schema", "error"}
        message = rep["error"]["usage"]
        assert message.startswith("ExpansionBoundExceeded: ")
        assert guard in message
        assert "(bound 500)" in message


_EXPONENT_11 = "exponent 11 asks for more multiplications than the bound (bound 10)"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: (pelt("x1") + pelt("p1")) ** 10, "intermediate expansion hit 11 terms (bound 10)"),
        (lambda: pelt("x1") ** 11, _EXPONENT_11),
        (lambda: pelt("x1^11"), _EXPONENT_11),
        (lambda: BracketFlavor("standard", 5), "a standard flavor with n=5 has 11 key slots (bound 10)"),
        (lambda: random_tame(2, 1, 2, 1), "a word on n=2 pairs has 16 matrix entries (bound 10)"),
        (
            lambda: random_tame(1, 4, 2, 1),
            "a word of 4 letters with shifts of degree up to 2 reaches degree 2^4 (bound 10)",
        ),
        (["corpus", "--seed", "1", "--count", "11"], "--count 11 asks for more words than the bound (bound 10)"),
        (
            ["approximate", "--in", "missing.json", "--order", "11"],
            "--order 11 asks for more degrees than the bound (bound 10)",
        ),
    ],
    ids=[
        "product terms",
        "power exponent",
        "parser exponent",
        "flavor key slots",
        "word matrix entries",
        "word degree reach",
        "corpus count",
        "approximate order",
    ],
)
def test_size_guard_messages(monkeypatch, make, message):
    # Every guard on EXPANSION_BOUND, its full message pinned.
    import weylift.elements

    monkeypatch.setattr(weylift.elements, "EXPANSION_BOUND", 10)
    if isinstance(make, list):
        rep, code = run_command(make)
        assert (code, rep["error"]) == (1, {"usage": "ExpansionBoundExceeded: " + message})
        return
    with pytest.raises(ExpansionBoundExceeded) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kind, field, want",
    [
        ("haug", QQ, {"symplecto": True}),
        ("skew", QQ, {"symplecto": True}),
        ("standard", Field("Fp", 5), {"symplecto": True, "jacobian": "1"}),
    ],
    ids=["haug", "skew", "F5"],
)
def test_check_reads_the_bracket_check_alone(tmp_path, kind, field, want):
    flavor = BracketFlavor(kind, 1)
    x, p = (Poly.generator(field, flavor, i) for i in range(2))
    path = str(tmp_path / "shear.json")
    dump_json(endo_to_json(Endo("P", flavor, field, [x + p * p, p])), path)
    rep, code = run_command(["check", "--in", path])
    assert (code, rep["result"]) == (0, want)


def test_check_reads_the_phi_p_output(tmp_path):
    path = str(tmp_path / "c3.json")
    _, code = run_command(["phi-p", "--in", weyl_file(tmp_path), "--prime", "3", "--out", path])
    assert code == 0
    rep, code = run_command(["check", "--in", path])
    assert (code, rep["result"]) == (0, {"symplecto": True, "jacobian": "1"})


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


def test_approximate_report_lists_only_the_stages_that_work(tmp_path):
    # One entry per degree would be 199 998 entries at this order; the
    # shear's only work is stage 2.
    start = time.monotonic()
    rep, code = run_command(["approximate", "--endo", shear_file(tmp_path), "--order", "200000"])
    assert code == 0 and time.monotonic() - start < 10
    assert rep["verification"]["stages"] == {2: 1}
    assert rep["result"]["report"]["letters"] == {2: 1}
    assert len(json.dumps(rep)) < 1000


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


def test_lift_rejects_a_repeated_prime(tmp_path):
    rep, code = run_command([
        "lift", "--endo", shear_file(tmp_path), "--order", "4", "--primes", "3,5,3",
    ])
    assert code == 1
    assert rep["error"] == {"usage": "prime 3 is listed twice in --primes"}


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


def test_singscan_on_a_pole_free_endo_is_bounded_in_the_order(tmp_path):
    # Every curve box is closed at its corner, so no curve is walked or drawn.
    scaling = Endo("P", FL1, QQ, [pelt("2*x1"), pelt("1/2*p1")])
    for name, endo in (("id.json", Endo.identity("P", FL1, QQ)), ("scale.json", scaling)):
        path = tmp_path / name
        dump_json(endo_to_json(endo), str(path))
        rep, code = run_command([
            "singscan", "--in", str(path), "--order", "100000", "--samples", "200", "--seed", "1",
        ])
        assert code == 0
        assert rep["result"] == {"verdict": "ConsistentWithHN"}


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


def test_closed_stdout_ends_quietly(tmp_path):
    # The reader is gone before the report is written: the command keeps
    # its own exit code and stderr stays free of a traceback.
    src = os.path.dirname(os.path.dirname(weylift.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "weylift.cli", "check", "--endo", shear_file(tmp_path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "doc",
    [{}, [], {"b": [1, "2"], "a": {"z": None, "y": 1.5}}, {"endo": {"images": ["x1^2 + p1"]}}],
)
def test_digest_is_sha256_of_canonical_json(doc):
    assert digest(doc) == hashlib.sha256(canonical_json(doc).encode()).hexdigest()


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
    (["approximate", "--in", "{linear2}", "--order", "4"], "85ce76dbfbe583b391cdfa9ef272893627e53e733f67b2ce03dada2a4be3b053"),
    (["approximate", "--in", "{linear2}", "--order", "4", "--tie-break", "alt"], "0aa81b09aa816b24766581ccd6c257173e32e7c7ceda73141b9515678f360ad1"),
    (["approximate", "--in", "{mixed}", "--order", "4"], "97b5751f3048dd5a79e31b614014d2b4ee62e9187c232dcec2b8e0d592558475"),
    (["approximate", "--in", "{mixed}", "--order", "4", "--tie-break", "alt"], "c67f555c371b8100332f5b92809bf514824dff5a25054635ce5546ee4c659c76"),
    # Order 6 reaches the second-order term of the residual's undo shift.
    (["approximate", "--in", "{mixed}", "--order", "6"], "92b1418a3c33ff48957872ac150cfbff515123b3408824f431a001bcffba7ae4"),
    (["approximate", "--in", "{mixed}", "--order", "6", "--tie-break", "alt"], "d9b4ab9877cf5abe37a322ae34e4fe30951b98e07be3073679d9c296789ad2fb"),
    (["lift", "--in", "{composite}", "--order", "5", "--primes", "3,5,7"], "d8b57e12f2f4eb488f42081f2c40a1daf6507c4e3d6525ec202a502c2d4e6e39"),
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
